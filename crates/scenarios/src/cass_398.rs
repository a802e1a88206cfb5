//! cassandra-operator-398 — "Reconcile() fails to delete the corresponding
//! PVC if missing deletionTimestamp of Cassandra pod" (§7, \[17\]-shaped).
//!
//! The shipped operator deletes a decommissioned node's PVC only when its
//! reconcile loop has *observed* the pod carrying a deletion timestamp.
//! That observation lives in volatile memory: crash the operator between
//! marking the pod and the pod's finalization, and the restarted operator —
//! whose view jumps straight from "pod alive" to "pod gone" — never deletes
//! the PVC. An observability gap created by a restart.
//!
//! Guided injection: [`crash_on_annotation`] on the operator's own
//! `operator.decommission` decision — crash it 100 ms after the mark (the
//! pod is still draining), restart it 400 ms later (the pod is gone).
//!
//! Schedule: `1.0s` seed + dc1 desired 3 → converge → `3.0s` scale to 2 →
//! `7.0s` end.

use ph_cluster::objects::{Body, Object};
use ph_cluster::operator::OperatorFlags;
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::Strategy;
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::strategies::crash_on_annotation;
use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// cassandra-operator-398 as a value. The operator must delete the
/// decommissioned node's PVC (`operator.delete_pvc`); in the buggy run it
/// never does — an omission sink across its crash/restart. Its
/// observed-terminating-only PVC cleanup is the gap the static pass looks
/// at.
pub static SCENARIO: Scenario = Scenario {
    name: "cass-op-398",
    pattern: PatternClass::ObservabilityGap,
    blame: BlameSpec {
        scenario: "cass-op-398",
        component: "cassandra-operator",
        action_labels: &["operator.delete_pvc"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(7),
    stack: Stack::Cluster {
        config: |variant| operator_cluster(flags(variant)),
        focal: "cassandra-operator",
        seed: seed_datacenter::<3>,
        workload,
        oracles: |cluster| {
            vec![
                oracles::no_orphan_pvcs(cluster.clone()),
                oracles::no_wrongful_pvc_delete(cluster.clone()),
                oracles::cassdc_converged(cluster.clone(), "dc1", 2),
            ]
        },
    },
    guided,
    realize,
};

/// Defect switches for this scenario's buggy variant: only bug 398.
fn flags(variant: Variant) -> OperatorFlags {
    if variant.is_buggy() {
        OperatorFlags {
            pvc_requires_observed_terminating: true,
            handle_decommission_notfound: true,
            fresh_confirm_orphan: false,
        }
    } else {
        OperatorFlags::fixed()
    }
}

/// The tuned §7 injection: crash the operator right after its decommission
/// decision; restart it after the pod has been finalized.
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(crash_on_annotation(
        "operator.decommission",
        Duration::millis(100),
        Duration::millis(400),
        1,
    ))
}

/// The operator's decommission acknowledgement is lost across its
/// crash-restart: the drop-notification letter lands as a crash in the
/// decision window (the restart wipes the in-flight event).
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DropNotification(_) | Letter::CrashRestartReplay => vec![guided(0)],
        _ => Vec::new(),
    }
}

/// The cluster the three cassandra-operator scenarios share: two nodes, a
/// scheduler, and the operator with one scenario's defect switches.
pub(crate) fn operator_cluster(flags: OperatorFlags) -> ClusterConfig {
    ClusterConfig {
        apiservers: 2,
        nodes: vec!["node-1".into(), "node-2".into()],
        scheduler: Some(true),
        operator: Some(flags),
        ..ClusterConfig::default()
    }
}

/// Datacenter `dc1` at `desired` Cassandra nodes.
pub(crate) fn datacenter(desired: u32) -> Object {
    Object::new("dc1", Body::CassandraDatacenter { desired })
}

/// The three scenarios' common start: both nodes and `dc1` at `DESIRED`.
pub(crate) fn seed_datacenter<const DESIRED: u32>(runner: &mut Runner) {
    runner.seed(&Object::node("node-1"));
    runner.seed(&Object::node("node-2"));
    runner.seed(&datacenter(DESIRED));
}

fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::secs(3), QUANTUM);
    // Scale down: the operator decommissions dc1-2 and must then clean up
    // its PVC.
    runner.seed(&datacenter(2));
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn restart_during_decommission_leaks_the_pvc() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected dc1-pvc-2 to leak");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("dc1-pvc-2")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn fixed_operator_cleans_up_despite_the_restart() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

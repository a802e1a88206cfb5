//! cassandra-operator-402 — "PVC can be accidentally deleted when the
//! controller reads stale data from apiserver" (§7).
//!
//! The operator's orphaned-PVC sweep trusts its cached pod list. Freeze the
//! pod's events (but not the PVC's) on their way to apiserver-2, restart
//! the operator so it re-synchronizes there, and its view shows the PVC
//! with no owning pod — so it deletes the storage of a **live** Cassandra
//! node. Data loss from a stale read.
//!
//! Guided injection: a composition of the selective staleness injector
//! ([`hold_matching`] on `pods/dc1-2` toward apiserver-2) and the
//! trace-triggered restart ([`crash_on_annotation`] on the operator's
//! `operator.create_pod` decision).
//!
//! * **buggy** (`fresh_confirm_orphan = false`): deletes `dc1-pvc-2` while
//!   `dc1-2` runs — the wrongful-delete oracle fires;
//! * **fixed**: confirms the owner's absence with a quorum read, finds the
//!   pod alive, and leaves the PVC alone.
//!
//! Schedule: `1.0s` seed + dc1 desired 2 → converge → hold `pods/dc1-2`
//! events to api-2 from `2.4s` → `2.5s` desired 3 (operator creates
//! `dc1-pvc-2` then `dc1-2`) → crash operator 300 ms after the create,
//! restart 300 ms later on api-2 → release backlog at teardown → `6.5s` end.

use ph_cluster::operator::OperatorFlags;
use ph_core::perturb::{Schedule, Strategy, TargetRef};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::cass_398::{datacenter, operator_cluster, seed_datacenter};
use crate::strategies::{crash_on_annotation, hold_matching, EventSelector};
use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// cassandra-operator-402 as a value. The operator's orphan sweep deletes a
/// live pod's PVC (`operator.delete_pvc`) off a stale apiserver view; that
/// cache-trusting sweep is the staleness vector the static pass looks at.
pub static SCENARIO: Scenario = Scenario {
    name: "cass-op-402",
    pattern: PatternClass::Staleness,
    blame: BlameSpec {
        scenario: "cass-op-402",
        component: "cassandra-operator",
        action_labels: &["operator.delete_pvc"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::millis(6500),
    stack: Stack::Cluster {
        config: |variant| operator_cluster(flags(variant)),
        focal: "cassandra-operator",
        seed: seed_datacenter::<2>,
        workload,
        oracles: |cluster| vec![oracles::no_wrongful_pvc_delete(cluster.clone())],
    },
    guided,
    realize,
};

/// Defect switches for this scenario's buggy variant: only bug 402.
fn flags(variant: Variant) -> OperatorFlags {
    if variant.is_buggy() {
        OperatorFlags {
            pvc_requires_observed_terminating: false,
            handle_decommission_notfound: true,
            fresh_confirm_orphan: false,
        }
    } else {
        OperatorFlags::fixed()
    }
}

/// The tuned §7 injection (see module docs).
fn guided(_seed: u64) -> Box<dyn Strategy> {
    hold_and_crash("staleness+time-travel")
}

/// The hold+crash pair under the name `label`. The operator is component 3;
/// apiserver-2 is cache 1.
fn hold_and_crash(label: &str) -> Box<dyn Strategy> {
    let hold = hold_matching(
        TargetRef::Cache(1),
        EventSelector::key("pods/dc1-2"),
        Duration::millis(2400),
        None,
    );
    let crash = crash_on_annotation(
        "operator.create_pod",
        Duration::millis(300),
        Duration::millis(300),
        1,
    );
    Box::new(Schedule::new(label, [hold.ops, crash.ops].concat()))
}

/// Hold the pod-created update away from the operator's cache while a
/// restart makes it act on the held (stale) view. The switch and crash
/// letters concretize to the very same hold+crash pair (the restart IS the
/// switch onto the held view), so they dedup.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    let lands = match letter {
        Letter::DelayCache(resource) => resource == "pods",
        Letter::UpstreamSwitch | Letter::CrashRestartReplay => true,
        _ => false,
    };
    if lands {
        vec![hold_and_crash("witness[delay-cache(pods) ; crash-restart]")]
    } else {
        Vec::new()
    }
}

fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::millis(2500), QUANTUM);
    // Scale up: the operator creates dc1-pvc-2, then pod dc1-2.
    runner.seed(&datacenter(3));
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn stale_view_deletes_a_live_pods_storage() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected a wrongful PVC deletion");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("dc1-pvc-2") && v.details.contains("alive")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn fresh_confirmation_protects_the_pvc() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

//! The volume-controller bug — reference \[17\] of the paper (§4.2.3's
//! worked example, and the template for cassandra-operator-398).
//!
//! "The controller only learns of the state of the system via sparse reads
//! of its local view S′. The bug happens when the pod is marked for
//! deletion (e1) and subsequently deleted (e2) between two sparse reads of
//! S′ by the controller. The controller therefore does not learn of the pod
//! deletion (as the logic expects to see e1) and does not release the
//! storage volumes of the deleted pod."
//!
//! The guided injection drops exactly e1 (the termination-mark update) on
//! its way to the volume controller: its view `S′` goes straight from
//! "p1 alive" to "p1 gone" — e1 became unobservable — and the MarkOnly
//! controller leaks the PVC.
//!
//! * **buggy** — `VcMode::MarkOnly` (release only on an observed mark);
//! * **fixed** — `VcMode::FreshOrphan` (orphan sweep confirmed by quorum
//!   reads).
//!
//! Schedule: `1.0s` seed node + pvc `v1` + pod `p1` → `2.0s` graceful
//! delete of `p1` (kubelet stops, waits grace, finalizes) → `5.0s` end.

use ph_cluster::controllers::VcMode;
use ph_cluster::objects::Object;
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::{Strategy, TargetRef};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::strategies::{drop_matching, hold_matching, EventSelector};
use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// Bug \[17\] as a value. The volume controller must release the PVC
/// (`vc.release_pvc`); in the buggy run it never does — an omission sink —
/// because the termination mark was dropped from its apiserver feed. Its
/// mark-only release path is the gap the static pass looks at.
pub static SCENARIO: Scenario = Scenario {
    name: "volume-ctrl-17",
    pattern: PatternClass::ObservabilityGap,
    blame: BlameSpec {
        scenario: "volume-ctrl-17",
        component: "volume-controller",
        action_labels: &["vc.release_pvc"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(5),
    stack: Stack::Cluster {
        config: cluster_config,
        focal: "volume-controller",
        seed: |runner| {
            runner.seed(&Object::node("node-1"));
            runner.seed(&Object::node("node-2"));
            runner.seed(&Object::pvc("v1", "p1"));
            runner.seed(&Object::pod("p1", Some("node-1".into()), Some("v1".into())));
        },
        workload,
        oracles: |cluster| {
            vec![
                oracles::no_orphan_pvcs(cluster.clone()),
                oracles::no_wrongful_pvc_delete(cluster.clone()),
            ]
        },
    },
    guided,
    realize,
};

/// The tuned §7 observability-gap injection: drop pod `p1`'s
/// termination-mark notification to the volume controller (components:
/// kubelet-1, kubelet-2, volume-controller → index 2).
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(drop_matching(
        TargetRef::Component(2),
        EventSelector::termination_mark_of("pods/p1"),
        Duration::millis(1500),
        4,
    ))
}

/// The volume controller misses the pod's termination mark — dropped, or
/// held past the pod's finalization.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DropNotification(resource) if resource == "pods" => vec![guided(0)],
        Letter::DelayCache(resource) if resource == "pods" => {
            vec![Box::new(hold_matching(
                TargetRef::Component(2),
                EventSelector::termination_mark_of("pods/p1"),
                Duration::millis(1500),
                Some(Duration::millis(1800)),
            ))]
        }
        _ => Vec::new(),
    }
}

fn cluster_config(variant: Variant) -> ClusterConfig {
    let mode = if variant.is_buggy() {
        VcMode::MarkOnly
    } else {
        VcMode::FreshOrphan
    };
    ClusterConfig {
        apiservers: 2,
        nodes: vec!["node-1".into(), "node-2".into()],
        volume_controller: Some(mode),
        ..ClusterConfig::default()
    }
}

/// Graceful deletion: e1 = the termination mark; the kubelet stops the
/// containers, waits the grace period, then finalizes (e2 = deletion).
fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::secs(2), QUANTUM);
    let mut marked = Object::pod("p1", Some("node-1".into()), Some("v1".into()));
    marked.meta.deletion_timestamp = Some(runner.world.now().nanos());
    runner.seed(&marked);
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn unobservable_mark_leaks_the_pvc() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected the PVC to leak");
        assert!(
            report.violations.iter().any(|v| v.details.contains("v1")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn fresh_orphan_sweep_survives_the_same_drop() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

//! Kubernetes-56261 — the scheduler misses a node deletion (§4.2.3).
//!
//! "The scheduler falls into a cycle of failing pod placement attempts
//! after missing a node deletion event. It keeps scheduling pods to the
//! deleted node without synchronizing S′ with S."
//!
//! Setup: two nodes, a scheduler, a replica-set controller. `node-2` is
//! deleted (its kubelet crashes with it); the guided injection drops the
//! deletion notification on its way to the scheduler, leaving a ghost node
//! in the scheduler's cache. A subsequent scale-up then binds fresh pods to
//! the ghost; they can never run.
//!
//! * **buggy** scheduler: purely event-driven node cache, no recovery —
//!   the pods stay wedged (liveness violation);
//! * **fixed** scheduler: periodically re-lists its node cache and rebinds
//!   pods stuck on nonexistent nodes — converges despite the same drop.
//!
//! Schedule: `1.0s` seed nodes + `web` rs (replicas 0) → `2.0s` delete
//! `node-2` (+ crash its kubelet) → `2.5s` scale `web` to 3 → `6.0s` end.

use ph_cluster::objects::{Body, Object};
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::{Strategy, TargetRef};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::strategies::{drop_matching, hold_matching, EventSelector};
use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// Kubernetes-56261 as a value. The scheduler acts (binds pods) on a node
/// view fed through the apiservers; its never-resynced node view is the
/// staleness vector the static pass looks at.
pub static SCENARIO: Scenario = Scenario {
    name: "k8s-56261",
    pattern: PatternClass::Staleness,
    blame: BlameSpec {
        scenario: "k8s-56261",
        component: "scheduler",
        action_labels: &["scheduler.bind"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(6),
    stack: Stack::Cluster {
        config: cluster_config,
        focal: "scheduler",
        seed: |runner| {
            runner.seed(&Object::node("node-1"));
            runner.seed(&Object::node("node-2"));
            runner.seed(&Object::new("web", Body::ReplicaSet { replicas: 0 }));
        },
        workload,
        oracles: |cluster| vec![oracles::all_pods_running(cluster.clone())],
    },
    guided,
    realize,
};

/// The tuned §7 observability-gap injection: drop the `nodes/node-2`
/// deletion notification to the scheduler (components: kubelet-1, kubelet-2,
/// scheduler, rs-controller → index 2).
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(drop_matching(
        TargetRef::Component(2),
        EventSelector::deletes_of("nodes/node-2"),
        Duration::millis(1500),
        4,
    ))
}

/// The scheduler's stale `nodes` view is concretely a swallowed
/// node-deletion notification; the reorder letter is the same race held
/// shorter.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DelayCache(resource) | Letter::DropNotification(resource)
            if resource == "nodes" =>
        {
            vec![guided(0)]
        }
        Letter::ReorderUpdateConsume(resource) if resource == "nodes" => {
            vec![Box::new(hold_matching(
                TargetRef::Component(2),
                EventSelector::deletes_of("nodes/node-2"),
                Duration::millis(1500),
                Some(Duration::millis(1200)),
            ))]
        }
        _ => Vec::new(),
    }
}

fn cluster_config(variant: Variant) -> ClusterConfig {
    ClusterConfig {
        apiservers: 2,
        nodes: vec!["node-1".into(), "node-2".into()],
        scheduler: Some(!variant.is_buggy()),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    }
}

fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::secs(2), QUANTUM);
    // node-2 dies: its kubelet crashes and the node object is removed.
    runner.world.crash(runner.cluster.kubelets[1]);
    runner.delete("nodes/node-2");
    runner.drive(strategy, Duration::millis(2500), QUANTUM);
    // Scale up: the scheduler must place 3 new pods.
    runner.seed(&Object::new("web", Body::ReplicaSet { replicas: 3 }));
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn dropped_deletion_wedges_the_buggy_scheduler() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected pods wedged on the ghost node");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("node-2") || v.details.contains("stuck")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn fixed_scheduler_recovers_from_the_same_drop() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

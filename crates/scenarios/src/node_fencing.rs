//! Node fencing — a partial-history hazard of the paper's §2 family,
//! beyond its seven case studies (the class behind reference \[5\],
//! "Disallow ApiServer HA for Pod Safety").
//!
//! A kubelet that stops heartbeating might be dead — or merely partitioned
//! from the apiservers while its containers keep running. The
//! node-lifecycle controller cannot tell the difference from its view
//! `(H′, S′)`: the history it *doesn't* see (the containers still running)
//! is exactly the gap. The aggressive controller force-evicts the pods so
//! they are rescheduled; the replacements then run concurrently with the
//! originals on the partitioned node — the same duplicate-execution
//! violation as Kubernetes-59848, reached through a different partial
//! history.
//!
//! * **buggy** (`force_evict = true`): fast failover, unsafe under
//!   partitions;
//! * **fixed** (`force_evict = false`): marks the node not-ready and waits
//!   (Kubernetes' actual stance: never force-delete pods from unreachable
//!   nodes), trading availability for safety.
//!
//! The guided injection here is the simplest one in the suite: a plain
//! network partition of the kubelet from the apiservers — the scenario
//! exists to show that even "ordinary" faults become safety violations
//! when a controller trusts its partial view.
//!
//! Schedule: `1.0s` seed nodes + `web` rs (replicas 2) → converge →
//! `2.5s` partition kubelet-node-2 from the apiservers → lease expires,
//! buggy controller evicts, scheduler reschedules onto node-1 → `5.5s`
//! heal → `7.0s` end.

use ph_cluster::objects::{Body, Object};
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::Strategy;
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::strategies::partition_component;
use crate::{oracles, Scenario, Stack, Variant, QUANTUM};

/// Node fencing as a value. The node-lifecycle controller force-evicts
/// (`nlc.force_evict`) a node it cannot distinguish from a
/// merely-unobservable one behind the partition; its lease-silence eviction
/// is the unobservable-liveness gap the static pass looks at.
pub static SCENARIO: Scenario = Scenario {
    name: "node-fencing",
    pattern: PatternClass::ObservabilityGap,
    blame: BlameSpec {
        scenario: "node-fencing",
        component: "node-lifecycle",
        action_labels: &["nlc.force_evict"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(7),
    stack: Stack::Cluster {
        config: cluster_config,
        focal: "node-lifecycle",
        seed: |runner| {
            runner.seed(&Object::node("node-1"));
            runner.seed(&Object::node("node-2"));
            runner.seed(&Object::new("web", Body::ReplicaSet { replicas: 2 }));
        },
        workload: |runner, strategy| runner.drive(strategy, SCENARIO.horizon, QUANTUM),
        oracles: |_| vec![oracles::unique_pod_execution()],
    },
    guided,
    realize,
};

/// The guided injection: partition kubelet-node-2 (component 1) from the
/// apiservers between 2.5 s and 5.5 s.
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(partition_component(
        1,
        Duration::millis(2500),
        Duration::millis(5500),
    ))
}

/// Silent lease expiry: partitioning the kubelet drops its renewals —
/// exactly the false-silence the drop-notification letter models.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DropNotification(resource) if resource == "leases" => vec![guided(0)],
        _ => Vec::new(),
    }
}

/// The buggy variant enables force eviction; the fixed one only marks
/// nodes.
fn cluster_config(variant: Variant) -> ClusterConfig {
    ClusterConfig {
        apiservers: 2,
        nodes: vec!["node-1".into(), "node-2".into()],
        scheduler: Some(true),
        rs_controller: Some(false),
        node_lifecycle: Some(variant.is_buggy()),
        ..ClusterConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn partition_plus_force_eviction_duplicates_pods() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(
            report.failed(),
            "expected duplicate execution after force eviction"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("running on 2 actors")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn conservative_controller_stays_safe_under_the_same_partition() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

//! Kubernetes-59848 — the paper's Figure 2 walkthrough.
//!
//! "The most severe possible known vulnerability in Kubernetes safety
//! guarantees": two apiservers (api-1, api-2), two kubelets (k1, k2).
//!
//! 1. pod `p1` is created bound to node-1; k1 runs it (api-2 also learns of
//!    it — *before* the freeze);
//! 2. a rolling upgrade migrates `p1` to node-2: the global history grows
//!    by a deletion and a re-creation; k1 (fed by api-1) stops `p1`, k2
//!    starts it;
//! 3. api-2's feed from the store is frozen (network trouble): api-2 still
//!    believes `p1` runs on node-1;
//! 4. k1 restarts and — switching upstreams on restart — synchronizes with
//!    the stale api-2, re-learns its own past (`p1` is yours), and runs
//!    `p1` again: **two nodes run the same pod**.
//!
//! The guided strategy is the generic `ph-core`
//! [`Schedule::time_travel`]: freeze one upstream, crash the victim, restart
//! it against the frozen upstream, then release the backlog. The **fixed**
//! kubelet (quorum-read lists — the upstream remedy) stays safe under the
//! identical injection.
//!
//! Workload schedule (absolute sim time):
//! `1.0s` seed + create `p1@node-1` → `1.5s` freeze api-2 →
//! `1.7s` delete `p1` → `1.9s` recreate `p1@node-2` → `2.2s` crash k1 →
//! `2.4s` restart k1 → `3.5s` release backlog → `4.0s` end (+0.5s settle).

use ph_cluster::objects::Object;
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::{Schedule, Strategy};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// Kubernetes-59848 as a value. The restarted kubelet-node-1 is the acting
/// component, its destructive action is starting a pod, and its view flows
/// through the two apiservers; the static pass looks at the kubelets (their
/// relist-after-restart is the time-travel vector).
pub static SCENARIO: Scenario = Scenario {
    name: "k8s-59848",
    pattern: PatternClass::TimeTravel,
    blame: BlameSpec {
        scenario: "k8s-59848",
        component: "kubelet-node-1",
        action_labels: &["kubelet.pod_start"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(4),
    stack: Stack::Cluster {
        config: cluster_config,
        focal: "kubelet-",
        seed: |runner| {
            runner.seed(&Object::node("node-1"));
            runner.seed(&Object::node("node-2"));
            runner.seed(&Object::pod("p1", Some("node-1".into()), None));
        },
        workload,
        oracles: |_| vec![oracles::unique_pod_execution()],
    },
    guided,
    realize,
};

/// The tuned §7 time-travel injection for this scenario's schedule.
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(Schedule::time_travel(
        1, // stale upstream: apiserver-2
        0, // victim: kubelet-node-1
        Duration::millis(1500),
        Duration::millis(2200),
        Duration::millis(2400),
        Some(Duration::millis(3500)),
    ))
}

/// The kubelet restarts onto the lagging apiserver-2 and acts on the
/// pre-rollout world: both the delay-cache and the switch letters
/// concretize against cache 1 / kubelet-node-1 — the delay letter both as
/// the pure staleness hold and as the stale landing zone the restart needs,
/// so the switch letter's realization is a canonical duplicate of the
/// delay letter's second one.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DelayCache(_) => vec![
            Box::new(Schedule::staleness(
                1,
                Duration::millis(900),
                Duration::millis(1500),
            )),
            guided(0),
        ],
        Letter::UpstreamSwitch | Letter::CrashRestartReplay => vec![guided(0)],
        _ => Vec::new(),
    }
}

fn cluster_config(variant: Variant) -> ClusterConfig {
    ClusterConfig {
        apiservers: 2,
        nodes: vec!["node-1".into(), "node-2".into()],
        kubelet_stagger: false, // both kubelets start on api-1; restarts move them
        kubelet_fixed: !variant.is_buggy(),
        ..ClusterConfig::default()
    }
}

/// Rolling upgrade: migrate p1 from node-1 to node-2 (delete, then
/// re-create after the old instance has been stopped).
fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::millis(1700), QUANTUM);
    runner.delete("pods/p1");
    runner.drive(strategy, Duration::millis(1900), QUANTUM);
    runner.seed(&Object::pod("p1", Some("node-2".into()), None));
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn guided_injection_reproduces_the_bug() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(
            report.failed(),
            "expected duplicate-pod violation; got none ({} events)",
            report.trace_events
        );
        let v = &report.violations[0];
        assert!(v.details.contains("p1"), "{v}");
        assert!(
            v.details.contains("kubelet-node-1") && v.details.contains("kubelet-node-2"),
            "{v}"
        );
    }

    #[test]
    fn fixed_kubelet_survives_the_same_injection() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn reproduction_is_deterministic() {
        let digest = || {
            SCENARIO
                .run(7, guided(7).as_mut(), Variant::Buggy)
                .trace_digest
        };
        assert_eq!(digest(), digest());
    }
}

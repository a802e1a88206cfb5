//! cassandra-operator-400 — "Cassandra node can be decommissioned wrongly
//! which blocks scale down" (§7).
//!
//! The operator's decommission target comes from its cached pod list. A
//! restarted operator that re-synchronizes against a stale apiserver picks
//! a pod that is *already gone*; the mark-delete comes back NotFound, and
//! the shipped operator wedges on that phantom target forever — the
//! datacenter never reaches its desired size (a time-traveling view turned
//! into a liveness failure).
//!
//! Guided injection: the generic time-travel recipe — freeze apiserver-2's
//! feed just after the scale-down intent commits (so api-2 knows
//! `desired = 1` but still believes all three pods are alive), crash the
//! operator after it has decommissioned `dc1-2`, restart it (ByInstance: it
//! reconnects to the frozen api-2), and release the backlog later. The
//! restarted operator re-targets `dc1-2` → NotFound:
//!
//! * **buggy** (`decommission` unfenced): wedges on `dc1-2`;
//!   even after api-2 catches up, the stuck target blocks `dc1-1`'s
//!   decommission — scale-down never completes;
//! * **fixed**: skips the phantom, re-derives the target after the view
//!   heals, converges.
//!
//! Schedule: `1.0s` seed + dc1 desired 3 → converge → `3.0s` desired 1 →
//! freeze api-2 at `3.05s` → crash operator `3.3s`, restart `3.6s` →
//! release backlog `5.0s` → `8.0s` end.

use ph_cluster::operator::OperatorPaths;
use ph_core::perturb::{Schedule, Strategy};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::cass_398::{datacenter, operator_cluster, seed_datacenter};
use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// cassandra-operator-400 as a value. The operator's decommission mark
/// (`operator.decommission`) is the destructive action taken on a stale
/// datacenter view; that unfenced mark is the staleness vector the static
/// pass looks at.
pub static SCENARIO: Scenario = Scenario {
    name: "cass-op-400",
    pattern: PatternClass::Staleness,
    blame: BlameSpec {
        scenario: "cass-op-400",
        component: "cassandra-operator",
        action_labels: &["operator.decommission"],
        caches: &["apiserver-1", "apiserver-2"],
    },
    horizon: Duration::secs(8),
    stack: Stack::Cluster {
        config: |variant| operator_cluster(paths(variant)),
        focal: "cassandra-operator",
        seed: seed_datacenter::<3>,
        workload,
        oracles: |cluster| {
            vec![
                oracles::cassdc_converged(cluster.clone(), "dc1", 1),
                oracles::no_wrongful_pvc_delete(cluster.clone()),
            ]
        },
    },
    guided,
    realize,
};

/// The operator's gate paths: only bug 400 when buggy.
fn paths(variant: Variant) -> OperatorPaths {
    if variant.is_buggy() {
        OperatorPaths::cass_400()
    } else {
        OperatorPaths::fixed()
    }
}

/// The tuned §7 time-travel injection. Components are kubelet-1, kubelet-2,
/// scheduler, operator → the operator is component 3; apiserver-2 is
/// cache 1.
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(Schedule::time_travel(
        1,
        3,
        Duration::millis(3050),
        Duration::millis(3300),
        Duration::millis(3600),
        Some(Duration::millis(5000)),
    ))
}

/// The operator lands on the lagging apiserver-2 mid-scale-down: the
/// delay-cache, switch and crash letters all concretize to that landing.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DelayCache(_) | Letter::UpstreamSwitch | Letter::CrashRestartReplay => {
            vec![guided(0)]
        }
        _ => Vec::new(),
    }
}

fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::secs(3), QUANTUM);
    // Scale down by two: dc1-2 then dc1-1 must be decommissioned, one at a
    // time.
    runner.seed(&datacenter(1));
    runner.drive(strategy, SCENARIO.horizon, QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn stale_decommission_target_blocks_scale_down() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected the scale-down to wedge");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("scale blocked")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn fixed_operator_converges_despite_the_same_injection() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

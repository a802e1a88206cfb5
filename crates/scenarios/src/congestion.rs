//! Load-emergent staleness — congestion on the scheduler's watch feed.
//!
//! Unlike the other scenarios, no upstream ticket and no injected fault:
//! this is the §4.2 staleness pattern arising from *offered load alone*.
//! The apiserver→scheduler link has finite bandwidth and a drop-tail
//! queue (the scenario's modeled capacity). A churn workload — rapid
//! rewrites of `node-1` — saturates that feed: watch events queue, the
//! tail drops, and the apiserver's rolling event window slides past the
//! scheduler's resume point, so recovery needs a full relist whose
//! response crawls through the same congested queue. A `node-2` deletion
//! committed mid-surge therefore reaches every component *except* the
//! scheduler; when the `web` replica set scales up after the surge, the
//! pods list heals first (it was requested first) and the scheduler binds
//! fresh pods to the ghost node it still caches.
//!
//! * **buggy** scheduler: no resync, no rebind — pods on the ghost node
//!   stay `Pending` forever (the Kubernetes-56261 outcome, reached with
//!   zero injected perturbations);
//! * **fixed** scheduler: periodic quorum relists + rebinding off ghost
//!   nodes — converges once the queue drains.
//!
//! The canonical link capacity is ample, so [`SCENARIO`] under `NoFault`
//! is clean; its guided injector throttles the feed mid-run (the
//! traffic-surge perturbation axis), and [`at_capacity`] pins the *static*
//! capacity below the churn's offered load — the zero-perturbation
//! emergence the top-level regression test checks.
//!
//! Schedule: `1.0s` seed nodes + `web` rs (replicas 0) → `1.2–2.3s`
//! churn `node-1` every 8 ms → `2.05s` delete `node-2` (+ crash its
//! kubelet) → `2.6s` scale `web` to 3 → `7.0s` end.

use ph_cluster::objects::{Body, Object, PodPhase};
use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::{Strategy, TrafficSurge};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::PatternClass;
use ph_sim::Duration;

use crate::{oracles, Runner, Scenario, Stack, Variant, QUANTUM};

/// Canonical modeled capacity of the apiserver→scheduler feed (bytes per
/// second): ample for the churn workload, so congestion needs a surge.
pub const CAPACITY_AMPLE: u64 = 256_000;
/// A capacity the churn workload's offered load clearly exceeds.
pub const CAPACITY_SCARCE: u64 = 2_000;
/// Drop-tail queue depth of the feed link, in messages.
pub const FEED_QUEUE: usize = 4;

/// The canonical scenario: the feed at [`CAPACITY_AMPLE`].
pub static SCENARIO: Scenario = at_capacity::<CAPACITY_AMPLE>();

/// The scenario with the feed's *static* capacity at `CAPACITY` bytes per
/// second: the sweep axis of the E8 lag-vs-offered-load experiment
/// (`phtool repro E8`) and, at
/// [`CAPACITY_SCARCE`] under `NoFault`, the zero-perturbation emergence
/// regression — staleness must appear past capacity and must not appear
/// under it, with no strategy in play at all.
///
/// The scheduler binds pods on a view fed through the single apiserver;
/// its congestible, never-resynced views are the staleness vector the
/// static pass looks at.
pub const fn at_capacity<const CAPACITY: u64>() -> Scenario {
    Scenario {
        name: "congestion",
        pattern: PatternClass::CongestionStaleness,
        blame: BlameSpec {
            scenario: "congestion",
            component: "scheduler",
            action_labels: &["scheduler.bind"],
            caches: &["apiserver-1"],
        },
        horizon: Duration::secs(7),
        stack: Stack::Cluster {
            config: cluster_config,
            focal: "scheduler",
            seed: seed::<CAPACITY>,
            workload,
            oracles: |cluster| vec![oracles::all_pods_running(cluster.clone())],
        },
        guided,
        realize,
    }
}

/// The tuned perturbation: a traffic surge squeezing the scheduler's feed
/// to [`CAPACITY_SCARCE`] across the churn window — the concrete form of
/// the model checker's `traffic-surge` letter. It reconfigures link
/// capacity only; every lost or late message is the queue's own doing.
fn guided(_seed: u64) -> Box<dyn Strategy> {
    // Component 2 is the scheduler (targets list kubelets first): the
    // surge competes with its feed alone, so the controllers that *drive*
    // the workload keep seeing the world on time.
    Box::new(
        TrafficSurge::new(
            0,
            CAPACITY_SCARCE,
            FEED_QUEUE,
            Duration::millis(1100),
            Some(Duration::millis(3600)),
        )
        .focused(2),
    )
}

/// The traffic-surge letter lands literally as [`guided`]. The delay-cache
/// letter concretizes to the same squeeze (this scenario has no direct
/// hold injector: congestion *is* how the view ages), so the two letters
/// collapse to one class.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::TrafficSurge(_) | Letter::DelayCache(_) => vec![guided(0)],
        _ => Vec::new(),
    }
}

/// The cluster this scenario spawns: one apiserver (the scheduler's
/// pinned upstream, whose fan-out link is the congestible feed), two
/// nodes, the scheduler, and a replica-set controller.
fn cluster_config(variant: Variant) -> ClusterConfig {
    ClusterConfig {
        apiservers: 1,
        nodes: vec!["node-1".into(), "node-2".into()],
        scheduler: Some(!variant.is_buggy()),
        scheduler_congestible: true,
        rs_controller: Some(false),
        ..ClusterConfig::default()
    }
}

/// The churn object: a long-running pod on `node-1`, rewritten every few
/// milliseconds with a padded `owner` field so each watch event carries
/// real bytes onto the finite-bandwidth feed. Churning *pods* (and only
/// pods) splits the scheduler's two watches onto different recovery paths:
/// the chattering pods stream reveals its gaps as soon as one event
/// squeezes through the full queue (fast break → relist), while the silent
/// nodes stream — whose progress beacons all tail-drop — is only caught by
/// the 1.2 s watch timeout. That asymmetry is the ghost window: the pods
/// view heals while the nodes view still holds the deleted node. The
/// padding also keeps the pod out of the `web` replica set's count.
fn chaff() -> Object {
    let mut obj = Object::new(
        "warm",
        Body::Pod {
            node: Some("node-1".into()),
            phase: PodPhase::Running,
            pvc: None,
        },
    );
    obj.meta.owner = Some("x".repeat(200));
    obj
}

fn seed<const CAPACITY: u64>(runner: &mut Runner) {
    // The modeled network: the scheduler's watch feed has finite capacity
    // and a drop-tail queue. This is topology, not perturbation — it is in
    // place for every variant and every strategy, NoFault included.
    let api = runner.cluster.apiservers[0];
    let sched = runner
        .cluster
        .scheduler
        .expect("scenario spawns a scheduler");
    let base = runner.world.net().link(api, sched);
    runner.world.net_mut().set_link(
        api,
        sched,
        ph_sim::LinkConfig {
            bandwidth: CAPACITY,
            queue: FEED_QUEUE,
            ..base
        },
    );

    // node-1 carries a padded owner blob: the nodes *list* that finally
    // heals the scheduler's ghost view has to move these bytes through
    // whatever bandwidth the feed has left, so past capacity the heal
    // lands measurably after the pods view (and the binds) — the far edge
    // of the ghost window is itself a queueing artifact.
    let mut node1 = Object::node("node-1");
    node1.meta.owner = Some("y".repeat(800));
    runner.seed(&node1);
    runner.seed(&Object::node("node-2"));
    runner.seed(&chaff());
    runner.seed(&Object::new("web", Body::ReplicaSet { replicas: 0 }));
}

fn workload(runner: &mut Runner, strategy: &mut dyn Strategy) {
    runner.drive(strategy, Duration::millis(1200), QUANTUM);

    // Churn phase: rewrite node-1 every 8 ms. At ample capacity this is
    // noise; past capacity it fills the feed queue, tail-drops the watch
    // stream, and pushes the apiserver's event window past the
    // scheduler's resume point. Mid-churn, node-2 dies for real.
    let churn = chaff();
    let step = Duration::millis(8);
    let mut t = Duration::millis(1200);
    let mut deleted = false;
    while t < Duration::millis(2304) {
        runner.seed(&churn);
        if !deleted && t >= Duration::millis(2048) {
            runner.world.crash(runner.cluster.kubelets[1]);
            runner.delete("nodes/node-2");
            deleted = true;
        }
        t = Duration(t.0 + step.0);
        runner.drive(strategy, t, step);
    }

    runner.drive(strategy, Duration::millis(2600), QUANTUM);
    // Scale up: the scheduler must place 3 new pods.
    runner.seed(&Object::new("web", Body::ReplicaSet { replicas: 3 }));
    runner.drive(strategy, Duration::millis(6500), QUANTUM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn surge_starves_the_buggy_scheduler_into_a_ghost_bind() {
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
    fn fixed_scheduler_recovers_from_the_same_surge() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

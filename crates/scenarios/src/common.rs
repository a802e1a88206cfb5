//! The shared scenario runner.
//!
//! A scenario builds a cluster, derives the [`Targets`] map the strategies
//! act on, runs a fixed workload schedule while ticking the strategy, and
//! assembles a [`RunReport`] from its oracles. Driving is quantized
//! ([`Runner::drive`]) so trace-triggered strategies act promptly.

use ph_cluster::topology::{ClusterConfig, ClusterHandle, Frontier};
use ph_core::divergence::DivergenceSummary;
use ph_core::harness::RunReport;
use ph_core::oracle::{check_all, Oracle};
use ph_core::perturb::{Strategy, Targets};
use ph_sim::{ActorId, Duration, Retention, SimTime, World, WorldConfig};
use ph_store::{StoreCluster, StoreNode};

/// Which implementation variant a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The defective (as-shipped) component.
    Buggy,
    /// The repaired component (regression check: oracles must stay green
    /// even under the guided injection).
    Fixed,
}

impl Variant {
    /// `true` for the buggy variant.
    pub fn is_buggy(self) -> bool {
        self == Variant::Buggy
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Buggy => f.write_str("buggy"),
            Variant::Fixed => f.write_str("fixed"),
        }
    }
}

/// One scenario execution in progress.
pub struct Runner {
    /// The simulated world.
    pub world: World,
    /// The cluster under test.
    pub cluster: ClusterHandle,
    /// The strategy-facing target map.
    pub targets: Targets,
    /// Scenario name (for the report).
    pub name: String,
    /// Root seed.
    pub seed: u64,
    probe: LagProbe,
}

/// The per-view lag sampling state of a [`Runner`], kept apart from the
/// world so the shared [`drive`] loop can borrow both at once.
struct LagProbe {
    /// The store whose leader's revision is the truth `|H|`.
    store: StoreCluster,
    /// The samples so far; moved into the report when the run finishes.
    divergence: DivergenceSummary,
    /// [`ClusterHandle::views`], resolved once: the walk order is fixed for
    /// the lifetime of a run.
    views: Vec<(ActorId, Frontier)>,
}

/// The drive loop every trial shares: runs `world` up to absolute time
/// `until` in `quantum` slices — so trace-triggered strategies stay
/// responsive — and after each slice takes a lag `sample`, then ticks
/// `strategy`.
pub(crate) fn drive(
    world: &mut World,
    strategy: &mut dyn Strategy,
    targets: &Targets,
    until: Duration,
    quantum: Duration,
    mut sample: impl FnMut(&mut World),
) {
    let until = SimTime(until.as_nanos());
    while world.now() < until {
        let step = SimTime((world.now() + quantum).0.min(until.0));
        world.run_until(step);
        sample(world);
        strategy.tick(world, targets);
    }
}

/// The report assembly every trial shares: tears the strategy down, lets
/// the system settle for `settle`, takes the final lag `sample`, evaluates
/// the oracles, and builds the report.
pub(crate) fn finish(
    world: &mut World,
    scenario: String,
    seed: u64,
    strategy: &mut dyn Strategy,
    settle: Duration,
    oracles: &mut [Box<dyn Oracle>],
    sample: impl FnOnce(&mut World) -> DivergenceSummary,
) -> RunReport {
    strategy.teardown(world);
    world.run_for(settle);
    let divergence = sample(world);
    let violations = check_all(oracles, world);
    RunReport {
        scenario,
        strategy: strategy.name(),
        seed,
        violations,
        sim_time: world.now(),
        trace_events: world.trace().len(),
        trace_digest: world.trace().digest(),
        metrics: world.metrics_report(),
        divergence,
        blame: None,
    }
}

impl Runner {
    /// Builds a cluster and waits for it to be ready, then advances the
    /// clock to exactly `t0` so workload schedules are seed-independent.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is not ready by `t0` (raise `t0` if you build
    /// bigger clusters).
    pub fn new(
        name: &str,
        seed: u64,
        cfg: &ClusterConfig,
        t0: Duration,
        horizon: Duration,
    ) -> Runner {
        Runner::with_retention(name, seed, cfg, t0, horizon, Retention::All)
    }

    /// [`Runner::new`] with the world's trace retention chosen by the
    /// caller. [`Retention::DigestOnly`] is only for runs nothing reads
    /// events from — no trace-fed strategy, no oracle, and
    /// [`Runner::finish`] rather than [`Runner::finish_with_trace`], which
    /// panics on such a world.
    pub fn with_retention(
        name: &str,
        seed: u64,
        cfg: &ClusterConfig,
        t0: Duration,
        horizon: Duration,
        retention: Retention,
    ) -> Runner {
        let mut world = World::new(WorldConfig { retention }, seed);
        let cluster = ph_cluster::topology::spawn_cluster(&mut world, cfg);
        let t0 = SimTime(t0.as_nanos());
        assert!(
            cluster.wait_ready(&mut world, t0),
            "cluster not ready by {t0} (seed {seed})"
        );
        world.run_until(t0);
        let targets = targets_for(&cluster, horizon);
        let probe = LagProbe {
            store: cluster.store.clone(),
            divergence: DivergenceSummary::new(),
            views: cluster.views().collect(),
        };
        Runner {
            world,
            cluster,
            targets,
            name: name.to_string(),
            seed,
            probe,
        }
    }

    /// The deadline used for admin (seeding) operations.
    pub fn admin_deadline(&self) -> SimTime {
        SimTime(self.world.now().0 + Duration::secs(10).as_nanos())
    }

    /// Seeds one object through the admin client (panics on timeout —
    /// seeding precedes fault injection and must succeed).
    pub fn seed(&mut self, obj: &ph_cluster::objects::Object) {
        let dl = self.admin_deadline();
        self.cluster
            .create_object(&mut self.world, obj, dl)
            .unwrap_or_else(|| panic!("seeding {} timed out", obj.key()));
    }

    /// Deletes one key through the admin client.
    pub fn delete(&mut self, key: &str) {
        let dl = self.admin_deadline();
        self.cluster.delete_key(&mut self.world, key, dl);
    }

    /// Runs the world up to absolute time `until`, ticking `strategy`
    /// every `quantum` so trace-triggered strategies stay responsive, and
    /// sampling per-view lag once per quantum.
    pub fn drive(&mut self, strategy: &mut dyn Strategy, until: Duration, quantum: Duration) {
        let (world, probe) = (&mut self.world, &mut self.probe);
        drive(world, strategy, &self.targets, until, quantum, |world| {
            probe.sample(world)
        });
    }

    /// Takes one divergence sample: for every view in the cluster (each
    /// apiserver cache and each component's informer frontier), record how
    /// many revisions it is behind the ground truth `|H| − |H′|`. Samples
    /// land both in the report's divergence summary and in the world's
    /// metrics (a `view_lag.revisions` histogram and `view_lag.last` gauge
    /// per view), so they surface in trace/metric exports too. Skipped while the store
    /// has no leader (the truth frontier is unknowable then).
    ///
    /// Per view it folds the lag into the summary under the view's name,
    /// observes the histogram and sets the gauge under the view's actor id,
    /// so the cost per quantum is O(views). A view enters the summary the
    /// first time it is sampled, so views a run never samples (one that
    /// ends before its first quantum) leave no empty entries in exports.
    pub fn sample_divergence(&mut self) {
        self.probe.sample(&mut self.world);
    }

    /// Finishes the run: tears the strategy down, lets the system settle
    /// for `settle`, evaluates the oracles, and produces the report. The
    /// trace stays with the world and is freed with it here.
    pub fn finish(
        mut self,
        strategy: &mut dyn Strategy,
        settle: Duration,
        oracles: &mut [Box<dyn Oracle>],
    ) -> RunReport {
        self.settle_and_report(strategy, settle, oracles)
    }

    /// Like [`Runner::finish`], but also hands back the full run trace
    /// (for narration, causality analysis, or archiving). The trace is
    /// moved out of the world, not cloned.
    ///
    /// # Panics
    ///
    /// Panics if the runner was built [`Retention::DigestOnly`].
    pub fn finish_with_trace(
        mut self,
        strategy: &mut dyn Strategy,
        settle: Duration,
        oracles: &mut [Box<dyn Oracle>],
    ) -> (RunReport, ph_sim::Trace) {
        let report = self.settle_and_report(strategy, settle, oracles);
        (report, self.world.take_trace())
    }

    /// Shared tail of [`Runner::finish`]/[`Runner::finish_with_trace`].
    fn settle_and_report(
        &mut self,
        strategy: &mut dyn Strategy,
        settle: Duration,
        oracles: &mut [Box<dyn Oracle>],
    ) -> RunReport {
        let probe = &mut self.probe;
        finish(
            &mut self.world,
            std::mem::take(&mut self.name),
            self.seed,
            strategy,
            settle,
            oracles,
            |world| {
                probe.sample(world);
                std::mem::take(&mut probe.divergence)
            },
        )
    }
}

impl LagProbe {
    fn sample(&mut self, world: &mut World) {
        let Some(truth) = (self.store)
            .leader(world)
            .and_then(|n| world.actor_ref::<StoreNode>(n))
            .map(|s| s.mvcc().revision())
        else {
            return;
        };
        for &(id, frontier) in &self.views {
            let Some(rv) = frontier(world, id) else {
                continue;
            };
            let lag = truth.0.saturating_sub(rv.0);
            self.divergence.record(world.name_of(id), lag);
            let metrics = world.metrics_mut();
            metrics.observe(id, "view_lag.revisions", lag);
            metrics.gauge_set(id, "view_lag.last", lag as i64);
        }
    }
}

/// Derives the strategy-facing [`Targets`] for a cluster:
/// * `caches` — the apiservers (index-stable: `caches[i]` = apiserver i+1);
/// * `components` — every other view, in [`ClusterHandle::views`] order:
///   kubelets (in node order), then scheduler, volume controller,
///   replica-set controller, operator, node-lifecycle controller (those
///   configured);
/// * `notify_kinds` — both view-update message layers: the store→apiserver
///   feed (`WatchNotify`) and the apiserver→component feed (`ApiWatchEvent`).
pub fn targets_for(cluster: &ClusterHandle, horizon: Duration) -> Targets {
    Targets {
        // Shared handle to the cluster's member list — a refcount bump per
        // trial, not a copy (hunts build a fresh `Targets` every trial).
        store_nodes: cluster.store.nodes.clone(),
        caches: cluster.apiservers.as_slice().into(),
        components: cluster
            .views()
            .skip(cluster.apiservers.len())
            .map(|(id, _)| id)
            .collect(),
        notify_kinds: &["WatchNotify", "ApiWatchEvent"],
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn runner_builds_and_reports() {
        let cfg = ClusterConfig::default();
        let mut runner = Runner::new("smoke", 3, &cfg, Duration::secs(1), Duration::secs(3));
        assert_eq!(runner.world.now(), SimTime(Duration::secs(1).as_nanos()));
        runner.seed(&ph_cluster::objects::Object::node("node-1"));
        let mut strategy = NoFault;
        runner.drive(&mut strategy, Duration::secs(2), Duration::millis(20));
        let report = runner.finish(&mut strategy, Duration::millis(100), &mut []);
        assert_eq!(report.scenario, "smoke");
        assert!(!report.failed());
        assert!(report.trace_events > 0);
    }

    #[test]
    fn targets_cover_all_components() {
        let cfg = ClusterConfig {
            scheduler: Some(false),
            rs_controller: Some(false),
            ..ClusterConfig::default()
        };
        let runner = Runner::new("t", 4, &cfg, Duration::secs(1), Duration::secs(2));
        assert_eq!(runner.targets.caches.len(), 2);
        // 2 kubelets + scheduler + rs controller.
        assert_eq!(runner.targets.components.len(), 4);
        assert_eq!(runner.targets.store_nodes.len(), 3);
    }

    #[test]
    fn view_walk_order_is_the_dense_sample_index() {
        use ph_cluster::controllers::VcMode;
        use ph_cluster::operator::OperatorPaths;
        // Every optional component configured, and one kubelet crashed: a
        // crashed view keeps its place in the walk (and its frozen frontier
        // keeps being sampled — the lag of a dead view is still lag).
        let cfg = ClusterConfig {
            scheduler: Some(false),
            volume_controller: Some(VcMode::MarkOnly),
            rs_controller: Some(false),
            operator: Some(OperatorPaths::fixed()),
            node_lifecycle: Some(false),
            ..ClusterConfig::default()
        };
        let mut runner = Runner::new("views", 5, &cfg, Duration::secs(1), Duration::secs(2));
        let crashed = runner.cluster.kubelets[0];
        runner.world.crash(crashed);
        runner.drive(&mut NoFault, Duration::millis(1200), Duration::millis(20));

        let walk: Vec<&str> = (runner.probe.views.iter())
            .map(|&(id, _)| runner.world.name_of(id))
            .collect();
        assert_eq!(
            walk,
            [
                "apiserver-1",
                "apiserver-2",
                "kubelet-node-1",
                "kubelet-node-2",
                "scheduler",
                "volume-controller",
                "rs-controller",
                "cassandra-operator",
                "node-lifecycle",
            ]
        );
        let divergence = &runner.probe.divergence;
        let sampled: Vec<&str> = divergence.iter().map(|(name, _)| name).collect();
        let mut expected = walk.clone();
        expected.sort_unstable();
        assert_eq!(sampled, expected, "every view is sampled, once each");
        let dead = divergence.view("kubelet-node-1").expect("sampled");
        let live = divergence.view("kubelet-node-2").expect("sampled");
        assert_eq!(dead.samples, live.samples);
    }
}

//! The shared scenario runner.
//!
//! A scenario builds a cluster, derives the [`Targets`] map the strategies
//! act on, runs a fixed workload schedule while ticking the strategy, and
//! assembles a [`RunReport`] from its oracles. Driving is quantized
//! ([`Runner::drive`]) so trace-triggered strategies act promptly.

use ph_cluster::apiserver::ApiServer;
use ph_cluster::controllers::{NodeLifecycleController, ReplicaSetController, VolumeController};
use ph_cluster::kubelet::Kubelet;
use ph_cluster::operator::CassandraOperator;
use ph_cluster::scheduler::Scheduler;
use ph_cluster::topology::{ClusterConfig, ClusterHandle};
use ph_core::divergence::{DivergenceSummary, LagSampler, ViewSlot};
use ph_core::harness::RunReport;
use ph_core::oracle::{check_all, Oracle};
use ph_core::perturb::{Strategy, Targets};
use ph_sim::{ActorId, Duration, Name, Retention, SimTime, Sym, World, WorldConfig};
use ph_store::{Revision, StoreNode};

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
    /// Sampled per-view lag, folded into the report by
    /// [`Runner::finish_with_trace`].
    pub divergence: DivergenceSummary,
    /// Reused buffer for the full (legacy) sampling path (capacity persists
    /// across quanta so sampling stays allocation-free in steady state).
    lag_scratch: Vec<(Name, u64)>,
    /// Per-view `(metrics component sym, divergence slot)` pairs, resolved
    /// lazily the first time a view is sampled. Indexed by the dense view
    /// walk order (apiservers, kubelets, then the optional singletons),
    /// which is fixed for the lifetime of a run.
    view_meta: Vec<Option<(Sym, ViewSlot)>>,
    /// Dirty-set tracker: remembers each view's last sampled lag so the
    /// `view_lag.last` gauge is only rewritten when the value moved.
    sampler: LagSampler,
    /// Interned metric-name syms for the two per-view lag series.
    hist_sym: Sym,
    gauge_sym: Sym,
    /// `PH_DIVERGENCE_FULL=1` routes sampling through the legacy
    /// string-keyed full diff (used by the regression test that pins the
    /// incremental path to it).
    full_sampling: bool,
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
        let config = WorldConfig {
            retention,
            ..WorldConfig::default()
        };
        let mut world = World::new(config, seed);
        let cluster = ph_cluster::topology::spawn_cluster(&mut world, cfg);
        let t0 = SimTime(t0.as_nanos());
        assert!(
            cluster.wait_ready(&mut world, t0),
            "cluster not ready by {t0} (seed {seed})"
        );
        world.run_until(t0);
        let targets = targets_for(&cluster, horizon);
        // Pre-interning metric names is byte-invisible in exports (reports
        // sort resolved keys), and keeps the per-sample hot path sym-only.
        let metrics = world.metrics_mut();
        let hist_sym = metrics.sym("view_lag.revisions");
        let gauge_sym = metrics.sym("view_lag.last");
        let full_sampling = std::env::var_os("PH_DIVERGENCE_FULL").is_some_and(|v| v != "0");
        Runner {
            world,
            cluster,
            targets,
            name: name.to_string(),
            seed,
            divergence: DivergenceSummary::new(),
            lag_scratch: Vec::new(),
            view_meta: Vec::new(),
            sampler: LagSampler::default(),
            hist_sym,
            gauge_sym,
            full_sampling,
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

    /// Runs the world up to absolute time `until`, ticking `strategy`
    /// every `quantum` so trace-triggered strategies stay responsive, and
    /// sampling per-view lag once per quantum.
    pub fn drive(&mut self, strategy: &mut dyn Strategy, until: Duration, quantum: Duration) {
        let until = SimTime(until.as_nanos());
        while self.world.now() < until {
            let step = SimTime((self.world.now() + quantum).0.min(until.0));
            self.world.run_until(step);
            self.sample_divergence();
            strategy.tick(&mut self.world, &self.targets);
        }
    }

    /// Takes one divergence sample: for every view in the cluster (each
    /// apiserver cache and each component's informer frontier), record how
    /// many revisions it is behind the ground truth `|H| − |H′|`. Samples
    /// land both in [`Runner::divergence`] and in the world's metrics (a
    /// `view_lag.revisions` histogram and `view_lag.last` gauge per view),
    /// so they surface in trace/metric exports too. Skipped while the store
    /// has no leader (the truth frontier is unknowable then).
    ///
    /// The default path is incremental: per view it folds the lag into a
    /// pre-resolved [`ViewSlot`] and sym pair (O(1), no string hashing),
    /// observes the histogram, and rewrites the gauge only when the lag
    /// actually moved since the last quantum (gauges are last-value, so
    /// skipping unchanged writes is report-invisible). Cost per quantum is
    /// therefore O(views) with a constant far below the legacy string-keyed
    /// full diff, which `PH_DIVERGENCE_FULL=1` still selects for the
    /// equivalence regression test.
    pub fn sample_divergence(&mut self) {
        let Some(truth) = self
            .cluster
            .store
            .leader(&self.world)
            .and_then(|n| self.world.actor_ref::<StoreNode>(n))
            .map(|s| s.mvcc().revision())
        else {
            return;
        };
        if self.full_sampling {
            self.sample_divergence_full(truth);
            return;
        }
        // The dense view index must be stable across quanta, so it advances
        // for every *configured* view — crashed actors (actor_ref None)
        // skip the record but still consume their index.
        let mut idx = 0usize;
        for i in 0..self.cluster.apiservers.len() {
            let a = self.cluster.apiservers[i];
            let rv = self
                .world
                .actor_ref::<ApiServer>(a)
                .map(|s| s.cache_revision());
            if let Some(rv) = rv {
                self.record_view(idx, a, rv, truth);
            }
            idx += 1;
        }
        for i in 0..self.cluster.kubelets.len() {
            let k = self.cluster.kubelets[i];
            let rv = self
                .world
                .actor_ref::<Kubelet>(k)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, k, rv, truth);
            }
            idx += 1;
        }
        if let Some(id) = self.cluster.scheduler {
            let rv = self
                .world
                .actor_ref::<Scheduler>(id)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, id, rv, truth);
            }
            idx += 1;
        }
        if let Some(id) = self.cluster.volume_controller {
            let rv = self
                .world
                .actor_ref::<VolumeController>(id)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, id, rv, truth);
            }
            idx += 1;
        }
        if let Some(id) = self.cluster.rs_controller {
            let rv = self
                .world
                .actor_ref::<ReplicaSetController>(id)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, id, rv, truth);
            }
            idx += 1;
        }
        if let Some(id) = self.cluster.operator {
            let rv = self
                .world
                .actor_ref::<CassandraOperator>(id)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, id, rv, truth);
            }
            idx += 1;
        }
        if let Some(id) = self.cluster.node_lifecycle {
            let rv = self
                .world
                .actor_ref::<NodeLifecycleController>(id)
                .map(|s| s.view_revision());
            if let Some(rv) = rv {
                self.record_view(idx, id, rv, truth);
            }
            idx += 1;
        }
        let _ = idx;
    }

    /// Folds one view's lag sample into the divergence summary and metrics.
    /// Resolves the view's `(component sym, divergence slot)` pair on first
    /// contact — lazily, so views that never get sampled (e.g. a run that
    /// ends before its first quantum) leave no empty entries in exports.
    fn record_view(&mut self, idx: usize, id: ActorId, frontier: Revision, truth: Revision) {
        let lag = truth.0.saturating_sub(frontier.0);
        let meta = match self.view_meta.get(idx).copied().flatten() {
            Some(meta) => meta,
            None => {
                let name = self.world.name_handle(id);
                let comp = self.world.metrics_mut().sym(name.as_str());
                let slot = self.divergence.slot(name.as_str());
                if idx >= self.view_meta.len() {
                    self.view_meta.resize(idx + 1, None);
                }
                self.view_meta[idx] = Some((comp, slot));
                (comp, slot)
            }
        };
        let (comp, slot) = meta;
        self.divergence.record_slot(slot, lag);
        let dirty = self.sampler.changed(idx, lag);
        let metrics = self.world.metrics_mut();
        // Histograms count samples, so every quantum must observe; the
        // gauge is last-value, so only dirty views need the write.
        metrics.observe_sym(comp, self.hist_sym, lag);
        if dirty {
            metrics.gauge_set_sym(comp, self.gauge_sym, lag as i64);
        }
    }

    /// The legacy full-diff sampling path: walks every view, collects
    /// `(Name, lag)` pairs, and records them through the string-keyed
    /// APIs. Kept (behind `PH_DIVERGENCE_FULL=1`) as the oracle the
    /// incremental path is regression-tested against — both must produce
    /// identical divergence summaries and metric reports.
    fn sample_divergence_full(&mut self, truth: Revision) {
        let mut lags = std::mem::take(&mut self.lag_scratch);
        lags.clear();
        // Names are interned `Rc<str>` handles, so collecting them is a
        // refcount bump per view — no string copies on this path.
        let push = |lags: &mut Vec<(Name, u64)>, name: Name, frontier: Revision| {
            lags.push((name, truth.0.saturating_sub(frontier.0)));
        };
        for &a in &self.cluster.apiservers {
            if let Some(s) = self.world.actor_ref::<ApiServer>(a) {
                push(&mut lags, self.world.name_handle(a), s.cache_revision());
            }
        }
        for &k in &self.cluster.kubelets {
            if let Some(s) = self.world.actor_ref::<Kubelet>(k) {
                push(&mut lags, self.world.name_handle(k), s.view_revision());
            }
        }
        if let Some(id) = self.cluster.scheduler {
            if let Some(s) = self.world.actor_ref::<Scheduler>(id) {
                push(&mut lags, self.world.name_handle(id), s.view_revision());
            }
        }
        if let Some(id) = self.cluster.volume_controller {
            if let Some(s) = self.world.actor_ref::<VolumeController>(id) {
                push(&mut lags, self.world.name_handle(id), s.view_revision());
            }
        }
        if let Some(id) = self.cluster.rs_controller {
            if let Some(s) = self.world.actor_ref::<ReplicaSetController>(id) {
                push(&mut lags, self.world.name_handle(id), s.view_revision());
            }
        }
        if let Some(id) = self.cluster.operator {
            if let Some(s) = self.world.actor_ref::<CassandraOperator>(id) {
                push(&mut lags, self.world.name_handle(id), s.view_revision());
            }
        }
        if let Some(id) = self.cluster.node_lifecycle {
            if let Some(s) = self.world.actor_ref::<NodeLifecycleController>(id) {
                push(&mut lags, self.world.name_handle(id), s.view_revision());
            }
        }
        for (name, lag) in &lags {
            let (name, lag) = (name.as_str(), *lag);
            self.divergence.record(name, lag);
            let metrics = self.world.metrics_mut();
            metrics.observe(name, "view_lag.revisions", lag);
            metrics.gauge_set(name, "view_lag.last", lag as i64);
        }
        lags.clear();
        self.lag_scratch = lags;
    }

    /// Finishes the run: tears the strategy down, lets the system settle
    /// for `settle`, evaluates the oracles, and produces the report. The
    /// trace stays with the world, so its buffers recycle into the trial
    /// pool when the world drops here.
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
        strategy.teardown(&mut self.world);
        self.world.run_for(settle);
        self.sample_divergence();
        let violations = check_all(oracles, &self.world);
        RunReport {
            scenario: std::mem::take(&mut self.name),
            strategy: strategy.name(),
            seed: self.seed,
            violations,
            sim_time: self.world.now(),
            trace_events: self.world.trace().len(),
            trace_digest: self.world.trace().digest(),
            metrics: self.world.metrics_report(),
            divergence: std::mem::take(&mut self.divergence),
            blame: None,
        }
    }
}

/// Derives the strategy-facing [`Targets`] for a cluster:
/// * `caches` — the apiservers (index-stable: `caches[i]` = apiserver i+1);
/// * `components` — kubelets (in node order), then scheduler, volume
///   controller, replica-set controller, operator (those configured);
/// * `notify_kinds` — both view-update message layers: the store→apiserver
///   feed (`WatchNotify`) and the apiserver→component feed (`ApiWatchEvent`).
pub fn targets_for(cluster: &ClusterHandle, horizon: Duration) -> Targets {
    let mut components = cluster.kubelets.clone();
    components.extend(cluster.scheduler);
    components.extend(cluster.volume_controller);
    components.extend(cluster.rs_controller);
    components.extend(cluster.operator);
    components.extend(cluster.node_lifecycle);
    Targets {
        // Shared handle to the cluster's member list — a refcount bump per
        // trial, not a copy (hunts build a fresh `Targets` every trial).
        store_nodes: cluster.store.nodes.clone(),
        caches: cluster.apiservers.as_slice().into(),
        components: components.into(),
        notify_kinds: ["WatchNotify".to_string(), "ApiWatchEvent".to_string()].into(),
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
}

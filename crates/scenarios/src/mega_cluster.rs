//! Mega-cluster scale — the parameterized load family behind experiment E10.
//!
//! No upstream ticket and no injected fault: this family exists to measure
//! (and regression-gate) the simulator's throughput and memory at datacenter
//! scale — hundreds to thousands of nodes, tens of thousands of pods — with
//! the watch cache, sharded by key hash, and the per-view divergence
//! sampler all under load at once.
//!
//! The workload is a synthetic *demand curve*: a [`DemandGen`] actor writes
//! pod objects straight to the store (batched puts/deletes per tick, like a
//! burst-driven deployment pipeline), tracking a triangle wave between 20%
//! and 100% of the pod population. The cluster's single apiserver mirrors
//! the churn through its watch cache and fans batches out to [`PodWatcher`]
//! consumers. Everything is deterministic: a `(seed, params)` pair fully
//! determines the trace digest, and the shard count is observationally
//! invisible — `run` at `shards = 8` is byte-identical to `shards = 1`
//! (the scenario-level property test pins this).
//!
//! The store compacts its history as a Kubernetes etcd does, on a timer,
//! keeping the apiserver's watch window of trailing revisions (see
//! `cluster_config`). Without it every replica kept every revision it had
//! applied, and that history was most of a 5k-node run's memory; with it
//! the history is bounded by the window plus one interval of commits
//! whatever the run length ([`ScaleProbe::store_history`]). The same
//! compactions drop each replica's Raft log below the lowest index every
//! replica holds, which bounds the log by about one interval of commits
//! ([`ScaleProbe::raft_log`]).
//!
//! Scale points (the E10 sweep): nodes ∈ {100, 1k, 5k} with
//! `pods = clamp(20 × nodes, 10k, 100k)`. `phtool scale` runs one point.

use ph_cluster::apiclient::{ApiClient, ApiClientConfig};
use ph_cluster::apiserver::ApiServer;
use ph_cluster::informer::{Informer, InformerConfig, InformerEvent};
use ph_cluster::objects::Object;
use ph_cluster::topology::ClusterConfig;
use ph_core::harness::RunReport;
use ph_core::perturb::NoFault;
use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, Retention, TimerId};
use ph_store::msgs::Expect;
use ph_store::node::AutoCompact;
use ph_store::{Completion, Revision, StoreClient, StoreClientConfig, StoreNode, StoreNodeConfig};

use crate::common::Runner;

/// Scenario name used in reports.
pub const NAME: &str = "mega-cluster";

/// One point of the scale family.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Node objects the demand generator registers up front.
    pub nodes: usize,
    /// Distinct pod slots the demand curve oscillates over.
    pub pods: usize,
    /// Apiserver watch-cache shard count (byte-invisible; a perf knob).
    pub shards: usize,
    /// Watch consumers following `pods/` through the apiserver.
    pub watchers: usize,
    /// Churn phase length (simulated time after warm-up).
    pub churn: Duration,
}

impl ScaleParams {
    /// The canonical E10 point for a node count: `pods = 20 × nodes`,
    /// clamped to the 10k–100k band, two watch consumers, 3 s of churn.
    pub fn for_nodes(nodes: usize, shards: usize) -> ScaleParams {
        ScaleParams {
            nodes,
            pods: (nodes * 20).clamp(10_000, 100_000),
            shards,
            watchers: 2,
            churn: Duration::secs(3),
        }
    }
}

/// How often the store leader proposes compacting its history down to the
/// trailing window (see [`cluster_config`]).
const COMPACT_INTERVAL: Duration = Duration::millis(100);

/// The cluster under the scale load: 3 store nodes, one apiserver (the
/// watch cache being measured), no kubelets and no controllers — every
/// event in the run is either demand churn or view maintenance, so the
/// throughput numbers measure the data path, not scenario logic.
///
/// The store compacts like a Kubernetes etcd: every [`COMPACT_INTERVAL`]
/// the leader proposes dropping all but the trailing `window` revisions.
/// `window` is also the apiserver's watch window, so the store keeps at
/// least as much history as the apiserver serves its own consumers from:
/// a resuming apiserver is refused only where its watchers would already
/// have been sent to relist.
fn cluster_config(p: &ScaleParams) -> ClusterConfig {
    // The window must ride out a curve swing without evicting past the
    // consumers' resume points, or relist storms dominate the run.
    let window = (p.pods / 2).max(1024);
    ClusterConfig {
        store_nodes: 3,
        apiservers: 1,
        nodes: vec![],
        store: StoreNodeConfig {
            autocompact: Some(AutoCompact {
                keep: window as u64,
                interval: COMPACT_INTERVAL,
            }),
            ..StoreNodeConfig::default()
        },
        api_shards: p.shards,
        api_window: window,
        api_scale_telemetry: true,
        ..ClusterConfig::default()
    }
}

const TAG_TICK: u64 = 1;

/// How often the demand generator wakes to reconcile live pods against the
/// curve, and the cap on ops it issues per wake-up.
const DEMAND_TICK: Duration = Duration::millis(5);
const DEMAND_BATCH: usize = 500;
/// Triangle-wave period, in demand ticks (256 × 5 ms ≈ 1.3 s per swing).
const CURVE_PERIOD: u64 = 256;

/// The synthetic demand driver: a store-level client that creates the node
/// population, then tracks the demand curve with batched pod puts/deletes.
/// Fire-and-forget — completions are drained and dropped; the store's
/// revision history is the ground truth the views chase.
#[derive(Debug)]
struct DemandGen {
    client: StoreClient,
    nodes: usize,
    pods: usize,
    nodes_created: usize,
    /// Liveness per pod slot (index = pod number).
    live: Vec<bool>,
    live_count: usize,
    /// Round-robin scan position over pod slots.
    cursor: usize,
    ticks: u64,
    sink: Vec<Completion>,
}

impl DemandGen {
    fn new(store: StoreClientConfig, p: &ScaleParams) -> DemandGen {
        DemandGen {
            client: StoreClient::new(store),
            nodes: p.nodes,
            pods: p.pods,
            nodes_created: 0,
            live: vec![false; p.pods],
            live_count: 0,
            cursor: 0,
            ticks: 0,
            sink: Vec::new(),
        }
    }

    /// The demand curve: a triangle wave between 20% and 100% of the pod
    /// population. Integer arithmetic only, so every platform agrees.
    fn target_live(&self, tick: u64) -> usize {
        let half = CURVE_PERIOD / 2;
        let pos = tick % CURVE_PERIOD;
        let tri = if pos < half { pos } else { CURVE_PERIOD - pos };
        let min = self.pods / 5;
        min + (self.pods - min) * tri as usize / half as usize
    }

    /// Advances `cursor` to the next pod slot with liveness `want`,
    /// scanning at most one full lap. Returns the slot index.
    fn next_slot(&mut self, want: bool) -> Option<usize> {
        for _ in 0..self.pods {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % self.pods;
            if self.live[i] == want {
                return Some(i);
            }
        }
        None
    }

    fn reconcile(&mut self, ctx: &mut Ctx) {
        let mut budget = DEMAND_BATCH;
        // Node population first (batch-capped, so large clusters register
        // over the first few ticks instead of one giant burst).
        while self.nodes_created < self.nodes && budget > 0 {
            let obj = Object::node(format!("node-{}", self.nodes_created));
            self.client.put(obj.key(), obj.encode(), ctx);
            self.nodes_created += 1;
            budget -= 1;
            ctx.counter_inc("demand.node_creates");
        }
        if self.nodes_created < self.nodes {
            return;
        }
        let target = self.target_live(self.ticks);
        while budget > 0 && self.live_count < target {
            let Some(i) = self.next_slot(false) else {
                break;
            };
            let node = format!("node-{}", i % self.nodes.max(1));
            let obj = Object::pod(format!("pod-{i}"), Some(node), None);
            self.client.put(obj.key(), obj.encode(), ctx);
            self.live[i] = true;
            self.live_count += 1;
            budget -= 1;
            ctx.counter_inc("demand.pod_creates");
        }
        while budget > 0 && self.live_count > target {
            let Some(i) = self.next_slot(true) else { break };
            self.client
                .delete(format!("pods/pod-{i}"), Expect::Any, ctx);
            self.live[i] = false;
            self.live_count -= 1;
            budget -= 1;
            ctx.counter_inc("demand.pod_deletes");
        }
        ctx.gauge_set("demand.live_pods", self.live_count as i64);
    }
}

impl Actor for DemandGen {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(DEMAND_TICK, TAG_TICK);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        // Fire-and-forget: completions only matter for the client's
        // in-flight bookkeeping.
        self.client.on_message(from, &msg, ctx, &mut self.sink);
        self.sink.clear();
    }

    fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        self.reconcile(ctx);
        self.ticks += 1;
        ctx.set_timer(DEMAND_TICK, TAG_TICK);
    }
}

/// A watch consumer: mirrors `pods/` through an [`Informer`] fed by the
/// apiserver, counting delivered events. This is the fan-out load the
/// sharded cache must serve — a stripped-down kubelet with no reconcile.
#[derive(Debug)]
struct PodWatcher {
    client: ApiClient,
    informer: Informer,
    tick: Duration,
}

impl PodWatcher {
    fn new(apiservers: Vec<ActorId>) -> PodWatcher {
        PodWatcher {
            client: ApiClient::new(ApiClientConfig::new(apiservers), 0),
            informer: Informer::new(InformerConfig {
                prefix: "pods/".into(),
                fresh_lists: false,
                resync_interval: None,
                congestible: false,
            }),
            tick: Duration::millis(20),
        }
    }
}

impl Actor for PodWatcher {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.tick, TAG_TICK);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            self.informer
                .on_completion(c, &mut self.client, ctx, &mut events);
        }
        if !events.is_empty() {
            ctx.counter_add("watcher.events", events.len() as u64);
            ctx.gauge_set("watcher.objects", self.informer.len() as i64);
        }
    }

    fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        self.informer.poll(&mut self.client, ctx);
        ctx.set_timer(self.tick, TAG_TICK);
    }
}

/// The deterministic probe a scale run hands back *beside* its report: the
/// watch cache's memory proxy, the store's replication cost and what
/// compaction left of its history, all at churn end.
///
/// Deliberately out-of-band: these are costs, not content, so they stay
/// out of the [`RunReport`] and no export or golden moves when a cost
/// does. Like the report, every field is the same at every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleProbe {
    /// Approximate watch-cache bytes (keys + values + a per-entry
    /// constant).
    pub cache_bytes: usize,
    /// Live cache objects at the same instant.
    pub cache_objects: usize,
    /// [`RaftCore::replication_steps`](ph_store::raft::RaftCore::replication_steps)
    /// summed over the store nodes: the entry-proportional work of the
    /// replication path. A cost counter, not content, so it stays out of
    /// the report and no golden moves when the path gets cheaper.
    pub raft_steps: u64,
    /// Log entries the store committed (the highest commit index).
    pub raft_commits: u64,
    /// [`MvccStore::retained_events`](ph_store::MvccStore::retained_events)
    /// of the store node holding the most: the history compaction bounds.
    pub store_history: usize,
    /// The lowest compaction floor over the store nodes (every replica has
    /// dropped the history at or below it).
    pub store_compacted: Revision,
    /// Raft log entries held by the store node holding the most: the log
    /// the same compactions bound.
    pub raft_log: u64,
    /// The lowest log base over the store nodes (every replica has dropped
    /// the log entries at or below it).
    pub raft_log_base: u64,
}

/// What a scale run keeps of its trace: nothing. The run injects no fault,
/// evaluates no oracle and returns no trace, so nobody reads the events —
/// it only reports their count and digest — and at 5 000 nodes storing
/// them cost more memory than the whole simulated cluster.
pub const RETENTION: Retention = Retention::DigestOnly;

/// Runs one scale point to completion. Clean by construction (no oracles,
/// no faults); the interesting outputs are `trace_events` and the
/// `apiserver.objects` / `apiserver.window_peak` gauges. The report is
/// byte-identical across shard counts.
pub fn run(seed: u64, p: &ScaleParams) -> RunReport {
    run_probed(seed, p).0
}

/// Like [`run`], but also hands back the [`ScaleProbe`] `phtool scale`
/// reports per-object memory from.
pub fn run_probed(seed: u64, p: &ScaleParams) -> (RunReport, ScaleProbe) {
    run_with(seed, p, RETENTION)
}

/// [`run`] on a world that stores every event — the reference the
/// retention-invisibility test compares the real (digest-only) path to.
/// Not for callers: it costs ≈ 67 B of memory per event for nothing.
#[doc(hidden)]
pub fn run_retaining_trace(seed: u64, p: &ScaleParams) -> RunReport {
    run_with(seed, p, Retention::All).0
}

fn run_with(seed: u64, p: &ScaleParams, retention: Retention) -> (RunReport, ScaleProbe) {
    let (runner, probe) = churn(seed, p, retention);
    (runner.finish(&mut NoFault, SETTLE, &mut []), probe)
}

/// Simulated time after churn ends in which the population drains.
const SETTLE: Duration = Duration::millis(200);

/// Spawns one scale point and drives it through warm-up and churn, probing
/// it at churn end; the caller settles it and takes the report.
fn churn(seed: u64, p: &ScaleParams, retention: Retention) -> (Runner, ScaleProbe) {
    assert!(p.pods > 0, "the demand curve needs at least one pod slot");
    let cfg = cluster_config(p);
    let horizon = Duration(p.churn.0 + Duration::secs(2).0);
    let mut runner =
        Runner::with_retention(NAME, seed, &cfg, Duration::secs(1), horizon, retention);
    let api = runner.cluster.apiservers[0];
    for i in 0..p.watchers {
        let name = format!("pod-watcher-{}", i + 1);
        runner.world.spawn(&name, PodWatcher::new(vec![api]));
    }
    let store_cfg = StoreClientConfig::new(runner.cluster.store.nodes.clone());
    runner
        .world
        .spawn("demand-gen", DemandGen::new(store_cfg, p));

    let end = Duration(Duration::secs(1).0 + p.churn.0);
    runner.drive(&mut NoFault, end, Duration::millis(50));

    // Peak-RSS proxy, captured at full churn (before the settle phase
    // lets the population drain).
    let apiserver = runner.world.actor_ref::<ApiServer>(api);
    let stores: Vec<&StoreNode> = runner
        .cluster
        .store
        .nodes
        .iter()
        .filter_map(|&id| runner.world.actor_ref::<StoreNode>(id))
        .collect();
    let probe = ScaleProbe {
        cache_bytes: apiserver.map_or(0, ApiServer::cache_approx_bytes),
        cache_objects: apiserver.map_or(0, ApiServer::cache_len),
        raft_steps: stores.iter().map(|s| s.raft().replication_steps()).sum(),
        raft_commits: stores.iter().map(|s| s.raft().commit()).max().unwrap_or(0),
        store_history: stores
            .iter()
            .map(|s| s.mvcc().retained_events())
            .max()
            .unwrap_or(0),
        store_compacted: stores
            .iter()
            .map(|s| s.mvcc().compacted())
            .min()
            .unwrap_or_default(),
        raft_log: stores
            .iter()
            .map(|s| s.raft().log_len() - s.raft().log_base())
            .max()
            .unwrap_or(0),
        raft_log_base: stores
            .iter()
            .map(|s| s.raft().log_base())
            .min()
            .unwrap_or(0),
    };
    (runner, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::TraceEventKind;

    fn small() -> ScaleParams {
        ScaleParams {
            nodes: 10,
            pods: 200,
            shards: 1,
            watchers: 2,
            churn: Duration::millis(600),
        }
    }

    #[test]
    fn small_point_runs_clean_and_produces_churn() {
        let report = run(7, &small());
        assert!(!report.failed());
        assert!(report.trace_events > 0);
        assert!(
            report.metrics.counter_total("demand.pod_creates") > 0,
            "the demand curve never created a pod"
        );
        assert!(
            report.metrics.counter_total("watcher.events") > 0,
            "no watch events reached the consumers"
        );
        let objects = report.metrics.gauge_max("apiserver.objects");
        assert!(
            objects.is_some_and(|o| o > 0),
            "scale telemetry missing: {objects:?}"
        );
    }

    #[test]
    fn replication_cost_per_commit_is_bounded() {
        let (_, probe) = run_probed(7, &small());
        assert!(probe.raft_commits > 100, "{probe:?}");
        // ≈ 9 on three nodes whatever the in-flight window; the linear
        // scan this replaced costs hundreds at this point, thousands at 5k.
        assert!(probe.raft_steps <= 24 * probe.raft_commits, "{probe:?}");
    }

    #[test]
    fn compaction_bounds_the_store_history() {
        // 2 000 pod slots put the window, and so `keep`, at its 1 024
        // floor; two seconds of churn commit several times that.
        let p = ScaleParams {
            pods: 2_000,
            watchers: 1,
            churn: Duration::secs(2),
            ..small()
        };
        let keep = cluster_config(&p).store.autocompact.expect("on").keep;
        let (runner, probe) = churn(7, &p, Retention::All);
        let (report, trace) = runner.finish_with_trace(&mut NoFault, SETTLE, &mut []);
        assert!(!report.failed());
        assert!(probe.raft_commits > 4 * keep, "{probe:?}");
        assert!(probe.store_compacted > Revision::ZERO, "{probe:?}");
        let per_interval = probe.raft_commits * COMPACT_INTERVAL.0 / p.churn.0;
        assert!(
            probe.store_history as u64 <= keep + per_interval,
            "{probe:?}: more than {keep} + {per_interval} revisions retained"
        );
        // The same compactions bound the Raft log: each replica holds what
        // committed since the floor was chosen (one interval, plus entries
        // some replica had not yet acknowledged), against every commit of
        // the run without them.
        assert!(probe.raft_log_base > 0, "{probe:?}");
        assert!(
            probe.raft_log <= 2 * per_interval,
            "{probe:?}: more than {} log entries retained",
            2 * per_interval
        );
        // A store that refused the apiserver's resume point would have made
        // it re-list and announce itself ready a second time.
        let ready = trace.count(|e| {
            matches!(&e.kind, TraceEventKind::Annotation { label, .. }
                if label.as_str() == "apiserver.ready")
        });
        assert_eq!(ready, 1, "the apiserver re-bootstrapped");
    }

    #[test]
    fn canonical_params_scale_with_nodes() {
        assert_eq!(ScaleParams::for_nodes(100, 1).pods, 10_000);
        assert_eq!(ScaleParams::for_nodes(1_000, 8).pods, 20_000);
        assert_eq!(ScaleParams::for_nodes(5_000, 8).pods, 100_000);
    }

    #[test]
    fn curve_stays_inside_the_band() {
        let p = small();
        let g = DemandGen::new(StoreClientConfig::new(vec![ActorId(1)]), &p);
        for t in 0..1_000 {
            let target = g.target_live(t);
            assert!(
                target >= p.pods / 5 && target <= p.pods,
                "tick {t}: {target}"
            );
        }
        // The wave actually moves.
        assert_ne!(g.target_live(0), g.target_live(CURVE_PERIOD / 2));
    }
}

//! The experiments that build their own small worlds on the substrate
//! (store, apiserver, informer, epoch buffer) rather than run a registered
//! scenario: F1, F3, E1, E2 and A1.

use std::fmt::Write as _;

use ph_cluster::apiclient::{ApiClient, ApiClientConfig, ApiCompletion};
use ph_cluster::apiserver::{ApiServer, ApiServerConfig};
use ph_cluster::informer::{Informer, InformerConfig, InformerEvent};
use ph_cluster::objects::{Body, Object};
use ph_cluster::topology::{spawn_cluster, ClusterConfig, ClusterHandle};
use ph_core::epoch::{EpochBuffer, EpochError, EpochPartition};
use ph_core::history::{Change, ChangeOp, FrontierLog, History};
use ph_core::observe::observability_report;
use ph_core::perturb::{Schedule, Strategy, Targets};
use ph_sim::{
    Actor, ActorId, AnyMsg, Ctx, Duration, SimRng, SimTime, TimerId, TraceEventKind, World,
    WorldConfig,
};
use ph_store::client::BasicClient;
use ph_store::node::StoreNodeConfig;
use ph_store::{
    spawn_store_cluster, Revision, StoreClient, StoreClientConfig, StoreCluster, StoreNode,
};

use crate::common::targets_for;
use crate::hbase_3136::RegionManager;

// ---- F1: why the caches (and hence partial histories) exist ----

/// A closed-loop reader: issues the next read as soon as one completes.
struct Reader {
    client: ApiClient,
    fresh: bool,
    completed: u64,
    outstanding: bool,
}

impl Reader {
    fn issue(&mut self, ctx: &mut Ctx) {
        self.client.get("nodes/n0", self.fresh, ctx);
        self.outstanding = true;
    }
}

impl Actor for Reader {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::millis(20), 0);
    }
    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut out = Vec::new();
        if self.client.on_message(from, &msg, ctx, &mut out) {
            for c in out {
                if matches!(c, ApiCompletion::Done { .. }) {
                    self.completed += 1;
                    self.outstanding = false;
                }
            }
            if !self.outstanding {
                self.issue(ctx);
            }
        }
    }
    fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        if !self.outstanding {
            self.issue(ctx);
        }
        ctx.set_timer(Duration::millis(20), 0);
    }
}

/// Puts `nodes/n<i>` through `admin` and steps the world until it lands.
fn put_node(world: &mut World, admin: ActorId, i: usize) {
    let req = world.invoke::<BasicClient, _>(admin, move |bc, ctx| {
        bc.client.put(
            format!("nodes/n{i}"),
            Object::node(format!("n{i}")).encode(),
            ctx,
        )
    });
    while world
        .actor_ref::<BasicClient>(admin)
        .expect("admin")
        .result_of(req)
        .is_none()
    {
        world.step();
    }
}

/// Spawns an admin client writing straight to the store.
fn spawn_admin(world: &mut World, store: &StoreCluster) -> ActorId {
    world.spawn(
        "admin",
        BasicClient::new(
            StoreClient::new(StoreClientConfig::new(store.nodes.clone())),
            Duration::millis(20),
        ),
    )
}

/// Runs `n_readers` closed-loop readers for one simulated second; returns
/// total completed reads.
fn run_fanout(seed: u64, n_readers: usize, fresh: bool) -> u64 {
    let mut world = World::new(WorldConfig::default(), seed);
    // Finite capacities: the store can serve one quorum read per 200µs,
    // the apiserver one cache read per 50µs — the §4.1 asymmetry.
    let store_cfg = StoreNodeConfig {
        read_service: Duration::micros(200),
        ..StoreNodeConfig::default()
    };
    let store = spawn_store_cluster(&mut world, 3, store_cfg);
    // Two apiservers: cache capacity scales horizontally; the store's does
    // not — that is the architecture of Figure 1.
    let apis: Vec<_> = (0..2)
        .map(|i| {
            let scc = StoreClientConfig::new(store.nodes.clone());
            let mut api_cfg = ApiServerConfig::new(scc);
            api_cfg.read_service = Duration::micros(50);
            world.spawn(&format!("apiserver-{}", i + 1), ApiServer::new(api_cfg))
        })
        .collect();
    store
        .wait_for_leader(&mut world, SimTime(Duration::secs(1).as_nanos()))
        .expect("leader");

    // Seed the key the readers hit, directly through the store.
    let admin = spawn_admin(&mut world, &store);
    put_node(&mut world, admin, 0);
    world.run_until(SimTime(Duration::secs(1).as_nanos()));

    let readers: Vec<ActorId> = (0..n_readers)
        .map(|i| {
            let cfg = ApiClientConfig::new(vec![apis[i % apis.len()]]);
            world.spawn(
                &format!("reader-{i}"),
                Reader {
                    client: ApiClient::new(cfg, 0),
                    fresh,
                    completed: 0,
                    outstanding: false,
                },
            )
        })
        .collect();
    world.run_for(Duration::secs(1));
    readers
        .iter()
        .map(|&r| world.actor_ref::<Reader>(r).expect("reader").completed)
        .sum()
}

pub(super) fn f1_cache_pressure() -> String {
    let mut out = String::new();
    say!(
        out,
        "=== F1 (Figure 1 / §4.1): reads per simulated second vs fan-out ==="
    );
    say!(
        out,
        "{:<8} {:>16} {:>16} {:>8}",
        "fan-out",
        "cache reads/s",
        "quorum reads/s",
        "ratio"
    );
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32] {
        let cache = run_fanout(901, n, false);
        let quorum = run_fanout(901, n, true);
        say!(
            out,
            "{:<8} {:>16} {:>16} {:>7.1}x",
            n,
            cache,
            quorum,
            cache as f64 / quorum.max(1) as f64
        );
        rows.push((cache, quorum));
    }
    say!(
        out,
        "(shape check: quorum reads saturate at the store's capacity (~5k/s) while\n          cache reads keep scaling — the caches keep the store from being the bottleneck)"
    );
    assert!(
        rows.windows(2).all(|w| w[0].0 < w[1].0),
        "cache reads must keep growing with fan-out: {rows:?}"
    );
    let (at16, at32) = (rows[4].1, rows[5].1);
    assert!(
        at32 <= at16 + at16 / 100,
        "quorum reads must plateau at the store's capacity: {rows:?}"
    );
    out
}

// ---- F3: the three partial-history patterns, made measurable ----

fn cluster_world(seed: u64) -> (World, ClusterHandle) {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, SimTime(Duration::secs(1).as_nanos())));
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    let dl = SimTime(world.now().0 + Duration::secs(10).as_nanos());
    for n in ["node-1", "node-2"] {
        cluster.create_object(&mut world, &Object::node(n), dl);
    }
    (world, cluster)
}

fn truth_rev(world: &World, cluster: &ClusterHandle) -> Revision {
    cluster
        .store
        .leader(world)
        .and_then(|n| world.actor_ref::<StoreNode>(n))
        .map(|s| s.mvcc().revision())
        .unwrap_or(Revision::ZERO)
}

/// 3a: run a steady churn workload with a delayed apiserver feed; sample
/// the view lag. Returns (mean lag, max lag) in events.
fn staleness_lag(seed: u64, delay: Duration) -> (f64, u64) {
    let (mut world, cluster) = cluster_world(seed);
    let targets = targets_for(&cluster, Duration::secs(4));
    let mut injector = Schedule::staleness(1, delay, Duration::ZERO);
    injector.setup(&mut world, &targets);
    let dl = SimTime(world.now().0 + Duration::secs(20).as_nanos());
    let mut lags = Vec::new();
    for i in 0..40 {
        cluster.create_object(
            &mut world,
            &Object::pod(format!("churn-{i}"), Some("node-1".into()), None),
            dl,
        );
        world.run_for(Duration::millis(50));
        let truth = truth_rev(&world, &cluster);
        let view = world
            .actor_ref::<ApiServer>(cluster.apiservers[1])
            .expect("api2")
            .cache_revision();
        lags.push(truth.0.saturating_sub(view.0));
    }
    injector.teardown(&mut world);
    let max = *lags.iter().max().unwrap_or(&0);
    let mean = lags.iter().sum::<u64>() as f64 / lags.len() as f64;
    (mean, max)
}

/// 3b: crash a kubelet and restart it against a stale (frozen) or fresh
/// upstream; return the measured frontier regression depth.
fn time_travel_depth(seed: u64, stale_upstream: bool) -> u64 {
    let (mut world, cluster) = cluster_world(seed);
    let targets = targets_for(&cluster, Duration::secs(5));
    let dl = SimTime(world.now().0 + Duration::secs(20).as_nanos());
    cluster.create_object(
        &mut world,
        &Object::new("web", Body::ReplicaSet { replicas: 2 }),
        dl,
    );

    let mut injector = Schedule::time_travel(
        1,
        0,
        if stale_upstream {
            Duration::millis(1500)
        } else {
            Duration::secs(30) // never freezes within the run
        },
        Duration::millis(2500),
        Duration::millis(2700),
        Some(Duration::millis(4200)),
    );
    injector.setup(&mut world, &targets);
    let end = SimTime(Duration::millis(4500).as_nanos());
    let mut churned = false;
    while world.now() < end {
        world.run_for(Duration::millis(20));
        if !churned && world.now() >= SimTime(Duration::millis(1800).as_nanos()) {
            churned = true;
            for i in 0..4 {
                cluster.create_object(
                    &mut world,
                    &Object::pod(format!("extra-{i}"), Some("node-1".into()), None),
                    dl,
                );
            }
        }
        injector.tick(&mut world, &targets);
    }
    injector.teardown(&mut world);

    let kubelet = cluster.kubelets[0];
    let mut log = FrontierLog::new();
    for e in world.trace().iter() {
        if let TraceEventKind::Annotation { actor, label, data } = &e.kind {
            if *actor == kubelet && *label == "view.frontier" {
                if let Ok(rev) = data.parse() {
                    log.record(e.at.nanos(), rev);
                }
            }
        }
    }
    log.max_travel_depth()
}

/// 3c: fraction of a churny history invisible to sparse state reads.
fn obs_gap_series() -> Vec<(u64, f64)> {
    let mut h = History::new();
    let mut rng = SimRng::from_seed(33);
    let mut alive = [false; 6];
    for _ in 0..240 {
        let e = rng.below(6) as usize;
        let entity = format!("obj{e}");
        if !alive[e] {
            h.append(entity, ChangeOp::Create);
            alive[e] = true;
        } else if rng.chance(0.4) {
            h.append(entity, ChangeOp::Delete);
            alive[e] = false;
        } else {
            h.append(entity, ChangeOp::Update(rng.below(1000)));
        }
    }
    [1u64, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&interval| {
            let points: Vec<u64> = (1..=h.len()).filter(|s| s % interval == 0).collect();
            (interval, observability_report(&h, &points).gap_fraction())
        })
        .collect()
}

pub(super) fn f3_patterns() -> String {
    let mut out = String::new();
    say!(
        out,
        "=== F3a (staleness): view lag vs injected notification delay ==="
    );
    say!(out, "{:<12} {:>12} {:>10}", "delay", "mean lag", "max lag");
    for ms in [0u64, 20, 50, 100, 200] {
        let (mean, max) = staleness_lag(911, Duration::millis(ms));
        say!(out, "{:<12} {:>12.1} {:>10}", format!("{ms}ms"), mean, max);
    }

    say!(
        out,
        "\n=== F3b (time traveling): frontier regression depth on restart ==="
    );
    let fresh = time_travel_depth(912, false);
    let stale = time_travel_depth(912, true);
    say!(out, "restart against fresh upstream: depth {fresh}");
    say!(out, "restart against stale upstream: depth {stale}");
    assert!(stale > fresh, "stale restart must regress further");

    say!(
        out,
        "\n=== F3c (observability gaps): unobservable fraction vs read sparsity ==="
    );
    say!(
        out,
        "{:<20} {:>14}",
        "read interval (events)",
        "gap fraction"
    );
    for (interval, frac) in obs_gap_series() {
        say!(out, "{:<20} {:>13.1}%", interval, frac * 100.0);
    }
    out
}

// ---- E1: the HBASE-3136 / 3137 staleness/performance trade-off ----

/// Runs 4 regions for 4 simulated seconds at the given follower lag;
/// returns (completed transitions, broken regions).
fn run_manager(seed: u64, fixed: bool, lag: Duration) -> (u64, usize) {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
    let leader = cluster
        .wait_for_leader(&mut world, SimTime(Duration::secs(1).as_nanos()))
        .expect("leader");
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    let follower_idx = (cluster.nodes.iter())
        .position(|&n| n != leader)
        .expect("a follower");
    let follower = cluster.nodes[follower_idx];

    let mut scc = StoreClientConfig::new(cluster.nodes.clone());
    scc.affinity = Some(follower_idx);
    let manager = world.spawn(
        "region-manager",
        RegionManager::new(StoreClient::new(scc), 4, Duration::millis(50), fixed),
    );

    let targets = Targets {
        store_nodes: cluster.nodes.clone(),
        caches: [follower].into(),
        components: [manager].into(),
        notify_kinds: &["RaftWire"],
        horizon: Duration::secs(5),
    };
    let mut strategy = Schedule::staleness(0, lag, Duration::millis(1500));
    strategy.setup(&mut world, &targets);
    world.run_until(SimTime(Duration::secs(5).as_nanos()));
    strategy.teardown(&mut world);

    let m = world.actor_ref::<RegionManager>(manager).expect("manager");
    (m.total_transitions(), m.broken_regions())
}

pub(super) fn e1_hbase_tradeoff() -> String {
    let mut out = String::new();
    say!(
        out,
        "=== E1 (HBASE-3136/3137): stale-CAS aborts vs sync cost ===\n"
    );
    say!(
        out,
        "{:<12} {:<22} {:>14} {:>16}",
        "lag",
        "variant",
        "transitions/4s",
        "broken regions"
    );
    for lag_ms in [0u64, 30, 90] {
        let mut transitions_at_lag = [0u64; 2];
        for fixed in [false, true] {
            let (transitions, broken) = run_manager(921, fixed, Duration::millis(lag_ms));
            say!(
                out,
                "{:<12} {:<22} {:>14} {:>16}",
                format!("{lag_ms}ms"),
                if fixed {
                    "fixed (sync-first)"
                } else {
                    "buggy (follower read)"
                },
                transitions,
                broken
            );
            transitions_at_lag[fixed as usize] = transitions;
            if fixed {
                assert_eq!(broken, 0, "fixed broke a region at {lag_ms}ms lag");
            } else if lag_ms == 90 {
                assert!(broken >= 1, "buggy must break a region at 90ms lag");
            }
        }
        if lag_ms == 0 {
            let [buggy, fixed] = transitions_at_lag;
            assert!(
                buggy > fixed,
                "buggy must lead on transitions at 0ms lag ({buggy} vs {fixed})"
            );
        }
    }
    say!(
        out,
        "\n(shape check: buggy leads on transitions at 0ms lag but breaks \
         regions at 90ms;\n fixed never breaks a region at any lag — the \
         HBASE-3137 price is the lower rate)"
    );
    out
}

// ---- E2: the epoch-bounded programming model's granularity knob ----

fn synthetic_feed(n: u64, loss: f64, seed: u64) -> (History, Vec<Change>) {
    let mut h = History::new();
    let mut rng = SimRng::from_seed(seed);
    let mut alive = [false; 10];
    for _ in 0..n {
        let e = rng.below(10) as usize;
        let entity = format!("obj{e}");
        if !alive[e] {
            h.append(entity, ChangeOp::Create);
            alive[e] = true;
        } else if rng.chance(0.3) {
            h.append(entity, ChangeOp::Delete);
            alive[e] = false;
        } else {
            h.append(entity, ChangeOp::Update(rng.below(1000)));
        }
    }
    let delivered = h
        .changes()
        .iter()
        .filter(|_| !rng.chance(loss))
        .cloned()
        .collect();
    (h, delivered)
}

struct EpochOutcome {
    complete: u64,
    detected_gaps: u64,
    delivered_events: u64,
    peak_buffer: usize,
    /// Max staleness (events) the consumer's released view trailed H by,
    /// sampled after each push.
    max_staleness: u64,
}

fn run_epochs(size: u64, h: &History, feed: &[Change]) -> EpochOutcome {
    let mut buf = EpochBuffer::new(EpochPartition::new(size));
    let mut o = EpochOutcome {
        complete: 0,
        detected_gaps: 0,
        delivered_events: 0,
        peak_buffer: 0,
        max_staleness: 0,
    };
    // Releases every epoch sealed at `committed`, skipping incomplete ones.
    let release = |buf: &mut EpochBuffer, o: &mut EpochOutcome, committed: u64| loop {
        match buf.release_next(committed) {
            Ok(epoch) => {
                o.complete += 1;
                o.delivered_events += epoch.len() as u64;
            }
            Err(EpochError::Incomplete { .. }) => {
                o.detected_gaps += 1;
                buf.skip_epoch();
            }
            Err(EpochError::NotSealed { .. }) => break,
        }
    };
    for c in feed {
        let committed = c.seq; // feed arrives in commit order
        buf.push(c.clone());
        release(&mut buf, &mut o, committed);
        o.max_staleness = o.max_staleness.max(buf.staleness_bound(committed));
    }
    // Drain what the end of the run seals.
    release(&mut buf, &mut o, h.len());
    o.peak_buffer = buf.peak_buffered();
    o
}

pub(super) fn e2_epochs() -> String {
    let (h, feed) = synthetic_feed(512, 0.05, 44);
    let lost = h.len() as usize - feed.len();
    let mut out = String::new();
    say!(
        out,
        "=== E2 (§6.2): epoch granularity sweep (512 events, {lost} lost) ===\n"
    );
    say!(
        out,
        "{:<12} {:>10} {:>15} {:>16} {:>12} {:>14}",
        "epoch size",
        "complete",
        "detected gaps",
        "events delivered",
        "peak buffer",
        "max staleness"
    );
    for size in [1u64, 2, 4, 8, 16, 32, 64] {
        let o = run_epochs(size, &h, &feed);
        say!(
            out,
            "{:<12} {:>10} {:>15} {:>16} {:>12} {:>14}",
            size,
            o.complete,
            o.detected_gaps,
            o.delivered_events,
            o.peak_buffer,
            o.max_staleness
        );
        // The §6.2 guarantee: everything either arrives in a complete epoch
        // or falls in a *detected* (skipped) one — nothing silently partial.
        assert_eq!(
            o.delivered_events % size,
            0,
            "released epochs must be whole"
        );
    }
    say!(
        out,
        "\n(shape check: staleness bound and peak buffer grow with epoch size; \
         detected gaps shrink; no silent gaps at any size)"
    );
    out
}

// ---- A1: the apiserver's rolling watch-event window ([7], §4.2.3) ----

struct Host {
    client: ApiClient,
    informer: Informer,
    relists: u32,
}

impl Actor for Host {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::millis(30), 0);
    }
    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events = Vec::new();
        for c in &completions {
            self.informer
                .on_completion(c, &mut self.client, ctx, &mut events);
        }
        for e in events {
            if matches!(e, InformerEvent::Synced { .. }) {
                self.relists += 1;
            }
        }
    }
    fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        self.informer.poll(&mut self.client, ctx);
        ctx.set_timer(Duration::millis(30), 0);
    }
}

struct Recovery {
    relists: u32,
    converged: bool,
    recovery_ms: u64,
}

/// Disconnect an informer while `burst` writes land, with the given
/// apiserver window; measure how it recovers.
fn run_ablation(seed: u64, window: usize, burst: usize) -> Recovery {
    let mut world = World::new(WorldConfig::default(), seed);
    let store = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
    let mut cfg = ApiServerConfig::new(StoreClientConfig::new(store.nodes.clone()));
    cfg.window = window;
    let api = world.spawn("apiserver-1", ApiServer::new(cfg));
    store
        .wait_for_leader(&mut world, SimTime(Duration::secs(1).as_nanos()))
        .expect("leader");
    world.run_until(SimTime(Duration::secs(1).as_nanos()));

    let host = world.spawn(
        "host",
        Host {
            client: ApiClient::new(ApiClientConfig::new(vec![api]), 0),
            informer: Informer::new(InformerConfig::new("nodes/")),
            relists: 0,
        },
    );
    let admin = spawn_admin(&mut world, &store);
    // Seed one object and let the informer sync.
    put_node(&mut world, admin, 0);
    world.run_for(Duration::millis(300));
    let baseline_relists = world.actor_ref::<Host>(host).expect("host").relists;

    // Disconnect, burst, reconnect.
    let p = world.partition(&[host], &[api]);
    for i in 1..=burst {
        put_node(&mut world, admin, i);
    }
    world.run_for(Duration::millis(300));
    world.heal(p);
    let healed_at = world.now();

    // Wait for convergence.
    let deadline = healed_at + Duration::secs(5);
    let mut recovery_ms = u64::MAX;
    while world.now() < deadline {
        world.run_for(Duration::millis(20));
        let h = world.actor_ref::<Host>(host).expect("host");
        if h.informer.len() == burst + 1 {
            recovery_ms = world.now().since(healed_at).as_millis();
            break;
        }
    }
    let h = world.actor_ref::<Host>(host).expect("host");
    Recovery {
        relists: h.relists - baseline_relists,
        converged: h.informer.len() == burst + 1,
        recovery_ms,
    }
}

pub(super) fn a1_window_ablation() -> String {
    let burst = 12;
    let mut out = String::new();
    say!(
        out,
        "=== A1 (ablation, [7]): watch window size vs recovery path ==="
    );
    say!(out, "(informer disconnected while {burst} writes land)\n");
    say!(
        out,
        "{:<12} {:>10} {:>12} {:>14}",
        "window",
        "re-lists",
        "converged",
        "recovery (ms)"
    );
    for window in [4usize, 8, 16, 64, 256] {
        let o = run_ablation(931, window, burst);
        say!(
            out,
            "{:<12} {:>10} {:>12} {:>14}",
            window,
            o.relists,
            o.converged,
            if o.recovery_ms == u64::MAX {
                "—".to_string()
            } else {
                o.recovery_ms.to_string()
            }
        );
        assert!(o.converged, "window {window}: informer never converged");
    }
    say!(
        out,
        "\n(shape check: windows smaller than the burst force a full re-list \
         (re-lists ≥ 1);\n windows covering the burst recover by stream replay \
         (re-lists = 0); all converge)"
    );
    out
}

//! Layer replays: small closed loops over one layer's public API, sized to
//! run 0.2–1 s each. They give per-layer numbers a workload's spans cannot
//! (the spans stop at the functions phbench itself calls), and they do not
//! depend on the workload: every traced run carries the same set.
//!
//! Each replay takes the seed and adds `(metric, value)` rows.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use ph_cluster::objects::Object;
use ph_cluster::topology::ClusterConfig;
use ph_cluster::ShardedCache;
use ph_core::perturb::NoFault;
use ph_lint::independence::derive_all;
use ph_lint::modelcheck::{model_check, model_check_exhaustive};
use ph_scenarios::{scenario_statics, static_crosscheck, Runner, Variant};
use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, SimRng, TimerId, World, WorldConfig};
use ph_store::msgs::Expect;
use ph_store::{Key, MvccStore, Op, Revision, Value};

use crate::stats::median;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// Wall nanoseconds of one call.
fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Median wall nanoseconds of `reps` calls.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ns(|| black_box(f())).1).collect();
    median(&samples)
}

/// Runs every replay.
pub fn all(seed: u64, root: &std::path::Path, out: &mut Values) -> Result<(), String> {
    pingpong(seed, out);
    reference_heap(seed, out);
    trace_digest(seed, out);
    metrics_report(seed, out);
    commit_path(seed, out);
    mvcc(seed, out);
    cluster_warmup(seed, out);
    slab(seed, out);
    divergence_sample(seed, out);
    lint(root, out)
}

#[derive(Debug)]
struct Ball(u64);

/// Returns every ball to its sender until `remaining` runs out; every
/// eighth return also arms a timer, so the timer path is on the loop too.
#[derive(Debug)]
struct Echo {
    peer: Option<ActorId>,
    remaining: u64,
}

impl Actor for Echo {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(peer) = self.peer {
            ctx.send(peer, Ball(0));
        }
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let Some(Ball(n)) = msg.downcast_ref() else {
            return;
        };
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        if n % 8 == 0 {
            ctx.set_timer(Duration::millis(1), *n);
        }
        ctx.send(from, Ball(n + 1));
    }

    fn on_timer(&mut self, _t: TimerId, _tag: u64, _ctx: &mut Ctx) {}
}

const PINGPONG_MESSAGES: u64 = 200_000;

/// A bare `World` with two echo actors: the event queue, the net model,
/// actor dispatch and trace append with no cluster on top.
fn pingpong(seed: u64, out: &mut Values) {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (events, ns) = time_ns(|| {
                let mut world = World::new(WorldConfig::default(), seed);
                let half = PINGPONG_MESSAGES / 2;
                let a = world.spawn(
                    "echo-a",
                    Echo {
                        peer: None,
                        remaining: half,
                    },
                );
                world.spawn(
                    "echo-b",
                    Echo {
                        peer: Some(a),
                        remaining: half,
                    },
                );
                world.run_until_quiescent(u64::MAX);
                world.trace().len()
            });
            ns / events as f64
        })
        .collect();
    out.insert(
        "ph-sim.world.pingpong_ns_per_event".into(),
        median(&samples),
    );
}

/// What SNIPPETS.md's reference executor queues: a boxed event and its time.
trait RefEvent {
    fn exec(&mut self) -> u64;
}

struct Tick(u64);

impl RefEvent for Tick {
    fn exec(&mut self) -> u64 {
        self.0
    }
}

struct Timed(u64, Box<dyn RefEvent>);

impl PartialEq for Timed {
    fn eq(&self, other: &Timed) -> bool {
        self.0 == other.0
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Timed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Timed) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

/// The "simplest design" floor the World's slab-keyed queue is compared
/// with: a plain `BinaryHeap` of boxed events under the hold model (pop
/// the earliest, execute, push one successor) at a fixed number pending.
fn reference_heap(seed: u64, out: &mut Values) {
    for (label, pending, ops) in [
        ("1k", 1_000usize, 2_000_000u64),
        ("100k", 100_000, 1_000_000),
    ] {
        let mut rng = SimRng::derive(seed, pending as u64);
        let mut heap: BinaryHeap<Reverse<Timed>> = (0..pending)
            .map(|_| Reverse(Timed(rng.below(1_000_000), Box::new(Tick(1)))))
            .collect();
        let (sum, ns) = time_ns(|| {
            let mut sum = 0u64;
            for _ in 0..ops {
                let Reverse(Timed(at, mut event)) =
                    heap.pop().expect("the hold model never drains");
                sum += event.exec();
                let next = at + 1 + rng.below(1_000_000);
                heap.push(Reverse(Timed(next, Box::new(Tick(sum & 1)))));
            }
            sum
        });
        black_box(sum);
        out.insert(
            format!("ph-sim.queue.ref_heap_ns_per_op.{label}"),
            ns / ops as f64,
        );
    }
}

/// `Trace::digest()` over the nine no-fault traces, against the time the
/// trials that produced them take (each trial computes its digest once).
fn trace_digest(seed: u64, out: &mut Values) {
    let (mut run_ns, mut digest_ns, mut events) = (0.0, 0.0, 0u64);
    for entry in scenario_statics() {
        let one_run = median_ns(3, || (entry.run)(seed, &mut NoFault, Variant::Buggy));
        let (_, trace) = (entry.run_traced)(seed, &mut NoFault, Variant::Buggy);
        run_ns += one_run;
        digest_ns += median_ns(3, || trace.digest());
        events += trace.len() as u64;
        out.insert(format!("ph-scenarios.run_us.{}", entry.name), one_run / 1e3);
    }
    out.insert(
        "ph-sim.trace.digest_ns_per_event".into(),
        digest_ns / events as f64,
    );
    out.insert("ph-sim.trace.digest_share".into(), digest_ns / run_ns);
}

/// The default cluster, ready at t = 1 s.
fn default_runner(seed: u64) -> Runner {
    Runner::new(
        "phbench-replay",
        seed,
        &ClusterConfig::default(),
        Duration::secs(1),
        Duration::secs(3600),
    )
}

/// `World::metrics_report()` — every trial pays it once.
fn metrics_report(seed: u64, out: &mut Values) {
    let mut runner = default_runner(seed);
    runner.drive(&mut NoFault, Duration::secs(3), Duration::millis(20));
    let ns = median_ns(300, || runner.world.metrics_report());
    out.insert("ph-sim.metrics.report_us".into(), ns / 1e3);
}

const COMMITS: u64 = 2_000;

/// The write path end to end: admin client → apiserver → Raft → MVCC →
/// watch fan-out, one object at a time.
fn commit_path(seed: u64, out: &mut Values) {
    let mut runner = default_runner(seed);
    let (sim_before, events_before) = (runner.world.now().0, runner.world.trace().len());
    let pods: Vec<Object> = (0..COMMITS)
        .map(|i| Object::pod(format!("pod-{i}"), Some("node-1".into()), None))
        .collect();
    let ((), ns) = time_ns(|| pods.iter().for_each(|pod| runner.seed(pod)));
    let commits = COMMITS as f64;
    let sim_ns = (runner.world.now().0 - sim_before) as f64;
    let events = (runner.world.trace().len() - events_before) as f64;
    out.insert("ph-store.commit.host_us".into(), ns / 1e3 / commits);
    out.insert("ph-store.commit.sim_us".into(), sim_ns / 1e3 / commits);
    out.insert("ph-store.commit.events_per_commit".into(), events / commits);
}

const MVCC_KEYS: usize = 20_000;
const MVCC_OPS: usize = 100_000;

/// The MVCC state machine alone: puts and deletes over 20 k keys, then
/// prefix reads of all of them.
fn mvcc(seed: u64, out: &mut Values) {
    let mut rng = SimRng::derive(seed, 0x6d76_6363);
    let key = |i: usize| Key::new(format!("pods/pod-{i}"));
    let put = |i: usize| Op::Put {
        key: key(i),
        value: Value::from(format!("{{\"pod\":{i},\"node\":\"node-{}\"}}", i % 100)),
        lease: None,
        expect: Expect::Any,
    };
    // The last MVCC_KEYS ops put every key, so the reads see all of them.
    let ops: Vec<Op> = (0..MVCC_OPS - MVCC_KEYS)
        .map(|_| {
            let i = rng.below(MVCC_KEYS as u64) as usize;
            if rng.chance(0.2) {
                Op::Delete {
                    key: key(i),
                    expect: Expect::Any,
                }
            } else {
                put(i)
            }
        })
        .chain((0..MVCC_KEYS).map(put))
        .collect();
    let mut store = MvccStore::new();
    let ((), ns) = time_ns(|| {
        for op in &ops {
            let (result, events) = store.apply(op);
            black_box((result.is_ok(), events));
        }
    });
    out.insert("ph-store.mvcc.apply_ns".into(), ns / ops.len() as f64);
    assert_eq!(
        store.len(),
        MVCC_KEYS,
        "every key is live after the last puts"
    );
    let ns = median_ns(20, || store.range("pods/"));
    out.insert(
        "ph-store.mvcc.range_ns_per_kv".into(),
        ns / MVCC_KEYS as f64,
    );
}

/// `Runner::new` on the default cluster: what every short trial pays
/// before its workload starts.
fn cluster_warmup(seed: u64, out: &mut Values) {
    let events = default_runner(seed).world.trace().len();
    let ns = median_ns(100, || default_runner(seed));
    out.insert("ph-cluster.topology.warmup_us".into(), ns / 1e3);
    out.insert("ph-cluster.topology.warmup_events".into(), events as f64);
}

const SLAB_KEYS: usize = 20_000;

/// The watch cache's storage at one shard and at eight: insert, prefix
/// scan and remove over 20 k pod keys.
fn slab(seed: u64, out: &mut Values) {
    let mut order: Vec<usize> = (0..SLAB_KEYS).collect();
    SimRng::derive(seed, 0x736c_6162).shuffle(&mut order);
    let keys: Vec<String> = order.iter().map(|i| format!("pods/pod-{i}")).collect();
    let value = Value::from("{\"pod\":\"x\",\"node\":\"node-1\",\"phase\":\"Running\"}");
    // (insert, range, remove) nanoseconds for one pass over all keys.
    let pass = |shards: usize| {
        let rounds: Vec<[f64; 3]> = (0..5)
            .map(|_| {
                let mut cache = ShardedCache::new(shards);
                let ((), insert) = time_ns(|| {
                    for (i, k) in keys.iter().enumerate() {
                        cache.insert(k, value.clone(), Revision(i as u64 + 1));
                    }
                });
                let (seen, range) = time_ns(|| cache.range_prefix("pods/").count());
                assert_eq!(seen, SLAB_KEYS);
                let ((), remove) = time_ns(|| {
                    for k in &keys {
                        black_box(cache.remove(k));
                    }
                });
                [insert, range, remove]
            })
            .collect();
        [0, 1, 2].map(|op| median(&rounds.iter().map(|r| r[op]).collect::<Vec<_>>()))
    };
    let one = pass(1);
    let eight = pass(8);
    let n = SLAB_KEYS as f64;
    out.insert("ph-cluster.slab.insert_ns".into(), one[0] / n);
    out.insert("ph-cluster.slab.range_prefix_ns_per_obj".into(), one[1] / n);
    out.insert("ph-cluster.slab.remove_ns".into(), one[2] / n);
    out.insert(
        "ph-cluster.slab.shards8_ratio".into(),
        eight.iter().sum::<f64>() / one.iter().sum::<f64>(),
    );
}

/// `Runner::sample_divergence()` on a warmed default cluster: a matrix
/// trial takes ~300 samples.
fn divergence_sample(seed: u64, out: &mut Values) {
    let mut runner = default_runner(seed);
    runner.drive(&mut NoFault, Duration::secs(2), Duration::millis(20));
    const SAMPLES: usize = 10_000;
    let ((), ns) = time_ns(|| (0..SAMPLES).for_each(|_| runner.sample_divergence()));
    out.insert("ph-core.divergence.sample_ns".into(), ns / SAMPLES as f64);
}

/// The static side: model checker (reduced and exhaustive), independence
/// matrices, and the determinism lint over the checkout's sources.
fn lint(root: &std::path::Path, out: &mut Values) -> Result<(), String> {
    let summaries: Vec<_> = scenario_statics()
        .iter()
        .flat_map(|e| (e.summaries)(Variant::Buggy))
        .collect();
    let expanded = |check: fn(&ph_lint::summary::AccessSummary) -> _| {
        summaries
            .iter()
            .map(|s| {
                let report: ph_lint::modelcheck::ModelCheckReport = check(s);
                report.states_expanded as f64
            })
            .sum::<f64>()
    };
    out.insert(
        "ph-lint.modelcheck.states_expanded".into(),
        expanded(model_check),
    );
    out.insert(
        "ph-lint.modelcheck.exhaustive_states_expanded".into(),
        expanded(model_check_exhaustive),
    );
    out.insert(
        "ph-lint.modelcheck.crosscheck_us".into(),
        median_ns(20, static_crosscheck) / 1e3,
    );
    out.insert(
        "ph-lint.modelcheck.exhaustive_us".into(),
        median_ns(20, || {
            summaries
                .iter()
                .map(model_check_exhaustive)
                .collect::<Vec<_>>()
        }) / 1e3,
    );
    out.insert(
        "ph-lint.independence.derive_us".into(),
        median_ns(20, || derive_all(&summaries)) / 1e3,
    );
    let mut files = 0;
    let ns = median_ns(3, || {
        ph_lint::scan_workspace(root).map(|report| files = report.files_scanned)
    });
    if files == 0 {
        return Err(format!("no Rust sources under {}", root.display()));
    }
    out.insert("ph-lint.scan_workspace_ms".into(), ns / 1e6);
    Ok(())
}

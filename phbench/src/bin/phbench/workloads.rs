//! The four workloads. Each is a closed loop with one client: an
//! iteration starts when the previous one has returned.
//!
//! | name | one iteration | stresses |
//! |---|---|---|
//! | `matrix` | the §7 detection matrix `phtool matrix --trials 5` computes | per-trial fixed costs |
//! | `detect-explain` | hunt each bug, then explain and export one trace | retain → slice → export |
//! | `scale-1k` | one 1000-node mega-cluster trial | the event loop and data path |
//! | `scale-5k` | one 5000-node mega-cluster trial | the same, where superlinear costs show |
//!
//! Every call into the program under test goes through a
//! [`Recorder::span`], so the traced pass attributes time from outside.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ph_core::derive_trial_seed;
use ph_core::harness::{Explorer, RunReport};
use ph_core::perturb::{
    CoFiPartitions, CrashTunerCrashes, NoFault, RandomCrashes, Strategy, TrafficSurge,
};
use ph_core::provenance::explain;
use ph_scenarios::mega_cluster::{self, ScaleParams, ScaleProbe};
use ph_scenarios::{scenario_statics, witness_bridge, StaticEntry, Variant};
use ph_sim::{trace_to_chrome, trace_to_jsonl, Duration, Trace};

use crate::expect;
use crate::spans::Recorder;

/// Which workload a worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Matrix,
    DetectExplain,
    Scale1k,
    Scale5k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Matrix,
        Workload::DetectExplain,
        Workload::Scale1k,
        Workload::Scale5k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::DetectExplain => "detect-explain",
            Workload::Scale1k => "scale-1k",
            Workload::Scale5k => "scale-5k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Matrix => {
                "~220 short trials (9 scenarios x 6 strategies x up to 5): per-trial fixed costs \
                 (cluster warm-up, report, digest, harness) do most of the work; memory is irrelevant"
            }
            Workload::DetectExplain => {
                "hunt each bug, then explain and export one trace: the trace layer used as \
                 retain/slice/export, so cheaper append that makes query dearer shows here"
            }
            Workload::Scale1k => {
                "one long 1000-node trial (2.8 M events): event queue, net, Raft, MVCC, watch \
                 fan-out, trace append and digest do all the work; per-trial fixed costs none"
            }
            Workload::Scale5k => {
                "same layers at 5000 nodes (10.5 M events, >1 GiB): 3.8x the events of scale-1k \
                 but ~6x the time, so superlinear costs and retained-trace memory show here"
            }
        }
    }
}

/// The strategies of the detection matrix, in `phtool matrix` column order.
pub const STRATEGIES: [&str; 6] = [
    "guided",
    "random-crash",
    "crashtuner",
    "cofi",
    "traffic-surge",
    "no-fault",
];

/// Trials per matrix cell (`phtool matrix`'s default).
pub const MATRIX_TRIALS: u32 = 5;

/// Trial budget of one witness-guided hunt (`phtool hunt`'s default).
const HUNT_BUDGET: usize = 30;

/// Same constructor parameters as `phtool.rs::make_strategy`.
fn make_strategy(name: &str, guided: fn(u64) -> Box<dyn Strategy>, seed: u64) -> Box<dyn Strategy> {
    match name {
        "guided" => guided(seed),
        "random-crash" => Box::new(RandomCrashes {
            seed,
            count: 3,
            down: Duration::millis(300),
        }),
        "crashtuner" => Box::new(CrashTunerCrashes::new(seed, 0.02, 3, Duration::millis(300))),
        "cofi" => Box::new(CoFiPartitions::new(seed, 0.02, 3, Duration::millis(500))),
        "traffic-surge" => Box::new(TrafficSurge::new(
            0,
            2_000,
            4,
            Duration::millis(1100),
            Some(Duration::millis(3600)),
        )),
        "no-fault" => Box::new(NoFault),
        other => unreachable!("strategy {other:?} is not in STRATEGIES"),
    }
}

/// Tally of correctness checks: `failed / attempted` is what the
/// benchmark reports as failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable account of each failed check.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One matrix cell's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    pub scenario: &'static str,
    pub strategy: &'static str,
    /// 1-based first violating trial, 0 when the budget ran out.
    pub first_violation: u32,
    pub trials_run: u32,
    pub deduped_trials: u32,
}

/// One scenario's leg of the find-and-explain journey.
#[derive(Debug, Clone)]
pub struct Journey {
    pub plan_ns: u64,
    /// Hunt start (model check and witness bridge included) to detection.
    pub detect_ns: u64,
    pub trials_to_detect: u32,
    pub trace_events: u64,
    pub chain_links: u64,
}

/// What an iteration hands back beside its checks.
pub enum Detail {
    Matrix(Vec<MatrixCell>),
    /// The journeys and the retained traces they explained and exported.
    Detect(Vec<Journey>, Vec<Trace>),
    Scale(Box<RunReport>, ScaleProbe),
}

/// The result of one iteration.
pub struct IterOut {
    /// Simulated nanoseconds, summed over every trial of the iteration.
    pub sim_ns: u64,
    /// Trace events, summed over every trial of the iteration.
    pub events: u64,
    /// Deterministic values that must repeat bit-for-bit on every
    /// iteration of the same inputs.
    pub exact: Vec<(&'static str, u64)>,
    pub detail: Detail,
}

/// A workload with its inputs built and its code paths warmed.
///
/// The inputs are a set of trial seeds generated from `--seed` (the first
/// is `--seed` itself). Iterations cycle through them and the reported
/// value is the median: how long a matrix or a hunt takes swings
/// by ±10 % with the seed alone (whether a random strategy happens to hit
/// the 30× dearer `hbase-3136` on trial 1 or never), and one seed per run
/// would make every metric as unsteady as that. The scale trials barely
/// notice their seed (±0.02 % events), so one is enough there.
pub struct Prepared {
    pub workload: Workload,
    pub seeds: Vec<u64>,
    /// Smoke mode: scale points shrink to 100 nodes.
    pub quick: bool,
    entries: Vec<StaticEntry>,
}

thread_local! {
    /// What the hunt's trials added up to — see [`counted_run`].
    static HUNT_TALLY: Cell<HuntTally> = const { Cell::new(HuntTally::EMPTY) };
}

/// `StaticEntry::run`: one trial.
type RunFn = fn(u64, &mut dyn Strategy, Variant) -> RunReport;

#[derive(Clone, Copy)]
struct HuntTally {
    run: Option<RunFn>,
    sim_ns: u64,
    events: u64,
}

impl HuntTally {
    const EMPTY: HuntTally = HuntTally {
        run: None,
        sim_ns: 0,
        events: 0,
    };
}

/// `witness_bridge::first_detection_guided` returns only the trial count;
/// this stand-in for `StaticEntry::run` (a plain `fn` pointer, so the
/// state lives in a thread-local) forwards to the real runner and adds up
/// the simulated time and events of the trials the hunt ran.
fn counted_run(seed: u64, strategy: &mut dyn Strategy, variant: Variant) -> RunReport {
    let mut tally = HUNT_TALLY.get();
    let run = tally
        .run
        .expect("counted_run is only installed with a runner");
    let report = run(seed, strategy, variant);
    tally.sim_ns += report.sim_time.0;
    tally.events += report.trace_events as u64;
    HUNT_TALLY.set(tally);
    report
}

/// Order-insensitive fold of per-trial `(seed, digest)` pairs.
fn mix(seed: u64, digest: u64) -> u64 {
    (seed ^ digest.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Prepared {
    /// Builds the workload's inputs from `seed` and runs its warm-up, so
    /// that lazy set-up is done before the first timed iteration. The
    /// warm-up is a reduced iteration: one trial per matrix cell, one full
    /// journey, or a smoke-sized scale point (a full-size `scale-5k`
    /// warm-up would not fit the contract's time cap).
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Prepared {
        let inputs = match workload {
            _ if quick => 1,
            Workload::Matrix => 8,
            Workload::DetectExplain => 32,
            Workload::Scale1k | Workload::Scale5k => 1,
        };
        let seeds = std::iter::once(seed)
            .chain((1..inputs).map(|i| derive_trial_seed(seed, i)))
            .collect();
        let mut entries = scenario_statics();
        if workload == Workload::Matrix {
            // `phtool matrix` walks its registry, a BTreeMap, in name order.
            entries.sort_by_key(|e| e.name);
        }
        let prepared = Prepared {
            workload,
            seeds,
            quick,
            entries,
        };
        let rec = Recorder::new(false);
        let mut sink = Checks::default();
        match workload {
            Workload::Matrix => drop(prepared.matrix(&rec, seed, None, 1, &mut sink)),
            Workload::DetectExplain => drop(prepared.detect_explain(&rec, seed, &mut sink)),
            Workload::Scale1k | Workload::Scale5k => {
                let smoke = ScaleParams {
                    nodes: 50,
                    pods: 5_000,
                    shards: 1,
                    watchers: 2,
                    churn: Duration::secs(2),
                };
                drop(mega_cluster::run_probed(seed, &smoke));
            }
        }
        prepared
    }

    /// The scale point of a scale workload.
    pub fn scale_params(&self, shards: usize) -> ScaleParams {
        let nodes = match (self.workload, self.quick) {
            (_, true) => 100,
            (Workload::Scale5k, false) => 5_000,
            _ => 1_000,
        };
        ScaleParams::for_nodes(nodes, shards)
    }

    /// `true` when the pinned expectations of `expect.rs` apply.
    fn pinned(&self, seed: u64) -> bool {
        seed == expect::DEFAULT_SEED && !self.quick
    }

    /// One iteration on input `input` (an index into `seeds`), with its
    /// correctness checks.
    pub fn iterate(&self, input: usize, rec: &Recorder, checks: &mut Checks) -> IterOut {
        let seed = self.seeds[input];
        match self.workload {
            Workload::Matrix => self.matrix(rec, seed, None, MATRIX_TRIALS, checks),
            Workload::DetectExplain => self.detect_explain(rec, seed, checks),
            Workload::Scale1k | Workload::Scale5k => self.scale(rec, seed, 1, checks),
        }
    }

    /// The detection matrix `phtool matrix --trials <trials> --seed <seed>`
    /// computes, buggy variants.
    ///
    /// `pool: None` runs each cell through the sequential
    /// `Explorer::explore`; `Some(threads)` through `explore_parallel`, as
    /// `phtool` does. The two are pinned outcome-identical by the repo's
    /// tests, and the timed pass uses the sequential one: the pool's scoped
    /// threads finish exiting after `explore_parallel` returns, so whether
    /// a cell's thread inherits the previous one's malloc arena is a race,
    /// and the peak RSS of one and the same seed read 94–134 MiB run to
    /// run (38.9 ± 0.1 MiB sequentially). What the pool costs on top is
    /// the per-layer `ph-core.parallel.pool_1t_ratio`.
    pub fn matrix(
        &self,
        rec: &Recorder,
        seed: u64,
        pool: Option<usize>,
        trials: u32,
        checks: &mut Checks,
    ) -> IterOut {
        let explorer = Explorer {
            max_trials: trials,
            base_seed: seed,
        };
        let digests = AtomicU64::new(0);
        let mut cells = Vec::with_capacity(self.entries.len() * STRATEGIES.len());
        let (mut sim_ns, mut events) = (0u64, 0u64);
        for entry in &self.entries {
            let (run, guided, scenario) = (entry.run, entry.guided, entry.name);
            for strategy in STRATEGIES {
                let trial = |seed: u64, s: &mut dyn Strategy| {
                    let report = rec.span("ph-scenarios.scenario.run", scenario, || {
                        run(seed, s, Variant::Buggy)
                    });
                    digests.fetch_add(mix(seed, report.trace_digest), Ordering::Relaxed);
                    report
                };
                let factory = |seed: u64| make_strategy(strategy, guided, seed);
                let outcome = match pool {
                    None => rec.span("ph-core.harness.explore", scenario, || {
                        explorer.explore(scenario, &trial, &factory)
                    }),
                    Some(threads) => {
                        rec.span("ph-core.parallel.explore_parallel", scenario, || {
                            explorer.explore_parallel(threads, scenario, &trial, &factory)
                        })
                    }
                };
                sim_ns += outcome.total_sim_ns;
                events += outcome.total_events;
                cells.push(MatrixCell {
                    scenario,
                    strategy,
                    first_violation: outcome.first_violation.unwrap_or(0),
                    trials_run: outcome.trials_run,
                    deduped_trials: outcome.deduped_trials,
                });
            }
        }
        for cell in cells.iter().filter(|c| c.strategy == "guided") {
            checks.check(cell.first_violation > 0, || {
                format!("matrix: guided did not detect {}", cell.scenario)
            });
        }
        if self.pinned(seed) && trials == MATRIX_TRIALS {
            for (cell, want) in cells
                .iter()
                .zip(expect::MATRIX_FIRST_VIOLATION.as_flattened())
            {
                checks.check(cell.first_violation == u32::from(*want), || {
                    format!(
                        "matrix: {} x {} first violation at trial {}, pinned {want}",
                        cell.scenario, cell.strategy, cell.first_violation
                    )
                });
            }
            checks.check(sim_ns == expect::MATRIX_SIM_NS, || {
                format!(
                    "matrix: simulated {sim_ns} ns, pinned {}",
                    expect::MATRIX_SIM_NS
                )
            });
        }
        let sum = |f: fn(&MatrixCell) -> u32| cells.iter().map(|c| u64::from(f(c))).sum::<u64>();
        let table = cells.iter().fold(0u64, |h, c| {
            h.wrapping_mul(31)
                .wrapping_add(u64::from(c.first_violation))
        });
        IterOut {
            sim_ns,
            events,
            exact: vec![
                ("events", events),
                ("sim_ns", sim_ns),
                ("trials_run", sum(|c| c.trials_run)),
                ("deduped_trials", sum(|c| c.deduped_trials)),
                ("cells_detected", sum(|c| u32::from(c.first_violation > 0))),
                ("detection_table", table),
                // On several pool threads, which trials past the first
                // failure still run is a race; fold digests only without.
                (
                    "digests",
                    if pool.is_none() {
                        digests.into_inner()
                    } else {
                        0
                    },
                ),
            ],
            detail: Detail::Matrix(cells),
        }
    }

    /// The find-and-explain journey, once per scenario: witness plan and
    /// guided hunt to first detection; then one guided traced run, its
    /// blame chain, and both streaming exports.
    pub fn detect_explain(&self, rec: &Recorder, seed: u64, checks: &mut Checks) -> IterOut {
        let mut journeys = Vec::with_capacity(self.entries.len());
        let mut traces = Vec::with_capacity(self.entries.len());
        let (mut sim_ns, mut events) = (0u64, 0u64);
        let (mut digests, mut export_bytes) = (0u64, 0u64);
        for entry in &self.entries {
            let scenario = entry.name;
            let counted = StaticEntry {
                run: counted_run,
                name: entry.name,
                pattern: entry.pattern,
                summaries: entry.summaries,
                run_traced: entry.run_traced,
                blame: entry.blame,
                guided: entry.guided,
            };
            HUNT_TALLY.set(HuntTally {
                run: Some(entry.run),
                ..HuntTally::EMPTY
            });
            let hunt_start = std::time::Instant::now();
            let (_, _plan_stats) =
                rec.span("ph-scenarios.witness_bridge.witness_plan", scenario, || {
                    witness_bridge::witness_plan(&counted)
                });
            let plan_ns = hunt_start.elapsed().as_nanos() as u64;
            let detected = rec.span(
                "ph-scenarios.witness_bridge.first_detection_guided",
                scenario,
                || witness_bridge::first_detection_guided(&counted, HUNT_BUDGET, seed),
            );
            let detect_ns = hunt_start.elapsed().as_nanos() as u64;
            let tally = HUNT_TALLY.replace(HuntTally::EMPTY);
            checks.check(detected.is_some(), || {
                format!("detect-explain: no detection of {scenario} in {HUNT_BUDGET} trials")
            });

            let mut strategy = (entry.guided)(seed);
            let (report, trace) =
                rec.span("ph-scenarios.scenario.run_with_trace", scenario, || {
                    (entry.run_traced)(seed, strategy.as_mut(), Variant::Buggy)
                });
            checks.check(report.failed(), || {
                format!("detect-explain: guided run of {scenario} found no violation")
            });
            let chain = rec.span("ph-core.provenance.explain", scenario, || {
                explain(&trace, &(entry.blame)(), &report.violations)
            });
            checks.check(chain.class == entry.pattern, || {
                format!(
                    "detect-explain: {scenario} blamed as {}, static class {}",
                    chain.class, entry.pattern
                )
            });
            let chrome = rec.span("ph-sim.export.trace_to_chrome", scenario, || {
                trace_to_chrome(&trace)
            });
            checks.check(chrome.starts_with("{\"displayTimeUnit\""), || {
                format!("detect-explain: chrome export of {scenario} is malformed")
            });
            let jsonl = rec.span("ph-sim.export.trace_to_jsonl", scenario, || {
                trace_to_jsonl(&trace)
            });
            checks.check(!jsonl.is_empty(), || {
                format!("detect-explain: jsonl export of {scenario} is empty")
            });

            sim_ns += tally.sim_ns + report.sim_time.0;
            events += tally.events + report.trace_events as u64;
            digests = digests.wrapping_add(mix(seed, report.trace_digest));
            export_bytes += (chrome.len() + jsonl.len()) as u64;
            journeys.push(Journey {
                plan_ns,
                detect_ns,
                trials_to_detect: detected.unwrap_or(0),
                trace_events: report.trace_events as u64,
                chain_links: chain.links.len() as u64,
            });
            traces.push(trace);
        }
        if self.pinned(seed) {
            checks.check(sim_ns == expect::DETECT_EXPLAIN_SIM_NS, || {
                format!(
                    "detect-explain: simulated {sim_ns} ns, pinned {}",
                    expect::DETECT_EXPLAIN_SIM_NS
                )
            });
        }
        let sum = |f: fn(&Journey) -> u64| journeys.iter().map(f).sum::<u64>();
        IterOut {
            sim_ns,
            events,
            exact: vec![
                ("events", events),
                ("sim_ns", sim_ns),
                ("trials_to_detect", sum(|j| u64::from(j.trials_to_detect))),
                ("chain_links", sum(|j| j.chain_links)),
                ("export_bytes", export_bytes),
                ("digests", digests),
            ],
            detail: Detail::Detect(journeys, traces),
        }
    }

    /// One mega-cluster trial at this workload's scale point.
    pub fn scale(&self, rec: &Recorder, seed: u64, shards: usize, checks: &mut Checks) -> IterOut {
        let name = self.workload.name();
        let params = self.scale_params(shards);
        let (report, probe) = rec.span("ph-scenarios.mega_cluster.run_probed", "", || {
            mega_cluster::run_probed(seed, &params)
        });
        checks.check(!report.failed(), || {
            format!(
                "{name}: the run reported {} violation(s)",
                report.violations.len()
            )
        });
        let counter = |c: &str| report.metrics.counter_total(c);
        let stats = expect::ScaleStats {
            sim_ns: report.sim_time.0,
            pod_creates: counter("demand.pod_creates"),
            pod_deletes: counter("demand.pod_deletes"),
            watcher_events: counter("watcher.events"),
            cache_objects: probe.cache_objects as u64,
        };
        checks.check(stats.pod_creates > 0 && stats.watcher_events > 0, || {
            format!("{name}: no churn reached the watchers ({stats:?})")
        });
        if self.pinned(seed) {
            let want = match self.workload {
                Workload::Scale5k => expect::SCALE_5K,
                _ => expect::SCALE_1K,
            };
            checks.check(stats == want, || {
                format!("{name}: simulated statistics {stats:?}, pinned {want:?}")
            });
        }
        IterOut {
            sim_ns: stats.sim_ns,
            events: report.trace_events as u64,
            exact: vec![
                ("events", report.trace_events as u64),
                ("sim_ns", stats.sim_ns),
                ("digests", report.trace_digest),
                ("pod_creates", stats.pod_creates),
                ("pod_deletes", stats.pod_deletes),
                ("watcher_events", stats.watcher_events),
                ("cache_objects", stats.cache_objects),
                // Shard-layout-dependent, so only comparable at one layout.
                (
                    "cache_bytes",
                    if shards == 1 {
                        probe.cache_bytes as u64
                    } else {
                        0
                    },
                ),
            ],
            detail: Detail::Scale(Box::new(report), probe),
        }
    }
}

/// Checks that an iteration's exact values equal the first iteration's.
pub fn check_repeats(
    workload: Workload,
    first: &[(&'static str, u64)],
    again: &[(&'static str, u64)],
    checks: &mut Checks,
) {
    for ((name, want), (_, got)) in first.iter().zip(again) {
        checks.check(want == got, || {
            format!(
                "{}: {name} was {want} on the first iteration and {got} on a later one",
                workload.name()
            )
        });
    }
}

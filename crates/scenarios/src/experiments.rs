//! The paper's evaluation as one table of checked experiments.
//!
//! The paper is a position paper: three figures, the §4.1/§4.2 arguments
//! and the §7 detection claims. Here each of them is a deterministic
//! function of fixed seeds, so each is an [`Experiment`] whose `run`
//! returns its table as text — exact counts, no clock. `phtool repro <id>`
//! prints one, `tests/golden/repro/<id>.txt` pins it, and EXPERIMENTS.md
//! quotes the pinned text between `repro` markers a test compares, so a
//! change that moves a paper number has to re-bless a golden.
//!
//! Every `run` also asserts the shape its table is there to show (who
//! wins, where behaviour flips), so a re-bless cannot bless a broken shape.
//!
//! The module also holds the renderings `phtool` shares with the table:
//! the detection-matrix builder ([`detection_matrix`]) and the
//! all-scenario `report` / `explain` / `hunt --witnesses` texts.

use std::fmt::Write as _;

use ph_core::harness::{DetectionMatrix, Explorer};
use ph_core::perturb::NoFault;
use ph_core::provenance::explain;
use ph_lint::modelcheck::{model_check, model_check_exhaustive};

use crate::congestion::at_capacity;
use crate::witness_bridge::{self, first_detection, witness_plan, witness_realizations};
use crate::{
    by_name, cass_398, k8s_56261, k8s_59848, scenario_statics, volume_17, Scenario, StaticEntry,
    Variant, SCENARIOS, STRATEGIES,
};

/// `println!` into an experiment's output.
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

mod stack;

/// One reproduced figure, table or argument of the paper.
pub struct Experiment {
    /// Short id used on the command line, in golden file names and in
    /// EXPERIMENTS.md (`F1`, `T1`, `E8`, …).
    pub id: &'static str,
    /// Where in the paper the claim lives.
    pub paper_ref: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Produces the table. Deterministic: no clock, no environment, the
    /// same bytes at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when the shape the table exists to show no longer holds.
    pub run: fn() -> String,
}

/// Every experiment, in EXPERIMENTS.md order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "F1",
        paper_ref: "Figure 1 / §4.1",
        title: "cache vs quorum read throughput as fan-out grows",
        run: stack::f1_cache_pressure,
    },
    Experiment {
        id: "F2",
        paper_ref: "Figure 2",
        title: "the Kubernetes-59848 walkthrough, reproduced",
        run: f2_59848,
    },
    Experiment {
        id: "F3",
        paper_ref: "Figure 3a/b/c",
        title: "staleness, time travel and observability gaps, quantified",
        run: stack::f3_patterns,
    },
    Experiment {
        id: "T1",
        paper_ref: "§7",
        title: "detection matrix: every bug × every strategy",
        run: t1_detection,
    },
    Experiment {
        id: "T2",
        paper_ref: "§5/§6.1",
        title: "trials to first detection, guided vs heuristics",
        run: t2_guided_vs_random,
    },
    Experiment {
        id: "E1",
        paper_ref: "§4.2.1",
        title: "HBASE-3136 stale-CAS aborts vs the HBASE-3137 sync cost",
        run: stack::e1_hbase_tradeoff,
    },
    Experiment {
        id: "E2",
        paper_ref: "§6.2",
        title: "epoch granularity vs staleness bound vs buffering",
        run: stack::e2_epochs,
    },
    Experiment {
        id: "A1",
        paper_ref: "§4.2.3 / [7]",
        title: "ablation: the rolling watch window vs the recovery path",
        run: stack::a1_window_ablation,
    },
    Experiment {
        id: "E3",
        paper_ref: "§4.2",
        title: "divergence dashboard: every bug with its measured view lag",
        run: e3_report,
    },
    Experiment {
        id: "E6",
        paper_ref: "§7",
        title: "witness-guided hunts: trials to first detection",
        run: e6_witness_hunts,
    },
    Experiment {
        id: "E7",
        paper_ref: "§4.2",
        title: "blame chains: dynamic class vs static witness class",
        run: e7_blame_chains,
    },
    Experiment {
        id: "E8",
        paper_ref: "§4.1 → §4.2",
        title: "load-emergent staleness: lag vs offered load, zero faults",
        run: e8_congestion,
    },
    Experiment {
        id: "E9",
        paper_ref: "§7",
        title: "partial-order reduction and canonical-schedule dedup",
        run: e9_reduction,
    },
];

/// The experiment called `id` (case-insensitive).
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// The §7 detection matrix: every `scenarios` × `strategies` cell of buggy
/// variants explored under `explorer`, cells in row-major order. Identical
/// at any `threads`.
pub fn detection_matrix(
    scenarios: &[&Scenario],
    strategies: &[&str],
    explorer: Explorer,
    threads: usize,
) -> DetectionMatrix {
    let mut matrix = DetectionMatrix::new();
    for scenario in scenarios {
        for strategy in strategies {
            let mut outcome = explorer.explore_parallel(
                threads,
                scenario.name,
                &|seed, s| scenario.run(seed, s, Variant::Buggy),
                &|seed| scenario.strategy(strategy, seed),
            );
            // A tuned injector names itself after what it does to its
            // scenario; the matrix column is the uniform label.
            if *strategy == "guided" {
                outcome.strategy = "guided".into();
            }
            matrix.add(outcome);
        }
    }
    matrix
}

/// `phtool report`: runs each of `selected` once and renders verdicts,
/// effort and divergence side by side, then the static witnesses. Also
/// says whether any run was violated.
pub fn report(
    selected: &[&'static Scenario],
    strategy_name: &str,
    variant: Variant,
    seed: u64,
    threads: usize,
) -> (String, bool) {
    // One job per scenario through the pool; results come back in
    // scenario order, so the dashboard is identical at any thread count.
    let reports = ph_core::run_indexed(threads, selected.len(), |i| {
        let mut strategy = selected[i].strategy(strategy_name, seed);
        selected[i].run(seed, strategy.as_mut(), variant)
    });

    let mut out = String::new();
    say!(
        out,
        "phtool report  (strategy {strategy_name}, variant {variant}, seed {seed})"
    );
    say!(out);
    let wide = selected
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(8)
        .max("scenario".len());
    say!(
        out,
        "{:<wide$}  {:>8}  {:>8}  {:>9}  {:>7}  {:>8}  {:>6}  {:>12}  {:>8}  {:>8}  {:>17}",
        "scenario",
        "verdict",
        "events",
        "sim-time",
        "max-lag",
        "mean-lag",
        "gap%",
        "p95-stale-ms",
        "objects",
        "peak-win",
        "blame"
    );
    for r in &reports {
        let gap = r
            .divergence
            .iter()
            .map(|(_, v)| v.gap_fraction())
            .fold(0.0f64, f64::max);
        // Worst observed cache-read staleness (p95) across components.
        let p95_stale_ns = r
            .metrics
            .iter()
            .filter(|(_, name, _)| *name == "apiserver.read_staleness_ns")
            .filter_map(|(c, n, _)| r.metrics.histogram(c, n))
            .map(|h| h.quantile(0.95))
            .max()
            .unwrap_or(0);
        // Scale telemetry (live objects / window high-water marks) only
        // exists for runs with `api_scale_telemetry` on (e.g. `phtool
        // scale`); the legacy scenarios keep their exports untouched.
        let scale_gauge = |name: &str| {
            r.metrics
                .gauge_max(name)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        };
        say!(
            out,
            "{:<wide$}  {:>8}  {:>8}  {:>8.2}s  {:>7}  {:>8.2}  {:>5.1}%  {:>12.1}  {:>8}  {:>8}  {:>17}",
            r.scenario,
            if r.failed() { "VIOLATED" } else { "clean" },
            r.trace_events,
            r.sim_time.0 as f64 / 1e9,
            r.divergence.max_lag(),
            r.divergence.mean_lag(),
            gap * 100.0,
            p95_stale_ns as f64 / 1e6,
            scale_gauge("apiserver.objects"),
            scale_gauge("apiserver.window_peak"),
            match &r.blame {
                Some(b) => b.class.as_str(),
                None => "-",
            },
        );
    }
    for r in &reports {
        if r.divergence.is_empty() {
            continue;
        }
        say!(out, "\n-- {} divergence --", r.scenario);
        out.push_str(&r.divergence.render());
    }
    let table = crate::static_crosscheck();
    say!(
        out,
        "\n-- static witnesses (model checker, buggy variants) --"
    );
    for row in table
        .rows
        .iter()
        .filter(|r| selected.iter().any(|s| s.name == r.scenario))
    {
        for w in row.buggy_witnesses() {
            say!(out, "{}  {}", row.scenario, w.render());
        }
    }
    (out, reports.iter().any(|r| r.failed()))
}

/// `phtool explain`: runs each of `selected` and renders its violation's
/// blame chain (one JSON object per line under `json`), cross-checked
/// against the scenario's static witness class. Also counts the
/// disagreements: a dynamic class other than the static one, or a buggy
/// run with no violation to explain.
pub fn explain_chains(
    selected: &[&'static Scenario],
    strategy_name: &str,
    variant: Variant,
    seed: u64,
    threads: usize,
    json: bool,
) -> (String, usize) {
    // One run per scenario through the deterministic pool: output bytes are
    // identical at any thread count.
    let chains = ph_core::run_indexed(threads, selected.len(), |i| {
        let scenario = selected[i];
        let mut strategy = scenario.strategy(strategy_name, seed);
        let (report, trace) = scenario.run_traced(seed, strategy.as_mut(), variant);
        let chain = explain(&trace, &scenario.blame, &report.violations);
        (report.failed(), chain)
    });

    let mut out = String::new();
    let mut disagreements = 0usize;
    for (scenario, (failed, chain)) in selected.iter().zip(&chains) {
        let expected = scenario.pattern;
        if json {
            say!(out, "{}", chain.to_json());
        } else {
            out.push_str(&chain.render());
        }
        if !*failed {
            if variant == Variant::Buggy {
                disagreements += 1;
                if !json {
                    say!(
                        out,
                        "  DISAGREEMENT: statically predicted {expected} but the run produced \
                         no violation to explain"
                    );
                }
            }
            continue;
        }
        if chain.class != expected {
            disagreements += 1;
            if !json {
                say!(
                    out,
                    "  DISAGREEMENT: dynamic class {} vs static witness class {expected}",
                    chain.class
                );
            }
        } else if !json {
            say!(out, "  static cross-check: agrees ({expected})");
        }
        if !json {
            say!(out);
        }
    }
    if disagreements > 0 && !json {
        say!(out, "{disagreements} dynamic/static disagreement(s)");
    }
    (out, disagreements)
}

/// `phtool hunt --witnesses`: tries the model checker's compiled witness
/// priors first, then falls back to the unguided strategy cycle. Works for
/// every scenario (no causal trace needed — the priors come from the IR).
/// Also hands back the 1-based trial of the first detection, if any.
pub fn witness_hunt(scenario: &Scenario, budget: usize, base_seed: u64) -> (String, Option<u32>) {
    let entry = scenario_statics()
        .into_iter()
        .find(|e| e.name == scenario.name)
        .expect("every scenario has a static entry");
    let (priors, stats) = witness_plan(&entry);
    let mut out = String::new();
    say!(
        out,
        "witness-guided hunt for {} ({} prior(s) compiled from model-check witnesses)",
        entry.name,
        priors.len()
    );
    for (i, p) in priors.iter().enumerate() {
        say!(out, "  prior {}: {}", i + 1, p.name());
    }
    say!(
        out,
        "canonical schedule dedup: distinct_classes={} deduped_trials={}",
        stats.distinct_classes,
        stats.deduped_trials
    );
    let found = witness_bridge::first_detection_guided(&entry, budget, base_seed);
    match found {
        Some(t) => say!(
            out,
            "first detection at trial {t} of {budget} (priors lead the schedule)"
        ),
        None => say!(out, "no detection within {budget} trials"),
    }
    (out, found)
}

fn f2_59848() -> String {
    let scenario = &k8s_59848::SCENARIO;
    let mut out = String::new();
    say!(out, "=== F2 (Figure 2): Kubernetes-59848 reproduction ===");
    let report = scenario.run(1, (scenario.guided)(1).as_mut(), Variant::Buggy);
    assert!(report.failed(), "the reproduction must fire");
    for v in &report.violations {
        say!(out, "  violation: {v}");
    }
    say!(
        out,
        "  detected at sim time of the duplicate start; run covered {} trace \
         events in {} of simulated time",
        report.trace_events,
        report.sim_time
    );
    let fixed = scenario.run(1, (scenario.guided)(1).as_mut(), Variant::Fixed);
    say!(
        out,
        "  fixed kubelet under identical injection: {} violations",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
    out
}

/// Trial budget per T1 cell.
const T1_TRIALS: u32 = 5;

fn t1_detection() -> String {
    let mut out = String::new();
    say!(
        out,
        "=== T1 (§7 results): detection matrix, budget {T1_TRIALS} trials/cell ===\n"
    );
    let explorer = Explorer {
        max_trials: T1_TRIALS,
        base_seed: 1000,
    };
    let matrix = detection_matrix(SCENARIOS, STRATEGIES, explorer, ph_core::default_threads());
    say!(out, "{}", matrix.render());
    let guided = || matrix.cells().iter().filter(|c| c.strategy == "guided");
    let all = SCENARIOS.len();
    say!(
        out,
        "guided: {}/{all} detected (expected {all}/{all} on trial 1)",
        guided().filter(|c| c.detected()).count()
    );
    for cell in guided() {
        assert_eq!(
            cell.first_violation,
            Some(1),
            "{}: guided must detect on trial 1",
            cell.scenario
        );
    }
    out
}

/// Trial budget per T2 cell.
const T2_TRIALS: u32 = 12;

fn t2_guided_vs_random() -> String {
    let scenarios = [
        &k8s_59848::SCENARIO,
        &k8s_56261::SCENARIO,
        &volume_17::SCENARIO,
        &cass_398::SCENARIO,
    ];
    let strategies = ["guided", "random-crash", "crashtuner", "cofi"];
    let mut out = String::new();
    say!(
        out,
        "=== T2 (§5/§6.1): trials to first detection (budget {T2_TRIALS}) ===\n"
    );
    say!(
        out,
        "{:<16} {:>8} {:>14} {:>12} {:>8}",
        "scenario",
        "guided",
        "random-crash",
        "crashtuner",
        "cofi"
    );
    let explorer = Explorer {
        max_trials: T2_TRIALS,
        base_seed: 2000,
    };
    let matrix = detection_matrix(
        &scenarios,
        &strategies,
        explorer,
        ph_core::default_threads(),
    );
    let fmt = |n: Option<u32>| match n {
        Some(n) => n.to_string(),
        None => "✗".to_string(),
    };
    for row in matrix.cells().chunks(strategies.len()) {
        let name = &row[0].scenario;
        say!(
            out,
            "{:<16} {:>8} {:>14} {:>12} {:>8}",
            name,
            fmt(row[0].first_violation),
            fmt(row[1].first_violation),
            fmt(row[2].first_violation),
            fmt(row[3].first_violation)
        );
        assert_eq!(
            row[0].first_violation,
            Some(1),
            "{name}: guided must detect on trial 1"
        );
    }
    say!(
        out,
        "\n(✗ = not detected within budget — the paper's 'rarely trigger')"
    );
    out
}

fn e3_report() -> String {
    let (text, violated) = report(
        &by_name(),
        "guided",
        Variant::Buggy,
        1,
        ph_core::default_threads(),
    );
    assert!(violated, "guided runs of the buggy variants must violate");
    text
}

fn e6_witness_hunts() -> String {
    let mut out = String::new();
    for scenario in by_name() {
        let (text, found) = witness_hunt(scenario, 30, 1);
        assert!(
            found.is_some(),
            "{}: witness priors must find the bug",
            scenario.name
        );
        out.push_str(&text);
    }
    out
}

fn e7_blame_chains() -> String {
    let (text, disagreements) = explain_chains(
        &by_name(),
        "guided",
        Variant::Buggy,
        1,
        ph_core::default_threads(),
        false,
    );
    assert_eq!(
        disagreements, 0,
        "every dynamic blame class must equal its static witness class"
    );
    text
}

fn e8_congestion() -> String {
    // The sweep: the scenario at each static feed capacity (bytes per
    // second), ample first, scarcest last.
    let sweep: [(u64, Scenario); 7] = [
        (256_000, at_capacity::<256_000>()),
        (64_000, at_capacity::<64_000>()),
        (16_000, at_capacity::<16_000>()),
        (8_000, at_capacity::<8_000>()),
        (4_000, at_capacity::<4_000>()),
        (2_000, at_capacity::<2_000>()),
        (1_000, at_capacity::<1_000>()),
    ];
    let mut out = String::new();
    say!(
        out,
        "-- E8: lag vs offered load (buggy variant, NoFault, seed 1) --\n"
    );
    say!(
        out,
        "{:<16} {:>9} {:>14} {:>13} {:>12}  verdict",
        "capacity (B/s)",
        "drops",
        "p95 wait",
        "sched lag max",
        "gap frac"
    );
    let mut verdicts = Vec::new();
    for (capacity, scenario) in &sweep {
        let report = scenario.run(1, &mut NoFault, Variant::Buggy);
        let drops = report.metrics.counter_total("net.queue_dropped");
        let p95 = report
            .metrics
            .histogram("apiserver-1", "net.queue_wait_ns")
            .map(|h| h.quantile(0.95))
            .unwrap_or(0);
        let sched = report.divergence.view("scheduler");
        let (lag_max, gap) = sched.map_or((0, 0.0), |v| (v.max, v.gap_fraction()));
        say!(
            out,
            "{capacity:<16} {drops:>9} {:>12}us {lag_max:>13} {:>11.0}%  {}",
            p95 / 1_000,
            gap * 100.0,
            if report.failed() { "VIOLATED" } else { "clean" }
        );
        verdicts.push(report.failed());
    }
    say!(
        out,
        "\n(shape check: ample capacity keeps the queue empty and the run\n\
         clean; as bandwidth falls, tail-drops and waits appear first —\n\
         still clean, the watch machinery heals in time — and only once\n\
         the relist itself crawls does the heal asymmetry open the ghost\n\
         window and the oracle fire. No strategy involved at any point.)"
    );
    assert!(!verdicts[0], "ample capacity must stay clean");
    assert!(
        verdicts[verdicts.len() - 1],
        "the scarcest capacity must wedge the buggy scheduler"
    );
    out
}

fn e9_reduction() -> String {
    let mut out = String::new();
    say!(
        out,
        "-- E9a: model-checker states expanded, exhaustive vs reduced (buggy components) --\n"
    );
    say!(
        out,
        "{:<16} {:<20} {:>11} {:>9} {:>7}",
        "scenario",
        "component",
        "exhaustive",
        "reduced",
        "ratio"
    );
    for scenario in SCENARIOS {
        for summary in scenario.summaries(Variant::Buggy) {
            let full = model_check_exhaustive(&summary).states_expanded;
            let reduced = model_check(&summary).states_expanded;
            say!(
                out,
                "{:<16} {:<20} {:>11} {:>9} {:>6.1}x",
                scenario.name,
                summary.component,
                full,
                reduced,
                full as f64 / reduced.max(1) as f64,
            );
            assert!(
                reduced <= full,
                "{}/{}: reduction expanded more states",
                scenario.name,
                summary.component
            );
        }
    }

    say!(
        out,
        "\n-- E9b: witness-guided hunt, canonical dedup off vs on --\n"
    );
    say!(
        out,
        "{:<16} {:>6} {:>6} {:>8} {:>11} {:>11}",
        "scenario",
        "raw",
        "kept",
        "deduped",
        "detect-raw",
        "detect-dd"
    );
    // One hunt over exactly the given strategies, in order.
    let hunt = |entry: &StaticEntry, priors: Vec<Box<dyn ph_core::perturb::Strategy>>| {
        let budget = priors.len().max(1);
        let mut it = priors.into_iter();
        first_detection(entry, budget, 0xE9, move |_trial, _seed| {
            it.next().expect("budget equals prior count")
        })
    };
    for entry in scenario_statics() {
        let raw = witness_realizations(&entry);
        if raw.is_empty() {
            continue;
        }
        let (kept, stats) = witness_plan(&entry);
        let (raw_trials, kept_trials) = (raw.len(), kept.len());
        let detect_raw = hunt(&entry, raw);
        let detect_deduped = hunt(&entry, kept);
        // Dedup may only drop duplicate classes: if the full list detects,
        // the representatives must too.
        assert_eq!(
            detect_raw.is_some(),
            detect_deduped.is_some(),
            "{}: canonical dedup changed detection",
            entry.name
        );
        let fmt = |d: Option<u32>| d.map_or("none".to_string(), |t| t.to_string());
        say!(
            out,
            "{:<16} {:>6} {:>6} {:>8} {:>11} {:>11}",
            entry.name,
            raw_trials,
            kept_trials,
            stats.deduped_trials,
            fmt(detect_raw),
            fmt(detect_deduped),
        );
    }
    out
}

//! One worker = one workload in one fresh process, in one of two passes:
//!
//! * the **timed pass** (`--trace 0`) measures the end-to-end metrics with
//!   the span recorder off;
//! * the **traced pass** (`--trace 1`) runs the layer replays, then
//!   iterations with spans on (paired with untraced ones, so the tracing
//!   overhead is itself a number), and derives the per-layer metrics.
//!
//! Everything is single-threaded (`threads = 1`), so the numbers measure
//! the program and not a two-core scheduler; the one exception is the
//! informational `ph-core.parallel.speedup_2t`.

use std::path::Path;
use std::time::Instant;

use crate::metrics::{kind_index, per_layer, Row, END_TO_END, KINDS};
use crate::procfs;
use crate::replays::{self, Values};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{
    check_repeats, Checks, Detail, IterOut, Journey, MatrixCell, Prepared, Workload, MATRIX_TRIALS,
};

/// How often a worker sets up, so that `setup_s` is a median.
const SETUPS: usize = 3;

/// What a pass hands back.
pub struct PassResult {
    pub rows: Vec<Row>,
    pub checks: Checks,
    /// Spans of the traced pass (empty for the timed pass).
    pub spans: Vec<Span>,
}

/// Sets up [`SETUPS`] times; returns the last set-up and each one's
/// seconds. The first is cold (it pages the binary in), the rest are warm.
fn set_up(
    workload: Workload,
    seed: u64,
    quick: bool,
    first_start: Instant,
) -> (Prepared, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut start = first_start;
    loop {
        let prepared = Prepared::new(workload, seed, quick);
        seconds.push(start.elapsed().as_secs_f64());
        if seconds.len() == SETUPS {
            return (prepared, seconds);
        }
        drop(prepared);
        start = Instant::now();
    }
}

fn row(workload: Workload, metric: &str, unit: &str, summary: Summary, exact: bool) -> Row {
    Row {
        workload: workload.name().to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        summary,
        exact,
    }
}

/// One iteration on input `input` with its wall seconds. The iteration's
/// output is dropped after the clock is read: freeing retained traces is
/// not the workload.
fn timed_iteration(
    prepared: &Prepared,
    input: usize,
    rec: &Recorder,
    checks: &mut Checks,
) -> (IterOut, f64) {
    let start = Instant::now();
    let out = prepared.iterate(input, rec, checks);
    let wall = start.elapsed().as_secs_f64();
    (out, wall)
}

/// The timed pass, spans off: iterations back to back, cycling through the
/// inputs, for one whole lap and then until `seconds` have elapsed.
/// `wall_s` and `sim_s_per_wall_s` are medians over every iteration;
/// `cpu_s` is the median over the inputs of each input's median CPU
/// seconds (`/proc` counts CPU time in 10 ms ticks, so a 0.35 s iteration
/// reads ±3 % on its own).
pub fn timed_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    process_start: Instant,
) -> Result<PassResult, String> {
    let (prepared, setups) = set_up(workload, seed, quick, process_start);
    let inputs = prepared.seeds.len();
    let rec = Recorder::new(false);
    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut speeds = Vec::new();
    let mut cpu_by_input: Vec<Vec<f64>> = vec![Vec::new(); inputs];
    let mut first_lap: Vec<Vec<(&'static str, u64)>> = Vec::with_capacity(inputs);
    let loop_start = Instant::now();
    while walls.len() < inputs || loop_start.elapsed().as_secs_f64() < seconds {
        let input = walls.len() % inputs;
        let cpu_before = procfs::cpu_seconds()?;
        let (out, wall) = timed_iteration(&prepared, input, &rec, &mut checks);
        cpu_by_input[input].push(procfs::cpu_seconds()? - cpu_before);
        walls.push(wall);
        speeds.push(out.sim_ns as f64 / 1e9 / wall);
        match first_lap.get(input) {
            None => first_lap.push(out.exact),
            Some(first) => check_repeats(workload, first, &out.exact, &mut checks),
        }
    }
    let cpu: Vec<f64> = cpu_by_input.iter().map(|samples| median(samples)).collect();
    let measured = [
        ("wall_s", summarize(&walls)),
        ("cpu_s", summarize(&cpu)),
        ("sim_s_per_wall_s", summarize(&speeds)),
        ("peak_rss_mb", Summary::single(procfs::peak_rss_mib()?)),
        ("setup_s", summarize(&setups)),
    ];
    let rows = END_TO_END
        .iter()
        .zip(measured)
        .map(|(m, (name, summary))| {
            assert_eq!(m.name, name, "measured in catalogue order");
            row(workload, m.name, m.unit, summary, false)
        })
        .collect();
    Ok(PassResult {
        rows,
        checks,
        spans: Vec::new(),
    })
}

/// Untraced/traced iteration pairs of the traced pass: enough of the
/// short workloads that the overhead ratio is not one noisy sample.
fn traced_pairs(workload: Workload) -> u32 {
    match workload {
        Workload::DetectExplain => 5,
        Workload::Matrix | Workload::Scale1k | Workload::Scale5k => 1,
    }
}

/// The traced pass: replays first (on a fresh heap, so they read the same
/// whichever workload follows), then paired iterations on the first input
/// (`--seed` itself, so the exact counts depend on nothing else), then the
/// per-layer metrics. Every catalogue metric gets a row; a layer this
/// workload does not exercise reports 0.
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    quick: bool,
    root: &Path,
) -> Result<PassResult, String> {
    let mut values = Values::new();
    replays::all(seed, root, &mut values)?;

    let prepared = Prepared::new(workload, seed, quick);
    let off = Recorder::new(false);
    let rec = Recorder::new(true);
    let mut checks = Checks::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first_exact: Option<Vec<(&'static str, u64)>> = None;
    let mut detect_s = Vec::new();
    let mut plan_us = Vec::new();
    let mut last = None;
    // The first iteration on a cold heap pays page faults the second does
    // not (15 s against 12.4 s on `scale-5k`); keep that out of the pairs.
    drop(prepared.iterate(0, &off, &mut checks));
    let pairs = traced_pairs(workload);
    for pair in 0..pairs {
        for traced in [false, true] {
            rec.set_iteration(pair);
            let (out, wall) =
                timed_iteration(&prepared, 0, if traced { &rec } else { &off }, &mut checks);
            if traced {
                traced_walls.push(wall);
            } else {
                plain_walls.push(wall);
            }
            match &first_exact {
                None => first_exact = Some(out.exact.clone()),
                Some(first) => check_repeats(workload, first, &out.exact, &mut checks),
            }
            if let Detail::Detect(journeys, _) = &out.detail {
                detect_s.push(journeys.iter().map(|j| j.detect_ns).sum::<u64>() as f64 / 1e9);
                plan_us.push(journeys.iter().map(|j| j.plan_ns).sum::<u64>() as f64 / 1e3);
            }
            // Keep only the final output: holding an iteration's retained
            // traces across the next one would make that one pay for fresh
            // memory, and only ever the untraced half of a pair.
            if traced && pair + 1 == pairs {
                last = Some(out);
            }
        }
    }
    let last = last.expect("the last pair's traced iteration ran");
    let spans = rec.spans();
    let self_ns = spans::self_times_ns(&spans);
    let iterations = f64::from(pairs);
    let plain_wall = median(&plain_walls);
    let events = last.events as f64;

    let mut put = |pairs: &[(&str, f64)]| {
        values.extend(pairs.iter().map(|(name, v)| (name.to_string(), *v)));
    };
    put(&[
        ("ph-sim.world.events", events),
        ("ph-sim.world.ns_per_event", plain_wall * 1e9 / events),
        (
            "phbench.trace_overhead_frac",
            median(&traced_walls) / plain_wall - 1.0,
        ),
    ]);

    match &last.detail {
        Detail::Matrix(cells) => {
            let cell_self_us: Vec<f64> = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == "ph-core.harness.explore")
                .map(|(_, own)| *own as f64 / 1e3)
                .collect();
            let trial_ns = spans::total_ns(&spans, "ph-scenarios.scenario.run");
            let sum =
                |f: fn(&MatrixCell) -> u32| cells.iter().map(|c| f64::from(f(c))).sum::<f64>();
            let trials = sum(|c| c.trials_run);
            let detected = sum(|c| u32::from(c.first_violation > 0));
            // Informational: the same matrix through the worker pool, as
            // `phtool matrix --threads 1` and `--threads 2` run it.
            let pooled = |threads: usize| {
                let start = Instant::now();
                let mut sink = Checks::default();
                drop(prepared.matrix(&off, seed, Some(threads), MATRIX_TRIALS, &mut sink));
                start.elapsed().as_secs_f64()
            };
            put(&[
                ("ph-core.harness.cell_self_us", median(&cell_self_us)),
                (
                    "ph-core.harness.trial_share",
                    trial_ns as f64 / 1e9 / traced_walls.iter().sum::<f64>(),
                ),
                ("ph-scenarios.matrix.trials_run", trials),
                (
                    "ph-scenarios.matrix.deduped_trials",
                    sum(|c| c.deduped_trials),
                ),
                ("ph-scenarios.matrix.cells_detected", detected),
                (
                    "ph-scenarios.matrix.detections_per_trial",
                    detected / trials,
                ),
                ("ph-core.parallel.pool_1t_ratio", pooled(1) / plain_wall),
                ("ph-core.parallel.speedup_2t", plain_wall / pooled(2)),
            ]);
        }
        Detail::Detect(journeys, traces) => {
            let mut census = [0u64; KINDS.len()];
            for event in traces.iter().flat_map(|t| t.events()) {
                census[kind_index(&event.kind)] += 1;
            }
            for (kind, count) in KINDS.iter().zip(census) {
                put(&[(&format!("ph-sim.trace.kind.{kind}"), count as f64)]);
            }
            let sum = |f: fn(&Journey) -> u64| journeys.iter().map(f).sum::<u64>() as f64;
            let retained = sum(|j| j.trace_events) * iterations;
            let per_event = |name: &str| spans::total_ns(&spans, name) as f64 / retained;
            put(&[
                (
                    "ph-sim.export.chrome_ns_per_event",
                    per_event("ph-sim.export.trace_to_chrome"),
                ),
                (
                    "ph-sim.export.jsonl_ns_per_event",
                    per_event("ph-sim.export.trace_to_jsonl"),
                ),
                // µs per 1000 events is ns per event.
                (
                    "ph-core.provenance.explain_us_per_kevent",
                    per_event("ph-core.provenance.explain"),
                ),
                ("ph-core.provenance.chain_links", sum(|j| j.chain_links)),
                (
                    "ph-scenarios.witness_bridge.trials_to_detect",
                    sum(|j| u64::from(j.trials_to_detect)),
                ),
                ("ph-scenarios.witness_bridge.plan_us", median(&plan_us)),
                ("ph-scenarios.witness_bridge.detect_s", median(&detect_s)),
            ]);
        }
        Detail::Scale(report, probe) => {
            let counter = |name: &str| report.metrics.counter_total(name) as f64;
            let commits = report.metrics.gauge_max("apiserver.cache_revision");
            put(&[
                (
                    "ph-cluster.apiserver.cache_bytes_per_object",
                    (probe.cache_bytes / probe.cache_objects.max(1)) as f64,
                ),
                (
                    "ph-cluster.apiserver.watch_delivered",
                    counter("apiserver.watch_delivered"),
                ),
                (
                    "ph-cluster.apiserver.window_evicted",
                    counter("apiserver.window_evicted"),
                ),
                ("ph-cluster.informer.relists", counter("informer.relist")),
                (
                    "ph-cluster.informer.watch_events",
                    counter("informer.watch_events"),
                ),
                ("ph-cluster.apiclient.retries", counter("apiclient.retries")),
                (
                    "ph-scenarios.mega_cluster.commits",
                    commits.unwrap_or(0) as f64,
                ),
                (
                    "ph-scenarios.mega_cluster.watcher_events",
                    counter("watcher.events"),
                ),
                // Only the scale workloads' memory is the retained trace;
                // the others peak in the replays.
                (
                    "ph-sim.trace.rss_bytes_per_event",
                    procfs::peak_rss_mib()? * 1024.0 * 1024.0 / events,
                ),
            ]);
            if workload == Workload::Scale1k {
                // The ROADMAP's "prove or delete ShardedCache" question.
                let start = Instant::now();
                let sharded = prepared.scale(&off, seed, 8, &mut checks);
                put(&[(
                    "ph-cluster.apiserver.shards8_wall_ratio",
                    start.elapsed().as_secs_f64() / plain_wall,
                )]);
                checks.check(sharded.exact[..3] == last.exact[..3], || {
                    "scale-1k: eight shards changed the run's events, time or digest".to_string()
                });
            }
        }
    }
    drop(last);

    let rows = per_layer()
        .iter()
        .map(|m| {
            let value = values.remove(&m.name).unwrap_or(0.0);
            row(workload, &m.name, m.unit, Summary::single(value), m.exact)
        })
        .collect();
    assert!(
        values.is_empty(),
        "metrics outside the catalogue: {:?}",
        values.keys()
    );
    Ok(PassResult {
        rows,
        checks,
        spans,
    })
}

//! **E9 — partial-order reduction and canonical-schedule dedup**: what the
//! static independence relation buys at both ends of the pipeline.
//!
//! Two tables, one JSON artifact:
//!
//! * **Model checker** — `states_expanded` under exhaustive vs
//!   sleep-set-reduced expansion for every buggy focal component, with the
//!   reduction ratio (verdicts and witnesses are equal by the
//!   `reduction_equivalence` test; this bench records the work saved).
//! * **Hunt** — witness-guided trials to first detection with canonical
//!   dedup off (every realization runs) vs on (one representative per
//!   [`ph_core::plan_class`]), plus wall-clock per hunt. Detection must
//!   not change; only the trial budget spent may shrink.
//!
//! Writes `BENCH_PR8.json` (path override: `PH_BENCH_E9_OUT`).
//!
//! Run with `cargo bench -p ph-bench --bench e9_reduction`.

use std::fmt::Write as _;
use std::time::Instant;

use ph_bench::{criterion_group, criterion_main, Criterion};
use ph_lint::modelcheck::{model_check, model_check_exhaustive};
use ph_scenarios::witness_bridge::{first_detection, witness_plan, witness_realizations};
use ph_scenarios::{scenario_statics, Variant};

struct CheckRow {
    scenario: &'static str,
    component: String,
    exhaustive: usize,
    reduced: usize,
}

struct HuntRow {
    scenario: &'static str,
    raw_trials: usize,
    kept_trials: usize,
    deduped: u32,
    detect_raw: Option<u32>,
    detect_deduped: Option<u32>,
    secs_raw: f64,
    secs_deduped: f64,
}

fn ratio(exhaustive: usize, reduced: usize) -> f64 {
    exhaustive as f64 / reduced.max(1) as f64
}

fn sweep_model_check() -> Vec<CheckRow> {
    let mut rows = Vec::new();
    println!(
        "-- E9a: model-checker states expanded, exhaustive vs reduced (buggy components) --\n"
    );
    println!(
        "{:<16} {:<20} {:>11} {:>9} {:>7}",
        "scenario", "component", "exhaustive", "reduced", "ratio"
    );
    for entry in scenario_statics() {
        for summary in (entry.summaries)(Variant::Buggy) {
            let full = model_check_exhaustive(&summary);
            let reduced = model_check(&summary);
            println!(
                "{:<16} {:<20} {:>11} {:>9} {:>6.1}x",
                entry.name,
                summary.component,
                full.states_expanded,
                reduced.states_expanded,
                ratio(full.states_expanded, reduced.states_expanded),
            );
            rows.push(CheckRow {
                scenario: entry.name,
                component: summary.component.clone(),
                exhaustive: full.states_expanded,
                reduced: reduced.states_expanded,
            });
        }
    }
    println!();
    rows
}

fn run_hunt(
    entry: &ph_scenarios::StaticEntry,
    mut priors: Vec<Box<dyn ph_core::perturb::Strategy>>,
) -> (Option<u32>, f64) {
    let budget = priors.len().max(1);
    let mut it = priors.drain(..);
    let t = Instant::now();
    let found = first_detection(entry, budget, 0xE9, move |_trial, _seed| {
        it.next().expect("budget equals prior count")
    });
    (found, t.elapsed().as_secs_f64())
}

fn sweep_hunts() -> Vec<HuntRow> {
    let mut rows = Vec::new();
    println!("-- E9b: witness-guided hunt, canonical dedup off vs on --\n");
    println!(
        "{:<16} {:>6} {:>6} {:>8} {:>11} {:>11} {:>9} {:>9}",
        "scenario", "raw", "kept", "deduped", "detect-raw", "detect-dd", "raw-sec", "dd-sec"
    );
    for entry in scenario_statics() {
        let raw = witness_realizations(&entry);
        if raw.is_empty() {
            continue;
        }
        let (kept, stats) = witness_plan(&entry);
        let (raw_trials, kept_trials) = (raw.len(), kept.len());
        let (detect_raw, secs_raw) = run_hunt(&entry, raw);
        let (detect_deduped, secs_deduped) = run_hunt(&entry, kept);
        // Dedup may only drop duplicate classes: if the full list detects,
        // the representatives must too.
        assert_eq!(
            detect_raw.is_some(),
            detect_deduped.is_some(),
            "{}: canonical dedup changed detection",
            entry.name
        );
        println!(
            "{:<16} {:>6} {:>6} {:>8} {:>11} {:>11} {:>8.2}s {:>8.2}s",
            entry.name,
            raw_trials,
            kept_trials,
            stats.deduped_trials,
            detect_raw.map_or("none".into(), |t| t.to_string()),
            detect_deduped.map_or("none".into(), |t| t.to_string()),
            secs_raw,
            secs_deduped,
        );
        rows.push(HuntRow {
            scenario: entry.name,
            raw_trials,
            kept_trials,
            deduped: stats.deduped_trials,
            detect_raw,
            detect_deduped,
            secs_raw,
            secs_deduped,
        });
    }
    println!();
    rows
}

fn write_json(checks: &[CheckRow], hunts: &[HuntRow]) {
    let path = std::env::var("PH_BENCH_E9_OUT").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    let mut out = String::from("{\n  \"bench\": \"e9_reduction\",\n  \"model_check\": [\n");
    for (i, r) in checks.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"component\": \"{}\", \"states_exhaustive\": {}, \
             \"states_reduced\": {}, \"ratio\": {:.2}}}{}",
            r.scenario,
            r.component,
            r.exhaustive,
            r.reduced,
            ratio(r.exhaustive, r.reduced),
            if i + 1 < checks.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"hunts\": [\n");
    for (i, r) in hunts.iter().enumerate() {
        let fmt_detect = |d: Option<u32>| d.map_or("null".to_string(), |t| t.to_string());
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"raw_trials\": {}, \"kept_trials\": {}, \
             \"deduped_trials\": {}, \"first_detection_raw\": {}, \
             \"first_detection_deduped\": {}, \"secs_raw\": {:.4}, \"secs_deduped\": {:.4}}}{}",
            r.scenario,
            r.raw_trials,
            r.kept_trials,
            r.deduped,
            fmt_detect(r.detect_raw),
            fmt_detect(r.detect_deduped),
            r.secs_raw,
            r.secs_deduped,
            if i + 1 < hunts.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench(c: &mut Criterion) {
    let checks = sweep_model_check();
    let hunts = sweep_hunts();
    write_json(&checks, &hunts);

    let mut group = c.benchmark_group("e9");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    let heavy = scenario_statics()
        .into_iter()
        .find(|e| e.name == "cass-op-402")
        .expect("scenario table");
    let summary = (heavy.summaries)(Variant::Buggy).remove(0);
    group.bench_function("model_check_exhaustive_cass402", |b| {
        b.iter(|| model_check_exhaustive(&summary).states_expanded)
    });
    group.bench_function("model_check_reduced_cass402", |b| {
        b.iter(|| model_check(&summary).states_expanded)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

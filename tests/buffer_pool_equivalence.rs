//! Buffer-pool transparency: trial-pool reuse must be invisible in every
//! observable output.
//!
//! `ph-sim` keeps a per-thread free list of world buffers (event queue,
//! trace storage, effect scratch) so back-to-back trials reuse warmed-up
//! capacity instead of reallocating. Only *capacity* may survive the round
//! trip — a run that draws recycled buffers must produce byte-identical
//! results to one on a fresh thread whose pool has never been touched.
//! This suite pins that for every registered scenario: trace digest, event
//! count, oracle verdicts, metrics report (and its JSON rendering), and
//! the divergence summary.

use ph_core::harness::RunReport;
use ph_scenarios::{mega_cluster, Scenario, Variant, SCENARIOS};
use ph_sim::Duration;

fn run_once(scenario: &Scenario, seed: u64, variant: Variant) -> RunReport {
    let mut strategy = (scenario.guided)(seed);
    scenario.run(seed, strategy.as_mut(), variant)
}

/// Runs on a brand-new thread, guaranteeing an untouched buffer pool.
fn run_fresh(scenario: &'static Scenario, seed: u64, variant: Variant) -> RunReport {
    std::thread::spawn(move || run_once(scenario, seed, variant))
        .join()
        .expect("fresh-pool run panicked")
}

fn assert_reports_identical(name: &str, variant: Variant, fresh: &RunReport, pooled: &RunReport) {
    assert_eq!(
        fresh.trace_digest, pooled.trace_digest,
        "{name} ({variant:?}): trace digest differs between fresh and pooled buffers"
    );
    assert_eq!(
        fresh.trace_events, pooled.trace_events,
        "{name} ({variant:?}): event count differs"
    );
    assert_eq!(
        fresh.violations, pooled.violations,
        "{name} ({variant:?}): oracle verdicts differ"
    );
    assert_eq!(
        fresh.sim_time, pooled.sim_time,
        "{name} ({variant:?}): end time differs"
    );
    assert_eq!(
        fresh.metrics, pooled.metrics,
        "{name} ({variant:?}): metrics report differs"
    );
    assert_eq!(
        fresh.metrics.to_json(),
        pooled.metrics.to_json(),
        "{name} ({variant:?}): metrics JSON rendering differs"
    );
    assert_eq!(
        fresh.divergence, pooled.divergence,
        "{name} ({variant:?}): divergence summary differs"
    );
}

/// For every scenario: a run on a virgin pool equals a run that recycles
/// the buffers of two earlier trials (of *different* scenarios among them,
/// since the pool is shared across everything a thread runs).
#[test]
fn pooled_and_fresh_runs_are_identical_for_every_scenario() {
    const SEED: u64 = 0xB0F;
    for scenario in SCENARIOS {
        let name = scenario.name;
        let fresh = run_fresh(scenario, SEED, Variant::Buggy);
        // Warm this thread's pool — every iteration after the first also
        // inherits buffers recycled from previous scenarios' worlds.
        let warm = run_once(scenario, SEED, Variant::Buggy);
        let pooled = run_once(scenario, SEED, Variant::Buggy);
        assert_reports_identical(name, Variant::Buggy, &fresh, &warm);
        assert_reports_identical(name, Variant::Buggy, &fresh, &pooled);
    }
}

/// The fixed variants must be equally transparent (their traces differ
/// from the buggy ones, so this exercises different queue/trace shapes).
#[test]
fn pooled_and_fresh_runs_are_identical_for_fixed_variants() {
    const SEED: u64 = 0x5EED;
    for scenario in SCENARIOS {
        let name = scenario.name;
        let fresh = run_fresh(scenario, SEED, Variant::Fixed);
        let _warm = run_once(scenario, SEED, Variant::Fixed);
        let pooled = run_once(scenario, SEED, Variant::Fixed);
        assert_reports_identical(name, Variant::Fixed, &fresh, &pooled);
    }
}

/// A digest-only world shares the pool with retaining trials but has no
/// trace buffer to draw or return: run between two retaining trials, it
/// changes nothing either of them reports.
#[test]
fn a_digest_only_world_between_retaining_trials_is_invisible() {
    const SEED: u64 = 0xD16;
    let scale = mega_cluster::ScaleParams {
        nodes: 10,
        pods: 200,
        shards: 1,
        watchers: 2,
        churn: Duration::millis(600),
    };
    let scenario = SCENARIOS[0];
    let name = scenario.name;
    let fresh = run_fresh(scenario, SEED, Variant::Buggy);
    let before = run_once(scenario, SEED, Variant::Buggy);
    let between = mega_cluster::run(SEED, &scale);
    let after = run_once(scenario, SEED, Variant::Buggy);
    assert_reports_identical(name, Variant::Buggy, &fresh, &before);
    assert_reports_identical(name, Variant::Buggy, &fresh, &after);
    // And the digest-only run itself is pool-transparent.
    let scale_fresh = std::thread::spawn(move || mega_cluster::run(SEED, &scale))
        .join()
        .expect("fresh-pool scale run panicked");
    assert_eq!(scale_fresh.to_json(), between.to_json());
}

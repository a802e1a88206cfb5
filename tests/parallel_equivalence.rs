//! Any thread count ≡ one: the headline property of the trial pool.
//!
//! For random `(scenario, strategy, seed, thread count, budget)` tuples,
//! `Explorer::explore_parallel(n)` must produce a [`TrialOutcome`], a
//! [`DetectionMatrix`] rendering, and an example [`RunReport`] JSON
//! **byte-identical** to `Explorer::explore` — one worker, inline on the
//! calling thread. Cases are drawn from a fixed-seed [`SimRng`] (the
//! repo's in-tree property-testing idiom), so the exact case set is
//! pinned forever and runs with zero third-party dependencies.

use ph_core::harness::{DetectionMatrix, Explorer, TrialOutcome};
use ph_core::perturb::{NoFault, Strategy};
use ph_scenarios::{cass_398, k8s_59848, Variant, SCENARIOS, STRATEGIES};
use ph_sim::SimRng;

/// Field-by-field equality, with the example report compared as the exact
/// JSON bytes `phtool run --json` would emit.
fn assert_outcomes_identical(name: &str, threads: usize, seq: &TrialOutcome, par: &TrialOutcome) {
    let ctx = format!("{name} @ {threads} threads");
    assert_eq!(seq.scenario, par.scenario, "{ctx}: scenario");
    assert_eq!(seq.strategy, par.strategy, "{ctx}: strategy");
    assert_eq!(seq.trials_run, par.trials_run, "{ctx}: trials_run");
    assert_eq!(
        seq.first_violation, par.first_violation,
        "{ctx}: first_violation"
    );
    assert_eq!(seq.total_events, par.total_events, "{ctx}: total_events");
    assert_eq!(seq.total_sim_ns, par.total_sim_ns, "{ctx}: total_sim_ns");
    match (&seq.example, &par.example) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.to_json(), b.to_json(), "{ctx}: example RunReport JSON")
        }
        _ => panic!("{ctx}: example presence diverged"),
    }
}

/// The headline property: random tuples, byte-identical outcomes.
#[test]
fn random_tuples_parallel_equals_sequential() {
    let mut rng = SimRng::from_seed(0x9A7A_11E1);
    for case in 0..10 {
        let scenario = *rng.pick(SCENARIOS).expect("non-empty");
        let name = scenario.name;
        let strategy_name = *rng.pick(STRATEGIES).expect("non-empty");
        let explorer = Explorer {
            max_trials: rng.range(1, 4) as u32,
            base_seed: rng.next_u64(),
        };
        let threads = rng.range(2, 5) as usize;
        let scenario_fn = |seed: u64, s: &mut dyn Strategy| scenario.run(seed, s, Variant::Buggy);
        let factory = |seed: u64| scenario.strategy(strategy_name, seed);
        let seq = explorer.explore(name, &scenario_fn, &factory);
        let par = explorer.explore_parallel(threads, name, &scenario_fn, &factory);
        assert_outcomes_identical(
            &format!("case {case}: {name}/{strategy_name}"),
            threads,
            &seq,
            &par,
        );
    }
}

/// Full-matrix equivalence: one worker and three each assemble a
/// [`DetectionMatrix`] over every scenario, and the rendered detection and
/// telemetry tables and the Prometheus exposition are byte-identical — the
/// `phtool matrix` payload at any thread count.
#[test]
fn detection_matrix_renders_identically() {
    let explorer = Explorer {
        max_trials: 2,
        base_seed: 77,
    };
    let mut seq_matrix = DetectionMatrix::new();
    let mut par_matrix = DetectionMatrix::new();
    for scenario in SCENARIOS {
        let name = scenario.name;
        let scenario_fn = |seed: u64, s: &mut dyn Strategy| scenario.run(seed, s, Variant::Buggy);
        let factory = |seed: u64| (scenario.guided)(seed);
        seq_matrix.add(explorer.explore(name, &scenario_fn, &factory));
        par_matrix.add(explorer.explore_parallel(3, name, &scenario_fn, &factory));
    }
    assert_eq!(seq_matrix.render(), par_matrix.render());
    assert_eq!(seq_matrix.render_telemetry(), par_matrix.render_telemetry());
    assert_eq!(seq_matrix.to_prometheus(), par_matrix.to_prometheus());
    // The examples carry the blame summaries neither table prints.
    for (seq, par) in seq_matrix.cells().iter().zip(par_matrix.cells()) {
        assert_outcomes_identical(&seq.scenario, 3, seq, par);
    }
}

/// The aggregation guard: `total_events` / `total_sim_ns` sums must be
/// taken in trial order at every thread count. Runs one no-detection cell
/// (every trial executes, so the sums cover the whole budget) at three
/// thread counts and diffs the rendered telemetry byte for byte.
#[test]
fn effort_table_is_stable_across_thread_counts() {
    let explorer = Explorer {
        max_trials: 4,
        base_seed: 4242,
    };
    let scenario = &cass_398::SCENARIO;
    let scenario_fn = |seed: u64, s: &mut dyn Strategy| scenario.run(seed, s, Variant::Buggy);
    let factory = |_seed: u64| Box::new(NoFault) as Box<dyn Strategy>;
    let tables: Vec<(String, String)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut m = DetectionMatrix::new();
            m.add(explorer.explore_parallel(threads, scenario.name, &scenario_fn, &factory));
            (m.render_telemetry(), m.to_prometheus())
        })
        .collect();
    assert_eq!(tables[0], tables[1], "1 vs 2 threads");
    assert_eq!(tables[1], tables[2], "2 vs 4 threads");
    // And the pooled tables match `explore`'s.
    let mut m = DetectionMatrix::new();
    m.add(explorer.explore(scenario.name, &scenario_fn, &factory));
    assert_eq!(
        (m.render_telemetry(), m.to_prometheus()),
        tables[0],
        "explore vs pooled"
    );
}

/// Early-cancel must report the *lowest* failing trial, not the first to
/// complete: guided strategies fail on trial 1, so any racing worker that
/// finishes a later trial first must lose the merge.
#[test]
fn early_cancel_reports_lowest_failing_trial() {
    let explorer = Explorer {
        max_trials: 6,
        base_seed: 9,
    };
    for threads in [2, 4, 6] {
        let out = explorer.explore_parallel(
            threads,
            k8s_59848::SCENARIO.name,
            &|seed, s| k8s_59848::SCENARIO.run(seed, s, Variant::Buggy),
            &|seed| (k8s_59848::SCENARIO.guided)(seed),
        );
        assert_eq!(out.first_violation, Some(1), "{threads} threads");
        assert_eq!(out.trials_run, 1, "{threads} threads");
        let example = out.example.expect("failing trial keeps its report");
        assert_eq!(example.seed, explorer.trial_seed(0));
    }
}

//! Determinism: the same seed must reproduce the same run, bit for bit.
//!
//! The whole methodology rests on this — a trial is only evidence if it can
//! be replayed, and the telemetry layer is only trustworthy if it never
//! perturbs or varies across replays. This file pins every scenario's
//! whole-report replay on both variants, the digest's discrimination,
//! blame chains and summaries across runs and thread counts, and the
//! telemetry's presence.

use ph_core::perturb::Strategy;
use ph_scenarios::{k8s_59848, scenario_statics, volume_17, Variant};

#[test]
fn different_seeds_change_the_trace() {
    // Sanity check that the digest actually discriminates: perturbation
    // strategies are seeded, so two seeds should not produce identical
    // runs for a fault-injected scenario.
    let a = crate::guided_report("k8s-59848");
    let scenario = &k8s_59848::SCENARIO;
    let b = scenario.run(2, (scenario.guided)(2).as_mut(), Variant::Buggy);
    assert_ne!(
        (a.trace_digest, a.trace_events),
        (b.trace_digest, b.trace_events),
        "seeds 1 and 2 produced bit-identical runs"
    );
}

/// The digest as it was defined before it moved to a binary encoding,
/// restated from public API: FNV-1a over each event's `at` (LE bytes)
/// followed by the `{:?}` rendering of its kind.
fn debug_fnv_digest(trace: &ph_sim::Trace) -> u64 {
    let fnv = |h: u64, b: &u8| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
    trace.events().iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        let h = e.at.0.to_le_bytes().iter().fold(h, fnv);
        format!("{:?}", e.kind).as_bytes().iter().fold(h, fnv)
    })
}

/// The re-encoding of the digest changed every digest's value and must
/// have changed nothing else: the old definition and `Trace::digest()`
/// must call exactly the same pairs of runs equal. A smoke of four guided
/// runs per scenario — buggy at one seed and fixed at another, each with
/// its replay (the deliberately equal pairs); the migration itself was
/// proven on a 468-run corpus when it was made, and the word layout is
/// unit-tested beside the encoder.
///
/// The same runs pin two more things: a replay reproduces the whole
/// report, metrics and divergence included, byte for byte; and every
/// fixed variant survives its buggy twin's guided injection.
#[test]
fn binary_digest_partitions_runs_exactly_like_the_debug_rendering_digest() {
    let entries = scenario_statics();
    let mut jobs = Vec::new();
    for scenario in 0..entries.len() {
        jobs.extend([(scenario, Variant::Buggy, 3); 2]);
        jobs.extend([(scenario, Variant::Fixed, 7); 2]);
    }
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    // (old digest, new digest, report) per run; traces are not `Send`, so
    // both digests are taken where the run happened.
    let runs: Vec<(u64, u64, ph_core::RunReport)> =
        ph_core::run_indexed(threads, jobs.len(), |i| {
            let (scenario, variant, seed) = jobs[i];
            let e = &entries[scenario];
            let (report, trace) = (e.run_traced)(seed, (e.guided)(seed).as_mut(), variant);
            assert_eq!(report.trace_digest, trace.digest());
            (debug_fnv_digest(&trace), trace.digest(), report)
        });
    for (pair, job) in runs.chunks(2).zip(jobs.chunks(2)) {
        let (name, variant) = (entries[job[0].0].name, job[0].1);
        let (a, b) = (&pair[0].2, &pair[1].2);
        assert_eq!(
            (&a.metrics, &a.divergence, a.to_json()),
            (&b.metrics, &b.divergence, b.to_json()),
            "{name} {variant}: same-seed runs diverged"
        );
        assert!(
            variant == Variant::Buggy || !a.failed(),
            "{name} fixed variant violated under guided injection: {:?}",
            a.violations
        );
    }
    let digests: Vec<(u64, u64)> = runs.iter().map(|&(old, new, _)| (old, new)).collect();

    // Per scenario, (equal, unequal) pairs seen — so the equivalence
    // below cannot hold vacuously.
    let mut seen = vec![(0usize, 0usize); entries.len()];
    for (i, (old_a, new_a)) in digests.iter().enumerate() {
        for (j, (old_b, new_b)) in digests[..i].iter().enumerate() {
            assert_eq!(
                old_a == old_b,
                new_a == new_b,
                "{:?} vs {:?}: old {old_a:#x}/{old_b:#x}, new {new_a:#x}/{new_b:#x}",
                jobs[i],
                jobs[j]
            );
            if jobs[i].0 == jobs[j].0 {
                let s = &mut seen[jobs[i].0];
                if new_a == new_b {
                    s.0 += 1;
                } else {
                    s.1 += 1;
                }
            }
        }
    }
    for (e, (equal, unequal)) in entries.iter().zip(seen) {
        // The replay…
        assert!(equal >= 1, "{}: no equal pair", e.name);
        // …while seed and variant still tell runs apart.
        assert!(unequal >= 2, "{}: only {unequal} unequal pairs", e.name);
    }
}

#[test]
fn autoguide_candidates_are_identical_at_any_thread_count() {
    // The §7 automation loop through the parallel pool: the reference
    // trace is deterministic, candidate enumeration is a pure function of
    // it, and the per-candidate re-runs merge by candidate index — so the
    // full findings list (candidates, order, verdicts) must be identical
    // at any thread count.
    let run = |strategy: &mut dyn Strategy| {
        let (report, trace) = volume_17::SCENARIO.run_traced(1, strategy, Variant::Buggy);
        let violations = report
            .violations
            .iter()
            .map(|v| v.details.clone())
            .collect::<Vec<String>>();
        (violations, trace)
    };
    let targets_of = |_: &ph_sim::Trace| volume_17::SCENARIO.targets(1);
    let runs: Vec<(Vec<String>, Vec<bool>, usize)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let (findings, total, _census) =
                ph_core::autoguide::explore(run, targets_of, &["vc.release_pvc"], 2, 4, threads);
            (
                findings.iter().map(|f| f.candidate.to_string()).collect(),
                findings.iter().map(|f| f.violated).collect(),
                total,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[1], runs[2], "2 vs 4 threads diverged");
    assert!(!runs[0].0.is_empty(), "no candidates derived");
}

#[test]
fn blame_chains_are_identical_across_same_seed_runs_and_thread_counts() {
    // The provenance layer rides on the trace, so it inherits the replay
    // guarantee: the same (seed, strategy, variant) must yield the same
    // blame chain — byte for byte in its JSON form — whether the runs fan
    // out over 1 worker or 4. This is what makes `phtool explain --json`
    // diffable in CI.
    use ph_core::provenance::explain;
    const SEED: u64 = 7;
    let entries = scenario_statics();
    let explain_all = |threads: usize| -> Vec<String> {
        ph_core::run_indexed(threads, entries.len(), |i| {
            let e = &entries[i];
            let mut strategy = (e.guided)(SEED);
            let (report, trace) = (e.run_traced)(SEED, strategy.as_mut(), Variant::Buggy);
            explain(&trace, &(e.blame)(), &report.violations).to_json()
        })
    };
    let single = explain_all(1);
    let pooled = explain_all(4);
    assert_eq!(single, pooled, "explain JSON diverges across thread counts");
    assert_eq!(single, explain_all(1), "explain JSON diverges across runs");
    for (e, json) in entries.iter().zip(&single) {
        assert!(
            json.contains(&format!("\"class\":\"{}\"", e.pattern.as_str())),
            "{}: chain JSON lost its class: {json}",
            e.name
        );
    }
}

#[test]
fn blame_summaries_are_identical_across_thread_counts() {
    use ph_core::harness::Explorer;
    // One representative per §4.2 class keeps the test fast.
    for name in ["k8s-59848", "volume-ctrl-17", "hbase-3136"] {
        let e = ph_scenarios::lookup(name).expect("scenario");
        let explorer = Explorer {
            max_trials: 3,
            base_seed: 5,
        };
        let run = |seed: u64, s: &mut dyn Strategy| e.run(seed, s, Variant::Buggy);
        let factory = |seed: u64| (e.guided)(seed);
        let seq = explorer.explore(name, &run, &factory);
        let par4 = explorer.explore_parallel(4, name, &run, &factory);
        let b1 = seq.example.as_ref().and_then(|r| r.blame);
        let b4 = par4.example.as_ref().and_then(|r| r.blame);
        assert_eq!(b1, b4, "{name}: blame summary must not depend on threads");
        assert_eq!(seq.trial_sim_ns, par4.trial_sim_ns, "{name}");
    }
}

#[test]
fn telemetry_reports_are_populated() {
    // The instrumentation layer must actually produce data: lag samples
    // for every view and watch-delivery counts at the apiservers.
    let r = crate::guided_report("k8s-59848");
    assert!(!r.metrics.is_empty(), "metrics report is empty");
    assert!(!r.divergence.is_empty(), "no divergence samples");
    assert!(
        r.metrics.counter_total("apiserver.watch_delivered") > 0,
        "no watch deliveries recorded"
    );
    assert!(
        r.divergence.max_lag() > 0,
        "guided 59848 run should observe a stale view"
    );
}

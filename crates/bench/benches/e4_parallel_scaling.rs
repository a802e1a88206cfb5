//! **E4 — parallel exploration scaling**: trials/sec vs worker count for
//! the deterministic `ph-core::parallel` pool, plus the equivalence check
//! that makes the speedup admissible — the [`ph_core::TrialOutcome`] and
//! rendered detection/effort tables must be byte-identical at every
//! thread count (same root seed, same trial seeds, same merge).
//!
//! The workload is a no-detection cell (no-fault strategy), so every
//! trial in the budget executes and the measurement is pure throughput —
//! early-cancel never kicks in. Expected shape: near-linear scaling up to
//! the machine's core count (a 1-core container shows ~1× by
//! construction; see EXPERIMENTS.md E4 for recorded curves).
//!
//! Trial budget: `PH_TRIALS4` env var (default 16).
//!
//! Run with `cargo bench -p ph-bench --bench e4_parallel_scaling`.

use std::time::Instant;

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_core::harness::{DetectionMatrix, Explorer};
use ph_core::perturb::{NoFault, Strategy};
use ph_scenarios::{cass_398, Variant};

fn print_scaling_curve() {
    let budget: u32 = std::env::var("PH_TRIALS4")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let explorer = Explorer {
        max_trials: budget,
        base_seed: 0x5CA1E,
    };
    let scenario =
        |seed: u64, s: &mut dyn Strategy| cass_398::SCENARIO.run(seed, s, Variant::Buggy);
    let factory = |_seed: u64| Box::new(NoFault) as Box<dyn Strategy>;

    println!(
        "\n=== E4: parallel exploration scaling ({budget} trials of {}, no-fault, \
         {} core(s) available) ===\n",
        cass_398::SCENARIO.name,
        ph_core::default_threads(),
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10}   output",
        "threads", "wall-clock", "trials/sec", "speedup"
    );

    // The sequential path is the reference for both timing and bytes.
    let t = Instant::now();
    let reference = explorer.explore(cass_398::SCENARIO.name, &scenario, &factory);
    let seq_secs = t.elapsed().as_secs_f64();
    let reference_effort = {
        let mut m = DetectionMatrix::new();
        m.add(reference.clone());
        m.render_effort()
    };
    println!(
        "{:>8} {:>11.2}s {:>12.1} {:>9.2}x   (sequential reference)",
        "seq",
        seq_secs,
        budget as f64 / seq_secs,
        1.0
    );

    for threads in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let outcome =
            explorer.explore_parallel(threads, cass_398::SCENARIO.name, &scenario, &factory);
        let secs = t.elapsed().as_secs_f64();
        let effort = {
            let mut m = DetectionMatrix::new();
            m.add(outcome.clone());
            m.render_effort()
        };
        let identical = effort == reference_effort
            && outcome.trials_run == reference.trials_run
            && outcome.total_events == reference.total_events
            && outcome.total_sim_ns == reference.total_sim_ns;
        println!(
            "{threads:>8} {:>11.2}s {:>12.1} {:>9.2}x   {}",
            secs,
            budget as f64 / secs,
            seq_secs / secs,
            if identical { "identical" } else { "DIVERGED" }
        );
        assert!(
            identical,
            "{threads} threads: parallel outcome diverged from sequential"
        );
    }
    println!(
        "\n(trial seeds are positional — splitmix64(root, idx) — so every row \
         explores the same trials; only wall-clock may differ)\n"
    );
}

fn bench(c: &mut Criterion) {
    print_scaling_curve();
    let mut group = c.benchmark_group("e4_parallel_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    // Per-iteration cost of one pooled 4-trial exploration, the phtool
    // matrix building block.
    group.bench_function("explore_parallel_4trials", |b| {
        let explorer = Explorer {
            max_trials: 4,
            base_seed: 0x5CA1E,
        };
        b.iter(|| {
            explorer
                .explore_parallel(
                    ph_core::default_threads(),
                    cass_398::SCENARIO.name,
                    &|seed, s| cass_398::SCENARIO.run(seed, s, Variant::Buggy),
                    &|_seed| Box::new(NoFault) as Box<dyn Strategy>,
                )
                .total_events
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

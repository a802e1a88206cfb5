//! **T1 — the §7 results**: "our tool has reproduced two known bugs in
//! Kubernetes … and detected three new bugs in a Kubernetes controller for
//! Cassandra" — as a detection matrix over the seven encoded paper bugs
//! plus the node-fencing and congestion hazards this reproduction adds,
//! across six strategies.
//!
//! Expected shape: the guided column detects every bug on trial 1; the
//! baseline heuristics are sparse (CoFI's consistency-guided partitions
//! catch some staleness bugs, matching the paper's §5 observation that such
//! heuristics work *because* they force (H′, S′) to diverge); uniform
//! random injection rarely lands.
//!
//! Trial budget: `PH_TRIALS` env var (default 5).
//!
//! Run with `cargo bench -p ph-bench --bench table1_detection`.

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_core::harness::{DetectionMatrix, Explorer};
use ph_scenarios::{volume_17, Variant, SCENARIOS, STRATEGIES};

fn build_matrix(max_trials: u32) -> DetectionMatrix {
    let explorer = Explorer {
        max_trials,
        base_seed: 1000,
    };
    let mut matrix = DetectionMatrix::new();
    for scenario in SCENARIOS {
        for strategy in STRATEGIES {
            let mut outcome = explorer.explore(
                scenario.name,
                &|seed, s| scenario.run(seed, s, Variant::Buggy),
                &|seed| scenario.strategy(strategy, seed),
            );
            if *strategy == "guided" {
                outcome.strategy = "guided".into();
            }
            matrix.add(outcome);
        }
    }
    matrix
}

fn print_table() -> DetectionMatrix {
    let trials: u32 = std::env::var("PH_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    println!("\n=== T1 (§7 results): detection matrix, budget {trials} trials/cell ===\n");
    let matrix = build_matrix(trials);
    println!("{}", matrix.render());
    let guided_detected = matrix
        .cells()
        .iter()
        .filter(|c| c.strategy == "guided" && c.detected())
        .count();
    let all = SCENARIOS.len();
    println!("guided: {guided_detected}/{all} detected (expected {all}/{all} on trial 1)");
    assert_eq!(
        guided_detected, all,
        "guided strategies must find every bug"
    );
    matrix
}

fn bench(c: &mut Criterion) {
    let _ = print_table();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    // The tool's unit of work: one guided trial on the fastest scenario.
    group.bench_function("one_guided_trial_volume17", |b| {
        b.iter(|| {
            let mut s = (volume_17::SCENARIO.guided)(1);
            volume_17::SCENARIO
                .run(1, s.as_mut(), Variant::Buggy)
                .failed()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

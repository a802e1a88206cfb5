//! **T2 — §5/§6.1**: pattern-guided perturbation vs fault-injection
//! heuristics, measured as trials-to-first-detection under a larger budget.
//!
//! The paper's argument: random or heuristic fault injection "can rarely
//! trigger these cases", while a tool that regulates how `(H′, S′)`
//! advances triggers them directly. Expected shape: guided = 1 trial
//! everywhere; baselines need many trials or exhaust the budget.
//!
//! Trial budget: `PH_TRIALS2` env var (default 12).
//!
//! Run with `cargo bench -p ph-bench --bench table2_guided_vs_random`.

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_core::harness::Explorer;
use ph_core::perturb::RandomCrashes;
use ph_scenarios::{cass_398, k8s_56261, k8s_59848, volume_17, Variant};
use ph_sim::Duration;

fn print_table() {
    let budget: u32 = std::env::var("PH_TRIALS2")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let scenarios = [
        &k8s_59848::SCENARIO,
        &k8s_56261::SCENARIO,
        &volume_17::SCENARIO,
        &cass_398::SCENARIO,
    ];
    println!("\n=== T2 (§5/§6.1): trials to first detection (budget {budget}) ===\n");
    println!(
        "{:<16} {:>8} {:>14} {:>12} {:>8}",
        "scenario", "guided", "random-crash", "crashtuner", "cofi"
    );
    let explorer = Explorer {
        max_trials: budget,
        base_seed: 2000,
    };
    for scenario in scenarios {
        let name = scenario.name;
        let fmt = |n: Option<u32>| match n {
            Some(n) => n.to_string(),
            None => "✗".to_string(),
        };
        let trials = |strategy: &str| {
            explorer
                .explore(
                    name,
                    &|s, st| scenario.run(s, st, Variant::Buggy),
                    &|seed| scenario.strategy(strategy, seed),
                )
                .first_violation
        };
        let (g, r, ct, cf) = (
            trials("guided"),
            trials("random-crash"),
            trials("crashtuner"),
            trials("cofi"),
        );
        println!(
            "{:<16} {:>8} {:>14} {:>12} {:>8}",
            name,
            fmt(g),
            fmt(r),
            fmt(ct),
            fmt(cf)
        );
        assert_eq!(g, Some(1), "{name}: guided must detect on trial 1");
    }
    println!("\n(✗ = not detected within budget — the paper's 'rarely trigger')\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("random_crash_trial_59848", |b| {
        b.iter(|| {
            let mut s = RandomCrashes {
                seed: 7,
                count: 3,
                down: Duration::millis(300),
            };
            k8s_59848::SCENARIO
                .run(7, &mut s, Variant::Buggy)
                .trace_events
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! **F2 — Figure 2**: the Kubernetes-59848 walkthrough, reproduced
//! deterministically, and the cost of one guided reproduction.
//!
//! Prints the violation and its timing once, then benchmarks the wall-clock
//! cost of a full guided reproduction run (the §7 tool's unit of work).
//!
//! Run with `cargo bench -p ph-bench --bench fig2_59848`.

use ph_bench::{criterion_group, criterion_main, Criterion};
use ph_scenarios::k8s_59848::SCENARIO;
use ph_scenarios::Variant;

fn print_figure() {
    println!("\n=== F2 (Figure 2): Kubernetes-59848 reproduction ===");
    let mut strategy = (SCENARIO.guided)(1);
    let report = SCENARIO.run(1, strategy.as_mut(), Variant::Buggy);
    assert!(report.failed(), "the reproduction must fire");
    for v in &report.violations {
        println!("  violation: {v}");
    }
    println!(
        "  detected at sim time of the duplicate start; run covered {} trace \
         events in {} of simulated time",
        report.trace_events, report.sim_time
    );
    let mut strategy = (SCENARIO.guided)(1);
    let fixed = SCENARIO.run(1, strategy.as_mut(), Variant::Fixed);
    println!(
        "  fixed kubelet under identical injection: {} violations\n",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
}

fn bench(c: &mut Criterion) {
    print_figure();
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("guided_reproduction_buggy", |b| {
        b.iter(|| {
            let mut strategy = (SCENARIO.guided)(1);
            let report = SCENARIO.run(1, strategy.as_mut(), Variant::Buggy);
            assert!(report.failed());
            report.trace_events
        })
    });
    group.bench_function("guided_regression_fixed", |b| {
        b.iter(|| {
            let mut strategy = (SCENARIO.guided)(1);
            let report = SCENARIO.run(1, strategy.as_mut(), Variant::Fixed);
            assert!(!report.failed());
            report.trace_events
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

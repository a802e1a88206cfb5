//! **E8 — load-emergent staleness**: view lag and violations as a function
//! of offered load vs modeled capacity, with zero injected perturbations.
//!
//! The congestion scenario's churn workload offers a fixed load to the
//! apiserver→scheduler feed; this bench sweeps the feed's *static*
//! bandwidth across the capacity boundary and records, per point: drop-tail
//! losses, p95 queue wait, the scheduler's sampled view lag, and whether
//! the all-pods-running oracle fired. Expected shape: below capacity the
//! queue is empty and the run is clean; past capacity lag explodes and the
//! buggy scheduler wedges pods on a ghost node — staleness from queue
//! physics alone, the §4.1 saturation argument made end-to-end.
//!
//! Run with `cargo bench -p ph-bench --bench e8_congestion`.

use ph_bench::{criterion_group, criterion_main, Criterion};
use ph_core::perturb::NoFault;
use ph_scenarios::congestion::{at_capacity, CAPACITY_AMPLE, CAPACITY_SCARCE};
use ph_scenarios::{Scenario, Variant};

/// The sweep: the scenario at each static feed capacity (bytes per second).
fn sweep() -> [(u64, Scenario); 7] {
    [
        (256_000, at_capacity::<256_000>()),
        (64_000, at_capacity::<64_000>()),
        (16_000, at_capacity::<16_000>()),
        (8_000, at_capacity::<8_000>()),
        (4_000, at_capacity::<4_000>()),
        (2_000, at_capacity::<2_000>()),
        (1_000, at_capacity::<1_000>()),
    ]
}

fn print_table() {
    println!("-- E8: lag vs offered load (buggy variant, NoFault, seed 1) --\n");
    println!(
        "{:<16} {:>9} {:>14} {:>13} {:>12}  verdict",
        "capacity (B/s)", "drops", "p95 wait", "sched lag max", "gap frac"
    );
    for (capacity, scenario) in sweep() {
        let report = scenario.run(1, &mut NoFault, Variant::Buggy);
        let drops = report.metrics.counter_total("net.queue_dropped");
        let p95 = report
            .metrics
            .histogram("apiserver-1", "net.queue_wait_ns")
            .map(|h| h.quantile(0.95))
            .unwrap_or(0);
        let sched = report.divergence.view("scheduler");
        let (lag_max, gap) = sched.map_or((0, 0.0), |v| (v.max, v.gap_fraction()));
        println!(
            "{capacity:<16} {drops:>9} {:>12}us {lag_max:>13} {:>11.0}%  {}",
            p95 / 1_000,
            gap * 100.0,
            if report.failed() { "VIOLATED" } else { "clean" }
        );
    }
    println!(
        "\n(shape check: ample capacity keeps the queue empty and the run\n\
         clean; as bandwidth falls, tail-drops and waits appear first —\n\
         still clean, the watch machinery heals in time — and only once\n\
         the relist itself crawls does the heal asymmetry open the ghost\n\
         window and the oracle fire. No strategy involved at any point.)\n"
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, scenario) in [
        ("ample", at_capacity::<CAPACITY_AMPLE>()),
        ("scarce", at_capacity::<CAPACITY_SCARCE>()),
    ] {
        group.bench_function(format!("congestion_trial_{label}"), |b| {
            b.iter(|| scenario.run(1, &mut NoFault, Variant::Buggy).trace_events)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

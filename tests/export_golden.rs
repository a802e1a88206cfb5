//! Golden exports: the congestion run's queue physics, pinned byte for
//! byte in both downstream formats.
//!
//! The emergent congestion run (static scarce capacity, zero
//! perturbations) is fully deterministic, so its exports are too. Two
//! artifacts are compared against checked-in goldens:
//!
//! * the **Chrome-trace** rendering of the run's queue slice — every
//!   `MessageQueued` / queue-full `MessageDropped` event (plus `Spawned`,
//!   which names the timeline threads), exactly what an engineer loads
//!   into Perfetto to look at the congestion story;
//! * the **Prometheus text exposition** of the run's metrics — the
//!   `ph_net_queue_depth` / `ph_net_queue_dropped_total` /
//!   `ph_net_queue_wait_ns` families `phtool run --prom` writes.
//!
//! Regenerate after an intentional exporter or scenario change with
//! `PH_EXPORT_BLESS=1 cargo test -p ph-scenarios --test export_golden`.

use std::fs;
use std::path::{Path, PathBuf};

use ph_core::perturb::NoFault;
use ph_scenarios::{congestion, Variant};
use ph_sim::{trace_to_chrome, DropReason, TraceEventKind};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `got` against `tests/golden/<name>`, or rewrites the golden
/// when `PH_EXPORT_BLESS` is set.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("PH_EXPORT_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, got).unwrap();
    } else {
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {name} (PH_EXPORT_BLESS=1 to create): {e}"));
        assert_eq!(
            got, want,
            "golden mismatch for {name} (PH_EXPORT_BLESS=1 to regenerate)"
        );
    }
}

#[test]
fn congestion_queue_exports_are_pinned() {
    let scenario = congestion::at_capacity::<{ congestion::CAPACITY_SCARCE }>();
    let (report, trace) = scenario.run_traced(1, &mut NoFault, Variant::Buggy);

    use TraceEventKind as K;
    let slice = trace.filtered(|e| {
        matches!(
            &e.kind,
            K::Spawned { .. }
                | K::MessageQueued { .. }
                | K::MessageDropped {
                    reason: DropReason::QueueFull,
                    ..
                }
        )
    });
    assert!(
        slice.len() > trace.count(|e| matches!(&e.kind, K::Spawned { .. })),
        "the queue slice must contain actual queue events, not just spawns"
    );
    let chrome = trace_to_chrome(&slice);
    // Semantic guards first, so the golden can never silently pin a
    // congestion-free run.
    assert!(
        chrome.contains("\"name\":\"queue ApiWatchEvent\""),
        "chrome export lost its queue-wait instants"
    );
    assert!(
        chrome.contains("\"reason\":\"QueueFull\""),
        "chrome export lost its drop-tail instants"
    );
    check("congestion_queue_slice.chrome.json", &chrome);

    let prom = report.metrics.to_prometheus();
    for family in [
        "# TYPE ph_net_queue_depth gauge",
        "# TYPE ph_net_queue_dropped_total counter",
        "# TYPE ph_net_queue_wait_ns histogram",
    ] {
        assert!(prom.contains(family), "prometheus export lost {family:?}");
    }
    assert_eq!(
        report.metrics.counter_total("net.queue_dropped") > 0,
        prom.contains("ph_net_queue_dropped_total{component=\"apiserver-1\"}"),
        "text exposition must agree with the programmatic counter"
    );
    check("congestion_metrics.prom", &prom);
}

//! Golden exports: the congestion run's queue physics, pinned byte for
//! byte in both downstream formats, and every paper experiment's table
//! (`phtool repro`), pinned under `tests/golden/repro/` and compared with
//! what EXPERIMENTS.md quotes.
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
use ph_scenarios::experiments::{find, EXPERIMENTS};
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
        fs::create_dir_all(path.parent().unwrap()).unwrap();
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

/// Every experiment's table, pinned: a change that moves a paper number
/// has to re-bless its golden, so a reviewer sees it.
#[test]
fn repro_outputs_are_pinned() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let outputs = ph_core::run_indexed(threads, EXPERIMENTS.len(), |i| (EXPERIMENTS[i].run)());
    for (experiment, got) in EXPERIMENTS.iter().zip(&outputs) {
        check(&format!("repro/{}.txt", experiment.id), got);
    }
}

fn experiments_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    fs::read_to_string(path).expect("reading EXPERIMENTS.md")
}

/// EXPERIMENTS.md quotes tables only between a `<!-- repro:ID -->` line and
/// a `<!-- /repro -->` line, as a fenced block holding the golden verbatim — or,
/// when the block's last line is `…`, a whole-line prefix of it.
#[test]
fn experiments_md_quotes_the_goldens() {
    let doc = experiments_md();
    let mut quoted = Vec::new();
    for section in doc.split("\n<!-- repro:").skip(1) {
        let (id, rest) = section.split_once(" -->\n").expect("marker ends in -->");
        let (block, _) = rest
            .split_once("<!-- /repro -->")
            .unwrap_or_else(|| panic!("repro:{id} is never closed"));
        let body = block
            .strip_prefix("```text\n")
            .and_then(|b| b.strip_suffix("```\n"))
            .unwrap_or_else(|| panic!("repro:{id} must hold one ```text fenced block"));
        let golden = fs::read_to_string(golden_dir().join(format!("repro/{id}.txt")))
            .unwrap_or_else(|e| panic!("reading the {id} golden: {e}"));
        match body.strip_suffix("…\n") {
            Some(head) => assert!(
                head.ends_with('\n') && golden.starts_with(head),
                "repro:{id} is not a prefix of tests/golden/repro/{id}.txt"
            ),
            None => assert_eq!(
                body, golden,
                "repro:{id} differs from tests/golden/repro/{id}.txt"
            ),
        }
        quoted.push(id);
    }
    let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(quoted, all, "every experiment is quoted once, in order");
}

/// Every experiment id the "paper claim → status" table cites is a
/// registered one (so its shape assertions ran in `repro_outputs_are_pinned`).
#[test]
fn claim_status_table_cites_registered_experiments() {
    let doc = experiments_md();
    let (_, table) = doc
        .split_once("## Summary: paper claim → status")
        .expect("the claim → status section");
    let mut cited = 0;
    for row in table.lines().filter(|l| l.starts_with('|')) {
        // An id is a capital letter and digits, optionally a figure's
        // sub-panel letter: F1, T2, E10, F3b.
        for word in row.split(|c: char| !c.is_ascii_alphanumeric()) {
            let mut chars = word.chars();
            let is_id = matches!(chars.next(), Some('A' | 'E' | 'F' | 'T'))
                && matches!(chars.next(), Some(c) if c.is_ascii_digit());
            if !is_id {
                continue;
            }
            let id = word.trim_end_matches(|c: char| c.is_ascii_lowercase());
            assert!(find(id).is_some(), "status table cites {word}: {row}");
            cited += 1;
        }
    }
    assert!(
        cited >= 10,
        "only {cited} experiment ids found in the table"
    );
}

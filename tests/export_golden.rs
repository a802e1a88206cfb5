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
//! Four more pin every other writer a user reads: the `jsonl`, Chrome and
//! `--format json` renderings of a slice holding every [`TraceEventKind`],
//! one failing run's `phtool run --json` report, the hunt telemetry's
//! Prometheus exposition, and `phtool check --json`.
//!
//! Regenerate after an intentional exporter or scenario change with
//! `PH_EXPORT_BLESS=1 cargo test -p ph-scenarios --test integration export_golden`.

use std::fs;
use std::path::{Path, PathBuf};

use std::collections::BTreeSet;

use ph_core::perturb::NoFault;
use ph_core::{DetectionMatrix, TrialOutcome};
use ph_scenarios::experiments::{find, EXPERIMENTS};
use ph_scenarios::{congestion, lookup, Variant};
use ph_sim::{trace_to_chrome, trace_to_jsonl, DropReason, Trace, TraceEventKind};

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

/// The scarce congestion run, once: the past-capacity acceptance gate,
/// then its pinned exports.
#[test]
fn congestion_queue_exports_are_pinned() {
    let scenario = congestion::at_capacity::<{ congestion::CAPACITY_SCARCE }>();
    let (report, trace) = scenario.run_traced(1, &mut NoFault, Variant::Buggy);
    crate::congestion_staleness::past_capacity_staleness_emerges_and_is_classified_as_congestion(
        &scenario, &report, &trace,
    );

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

/// Position of an event kind in declaration order. Exhaustive on purpose:
/// a new variant fails to compile here until the slice below covers it.
fn kind_index(kind: &TraceEventKind) -> usize {
    use TraceEventKind as K;
    match kind {
        K::Spawned { .. } => 0,
        K::MessageSent { .. } => 1,
        K::MessageDelivered { .. } => 2,
        K::MessageDropped { .. } => 3,
        K::MessageHeld { .. } => 4,
        K::MessageDelayed { .. } => 5,
        K::MessageQueued { .. } => 6,
        K::MessageReleased { .. } => 7,
        K::TimerSet { .. } => 8,
        K::TimerFired { .. } => 9,
        K::Crashed { .. } => 10,
        K::Restarted { .. } => 11,
        K::Annotation { .. } => 12,
        K::SpanBegin { .. } => 13,
        K::SpanEnd { .. } => 14,
    }
}
const KINDS: usize = 15;

/// The first `per_kind` events of each kind, plus the delivery of every
/// kept send (so the Chrome export has flow pairs to draw).
fn first_of_each_kind(trace: &Trace, per_kind: usize) -> Trace {
    let mut seen = [0; KINDS];
    let mut keep = BTreeSet::new();
    let mut sent = BTreeSet::new();
    for e in trace.iter() {
        let k = kind_index(&e.kind);
        if seen[k] < per_kind {
            seen[k] += 1;
            keep.insert(e.seq);
            if let TraceEventKind::MessageSent { id, .. } = &e.kind {
                sent.insert(*id);
            }
        }
    }
    trace.filtered(|e| {
        keep.contains(&e.seq)
            || matches!(&e.kind, TraceEventKind::MessageDelivered { id, .. } if sent.contains(id))
    })
}

/// No one scenario emits every event kind (`held`/`released` come only
/// from k8s-59848, `delayed` only from hbase-3136, `queued` only from
/// congestion), so the slice is the first few of each kind from all three
/// guided runs, each exported on its own.
#[test]
fn every_event_kind_exports_are_pinned() {
    let (mut jsonl, mut chrome, mut json) = (String::new(), String::new(), String::new());
    let mut covered = BTreeSet::new();
    for name in ["k8s-59848", "hbase-3136", "congestion"] {
        let scenario = lookup(name).expect("registered scenario");
        let (_, trace) =
            scenario.run_traced(1, scenario.strategy("guided", 1).as_mut(), Variant::Buggy);
        let slice = first_of_each_kind(&trace, 3);
        covered.extend(slice.iter().map(|e| kind_index(&e.kind)));
        jsonl.push_str(&trace_to_jsonl(&slice));
        chrome.push_str(&trace_to_chrome(&slice));
        chrome.push('\n');
        json.push_str(&slice.to_json());
        json.push('\n');
    }
    assert_eq!(covered.len(), KINDS, "the slices miss an event kind");
    check("all_kinds.jsonl", &jsonl);
    check("all_kinds.chrome.json", &chrome);
    check("all_kinds.trace.json", &json);
}

/// A failing run's report: violations, metrics, divergence and blame. The
/// digest's value is not an interface (DESIGN.md §6.3), so it is masked.
#[test]
fn failing_run_report_json_is_pinned() {
    let report = crate::guided_report("k8s-59848");
    assert!(report.failed() && report.blame.is_some());
    assert!(!report.divergence.is_empty() && !report.metrics.is_empty());
    let digest = format!("\"trace_digest\":\"{:#018x}\"", report.trace_digest);
    let json = report.to_json();
    assert_eq!(json.matches(&digest).count(), 1);
    check(
        "k8s_59848_run_report.json",
        &(json.replace(&digest, "\"trace_digest\":\"<masked>\"") + "\n"),
    );
}

fn telemetry_cell(first_violation: Option<u32>) -> TrialOutcome {
    TrialOutcome {
        scenario: "s".into(),
        strategy: "guided".into(),
        trials_run: 3,
        distinct_classes: 2,
        deduped_trials: 0,
        first_violation,
        example: None,
        total_events: 300,
        total_sim_ns: 3_000_000_000,
        trial_sim_ns: vec![1_000_000_000; 3],
    }
}

/// The hunt telemetry exposition of one detected and one undetected cell.
#[test]
fn detection_matrix_prometheus_is_pinned() {
    let mut matrix = DetectionMatrix::new();
    matrix.add(telemetry_cell(Some(1)));
    matrix.add(telemetry_cell(None));
    check("detection_matrix.prom", &matrix.to_prometheus());
}

#[test]
fn phtool_check_json_is_pinned() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_phtool"))
        .args(["check", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawning phtool");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    check("phtool_check.json", &String::from_utf8(out.stdout).unwrap());
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

//! Static/dynamic agreement over all nine scenarios (the acceptance
//! gate of the hazard analysis).
//!
//! For every scenario the symbolic model checker must produce a minimal
//! hazard witness of the documented §4.2 class for the buggy variant's
//! access summaries and prove the fixed variant's epoch-safe — and the
//! dynamic explorer must confirm both verdicts: the guided run on the
//! buggy variant detects a violation, the same injection on the fixed
//! variant stays clean. One [`CrossCheckTable`] holds all four columns;
//! `all_agree()` is the theorem. The backward trace slicer
//! ([`ph_core::provenance::explain`]) must then blame each buggy
//! violation on the same class: static prediction and dynamic provenance
//! tell one story.
//!
//! The file also pins the determinism contract of the checker itself:
//! the same IR yields byte-identical witness JSON across repeated
//! in-process runs and across any worker count of the parallel runner —
//! and the IR↔source conformance pass reports zero drift on the real
//! `ph-cluster` tree.

use std::collections::BTreeSet;

use ph_core::crosscheck::CrossCheckTable;
use ph_core::parallel::run_indexed;
use ph_lint::modelcheck::model_check_all;
use ph_scenarios::{scenario_statics, Variant};

/// Builds the full table: static verdicts from the model checker (via
/// [`ph_scenarios::static_crosscheck`], the same source `phtool lint`
/// renders), dynamic verdicts from one guided trial per variant (seed 1 —
/// every scenario's tuned injection is deterministic and seed-stable). The
/// buggy trials are the binary's shared [`crate::guided_seed1`] runs.
fn full_table() -> CrossCheckTable {
    let mut table = ph_scenarios::static_crosscheck();
    let rows = table.rows.iter_mut().zip(scenario_statics());
    for ((row, e), (buggy, _)) in rows.zip(crate::guided_seed1()) {
        assert_eq!(row.scenario, e.name, "row order must match scenario order");
        let fixed_report = (e.run)(1, (e.guided)(1).as_mut(), Variant::Fixed);
        row.dynamic_buggy_detected = Some(buggy.failed());
        row.dynamic_fixed_clean = Some(!fixed_report.failed());
    }
    table
}

#[test]
fn static_analysis_agrees_with_dynamic_exploration_on_all_scenarios() {
    let table = full_table();
    assert_eq!(table.rows.len(), 9, "all nine scenarios must be wired");
    for (row, (report, chain)) in table.rows.iter().zip(crate::guided_seed1()) {
        assert!(
            row.buggy_classes().contains(&row.expected),
            "{}: static pass missed the documented class {} (flagged: {:?})",
            row.scenario,
            row.expected,
            row.buggy_classes()
        );
        assert!(
            row.fixed_epoch_safe(),
            "{}: fixed variant statically flagged: {:?}",
            row.scenario,
            row.fixed
        );
        assert!(
            !row.buggy_witnesses().is_empty(),
            "{}: model checker produced no witness for the buggy variant",
            row.scenario
        );
        assert_eq!(
            row.dynamic_buggy_detected,
            Some(true),
            "{}: guided dynamic run failed to detect the buggy variant",
            row.scenario
        );
        assert_eq!(
            row.dynamic_fixed_clean,
            Some(true),
            "{}: fixed variant violated dynamically",
            row.scenario
        );
        assert_eq!(
            chain.class,
            row.expected,
            "{}: dynamic blame class {} disagrees with the static class {}\nrationale: {}\n{}",
            row.scenario,
            chain.class,
            row.expected,
            chain.rationale,
            chain.render()
        );
        // The chain is non-trivial, and the report summary agrees.
        let summary = report.blame.expect("failing run carries a blame summary");
        assert_eq!(summary.class, chain.class, "{}", row.scenario);
        assert_eq!(summary.injected, chain.injected, "{}", row.scenario);
        if chain.class == ph_lint::summary::PatternClass::CongestionStaleness {
            // The defining property of the emergent class: the guided
            // strategy reshapes link capacity but injects nothing — every
            // artifact in the chain is the queue's own queue-delay or
            // queue-drop, which count as emergent, not injected.
            assert_eq!(
                chain.injected, 0,
                "{}: a traffic surge must not count as injection",
                row.scenario
            );
            assert!(
                !chain.links.is_empty(),
                "{}: emergent queue artifacts must be causally implicated",
                row.scenario
            );
        } else {
            assert!(
                chain.injected > 0,
                "{}: guided injection must leave artifacts",
                row.scenario
            );
            assert!(
                chain.in_chain > 0,
                "{}: at least one injected artifact must be causally implicated",
                row.scenario
            );
        }
    }
    assert!(table.all_agree(), "\n{}", table.render_text());
}

#[test]
fn static_only_table_from_the_library_agrees() {
    // `phtool lint` renders exactly this table; keep its verdict pinned.
    let table = ph_scenarios::static_crosscheck();
    assert_eq!(table.rows.len(), 9);
    assert!(table.all_static_agree(), "\n{}", table.render_text());
    let json = table.to_json();
    assert!(json.contains("\"all_static_agree\":true"));
    assert!(json.contains("\"witnesses\":["));
}

#[test]
fn model_checker_witnesses_the_documented_class_and_proves_fixed_safe() {
    for e in scenario_statics() {
        let buggy = model_check_all(&(e.summaries)(Variant::Buggy));
        let classes: BTreeSet<_> = buggy
            .iter()
            .flat_map(|r| r.witnesses())
            .map(|w| w.class)
            .collect();
        assert!(
            classes.contains(&e.pattern),
            "{}: no minimal witness of class {} (witnessed: {:?})",
            e.name,
            e.pattern,
            classes
        );
        let fixed = model_check_all(&(e.summaries)(Variant::Fixed));
        for r in &fixed {
            assert!(
                r.is_epoch_safe(),
                "{}: fixed component {} not proved epoch-safe:\n{}",
                e.name,
                r.component,
                r.to_json()
            );
        }
    }
}

/// All nine scenarios' buggy-variant model-check reports as one JSON
/// blob, produced across `threads` workers of the deterministic runner.
fn witness_blob(threads: usize) -> String {
    let entries = scenario_statics();
    run_indexed(threads, entries.len(), |i| {
        model_check_all(&(entries[i].summaries)(Variant::Buggy))
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join("\n")
    })
    .join("\n")
}

#[test]
fn witness_json_is_byte_identical_across_runs_and_thread_counts() {
    // Two in-process runs: the checker has no hidden state.
    let first = witness_blob(1);
    let second = witness_blob(1);
    assert_eq!(first, second, "repeated runs must agree byte-for-byte");
    // Worker count must be invisible: `--threads 1` vs N.
    for threads in [2, 4, 8] {
        assert_eq!(
            first,
            witness_blob(threads),
            "witness JSON diverged at {threads} threads"
        );
    }
    // Sanity: the blob actually carries witnesses for every scenario.
    assert!(first.matches("\"verdict\":\"hazardous\"").count() >= 9);
}

#[test]
fn conformance_pass_reports_zero_drift_on_the_real_tree() {
    // `phtool check` runs exactly this scan; keep the tree clean.
    let cluster_src = concat!(env!("CARGO_MANIFEST_DIR"), "/../cluster/src");
    let scans =
        ph_lint::conformance::scan_dir(std::path::Path::new(cluster_src), "crates/cluster/src")
            .expect("cluster sources must be readable");
    assert!(
        !scans.is_empty(),
        "scanner found no sources under {cluster_src}"
    );
    let declared = ph_cluster::topology::declared_access_summaries();
    assert_eq!(declared.len(), 8, "every component must declare a summary");
    let findings = ph_lint::conformance::check_conformance(&scans, &declared);
    let unsuppressed: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(
        unsuppressed.is_empty(),
        "IR drift against the real tree:\n{}",
        unsuppressed
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

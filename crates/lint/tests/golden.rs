//! Golden-file tests: each fixture under `tests/fixtures/` is linted as if
//! it sat at a pretend workspace path (rule scoping depends on the path),
//! and the deterministic JSON report must match the checked-in `.golden`
//! byte for byte.
//!
//! Regenerate after an intentional rule change with
//! `PH_LINT_BLESS=1 cargo test -p ph-lint --test golden`.

use std::fs;
use std::path::{Path, PathBuf};

use ph_lint::findings::{Finding, LintReport};
use ph_lint::rules::{lint_file, FileMeta};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints `fixtures/<name>.rs` as if it lived at `pretend`, compares the
/// JSON report against `fixtures/<name>.golden`, and returns the findings
/// for semantic assertions.
fn check(name: &str, pretend: &str) -> Vec<Finding> {
    let dir = fixtures_dir();
    let src = fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let mut report = LintReport {
        findings: lint_file(&FileMeta::from_path(pretend), &src),
        files_scanned: 1,
    };
    report.sort();
    let got = report.to_json();
    let golden_path = dir.join(format!("{name}.golden"));
    if std::env::var_os("PH_LINT_BLESS").is_some() {
        fs::write(&golden_path, &got).unwrap();
    } else {
        let want = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("reading {name}.golden (PH_LINT_BLESS=1 to create): {e}"));
        assert_eq!(
            got, want,
            "golden mismatch for {name} (PH_LINT_BLESS=1 to regenerate)"
        );
    }
    report.findings
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn wall_clock_golden() {
    let fs = check("wall_clock", "crates/sim/src/fixture.rs");
    assert_eq!(rules_of(&fs), ["wall-clock", "wall-clock"]);
    assert!(fs.iter().all(|f| f.suppressed.is_none()));
}

#[test]
fn unordered_iter_golden() {
    let fs = check("unordered_iter", "crates/store/src/fixture.rs");
    assert_eq!(
        rules_of(&fs),
        ["unordered-iter", "unordered-iter", "unordered-iter"]
    );
}

#[test]
fn unordered_iter_outside_trace_affecting_crates_is_clean() {
    // The same source in a non-trace-affecting crate produces nothing —
    // no golden needed, emptiness is the assertion.
    let src = fs::read_to_string(fixtures_dir().join("unordered_iter.rs")).unwrap();
    let fs = lint_file(&FileMeta::from_path("crates/bench/src/fixture.rs"), &src);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn unseeded_rng_golden() {
    // RNG findings fire even under a tests/ path.
    let fs = check("unseeded_rng", "crates/scenarios/tests/fixture.rs");
    assert_eq!(rules_of(&fs), ["unseeded-rng", "unseeded-rng"]);
}

#[test]
fn thread_primitive_golden() {
    let fs = check("thread_primitive", "crates/core/src/fixture.rs");
    assert!(!fs.is_empty());
    assert!(fs.iter().all(|f| f.rule == "thread-primitive"));
}

#[test]
fn thread_primitive_carve_out_is_exempt() {
    let src = fs::read_to_string(fixtures_dir().join("thread_primitive.rs")).unwrap();
    let fs = lint_file(&FileMeta::from_path("crates/core/src/parallel.rs"), &src);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn stray_print_golden() {
    let fs = check("stray_print", "crates/cluster/src/fixture.rs");
    assert_eq!(rules_of(&fs), ["stray-print", "stray-print", "stray-print"]);
}

#[test]
fn prometheus_writer_suppression_golden() {
    // A metrics exporter's sanctioned stdout use: a Prometheus
    // text-exposition writer. Its reasoned allow must suppress exactly the
    // exposition println and nothing else.
    let fs = check("prometheus_writer", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&fs), ["stray-print", "stray-print"]);
    let (writer, leak) = (&fs[0], &fs[1]);
    assert!(
        writer
            .suppressed
            .as_deref()
            .is_some_and(|r| r.contains("Prometheus text exposition")),
        "{writer:?}"
    );
    assert!(leak.suppressed.is_none(), "{leak:?}");
}

#[test]
fn suppression_with_reason_reports_but_does_not_gate() {
    let fs = check("suppression_ok", "crates/sim/src/fixture.rs");
    assert_eq!(fs.len(), 2);
    assert!(fs.iter().all(|f| f.suppressed.is_some()), "{fs:?}");
}

#[test]
fn suppression_without_reason_gates_twice() {
    let fs = check("suppression_missing_reason", "crates/sim/src/fixture.rs");
    // The reasonless allow is its own finding, the wall-clock it tried to
    // cover stays unsuppressed, and the mismatched-rule allow in the
    // second function suppresses nothing either.
    assert!(fs.iter().any(|f| f.rule == "bad-suppression"));
    let wall: Vec<_> = fs.iter().filter(|f| f.rule == "wall-clock").collect();
    assert_eq!(wall.len(), 2);
    assert!(wall.iter().all(|f| f.suppressed.is_none()), "{fs:?}");
}

#[test]
fn unsafe_block_golden() {
    let fs = check("unsafe_block", "crates/sim/src/fixture.rs");
    assert_eq!(
        rules_of(&fs),
        ["unsafe-block", "unsafe-block", "unsafe-block"]
    );
    assert!(fs.iter().all(|f| f.suppressed.is_none()));
}

#[test]
fn schedule_canon_golden() {
    let fs = check("schedule_canon", "crates/scenarios/src/fixture.rs");
    assert_eq!(rules_of(&fs), ["schedule-canon"]);
    assert!(fs[0].suppressed.is_none());
    assert_eq!(fs[0].line, 6, "anchors on the first construction site");
}

#[test]
fn schedule_canon_allowed_golden() {
    let fs = check("schedule_canon_allowed", "crates/scenarios/src/fixture.rs");
    assert_eq!(rules_of(&fs), ["schedule-canon"]);
    assert!(
        fs[0]
            .suppressed
            .as_deref()
            .is_some_and(|r| r.contains("canonical minimal words")),
        "{fs:?}"
    );
}

#[test]
fn schedule_canon_in_tests_is_clean() {
    let src = fs::read_to_string(fixtures_dir().join("schedule_canon.rs")).unwrap();
    let fs = lint_file(
        &FileMeta::from_path("crates/scenarios/tests/fixture.rs"),
        &src,
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn cfg_test_module_golden_is_empty() {
    let fs = check("cfg_test_clean", "crates/sim/src/fixture.rs");
    assert!(fs.is_empty(), "{fs:?}");
}

//! # ph-lint — static determinism lint + partial-history hazard analysis
//!
//! Two static passes that complement the dynamic explorer:
//!
//! 1. **Determinism lint** ([`rules`], [`lexer`], [`findings`]): every
//!    guarantee the repo sells — byte-identical replay, parallel ≡
//!    sequential exploration — rests on the workspace containing zero
//!    nondeterminism. The lint scans all `.rs` files with a hand-rolled
//!    comment/string-aware cleaner and flags wall-clock reads, unordered
//!    hash iteration in trace-affecting crates, entropy-seeded RNG, thread
//!    primitives outside the deterministic pool, and stray prints.
//!    Suppressions (`// ph-lint: allow(<rule>, <reason>)`) require a
//!    reason.
//!
//! 2. **Partial-history hazard analysis** ([`summary`], [`modelcheck`]):
//!    each ph-cluster component exports an [`summary::AccessSummary`] of
//!    how it reads (cache vs. quorum lists, watches, resyncs) and what
//!    gates its destructive actions; a bounded explicit-state model
//!    checker explores the IR's freshness state space under an alphabet of
//!    abstract perturbations and, per destructive action, either emits a
//!    **minimal hazard witness** (the shortest schedule reaching a §4.2
//!    pattern — staleness, time travel, observability gap, congestion
//!    staleness) or proves the action **epoch-safe** — *before anything
//!    runs*. It is the one static classifier. The checker's
//!    search is pruned by a static **independence relation**
//!    ([`independence`]): letters on disjoint views commute unless a
//!    declared gate path reads both, so a sleep-set partial-order
//!    reduction expands one representative per commutation class —
//!    provably without changing any verdict or witness. The same
//!    auditable [`independence::IndependenceMatrix`] drives
//!    canonical-schedule dedup in the dynamic explorer
//!    (`ph_core::canon`).
//!
//! 3. **IR ↔ source conformance** ([`conformance`]): a lightweight item
//!    scanner over the ph-cluster sources extracts the access protocol the
//!    code actually implements and diffs it against the declared
//!    summaries, so the IR can never silently rot.
//!
//! All passes are wired into `phtool lint` / `phtool check`; the hazard
//! pass is cross-checked against the dynamic explorer over all nine
//! scenarios, and its witnesses seed the explorer's guided search.
//!
//! 4. **The JSON writer** ([`json`]): one escaper and one object/array
//!    writer under every JSON report and export in the workspace — trace
//!    exports, run reports, blame chains, lint and check verdicts.
//!
//! This crate has **no dependencies** (std only) and sits below every
//! other workspace crate so they can export summaries in its IR and write
//! JSON through its one writer.

#![forbid(unsafe_code)]

pub mod conformance;
pub mod findings;
pub mod independence;
pub mod json;
pub mod lexer;
pub mod modelcheck;
pub mod rules;
pub mod summary;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use findings::LintReport;
use rules::{lint_file, FileMeta};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Collects all workspace `.rs` files under `root`, sorted for
/// deterministic output. `fixtures` directories are skipped — they hold
/// deliberately bad source for the lint's own golden tests.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the determinism lint over every `.rs` file under `root` (a
/// workspace checkout). Findings use repo-relative paths.
pub fn scan_workspace(root: &Path) -> io::Result<LintReport> {
    let files = collect_rs_files(root)?;
    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        let meta = FileMeta::from_path(&rel);
        report.findings.extend(lint_file(&meta, &src));
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_handles_a_small_tree() {
        let dir = std::env::temp_dir().join("ph-lint-scan-test");
        let src_dir = dir.join("crates/sim/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("bad.rs"),
            "pub fn t() { let _ = std::time::Instant::now(); }\n",
        )
        .unwrap();
        let report = scan_workspace(&dir).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.unsuppressed_count(), 1);
        assert_eq!(report.findings[0].file, "crates/sim/src/bad.rs");
        fs::remove_dir_all(&dir).ok();
    }
}

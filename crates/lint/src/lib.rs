//! # ph-lint — partial-history hazard analysis
//!
//! The workspace's determinism contract — no wall clock, no unordered
//! hash iteration, no entropy, no threads or locks outside
//! `ph-core::parallel`, no stray prints, no `unsafe` — is enforced by the
//! compiler and clippy, not here: `crates/clippy.toml` and the root
//! manifest's `[workspace.lints]` (DESIGN.md §6.1). This crate holds the
//! static passes that need the repo's own IR:
//!
//! 1. **The `ph-lint:` directive audit** ([`scan_workspace`], [`lexer`],
//!    [`findings`]): conformance drift is suppressed with a
//!    `// ph-lint: allow(<rule>, <reason>)` comment, and a directive
//!    without a reason is a finding of its own, so every suppression says
//!    why.
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

pub mod conformance;
pub mod findings;
pub mod independence;
pub mod json;
pub mod lexer;
pub mod modelcheck;
pub mod summary;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use findings::{Finding, LintReport};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git"];

/// Collects all workspace `.rs` files under `root`, sorted for
/// deterministic output.
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

/// Audits every `ph-lint:` directive in the `.rs` files under `root` (a
/// workspace checkout): each malformed one, a reasonless `allow` among
/// them, is a `bad-suppression` finding, which no directive can suppress.
/// Findings use repo-relative paths, in file order and then line order.
pub fn scan_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        report.findings.extend(
            lexer::clean(&src)
                .bad_directives
                .into_iter()
                .map(|bad| Finding {
                    rule: "bad-suppression".to_string(),
                    file: rel.clone(),
                    line: bad.line,
                    message: format!("malformed ph-lint directive: {}", bad.problem),
                    suppressed: None,
                }),
        );
        report.files_scanned += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_handles_a_small_tree() {
        let dir = std::env::temp_dir().join("ph-lint-scan-test");
        fs::remove_dir_all(&dir).ok();
        let src_dir = dir.join("crates/cluster/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("bad.rs"),
            "// ph-lint: allow(ir-conformance)\npub fn t() {}\n",
        )
        .unwrap();
        fs::write(
            src_dir.join("ok.rs"),
            "// ph-lint: allow(ir-conformance, the reason it is fine)\npub fn t() {}\n",
        )
        .unwrap();
        let report = scan_workspace(&dir).unwrap();
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.unsuppressed_count(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.file, "crates/cluster/src/bad.rs");
        assert_eq!(
            (finding.rule.as_str(), finding.line),
            ("bad-suppression", 1)
        );
        fs::remove_dir_all(&dir).ok();
    }
}

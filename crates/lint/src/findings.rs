//! Lint findings and their deterministic text/JSON renderings.

use crate::json;

/// The JSON escaper, kept at the path callers outside the workspace import.
pub use crate::json::esc;

/// One lint finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `ir-conformance`.
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of what matched and why it matters.
    pub message: String,
    /// `Some(reason)` if a well-formed `ph-lint: allow` covers this line.
    pub suppressed: Option<String>,
}

impl Finding {
    /// Deterministic JSON object; `suppressed` is the reason or `null`.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("rule", &self.rule)
                .str("file", &self.file)
                .val("line", self.line)
                .str("message", &self.message)
                .opt_str("suppressed", self.suppressed.as_deref());
        })
    }
}

/// The result of a workspace directive audit ([`crate::scan_workspace`]).
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in file order and then line order.
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Count of findings not covered by a suppression — these gate CI.
    pub fn unsuppressed_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.suppressed.is_none())
            .count()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "finding   {}:{} [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "directives: {} malformed, {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raws("findings", self.findings.iter().map(Finding::to_json))
                .val("unsuppressed", self.unsuppressed_count())
                .val("files_scanned", self.files_scanned);
        })
    }
}

//! Lint findings and their deterministic text/JSON renderings.

use crate::json;

/// The JSON escaper, kept at the path callers outside the workspace import.
pub use crate::json::esc;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `stale-directive`.
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of what matched and why it matters.
    pub message: String,
}

impl Finding {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("rule", &self.rule)
                .str("file", &self.file)
                .val("line", self.line)
                .str("message", &self.message);
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
    /// Human-readable report. Its count line calls every directive
    /// malformed: the syntax is retired, so none is well-formed.
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

    /// Deterministic JSON rendering. `unsuppressed` counts every finding,
    /// since none can be suppressed; the key keeps the report's shape.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raws("findings", self.findings.iter().map(Finding::to_json))
                .val("unsuppressed", self.findings.len())
                .val("files_scanned", self.files_scanned);
        })
    }
}

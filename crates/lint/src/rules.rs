//! The determinism rules.
//!
//! Each rule is a textual check over [`crate::lexer`]-cleaned source lines,
//! scoped by file kind and crate. The scoping encodes the repo's
//! determinism contract: everything that can affect a trace — ph-sim,
//! ph-store, ph-cluster, ph-core library code — must be bit-reproducible,
//! while tests, benches and binaries get progressively more slack.
//!
//! | rule               | what it catches                                   |
//! |--------------------|---------------------------------------------------|
//! | `wall-clock`       | `Instant::now` / `SystemTime::now` in libraries   |
//! | `unordered-iter`   | `HashMap`/`HashSet` in trace-affecting crates     |
//! | `unseeded-rng`     | `thread_rng`, `from_entropy`, `OsRng`, anywhere   |
//! | `thread-primitive` | threads/atomics/locks/thread-locals/`Arc` outside `ph-core::parallel` |
//! | `stray-print`      | `println!`/`eprintln!`/`dbg!` in libraries        |
//! | `unsafe-block`     | `unsafe` anywhere — backstop behind `forbid(unsafe_code)` |
//! | `bad-suppression`  | `ph-lint:` directives without a reason            |
//! | `schedule-canon`   | hand-built perturbation schedules fed to the explorer without canonicalization |

use crate::findings::Finding;
use crate::lexer::{clean, test_line_mask};

/// How a `.rs` file is used, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — the strictest scope.
    Lib,
    /// A binary under `src/bin/`.
    Bin,
    /// Integration tests (`tests/` directories).
    Test,
    /// Benches (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// Identity of a file being linted.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace crate directory name (`sim`, `store`, …); empty for files
    /// outside `crates/` such as the root `tests/`.
    pub krate: String,
    /// Repo-relative path, used in findings.
    pub path: String,
    /// Role of the file.
    pub kind: FileKind,
}

impl FileMeta {
    /// Classifies a repo-relative path (`crates/sim/src/world.rs` …).
    pub fn from_path(path: &str) -> FileMeta {
        let krate = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
            .to_string();
        let kind = if path.contains("/tests/") || path.starts_with("tests/") {
            FileKind::Test
        } else if path.contains("/benches/") || path.starts_with("benches/") {
            FileKind::Bench
        } else if path.contains("/examples/") || path.starts_with("examples/") {
            FileKind::Example
        } else if path.contains("/src/bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        FileMeta {
            krate,
            path: path.to_string(),
            kind,
        }
    }
}

/// Crates whose library code feeds the trace digest: any nondeterminism
/// here breaks byte-identical replay and parallel ≡ sequential exploration.
const TRACE_AFFECTING: &[&str] = &["sim", "store", "cluster", "core"];

/// The one sanctioned home for thread/atomic primitives: the deterministic
/// worker pool behind parallel exploration.
const THREAD_CARVE_OUT: &str = "crates/core/src/parallel.rs";

/// A rule's static description, for docs and the `--json` rule table.
pub struct RuleInfo {
    /// Stable rule id used in findings and suppressions.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// All rule ids with summaries, in canonical order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "Instant::now/SystemTime::now in library code — sim time must come from the World clock",
    },
    RuleInfo {
        id: "unordered-iter",
        summary: "HashMap/HashSet in trace-affecting crates — iteration order is nondeterministic; use BTreeMap/BTreeSet",
    },
    RuleInfo {
        id: "unseeded-rng",
        summary: "thread-local or entropy-seeded RNG — all randomness must derive from the trial seed",
    },
    RuleInfo {
        id: "thread-primitive",
        summary: "threads/atomics/locks/thread-locals/Arc outside ph-core::parallel — concurrency lives in the deterministic pool; sim code shares with Rc, and no state outlives its World",
    },
    RuleInfo {
        id: "stray-print",
        summary: "println!/eprintln!/dbg! in library code — output belongs in metrics or the trace",
    },
    RuleInfo {
        id: "unsafe-block",
        summary: "unsafe code anywhere in the workspace — backstop behind #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "bad-suppression",
        summary: "ph-lint: allow(...) without a reason — every suppression must say why",
    },
    RuleInfo {
        id: "schedule-canon",
        summary: "Letter/PlannedOp schedule built by hand in a file that feeds the explorer without canonicalize/plan_class — duplicate commutation classes burn trials",
    },
];

/// Is `ident` present in `line` with identifier boundaries on both sides?
fn has_ident(line: &str, ident: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(ident) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = line[at + ident.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + ident.len();
    }
    false
}

/// Is the macro `name!` invoked on `line` (boundary-checked)?
fn has_macro(line: &str, name: &str) -> bool {
    let with_bang = format!("{name}!");
    let mut start = 0;
    while let Some(pos) = line[start..].find(&with_bang) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        start = at + with_bang.len();
    }
    false
}

/// Lints one file's source; returns findings sorted by line.
pub fn lint_file(meta: &FileMeta, src: &str) -> Vec<Finding> {
    let cleaned = clean(src);
    let test_mask = test_line_mask(&cleaned.lines);
    let mut findings = Vec::new();

    let trace_affecting = TRACE_AFFECTING.contains(&meta.krate.as_str());
    let lib = meta.kind == FileKind::Lib;

    for (idx, raw_line) in cleaned.lines.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = test_mask[idx] || meta.kind == FileKind::Test;
        // Whitespace-compressed view so `Instant :: now` still matches.
        let line: String = raw_line.split_whitespace().collect::<Vec<_>>().join(" ");
        let packed: String = raw_line.split_whitespace().collect();

        let emit = |rule: &str, message: String, findings: &mut Vec<Finding>| {
            let suppressed = cleaned.suppression(rule, line_no).map(|d| d.reason.clone());
            findings.push(Finding {
                rule: rule.to_string(),
                file: meta.path.clone(),
                line: line_no,
                message,
                suppressed,
            });
        };

        // wall-clock: library code only; sim/test/bench time is either the
        // World clock or explicitly the harness's business.
        if lib
            && !in_test
            && (packed.contains("Instant::now(") || packed.contains("SystemTime::now("))
        {
            emit(
                "wall-clock",
                "wall-clock read in library code; use the simulated clock".to_string(),
                &mut findings,
            );
        }

        // unordered-iter: trace-affecting library code must not iterate
        // hash containers (order varies run to run).
        if lib
            && !in_test
            && trace_affecting
            && (has_ident(&line, "HashMap") || has_ident(&line, "HashSet"))
        {
            emit(
                "unordered-iter",
                "HashMap/HashSet in a trace-affecting crate; use BTreeMap/BTreeSet or sort keys"
                    .to_string(),
                &mut findings,
            );
        }

        // unseeded-rng: everywhere, including tests — a test seeded from
        // entropy is a flaky test.
        if packed.contains("thread_rng(")
            || packed.contains("from_entropy(")
            || packed.contains("rand::random")
            || has_ident(&line, "OsRng")
        {
            emit(
                "unseeded-rng",
                "entropy-seeded RNG; derive randomness from the trial seed".to_string(),
                &mut findings,
            );
        }

        // thread-primitive: trace-affecting library code, except the
        // deterministic pool itself. `Arc` counts: cross-thread sharing in
        // the single-threaded sim is a design smell (its atomic refcounts
        // also cost on the hot path) — share with `Rc` instead. So does a
        // thread-local: state it keeps outlives the world that wrote it
        // and carries over into the next trial on that thread.
        if lib
            && !in_test
            && trace_affecting
            && meta.path != THREAD_CARVE_OUT
            && (packed.contains("std::thread")
                || packed.contains("thread::spawn(")
                || packed.contains("sync::atomic")
                || packed.contains("std::sync::mpsc")
                || has_ident(&line, "Mutex")
                || has_ident(&line, "RwLock")
                || has_ident(&line, "Condvar")
                || has_ident(&line, "Arc")
                || has_macro(&line, "thread_local")
                || line.contains("Atomic"))
        {
            emit(
                "thread-primitive",
                "thread/atomic/lock/Arc primitive outside ph-core::parallel".to_string(),
                &mut findings,
            );
        }

        // stray-print: library code of every crate; diagnostics belong in
        // metrics/trace so replays stay byte-identical and quiet.
        if lib
            && !in_test
            && (has_macro(&line, "println")
                || has_macro(&line, "eprintln")
                || has_macro(&line, "print")
                || has_macro(&line, "eprint")
                || has_macro(&line, "dbg"))
        {
            emit(
                "stray-print",
                "print/dbg output in library code; route through metrics or the trace".to_string(),
                &mut findings,
            );
        }

        // unsafe-block: everywhere, every file kind, tests included —
        // every crate carries #![forbid(unsafe_code)], so this only fires
        // if someone also removes the attribute; a textual backstop keeps
        // the two honest against each other.
        if has_ident(&line, "unsafe") {
            emit(
                "unsafe-block",
                "unsafe code; the workspace forbids unsafe_code in every crate".to_string(),
                &mut findings,
            );
        }
    }

    // schedule-canon: a whole-file rule. Library or binary code that both
    // hand-builds perturbation schedules (`vec![Letter::…]`,
    // `.push(Letter::…)`, or their `PlannedOp` twins) and feeds the
    // explorer (`.explore(`, `explore_parallel(`, `first_detection`) must
    // canonicalize them (`canonicalize`/`plan_class`) — otherwise
    // schedules differing only by commuting swaps run as separate trials.
    if matches!(meta.kind, FileKind::Lib | FileKind::Bin) {
        let mut first_build: Option<usize> = None;
        let mut feeds_explorer = false;
        let mut canonicalizes = false;
        for (idx, raw_line) in cleaned.lines.iter().enumerate() {
            if test_mask[idx] {
                continue;
            }
            let packed: String = raw_line.split_whitespace().collect();
            if first_build.is_none()
                && (packed.contains("vec![Letter::")
                    || packed.contains(".push(Letter::")
                    || packed.contains("vec![PlannedOp::")
                    || packed.contains(".push(PlannedOp::"))
            {
                first_build = Some(idx + 1);
            }
            if packed.contains(".explore(")
                || packed.contains("explore_parallel(")
                || packed.contains("first_detection")
            {
                feeds_explorer = true;
            }
            if packed.contains("canonicalize") || packed.contains("plan_class") {
                canonicalizes = true;
            }
        }
        if let Some(line_no) = first_build {
            if feeds_explorer && !canonicalizes {
                let suppressed = cleaned
                    .suppression("schedule-canon", line_no)
                    .map(|d| d.reason.clone());
                findings.push(Finding {
                    rule: "schedule-canon".to_string(),
                    file: meta.path.clone(),
                    line: line_no,
                    message: "hand-built schedule feeds the explorer without canonicalization; \
                              pass it through canonicalize()/plan_class()"
                        .to_string(),
                    suppressed,
                });
            }
        }
    }

    // Malformed directives are findings themselves and cannot be
    // suppressed — otherwise a reasonless allow could allow itself.
    for bad in &cleaned.bad_directives {
        findings.push(Finding {
            rule: "bad-suppression".to_string(),
            file: meta.path.clone(),
            line: bad.line,
            message: format!("malformed ph-lint directive: {}", bad.problem),
            suppressed: None,
        });
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(krate: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let meta = FileMeta {
            krate: krate.to_string(),
            path: format!("crates/{krate}/src/x.rs"),
            kind,
        };
        lint_file(&meta, src)
    }

    #[test]
    fn wall_clock_flagged_in_lib_not_in_test_file() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(lint("sim", FileKind::Lib, src).len(), 1);
        assert!(lint("sim", FileKind::Test, src).is_empty());
    }

    #[test]
    fn hash_containers_flagged_only_in_trace_affecting_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("cluster", FileKind::Lib, src).len(), 1);
        assert!(lint("bench", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn rng_flagged_even_in_tests() {
        let src = "let mut rng = rand::thread_rng();\n";
        assert_eq!(lint("scenarios", FileKind::Test, src).len(), 1);
    }

    #[test]
    fn parallel_carve_out_is_exempt() {
        let meta = FileMeta {
            krate: "core".to_string(),
            path: "crates/core/src/parallel.rs".to_string(),
            kind: FileKind::Lib,
        };
        let src = "use std::sync::Mutex;\n";
        assert!(lint_file(&meta, src).is_empty());
        assert_eq!(lint("core", FileKind::Lib, src).len(), 1);
    }

    #[test]
    fn arc_flagged_rc_allowed() {
        assert_eq!(lint("sim", FileKind::Lib, "use std::sync::Arc;\n").len(), 1);
        assert_eq!(
            lint("store", FileKind::Lib, "let b: Arc<[u8]> = x.into();\n").len(),
            1
        );
        // Rc is the sanctioned sharing primitive for single-threaded sim
        // code; identifiers merely containing "Arc" don't match either.
        assert!(lint("sim", FileKind::Lib, "use std::rc::Rc;\n").is_empty());
        assert!(lint("sim", FileKind::Lib, "let sparc = Sparc::new();\n").is_empty());
    }

    #[test]
    fn suppression_with_reason_marks_finding() {
        let src = "// ph-lint: allow(wall-clock, harness measures real elapsed time)\nlet t = Instant::now();\n";
        let fs = lint("bench", FileKind::Lib, src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].suppressed.is_some());
    }

    #[test]
    fn suppression_without_reason_is_its_own_finding() {
        let src = "// ph-lint: allow(wall-clock)\nlet t = Instant::now();\n";
        let fs = lint("bench", FileKind::Lib, src);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().any(|f| f.rule == "bad-suppression"));
        assert!(fs
            .iter()
            .any(|f| f.rule == "wall-clock" && f.suppressed.is_none()));
    }

    #[test]
    fn unsafe_flagged_everywhere_even_in_tests() {
        let src = "unsafe { std::mem::transmute::<u32, f32>(x) }\n";
        assert_eq!(lint("bench", FileKind::Test, src).len(), 1);
        assert_eq!(lint("sim", FileKind::Lib, src).len(), 1);
        // The forbid attribute itself must not trip the backstop.
        assert!(lint("sim", FileKind::Lib, "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn schedule_canon_needs_both_signals_and_no_canonicalize() {
        let build = "let s = vec![Letter::UpstreamSwitch];\n";
        let feed = "let out = explorer.explore(\"x\", &run, &factory);\n";
        // Build + feed, no canonicalize → flagged (in Lib and Bin alike).
        let both = format!("{build}{feed}");
        let fs = lint("scenarios", FileKind::Lib, &both);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "schedule-canon");
        assert_eq!(fs[0].line, 1, "anchors on the construction site");
        let meta = FileMeta {
            krate: "scenarios".into(),
            path: "crates/scenarios/src/bin/x.rs".into(),
            kind: FileKind::Bin,
        };
        assert_eq!(lint_file(&meta, &both).len(), 1);
        // Either signal alone is fine.
        assert!(lint("scenarios", FileKind::Lib, build).is_empty());
        assert!(lint("scenarios", FileKind::Lib, feed).is_empty());
        // Canonicalizing anywhere in the file clears it.
        let fixed = format!("{build}let c = canonicalize(&s, &matrix);\n{feed}");
        assert!(lint("scenarios", FileKind::Lib, &fixed).is_empty());
        let classed = format!("{build}let k = plan_class(&ops);\n{feed}");
        assert!(lint("scenarios", FileKind::Lib, &classed).is_empty());
        // Tests may hand-roll schedules (that is how equivalence is pinned).
        assert!(lint("scenarios", FileKind::Test, &both).is_empty());
        // PlannedOp construction counts too.
        let planned = format!("ops.push(PlannedOp::new(letter, anchor));\n{feed}");
        assert_eq!(lint("scenarios", FileKind::Lib, &planned).len(), 1);
    }

    #[test]
    fn schedule_canon_is_suppressible_with_reason() {
        let src =
            "// ph-lint: allow(schedule-canon, witnesses are already canonical minimal words)\n\
                   let s = vec![Letter::UpstreamSwitch];\n\
                   let out = explorer.explore(\"x\", &run, &factory);\n";
        let fs = lint("scenarios", FileKind::Lib, src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].suppressed.is_some());
    }

    #[test]
    fn println_in_string_literal_is_ignored() {
        let src = "let s = \"println!(hello)\";\n";
        assert!(lint("sim", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn cfg_test_module_inside_lib_is_skipped() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { println!(\"x\"); }\n}\n";
        assert!(lint("sim", FileKind::Lib, src).is_empty());
    }
}

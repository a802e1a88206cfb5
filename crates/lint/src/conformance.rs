//! IR ↔ source conformance: does the declared [`AccessSummary`] still
//! match the component code it describes?
//!
//! The hazard model checker ([`crate::modelcheck`]) is only as good as the
//! IR it checks. Summaries are hand-declared next to the components, so
//! they can rot: a fence can be removed from the code while the
//! declaration keeps claiming it, or a new destructive call can appear
//! with no declaration at all. This pass extends [`crate::lexer`]
//! into a lightweight item scanner over the cluster sources: it segments
//! each file into top-level `impl` blocks, extracts the *observed* access
//! protocol — which informer views the component maintains, which
//! unfenced destructive calls it makes, whether it re-confirms with fresh
//! reads, recovers from `NotFound` (the detect-and-recover fence), and
//! rebuilds its api client across restarts (the upstream-switch vector) —
//! and diffs those facts against the declared summaries.
//!
//! The diff is deliberately one-directional and conservative: it flags
//! *source capabilities the IR does not admit* (undeclared views,
//! undeclared destructive calls) and *IR claims the source does not back*
//! (a declared fence or fresh-confirm with no mechanism in the code, a
//! declared upstream switch with no restart rebuild, a declared component
//! with no impl). Declared-but-unexercised gates on the *buggy* side are
//! never flagged — variants legitimately declare fewer guards than the
//! fixed code paths implement.
//!
//! Drift is an `ir-conformance` finding, suppressible with the usual
//! reasoned `// ph-lint: allow(ir-conformance, <reason>)` directive.

use std::fs;
use std::io;
use std::path::Path;

use crate::findings::Finding;
use crate::lexer::{clean, test_line_mask, CleanFile};
use crate::summary::{AccessSummary, Gate};

/// The conformance rule id.
pub const RULE: &str = "ir-conformance";

/// One destructive API call observed in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestructiveCall {
    /// 1-based source line.
    pub line: usize,
    /// `delete` or `mark_deleted`.
    pub method: String,
    /// `true` when the call carries a revision precondition (a non-`None`
    /// expect argument) — fenced in the §4.2.2 sense.
    pub fenced: bool,
}

/// The access protocol one component impl actually implements, as
/// observed by the scanner.
#[derive(Debug, Clone, Default)]
pub struct ObservedComponent {
    /// The impl'd type name, e.g. `Kubelet` (facts from multiple impl
    /// blocks of the same type are merged).
    pub type_name: String,
    /// 1-based line of the first impl block header.
    pub impl_line: usize,
    /// Resources of the informer views the impl constructs, with the
    /// line each was first seen on.
    pub views: Vec<(String, usize)>,
    /// Destructive API calls, in source order.
    pub destructive: Vec<DestructiveCall>,
    /// The component-name literal from the declared summary (`component:`
    /// field), placeholders stripped — e.g. `kubelet-` from
    /// `format!("kubelet-{}", …)`.
    pub component_prefix: Option<String>,
    /// Does the impl declare `fn access_summary`?
    pub declares_summary: bool,
    /// Fresh-read evidence: a `.get(…, true, …)`-style quorum read or
    /// freshness plumbing (`fresh` identifier) in non-test code.
    pub fresh_evidence: bool,
    /// Fence evidence: `NotFound` detect-and-recover, an `expect_rv`
    /// precondition, or a fenced destructive call.
    pub fence_evidence: bool,
    /// Restart rebuild evidence: `fn on_restart` plus an
    /// `ApiClient::new(` call — the upstream-switch mechanism.
    pub has_on_restart: bool,
    /// See [`ObservedComponent::has_on_restart`].
    pub has_client_new: bool,
}

impl ObservedComponent {
    /// `true` when the impl can actually land on a different upstream
    /// after a restart.
    pub fn restart_rebuild(&self) -> bool {
        self.has_on_restart && self.has_client_new
    }
}

/// One scanned source file: its observed components plus the cleaned
/// source (kept for suppression lookups at diff time).
#[derive(Debug)]
pub struct SourceScan {
    /// Repo-relative path.
    pub file: String,
    /// Observed components, in first-impl order.
    pub components: Vec<ObservedComponent>,
    clean: CleanFile,
}

impl SourceScan {
    /// Suppression directive covering `line`, if any.
    fn suppression(&self, line: usize) -> Option<String> {
        self.clean.suppression(RULE, line).map(|d| d.reason.clone())
    }
}

/// Boundary-checked identifier search (an `ident` char is alphanumeric or
/// `_`; `fresh` must not match `fresh_lists`).
fn has_ident(line: &str, ident: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let pre_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let post_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Recovers the first string literal at or after byte column `from` of a
/// cleaned line: quotes survive cleaning at their original columns, so the
/// matching raw columns hold the literal's content.
fn string_literal_after(clean_line: &str, raw_line: &str, from: usize) -> Option<String> {
    let open = from + clean_line.get(from..)?.find('"')?;
    let close = open + 1 + clean_line.get(open + 1..)?.find('"')?;
    raw_line.get(open + 1..close).map(str::to_string)
}

/// Extracts the impl'd type name from an impl header (the text between
/// `impl` and the opening brace): strips generics, and takes the last
/// path segment after ` for ` when present.
fn impl_type_name(header: &str) -> Option<String> {
    let rest = header.split_once("impl")?.1;
    let rest = rest.split('{').next()?.trim();
    // `impl<T> Trait for Type<T>` → keep the `for`-side; strip generics.
    let target = match rest.rfind(" for ") {
        Some(i) => &rest[i + 5..],
        None => {
            // Leading generic params belong to the impl, not the type.
            let mut s = rest;
            if s.starts_with('<') {
                let mut depth = 0usize;
                for (i, c) in s.char_indices() {
                    match c {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                s = &s[i + 1..];
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
            s
        }
    };
    let target = target.trim();
    let base = target.split('<').next()?.trim();
    let name = base.rsplit("::").next()?.trim();
    if name.is_empty() || !name.chars().next()?.is_alphabetic() {
        None
    } else {
        Some(name.to_string())
    }
}

/// Scans one source file into its observed components. `file` is the
/// repo-relative path findings will carry.
pub fn scan_file(file: &str, src: &str) -> SourceScan {
    let cf = clean(src);
    let mask = test_line_mask(&cf.lines);
    let raw_lines: Vec<&str> = src.lines().collect();

    let mut components: Vec<ObservedComponent> = Vec::new();
    let mut depth: i64 = 0;
    // A top-level impl header being accumulated (until its `{`).
    let mut pending_header: Option<(String, usize)> = None;
    // Index into `components` of the impl body we are inside, plus the
    // depth at which it closes.
    let mut current: Option<usize> = None;

    for (i, clean_line) in cf.lines.iter().enumerate() {
        let lineno = i + 1;
        let in_test = mask.get(i).copied().unwrap_or(false);
        let raw_line = raw_lines.get(i).copied().unwrap_or("");

        if !in_test {
            if depth == 0 && pending_header.is_none() && has_ident(clean_line, "impl") {
                pending_header = Some((clean_line.clone(), lineno));
            } else if let Some((header, _)) = &mut pending_header {
                if !clean_line.contains('{') {
                    header.push(' ');
                    header.push_str(clean_line);
                }
            }

            if let Some((header, start)) = &pending_header {
                let header_done = clean_line.contains('{');
                if header_done {
                    let full = if *start == lineno {
                        header.clone()
                    } else {
                        format!("{header} {clean_line}")
                    };
                    if let Some(name) = impl_type_name(&full) {
                        let idx = components
                            .iter()
                            .position(|c| c.type_name == name)
                            .unwrap_or_else(|| {
                                components.push(ObservedComponent {
                                    type_name: name,
                                    impl_line: *start,
                                    ..ObservedComponent::default()
                                });
                                components.len() - 1
                            });
                        current = Some(idx);
                    }
                    pending_header = None;
                }
            }

            if let Some(ci) = current {
                if depth >= 1 || cf.lines[i].contains('{') {
                    extract_facts(&mut components[ci], clean_line, raw_line, lineno);
                }
            }
        }

        for c in clean_line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        current = None;
                    }
                }
                _ => {}
            }
        }
    }

    SourceScan {
        file: file.to_string(),
        components,
        clean: cf,
    }
}

/// Accumulates one line's facts into the component.
fn extract_facts(c: &mut ObservedComponent, clean_line: &str, raw_line: &str, lineno: usize) {
    if let Some(pos) = clean_line.find("InformerConfig::new(") {
        if let Some(lit) = string_literal_after(clean_line, raw_line, pos) {
            let resource = lit.trim_end_matches('/').to_string();
            if !resource.is_empty() && !c.views.iter().any(|(r, _)| *r == resource) {
                c.views.push((resource, lineno));
            }
        }
    } else if let Some(pos) = clean_line.find("prefix:") {
        if let Some(lit) = string_literal_after(clean_line, raw_line, pos) {
            let resource = lit.trim_end_matches('/').to_string();
            if !resource.is_empty() && !c.views.iter().any(|(r, _)| *r == resource) {
                c.views.push((resource, lineno));
            }
        }
    }
    if let Some(pos) = clean_line.find("component:") {
        if let Some(lit) = string_literal_after(clean_line, raw_line, pos) {
            // `format!("kubelet-{}", …)` placeholders truncate the prefix.
            let prefix = lit.split('{').next().unwrap_or("").to_string();
            if c.component_prefix.is_none() && !prefix.is_empty() {
                c.component_prefix = Some(prefix);
            }
        }
    }
    if clean_line.contains("fn access_summary") {
        c.declares_summary = true;
    }
    if let Some(pos) = clean_line.find(".delete(") {
        let args = &clean_line[pos + ".delete(".len()..];
        let fenced = !args
            .split(',')
            .nth(1)
            .map(|a| a.trim() == "None")
            .unwrap_or(false);
        c.destructive.push(DestructiveCall {
            line: lineno,
            method: "delete".into(),
            fenced,
        });
        if fenced {
            c.fence_evidence = true;
        }
    }
    if clean_line.contains(".mark_deleted(") {
        c.destructive.push(DestructiveCall {
            line: lineno,
            method: "mark_deleted".into(),
            fenced: false,
        });
    }
    if (clean_line.contains(".get(") || clean_line.contains(".list("))
        && clean_line.contains(", true")
    {
        c.fresh_evidence = true;
    }
    if has_ident(clean_line, "fresh") {
        c.fresh_evidence = true;
    }
    if has_ident(clean_line, "NotFound") || has_ident(clean_line, "expect_rv") {
        c.fence_evidence = true;
    }
    if clean_line.contains("fn on_restart") {
        c.has_on_restart = true;
    }
    if clean_line.contains("ApiClient::new(") {
        c.has_client_new = true;
    }
}

/// Scans every `.rs` file directly under `dir` (non-recursive: the
/// cluster sources are flat). `rel_prefix` is prepended to file names in
/// findings, e.g. `crates/cluster/src`.
pub fn scan_dir(dir: &Path, rel_prefix: &str) -> io::Result<Vec<SourceScan>> {
    let mut files: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        out.push(scan_file(&format!("{rel_prefix}/{name}"), &src));
    }
    Ok(out)
}

/// Is this observed impl a *component* the conformance rules apply to?
/// Components either declare a summary or maintain informer views;
/// plumbing impls (clients, handles) are out of scope.
fn is_component(c: &ObservedComponent) -> bool {
    c.declares_summary || !c.views.is_empty()
}

/// Diffs observed components against declared summaries and returns the
/// `ir-conformance` findings (empty = zero drift).
pub fn check_conformance(scans: &[SourceScan], declared: &[AccessSummary]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut matched_decls: Vec<bool> = vec![false; declared.len()];

    for scan in scans {
        for c in scan.components.iter().filter(|c| is_component(c)) {
            let mut emit = |line: usize, message: String| {
                findings.push(Finding {
                    rule: RULE.into(),
                    file: scan.file.clone(),
                    line,
                    message,
                    suppressed: scan.suppression(line),
                });
            };

            // Rule 1: views with no declared summary at all.
            if !c.declares_summary {
                emit(
                    c.impl_line,
                    format!(
                        "`{}` maintains informer views but declares no access_summary; \
                         the hazard checker cannot see it",
                        c.type_name
                    ),
                );
                continue;
            }

            let decls: Vec<&AccessSummary> = match &c.component_prefix {
                Some(prefix) => declared
                    .iter()
                    .enumerate()
                    .filter(|(i, d)| {
                        let hit = d.component.starts_with(prefix.as_str());
                        if hit {
                            matched_decls[*i] = true;
                        }
                        hit
                    })
                    .map(|(_, d)| d)
                    .collect(),
                None => Vec::new(),
            };
            if decls.is_empty() {
                // The impl declares a summary the caller did not pass in —
                // conformance can't vouch for it, which is itself drift.
                emit(
                    c.impl_line,
                    format!(
                        "`{}` declares an access_summary that is not part of the \
                         topology's declared set",
                        c.type_name
                    ),
                );
                continue;
            }

            // Rule 2: observed views the declarations do not cover.
            for (resource, line) in &c.views {
                let declared_view = decls
                    .iter()
                    .any(|d| d.views.iter().any(|v| v.resource == *resource));
                if !declared_view {
                    emit(
                        *line,
                        format!(
                            "`{}` maintains a view over `{resource}` that its declared \
                             access_summary does not list",
                            c.type_name
                        ),
                    );
                }
            }

            // Rule 3: unfenced destructive calls with no declared
            // destructive action.
            let declares_destructive = decls
                .iter()
                .any(|d| d.actions.iter().any(|a| a.destructive));
            for call in c.destructive.iter().filter(|d| !d.fenced) {
                if !declares_destructive {
                    emit(
                        call.line,
                        format!(
                            "`{}` performs an unfenced destructive `{}` but its declared \
                             access_summary has no destructive action",
                            c.type_name, call.method
                        ),
                    );
                }
            }

            // Rule 4: declared guards the source does not back.
            let declared_fence = decls.iter().any(|d| {
                d.actions.iter().any(|a| {
                    a.paths
                        .iter()
                        .any(|p| p.gates.iter().any(|g| matches!(g, Gate::Fence(_))))
                })
            });
            if declared_fence && !c.fence_evidence {
                emit(
                    c.impl_line,
                    format!(
                        "`{}` declares a fence gate but the source has no NotFound \
                         recovery or revision precondition backing it",
                        c.type_name
                    ),
                );
            }
            let declared_fresh = decls.iter().any(|d| {
                d.actions.iter().any(|a| {
                    a.paths
                        .iter()
                        .any(|p| p.gates.iter().any(|g| matches!(g, Gate::FreshConfirm(_))))
                })
            });
            if declared_fresh && !c.fresh_evidence {
                emit(
                    c.impl_line,
                    format!(
                        "`{}` declares a fresh-confirm gate but the source performs no \
                         fresh read",
                        c.type_name
                    ),
                );
            }

            // Rule 5: a declared upstream switch needs the restart-rebuild
            // mechanism in source.
            let declared_switch = decls.iter().any(|d| d.upstream_switch);
            if declared_switch && !c.restart_rebuild() {
                emit(
                    c.impl_line,
                    format!(
                        "`{}` declares upstream_switch but the source never rebuilds its \
                         api client on restart",
                        c.type_name
                    ),
                );
            }
        }
    }

    // Rule 6: declared components with no impl anywhere.
    for (i, d) in declared.iter().enumerate() {
        if !matched_decls[i] {
            findings.push(Finding {
                rule: RULE.into(),
                file: scans
                    .first()
                    .map(|s| s.file.clone())
                    .unwrap_or_else(|| "<no sources scanned>".into()),
                line: 0,
                message: format!(
                    "declared component `{}` has no matching impl in the scanned sources",
                    d.component
                ),
                suppressed: None,
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ActionDecl, GatePath, ReadKind, ViewDecl};

    /// A conforming source: informer view on pods, a declared summary,
    /// an unfenced delete backed by a declared destructive action, fresh
    /// and fence mechanisms, restart rebuild.
    const CONFORMING: &str = r#"
impl Widget {
    pub fn new(cfg: Config) -> Widget {
        let client = ApiClient::new(cfg.api.clone(), 0);
        let pods = Informer::new(InformerConfig::new("pods/"));
        Widget { cfg, client, pods }
    }

    pub fn access_summary(cfg: &Config) -> AccessSummary {
        AccessSummary {
            component: "widget".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![InformerConfig::new("pods/").view_decl()],
            actions: vec![],
        }
    }

    fn act(&mut self, ctx: &mut Ctx) {
        let req = self.client.get(key.clone(), true, ctx);
        match r {
            Err(ApiError::NotFound) => self.recover(),
            _ => {}
        }
        self.client.delete(key, None, ctx);
    }
}

impl Actor for Widget {
    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.client = ApiClient::new(self.cfg.api.clone(), self.instance);
    }
}
"#;

    fn view(resource: &str) -> ViewDecl {
        ViewDecl {
            resource: resource.into(),
            list: ReadKind::Cache,
            watch: true,
            relist_on_gap: true,
            periodic_resync: false,
            event_replay: false,
            congestible: false,
        }
    }

    fn declared(gates: Vec<Gate>) -> AccessSummary {
        AccessSummary {
            component: "widget".into(),
            upstream_switch: true,
            views: vec![view("pods")],
            actions: vec![ActionDecl {
                name: "drop".into(),
                destructive: true,
                paths: vec![GatePath::new("p", gates)],
            }],
        }
    }

    #[test]
    fn conforming_source_has_zero_drift() {
        let scan = scan_file("crates/cluster/src/widget.rs", CONFORMING);
        let d = declared(vec![
            Gate::CacheAbsence("pods".into()),
            Gate::FreshConfirm("pods".into()),
            Gate::Fence("pods".into()),
        ]);
        let findings = check_conformance(&[scan], &[d]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn scanner_extracts_observed_facts() {
        let scan = scan_file("f.rs", CONFORMING);
        assert_eq!(scan.components.len(), 1);
        let c = &scan.components[0];
        assert_eq!(c.type_name, "Widget");
        assert_eq!(c.views.len(), 1);
        assert_eq!(c.views[0].0, "pods");
        assert_eq!(c.component_prefix.as_deref(), Some("widget"));
        assert!(c.declares_summary);
        assert!(c.fresh_evidence);
        assert!(c.fence_evidence);
        assert!(c.restart_rebuild());
        assert_eq!(c.destructive.len(), 1);
        assert!(!c.destructive[0].fenced);
    }

    #[test]
    fn removed_fence_is_caught() {
        // Same declared summary, but the source lost its NotFound recovery
        // and fenced calls: the declared Fence gate has no backing.
        let src = CONFORMING
            .replace("Err(ApiError::NotFound) => self.recover(),", "")
            .replace("let req = self.client.get(key.clone(), true, ctx);", "");
        let scan = scan_file("crates/cluster/src/widget.rs", &src);
        let d = declared(vec![
            Gate::CacheAbsence("pods".into()),
            Gate::FreshConfirm("pods".into()),
            Gate::Fence("pods".into()),
        ]);
        let findings = check_conformance(&[scan], &[d]);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("fence gate")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("fresh-confirm gate")),
            "{msgs:?}"
        );
    }

    #[test]
    fn undeclared_destructive_action_is_caught() {
        let scan = scan_file("crates/cluster/src/widget.rs", CONFORMING);
        // The declaration lost its destructive action.
        let mut d = declared(vec![Gate::CacheAbsence("pods".into())]);
        d.actions[0].destructive = false;
        let findings = check_conformance(&[scan], &[d]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("unfenced destructive `delete` but its declared access_summary has no"));
        assert!(findings[0].suppressed.is_none());
    }

    #[test]
    fn undeclared_view_is_caught() {
        let src = CONFORMING.replace(
            "let pods = Informer::new(InformerConfig::new(\"pods/\"));",
            "let pods = Informer::new(InformerConfig::new(\"pods/\"));\n        \
             let pvcs = Informer::new(InformerConfig::new(\"pvcs/\"));",
        );
        let scan = scan_file("f.rs", &src);
        let d = declared(vec![Gate::CacheAbsence("pods".into())]);
        let findings = check_conformance(&[scan], &[d]);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("view over `pvcs`")),
            "{findings:?}"
        );
    }

    #[test]
    fn views_without_summary_are_caught() {
        let src = "impl Rogue {\n    fn new() -> Rogue {\n        \
                   Rogue { i: Informer::new(InformerConfig::new(\"pods/\")) }\n    }\n}\n";
        let findings = check_conformance(&[scan_file("f.rs", src)], &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("declares no access_summary"));
    }

    #[test]
    fn missing_restart_rebuild_is_caught_for_declared_switch() {
        let src = CONFORMING.replace("ApiClient::new", "ApiClientHandle::make");
        let scan = scan_file("f.rs", &src);
        let d = declared(vec![Gate::CacheAbsence("pods".into())]);
        let findings = check_conformance(&[scan], &[d]);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("upstream_switch")),
            "{findings:?}"
        );
    }

    #[test]
    fn declared_component_without_impl_is_caught() {
        let d = declared(vec![Gate::CacheAbsence("pods".into())]);
        let findings = check_conformance(&[], &[d]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no matching impl"));
    }

    #[test]
    fn suppression_with_reason_covers_drift() {
        let src = CONFORMING.replace(
            "        self.client.delete(key, None, ctx);",
            "        // ph-lint: allow(ir-conformance, scenario-only cleanup call)\n        \
             self.client.delete(key, None, ctx);",
        );
        let scan = scan_file("f.rs", &src);
        let mut d = declared(vec![Gate::CacheAbsence("pods".into())]);
        d.actions[0].destructive = false;
        let findings = check_conformance(&[scan], &[d]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            findings[0].suppressed.as_deref(),
            Some("scenario-only cleanup call")
        );
    }

    #[test]
    fn test_modules_are_invisible_to_the_scanner() {
        let src = "#[cfg(test)]\nmod tests {\n    use super::*;\n    fn t() {\n        \
                   let i = Informer::new(InformerConfig::new(\"pods/\"));\n    }\n}\n";
        let scan = scan_file("f.rs", src);
        assert!(scan.components.is_empty());
    }
}

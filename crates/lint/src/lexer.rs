//! A line-preserving Rust source cleaner.
//!
//! [`crate::conformance`] scans the cluster sources for calls and names like
//! `.delete(` or `NotFound` line by line. Matching raw source would
//! mis-fire on comments, doc text and string literals, so this module
//! first *cleans* the source: every character inside a comment or a
//! string/char literal is replaced by a space, while newlines are kept, so
//! line numbers in findings match the original file exactly.
//!
//! While scanning, comment text is inspected for suppression directives of
//! the form `ph-lint: allow(<rule>, <reason>)`. A directive suppresses
//! matching findings on its own line (trailing comment) and on the next
//! line (a comment placed above the offending statement). Directives with a
//! missing or empty reason are reported as [`CleanFile::bad_directives`];
//! [`crate::scan_workspace`] turns those into findings of their own, so a
//! reason is mandatory, as the paper's methodology demands an argument for
//! every deliberate divergence from what the IR declares.

/// A well-formed suppression directive extracted from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the directive's comment ends on.
    pub line: usize,
    /// The rule id being allowed, e.g. `ir-conformance`.
    pub rule: String,
    /// The mandatory human reason.
    pub reason: String,
}

/// A malformed `ph-lint:` directive (unparseable, or missing a reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadDirective {
    /// 1-based line the directive's comment ends on.
    pub line: usize,
    /// What was wrong with it.
    pub problem: String,
}

/// Cleaned source: code with comments/strings blanked, plus directives.
#[derive(Debug, Default)]
pub struct CleanFile {
    /// One entry per source line; comments and literal contents are spaces.
    pub lines: Vec<String>,
    /// Well-formed suppressions, in source order.
    pub directives: Vec<Directive>,
    /// Malformed `ph-lint:` directives, in source order.
    pub bad_directives: Vec<BadDirective>,
}

impl CleanFile {
    /// The directive suppressing `rule` at `line` (1-based), if any. A
    /// directive covers its own line and the line after it.
    pub fn suppression(&self, rule: &str, line: usize) -> Option<&Directive> {
        self.directives
            .iter()
            .find(|d| d.rule == rule && (d.line == line || d.line + 1 == line))
    }
}

/// Lexer state while cleaning.
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the current depth.
    BlockComment(u32),
    Str,
    /// Raw string `r##"…"##`; the payload is the number of `#`s.
    RawStr(u32),
    Char,
}

/// Cleans `src`, preserving line structure, and extracts directives.
pub fn clean(src: &str) -> CleanFile {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut state = State::Code;
    // Text of the comment currently being scanned, for directive parsing.
    let mut comment = String::new();
    let mut file = CleanFile::default();
    let mut line = 1usize;
    let mut i = 0usize;

    // Ends the current comment: parse any directive out of its text. Only
    // a comment whose body *starts* with `ph-lint:` (after doc markers and
    // whitespace) is a directive — prose that merely mentions the syntax,
    // like this lint's own documentation, is not.
    fn finish_comment(text: &mut String, line: usize, file: &mut CleanFile) {
        let body = text.trim_start_matches(['/', '!']).trim_start();
        if let Some(rest) = body.strip_prefix("ph-lint:") {
            parse_directive(rest, line, file);
        }
        text.clear();
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                }
                'r' | 'b' if starts_raw_string(&bytes, i) => {
                    // Consume the prefix (r, br, rb…) and the hashes.
                    let mut j = i;
                    while bytes[j] == 'r' || bytes[j] == 'b' {
                        out.push(bytes[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        out.push('#');
                        hashes += 1;
                        j += 1;
                    }
                    // bytes[j] is the opening quote.
                    out.push('"');
                    state = State::RawStr(hashes);
                    i = j + 1;
                    continue;
                }
                'b' if next == Some('"') => {
                    out.push_str("b\"");
                    state = State::Str;
                    i += 2;
                    continue;
                }
                '\'' if is_char_literal(&bytes, i) => {
                    state = State::Char;
                    out.push('\'');
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    finish_comment(&mut comment, line, &mut file);
                    state = State::Code;
                    out.push('\n');
                } else {
                    comment.push(c);
                    out.push(' ');
                }
                // fallthrough to the shared line counter below
                if c == '\n' {
                    line += 1;
                }
                i += 1;
                continue;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        finish_comment(&mut comment, line, &mut file);
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\n' {
                    out.push('\n');
                    line += 1;
                } else {
                    comment.push(c);
                    out.push(' ');
                }
                i += 1;
                continue;
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next == Some('\n') {
                        out.push('\n');
                        line += 1;
                    } else if next.is_some() {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                }
                '\n' => {
                    out.push('\n');
                    line += 1;
                    i += 1;
                    continue;
                }
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push('#');
                    }
                    state = State::Code;
                    i += 1 + hashes as usize;
                    continue;
                }
                if c == '\n' {
                    out.push('\n');
                    line += 1;
                } else {
                    out.push(' ');
                }
                i += 1;
                continue;
            }
            State::Char => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    state = State::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        if c == '\n' {
            line += 1;
        }
        i += 1;
    }
    // EOF inside a line comment still carries a directive.
    if matches!(state, State::LineComment | State::BlockComment(_)) {
        finish_comment(&mut comment, line, &mut file);
    }

    file.lines = out.split('\n').map(|s| s.to_string()).collect();
    file
}

/// Does position `i` (at `r` or `b`) start a raw string literal?
fn starts_raw_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    // Accept r, br, rb prefixes (one of each letter at most).
    let mut seen_b = false;
    while j < bytes.len() {
        match bytes[j] {
            'r' if !saw_r => {
                saw_r = true;
                j += 1;
            }
            'b' if !seen_b => {
                seen_b = true;
                j += 1;
            }
            _ => break,
        }
    }
    if !saw_r {
        return false;
    }
    // Identifier chars before? then this `r` is part of an identifier.
    if i > 0 {
        let p = bytes[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Does the quote at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Disambiguates a `'` as char literal vs. lifetime: a lifetime is `'` +
/// identifier with no closing quote within a couple of characters.
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Parses the text after `ph-lint:` as `allow(<rule>, <reason>)`.
fn parse_directive(text: &str, line: usize, file: &mut CleanFile) {
    let text = text.trim();
    let bad = |problem: &str, file: &mut CleanFile| {
        file.bad_directives.push(BadDirective {
            line,
            problem: problem.to_string(),
        });
    };
    let Some(rest) = text.strip_prefix("allow(") else {
        bad("expected `allow(<rule>, <reason>)`", file);
        return;
    };
    let Some(inner) = rest.rfind(')').map(|p| &rest[..p]) else {
        bad("unclosed `allow(`", file);
        return;
    };
    let Some((rule, reason)) = inner.split_once(',') else {
        bad("missing reason: use `allow(<rule>, <reason>)`", file);
        return;
    };
    let rule = rule.trim();
    let reason = reason.trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        bad("rule id must be lowercase-kebab", file);
        return;
    }
    if reason.is_empty() {
        bad("empty reason: suppressions must say why", file);
        return;
    }
    file.directives.push(Directive {
        line,
        rule: rule.to_string(),
        reason: reason.to_string(),
    });
}

/// Marks lines belonging to `#[cfg(test)]`-gated modules.
///
/// Returns one flag per line of `lines` (same indexing); `true` means the
/// line is test-only code, which the conformance scan skips: a test's
/// calls are not the component's protocol.
pub fn test_line_mask(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let stripped: String = lines[i].split_whitespace().collect();
        if stripped.contains("#[cfg(test)]") {
            // Find the start of the gated item and its opening brace.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                mask[j] = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = clean("let x = \"Instant::now()\"; // Instant::now()\nInstant::now();");
        assert!(!f.lines[0].contains("Instant"));
        assert!(f.lines[1].contains("Instant::now"));
    }

    #[test]
    fn nested_block_comments() {
        let f = clean("/* a /* b */ c */ let y = 1;");
        assert!(f.lines[0].contains("let y = 1;"));
        assert!(!f.lines[0].contains('a') && !f.lines[0].contains('c'));
    }

    #[test]
    fn raw_strings_preserve_lines() {
        let f = clean("let s = r#\"one\ntwo HashMap\"#;\nlet t = 2;");
        assert_eq!(f.lines.len(), 3);
        assert!(!f.lines[1].contains("HashMap"));
        assert!(f.lines[2].contains("let t"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = clean("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].contains("str"));
    }

    #[test]
    fn directive_with_reason_parses() {
        let f = clean("foo(); // ph-lint: allow(wall-clock, bench harness measures real time)");
        assert_eq!(f.directives.len(), 1);
        assert_eq!(f.directives[0].rule, "wall-clock");
        assert!(f.directives[0].reason.contains("bench"));
        assert!(f.suppression("wall-clock", 1).is_some());
        assert!(f.suppression("wall-clock", 2).is_some());
        assert!(f.suppression("wall-clock", 3).is_none());
    }

    #[test]
    fn directive_without_reason_is_bad() {
        let f = clean("// ph-lint: allow(wall-clock)");
        assert!(f.directives.is_empty());
        assert_eq!(f.bad_directives.len(), 1);
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_directive() {
        let src = "//! Suppressions use `ph-lint: allow(<rule>, <reason>)`.\n\
                   /// A malformed `ph-lint:` directive is flagged.\n\
                   //! ph-lint: allow(stray-print, doc comments can be directives too)\n";
        let f = clean(src);
        assert_eq!(f.directives.len(), 1, "{:?}", f.directives);
        assert_eq!(f.directives[0].line, 3);
        assert!(f.bad_directives.is_empty(), "{:?}", f.bad_directives);
    }

    #[test]
    fn cfg_test_mask_covers_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = clean(src);
        let mask = test_line_mask(&f.lines);
        assert!(!mask[0]);
        assert!(mask[1] && mask[2] && mask[3] && mask[4]);
        assert!(!mask[5]);
    }
}

//! The one JSON writer under every report and export in the workspace.
//!
//! An [`Obj`] or [`Arr`] appends into one caller-owned `String`: keys come
//! out in call order, every string — key or value, static or data — goes
//! through one escaper (the one [`esc`] wraps), `None` renders as `null`,
//! and a nested object or array is opened in place and closes itself when
//! it is dropped.
//!
//! ```
//! use ph_lint::json;
//!
//! let out = json::object(|o| {
//!     o.str("name", "a\"b").val("n", 3).opt_val("none", None::<u64>);
//!     o.vals("xs", [1, 2]);
//! });
//! assert_eq!(out, r#"{"name":"a\"b","n":3,"none":null,"xs":[1,2]}"#);
//! ```

use std::fmt::{self, Display, Write as _};

/// Appends `s` to `out` with JSON string escapes, without quotes: `"`,
/// `\`, newline, carriage return and tab get their short escapes, other
/// control characters `\u00XX`, and everything else, non-ASCII included,
/// passes through. Runs of clean bytes are copied whole.
fn push_escaped(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Escapes a string for embedding in JSON (see [`push_escaped`]).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` as a quoted JSON string.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Formats into a buffer through the escaper, so a formatted string value
/// needs no temporary `String`.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// Renders one JSON object into a new string.
pub fn object(fill: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    fill(&mut Obj::new(&mut out));
    out
}

/// A JSON object being appended to a buffer; writes its `}` when dropped.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Writes the separator and `"key":`; the caller writes one value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        push_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_string(self.key(key), value);
        self
    }

    /// A string member formatted in place:
    /// `o.str_fmt("name", format_args!("send {kind}"))`.
    pub fn str_fmt(&mut self, key: &str, value: fmt::Arguments) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        let _ = Escaping(out).write_fmt(value);
        out.push('"');
        self
    }

    /// A bare member written with `Display`: a number or a boolean.
    pub fn val(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// [`Obj::val`], or `null` for `None`.
    pub fn opt_val(&mut self, key: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(v) => self.val(key, v),
            None => self.null(key),
        }
    }

    /// [`Obj::str`], or `null` for `None`.
    pub fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.raw(key, "null")
    }

    /// A member whose value another writer already rendered as JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// An array member of strings.
    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let mut arr = self.arr(key);
        for s in items {
            push_string(arr.item(), s.as_ref());
        }
        drop(arr);
        self
    }

    /// An array member of bare values, each written with `Display`.
    pub fn vals(&mut self, key: &str, items: impl IntoIterator<Item = impl Display>) -> &mut Self {
        let mut arr = self.arr(key);
        for v in items {
            let _ = write!(arr.item(), "{v}");
        }
        drop(arr);
        self
    }

    /// An array member of values other writers already rendered as JSON.
    pub fn raws(&mut self, key: &str, items: impl IntoIterator<Item = String>) -> &mut Self {
        let mut arr = self.arr(key);
        for json in items {
            arr.item().push_str(&json);
        }
        drop(arr);
        self
    }

    /// Opens an object member in place.
    pub fn obj(&mut self, key: &str) -> Obj<'_> {
        Obj::new(self.key(key))
    }

    /// Opens an array member in place.
    pub fn arr(&mut self, key: &str) -> Arr<'_> {
        Arr::new(self.key(key))
    }
}

impl Drop for Obj<'_> {
    fn drop(&mut self) {
        self.out.push('}');
    }
}

/// A JSON array being appended to a buffer; writes its `]` when dropped.
pub struct Arr<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Arr<'a> {
    /// Opens an array at the end of `out`.
    pub fn new(out: &'a mut String) -> Arr<'a> {
        out.push('[');
        Arr { out, empty: true }
    }

    /// Writes the separator; the caller writes one value.
    fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// Opens an object element in place.
    pub fn obj(&mut self) -> Obj<'_> {
        Obj::new(self.item())
    }
}

impl Drop for Arr<'_> {
    fn drop(&mut self) {
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-character escaper the clean-run copy must equal.
    fn reference_esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\r\t"), "\\r\\t");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("x\u{1f}y"), "x\\u001fy");
        assert_eq!(esc("héllo → ✓ \u{7f}"), "héllo → ✓ \u{7f}");
        assert_eq!(esc(""), "");
    }

    #[test]
    fn data_keys_are_escaped() {
        let out = object(|o| {
            o.val("a\"b/c\n", 1).obj("\\").str("k\t", "v");
        });
        assert_eq!(out, r#"{"a\"b/c\n":1,"\\":{"k\t":"v"}}"#);
    }

    #[test]
    fn empty_and_nested_containers() {
        assert_eq!(object(|_| {}), "{}");
        let out = object(|o| {
            o.arr("empty");
            o.obj("none");
            let mut rows = o.arr("rows");
            rows.obj().val("x", 1).vals("ys", [2, 3]);
            rows.obj();
            drop(rows);
            o.strs("strs", ["a", "b\n"]).strs("no_strs", [""; 0]);
            o.raws("raws", ["[null]".to_string(), "{}".to_string()]);
        });
        assert_eq!(
            out,
            r#"{"empty":[],"none":{},"rows":[{"x":1,"ys":[2,3]},{}],"strs":["a","b\n"],"no_strs":[],"raws":[[null],{}]}"#
        );
        let mut top = String::from("prefix ");
        Arr::new(&mut top).obj().str("a\"", "");
        assert_eq!(top, r#"prefix [{"a\"":""}]"#);
    }

    #[test]
    fn none_is_null() {
        let out = object(|o| {
            o.opt_val("some", Some(7u64))
                .opt_val("none", None::<u64>)
                .opt_str("str", Some("s"))
                .opt_str("no_str", None)
                .null("nil")
                .str_fmt("fmt", format_args!("{:?}", Some("q\"")));
        });
        assert_eq!(
            out,
            r#"{"some":7,"none":null,"str":"s","no_str":null,"nil":null,"fmt":"Some(\"q\\\"\")"}"#
        );
    }

    /// splitmix64, so this crate stays dependency-free.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn clean_run_copy_equals_the_per_char_reference() {
        // Clean ASCII, every control character, the two escaped printables
        // and multi-byte characters, mixed in random runs.
        let alphabet: Vec<char> = "az09 /:{}"
            .chars()
            .chain((0u8..0x20).map(char::from))
            .chain(['"', '\\', '\u{7f}', 'é', '→', '✓', '😀'])
            .collect();
        let mut state = 2026;
        for case in 0..4_000 {
            let len = (next(&mut state) % 24) as usize;
            let clean_only = case % 4 == 0;
            let s: String = (0..len)
                .map(|_| {
                    let pick = next(&mut state) as usize;
                    if clean_only {
                        alphabet[pick % 9]
                    } else {
                        alphabet[pick % alphabet.len()]
                    }
                })
                .collect();
            assert_eq!(esc(&s), reference_esc(&s), "{s:?}");
            let mut formatted = String::new();
            let _ = Escaping(&mut formatted).write_fmt(format_args!("{s}"));
            assert_eq!(formatted, reference_esc(&s), "{s:?}");
        }
    }
}

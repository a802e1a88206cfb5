//! Deterministic string interning for the sim hot path.
//!
//! Trace events and metric keys repeat a small set of strings millions of
//! times per run (actor names, message kinds, annotation labels, metric
//! names). Interning replaces the per-event `String` allocation with either
//! a [`Sym`] (a dense `u32` id, used as metric map keys) or a [`Name`] (a
//! shared, immutable string, used in trace events where the public API
//! stays string-shaped). Resolution back to text happens only at
//! export/render time.
//!
//! Determinism: [`Sym`] ids are assigned in first-intern order, which is a
//! pure function of the simulation schedule — no hash-seed, allocator, or
//! wall-clock dependence — so two same-seed runs intern identically.
//! [`Name`] prints (`Debug`/`Display`) and compares exactly like the string
//! it wraps, which keeps the trace exports byte-identical to a
//! `String`-holding representation; the trace digest hashes a name's bytes
//! and never sees its `Debug`.

use std::rc::Rc;

/// An interned string: clones are reference-count bumps, comparisons and
/// rendering behave exactly like [`str`].
#[derive(Clone)]
pub struct Name(Rc<str>);

impl Name {
    /// The string contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Rc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Rc::from(s))
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

// Debug must render byte-identically to `String`'s Debug: the trace
// exports print `format!("{:?}")` of event kinds, and their goldens must
// not see that a field is interned.
impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        // Interned names of equal contents usually share the allocation.
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}
impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}
impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}
impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}
impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

/// A dense interned-string id; `Sym`s from one [`Interner`] compare as
/// cheaply as integers and are assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense id (0-based insertion index).
    pub fn id(self) -> u32 {
        self.0
    }
}

const INITIAL_TABLE: usize = 64;

/// FNV-1a hash of `s`: the seed-independent, allocation-free string hash
/// the interner's open-addressing table uses. Public so other layers can
/// partition key spaces (e.g. the apiserver's sharded watch cache) with
/// the exact same deterministic placement the interner uses.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// An insertion-ordered, seed-independent string interner.
///
/// `intern` is amortized O(1) (FNV-1a + open addressing); `resolve` is an
/// array index. The id space is dense: the nth distinct string interned
/// gets id `n-1`, making [`Sym`] usable as a direct vector index.
#[derive(Debug, Clone)]
pub struct Interner {
    names: Vec<Name>,
    /// Open-addressing slots holding `index + 1`; 0 marks an empty slot.
    /// Length is always a power of two.
    table: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner {
            names: Vec::new(),
            table: vec![0; INITIAL_TABLE],
        }
    }

    /// Interns `s`, returning its dense id (existing id if seen before).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.find(s) {
            return sym;
        }
        let idx = self.names.len() as u32;
        self.names.push(Name::from(s));
        // Grow at 7/8 load before inserting the new slot.
        if (self.names.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        } else {
            self.insert_slot(s, idx);
        }
        Sym(idx)
    }

    /// Interns `s` and returns the shared [`Name`] (one allocation per
    /// distinct string, ever).
    pub fn intern_name(&mut self, s: &str) -> Name {
        let sym = self.intern(s);
        self.names[sym.0 as usize].clone()
    }

    /// The string for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner (id out of range).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.names[sym.0 as usize].as_str()
    }

    fn find(&self, s: &str) -> Option<Sym> {
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(s) as usize) & mask;
        loop {
            match self.table[i] {
                0 => return None,
                e => {
                    let idx = (e - 1) as usize;
                    if self.names[idx].as_str() == s {
                        return Some(Sym(idx as u32));
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn insert_slot(&mut self, s: &str, idx: u32) {
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(s) as usize) & mask;
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = idx + 1;
    }

    fn grow(&mut self) {
        let new_len = (self.table.len() * 2).max(INITIAL_TABLE);
        self.table.clear();
        self.table.resize(new_len, 0);
        let mask = new_len - 1;
        for (idx, name) in self.names.iter().enumerate() {
            let mut i = (fnv1a(name.as_str()) as usize) & mask;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = idx as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_insertion_ordered() {
        let mut it = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        let a2 = it.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.resolve(b), "beta");
    }

    #[test]
    fn growth_preserves_ids() {
        let mut it = Interner::new();
        let syms: Vec<Sym> = (0..500).map(|i| it.intern(&format!("s{i}"))).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(sym.id(), i as u32);
            assert_eq!(it.resolve(*sym), format!("s{i}"));
            assert_eq!(it.intern(&format!("s{i}")), *sym);
        }
    }

    #[test]
    fn name_prints_like_string() {
        let mut it = Interner::new();
        let n = it.intern_name("wa\"tch\n");
        let s = String::from("wa\"tch\n");
        assert_eq!(format!("{n:?}"), format!("{s:?}"));
        assert_eq!(format!("{n}"), s);
    }

    #[test]
    // The owned comparisons are the point: each line exercises one of the
    // cross-type PartialEq/Ord impls above.
    #[allow(clippy::cmp_owned)]
    fn name_compares_with_every_string_shape() {
        let n = Name::from("k");
        assert!(n == *"k");
        assert!(n == "k");
        assert!("k" == n);
        assert!(n == String::from("k"));
        assert!(String::from("k") == n);
        assert!(n != "j");
        assert!(Name::from("a") < Name::from("b"));
    }

    #[test]
    fn interned_names_share_the_allocation() {
        let mut it = Interner::new();
        let a = it.intern_name("shared");
        let b = it.intern_name("shared");
        assert!(std::rc::Rc::ptr_eq(&a.0, &b.0));
    }
}

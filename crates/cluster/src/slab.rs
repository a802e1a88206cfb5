//! Slab/struct-of-arrays storage backing the apiserver watch cache.
//!
//! At mega-cluster scale the watch cache dominates the apiserver's cost:
//! a `BTreeMap<String, (Value, Revision)>` pays a heap `String` per key,
//! pointer-chasing comparisons on every feed event, and scattered
//! `(Value, Revision)` tuples. The [`ObjectSlab`] replaces that with an
//! interned-key slab: each key is interned once ([`Sym`] = dense `u32`),
//! values and revisions live in parallel vectors indexed by the sym id
//! (struct-of-arrays), and a sorted side index of live keys preserves the
//! lexical prefix scans lists need. Feed-path updates are an intern (O(1)
//! amortized, allocation-free after first sight of a key) plus two vector
//! stores.
//!
//! [`ShardedCache`] splits the key space across several slabs by key hash.
//! Sharding is *purely internal*: every observable — get results, list
//! order (a k-way merge of the per-shard sorted indexes), lengths — is a
//! pure function of the key/value content and never of the shard count, so
//! a run at `shards = 8` is byte-identical to the same run at `shards = 1`.
//! The property test in this module and the scenario-level equivalence
//! suite both pin that down.
//!
//! [`WindowRing`] is the rolling watch-event window as a fixed-capacity
//! ring: push-with-evict is O(1) with no reallocation after warm-up, and
//! eviction order (oldest first) matches the `VecDeque` it replaces
//! exactly, so window floors and `TooOldResourceVersion` refusals are
//! unchanged.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use ph_sim::intern::fnv1a;
use ph_sim::{Interner, Name, Sym};
use ph_store::{Revision, Value};

use crate::api::ObjEvent;

/// An interned-key, struct-of-arrays object store with a sorted live-key
/// index for lexical prefix scans.
#[derive(Debug, Clone, Default)]
pub struct ObjectSlab {
    /// Key interner: assigns each distinct key a dense [`Sym`] id.
    keys: Interner,
    /// Object bytes, indexed by sym id (`None` = not currently live).
    values: Vec<Option<Value>>,
    /// Last-modification revision, indexed by sym id.
    revs: Vec<Revision>,
    /// Sorted index of live keys (the lexical iteration order lists need).
    index: BTreeMap<Name, Sym>,
    /// Sum of live value lengths, maintained incrementally.
    value_bytes: usize,
}

impl ObjectSlab {
    /// An empty slab.
    pub fn new() -> ObjectSlab {
        ObjectSlab::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no object is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts or overwrites `key`.
    pub fn insert(&mut self, key: &str, value: Value, rev: Revision) {
        let sym = self.keys.intern(key);
        let i = sym.id() as usize;
        if i >= self.values.len() {
            self.values.resize(i + 1, None);
            self.revs.resize(i + 1, Revision::ZERO);
        }
        match &mut self.values[i] {
            Some(old) => {
                self.value_bytes -= old.len();
                self.value_bytes += value.len();
                *old = value;
            }
            slot => {
                self.value_bytes += value.len();
                *slot = Some(value);
                self.index.insert(self.keys.name(sym).clone(), sym);
            }
        }
        self.revs[i] = rev;
    }

    /// Removes `key`; `true` if it was live.
    pub fn remove(&mut self, key: &str) -> bool {
        let Some(sym) = self.keys.lookup(key) else {
            return false;
        };
        let i = sym.id() as usize;
        match self.values[i].take() {
            Some(old) => {
                self.value_bytes -= old.len();
                self.index.remove(key);
                true
            }
            None => false,
        }
    }

    /// The live value and revision of `key`.
    pub fn get(&self, key: &str) -> Option<(&Value, Revision)> {
        let sym = self.keys.lookup(key)?;
        let i = sym.id() as usize;
        self.values[i].as_ref().map(|v| (v, self.revs[i]))
    }

    /// Drops every live object. The key interner is retained: a cache
    /// rebuild over the same object space re-interns into the same slots
    /// without reallocating.
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = None;
        }
        self.index.clear();
        self.value_bytes = 0;
    }

    /// Live objects whose key starts with `prefix`, in lexical key order.
    pub fn range_prefix<'a>(&'a self, prefix: &'a str) -> SlabRange<'a> {
        SlabRange {
            inner: self
                .index
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded)),
            slab: self,
            pfx: prefix,
            done: false,
        }
    }

    /// An allocation-footprint proxy for the slab, in bytes: live value
    /// payloads plus the struct-of-arrays backing capacity and the key
    /// interner's name table. Deterministic (capacities grow by doubling),
    /// so bench runs can report per-object memory without touching the
    /// allocator.
    pub fn approx_bytes(&self) -> usize {
        let soa = self.values.capacity() * std::mem::size_of::<Option<Value>>()
            + self.revs.capacity() * std::mem::size_of::<Revision>();
        // Interned names: one Rc<str> header + the bytes, counted once.
        let names: usize = self.keys.iter().map(|(_, s)| s.len() + 16).sum();
        // Sorted index entries: a Name handle + a Sym per live key.
        let index = self.index.len() * (std::mem::size_of::<Name>() + std::mem::size_of::<Sym>());
        self.value_bytes + soa + names + index
    }
}

/// Iterator over one slab's live objects under a prefix (lexical order).
#[derive(Debug)]
pub struct SlabRange<'a> {
    inner: std::collections::btree_map::Range<'a, Name, Sym>,
    slab: &'a ObjectSlab,
    pfx: &'a str,
    done: bool,
}

impl<'a> Iterator for SlabRange<'a> {
    type Item = (&'a Name, &'a Value, Revision);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let (name, &sym) = self.inner.next()?;
        if !name.as_str().starts_with(self.pfx) {
            self.done = true;
            return None;
        }
        let i = sym.id() as usize;
        let value = self.slab.values[i].as_ref().expect("indexed keys are live");
        Some((name, value, self.slab.revs[i]))
    }
}

/// A watch cache split across several [`ObjectSlab`]s by key hash.
///
/// The shard of a key is `fnv1a(key) % shards` — seed-independent and
/// stable across runs. All read paths merge the per-shard sorted indexes
/// back into one lexical order, so the shard count is observationally
/// invisible (the determinism argument DESIGN.md §9 spells out).
#[derive(Debug, Clone)]
pub struct ShardedCache {
    shards: Vec<ObjectSlab>,
}

impl ShardedCache {
    /// A cache over `shards` slabs (0 is treated as 1).
    pub fn new(shards: usize) -> ShardedCache {
        ShardedCache {
            shards: (0..shards.max(1)).map(|_| ObjectSlab::new()).collect(),
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (fnv1a(key) % self.shards.len() as u64) as usize
        }
    }

    /// Total live objects across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ObjectSlab::len).sum()
    }

    /// `true` when no shard holds a live object.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ObjectSlab::is_empty)
    }

    /// Inserts or overwrites `key` in its shard.
    pub fn insert(&mut self, key: &str, value: Value, rev: Revision) {
        let s = self.shard_of(key);
        self.shards[s].insert(key, value, rev);
    }

    /// Removes `key` from its shard; `true` if it was live.
    pub fn remove(&mut self, key: &str) -> bool {
        let s = self.shard_of(key);
        self.shards[s].remove(key)
    }

    /// The live value and revision of `key`.
    pub fn get(&self, key: &str) -> Option<(&Value, Revision)> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Clears every shard (the interners persist, as in
    /// [`ObjectSlab::clear`]).
    pub fn clear(&mut self) {
        for s in &mut self.shards {
            s.clear();
        }
    }

    /// Allocation-footprint proxy summed across shards.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(ObjectSlab::approx_bytes).sum()
    }

    /// Live objects under `prefix` across all shards, merged back into
    /// lexical key order (identical to a single-slab scan).
    pub fn range_prefix<'a>(&'a self, prefix: &'a str) -> MergedRange<'a> {
        MergedRange {
            arms: self
                .shards
                .iter()
                .map(|s| s.range_prefix(prefix).peekable())
                .collect(),
        }
    }
}

/// K-way merge over the per-shard sorted prefix ranges.
#[derive(Debug)]
pub struct MergedRange<'a> {
    arms: Vec<std::iter::Peekable<SlabRange<'a>>>,
}

impl<'a> Iterator for MergedRange<'a> {
    type Item = (&'a Name, &'a Value, Revision);

    fn next(&mut self) -> Option<Self::Item> {
        // Shard count is tiny (≤ 16); a linear min scan beats a heap. The
        // peeked name is copied out with its full `'a` lifetime, so the
        // final `next()` call below doesn't conflict with the scan borrows.
        // Keys are disjoint across shards, so no tie-break is needed.
        let mut best: Option<(usize, &'a Name)> = None;
        for (i, arm) in self.arms.iter_mut().enumerate() {
            if let Some(&(name, _, _)) = arm.peek() {
                if best.map_or(true, |(_, b)| *name < *b) {
                    best = Some((i, name));
                }
            }
        }
        self.arms[best?.0].next()
    }
}

/// The rolling watch-event window as a fixed-capacity ring.
#[derive(Debug, Clone, Default)]
pub struct WindowRing {
    buf: Vec<Rc<ObjEvent>>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
}

impl WindowRing {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> WindowRing {
        WindowRing {
            buf: Vec::new(),
            cap,
            head: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` while nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends `ev`, returning the evicted oldest event when full. With
    /// capacity 0 the event is "evicted" immediately — the window holds
    /// nothing, exactly like the grow-then-trim deque it replaces.
    pub fn push(&mut self, ev: Rc<ObjEvent>) -> Option<Rc<ObjEvent>> {
        if self.cap == 0 {
            return Some(ev);
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            return None;
        }
        let evicted = std::mem::replace(&mut self.buf[self.head], ev);
        self.head = (self.head + 1) % self.cap;
        Some(evicted)
    }

    /// Drops all buffered events (capacity is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Rc<ObjEvent>> {
        let n = self.buf.len();
        (0..n).map(move |i| &self.buf[(self.head + i) % n.max(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn slab_insert_get_remove_roundtrip() {
        let mut s = ObjectSlab::new();
        assert!(s.is_empty());
        s.insert("pods/a", val("1"), Revision(1));
        s.insert("pods/b", val("22"), Revision(2));
        s.insert("pods/a", val("333"), Revision(3));
        assert_eq!(s.len(), 2);
        let (v, rv) = s.get("pods/a").expect("live");
        assert_eq!(v.as_slice(), b"333");
        assert_eq!(rv, Revision(3));
        assert!(s.remove("pods/a"));
        assert!(!s.remove("pods/a"));
        assert!(s.get("pods/a").is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_range_prefix_is_lexical_and_bounded() {
        let mut s = ObjectSlab::new();
        for k in ["pods/c", "nodes/a", "pods/a", "pods/b", "pvcs/x"] {
            s.insert(k, val(k), Revision(1));
        }
        let keys: Vec<&str> = s
            .range_prefix("pods/")
            .map(|(n, _, _)| n.as_str())
            .collect();
        assert_eq!(keys, vec!["pods/a", "pods/b", "pods/c"]);
        assert_eq!(s.range_prefix("zz").count(), 0);
        assert_eq!(s.range_prefix("").count(), 5);
    }

    #[test]
    fn slab_clear_keeps_interner_slots_stable() {
        let mut s = ObjectSlab::new();
        s.insert("a", val("x"), Revision(1));
        let bytes_before = s.approx_bytes();
        s.clear();
        assert!(s.is_empty());
        assert!(s.get("a").is_none());
        s.insert("a", val("x"), Revision(2));
        assert_eq!(s.get("a").map(|(_, rv)| rv), Some(Revision(2)));
        // Rebuild over the same keys costs no new interner growth.
        assert_eq!(s.approx_bytes(), bytes_before);
    }

    /// Model test: a sharded cache behaves exactly like one `BTreeMap`,
    /// for every shard count, on a deterministic random op stream.
    #[test]
    fn sharded_cache_matches_btreemap_model() {
        use ph_sim::SimRng;
        for shards in [1usize, 2, 3, 8] {
            let mut rng = SimRng::from_seed(0x51AB + shards as u64);
            let mut cache = ShardedCache::new(shards);
            let mut model: BTreeMap<String, (Value, Revision)> = BTreeMap::new();
            for step in 0..2_000u64 {
                let kind = ["pods/", "nodes/", "pvcs/"][rng.below(3) as usize];
                let key = format!("{kind}obj-{}", rng.below(200));
                if rng.below(4) == 0 {
                    assert_eq!(cache.remove(&key), model.remove(&key).is_some());
                } else {
                    let v = val(&format!("v{step}"));
                    cache.insert(&key, v.clone(), Revision(step));
                    model.insert(key, (v, Revision(step)));
                }
            }
            assert_eq!(cache.len(), model.len());
            for (k, (v, rv)) in &model {
                let (cv, crv) = cache.get(k).expect("model key live");
                assert_eq!(cv.as_slice(), v.as_slice());
                assert_eq!(crv, *rv);
            }
            for prefix in ["", "pods/", "nodes/", "pvcs/", "pods/obj-1"] {
                let got: Vec<(String, Revision)> = cache
                    .range_prefix(prefix)
                    .map(|(n, _, rv)| (n.as_str().to_string(), rv))
                    .collect();
                let want: Vec<(String, Revision)> = model
                    .range(prefix.to_string()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, (_, rv))| (k.clone(), *rv))
                    .collect();
                assert_eq!(got, want, "shards={shards} prefix={prefix:?}");
            }
        }
    }

    /// The merged scan is byte-for-byte independent of the shard count.
    #[test]
    fn shard_count_is_observationally_invisible() {
        let build = |shards: usize| {
            let mut c = ShardedCache::new(shards);
            for i in 0..500 {
                c.insert(&format!("pods/p-{i:04}"), val(&format!("{i}")), Revision(i));
            }
            for i in (0..500).step_by(3) {
                c.remove(&format!("pods/p-{i:04}"));
            }
            c
        };
        let reference: Vec<(String, Revision)> = build(1)
            .range_prefix("pods/")
            .map(|(n, _, rv)| (n.as_str().to_string(), rv))
            .collect();
        for shards in [2usize, 4, 8] {
            let got: Vec<(String, Revision)> = build(shards)
                .range_prefix("pods/")
                .map(|(n, _, rv)| (n.as_str().to_string(), rv))
                .collect();
            assert_eq!(got, reference, "shards={shards}");
        }
    }

    fn ev(rev: u64) -> Rc<ObjEvent> {
        Rc::new(ObjEvent {
            key: format!("pods/{rev}"),
            revision: Revision(rev),
            value: None,
        })
    }

    #[test]
    fn window_ring_evicts_oldest_first() {
        let mut w = WindowRing::new(3);
        assert!(w.push(ev(1)).is_none());
        assert!(w.push(ev(2)).is_none());
        assert!(w.push(ev(3)).is_none());
        assert_eq!(w.push(ev(4)).expect("full").revision, Revision(1));
        assert_eq!(w.push(ev(5)).expect("full").revision, Revision(2));
        let revs: Vec<u64> = w.iter().map(|e| e.revision.0).collect();
        assert_eq!(revs, vec![3, 4, 5]);
        w.clear();
        assert!(w.is_empty());
        assert!(w.push(ev(6)).is_none());
        assert_eq!(w.iter().count(), 1);
    }

    #[test]
    fn window_ring_capacity_zero_holds_nothing() {
        let mut w = WindowRing::new(0);
        assert_eq!(
            w.push(ev(9)).expect("immediate evict").revision,
            Revision(9)
        );
        assert!(w.is_empty());
        assert_eq!(w.iter().count(), 0);
    }

    /// The ring replays the exact eviction sequence of the deque it
    /// replaced: push a batch, trim to capacity, oldest dropped first.
    #[test]
    fn window_ring_matches_vecdeque_model() {
        use ph_sim::SimRng;
        use std::collections::VecDeque;
        let mut rng = SimRng::from_seed(0x217);
        for cap in [1usize, 2, 7, 100] {
            let mut ring = WindowRing::new(cap);
            let mut deque: VecDeque<Rc<ObjEvent>> = VecDeque::new();
            let mut ring_dropped = Vec::new();
            let mut deque_dropped = Vec::new();
            for rev in 0..500u64 {
                // Batches of 1–4 events, like multi-event feed deliveries.
                for b in 0..(1 + rng.below(4)) {
                    let e = ev(rev * 8 + b);
                    if let Some(d) = ring.push(Rc::clone(&e)) {
                        ring_dropped.push(d.revision);
                    }
                    deque.push_back(e);
                }
                while deque.len() > cap {
                    deque_dropped.push(deque.pop_front().expect("non-empty").revision);
                }
            }
            assert_eq!(ring_dropped, deque_dropped, "cap={cap}");
            let a: Vec<u64> = ring.iter().map(|e| e.revision.0).collect();
            let b: Vec<u64> = deque.iter().map(|e| e.revision.0).collect();
            assert_eq!(a, b, "cap={cap}");
        }
    }
}

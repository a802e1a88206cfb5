//! The apiserver watch cache's storage: a key-hash-sharded `BTreeMap`.
//!
//! [`ShardedCache`] splits the key space across several ordered maps by
//! key hash. Sharding is *purely internal*: every observable — get
//! results, list order (a k-way merge of the per-shard sorted maps),
//! lengths, [`ShardedCache::approx_bytes`] — is a pure function of the
//! key/value content and never of the shard count, so a run at
//! `shards = 8` is byte-identical to the same run at `shards = 1`. The
//! model tests in this module and the scenario-level equivalence suite
//! both pin that down.
//!
//! (The file keeps its old name because the benchmark's row names,
//! `ph-cluster.slab.*`, use it.)

use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use ph_sim::rng::fnv1a;
use ph_store::{Revision, Value};

/// One shard: live objects by key, in lexical key order.
type Shard = BTreeMap<Rc<str>, (Value, Revision)>;

/// The per-entry overhead [`ShardedCache::approx_bytes`] charges on top of
/// key and value bytes: one map entry's inline key and value handles, plus
/// the two reference counts in front of the key's shared string.
const ENTRY_BYTES: usize =
    std::mem::size_of::<(Rc<str>, (Value, Revision))>() + 2 * std::mem::size_of::<usize>();

/// A watch cache split across several ordered maps by key hash.
///
/// The shard of a key is `fnv1a(key) % shards` — seed-independent and
/// stable across runs. All read paths merge the per-shard maps back into
/// one lexical order, so the shard count is observationally invisible
/// (the determinism argument DESIGN.md §9 spells out).
#[derive(Debug, Clone)]
pub struct ShardedCache {
    shards: Vec<Shard>,
}

impl ShardedCache {
    /// A cache over `shards` maps (0 is treated as 1).
    pub fn new(shards: usize) -> ShardedCache {
        ShardedCache {
            shards: vec![Shard::new(); shards.max(1)],
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
        self.shards.iter().map(Shard::len).sum()
    }

    /// `true` when no shard holds a live object.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Shard::is_empty)
    }

    /// Inserts or overwrites `key` in its shard.
    pub fn insert(&mut self, key: &str, value: Value, rev: Revision) {
        let s = self.shard_of(key);
        match self.shards[s].get_mut(key) {
            Some(entry) => *entry = (value, rev),
            None => {
                self.shards[s].insert(Rc::from(key), (value, rev));
            }
        }
    }

    /// Removes `key` from its shard; `true` if it was live.
    pub fn remove(&mut self, key: &str) -> bool {
        let s = self.shard_of(key);
        self.shards[s].remove(key).is_some()
    }

    /// The live value and revision of `key`.
    pub fn get(&self, key: &str) -> Option<(&Value, Revision)> {
        self.shards[self.shard_of(key)]
            .get(key)
            .map(|(v, rev)| (v, *rev))
    }

    /// Drops every live object.
    pub fn clear(&mut self) {
        for s in &mut self.shards {
            s.clear();
        }
    }

    /// A deterministic memory proxy, in bytes: every live entry's key and
    /// value bytes plus [`ENTRY_BYTES`]. Computed from the content alone,
    /// so it is the same at every shard count and needs no allocator.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|(k, (v, _))| k.len() + v.len() + ENTRY_BYTES)
            .sum()
    }

    /// Live objects under `prefix` across all shards, merged back into
    /// lexical key order (identical to a single-map scan).
    pub fn range_prefix<'a>(&'a self, prefix: &'a str) -> MergedRange<'a> {
        MergedRange {
            arms: self
                .shards
                .iter()
                .map(|s| {
                    s.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                        .peekable()
                })
                .collect(),
            prefix,
        }
    }
}

/// One shard's entries from a prefix on, in key order.
type ShardRange<'a> = std::collections::btree_map::Range<'a, Rc<str>, (Value, Revision)>;

/// K-way merge over the per-shard sorted ranges that start at a prefix.
#[derive(Debug)]
pub struct MergedRange<'a> {
    arms: Vec<std::iter::Peekable<ShardRange<'a>>>,
    prefix: &'a str,
}

impl<'a> Iterator for MergedRange<'a> {
    type Item = (&'a Rc<str>, &'a Value, Revision);

    fn next(&mut self) -> Option<Self::Item> {
        // Shard count is tiny (≤ 16); a linear min scan beats a heap. An
        // arm whose next key lacks the prefix is done: its keys under the
        // prefix come first. The peeked name is copied out with its full
        // `'a` lifetime, so the final `next()` call below doesn't conflict
        // with the scan borrows. Keys are disjoint across shards, so no
        // tie-break is needed.
        let mut best: Option<(usize, &'a Rc<str>)> = None;
        for (i, arm) in self.arms.iter_mut().enumerate() {
            if let Some(&(name, _)) = arm.peek() {
                if name.starts_with(self.prefix) && best.map_or(true, |(_, b)| *name < *b) {
                    best = Some((i, name));
                }
            }
        }
        let (name, (value, rev)) = self.arms[best?.0].next()?;
        Some((name, value, *rev))
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
        let mut s = ShardedCache::new(1);
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
        s.clear();
        assert!(s.is_empty());
        assert!(s.get("pods/b").is_none());
    }

    #[test]
    fn slab_range_prefix_is_lexical_and_bounded() {
        let mut s = ShardedCache::new(1);
        for k in ["pods/c", "nodes/a", "pods/a", "pods/b", "pvcs/x"] {
            s.insert(k, val(k), Revision(1));
        }
        let keys: Vec<&str> = s.range_prefix("pods/").map(|(n, _, _)| &**n).collect();
        assert_eq!(keys, vec!["pods/a", "pods/b", "pods/c"]);
        assert_eq!(s.range_prefix("zz").count(), 0);
        assert_eq!(s.range_prefix("").count(), 5);
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
                    .map(|(n, _, rv)| (n.to_string(), rv))
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

    /// The merged scan and the memory proxy are independent of the shard
    /// count.
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
        let scan = |c: &ShardedCache| -> Vec<(String, Revision)> {
            c.range_prefix("pods/")
                .map(|(n, _, rv)| (n.to_string(), rv))
                .collect()
        };
        let one = build(1);
        for shards in [2usize, 4, 8] {
            assert_eq!(scan(&build(shards)), scan(&one), "shards={shards}");
        }
        assert!(one.approx_bytes() > 0);
        assert_eq!(build(8).approx_bytes(), one.approx_bytes());
    }
}

//! Core key-value types: keys, values, revisions, events, leases.
//!
//! A [`Revision`] is the store's global logical clock: every committed
//! mutation increments it by one. The ordered sequence of [`KvEvent`]s —
//! one per revision — is exactly the paper's history `H`; the materialized
//! map of [`KeyValue`]s at a revision is the state `S`.

use std::rc::Rc;

use crate::bytes::Bytes;

/// A key in the store. Keys are ordered byte strings; prefix scans model
/// etcd range reads and Kubernetes collection lists.
///
/// A key is one shared allocation: cloning it bumps a refcount, so the log
/// entry that carried a put, the live map's key and value, and the history
/// event's `kv` and `prev` all point at the same bytes. It compares,
/// orders, hashes and prints (`Key("pods/a")`) exactly as its string does.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Rc<str>);

impl Key {
    /// Builds a key from anything string-like, copying the bytes once into
    /// the shared allocation.
    pub fn new(s: impl AsRef<str>) -> Key {
        Key(Rc::from(s.as_ref()))
    }

    /// `true` if this key starts with `prefix`.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }

    /// The raw key string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key::new(s)
    }
}

/// An opaque value. Upper layers define their own encodings.
pub type Value = Bytes;

/// The store's global, totally ordered mutation counter.
///
/// Revision 0 means "empty store / before any write"; the first commit is
/// revision 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Revision(pub u64);

impl Revision {
    /// The pre-history revision.
    pub const ZERO: Revision = Revision(0);

    /// The next revision.
    #[inline]
    pub fn next(self) -> Revision {
        Revision(self.0 + 1)
    }
}

impl std::fmt::Display for Revision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a lease (TTL-scoped key ownership, per Gray & Cheriton [23]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

impl std::fmt::Display for LeaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lease-{}", self.0)
    }
}

/// A stored key with its MVCC metadata — the unit of the state `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyValue {
    /// The key.
    pub key: Key,
    /// The value at `mod_revision`.
    pub value: Value,
    /// Revision at which the key was (last) created.
    pub create_revision: Revision,
    /// Revision of the most recent write to the key.
    pub mod_revision: Revision,
    /// Number of writes since creation (1 for a fresh key).
    pub version: u64,
    /// Owning lease, if any; the key is deleted when the lease expires.
    pub lease: Option<LeaseId>,
}

/// One committed change — the unit of the history `H`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvEvent {
    /// A key was created or updated.
    Put {
        /// The key's state after the write.
        kv: KeyValue,
        /// The key's state before the write (`None` on create).
        prev: Option<KeyValue>,
    },
    /// A key was deleted (tombstone).
    Delete {
        /// The deleted key.
        key: Key,
        /// Revision of the deletion.
        revision: Revision,
        /// The key's state before deletion.
        prev: Option<KeyValue>,
    },
}

impl KvEvent {
    /// The key this event concerns.
    pub fn key(&self) -> &Key {
        match self {
            KvEvent::Put { kv, .. } => &kv.key,
            KvEvent::Delete { key, .. } => key,
        }
    }

    /// The revision at which this event committed.
    pub fn revision(&self) -> Revision {
        match self {
            KvEvent::Put { kv, .. } => kv.mod_revision,
            KvEvent::Delete { revision, .. } => *revision,
        }
    }

    /// `true` for deletions.
    pub fn is_delete(&self) -> bool {
        matches!(self, KvEvent::Delete { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(key: &str, rev: u64) -> KeyValue {
        KeyValue {
            key: Key::new(key),
            value: Value::from_static(b"v"),
            create_revision: Revision(rev),
            mod_revision: Revision(rev),
            version: 1,
            lease: None,
        }
    }

    #[test]
    fn keys_order_lexicographically_and_prefix_match() {
        assert!(Key::new("a") < Key::new("b"));
        assert!(Key::new("pods/a") < Key::new("pods/b"));
        assert!(Key::new("pods/a").has_prefix("pods/"));
        assert!(!Key::new("nodes/a").has_prefix("pods/"));
        assert_eq!(Key::from("x").as_str(), "x");
    }

    #[test]
    fn key_clones_share_the_allocation() {
        let a = Key::new(String::from("pods/a"));
        let b = a.clone();
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
        // Equal contents from separate constructions are still equal keys.
        assert_eq!(a, Key::from("pods/a"));
        assert_ne!(a.as_str().as_ptr(), Key::from("pods/a").as_str().as_ptr());
    }

    #[test]
    fn key_renders_orders_and_hashes_like_its_string() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }

        assert_eq!(format!("{:?}", Key::new("pods/a")), r#"Key("pods/a")"#);
        assert_eq!(format!("{:?}", Key::new("a\"b")), r#"Key("a\"b")"#);
        let strs = ["", "a", "pods/", "pods/a", "pods/a0", "pods/b", "z", "é"];
        for s in strs {
            let k = Key::new(s);
            assert_eq!(k.to_string(), s);
            assert_eq!(hash_of(&k), hash_of(&String::from(s)));
            for t in strs {
                assert_eq!(k.cmp(&Key::new(t)), s.cmp(t), "{s:?} vs {t:?}");
            }
        }
    }

    #[test]
    fn revision_next_increments() {
        assert_eq!(Revision::ZERO.next(), Revision(1));
        assert_eq!(Revision(41).next(), Revision(42));
        assert!(Revision(1) < Revision(2));
    }

    #[test]
    fn event_accessors() {
        let put = KvEvent::Put {
            kv: kv("a", 5),
            prev: None,
        };
        assert_eq!(put.key(), &Key::new("a"));
        assert_eq!(put.revision(), Revision(5));
        assert!(!put.is_delete());

        let del = KvEvent::Delete {
            key: Key::new("a"),
            revision: Revision(6),
            prev: Some(kv("a", 5)),
        };
        assert_eq!(del.revision(), Revision(6));
        assert!(del.is_delete());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Revision(3).to_string(), "r3");
        assert_eq!(LeaseId(7).to_string(), "lease-7");
        assert_eq!(Key::new("pods/p1").to_string(), "pods/p1");
    }
}

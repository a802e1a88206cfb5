//! The revisioned key-value state machine.
//!
//! [`MvccStore`] is deterministic: replicas applying the same command
//! sequence hold identical state, and a node replaying its Raft log after a
//! restart reconstructs the exact same revisions. The retained event log
//! ([`MvccStore::events_since`]) is the paper's history `H`; the current map
//! ([`MvccStore::range`]) is the state `S`. [`MvccStore::compact`] drops the
//! old tail of `H`, creating the rolling window whose edge produces
//! observability gaps (§4.2.3).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use crate::kv::{Key, KeyValue, KvEvent, LeaseId, Revision, Value};
use crate::msgs::{Expect, Op, OpError, OpResult};

/// `key`'s entry in the live map if `expect` admits its current state. A
/// refused entry is dropped unused, which inserts nothing.
fn cas_entry<'a>(
    current: &'a mut BTreeMap<Key, KeyValue>,
    key: &Key,
    expect: Expect,
) -> Result<Entry<'a, Key, KeyValue>, OpError> {
    let entry = current.entry(key.clone());
    let actual = match &entry {
        Entry::Occupied(e) => Some(e.get().mod_revision),
        Entry::Vacant(_) => None,
    };
    if expect.admits(actual) {
        Ok(entry)
    } else {
        Err(OpError::CasFailed {
            key: key.clone(),
            actual,
        })
    }
}

/// Replicated lease state (existence and attached keys; expiry timing lives
/// at the leader, which proposes revocations through the log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Granted TTL in logical milliseconds.
    pub ttl_ms: u64,
    /// Keys currently attached.
    pub keys: BTreeSet<Key>,
}

/// The MVCC store: state `S`, retained history `H`, and lease table.
#[derive(Debug, Default, Clone)]
pub struct MvccStore {
    current: BTreeMap<Key, KeyValue>,
    /// Retained events; `events[i]` committed at revision
    /// `compacted + 1 + i`. Only puts and deletes consume revisions, so the
    /// log is dense.
    events: VecDeque<Rc<KvEvent>>,
    /// Highest compacted revision; events at or below it are gone.
    compacted: Revision,
    /// Latest committed revision.
    revision: Revision,
    leases: BTreeMap<LeaseId, LeaseInfo>,
}

impl MvccStore {
    /// Creates an empty store at revision 0.
    pub fn new() -> MvccStore {
        MvccStore::default()
    }

    /// Latest committed revision.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// The compaction floor: events at or below this revision are gone.
    pub fn compacted(&self) -> Revision {
        self.compacted
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` if no keys are live.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Number of retained history events.
    pub fn retained_events(&self) -> usize {
        self.events.len()
    }

    /// Current state of one key.
    pub fn get(&self, key: &Key) -> Option<&KeyValue> {
        self.current.get(key)
    }

    /// All live keys with the given prefix, in key order, plus the revision
    /// the read reflects.
    pub fn range(&self, prefix: &str) -> (Vec<KeyValue>, Revision) {
        let kvs = self
            .current
            .range(Key::new(prefix)..)
            .take_while(|(k, _)| k.has_prefix(prefix))
            .map(|(_, v)| v.clone())
            .collect();
        (kvs, self.revision)
    }

    /// Lease table entry.
    pub fn lease(&self, id: LeaseId) -> Option<&LeaseInfo> {
        self.leases.get(&id)
    }

    /// Ids of all live leases.
    pub fn lease_ids(&self) -> Vec<LeaseId> {
        self.leases.keys().copied().collect()
    }

    /// The whole lease table.
    pub(crate) fn leases(&self) -> &BTreeMap<LeaseId, LeaseInfo> {
        &self.leases
    }

    /// Retained events strictly after `after`, in revision order.
    ///
    /// # Errors
    ///
    /// [`OpError::Compacted`] if `after` is below the compaction floor —
    /// events in `(after, compacted]` are irrecoverably gone, so resuming
    /// from `after` would silently skip history.
    pub fn events_since(&self, after: Revision) -> Result<Vec<Rc<KvEvent>>, OpError> {
        if after < self.compacted {
            return Err(OpError::Compacted {
                requested: after,
                compacted: self.compacted,
            });
        }
        let skip = (after.0 - self.compacted.0) as usize;
        Ok(self.events.iter().skip(skip).cloned().collect())
    }

    /// Applies one command, returning its result and the history events it
    /// produced (one per consumed revision).
    pub fn apply(&mut self, op: &Op) -> (Result<OpResult, OpError>, Vec<Rc<KvEvent>>) {
        match op {
            Op::Put {
                key,
                value,
                lease,
                expect,
            } => self.apply_put(key, value, *lease, *expect),
            Op::Delete { key, expect } => self.apply_delete(key, *expect),
            Op::Read { prefix } => {
                let (kvs, revision) = self.range(prefix);
                (Ok(OpResult::Read { kvs, revision }), Vec::new())
            }
            Op::LeaseGrant { id, ttl_ms } => {
                if self.leases.contains_key(id) {
                    return (Err(OpError::LeaseExists(*id)), Vec::new());
                }
                self.leases.insert(
                    *id,
                    LeaseInfo {
                        ttl_ms: *ttl_ms,
                        keys: BTreeSet::new(),
                    },
                );
                (Ok(OpResult::LeaseGranted { id: *id }), Vec::new())
            }
            Op::LeaseKeepAlive { id } => {
                if self.leases.contains_key(id) {
                    (Ok(OpResult::LeaseAlive { id: *id }), Vec::new())
                } else {
                    (Err(OpError::LeaseNotFound(*id)), Vec::new())
                }
            }
            Op::LeaseRevoke { id } => self.apply_lease_revoke(*id),
            Op::Compact { at, .. } => {
                self.compact(*at);
                (Ok(OpResult::Compacted { at: self.compacted }), Vec::new())
            }
            Op::Nop => (Ok(OpResult::Nop), Vec::new()),
        }
    }

    /// A put walks the live map once: the entry it finds answers the CAS
    /// precondition, supplies `prev`, and takes the new value in place.
    fn apply_put(
        &mut self,
        key: &Key,
        value: &Value,
        lease: Option<LeaseId>,
        expect: Expect,
    ) -> (Result<OpResult, OpError>, Vec<Rc<KvEvent>>) {
        let entry = match cas_entry(&mut self.current, key, expect) {
            Ok(entry) => entry,
            Err(e) => return (Err(e), Vec::new()),
        };
        if let Some(id) = lease {
            if !self.leases.contains_key(&id) {
                return (Err(OpError::LeaseNotFound(id)), Vec::new());
            }
        }
        let rev = self.revision.next();
        let mut kv = KeyValue {
            key: key.clone(),
            value: value.clone(),
            create_revision: rev,
            mod_revision: rev,
            version: 1,
            lease,
        };
        let prev = match entry {
            Entry::Occupied(mut e) => {
                let p = e.get();
                kv.create_revision = p.create_revision;
                kv.version = p.version + 1;
                // Maintain lease attachment sets across ownership changes.
                if let Some(old_lease) = p.lease.filter(|&old| Some(old) != lease) {
                    if let Some(info) = self.leases.get_mut(&old_lease) {
                        info.keys.remove(key);
                    }
                }
                Some(std::mem::replace(e.get_mut(), kv.clone()))
            }
            Entry::Vacant(e) => {
                e.insert(kv.clone());
                None
            }
        };
        if let Some(id) = lease {
            self.leases
                .get_mut(&id)
                .expect("checked above")
                .keys
                .insert(key.clone());
        }
        self.revision = rev;
        // Construct the event once; the retained log and the notification
        // batch share the allocation.
        let ev = Rc::new(KvEvent::Put { kv, prev });
        self.events.push_back(Rc::clone(&ev));
        (Ok(OpResult::Put { revision: rev }), vec![ev])
    }

    fn apply_delete(
        &mut self,
        key: &Key,
        expect: Expect,
    ) -> (Result<OpResult, OpError>, Vec<Rc<KvEvent>>) {
        let entry = match cas_entry(&mut self.current, key, expect) {
            Ok(entry) => entry,
            Err(e) => return (Err(e), Vec::new()),
        };
        let Entry::Occupied(entry) = entry else {
            return (
                Ok(OpResult::Delete {
                    revision: self.revision,
                    existed: false,
                }),
                Vec::new(),
            );
        };
        let prev = entry.remove();
        if let Some(lease) = prev.lease {
            if let Some(info) = self.leases.get_mut(&lease) {
                info.keys.remove(key);
            }
        }
        let rev = self.revision.next();
        self.revision = rev;
        let ev = Rc::new(KvEvent::Delete {
            key: key.clone(),
            revision: rev,
            prev: Some(prev),
        });
        self.events.push_back(Rc::clone(&ev));
        (
            Ok(OpResult::Delete {
                revision: rev,
                existed: true,
            }),
            vec![ev],
        )
    }

    fn apply_lease_revoke(&mut self, id: LeaseId) -> (Result<OpResult, OpError>, Vec<Rc<KvEvent>>) {
        let Some(info) = self.leases.remove(&id) else {
            return (Err(OpError::LeaseNotFound(id)), Vec::new());
        };
        let mut events = Vec::with_capacity(info.keys.len());
        for key in &info.keys {
            let (_, mut evs) = self.apply_delete(key, Expect::Any);
            events.append(&mut evs);
        }
        (
            Ok(OpResult::LeaseRevoked {
                id,
                deleted: events.len(),
            }),
            events,
        )
    }

    /// Restores the state at `revision`: undoes each retained event above
    /// it through the `prev` it carries, newest first, and installs
    /// `leases` — the lease table as it stood at `revision`, which events
    /// do not record. The result equals the store as it was when it reached
    /// `revision`, history window included; at revision 0 it is the empty
    /// store, made without walking anything.
    ///
    /// # Panics
    ///
    /// Panics if `revision` is below the compaction floor (the events to
    /// undo are gone) or above the current revision.
    pub(crate) fn rewind(&mut self, revision: Revision, leases: BTreeMap<LeaseId, LeaseInfo>) {
        assert!(
            (self.compacted..=self.revision).contains(&revision),
            "cannot rewind to {revision}: history spans {}..={}",
            self.compacted,
            self.revision
        );
        if revision == Revision::ZERO {
            *self = MvccStore {
                leases,
                ..MvccStore::default()
            };
            return;
        }
        let keep = (revision.0 - self.compacted.0) as usize;
        for ev in self.events.drain(keep..).rev() {
            let (key, prev) = match &*ev {
                KvEvent::Put { kv, prev } => (&kv.key, prev),
                KvEvent::Delete { key, prev, .. } => (key, prev),
            };
            match prev {
                Some(p) => self.current.insert(key.clone(), p.clone()),
                None => self.current.remove(key),
            };
        }
        self.revision = revision;
        self.leases = leases;
    }

    /// Drops retained events at or below `at` (clamped to the current
    /// revision). Returns the number of events discarded.
    pub fn compact(&mut self, at: Revision) -> usize {
        let at = at.min(self.revision);
        if at <= self.compacted {
            return 0;
        }
        let drop = (at.0 - self.compacted.0) as usize;
        let drop = drop.min(self.events.len());
        self.events.drain(..drop);
        self.compacted = at;
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(s: &mut MvccStore, key: &str, val: &str) -> Revision {
        let (res, _) = s.apply(&Op::Put {
            key: Key::new(key),
            value: Value::copy_from_slice(val.as_bytes()),
            lease: None,
            expect: Expect::Any,
        });
        match res.expect("put") {
            OpResult::Put { revision } => revision,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn delete(s: &mut MvccStore, key: &str) {
        let (res, _) = s.apply(&Op::Delete {
            key: Key::new(key),
            expect: Expect::Any,
        });
        res.expect("delete");
    }

    #[test]
    fn puts_assign_dense_revisions() {
        let mut s = MvccStore::new();
        assert_eq!(put(&mut s, "a", "1"), Revision(1));
        assert_eq!(put(&mut s, "b", "2"), Revision(2));
        assert_eq!(put(&mut s, "a", "3"), Revision(3));
        assert_eq!(s.revision(), Revision(3));
        let a = s.get(&Key::new("a")).expect("a");
        assert_eq!(a.create_revision, Revision(1));
        assert_eq!(a.mod_revision, Revision(3));
        assert_eq!(a.version, 2);
    }

    #[test]
    fn range_scans_by_prefix_in_order() {
        let mut s = MvccStore::new();
        put(&mut s, "pods/b", "1");
        put(&mut s, "pods/a", "2");
        put(&mut s, "nodes/x", "3");
        let (kvs, rev) = s.range("pods/");
        assert_eq!(rev, Revision(3));
        let keys: Vec<_> = kvs.iter().map(|kv| kv.key.as_str()).collect();
        assert_eq!(keys, vec!["pods/a", "pods/b"]);
        let (all, _) = s.range("");
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn delete_tombstones_and_reads_through() {
        let mut s = MvccStore::new();
        put(&mut s, "a", "1");
        delete(&mut s, "a");
        assert!(s.get(&Key::new("a")).is_none());
        assert_eq!(s.revision(), Revision(2));
        // Deleting a missing key consumes no revision.
        let (res, evs) = s.apply(&Op::Delete {
            key: Key::new("zzz"),
            expect: Expect::Any,
        });
        assert!(matches!(res, Ok(OpResult::Delete { existed: false, .. })));
        assert!(evs.is_empty());
        assert_eq!(s.revision(), Revision(2));
    }

    #[test]
    fn recreated_key_gets_fresh_create_revision() {
        let mut s = MvccStore::new();
        put(&mut s, "a", "1");
        delete(&mut s, "a");
        put(&mut s, "a", "2");
        let a = s.get(&Key::new("a")).expect("a");
        assert_eq!(a.create_revision, Revision(3));
        assert_eq!(a.version, 1);
    }

    #[test]
    fn cas_preconditions_enforced() {
        let mut s = MvccStore::new();
        let r1 = put(&mut s, "a", "1");
        // NotExists on an existing key fails.
        let (res, _) = s.apply(&Op::Put {
            key: Key::new("a"),
            value: Value::from_static(b"x"),
            lease: None,
            expect: Expect::NotExists,
        });
        assert_eq!(
            res,
            Err(OpError::CasFailed {
                key: Key::new("a"),
                actual: Some(r1),
            })
        );
        // Correct ModRev succeeds.
        let (res, _) = s.apply(&Op::Put {
            key: Key::new("a"),
            value: Value::from_static(b"y"),
            lease: None,
            expect: Expect::ModRev(r1),
        });
        assert!(res.is_ok());
        // Stale ModRev now fails — the HBase-3136 mechanism.
        let (res, _) = s.apply(&Op::Put {
            key: Key::new("a"),
            value: Value::from_static(b"z"),
            lease: None,
            expect: Expect::ModRev(r1),
        });
        assert!(matches!(res, Err(OpError::CasFailed { .. })));
        // Failed CAS consumed no revision.
        assert_eq!(s.revision(), Revision(2));
    }

    #[test]
    fn cas_delete_with_modrev() {
        let mut s = MvccStore::new();
        let r1 = put(&mut s, "a", "1");
        put(&mut s, "a", "2");
        let (res, _) = s.apply(&Op::Delete {
            key: Key::new("a"),
            expect: Expect::ModRev(r1),
        });
        assert!(matches!(res, Err(OpError::CasFailed { .. })));
        assert!(s.get(&Key::new("a")).is_some());
    }

    #[test]
    fn events_since_returns_suffix_in_order() {
        let mut s = MvccStore::new();
        put(&mut s, "a", "1");
        put(&mut s, "b", "2");
        delete(&mut s, "a");
        let evs = s.events_since(Revision(1)).expect("retained");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].revision(), Revision(2));
        assert_eq!(evs[1].revision(), Revision(3));
        assert!(evs[1].is_delete());
        assert!(s.events_since(Revision(3)).expect("empty").is_empty());
    }

    #[test]
    fn compaction_drops_tail_and_poisons_old_resumes() {
        let mut s = MvccStore::new();
        for i in 0..10 {
            put(&mut s, &format!("k{i}"), "v");
        }
        let dropped = s.compact(Revision(6));
        assert_eq!(dropped, 6);
        assert_eq!(s.compacted(), Revision(6));
        assert_eq!(s.retained_events(), 4);
        // Resuming exactly at the floor is fine...
        let evs = s.events_since(Revision(6)).expect("at floor");
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].revision(), Revision(7));
        // ...but below it is an observability gap.
        let err = s.events_since(Revision(5)).expect_err("compacted");
        assert_eq!(
            err,
            OpError::Compacted {
                requested: Revision(5),
                compacted: Revision(6),
            }
        );
        // State is unaffected by compaction.
        assert_eq!(s.len(), 10);
        // Compacting backwards or twice is a no-op.
        assert_eq!(s.compact(Revision(3)), 0);
    }

    #[test]
    fn compact_clamps_to_current_revision() {
        let mut s = MvccStore::new();
        put(&mut s, "a", "1");
        let dropped = s.compact(Revision(99));
        assert_eq!(dropped, 1);
        assert_eq!(s.compacted(), Revision(1));
        assert_eq!(s.revision(), Revision(1));
    }

    #[test]
    fn leases_attach_and_revoke_deletes_keys() {
        let mut s = MvccStore::new();
        let (res, _) = s.apply(&Op::LeaseGrant {
            id: LeaseId(1),
            ttl_ms: 1000,
        });
        assert!(res.is_ok());
        // Re-grant fails.
        let (res, _) = s.apply(&Op::LeaseGrant {
            id: LeaseId(1),
            ttl_ms: 1000,
        });
        assert_eq!(res, Err(OpError::LeaseExists(LeaseId(1))));
        // Attach two keys.
        for k in ["x", "y"] {
            let (res, _) = s.apply(&Op::Put {
                key: Key::new(k),
                value: Value::from_static(b"v"),
                lease: Some(LeaseId(1)),
                expect: Expect::Any,
            });
            res.expect("leased put");
        }
        assert_eq!(s.lease(LeaseId(1)).expect("lease").keys.len(), 2);
        // Keepalive works, unknown lease errors.
        assert!(s.apply(&Op::LeaseKeepAlive { id: LeaseId(1) }).0.is_ok());
        assert_eq!(
            s.apply(&Op::LeaseKeepAlive { id: LeaseId(9) }).0,
            Err(OpError::LeaseNotFound(LeaseId(9)))
        );
        // Revoke deletes both keys, emitting events.
        let (res, evs) = s.apply(&Op::LeaseRevoke { id: LeaseId(1) });
        assert_eq!(
            res,
            Ok(OpResult::LeaseRevoked {
                id: LeaseId(1),
                deleted: 2,
            })
        );
        assert_eq!(evs.len(), 2);
        assert!(s.is_empty());
        assert!(s.lease(LeaseId(1)).is_none());
    }

    #[test]
    fn leased_put_requires_live_lease() {
        let mut s = MvccStore::new();
        let (res, _) = s.apply(&Op::Put {
            key: Key::new("x"),
            value: Value::from_static(b"v"),
            lease: Some(LeaseId(404)),
            expect: Expect::Any,
        });
        assert_eq!(res, Err(OpError::LeaseNotFound(LeaseId(404))));
    }

    #[test]
    fn overwrite_detaches_old_lease() {
        let mut s = MvccStore::new();
        s.apply(&Op::LeaseGrant {
            id: LeaseId(1),
            ttl_ms: 1000,
        })
        .0
        .expect("grant");
        s.apply(&Op::Put {
            key: Key::new("x"),
            value: Value::from_static(b"v"),
            lease: Some(LeaseId(1)),
            expect: Expect::Any,
        })
        .0
        .expect("leased put");
        // Overwrite without a lease detaches.
        put(&mut s, "x", "v2");
        assert!(s.lease(LeaseId(1)).expect("lease").keys.is_empty());
        let (_, evs) = s.apply(&Op::LeaseRevoke { id: LeaseId(1) });
        assert!(evs.is_empty(), "no keys should die with the lease");
        assert!(s.get(&Key::new("x")).is_some());
    }

    #[test]
    fn reads_and_nops_consume_no_revisions() {
        let mut s = MvccStore::new();
        put(&mut s, "a", "1");
        let before = s.revision();
        s.apply(&Op::Read { prefix: "".into() }).0.expect("read");
        s.apply(&Op::Nop).0.expect("nop");
        s.apply(&Op::Compact {
            at: Revision(1),
            log_floor: 0,
        })
        .0
        .expect("compact");
        assert_eq!(s.revision(), before);
        assert!(s.events_since(before).expect("ok").is_empty());
    }

    #[test]
    fn replaying_the_same_ops_reproduces_identical_state() {
        let ops = [
            Op::Put {
                key: Key::new("a"),
                value: Value::from_static(b"1"),
                lease: None,
                expect: Expect::Any,
            },
            Op::LeaseGrant {
                id: LeaseId(1),
                ttl_ms: 500,
            },
            Op::Put {
                key: Key::new("b"),
                value: Value::from_static(b"2"),
                lease: Some(LeaseId(1)),
                expect: Expect::Any,
            },
            Op::Delete {
                key: Key::new("a"),
                expect: Expect::Any,
            },
            Op::LeaseRevoke { id: LeaseId(1) },
        ];
        let mut s1 = MvccStore::new();
        let mut s2 = MvccStore::new();
        let out1: Vec<_> = ops.iter().map(|op| s1.apply(op)).collect();
        let out2: Vec<_> = ops.iter().map(|op| s2.apply(op)).collect();
        assert_eq!(out1, out2);
        assert_eq!(s1.revision(), s2.revision());
        assert_eq!(s1.range(""), s2.range(""));
    }

    #[test]
    fn rewind_restores_the_state_at_a_cut_after_the_last_compaction() {
        let mut rng = ph_sim::SimRng::from_seed(0x5E3D_0C07);
        let (mut past_compaction, mut undid_update, mut undid_delete, mut undid_leases) =
            (0, 0, 0, 0);
        for case in 0..2_000 {
            let mut s = MvccStore::new();
            for _ in 0..rng.below(24) {
                let _ = s.apply(&gen_op(&mut rng, &s));
            }
            // The cut: the state a replica records when it applies a
            // compaction, which every later op leaves retained above it.
            let cut = s.clone();
            let mut undone = Vec::new();
            for _ in 0..rng.range(1, 17) {
                let op = match gen_op(&mut rng, &s) {
                    Op::Compact { .. } => Op::Nop,
                    op => op,
                };
                let (res, evs) = s.apply(&op);
                undid_leases += u32::from(matches!(op, Op::LeaseGrant { .. }) && res.is_ok());
                undone.extend(evs);
            }
            s.rewind(cut.revision, cut.leases.clone());

            let at = format!("case {case}: cut at {}, {undone:?}", cut.revision);
            assert_eq!(s.current, cut.current, "{at}");
            assert_eq!(s.revision, cut.revision, "{at}");
            assert_eq!(s.compacted, cut.compacted, "{at}");
            assert_eq!(s.events, cut.events, "{at}");
            assert_eq!(s.leases, cut.leases, "{at}");

            past_compaction += u32::from(cut.compacted > Revision::ZERO && !undone.is_empty());
            for ev in &undone {
                match &**ev {
                    KvEvent::Put { prev: Some(_), .. } => undid_update += 1,
                    KvEvent::Delete { .. } => undid_delete += 1,
                    KvEvent::Put { prev: None, .. } => {}
                }
            }
        }
        for (what, hits) in [
            ("an undo above a compaction floor", past_compaction),
            ("an undone update", undid_update),
            ("an undone delete", undid_delete),
            ("a lease granted after the cut", undid_leases),
        ] {
            assert!(hits >= 200, "{what}: only {hits} cases");
        }
    }

    #[test]
    fn rewinding_an_uncompacted_store_to_zero_empties_it() {
        let mut rng = ph_sim::SimRng::from_seed(0x0000_2E80);
        let mut s = MvccStore::new();
        for _ in 0..64 {
            match gen_op(&mut rng, &s) {
                Op::Compact { .. } => {}
                op => drop(s.apply(&op)),
            }
        }
        assert!(s.revision() > Revision::ZERO && s.compacted() == Revision::ZERO);
        s.rewind(Revision::ZERO, BTreeMap::new());
        assert_eq!(format!("{s:?}"), format!("{:?}", MvccStore::new()));
    }

    // -----------------------------------------------------------------
    // Reference equivalence: the apply path that walked the live map once
    // for the CAS check, once for `prev` and once for the insert, kept to
    // compare the one-walk path against.
    // -----------------------------------------------------------------

    type Applied = (Result<OpResult, OpError>, Vec<Rc<KvEvent>>);

    impl MvccStore {
        fn apply_reference(&mut self, op: &Op) -> Applied {
            match op {
                Op::Put {
                    key,
                    value,
                    lease,
                    expect,
                } => self.apply_put_reference(key, value, *lease, *expect),
                Op::Delete { key, expect } => self.apply_delete_reference(key, *expect),
                Op::LeaseRevoke { id } => {
                    let Some(info) = self.leases.remove(id) else {
                        return (Err(OpError::LeaseNotFound(*id)), Vec::new());
                    };
                    let mut events = Vec::new();
                    for key in &info.keys {
                        events.append(&mut self.apply_delete_reference(key, Expect::Any).1);
                    }
                    let deleted = events.len();
                    (Ok(OpResult::LeaseRevoked { id: *id, deleted }), events)
                }
                _ => self.apply(op),
            }
        }

        fn check_expect_reference(&self, key: &Key, expect: Expect) -> Result<(), OpError> {
            let actual = self.current.get(key).map(|kv| kv.mod_revision);
            let ok = match expect {
                Expect::Any => true,
                Expect::NotExists => actual.is_none(),
                Expect::ModRev(r) => actual == Some(r),
            };
            if ok {
                Ok(())
            } else {
                Err(OpError::CasFailed {
                    key: key.clone(),
                    actual,
                })
            }
        }

        fn apply_put_reference(
            &mut self,
            key: &Key,
            value: &Value,
            lease: Option<LeaseId>,
            expect: Expect,
        ) -> Applied {
            if let Err(e) = self.check_expect_reference(key, expect) {
                return (Err(e), Vec::new());
            }
            if let Some(id) = lease {
                if !self.leases.contains_key(&id) {
                    return (Err(OpError::LeaseNotFound(id)), Vec::new());
                }
            }
            let rev = self.revision.next();
            let prev = self.current.get(key).cloned();
            if let Some(p) = &prev {
                if let Some(old_lease) = p.lease {
                    if Some(old_lease) != lease {
                        if let Some(info) = self.leases.get_mut(&old_lease) {
                            info.keys.remove(key);
                        }
                    }
                }
            }
            if let Some(id) = lease {
                self.leases
                    .get_mut(&id)
                    .expect("checked above")
                    .keys
                    .insert(key.clone());
            }
            let kv = KeyValue {
                key: key.clone(),
                value: value.clone(),
                create_revision: prev.as_ref().map_or(rev, |p| p.create_revision),
                mod_revision: rev,
                version: prev.as_ref().map_or(1, |p| p.version + 1),
                lease,
            };
            self.current.insert(key.clone(), kv.clone());
            self.revision = rev;
            let ev = Rc::new(KvEvent::Put { kv, prev });
            self.events.push_back(Rc::clone(&ev));
            (Ok(OpResult::Put { revision: rev }), vec![ev])
        }

        fn apply_delete_reference(&mut self, key: &Key, expect: Expect) -> Applied {
            if let Err(e) = self.check_expect_reference(key, expect) {
                return (Err(e), Vec::new());
            }
            let Some(prev) = self.current.remove(key) else {
                return (
                    Ok(OpResult::Delete {
                        revision: self.revision,
                        existed: false,
                    }),
                    Vec::new(),
                );
            };
            if let Some(lease) = prev.lease {
                if let Some(info) = self.leases.get_mut(&lease) {
                    info.keys.remove(key);
                }
            }
            let rev = self.revision.next();
            self.revision = rev;
            let ev = Rc::new(KvEvent::Delete {
                key: key.clone(),
                revision: rev,
                prev: Some(prev),
            });
            self.events.push_back(Rc::clone(&ev));
            (
                Ok(OpResult::Delete {
                    revision: rev,
                    existed: true,
                }),
                vec![ev],
            )
        }
    }

    /// One random op over four keys and three lease ids, CAS preconditions
    /// drawn to hit and to miss against `s`'s current state.
    fn gen_op(rng: &mut ph_sim::SimRng, s: &MvccStore) -> Op {
        let key = Key::new(format!("k{}", rng.below(4)));
        let lease = LeaseId(rng.range(1, 4));
        let live = s.get(&key).map(|kv| kv.mod_revision);
        let expect = match rng.below(4) {
            0 => Expect::Any,
            1 => Expect::NotExists,
            // Right when the key is live; a miss otherwise.
            2 => Expect::ModRev(live.unwrap_or(Revision(s.revision().0 + 1))),
            _ => Expect::ModRev(Revision(rng.below(s.revision().0 + 2))),
        };
        match rng.below(16) {
            0..=6 => Op::Put {
                value: Value::from(format!("v{}", rng.below(3))),
                lease: rng.chance(0.4).then_some(lease),
                key,
                expect,
            },
            7..=9 => Op::Delete { key, expect },
            10 | 11 => Op::LeaseGrant {
                id: lease,
                ttl_ms: 100,
            },
            12 => Op::LeaseRevoke { id: lease },
            13 => Op::Compact {
                at: Revision(rng.below(s.revision().0 + 3)),
                log_floor: 0,
            },
            14 => Op::LeaseKeepAlive { id: lease },
            _ => Op::Read { prefix: "k".into() },
        }
    }

    #[test]
    fn one_walk_apply_matches_the_three_walk_reference() {
        let mut rng = ph_sim::SimRng::from_seed(0x00A9_91E5);
        let (mut cas_failed, mut created, mut updated, mut delete_missing, mut detached) =
            (0, 0, 0, 0, 0);
        for case in 0..4_000 {
            let (mut fast, mut slow) = (MvccStore::new(), MvccStore::new());
            for step in 0..rng.range(1, 33) {
                let op = gen_op(&mut rng, &slow);
                let before = match &op {
                    Op::Put { key, .. } | Op::Delete { key, .. } => slow.get(key).cloned(),
                    _ => None,
                };
                let (res, evs) = fast.apply(&op);
                let (ref_res, ref_evs) = slow.apply_reference(&op);
                let at = format!("case {case} step {step}: {op:?}");
                assert_eq!(res, ref_res, "{at}");
                assert_eq!(format!("{evs:?}"), format!("{ref_evs:?}"), "{at}");
                assert_eq!(fast.range(""), slow.range(""), "{at}");
                assert_eq!(fast.revision(), slow.revision(), "{at}");
                assert_eq!(fast.compacted(), slow.compacted(), "{at}");
                assert_eq!(
                    fast.events_since(fast.compacted()),
                    slow.events_since(slow.compacted()),
                    "{at}"
                );
                assert_eq!(fast.leases, slow.leases, "{at}");

                cas_failed += u32::from(matches!(res, Err(OpError::CasFailed { .. })));
                match (&op, &res) {
                    (Op::Put { lease, .. }, Ok(_)) => {
                        created += u32::from(before.is_none());
                        updated += u32::from(before.is_some());
                        let old = before.and_then(|kv| kv.lease);
                        detached += u32::from(old.is_some() && old != *lease);
                    }
                    (Op::Delete { .. }, Ok(OpResult::Delete { existed, .. })) => {
                        delete_missing += u32::from(!existed);
                    }
                    _ => {}
                }
            }
        }
        // The generator reaches every branch, none of them rarely.
        for (what, hits) in [
            ("CAS failure", cas_failed),
            ("create", created),
            ("update", updated),
            ("delete of a missing key", delete_missing),
            ("overwrite detaching a lease", detached),
        ] {
            assert!(hits >= 200, "{what}: only {hits} cases");
        }
    }
}

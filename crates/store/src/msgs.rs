//! Client-facing operations and wire messages of the store.
//!
//! Mutations and linearizable reads travel through the Raft log; serializable
//! reads and watch streams are served from each node's *applied* (possibly
//! lagging) state — the two observation paths of the paper's §3 model.

use ph_sim::ActorId;

use crate::kv::{Key, KeyValue, KvEvent, LeaseId, Revision, Value};
use crate::raft::LogIndex;

/// Precondition on a key's current `mod_revision` for compare-and-swap
/// writes (the optimistic-concurrency primitive apiservers and the HBase
/// scenario build on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No precondition.
    Any,
    /// The key must not currently exist.
    NotExists,
    /// The key must exist with exactly this `mod_revision`.
    ModRev(Revision),
}

impl Expect {
    /// `true` if a key whose current `mod_revision` is `actual` (`None`:
    /// the key does not exist) satisfies this precondition.
    pub fn admits(self, actual: Option<Revision>) -> bool {
        match self {
            Expect::Any => true,
            Expect::NotExists => actual.is_none(),
            Expect::ModRev(r) => actual == Some(r),
        }
    }
}

/// A state-machine command (or linearizable read) submitted to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create or update a key.
    Put {
        /// Target key.
        key: Key,
        /// New value.
        value: Value,
        /// Lease to attach (key dies with the lease).
        lease: Option<LeaseId>,
        /// CAS precondition.
        expect: Expect,
    },
    /// Delete a key.
    Delete {
        /// Target key.
        key: Key,
        /// CAS precondition.
        expect: Expect,
    },
    /// Read every key with the given prefix. Routed through the log when
    /// issued at [`ReadLevel::Linearizable`].
    Read {
        /// Key prefix (empty string reads everything).
        prefix: String,
    },
    /// Create a lease with the given TTL in milliseconds. The id is chosen
    /// by the client (ids are namespaced per client in practice).
    LeaseGrant {
        /// Client-chosen lease id.
        id: LeaseId,
        /// Time-to-live in logical milliseconds.
        ttl_ms: u64,
    },
    /// Refresh a lease's TTL.
    LeaseKeepAlive {
        /// The lease.
        id: LeaseId,
    },
    /// Revoke a lease, deleting all attached keys.
    LeaseRevoke {
        /// The lease.
        id: LeaseId,
    },
    /// Discard history at and below the given revision. Watches that later
    /// ask for compacted revisions are cancelled with
    /// [`OpError::Compacted`] — the §4.2.3 rolling window.
    Compact {
        /// Highest revision to discard.
        at: Revision,
        /// Highest Raft log index to discard. The leader sets it to an index
        /// every replica holds ([`RaftCore::match_floor`]), and lowers a
        /// client's to that index, so every replica drops the same log
        /// prefix and none drops an entry another lacks. The MVCC ignores
        /// it.
        ///
        /// [`RaftCore::match_floor`]: crate::raft::RaftCore::match_floor
        log_floor: LogIndex,
    },
    /// No-op (used by leaders to commit entries from earlier terms promptly).
    Nop,
}

/// Successful outcome of an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The put committed at this revision.
    Put {
        /// Revision of the write.
        revision: Revision,
    },
    /// The delete committed.
    Delete {
        /// Store revision after the operation (unchanged if nothing existed).
        revision: Revision,
        /// Whether a key actually existed and was removed.
        existed: bool,
    },
    /// Read results.
    Read {
        /// Matching keys in key order.
        kvs: Vec<KeyValue>,
        /// Store revision the read reflects.
        revision: Revision,
    },
    /// Lease created.
    LeaseGranted {
        /// The lease.
        id: LeaseId,
    },
    /// Lease refreshed.
    LeaseAlive {
        /// The lease.
        id: LeaseId,
    },
    /// Lease revoked; attached keys deleted.
    LeaseRevoked {
        /// The lease.
        id: LeaseId,
        /// Number of keys deleted with it.
        deleted: usize,
    },
    /// History compacted.
    Compacted {
        /// New compaction floor.
        at: Revision,
    },
    /// No-op applied.
    Nop,
}

/// Application-level failure of an [`Op`] (the op reached the state machine
/// and was rejected there; these are deterministic across replicas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// A CAS precondition failed.
    CasFailed {
        /// The key whose precondition failed.
        key: Key,
        /// The key's actual `mod_revision` (`None` if it does not exist).
        actual: Option<Revision>,
    },
    /// The referenced lease does not exist (or has expired).
    LeaseNotFound(LeaseId),
    /// The requested revision has been compacted away.
    Compacted {
        /// What was asked for.
        requested: Revision,
        /// The compaction floor (everything ≤ this is gone).
        compacted: Revision,
    },
    /// A lease grant re-used an existing id.
    LeaseExists(LeaseId),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::CasFailed { key, actual } => {
                write!(f, "cas failed on {key}: actual mod_revision {actual:?}")
            }
            OpError::LeaseNotFound(id) => write!(f, "{id} not found"),
            OpError::Compacted {
                requested,
                compacted,
            } => write!(f, "revision {requested} compacted (floor {compacted})"),
            OpError::LeaseExists(id) => write!(f, "{id} already exists"),
        }
    }
}

impl std::error::Error for OpError {}

/// Consistency level for [`Op::Read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadLevel {
    /// Served through the Raft log: reflects every commit that precedes it.
    Linearizable,
    /// Served from the contacted node's applied state: may be stale.
    /// This is the follower/ZooKeeper-style read the HBase-3136 scenario
    /// exploits.
    Serializable,
}

// ---------------------------------------------------------------------
// Wire messages (client ↔ store node)
// ---------------------------------------------------------------------

/// A request from a client to a store node.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Client-chosen request id, echoed in the response.
    pub req: u64,
    /// The operation.
    pub op: Op,
    /// Read consistency (ignored for non-reads).
    pub level: ReadLevel,
}

/// Transport/availability failure of a request (as opposed to a
/// deterministic [`OpError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The contacted node is not the leader; `hint` is its best guess.
    NotLeader {
        /// Believed leader, if known.
        hint: Option<ActorId>,
    },
    /// The node cannot serve the request right now (e.g. no leader elected).
    Unavailable,
    /// The operation was rejected by the state machine.
    Op(OpError),
}

/// A store node's reply to a [`ClientRequest`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Echoed request id.
    pub req: u64,
    /// Outcome.
    pub result: Result<OpResult, RequestError>,
}

/// Creates a watch on a node. Events with `revision > after` are delivered
/// in order via [`WatchNotify`] messages ([`crate::Revision`] 0 = the full
/// retained history; refused as compacted if that history is gone).
#[derive(Debug, Clone)]
pub struct WatchCreate {
    /// Client-chosen watch id (unique per client).
    pub watch: u64,
    /// Only events whose key has this prefix are delivered.
    pub prefix: String,
    /// Deliver events strictly after this revision (0 = everything the
    /// node still retains; refused if compaction removed any of it).
    pub after: Revision,
}

/// Cancels a watch.
#[derive(Debug, Clone)]
pub struct WatchCancelReq {
    /// The watch to cancel.
    pub watch: u64,
}

/// A batch of watch events from a node's applied state.
#[derive(Debug, Clone)]
pub struct WatchNotify {
    /// The watch.
    pub watch: u64,
    /// Per-watch stream sequence number (dense from 0 per registration).
    /// A gap means the network lost a message of this stream: the client
    /// must treat the stream as dead and reconnect from its last
    /// contiguous revision — never paper over the hole.
    pub stream_seq: u64,
    /// New events, in revision order (shared with the node's retained
    /// log — fan-out to N watchers bumps refcounts, never deep-copies).
    pub events: Vec<std::rc::Rc<KvEvent>>,
    /// The node's applied revision after this batch (watchers use it to
    /// resume: `after = revision`).
    pub revision: Revision,
}

/// Periodic progress notification on an otherwise idle watch, so watchers
/// can both advance their resume point and detect dead streams.
#[derive(Debug, Clone)]
pub struct WatchProgress {
    /// The watch.
    pub watch: u64,
    /// Stream sequence number (shared counter with [`WatchNotify`]).
    pub stream_seq: u64,
    /// The node's applied revision.
    pub revision: Revision,
}

/// Server-initiated watch termination.
#[derive(Debug, Clone)]
pub struct WatchCancelled {
    /// The watch.
    pub watch: u64,
    /// Why (typically [`OpError::Compacted`]).
    pub reason: OpError,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_error_displays() {
        let e = OpError::CasFailed {
            key: Key::new("k"),
            actual: Some(Revision(3)),
        };
        assert!(e.to_string().contains("cas failed"));
        assert!(OpError::LeaseNotFound(LeaseId(1))
            .to_string()
            .contains("lease-1"));
        let c = OpError::Compacted {
            requested: Revision(2),
            compacted: Revision(9),
        };
        assert!(c.to_string().contains("r2"));
        assert!(c.to_string().contains("r9"));
    }

    #[test]
    fn expect_admits_by_current_mod_revision() {
        let (r1, r2) = (Some(Revision(1)), Some(Revision(2)));
        assert!(Expect::Any.admits(None) && Expect::Any.admits(r1));
        assert!(Expect::NotExists.admits(None));
        assert!(!Expect::NotExists.admits(r1));
        assert!(Expect::ModRev(Revision(1)).admits(r1));
        assert!(!Expect::ModRev(Revision(1)).admits(r2));
        assert!(!Expect::ModRev(Revision(1)).admits(None));
    }

    #[test]
    fn expect_and_read_level_are_copy() {
        let e = Expect::ModRev(Revision(1));
        let _e2 = e;
        assert_eq!(e, Expect::ModRev(Revision(1)));
        let l = ReadLevel::Serializable;
        let _l2 = l;
        assert_ne!(l, ReadLevel::Linearizable);
    }
}

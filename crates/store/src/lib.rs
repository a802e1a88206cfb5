//! # ph-store — a strongly consistent replicated MVCC store (etcd analog)
//!
//! The centralized data store at the heart of the infrastructures the paper
//! studies (§1, §3): a small replicated cluster that records the *history*
//! `H` of all committed changes and materializes the *state* `S`. Components
//! above it observe `(H, S)` only through this crate's interfaces — quorum
//! reads, serializable (possibly stale) local reads, and watch streams — and
//! therefore operate on *partial histories* `(H′, S′)`.
//!
//! Built from scratch on [`ph_sim`]:
//!
//! * [`raft`] — a compact Raft core (elections, log replication, commit
//!   index) as a pure, effect-returning state machine, independently
//!   testable without the simulator;
//! * [`mvcc`] — the revisioned key-value state machine: every committed
//!   write gets a global [`kv::Revision`]; the retained event log *is* the
//!   history `H`, and [`mvcc::MvccStore::compact`] implements the rolling
//!   window that makes old events unobservable (§4.2.3);
//! * [`node`] — the store server actor: Raft + MVCC + watch streams +
//!   leases + auto-compaction;
//! * [`watch`] — the watch-stream protocol, the one implementation both
//!   this store and `ph-cluster`'s apiservers use: the server-side
//!   [`watch::WatchRegistry`] and the client-side [`watch::Streams`]
//!   tracker (sequence check, reconnect from the last contiguous revision,
//!   dead-stream reaping); watches are served from each node's *applied*
//!   state, so follower-served streams lag exactly like etcd's;
//! * [`client`] — an embeddable, retrying client state machine used by every
//!   upper-layer component (apiservers, controllers) to talk to the store;
//! * [`cluster`] — topology helper to spawn an n-node store cluster.

//! ## The state machine in isolation
//!
//! ```
//! use ph_store::mvcc::MvccStore;
//! use ph_store::msgs::{Expect, Op};
//! use ph_store::{Key, Revision, Value};
//!
//! let mut s = MvccStore::new();
//! s.apply(&Op::Put {
//!     key: Key::new("pods/p1"),
//!     value: Value::from_static(b"running"),
//!     lease: None,
//!     expect: Expect::NotExists,
//! }).0.unwrap();
//! assert_eq!(s.revision(), Revision(1));
//! // The retained event log IS the history H:
//! assert_eq!(s.events_since(Revision::ZERO).unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod client;
pub mod cluster;
pub mod kv;
pub mod msgs;
pub mod mvcc;
pub mod node;
pub mod raft;
pub mod watch;

pub use client::{Completion, StoreClient, StoreClientConfig};
pub use cluster::{spawn_store_cluster, StoreCluster};
pub use kv::{Key, KeyValue, KvEvent, LeaseId, Revision, Value};
pub use msgs::{Op, OpError, OpResult, ReadLevel};
pub use mvcc::MvccStore;
pub use node::{StoreNode, StoreNodeConfig};

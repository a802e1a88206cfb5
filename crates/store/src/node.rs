//! The store server actor: Raft + MVCC + watches + leases + compaction.
//!
//! Each [`StoreNode`] wires a [`RaftCore`] to the simulator's timers and
//! network, applies committed commands to its local [`MvccStore`], feeds its
//! watchers from that *applied* state, and answers clients. Followers serve
//! serializable reads and watch streams from their own (possibly lagging)
//! state — faithfully reproducing the observation interfaces whose partial
//! histories the paper studies.

use std::collections::BTreeMap;

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, SimTime, TimerId};

use crate::kv::{LeaseId, Revision};
use crate::msgs::{
    ClientRequest, ClientResponse, Op, OpResult, ReadLevel, RequestError, WatchCancelReq,
    WatchCancelled, WatchCreate, WatchNotify, WatchProgress,
};
use crate::mvcc::{LeaseInfo, MvccStore};
use crate::raft::{Command, Effect, LogIndex, NodeIdx, Origin, RaftCore, RaftMsg};
use crate::watch::WatchRegistry;

/// A Raft message on the wire between store nodes.
#[derive(Debug, Clone)]
pub struct RaftWire(pub RaftMsg);

/// Automatic history compaction policy (the §4.2.3 rolling window).
///
/// Every `interval` the leader proposes an [`Op::Compact`] through Raft,
/// so each replica drops the same prefix at the same log position; the
/// command consumes no revision. Between proposals a replica's history
/// grows from `keep` by whatever commits in one interval. The same entry
/// bounds the Raft log: it carries the leader's
/// [`RaftCore::match_floor`], and each replica that applies it drops its
/// log through that index and records a snapshot point to restart from.
/// Off by default ([`StoreNodeConfig::default`]), and then neither history
/// nor log is ever dropped; the mega-cluster scale family turns it on with
/// `keep` equal to its apiserver's watch window.
#[derive(Debug, Clone, Copy)]
pub struct AutoCompact {
    /// Keep at least this many trailing revisions.
    pub keep: u64,
    /// How often the leader proposes a compaction.
    pub interval: Duration,
}

/// Tuning for a store node. The default retains all history and serves
/// reads at infinite capacity.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreNodeConfig {
    /// History compaction policy (`None` retains everything).
    pub autocompact: Option<AutoCompact>,
    /// Service time consumed per client read served by this node (models
    /// the store's finite capacity — the §4.1 bottleneck; zero = infinite
    /// capacity).
    pub read_service: Duration,
}

/// Leader heartbeat / replication interval.
const HEARTBEAT: Duration = Duration::millis(20);
/// Election timeout bounds: each arm draws uniformly from
/// `[ELECTION_MIN, ELECTION_MAX)`.
const ELECTION_MIN: Duration = Duration::millis(100);
const ELECTION_MAX: Duration = Duration::millis(200);
/// How often idle watchers receive a progress notification.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::millis(250);
/// How often the leader scans for expired leases.
const LEASE_CHECK_INTERVAL: Duration = Duration::millis(50);

// A leader's heartbeats must reach followers before any of them can time
// out, and the election draw needs a non-empty range.
const _: () = assert!(HEARTBEAT.as_nanos() < ELECTION_MIN.as_nanos());
const _: () = assert!(ELECTION_MIN.as_nanos() < ELECTION_MAX.as_nanos());

const TAG_ELECTION: u64 = 1;
const TAG_HEARTBEAT: u64 = 2;
const TAG_PROGRESS: u64 = 3;
const TAG_LEASE: u64 = 4;
const TAG_COMPACT: u64 = 5;
/// Timer tags at or above this are deferred-reply slots.
const TAG_DEFER_BASE: u64 = 1 << 16;

/// The state after the last [`Op::Compact`] a replica applied: where a
/// restart resumes, since the log below it may be gone. Persistent, like
/// the log.
#[derive(Debug, Default)]
struct SnapshotPoint {
    /// Log index of the `Compact` entry (0: nothing applied yet).
    index: LogIndex,
    /// MVCC revision after it.
    revision: Revision,
    /// The lease table after it (leases change without events, so a
    /// rewind cannot undo them).
    leases: BTreeMap<LeaseId, LeaseInfo>,
}

/// One member of the replicated store.
#[derive(Debug)]
pub struct StoreNode {
    cfg: StoreNodeConfig,
    idx: NodeIdx,
    /// Actor ids of all cluster members; `peers[idx]` is this node.
    peers: Vec<ActorId>,
    core: RaftCore,
    mvcc: MvccStore,
    snapshot: SnapshotPoint,
    watches: WatchRegistry,
    election_timer: Option<TimerId>,
    /// Leader-side lease expiry deadlines.
    lease_deadlines: BTreeMap<LeaseId, SimTime>,
    /// Capacity model: this node is busy serving reads until this instant.
    busy_until: SimTime,
    /// Deferred read replies awaiting their service slot, keyed by timer tag.
    deferred: BTreeMap<u64, (ActorId, ClientResponse)>,
    next_defer_tag: u64,
}

impl StoreNode {
    /// Creates node `idx` of a cluster whose members (in index order) will
    /// have the given actor ids.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn new(cfg: StoreNodeConfig, idx: NodeIdx, peers: Vec<ActorId>) -> StoreNode {
        assert!(idx < peers.len(), "node index out of range");
        let n = peers.len();
        StoreNode {
            cfg,
            idx,
            peers,
            core: RaftCore::new(idx, n),
            mvcc: MvccStore::new(),
            snapshot: SnapshotPoint::default(),
            watches: WatchRegistry::new(),
            election_timer: None,
            lease_deadlines: BTreeMap::new(),
            busy_until: SimTime::ZERO,
            deferred: BTreeMap::new(),
            next_defer_tag: TAG_DEFER_BASE,
        }
    }

    /// `true` if this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.core.is_leader()
    }

    /// This node's applied state machine (test/diagnostic access; real
    /// clients go through messages).
    pub fn mvcc(&self) -> &MvccStore {
        &self.mvcc
    }

    /// The Raft core (diagnostic access).
    pub fn raft(&self) -> &RaftCore {
        &self.core
    }

    /// Sends a read reply, charging the configured service time against
    /// this node's capacity (replies queue behind each other when the node
    /// is saturated).
    fn reply_read(&mut self, to: ActorId, resp: ClientResponse, ctx: &mut Ctx) {
        if self.cfg.read_service == Duration::ZERO {
            ctx.send(to, resp);
            return;
        }
        let now = ctx.now();
        let start = self.busy_until.max(now);
        self.busy_until = start + self.cfg.read_service;
        let tag = self.next_defer_tag;
        self.next_defer_tag += 1;
        self.deferred.insert(tag, (to, resp));
        ctx.set_timer(self.busy_until - now, tag);
    }

    fn arm_election(&mut self, ctx: &mut Ctx) {
        if let Some(t) = self.election_timer.take() {
            ctx.cancel_timer(t);
        }
        let span = ctx
            .rng()
            .range(ELECTION_MIN.as_nanos(), ELECTION_MAX.as_nanos());
        self.election_timer = Some(ctx.set_timer(Duration::nanos(span), TAG_ELECTION));
    }

    fn handle_effects(&mut self, effects: Vec<Effect>, ctx: &mut Ctx) {
        for effect in effects {
            match effect {
                Effect::Send(to, msg) => ctx.send(self.peers[to], RaftWire(msg)),
                Effect::Apply { index, entry } => self.apply_committed(index, &entry.cmd, ctx),
                Effect::ResetElectionTimer => self.arm_election(ctx),
                Effect::BecameLeader => {
                    ctx.annotate("store.leader", format!("term={}", self.core.term()));
                    ctx.set_timer(HEARTBEAT, TAG_HEARTBEAT);
                    // Fresh leader: every known lease gets a full TTL grace.
                    self.lease_deadlines.clear();
                    for id in self.mvcc.lease_ids() {
                        let ttl = self.mvcc.lease(id).expect("listed").ttl_ms;
                        self.lease_deadlines
                            .insert(id, ctx.now() + Duration::millis(ttl));
                    }
                }
                Effect::SteppedDown => {
                    self.lease_deadlines.clear();
                    self.arm_election(ctx);
                }
            }
        }
    }

    fn apply_committed(&mut self, index: LogIndex, cmd: &Command, ctx: &mut Ctx) {
        let (result, events) = self.mvcc.apply(&cmd.op);
        if let Op::Compact { log_floor, .. } = cmd.op {
            self.snapshot = SnapshotPoint {
                index,
                revision: self.mvcc.revision(),
                leases: self.mvcc.leases().clone(),
            };
            self.core.compact(log_floor);
        }
        // Leader-side lease timing.
        if self.core.is_leader() {
            match (&cmd.op, &result) {
                (Op::LeaseGrant { id, ttl_ms }, Ok(_)) => {
                    self.lease_deadlines
                        .insert(*id, ctx.now() + Duration::millis(*ttl_ms));
                }
                (Op::LeaseKeepAlive { id }, Ok(_)) => {
                    if let Some(info) = self.mvcc.lease(*id) {
                        let ttl = info.ttl_ms;
                        self.lease_deadlines
                            .insert(*id, ctx.now() + Duration::millis(ttl));
                    }
                }
                (Op::LeaseRevoke { id }, _) => {
                    self.lease_deadlines.remove(id);
                }
                _ => {}
            }
        }
        // Feed watchers from the applied state.
        if !events.is_empty() {
            for (w, evs, revision) in self.watches.route(&events, self.mvcc.revision()) {
                ctx.send(
                    w.client,
                    WatchNotify {
                        watch: w.watch,
                        stream_seq: w.next_seq,
                        events: evs,
                        revision,
                    },
                );
            }
        }
        // Answer the client iff this node received the request. Reads are
        // charged against the node's service capacity; writes reply
        // immediately (their cost is the consensus round itself).
        if let Some(Origin { node, client, req }) = cmd.origin {
            if node == self.idx {
                let resp = ClientResponse {
                    req,
                    result: result.map_err(RequestError::Op),
                };
                if matches!(cmd.op, Op::Read { .. }) {
                    self.reply_read(client, resp, ctx);
                } else {
                    ctx.send(client, resp);
                }
            }
        }
    }

    fn propose_internal(&mut self, op: Op, ctx: &mut Ctx) {
        let mut effects = Vec::new();
        let _ = self.core.propose(Command::internal(op), &mut effects);
        self.handle_effects(effects, ctx);
    }

    fn on_client_request(&mut self, from: ActorId, r: &ClientRequest, ctx: &mut Ctx) {
        // Serializable reads answer straight from local applied state —
        // possibly stale, by design.
        if let Op::Read { prefix } = &r.op {
            if r.level == ReadLevel::Serializable {
                let (kvs, revision) = self.mvcc.range(prefix);
                self.reply_read(
                    from,
                    ClientResponse {
                        req: r.req,
                        result: Ok(OpResult::Read { kvs, revision }),
                    },
                    ctx,
                );
                return;
            }
        }
        if !self.core.is_leader() {
            let hint = self.core.leader_hint().map(|i| self.peers[i]);
            ctx.send(
                from,
                ClientResponse {
                    req: r.req,
                    result: Err(RequestError::NotLeader { hint }),
                },
            );
            return;
        }
        let origin = Origin {
            node: self.idx,
            client: from,
            req: r.req,
        };
        let mut op = r.op.clone();
        // The log floor is the leader's to set: a client's `Compact` may
        // not drop an entry some replica still lacks.
        if let Op::Compact { log_floor, .. } = &mut op {
            *log_floor = (*log_floor).min(self.core.match_floor());
        }
        let mut effects = Vec::new();
        match self.core.propose(
            Command {
                op,
                origin: Some(origin),
            },
            &mut effects,
        ) {
            Ok(_) => self.handle_effects(effects, ctx),
            Err(nl) => {
                let hint = nl.hint.map(|i| self.peers[i]);
                ctx.send(
                    from,
                    ClientResponse {
                        req: r.req,
                        result: Err(RequestError::NotLeader { hint }),
                    },
                );
            }
        }
    }

    fn on_watch_create(&mut self, from: ActorId, w: &WatchCreate, ctx: &mut Ctx) {
        // Revision 0 is a genuine resume point (the dawn of history); if
        // that history has been compacted away the watch is refused rather
        // than silently skipped forward.
        match self.mvcc.events_since(w.after) {
            Err(e) => {
                ctx.send(
                    from,
                    WatchCancelled {
                        watch: w.watch,
                        reason: e,
                    },
                );
            }
            Ok(backlog) => {
                self.watches.register(from, w.watch, w.prefix.clone());
                let matching: Vec<_> = backlog
                    .into_iter()
                    .filter(|e| e.key().has_prefix(&w.prefix))
                    .collect();
                if !matching.is_empty() {
                    let seq = self
                        .watches
                        .next_seq(from, w.watch)
                        .expect("just registered");
                    ctx.send(
                        from,
                        WatchNotify {
                            watch: w.watch,
                            stream_seq: seq,
                            events: matching,
                            revision: self.mvcc.revision(),
                        },
                    );
                }
            }
        }
    }
}

impl Actor for StoreNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.arm_election(ctx);
        ctx.set_timer(PROGRESS_INTERVAL, TAG_PROGRESS);
        ctx.set_timer(LEASE_CHECK_INTERVAL, TAG_LEASE);
        if let Some(ac) = self.cfg.autocompact {
            ctx.set_timer(ac.interval, TAG_COMPACT);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // Persistent: the Raft log/term/vote inside `core` and the snapshot
        // point. Volatile: the applied state machine, watch registrations
        // and lease timing — all rebuilt. The MVCC restarts from the
        // snapshot point, which the applied state reaches by undoing its
        // retained history above it (every `Compact` leaves the events
        // above its own revision in place), and re-applies the log above
        // the point as the commit index re-advances. Without a compaction
        // the point is the empty store at index 0: a replay of the whole
        // log, as before any compaction existed.
        self.core.restart(self.snapshot.index);
        self.mvcc
            .rewind(self.snapshot.revision, self.snapshot.leases.clone());
        self.watches.clear();
        self.lease_deadlines.clear();
        self.election_timer = None;
        self.busy_until = SimTime::ZERO;
        self.deferred.clear();
        self.next_defer_tag = TAG_DEFER_BASE;
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        if let Some(RaftWire(raft_msg)) = msg.downcast_ref::<RaftWire>() {
            let Some(from_idx) = self.peers.iter().position(|&p| p == from) else {
                return; // not a cluster member; ignore
            };
            let mut effects = Vec::new();
            self.core.on_message(from_idx, raft_msg, &mut effects);
            self.handle_effects(effects, ctx);
            return;
        }
        if let Some(req) = msg.downcast_ref::<ClientRequest>() {
            self.on_client_request(from, req, ctx);
            return;
        }
        if let Some(w) = msg.downcast_ref::<WatchCreate>() {
            self.on_watch_create(from, w, ctx);
            return;
        }
        if let Some(c) = msg.downcast_ref::<WatchCancelReq>() {
            self.watches.cancel(from, c.watch);
        }
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag >= TAG_DEFER_BASE {
            if let Some((to, resp)) = self.deferred.remove(&tag) {
                ctx.send(to, resp);
            }
            return;
        }
        match tag {
            TAG_ELECTION if Some(timer) == self.election_timer => {
                self.election_timer = None;
                let mut effects = Vec::new();
                self.core.on_election_timeout(&mut effects);
                self.handle_effects(effects, ctx);
            }
            TAG_HEARTBEAT if self.core.is_leader() => {
                let mut effects = Vec::new();
                self.core.on_heartbeat(&mut effects);
                self.handle_effects(effects, ctx);
                ctx.set_timer(HEARTBEAT, TAG_HEARTBEAT);
            }
            TAG_PROGRESS => {
                let revision = self.mvcc.revision();
                for w in self.watches.watchers().cloned().collect::<Vec<_>>() {
                    let seq = self
                        .watches
                        .next_seq(w.client, w.watch)
                        .expect("listed watcher");
                    ctx.send(
                        w.client,
                        WatchProgress {
                            watch: w.watch,
                            stream_seq: seq,
                            revision,
                        },
                    );
                }
                ctx.set_timer(PROGRESS_INTERVAL, TAG_PROGRESS);
            }
            TAG_LEASE => {
                if self.core.is_leader() {
                    let expired: Vec<LeaseId> = self
                        .lease_deadlines
                        .iter()
                        .filter(|(_, &dl)| dl <= ctx.now())
                        .map(|(&id, _)| id)
                        .collect();
                    for id in expired {
                        self.lease_deadlines.remove(&id);
                        self.propose_internal(Op::LeaseRevoke { id }, ctx);
                    }
                }
                ctx.set_timer(LEASE_CHECK_INTERVAL, TAG_LEASE);
            }
            TAG_COMPACT => {
                if let Some(ac) = self.cfg.autocompact {
                    if self.core.is_leader() {
                        let rev = self.mvcc.revision().0;
                        if rev > ac.keep {
                            let at = crate::kv::Revision(rev - ac.keep);
                            if at > self.mvcc.compacted() {
                                let log_floor = self.core.match_floor();
                                self.propose_internal(Op::Compact { at, log_floor }, ctx);
                            }
                        }
                    }
                    ctx.set_timer(ac.interval, TAG_COMPACT);
                }
            }
            _ => {}
        }
    }
}

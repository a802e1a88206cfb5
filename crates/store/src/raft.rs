//! A compact Raft consensus core.
//!
//! Implements leader election, log replication and commit advancement from
//! the Raft paper (Ongaro & Ousterhout, ATC '14) for a fixed-membership
//! cluster — the shape the paper's infrastructures use for their central
//! store (§4.1: "a small cluster of nodes, typically one to nine").
//! Membership change is deliberately out of scope.
//!
//! Log compaction (§7) drops an applied prefix: [`RaftCore::compact`] keeps
//! only the entries above a base. The caller picks the floor so that no
//! follower ever needs a compacted entry — [`crate::node::StoreNode`] has
//! the leader propose [`RaftCore::match_floor`], an index every replica
//! holds, through the log itself. A leader's back-off stops at its base
//! (several rejections can arrive for one gap, one per append in flight),
//! and every follower holds that base and accepts it as `prev_index`, so
//! InstallSnapshot is never needed and not implemented: a follower that is
//! down pins the floor, and catches up by `AppendEntries` alone. A
//! restarted node resumes from the state after a snapshot point its
//! caller restores ([`RaftCore::restart`]).
//!
//! Every per-message step of replication costs O(entries new to the
//! receiver), never O(in-flight window): an `AppendEntries` carries a
//! [`LogView`] — a frozen window of the leader's log, O(1) to build, clone
//! and drop — and a follower skips the part of it it already holds with one
//! term comparison (Log Matching). [`RaftCore::replication_steps`] counts
//! the entry-proportional work so tests and CI can hold that property
//! without a stopwatch.
//!
//! The core is *pure*: it never touches clocks, networks or randomness.
//! Inputs are messages and timeout notifications; outputs are [`Effect`]s
//! the caller executes. This makes safety properties directly unit-testable
//! and lets [`crate::node::StoreNode`] own all timing via `ph-sim`.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use ph_sim::ActorId;

use crate::msgs::Op;

/// Index of a node within its cluster (0-based, dense).
pub type NodeIdx = usize;

/// Raft log position (1-based; 0 means "before the log").
pub type LogIndex = u64;

/// Raft term.
pub type Term = u64;

/// Where a command came from, so exactly one node answers the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// The cluster node that received the client request.
    pub node: NodeIdx,
    /// The requesting client actor.
    pub client: ActorId,
    /// The client's request id.
    pub req: u64,
}

/// A replicated command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// The state-machine operation.
    pub op: Op,
    /// Reply routing (`None` for internally generated commands).
    pub origin: Option<Origin>,
}

impl Command {
    /// An internal command with no reply routing.
    pub fn internal(op: Op) -> Command {
        Command { op, origin: None }
    }
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was appended at the leader.
    pub term: Term,
    /// The command.
    pub cmd: Command,
}

/// The entry buffer a log and the views cut from it share.
type Buf = Rc<RefCell<Vec<Rc<LogEntry>>>>;

/// One node's log: `buf[i]` has index `base + i + 1`; the entries at and
/// below `base` were compacted away (Raft §7).
///
/// Append-only while any [`LogView`] shares the buffer: a push lands above
/// every outstanding view's end, and a truncation or compaction under a
/// shared buffer moves the kept entries to a fresh one instead of mutating
/// what a view may still read.
#[derive(Debug, Default)]
struct Log {
    buf: Buf,
    /// Index of the last compacted entry (0: nothing compacted).
    base: LogIndex,
    /// Term of the entry at `base`.
    base_term: Term,
}

impl Log {
    /// Index of the last entry (`base` when nothing above it is held).
    fn last(&self) -> LogIndex {
        self.base + self.buf.borrow().len() as LogIndex
    }

    /// Position in `buf` of the entry at `index`, if it is held.
    fn slot(&self, index: LogIndex) -> Option<usize> {
        index.checked_sub(self.base + 1).map(|i| i as usize)
    }

    fn get(&self, index: LogIndex) -> Option<Rc<LogEntry>> {
        self.buf.borrow().get(self.slot(index)?).cloned()
    }

    /// Term of the entry at `index`; 0 before the log and past its end.
    /// Only `base` itself is known of the compacted prefix.
    fn term_at(&self, index: LogIndex) -> Term {
        if index == self.base {
            return self.base_term;
        }
        self.slot(index)
            .and_then(|i| self.buf.borrow().get(i).map(|e| e.term))
            .unwrap_or(0)
    }

    fn push(&mut self, entry: Rc<LogEntry>) {
        self.buf.borrow_mut().push(entry);
    }

    /// Keeps `buf[range]` and drops the rest, in place unless a view shares
    /// the buffer; returns how many entry handles it had to copy.
    fn keep(&mut self, range: std::ops::Range<usize>) -> u64 {
        if Rc::strong_count(&self.buf) == 1 {
            let mut buf = self.buf.borrow_mut();
            buf.truncate(range.end);
            buf.drain(..range.start);
            return 0;
        }
        let kept = self.buf.borrow()[range].to_vec();
        let copied = kept.len() as u64;
        self.buf = Rc::new(RefCell::new(kept));
        copied
    }

    /// Drops every entry above index `last`; returns how many entry handles
    /// it had to copy (0 unless it cut under a view that shares the buffer).
    ///
    /// # Panics
    ///
    /// Panics if `last` is below the base: compacted entries are committed,
    /// and committed entries are never truncated.
    fn truncate(&mut self, last: LogIndex) -> u64 {
        if last >= self.last() {
            return 0;
        }
        assert!(last >= self.base, "truncating below the compacted base");
        self.keep(0..(last - self.base) as usize)
    }

    /// Drops every entry at or below `through`, remembering its term.
    fn compact(&mut self, through: LogIndex) {
        if through <= self.base {
            return;
        }
        self.base_term = self.term_at(through);
        let len = self.buf.borrow().len();
        self.keep((through - self.base) as usize..len);
        self.base = through;
    }

    /// Everything above `prev_index` as of now.
    ///
    /// # Panics
    ///
    /// Panics if `prev_index` is below the base. The compaction floor is
    /// an index every replica holds and the back-off stops at the base, so
    /// no follower is ever sent the compacted prefix (there is no
    /// InstallSnapshot).
    fn view_after(&self, prev_index: LogIndex) -> LogView {
        assert!(
            prev_index >= self.base,
            "entry {prev_index} was compacted (base {})",
            self.base
        );
        LogView {
            buf: Rc::clone(&self.buf),
            start: (prev_index - self.base) as usize,
            end: self.buf.borrow().len(),
        }
    }
}

/// A frozen window of the sender's log: the entries that were above
/// `prev_index` when the message was built, whatever the sender appends or
/// truncates afterwards (see [`Log`]). Owns no entries — it is the sender's
/// buffer plus two offsets — so building, cloning and dropping one is O(1).
#[derive(Clone)]
pub struct LogView {
    buf: Buf,
    start: usize,
    end: usize,
}

impl LogView {
    /// Number of entries in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for a pure heartbeat.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `i`-th entry of the view (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Rc<LogEntry> {
        assert!(i < self.len(), "view index {i} out of range");
        Rc::clone(&self.buf.borrow()[self.start + i])
    }

    fn term(&self, i: usize) -> Term {
        assert!(i < self.len(), "view index {i} out of range");
        self.buf.borrow()[self.start + i].term
    }
}

/// Prints the view's own range, not the buffer behind it.
impl fmt::Debug for LogView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogView")
            .field("after", &self.start)
            .field("len", &self.len())
            .finish()
    }
}

/// Raft protocol messages between cluster nodes.
#[derive(Debug, Clone)]
pub enum RaftMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Vote reply.
    VoteResp {
        /// Voter's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Index of the entry immediately preceding `entries`.
        prev_index: LogIndex,
        /// Term of that entry.
        prev_term: Term,
        /// Every entry the leader held above `prev_index` at send time (empty
        /// for pure heartbeats): the whole not-yet-acked window, re-sent on
        /// each propose and commit advance, but as a view of the leader's
        /// own buffer, so the message costs the same whatever the window's
        /// depth. Safe because that buffer is append-only while shared and
        /// copied on truncation.
        entries: LogView,
        /// Leader's commit index.
        commit: LogIndex,
    },
    /// Replication reply.
    AppendResp {
        /// Follower's term.
        term: Term,
        /// Whether the consistency check passed and entries were appended.
        success: bool,
        /// On success, the follower's highest replicated index.
        match_index: LogIndex,
    },
}

/// What the caller must do after feeding the core an input.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Send a message to a peer.
    Send(NodeIdx, RaftMsg),
    /// Apply a newly committed entry to the state machine, in order.
    Apply {
        /// The entry's log index.
        index: LogIndex,
        /// The entry, shared with the log.
        entry: Rc<LogEntry>,
    },
    /// Re-arm the (randomized) election timer.
    ResetElectionTimer,
    /// This node just won an election; start the heartbeat timer.
    BecameLeader,
    /// This node just lost leadership; stop the heartbeat timer.
    SteppedDown,
}

/// A node's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Running an election.
    Candidate,
    /// Serving writes.
    Leader,
}

/// Why [`RaftCore::propose`] rejected a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// Best guess at the current leader.
    pub hint: Option<NodeIdx>,
}

/// The Raft state machine for one node.
#[derive(Debug)]
pub struct RaftCore {
    id: NodeIdx,
    n: usize,

    // Persistent state (survives restart).
    term: Term,
    voted_for: Option<NodeIdx>,
    log: Log,

    // Volatile state.
    role: Role,
    commit: LogIndex,
    applied: LogIndex,
    leader_hint: Option<NodeIdx>,
    votes: Vec<bool>,
    next_index: Vec<LogIndex>,
    match_index: Vec<LogIndex>,

    /// Out-of-band cost counter; see [`RaftCore::replication_steps`].
    steps: u64,
}

impl RaftCore {
    /// Creates a follower in term 0 for a cluster of `n` nodes, of which this
    /// is node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `id >= n`.
    pub fn new(id: NodeIdx, n: usize) -> RaftCore {
        assert!(n > 0, "cluster must have at least one node");
        assert!(id < n, "node id {id} out of range for cluster of {n}");
        RaftCore {
            id,
            n,
            term: 0,
            voted_for: None,
            log: Log::default(),
            role: Role::Follower,
            commit: 0,
            applied: 0,
            leader_hint: None,
            votes: vec![false; n],
            next_index: vec![1; n],
            match_index: vec![0; n],
            steps: 0,
        }
    }

    /// This node's index.
    pub fn id(&self) -> NodeIdx {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// `true` if this node currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Commit index.
    pub fn commit(&self) -> LogIndex {
        self.commit
    }

    /// Index of the last log entry.
    pub fn log_len(&self) -> LogIndex {
        self.log.last()
    }

    /// Index of the last compacted entry: the log holds only the entries
    /// above it (0 until [`RaftCore::compact`] drops a prefix).
    pub fn log_base(&self) -> LogIndex {
        self.log.base
    }

    /// The entry at `index`, if present (not compacted, not past the end).
    pub fn entry(&self, index: LogIndex) -> Option<Rc<LogEntry>> {
        self.log.get(index)
    }

    /// The lowest `match_index` over the cluster, this node's own included:
    /// an index every replica is known to hold. Meaningful at a leader,
    /// which proposes it as the log compaction floor; 0 until every
    /// follower has acknowledged an append in this term.
    pub fn match_floor(&self) -> LogIndex {
        self.match_index.iter().copied().min().unwrap_or(0)
    }

    /// Drops the log entries at or below `min(through, applied)` (Raft §7):
    /// an applied entry is in the state machine, so the log no longer needs
    /// it. Views already sent keep reading the entries they were cut from.
    pub fn compact(&mut self, through: LogIndex) {
        self.log.compact(through.min(self.applied));
    }

    /// Deterministic cost of the replication path so far: one step per
    /// entry handle compared, pushed or copied in `on_append` and one per
    /// `advance_commit` loop iteration. Independent of how deep the
    /// in-flight window is — about nine per commit on three nodes.
    pub fn replication_steps(&self) -> u64 {
        self.steps
    }

    /// Best guess at the current leader.
    pub fn leader_hint(&self) -> Option<NodeIdx> {
        if self.role == Role::Leader {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Models a crash+restart: persistent state (term, vote, log) survives,
    /// volatile state resets. The caller restores its state machine to the
    /// state after entry `restored` — its last snapshot point, 0 for the
    /// empty state — and re-applies the entries above it as the commit
    /// index re-advances.
    ///
    /// # Panics
    ///
    /// Panics if `restored` is below the log's base (those entries cannot
    /// be re-applied) or past its end.
    pub fn restart(&mut self, restored: LogIndex) {
        assert!(
            (self.log.base..=self.log.last()).contains(&restored),
            "restore point {restored} outside the log ({}..={})",
            self.log.base,
            self.log.last()
        );
        self.role = Role::Follower;
        self.commit = restored;
        self.applied = restored;
        self.leader_hint = None;
        self.votes = vec![false; self.n];
        self.next_index = vec![1; self.n];
        self.match_index = vec![0; self.n];
    }

    fn last_log_index(&self) -> LogIndex {
        self.log.last()
    }

    fn last_log_term(&self) -> Term {
        self.log.term_at(self.log.last())
    }

    fn term_at(&self, index: LogIndex) -> Term {
        self.log.term_at(index)
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    fn peers(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
    }

    fn become_follower(&mut self, term: Term, effects: &mut Vec<Effect>) {
        let was_leader = self.role == Role::Leader;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.role = Role::Follower;
        if was_leader {
            effects.push(Effect::SteppedDown);
        }
    }

    /// The election timer fired: start (or restart) an election.
    pub fn on_election_timeout(&mut self, effects: &mut Vec<Effect>) {
        if self.role == Role::Leader {
            return;
        }
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes = vec![false; self.n];
        self.votes[self.id] = true;
        self.leader_hint = None;
        effects.push(Effect::ResetElectionTimer);
        if self.n == 1 {
            self.become_leader(effects);
            return;
        }
        let msg = RaftMsg::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        for p in self.peers().collect::<Vec<_>>() {
            effects.push(Effect::Send(p, msg.clone()));
        }
    }

    fn become_leader(&mut self, effects: &mut Vec<Effect>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        let last = self.last_log_index();
        for p in 0..self.n {
            self.next_index[p] = last + 1;
            self.match_index[p] = 0;
        }
        self.match_index[self.id] = last;
        effects.push(Effect::BecameLeader);
        // Commit a no-op from the new term so earlier-term entries commit
        // promptly (Raft §5.4.2 restriction workaround).
        self.append_local(Command::internal(Op::Nop));
        self.broadcast_append(effects);
        self.advance_commit(effects);
    }

    /// The heartbeat timer fired (leaders only): replicate to everyone.
    pub fn on_heartbeat(&mut self, effects: &mut Vec<Effect>) {
        if self.role == Role::Leader {
            self.broadcast_append(effects);
        }
    }

    fn append_local(&mut self, cmd: Command) -> LogIndex {
        self.log.push(Rc::new(LogEntry {
            term: self.term,
            cmd,
        }));
        let idx = self.last_log_index();
        self.match_index[self.id] = idx;
        idx
    }

    /// Submits a command for replication.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] (with a leader hint) if this node is not the leader.
    pub fn propose(
        &mut self,
        cmd: Command,
        effects: &mut Vec<Effect>,
    ) -> Result<LogIndex, NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                hint: self.leader_hint,
            });
        }
        let idx = self.append_local(cmd);
        self.broadcast_append(effects);
        self.advance_commit(effects); // single-node clusters commit instantly
        Ok(idx)
    }

    fn broadcast_append(&mut self, effects: &mut Vec<Effect>) {
        for p in self.peers().collect::<Vec<_>>() {
            self.send_append(p, effects);
        }
    }

    fn send_append(&mut self, to: NodeIdx, effects: &mut Vec<Effect>) {
        let next = self.next_index[to];
        let prev_index = next - 1;
        let prev_term = self.term_at(prev_index);
        let entries = self.log.view_after(prev_index);
        effects.push(Effect::Send(
            to,
            RaftMsg::AppendEntries {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit: self.commit,
            },
        ));
    }

    /// Feeds one protocol message into the core.
    pub fn on_message(&mut self, from: NodeIdx, msg: &RaftMsg, effects: &mut Vec<Effect>) {
        match *msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term, effects),
            RaftMsg::VoteResp { term, granted } => self.on_vote_resp(from, term, granted, effects),
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                ref entries,
                commit,
            } => self.on_append(from, term, prev_index, prev_term, entries, commit, effects),
            RaftMsg::AppendResp {
                term,
                success,
                match_index,
            } => self.on_append_resp(from, term, success, match_index, effects),
        }
    }

    fn on_request_vote(
        &mut self,
        from: NodeIdx,
        term: Term,
        last_log_index: LogIndex,
        last_log_term: Term,
        effects: &mut Vec<Effect>,
    ) {
        if term > self.term {
            self.become_follower(term, effects);
        }
        let log_ok = last_log_term > self.last_log_term()
            || (last_log_term == self.last_log_term() && last_log_index >= self.last_log_index());
        let grant = term == self.term
            && log_ok
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if grant {
            self.voted_for = Some(from);
            effects.push(Effect::ResetElectionTimer);
        }
        effects.push(Effect::Send(
            from,
            RaftMsg::VoteResp {
                term: self.term,
                granted: grant,
            },
        ));
    }

    fn on_vote_resp(
        &mut self,
        from: NodeIdx,
        term: Term,
        granted: bool,
        effects: &mut Vec<Effect>,
    ) {
        if term > self.term {
            self.become_follower(term, effects);
            return;
        }
        if self.role != Role::Candidate || term < self.term || !granted {
            return;
        }
        self.votes[from] = true;
        let count = self.votes.iter().filter(|&&v| v).count();
        if count >= self.majority() {
            self.become_leader(effects);
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the fields of one AppendEntries message, unpacked"
    )]
    fn on_append(
        &mut self,
        from: NodeIdx,
        term: Term,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &LogView,
        commit: LogIndex,
        effects: &mut Vec<Effect>,
    ) {
        if term < self.term {
            effects.push(Effect::Send(
                from,
                RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_index: 0,
                },
            ));
            return;
        }
        // Valid leader for this term.
        self.become_follower(term, effects);
        self.leader_hint = Some(from);
        effects.push(Effect::ResetElectionTimer);

        // Consistency check. The prefix at and below the base is committed,
        // so every leader holds it too: it matches without a term.
        if prev_index > self.last_log_index()
            || (prev_index > self.log.base && self.term_at(prev_index) != prev_term)
        {
            effects.push(Effect::Send(
                from,
                RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_index: 0,
                },
            ));
            return;
        }
        // Skip what this log already holds: equal terms at the last index
        // the view and the log share mean identical entries up to it (Log
        // Matching), so one comparison stands for the whole overlap. The
        // view's part at or below the base is held by construction.
        let match_index = prev_index + entries.len() as LogIndex;
        let shared = match_index.min(self.last_log_index());
        let mut idx = prev_index.max(self.log.base);
        if shared > idx {
            self.steps += 1;
            if self.term_at(shared) == entries.term((shared - prev_index) as usize - 1) {
                idx = shared;
            }
        }
        // Append the rest, truncating conflicts.
        while idx < match_index {
            idx += 1;
            self.steps += 1;
            let entry = entries.get((idx - prev_index) as usize - 1);
            if self.term_at(idx) != entry.term {
                self.steps += 1 + self.log.truncate(idx - 1);
                self.log.push(entry);
            }
        }
        let new_commit = commit.min(match_index);
        if new_commit > self.commit {
            self.commit = new_commit;
            self.emit_applies(effects);
        }
        effects.push(Effect::Send(
            from,
            RaftMsg::AppendResp {
                term: self.term,
                success: true,
                match_index,
            },
        ));
    }

    fn on_append_resp(
        &mut self,
        from: NodeIdx,
        term: Term,
        success: bool,
        match_index: LogIndex,
        effects: &mut Vec<Effect>,
    ) {
        if term > self.term {
            self.become_follower(term, effects);
            return;
        }
        if self.role != Role::Leader || term < self.term {
            return;
        }
        if success {
            if match_index > self.match_index[from] {
                self.match_index[from] = match_index;
            }
            self.next_index[from] = self.match_index[from] + 1;
            self.advance_commit(effects);
        } else {
            // Back off and retry (at the next heartbeat). Rejections of
            // several appends in flight at one `next_index` each back off,
            // so the probe may pass the follower's log end; it stops at the
            // base, which every replica holds (the compaction floor was an
            // index all of them had) and every follower accepts.
            self.next_index[from] = self.next_index[from]
                .saturating_sub(1)
                .max(self.log.base + 1);
        }
    }

    /// The highest index a majority holds: the majority-th largest
    /// `match_index`.
    fn quorum_index(&self) -> LogIndex {
        let held_by_majority =
            |m: LogIndex| self.match_index.iter().filter(|&&o| o >= m).count() >= self.majority();
        self.match_index
            .iter()
            .copied()
            .filter(|&m| held_by_majority(m))
            .max()
            .unwrap_or(0)
    }

    fn advance_commit(&mut self, effects: &mut Vec<Effect>) {
        // Nothing above the quorum index is replicated by a majority and
        // everything at or below it is, so the walk starts there and only
        // the term is left to check.
        let mut candidate = self.quorum_index().min(self.last_log_index());
        while candidate > self.commit {
            self.steps += 1;
            // Only entries from the current term commit by counting (§5.4.2).
            if self.term_at(candidate) == self.term {
                self.commit = candidate;
                self.emit_applies(effects);
                // Propagate the new commit index immediately (as etcd
                // does) so follower-applied state trails commits by a
                // round-trip, not a heartbeat interval.
                self.broadcast_append(effects);
                return;
            }
            candidate -= 1;
        }
    }

    fn emit_applies(&mut self, effects: &mut Vec<Effect>) {
        while self.applied < self.commit {
            self.applied += 1;
            let entry = self.log.get(self.applied).expect("committed entries exist");
            effects.push(Effect::Apply {
                index: self.applied,
                entry,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// In-memory test harness: perfect, ordered links between pure cores.
    struct Net {
        cores: Vec<RaftCore>,
        inflight: VecDeque<(NodeIdx, NodeIdx, RaftMsg)>, // (from, to, msg)
        applied: Vec<Vec<(LogIndex, Rc<LogEntry>)>>,
        blocked: Vec<bool>,
    }

    impl Net {
        fn new(n: usize) -> Net {
            Net {
                cores: (0..n).map(|i| RaftCore::new(i, n)).collect(),
                inflight: VecDeque::new(),
                applied: vec![Vec::new(); n],
                blocked: vec![false; n],
            }
        }

        fn absorb(&mut self, at: NodeIdx, effects: Vec<Effect>) {
            for e in effects {
                match e {
                    Effect::Send(to, msg) => self.inflight.push_back((at, to, msg)),
                    Effect::Apply { index, entry } => self.applied[at].push((index, entry)),
                    _ => {}
                }
            }
        }

        fn timeout(&mut self, at: NodeIdx) {
            let mut eff = Vec::new();
            self.cores[at].on_election_timeout(&mut eff);
            self.absorb(at, eff);
        }

        fn heartbeat(&mut self, at: NodeIdx) {
            let mut eff = Vec::new();
            self.cores[at].on_heartbeat(&mut eff);
            self.absorb(at, eff);
        }

        fn propose(&mut self, at: NodeIdx, op: Op) -> Result<LogIndex, NotLeader> {
            let mut eff = Vec::new();
            let r = self.cores[at].propose(Command::internal(op), &mut eff);
            self.absorb(at, eff);
            r
        }

        /// Delivers all in-flight messages to completion.
        fn settle(&mut self) {
            let mut guard = 0;
            while let Some((from, to, msg)) = self.inflight.pop_front() {
                guard += 1;
                assert!(guard < 100_000, "message storm");
                if self.blocked[to] || self.blocked[from] {
                    continue;
                }
                let mut eff = Vec::new();
                self.cores[to].on_message(from, &msg, &mut eff);
                self.absorb(to, eff);
            }
        }

        fn leader(&self) -> Option<NodeIdx> {
            let leaders: Vec<_> = self
                .cores
                .iter()
                .enumerate()
                .filter(|(i, c)| c.is_leader() && !self.blocked[*i])
                .map(|(i, _)| i)
                .collect();
            assert!(leaders.len() <= 1, "split brain among reachable nodes");
            leaders.first().copied()
        }
    }

    fn put_op(k: &str) -> Op {
        Op::Put {
            key: crate::kv::Key::new(k),
            value: crate::kv::Value::from_static(b"v"),
            lease: None,
            expect: crate::msgs::Expect::Any,
        }
    }

    #[test]
    fn single_node_elects_itself_and_commits_instantly() {
        let mut net = Net::new(1);
        net.timeout(0);
        assert!(net.cores[0].is_leader());
        let idx = net.propose(0, put_op("a")).expect("leader");
        assert_eq!(idx, 2); // 1 is the leader's no-op
        assert_eq!(net.cores[0].commit(), 2);
        assert_eq!(net.applied[0].len(), 2);
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        assert_eq!(net.leader(), Some(0));
        assert_eq!(net.cores[0].term(), 1);
        // Everyone agrees on the hint.
        for c in &net.cores {
            assert_eq!(c.leader_hint(), Some(0));
        }
    }

    #[test]
    fn replication_commits_on_majority_and_applies_in_order() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        net.propose(0, put_op("a")).expect("leader");
        net.propose(0, put_op("b")).expect("leader");
        net.settle();
        net.heartbeat(0); // commit index propagation
        net.settle();
        for i in 0..3 {
            assert_eq!(net.cores[i].commit(), 3, "node {i}");
            let indices: Vec<_> = net.applied[i].iter().map(|(x, _)| *x).collect();
            assert_eq!(indices, vec![1, 2, 3]);
        }
    }

    #[test]
    fn follower_rejects_propose_with_hint() {
        let mut net = Net::new(3);
        net.timeout(2);
        net.settle();
        let err = net.propose(0, put_op("a")).expect_err("follower");
        assert_eq!(err.hint, Some(2));
    }

    #[test]
    fn higher_term_candidate_deposes_leader() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        assert!(net.cores[0].is_leader());
        // Node 1 times out twice (higher term) while able to reach others.
        net.timeout(1);
        net.settle();
        let leader = net.leader().expect("someone leads");
        // Old leader must have stepped down if node 1 won.
        if leader == 1 {
            assert!(!net.cores[0].is_leader());
            assert!(net.cores[0].term() >= net.cores[1].term());
        }
    }

    #[test]
    fn partitioned_minority_leader_cannot_commit() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        // Cut the leader off.
        net.blocked[0] = true;
        let _ = net.propose(0, put_op("lost"));
        net.settle();
        assert_eq!(net.cores[0].commit(), 1, "only its own no-op from election");
        // Majority side elects a new leader and commits.
        net.timeout(1);
        net.settle();
        assert_eq!(net.leader(), Some(1));
        net.propose(1, put_op("kept")).expect("new leader");
        net.settle();
        net.heartbeat(1);
        net.settle();
        assert!(net.cores[1].commit() >= 2);

        // Heal: old leader rejoins, truncates its conflicting entry.
        net.blocked[0] = false;
        net.heartbeat(1);
        net.settle();
        net.heartbeat(1);
        net.settle();
        assert!(!net.cores[0].is_leader());
        assert_eq!(net.cores[0].commit(), net.cores[1].commit());
        // Logs agree entry-by-entry.
        for idx in 1..=net.cores[1].commit() {
            assert_eq!(
                net.cores[0].entry(idx).map(|e| e.cmd.clone()),
                net.cores[1].entry(idx).map(|e| e.cmd.clone()),
                "divergence at {idx}"
            );
        }
        // The minority leader's uncommitted "lost" entry is gone everywhere.
        for i in 0..3 {
            for idx in 1..=net.cores[i].log_len() {
                if let Some(e) = net.cores[i].entry(idx) {
                    if let Op::Put { key, .. } = &e.cmd.op {
                        assert_ne!(key.as_str(), "lost", "node {i} kept a lost write");
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_with_stale_log_cannot_win() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        net.propose(0, put_op("a")).expect("leader");
        net.settle();
        net.heartbeat(0);
        net.settle();
        // Node 2 misses everything from now on.
        net.blocked[2] = true;
        net.propose(0, put_op("b")).expect("leader");
        net.settle();
        net.heartbeat(0);
        net.settle();
        // Node 2 comes back and immediately campaigns; 0 and 1 have longer logs.
        net.blocked[2] = false;
        // Force node 0 and 1 to be receptive (candidate term will be higher).
        net.timeout(2);
        net.settle();
        assert!(!net.cores[2].is_leader(), "stale log must not win");
        // The cluster recovers: a fresh election by an up-to-date node wins.
        net.timeout(0);
        net.settle();
        assert!(net.cores[0].is_leader() || net.cores[1].is_leader());
    }

    #[test]
    fn restart_preserves_log_and_reapplies_on_commit() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        net.propose(0, put_op("a")).expect("leader");
        net.settle();
        net.heartbeat(0);
        net.settle();
        let log_before = net.cores[1].log_len();
        assert_eq!(net.cores[1].commit(), 2);

        // Restart follower 1: volatile state resets, log survives.
        net.cores[1].restart(0);
        net.applied[1].clear();
        assert_eq!(net.cores[1].commit(), 0);
        assert_eq!(net.cores[1].log_len(), log_before);

        // Leader heartbeat re-advances its commit; applies re-fire from 1.
        net.heartbeat(0);
        net.settle();
        assert_eq!(net.cores[1].commit(), 2);
        let indices: Vec<_> = net.applied[1].iter().map(|(x, _)| *x).collect();
        assert_eq!(indices, vec![1, 2]);

        // With its log compacted through 2, it restarts from a state that
        // already holds entry 2 and re-applies only what follows.
        net.propose(0, put_op("b")).expect("leader");
        net.settle();
        net.cores[1].compact(2);
        assert_eq!(net.cores[1].entry(2), None);
        net.cores[1].restart(2);
        net.applied[1].clear();
        assert_eq!(net.cores[1].commit(), 2);
        net.heartbeat(0);
        net.settle();
        let indices: Vec<_> = net.applied[1].iter().map(|(x, _)| *x).collect();
        assert_eq!(indices, vec![3]);
    }

    #[test]
    fn five_node_cluster_commits_with_two_failures() {
        let mut net = Net::new(5);
        net.timeout(3);
        net.settle();
        assert_eq!(net.leader(), Some(3));
        net.blocked[0] = true;
        net.blocked[1] = true;
        net.propose(3, put_op("x")).expect("leader");
        net.settle();
        net.heartbeat(3);
        net.settle();
        assert_eq!(net.cores[3].commit(), 2, "3 of 5 is a majority");
        for i in [2, 4] {
            assert_eq!(net.cores[i].commit(), 2, "node {i}");
        }
    }

    #[test]
    fn votes_are_single_use_per_term() {
        let mut core = RaftCore::new(0, 3);
        let mut eff = Vec::new();
        // Two candidates ask for term 1; only the first gets the vote.
        core.on_message(
            1,
            &RaftMsg::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut eff,
        );
        core.on_message(
            2,
            &RaftMsg::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut eff,
        );
        let grants: Vec<bool> = eff
            .iter()
            .filter_map(|e| match e {
                Effect::Send(_, RaftMsg::VoteResp { granted, .. }) => Some(*granted),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_node_id_panics() {
        RaftCore::new(3, 3);
    }

    #[test]
    fn replication_cost_does_not_grow_with_the_window() {
        let mut net = Net::new(3);
        net.timeout(0);
        net.settle();
        // 500 proposals with nothing delivered: every AppendEntries carries
        // the whole unacked window, up to 500 entries deep.
        for i in 0..500 {
            net.propose(0, put_op(&format!("k{i}"))).expect("leader");
        }
        net.settle();
        for c in &net.cores {
            assert_eq!(c.commit(), 501);
        }
        let steps: u64 = net.cores.iter().map(RaftCore::replication_steps).sum();
        // 9 per proposal here; the linear scan is ≈ 500² per follower.
        assert!(steps <= 32 * 500, "{steps} steps for 500 proposals");
    }

    fn view_entries(view: &LogView) -> Vec<Rc<LogEntry>> {
        (0..view.len()).map(|i| view.get(i)).collect()
    }

    fn entries_of(msg: &RaftMsg) -> Vec<Rc<LogEntry>> {
        match msg {
            RaftMsg::AppendEntries { entries, .. } => view_entries(entries),
            other => panic!("not an AppendEntries: {other:?}"),
        }
    }

    fn keys(log: &[Rc<LogEntry>]) -> Vec<String> {
        log.iter()
            .map(|e| match &e.cmd.op {
                Op::Put { key, .. } => key.as_str().to_string(),
                _ => "nop".to_string(),
            })
            .collect()
    }

    /// The one hazard of sharing the log buffer with messages: the sender
    /// truncates while its messages are still in flight.
    #[test]
    fn back_off_stops_at_the_base() {
        let (a, b, c) = (0, 1, 2);
        let mut net = Net::new(3);
        net.timeout(a);
        net.settle();
        // C misses three entries; A and B commit them, then compact
        // through the floor all three hold (A's no-op). B takes over and
        // starts probing C from its own log end.
        net.blocked[c] = true;
        for k in ["x", "y", "z"] {
            net.propose(a, put_op(k)).expect("leader");
        }
        net.settle();
        net.heartbeat(a);
        net.settle();
        for i in [a, b] {
            net.cores[i].compact(1);
            assert_eq!(net.cores[i].log_base(), 1);
        }
        net.timeout(b);
        net.settle();
        assert_eq!(net.leader(), Some(b));
        assert_eq!(net.cores[b].next_index[c], 5);
        net.blocked[c] = false;

        // Six probes are rejected together: one back-off each, more than
        // the gap, and none goes under the base.
        for _ in 0..6 {
            net.heartbeat(b);
        }
        net.settle();
        assert_eq!(net.cores[b].next_index[c], 2);
        net.heartbeat(b);
        net.settle();
        let z = net.cores[c].entry(4).expect("caught up");
        assert_eq!(keys(&[z]), ["z"]);
        assert_eq!(net.cores[c].commit(), 5);
    }

    #[test]
    fn in_flight_appends_outlive_the_senders_truncation() {
        let (a, b, c, d) = (0, 1, 2, 3);
        let mut net = Net::new(5);
        net.timeout(a);
        net.settle();
        for k in ["x1", "x2", "x3"] {
            net.propose(a, put_op(k)).expect("leader");
        }
        // A's twelve AppendEntries stay in flight.
        let held = Vec::from(std::mem::take(&mut net.inflight));
        let sent: Vec<_> = held.iter().map(|(_, _, m)| entries_of(m)).collect();
        assert_eq!(keys(sent.last().expect("sent")), ["x1", "x2", "x3"]);

        // B wins term 2 without C and overwrites A's uncommitted suffix.
        net.blocked[c] = true;
        net.timeout(b);
        net.settle();
        assert_eq!(net.leader(), Some(b));
        net.propose(b, put_op("y")).expect("leader");
        net.settle();
        net.blocked[c] = false;
        let log_of = |core: &RaftCore| -> Vec<_> {
            (1..=core.log_len()).filter_map(|i| core.entry(i)).collect()
        };
        let b_log = log_of(&net.cores[b]);
        assert_eq!(keys(&b_log), ["nop", "nop", "y"]);
        assert_eq!(log_of(&net.cores[a]), b_log, "A's log must be B's");

        // The old messages still carry what A held when it sent them.
        for ((_, _, msg), before) in held.iter().zip(&sent) {
            assert_eq!(&entries_of(msg), before);
        }
        // C never heard of term 2: it accepts them, twice over (a duplicate
        // changes nothing), and holds exactly A's entries as sent.
        for _ in 0..2 {
            for (from, to, msg) in &held {
                if *to == c {
                    let mut eff = Vec::new();
                    net.cores[c].on_message(*from, msg, &mut eff);
                    assert!(matches!(
                        eff.last(),
                        Some(Effect::Send(_, RaftMsg::AppendResp { success: true, .. }))
                    ));
                }
            }
            assert_eq!(keys(&log_of(&net.cores[c])), ["nop", "x1", "x2", "x3"]);
        }
        // D voted in term 2: stale, rejected, log untouched.
        for (from, to, msg) in &held {
            if *to == d {
                let mut eff = Vec::new();
                net.cores[d].on_message(*from, msg, &mut eff);
                assert!(matches!(
                    eff.last(),
                    Some(Effect::Send(_, RaftMsg::AppendResp { success: false, .. }))
                ));
            }
        }
        assert_eq!(log_of(&net.cores[d]), b_log);
        // B's next heartbeat brings C round.
        net.heartbeat(b);
        net.settle();
        assert_eq!(log_of(&net.cores[c]), b_log);

        // B compacts everything it applied while its next appends are in
        // flight: the messages still carry exactly what B held when it
        // sent them, and every receiver appends them above its own base —
        // C's sits right at their `prev_index`.
        assert_eq!(net.cores[b].commit(), 3);
        net.propose(b, put_op("z")).expect("leader");
        let held = Vec::from(std::mem::take(&mut net.inflight));
        let sent: Vec<_> = held.iter().map(|(_, _, m)| entries_of(m)).collect();
        net.cores[b].compact(3);
        assert_eq!((net.cores[b].log_base(), net.cores[b].log_len()), (3, 4));
        for ((_, _, msg), before) in held.iter().zip(&sent) {
            assert_eq!(&entries_of(msg), before);
        }
        net.cores[c].compact(3);
        net.inflight.extend(held);
        net.settle();
        for (i, core) in net.cores.iter().enumerate() {
            let z = core.entry(4).expect("replicated");
            assert_eq!(keys(&[z]), ["z"], "node {i}");
        }
    }

    // -----------------------------------------------------------------
    // Reference equivalence: the linear scans the fast paths replaced,
    // kept to compare against.
    // -----------------------------------------------------------------

    impl RaftCore {
        #[allow(clippy::too_many_arguments, reason = "mirrors on_append's signature")]
        fn on_append_reference(
            &mut self,
            from: NodeIdx,
            term: Term,
            prev_index: LogIndex,
            prev_term: Term,
            entries: Vec<Rc<LogEntry>>,
            commit: LogIndex,
            effects: &mut Vec<Effect>,
        ) {
            let reject = |term| {
                Effect::Send(
                    from,
                    RaftMsg::AppendResp {
                        term,
                        success: false,
                        match_index: 0,
                    },
                )
            };
            if term < self.term {
                effects.push(reject(self.term));
                return;
            }
            self.become_follower(term, effects);
            self.leader_hint = Some(from);
            effects.push(Effect::ResetElectionTimer);
            if prev_index > self.last_log_index() || self.term_at(prev_index) != prev_term {
                effects.push(reject(self.term));
                return;
            }
            let mut idx = prev_index;
            for entry in entries {
                idx += 1;
                if self.term_at(idx) != entry.term {
                    self.log.truncate(idx - 1);
                    self.log.push(entry);
                }
            }
            let match_index = idx;
            let new_commit = commit.min(match_index);
            if new_commit > self.commit {
                self.commit = new_commit;
                self.emit_applies(effects);
            }
            effects.push(Effect::Send(
                from,
                RaftMsg::AppendResp {
                    term: self.term,
                    success: true,
                    match_index,
                },
            ));
        }

        fn advance_commit_reference(&mut self, effects: &mut Vec<Effect>) {
            let mut candidate = self.last_log_index();
            while candidate > self.commit {
                if self.term_at(candidate) == self.term {
                    let replicated = self.match_index.iter().filter(|&&m| m >= candidate).count();
                    if replicated >= self.majority() {
                        self.commit = candidate;
                        self.emit_applies(effects);
                        self.broadcast_append(effects);
                        return;
                    }
                }
                candidate -= 1;
            }
        }

        /// Everything the two paths must agree on above log index `base`,
        /// effects included.
        fn observable(&self, base: LogIndex, effects: &[Effect]) -> String {
            let log: Vec<_> = (base + 1..=self.log_len()).map(|i| self.entry(i)).collect();
            format!(
                "{log:?} {:?} term={} commit={} applied={} hint={:?} {effects:?}",
                self.role, self.term, self.commit, self.applied, self.leader_hint
            )
        }
    }

    /// `len` entries with non-decreasing terms drawn from `lo..=hi`.
    fn gen_entries(
        rng: &mut ph_sim::SimRng,
        tag: &str,
        len: u64,
        lo: Term,
        hi: Term,
    ) -> Vec<Rc<LogEntry>> {
        let mut term = lo;
        (0..len)
            .map(|i| {
                term = rng.range(term, hi + 1);
                Rc::new(LogEntry {
                    term,
                    cmd: Command::internal(put_op(&format!("{tag}{i}"))),
                })
            })
            .collect()
    }

    fn terms(log: &[Rc<LogEntry>]) -> Vec<Term> {
        log.iter().map(|e| e.term).collect()
    }

    fn core_with(
        n: usize,
        role: Role,
        term: Term,
        log: &[Rc<LogEntry>],
        commit: LogIndex,
    ) -> RaftCore {
        let mut c = RaftCore::new(0, n);
        c.role = role;
        c.term = term;
        for e in log {
            c.log.push(Rc::clone(e));
        }
        c.commit = commit;
        c.applied = commit;
        c
    }

    #[test]
    fn on_append_matches_the_linear_scan() {
        let mut rng = ph_sim::SimRng::from_seed(0x0A99_E2D5);
        let (mut rejected, mut skipped, mut truncated, mut grown) = (0, 0, 0, 0);
        let mut under_base = 0;
        for case in 0..4_000 {
            // The follower: up to 12 entries over terms 1–3.
            let flen = rng.below(13);
            let flog = gen_entries(&mut rng, "f", flen, 1, 3);
            let fterm = flog.last().map_or(1, |e| e.term) + rng.below(2);
            // The leader shares the follower's first `d` entries and then
            // holds `m` of its own. Cut inside the follower's log they are
            // a conflict: a term the follower holds nowhere, as Log
            // Matching guarantees of a real divergence.
            let d = rng.below(flen + 1);
            let m = rng.below(7);
            let own_lo = if d < flen {
                4
            } else {
                flog.last().map_or(1, |e| e.term)
            };
            let mut leader = Log::default();
            for e in flog[..d as usize]
                .iter()
                .cloned()
                .chain(gen_entries(&mut rng, "l", m, own_lo, 4))
            {
                leader.push(e);
            }
            let prev_index = rng.below(leader.last() + 1);
            let prev_term = leader.term_at(prev_index) + u64::from(rng.chance(0.1));
            let view = leader.view_after(prev_index);
            let term = if rng.chance(0.15) {
                fterm - 1 // stale
            } else {
                fterm + rng.below(2)
            };
            let commit = rng.below(leader.last() + 3);
            let role = *rng
                .pick(&[Role::Follower, Role::Candidate, Role::Leader])
                .expect("non-empty");
            let fcommit = rng.below(d + 1);
            // The follower compacted its log through `base`, inside the
            // committed prefix every leader holds as it does: a message cut
            // at or below the base carries the true term there.
            let base = rng.below(fcommit + 1);
            let prev_term = if prev_index <= base {
                leader.term_at(prev_index)
            } else {
                prev_term
            };

            let mut fast = core_with(3, role, fterm, &flog, fcommit);
            let mut slow = core_with(3, role, fterm, &flog, fcommit);
            // Sometimes a view of the follower's own log is outstanding (it
            // led once): neither the compaction nor a truncation may reach
            // what that view reads. The reference keeps its whole log.
            let held = rng.chance(0.3).then(|| fast.log.view_after(0));
            fast.compact(base);

            let (mut fast_eff, mut slow_eff) = (Vec::new(), Vec::new());
            fast.on_append(1, term, prev_index, prev_term, &view, commit, &mut fast_eff);
            let entries = view_entries(&view);
            slow.on_append_reference(
                1,
                term,
                prev_index,
                prev_term,
                entries,
                commit,
                &mut slow_eff,
            );
            assert_eq!(
                fast.observable(base, &fast_eff),
                slow.observable(base, &slow_eff),
                "case {case}: follower terms {:?} above {base} <- {view:?} of a log sharing {d}",
                terms(&flog)
            );
            if let Some(held) = held {
                assert_eq!(
                    view_entries(&held),
                    flog,
                    "case {case}: a held view changed"
                );
            }

            let accepted = matches!(
                fast_eff.last(),
                Some(Effect::Send(_, RaftMsg::AppendResp { success: true, .. }))
            );
            let conflict = d < flen && m > 0 && prev_index <= d;
            // Only cutting a real conflict out from under a view may copy.
            if !conflict {
                let steps = fast.replication_steps();
                assert!(steps <= 1 + 2 * view.len() as u64, "case {case}: {steps}");
            }
            rejected += u32::from(!accepted);
            truncated += u32::from(accepted && conflict);
            grown += u32::from(accepted && !conflict && fast.log_len() > flen);
            skipped += u32::from(accepted && fast.log_len() == flen && !view.is_empty());
            under_base += u32::from(accepted && prev_index < base);
        }
        // The generator reaches every branch, none of them rarely.
        for (what, hits) in [
            ("rejected", rejected),
            ("skipped a held overlap", skipped),
            ("truncated a conflict", truncated),
            ("appended a new tail", grown),
            ("accepted a view reaching under the base", under_base),
        ] {
            assert!(hits >= 200, "{what}: only {hits} of 4000 cases");
        }
    }

    #[test]
    fn advance_commit_matches_the_walk_from_the_log_end() {
        let mut rng = ph_sim::SimRng::from_seed(0x00C0_3317);
        let (mut advanced, mut held_back) = (0, 0);
        for case in 0..4_000 {
            let n = *rng.pick(&[1, 3, 5]).expect("non-empty");
            let len = rng.range(1, 13);
            let log = gen_entries(&mut rng, "e", len, 1, 3);
            let term = log[len as usize - 1].term + rng.below(2);
            let commit = rng.below(len + 1);
            let match_index: Vec<LogIndex> = (0..n).map(|_| rng.below(len + 3)).collect();
            let next_index: Vec<LogIndex> = (0..n).map(|_| rng.range(1, len + 2)).collect();

            let build = || {
                let mut c = core_with(n, Role::Leader, term, &log, commit);
                c.match_index.clone_from(&match_index);
                c.next_index.clone_from(&next_index);
                c
            };
            let (mut fast, mut slow) = (build(), build());
            let (mut fast_eff, mut slow_eff) = (Vec::new(), Vec::new());
            fast.advance_commit(&mut fast_eff);
            slow.advance_commit_reference(&mut slow_eff);
            assert_eq!(
                fast.observable(0, &fast_eff),
                slow.observable(0, &slow_eff),
                "case {case}: match {match_index:?}, commit {commit}, term {term}, log terms {:?}",
                terms(&log)
            );

            // §5.4.2: counting replicas commits current-term entries only.
            if fast.commit() > commit {
                assert_eq!(fast.term_at(fast.commit()), term, "case {case}");
                advanced += 1;
            } else if fast.quorum_index().min(len) > commit {
                held_back += 1;
            }
        }
        assert!(advanced >= 200, "only {advanced} cases advanced the commit");
        assert!(
            held_back >= 200,
            "only {held_back} cases held a majority-replicated earlier-term entry back"
        );
    }
}

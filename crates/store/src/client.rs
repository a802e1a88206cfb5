//! An embeddable, retrying store client.
//!
//! [`StoreClient`] is a state machine that upper-layer actors (apiservers,
//! controllers, schedulers) embed. It tracks outstanding requests, follows
//! leader hints, retries on timeout, and maintains watch streams with
//! liveness detection and resume-from-revision reconnection — the same
//! machinery etcd client libraries provide, and the machinery whose
//! weaknesses (resuming on a *different, possibly stale* node) enable
//! time-travel bugs (§4.2.2).
//!
//! The owning actor must:
//! 1. forward incoming messages to [`StoreClient::on_message`];
//! 2. call [`StoreClient::tick`] from a periodic timer (retries, liveness);
//! 3. consume the returned [`Completion`]s.

use std::collections::BTreeMap;

use ph_sim::{ActorId, AnyMsg, Ctx, Duration, SimTime};

use crate::kv::{Key, KvEvent, Revision, Value};
use crate::msgs::{
    ClientRequest, ClientResponse, Expect, Op, OpError, OpResult, ReadLevel, RequestError,
    WatchCancelled, WatchCreate, WatchNotify, WatchProgress,
};
use crate::watch::{Stream, Streams};

/// Client tuning.
#[derive(Debug, Clone)]
pub struct StoreClientConfig {
    /// Actor ids of the store cluster members (shared — every client and
    /// per-trial config cloned from a cluster bumps a refcount instead of
    /// copying the id list).
    pub nodes: std::rc::Rc<[ActorId]>,
    /// Preferred node index for serializable reads and watches (`None`
    /// round-robins). Components pin this to "their" endpoint, like real
    /// deployments pin an apiserver to a local etcd member.
    pub affinity: Option<usize>,
}

impl StoreClientConfig {
    /// Sensible defaults for a given member list (accepts a `Vec`, a
    /// shared `Rc<[ActorId]>` handle, or anything else slice-convertible).
    pub fn new(nodes: impl Into<std::rc::Rc<[ActorId]>>) -> StoreClientConfig {
        StoreClientConfig {
            nodes: nodes.into(),
            affinity: None,
        }
    }
}

/// Resend an unanswered request after this long.
const REQUEST_TIMEOUT: Duration = Duration::millis(500);
/// Declare a watch stream dead after this long without events or
/// progress, and re-create it (possibly on a different node).
const WATCH_TIMEOUT: Duration = Duration::millis(1000);

// An idle watch stays alive only because a progress notification refreshes
// its `last_seen` before the timeout: the store must send one sooner.
const _: () = assert!(crate::node::PROGRESS_INTERVAL.as_nanos() < WATCH_TIMEOUT.as_nanos());

/// A finished interaction, surfaced to the owning component.
#[derive(Debug, Clone)]
pub enum Completion {
    /// A submitted operation finished (possibly after retries).
    OpDone {
        /// The request id returned by the submit call.
        req: u64,
        /// Outcome (deterministic state-machine errors only; transport
        /// failures are retried internally and never surface).
        result: Result<OpResult, OpError>,
    },
    /// New events on a watch stream, in revision order.
    WatchEvents {
        /// The watch id.
        watch: u64,
        /// The events (shared, not deep-copied, along the whole
        /// store → client → cache path).
        events: Vec<std::rc::Rc<KvEvent>>,
        /// Resume point after this batch.
        revision: Revision,
    },
    /// The watch was cancelled because its resume revision was compacted
    /// away: the owner's view has an unrecoverable gap and it must re-list
    /// (§4.2.3).
    WatchCompacted {
        /// The watch id.
        watch: u64,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    op: Op,
    level: ReadLevel,
    target: ActorId,
    deadline: SimTime,
}

/// The client state machine. See the module docs for the embedding contract.
#[derive(Debug)]
pub struct StoreClient {
    cfg: StoreClientConfig,
    leader_hint: Option<ActorId>,
    next_req: u64,
    pending: BTreeMap<u64, Pending>,
    watches: Streams<WatchCreate>,
    rr: usize,
}

impl StoreClient {
    /// Creates a client for the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if the member list is empty or the affinity index is out of
    /// range.
    pub fn new(cfg: StoreClientConfig) -> StoreClient {
        assert!(
            !cfg.nodes.is_empty(),
            "store client needs at least one node"
        );
        if let Some(a) = cfg.affinity {
            assert!(a < cfg.nodes.len(), "affinity index out of range");
        }
        StoreClient {
            cfg,
            leader_hint: None,
            next_req: 0,
            pending: BTreeMap::new(),
            watches: Streams::new(WATCH_TIMEOUT),
            rr: 0,
        }
    }

    /// Number of requests awaiting a response.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// State of one watch, if it exists.
    pub fn watch_state(&self, watch: u64) -> Option<&Stream> {
        self.watches.get(watch)
    }

    fn write_target(&mut self) -> ActorId {
        self.leader_hint
            .unwrap_or_else(|| rotate(&self.cfg, &mut self.rr))
    }

    // -----------------------------------------------------------------
    // Submitting operations
    // -----------------------------------------------------------------

    /// Submits an operation; the result arrives later as
    /// [`Completion::OpDone`] carrying the returned request id.
    pub fn submit(&mut self, op: Op, level: ReadLevel, ctx: &mut Ctx) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let target = match (&op, level) {
            (Op::Read { .. }, ReadLevel::Serializable) => affinity_node(&self.cfg, &mut self.rr),
            _ => self.write_target(),
        };
        ctx.send(
            target,
            ClientRequest {
                req,
                op: op.clone(),
                level,
            },
        );
        self.pending.insert(
            req,
            Pending {
                op,
                level,
                target,
                deadline: ctx.now() + REQUEST_TIMEOUT,
            },
        );
        req
    }

    /// Unconditional put.
    pub fn put(&mut self, key: impl Into<Key>, value: Value, ctx: &mut Ctx) -> u64 {
        self.submit(
            Op::Put {
                key: key.into(),
                value,
                lease: None,
                expect: Expect::Any,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    }

    /// Compare-and-swap put.
    pub fn cas_put(
        &mut self,
        key: impl Into<Key>,
        value: Value,
        expect: Expect,
        ctx: &mut Ctx,
    ) -> u64 {
        self.submit(
            Op::Put {
                key: key.into(),
                value,
                lease: None,
                expect,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    }

    /// Delete (optionally guarded).
    pub fn delete(&mut self, key: impl Into<Key>, expect: Expect, ctx: &mut Ctx) -> u64 {
        self.submit(
            Op::Delete {
                key: key.into(),
                expect,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    }

    /// Prefix read at the chosen consistency level.
    pub fn read(&mut self, prefix: impl Into<String>, level: ReadLevel, ctx: &mut Ctx) -> u64 {
        self.submit(
            Op::Read {
                prefix: prefix.into(),
            },
            level,
            ctx,
        )
    }

    // -----------------------------------------------------------------
    // Watches
    // -----------------------------------------------------------------

    /// Opens a watch on `prefix` for events strictly after `after`
    /// (0 = the node's full retained history). Events arrive as
    /// [`Completion::WatchEvents`].
    pub fn watch(&mut self, prefix: impl Into<String>, after: Revision, ctx: &mut Ctx) -> u64 {
        let node = affinity_node(&self.cfg, &mut self.rr);
        self.watches.open(prefix.into(), after, node, ctx)
    }

    /// Cancels a watch.
    pub fn cancel_watch(&mut self, watch: u64, ctx: &mut Ctx) {
        self.watches.cancel(watch, ctx);
    }

    // -----------------------------------------------------------------
    // Message plumbing
    // -----------------------------------------------------------------

    /// Offers an incoming message to the client. Returns `true` if the
    /// message belonged to this client (completions, if any, are appended
    /// to `out`).
    pub fn on_message(
        &mut self,
        from: ActorId,
        msg: &AnyMsg,
        ctx: &mut Ctx,
        out: &mut Vec<Completion>,
    ) -> bool {
        if let Some(resp) = msg.downcast_ref::<ClientResponse>() {
            self.on_response(from, resp, ctx, out);
            return true;
        }
        let (cfg, rr) = (&self.cfg, &mut self.rr);
        let pick = || affinity_node(cfg, rr);
        if let Some(n) = msg.downcast_ref::<WatchNotify>() {
            let (watch, revision) = (n.watch, n.revision);
            if self
                .watches
                .receive(from, watch, n.stream_seq, revision, ctx, pick)
            {
                let events = n.events.clone();
                out.push(Completion::WatchEvents {
                    watch,
                    events,
                    revision,
                });
            }
            return true;
        }
        if let Some(p) = msg.downcast_ref::<WatchProgress>() {
            self.watches
                .receive(from, p.watch, p.stream_seq, p.revision, ctx, pick);
            return true;
        }
        if let Some(c) = msg.downcast_ref::<WatchCancelled>() {
            if self.watches.ended(c.watch) {
                out.push(Completion::WatchCompacted { watch: c.watch });
            }
            return true;
        }
        false
    }

    fn on_response(
        &mut self,
        from: ActorId,
        resp: &ClientResponse,
        ctx: &mut Ctx,
        out: &mut Vec<Completion>,
    ) {
        let Some(p) = self.pending.get(&resp.req) else {
            return; // late duplicate; already resolved
        };
        match &resp.result {
            Ok(r) => {
                self.pending.remove(&resp.req);
                out.push(Completion::OpDone {
                    req: resp.req,
                    result: Ok(r.clone()),
                });
            }
            Err(RequestError::Op(e)) => {
                self.pending.remove(&resp.req);
                out.push(Completion::OpDone {
                    req: resp.req,
                    result: Err(e.clone()),
                });
            }
            Err(RequestError::NotLeader { hint }) => {
                if from != p.target {
                    return; // stale response from an earlier attempt
                }
                self.leader_hint = *hint;
                self.resend(resp.req, ctx);
            }
            Err(RequestError::Unavailable) => {
                if from != p.target {
                    return;
                }
                self.leader_hint = None;
                self.resend(resp.req, ctx);
            }
        }
    }

    fn resend(&mut self, req: u64, ctx: &mut Ctx) {
        let Some(p) = self.pending.get(&req) else {
            return;
        };
        let (op, level, old_target) = (p.op.clone(), p.level, p.target);
        let target = match (&op, level) {
            (Op::Read { .. }, ReadLevel::Serializable) => affinity_node(&self.cfg, &mut self.rr),
            _ => {
                // Avoid immediately re-asking the node that just refused.
                let mut t = self.write_target();
                if t == old_target {
                    t = rotate(&self.cfg, &mut self.rr);
                }
                t
            }
        };
        ctx.send(target, ClientRequest { req, op, level });
        let p = self.pending.get_mut(&req).expect("checked");
        p.target = target;
        p.deadline = ctx.now() + REQUEST_TIMEOUT;
    }

    /// Periodic maintenance: retries timed-out requests and re-creates dead
    /// watch streams (resuming after the last seen revision, possibly on a
    /// different — and possibly *less caught-up* — node).
    pub fn tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let timed_out: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&r, _)| r)
            .collect();
        for req in timed_out {
            self.leader_hint = None;
            self.resend(req, ctx);
        }
        self.watches
            .reap(ctx, || affinity_node(&self.cfg, &mut self.rr));
    }
}

/// The next node in round-robin order.
fn rotate(cfg: &StoreClientConfig, rr: &mut usize) -> ActorId {
    let node = cfg.nodes[*rr % cfg.nodes.len()];
    *rr += 1;
    node
}

/// The node serializable reads and watches go to.
fn affinity_node(cfg: &StoreClientConfig, rr: &mut usize) -> ActorId {
    match cfg.affinity {
        Some(i) => cfg.nodes[i],
        None => rotate(cfg, rr),
    }
}

/// A minimal actor wrapping a [`StoreClient`], used by tests, benches and
/// examples that just need "a client in the world": submit via
/// [`ph_sim::World::invoke`], then inspect [`BasicClient::completions`].
#[derive(Debug)]
pub struct BasicClient {
    /// The embedded client.
    pub client: StoreClient,
    /// Everything that has completed, in order.
    pub completions: Vec<Completion>,
    tick_every: Duration,
}

impl BasicClient {
    /// Wraps a client; `tick_every` controls retry/liveness granularity.
    pub fn new(client: StoreClient, tick_every: Duration) -> BasicClient {
        BasicClient {
            client,
            completions: Vec::new(),
            tick_every,
        }
    }

    /// The result of request `req`, if it has completed.
    pub fn result_of(&self, req: u64) -> Option<&Result<OpResult, OpError>> {
        self.completions.iter().find_map(|c| match c {
            Completion::OpDone { req: r, result } if *r == req => Some(result),
            _ => None,
        })
    }

    /// All watch event batches received so far, flattened.
    pub fn watch_events(&self, watch: u64) -> Vec<std::rc::Rc<KvEvent>> {
        self.completions
            .iter()
            .filter_map(|c| match c {
                Completion::WatchEvents {
                    watch: w, events, ..
                } if *w == watch => Some(events.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }
}

impl ph_sim::Actor for BasicClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.tick_every, 0);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut out = Vec::new();
        self.client.on_message(from, &msg, ctx, &mut out);
        self.completions.extend(out);
    }

    fn on_timer(&mut self, _t: ph_sim::TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        ctx.set_timer(self.tick_every, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        StoreClient::new(StoreClientConfig::new(vec![]));
    }

    #[test]
    #[should_panic(expected = "affinity index")]
    fn bad_affinity_panics() {
        let mut cfg = StoreClientConfig::new(vec![ActorId(0)]);
        cfg.affinity = Some(3);
        StoreClient::new(cfg);
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        // Pure check of id assignment without a context: ids come from a
        // counter, not randomness.
        let c = StoreClient::new(StoreClientConfig::new(vec![ActorId(0)]));
        assert_eq!(c.next_req, 0);
        assert_eq!(c.pending_len(), 0);
    }
}

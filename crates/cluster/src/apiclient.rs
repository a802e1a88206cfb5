//! An embeddable apiserver client for components.
//!
//! Components (kubelets, controllers, the scheduler) talk to *one* apiserver
//! at a time and may switch — on retry, or on restart. That switch is the
//! time-travel vector of §4.2.2: "a service can synchronize its state with
//! one of multiple upstream sources, each of which could be potentially
//! stale". [`PickPolicy`] controls the choice deterministically.
//!
//! Watch streams go through [`ph_store::watch::Streams`], the tracker the
//! store client embeds too: this client only picks the apiserver each
//! (re)connect goes to.

use std::collections::BTreeMap;

use ph_sim::{ActorId, AnyMsg, Ctx, Duration, SimTime};
use ph_store::watch::Streams;
use ph_store::Revision;

use crate::api::{
    ApiError, ApiOk, ApiRequest, ApiResponse, ApiWatchCancelled, ApiWatchCreate, ApiWatchEvent,
    ApiWatchProgress, ObjEvent, Verb,
};

/// How a component chooses its apiserver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickPolicy {
    /// Always the same apiserver.
    Pinned(usize),
    /// `(instance + rotations) % n` — components pass their incarnation as
    /// `instance`, so each restart deterministically lands on the *next*
    /// apiserver (the Kubernetes-59848 ingredient).
    ByInstance,
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ApiClientConfig {
    /// The apiservers, in a fixed order.
    pub apiservers: Vec<ActorId>,
    /// Upstream selection.
    pub pick: PickPolicy,
}

impl ApiClientConfig {
    /// Defaults for a list of apiservers.
    pub fn new(apiservers: Vec<ActorId>) -> ApiClientConfig {
        ApiClientConfig {
            apiservers,
            pick: PickPolicy::Pinned(0),
        }
    }

    /// Can this client end up re-listing from a *different* apiserver than
    /// the one that served its current view? `ByInstance` rotates upstreams
    /// across restarts, so with more than one apiserver the answer is yes —
    /// the §4.2.2 time-travel vector the static hazard checker keys on.
    pub fn upstream_switch(&self) -> bool {
        self.pick == PickPolicy::ByInstance && self.apiservers.len() > 1
    }
}

/// Resend an unanswered request after this long.
const REQUEST_TIMEOUT: Duration = Duration::millis(400);
/// Declare a watch dead after this long without traffic.
const WATCH_TIMEOUT: Duration = Duration::millis(1200);

// An idle watch stays alive only because a progress notification refreshes
// its `last_seen` before the timeout: the apiserver must send one sooner.
const _: () = assert!(crate::apiserver::PROGRESS_INTERVAL.as_nanos() < WATCH_TIMEOUT.as_nanos());

/// A finished client interaction.
#[derive(Debug, Clone)]
pub enum ApiCompletion {
    /// A request finished (transport-level failures are retried internally;
    /// only [`ApiError::Unavailable`] exhaustion surfaces as an error).
    Done {
        /// Request id from the submit call.
        req: u64,
        /// Outcome.
        result: Result<ApiOk, ApiError>,
    },
    /// Events on a watch stream.
    WatchEvents {
        /// Watch id.
        watch: u64,
        /// The events, in revision order (shared along the apiserver →
        /// client → informer path).
        events: Vec<std::rc::Rc<ObjEvent>>,
        /// Resume point after the batch.
        revision: Revision,
    },
    /// The watch resume point fell out of the apiserver's window: the
    /// owner must re-list (§4.2.3).
    WatchTooOld {
        /// Watch id.
        watch: u64,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    verb: Verb,
    target: ActorId,
    deadline: SimTime,
}

/// The client state machine. Owners forward messages to
/// [`ApiClient::on_message`] and call [`ApiClient::tick`] periodically.
#[derive(Debug)]
pub struct ApiClient {
    cfg: ApiClientConfig,
    /// The pick-policy-designated apiserver for this instance.
    home: usize,
    /// Which apiserver this client currently targets; drifts off `home`
    /// while retrying around unavailability and snaps back on success.
    preferred: usize,
    next_req: u64,
    pending: BTreeMap<u64, Pending>,
    watches: Streams<ApiWatchCreate>,
}

impl ApiClient {
    /// Creates a client. `instance` disambiguates restarts under
    /// [`PickPolicy::ByInstance`] (pass the owner's incarnation).
    ///
    /// # Panics
    ///
    /// Panics if the apiserver list is empty or a pinned index is out of
    /// range.
    pub fn new(cfg: ApiClientConfig, instance: u64) -> ApiClient {
        assert!(!cfg.apiservers.is_empty(), "need at least one apiserver");
        let preferred = match cfg.pick {
            PickPolicy::Pinned(i) => {
                assert!(i < cfg.apiservers.len(), "pinned index out of range");
                i
            }
            PickPolicy::ByInstance => (instance as usize) % cfg.apiservers.len(),
        };
        ApiClient {
            cfg,
            home: preferred,
            preferred,
            next_req: 0,
            pending: BTreeMap::new(),
            watches: Streams::new(WATCH_TIMEOUT),
        }
    }

    /// The apiserver this client currently prefers.
    pub fn upstream(&self) -> ActorId {
        self.cfg.apiservers[self.preferred]
    }

    /// Requests awaiting a response.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // -----------------------------------------------------------------
    // Requests
    // -----------------------------------------------------------------

    /// Submits a verb; completion arrives as [`ApiCompletion::Done`].
    pub fn submit(&mut self, verb: Verb, ctx: &mut Ctx) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let target = self.upstream();
        let wire = ApiRequest {
            req,
            verb: verb.clone(),
        };
        let bytes = wire.wire_bytes();
        ctx.send_sized(target, wire, bytes);
        self.pending.insert(
            req,
            Pending {
                verb,
                target,
                deadline: ctx.now() + REQUEST_TIMEOUT,
            },
        );
        req
    }

    /// Cache read of one object.
    pub fn get(&mut self, key: impl Into<String>, fresh: bool, ctx: &mut Ctx) -> u64 {
        self.submit(
            Verb::Get {
                key: key.into(),
                fresh,
            },
            ctx,
        )
    }

    /// Cache or quorum list.
    pub fn list(&mut self, prefix: impl Into<String>, fresh: bool, ctx: &mut Ctx) -> u64 {
        self.submit(
            Verb::List {
                prefix: prefix.into(),
                fresh,
            },
            ctx,
        )
    }

    /// Creates an object.
    pub fn create(&mut self, obj: &crate::objects::Object, ctx: &mut Ctx) -> u64 {
        self.submit(
            Verb::Create {
                key: obj.key().as_str().to_string(),
                value: obj.encode(),
            },
            ctx,
        )
    }

    /// Updates an object guarded by its resource version (pass an object
    /// read from the API so the version is meaningful).
    pub fn update(&mut self, obj: &crate::objects::Object, ctx: &mut Ctx) -> u64 {
        let expect_rv = if obj.meta.resource_version.0 > 0 {
            Some(obj.meta.resource_version)
        } else {
            None
        };
        self.submit(
            Verb::Update {
                key: obj.key().as_str().to_string(),
                value: obj.encode(),
                expect_rv,
            },
            ctx,
        )
    }

    /// Deletes by key, unconditionally.
    pub fn delete(&mut self, key: impl Into<String>, ctx: &mut Ctx) -> u64 {
        self.submit(Verb::Delete { key: key.into() }, ctx)
    }

    /// Marks an object for graceful deletion.
    pub fn mark_deleted(&mut self, key: impl Into<String>, ctx: &mut Ctx) -> u64 {
        self.submit(Verb::MarkDeleted { key: key.into() }, ctx)
    }

    // -----------------------------------------------------------------
    // Watches
    // -----------------------------------------------------------------

    /// Opens a watch on the preferred apiserver.
    pub fn watch(&mut self, prefix: impl Into<String>, after: Revision, ctx: &mut Ctx) -> u64 {
        let node = self.upstream();
        self.watches.open(prefix.into(), after, node, ctx)
    }

    /// Cancels a watch.
    pub fn cancel_watch(&mut self, watch: u64, ctx: &mut Ctx) {
        self.watches.cancel(watch, ctx);
    }

    // -----------------------------------------------------------------
    // Plumbing
    // -----------------------------------------------------------------

    /// Offers an incoming message; returns `true` if consumed.
    pub fn on_message(
        &mut self,
        from: ActorId,
        msg: &AnyMsg,
        ctx: &mut Ctx,
        out: &mut Vec<ApiCompletion>,
    ) -> bool {
        if let Some(resp) = msg.downcast_ref::<ApiResponse>() {
            let Some(p) = self.pending.get(&resp.req) else {
                return true;
            };
            match &resp.result {
                Err(ApiError::Unavailable) if from == p.target => {
                    // Rotate to the next apiserver and retry immediately.
                    self.preferred = (self.preferred + 1) % self.cfg.apiservers.len();
                    ctx.counter_inc("apiclient.retries");
                    self.resend(resp.req, ctx);
                }
                Err(ApiError::Unavailable) => { /* stale responder; ignore */ }
                other => {
                    // A working response: snap back to the designated home
                    // so pinned/by-instance policies stay meaningful after
                    // transient unavailability forced a detour.
                    self.preferred = self.home;
                    self.pending.remove(&resp.req);
                    out.push(ApiCompletion::Done {
                        req: resp.req,
                        result: other.clone(),
                    });
                }
            }
            return true;
        }
        let upstream = self.upstream();
        if let Some(e) = msg.downcast_ref::<ApiWatchEvent>() {
            let (watch, revision) = (e.watch, e.revision);
            if self
                .watches
                .receive(from, watch, e.stream_seq, revision, ctx, || upstream)
            {
                let events = e.events.clone();
                out.push(ApiCompletion::WatchEvents {
                    watch,
                    events,
                    revision,
                });
            }
            return true;
        }
        if let Some(p) = msg.downcast_ref::<ApiWatchProgress>() {
            self.watches
                .receive(from, p.watch, p.stream_seq, p.revision, ctx, || upstream);
            return true;
        }
        if let Some(c) = msg.downcast_ref::<ApiWatchCancelled>() {
            if self.watches.ended(c.watch) {
                out.push(ApiCompletion::WatchTooOld { watch: c.watch });
            }
            return true;
        }
        false
    }

    fn resend(&mut self, req: u64, ctx: &mut Ctx) {
        let target = self.upstream();
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        p.target = target;
        p.deadline = ctx.now() + REQUEST_TIMEOUT;
        let verb = p.verb.clone();
        let wire = ApiRequest { req, verb };
        let bytes = wire.wire_bytes();
        ctx.send_sized(target, wire, bytes);
    }

    /// Periodic maintenance: retries timed-out requests (rotating upstream)
    /// and revives dead watch streams (resuming from the last seen revision
    /// on the — possibly different, possibly *staler* — preferred upstream).
    pub fn tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let timed_out: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&r, _)| r)
            .collect();
        if !timed_out.is_empty() {
            self.preferred = (self.preferred + 1) % self.cfg.apiservers.len();
        }
        for req in timed_out {
            ctx.counter_inc("apiclient.retries");
            self.resend(req, ctx);
        }
        let upstream = self.upstream();
        self.watches.reap(ctx, || upstream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_instance_rotates_per_incarnation() {
        let servers = vec![ActorId(1), ActorId(2)];
        let mut cfg = ApiClientConfig::new(servers);
        cfg.pick = PickPolicy::ByInstance;
        let c0 = ApiClient::new(cfg.clone(), 0);
        let c1 = ApiClient::new(cfg.clone(), 1);
        let c2 = ApiClient::new(cfg, 2);
        assert_eq!(c0.upstream(), ActorId(1));
        assert_eq!(c1.upstream(), ActorId(2));
        assert_eq!(c2.upstream(), ActorId(1));
    }

    #[test]
    #[should_panic(expected = "at least one apiserver")]
    fn empty_server_list_panics() {
        ApiClient::new(ApiClientConfig::new(vec![]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pin_panics() {
        let mut cfg = ApiClientConfig::new(vec![ActorId(1)]);
        cfg.pick = PickPolicy::Pinned(5);
        ApiClient::new(cfg, 0);
    }
}

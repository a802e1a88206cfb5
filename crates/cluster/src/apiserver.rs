//! The apiserver actor.
//!
//! Each apiserver keeps a *watch cache*: a full copy of the object space fed
//! by a store watch, from which it serves gets, lists and component watches
//! ("the Kubernetes developers decided to cache system state at each
//! apiserver and serve watch requests directly from the cached S′ instead of
//! pounding etcd" — §4.1, [1]). Writes pass through to the store with
//! optimistic concurrency. A bounded rolling window of recent events backs
//! watch resumption; resuming below the window fails with
//! `TooOldResourceVersion` ([7], §4.2.3).
//!
//! Consequences faithfully reproduced:
//! * an apiserver cut off from the store keeps serving its stale cache;
//! * different apiservers can be at different frontiers — the raw material
//!   of Kubernetes-59848 (Figure 2);
//! * a restarted apiserver re-lists from the store and starts a fresh
//!   window (old resume points may now be too old).

use std::collections::{BTreeMap, VecDeque};

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, TimerId};
use std::rc::Rc;

use ph_store::kv::KvEvent;
use ph_store::msgs::{Expect, ReadLevel};
use ph_store::{Completion, OpError, OpResult, Revision, StoreClient, StoreClientConfig, Value};

use crate::api::{
    ApiError, ApiOk, ApiRequest, ApiResponse, ApiWatchCancelReq, ApiWatchCancelled, ApiWatchCreate,
    ApiWatchEvent, ApiWatchProgress, ObjEvent, Verb, WatchError,
};
use crate::objects::Object;
use crate::slab::ShardedCache;

/// Apiserver tuning.
#[derive(Debug, Clone)]
pub struct ApiServerConfig {
    /// Store endpoints and affinity (which etcd member this apiserver talks
    /// to — give each apiserver a different affinity for realism).
    pub store: StoreClientConfig,
    /// Rolling watch-event window length, in events.
    pub window: usize,
    /// Service time per cache read served by this apiserver (models finite
    /// apiserver capacity; zero = infinite).
    pub read_service: Duration,
    /// Watch-cache shard count (key-hash partitioned). Purely an internal
    /// layout knob: every run is byte-identical across shard counts.
    pub shards: usize,
    /// Emit scale gauges (`apiserver.objects`, `apiserver.window_peak`).
    /// Off by default to keep existing scenario exports byte-identical.
    pub scale_telemetry: bool,
}

impl ApiServerConfig {
    /// Defaults for the given store config.
    pub fn new(store: StoreClientConfig) -> ApiServerConfig {
        ApiServerConfig {
            store,
            window: 100,
            read_service: Duration::ZERO,
            shards: 1,
            scale_telemetry: false,
        }
    }
}

/// Client maintenance tick.
const TICK: Duration = Duration::millis(20);
/// Idle-watcher progress interval.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::millis(200);

const TAG_TICK: u64 = 1;
const TAG_PROGRESS: u64 = 2;
/// Timer tags at or above this are deferred-reply slots.
const TAG_DEFER_BASE: u64 = 1 << 16;

#[derive(Debug)]
enum PendingApi {
    /// A fresh (quorum) get: answer with the single matching object.
    FreshGet { client: ActorId, req: u64 },
    /// A fresh (quorum) list.
    FreshList { client: ActorId, req: u64 },
    /// A write (create/update); `not_exists` flags creates for error mapping.
    Write {
        client: ActorId,
        req: u64,
        not_exists: bool,
    },
    /// A delete.
    Delete { client: ActorId, req: u64 },
    /// Step 1 of MarkDeleted: the read.
    MarkRead {
        client: ActorId,
        req: u64,
        key: String,
        attempts: u32,
    },
    /// Step 2 of MarkDeleted: the CAS write.
    MarkWrite {
        client: ActorId,
        req: u64,
        key: String,
        attempts: u32,
    },
    /// The bootstrap list that (re)builds the watch cache.
    BootstrapList,
}

/// The apiserver actor.
#[derive(Debug)]
pub struct ApiServer {
    cfg: ApiServerConfig,
    store: StoreClient,
    /// The watch cache: (bytes, resource version) per object, in
    /// key-hash shards. This is this apiserver's `S′`.
    cache: ShardedCache,
    /// The cache's frontier (last revision reflected).
    cache_rev: Revision,
    /// `true` once the bootstrap list has been applied.
    ready: bool,
    /// Rolling window of recent events (dense in revision), at most
    /// `cfg.window` long.
    window: VecDeque<Rc<ObjEvent>>,
    /// High-water mark of live cache objects (scale telemetry).
    objects_peak: usize,
    /// High-water mark of buffered window events (scale telemetry).
    window_peak: usize,
    /// Lowest resume point servable from the window (events ≤ floor are
    /// gone; a resume at exactly `floor` is fine).
    window_floor: Revision,
    /// Component watchers: (client, watch id) → (prefix, next stream seq).
    watchers: BTreeMap<(ActorId, u64), (String, u64)>,
    /// In-flight store requests.
    pending: BTreeMap<u64, PendingApi>,
    /// The store watch feeding the cache.
    feed_watch: Option<u64>,
    /// Capacity model: busy serving cache reads until this instant.
    busy_until: ph_sim::SimTime,
    /// When the cache frontier last advanced (staleness-at-read probe).
    cache_advanced_at: ph_sim::SimTime,
    /// Deferred cache-read replies, keyed by timer tag.
    deferred: BTreeMap<u64, (ActorId, ApiResponse)>,
    next_defer_tag: u64,
}

impl ApiServer {
    /// Creates an apiserver (spawn it into a world).
    pub fn new(cfg: ApiServerConfig) -> ApiServer {
        let store = StoreClient::new(cfg.store.clone());
        let cache = ShardedCache::new(cfg.shards);
        ApiServer {
            cfg,
            store,
            cache,
            cache_rev: Revision::ZERO,
            ready: false,
            window: VecDeque::new(),
            objects_peak: 0,
            window_peak: 0,
            window_floor: Revision::ZERO,
            watchers: BTreeMap::new(),
            pending: BTreeMap::new(),
            feed_watch: None,
            busy_until: ph_sim::SimTime::ZERO,
            cache_advanced_at: ph_sim::SimTime::ZERO,
            deferred: BTreeMap::new(),
            next_defer_tag: TAG_DEFER_BASE,
        }
    }

    /// The cache frontier (diagnostics / oracles).
    pub fn cache_revision(&self) -> Revision {
        self.cache_rev
    }

    /// `true` once serving (bootstrap list applied).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// The static access protocol an apiserver follows, for the
    /// partial-history hazard checker. The apiserver is pure plumbing: its
    /// watch cache is a view over the store, but everything it *does* is
    /// non-destructive — serve reads (cache or quorum passthrough) and
    /// forward writes, the latter fenced by the store's revision
    /// preconditions. Hazards live in the components acting on its views.
    pub fn access_summary(_cfg: &ApiServerConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath, ReadKind, ViewDecl};
        AccessSummary {
            component: "apiserver".into(),
            upstream_switch: false,
            views: vec![ViewDecl {
                resource: "store".into(),
                list: ReadKind::Cache,
                watch: true,
                relist_on_gap: true,
                periodic_resync: false,
                event_replay: false,
                congestible: false,
            }],
            actions: vec![
                ActionDecl {
                    name: "serve-cache-read".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "watch-cache",
                        vec![Gate::CachePresence("store".into())],
                    )],
                },
                ActionDecl {
                    name: "serve-quorum-read".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "passthrough",
                        vec![Gate::FreshConfirm("store".into())],
                    )],
                },
                ActionDecl {
                    name: "forward-write".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "revision-fenced",
                        vec![Gate::Fence("store".into())],
                    )],
                },
            ],
        }
    }

    /// Number of objects in the watch cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cached bytes+revision of one key (this apiserver's view of it).
    pub fn cached(&self, key: &str) -> Option<(&Value, Revision)> {
        self.cache.get(key)
    }

    /// Approximate bytes held by the watch cache (keys + values + a
    /// per-entry constant): the deterministic memory proxy `phtool scale`
    /// reports.
    pub fn cache_approx_bytes(&self) -> usize {
        self.cache.approx_bytes()
    }

    /// Sends a cache-read reply, charging the configured service time and
    /// recording how stale the cache was at the moment it was read.
    fn reply_cached(&mut self, to: ActorId, resp: ApiResponse, ctx: &mut Ctx) {
        ctx.counter_inc("apiserver.cache_reads");
        ctx.observe(
            "apiserver.read_staleness_ns",
            ctx.now().0.saturating_sub(self.cache_advanced_at.0),
        );
        ctx.gauge_set("apiserver.cache_revision", self.cache_rev.0 as i64);
        if self.cfg.read_service == Duration::ZERO {
            let bytes = resp.wire_bytes();
            ctx.send_sized(to, resp, bytes);
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

    fn begin_bootstrap(&mut self, ctx: &mut Ctx) {
        self.ready = false;
        self.feed_watch = None;
        let req = self.store.read("", ReadLevel::Linearizable, ctx);
        self.pending.insert(req, PendingApi::BootstrapList);
    }

    fn apply_feed_events(&mut self, events: Vec<Rc<KvEvent>>, revision: Revision, ctx: &mut Ctx) {
        let mut out: Vec<Rc<ObjEvent>> = Vec::with_capacity(events.len());
        for e in events {
            let oe = match e.as_ref() {
                KvEvent::Put { kv, .. } => {
                    self.cache
                        .insert(kv.key.as_str(), kv.value.clone(), kv.mod_revision);
                    ObjEvent {
                        key: kv.key.as_str().to_string(),
                        revision: kv.mod_revision,
                        value: Some(kv.value.clone()),
                    }
                }
                KvEvent::Delete { key, revision, .. } => {
                    self.cache.remove(key.as_str());
                    ObjEvent {
                        key: key.as_str().to_string(),
                        revision: *revision,
                        value: None,
                    }
                }
            };
            // One allocation per object event, shared by the window and
            // every watcher batch. The window evicts oldest-first; at
            // capacity 0 it drops each event as soon as it is pushed.
            let oe = Rc::new(oe);
            self.window.push_back(Rc::clone(&oe));
            while self.window.len() > self.cfg.window {
                let dropped = self.window.pop_front().expect("over capacity");
                self.window_floor = dropped.revision;
                ctx.counter_inc("apiserver.window_evicted");
            }
            out.push(oe);
        }
        if self.cfg.scale_telemetry {
            self.objects_peak = self.objects_peak.max(self.cache.len());
            self.window_peak = self.window_peak.max(self.window.len());
            ctx.gauge_set("apiserver.objects", self.objects_peak as i64);
            ctx.gauge_set("apiserver.window_peak", self.window_peak as i64);
        }
        if revision > self.cache_rev {
            self.cache_rev = revision;
            self.cache_advanced_at = ctx.now();
        }
        ctx.annotate("view.frontier", self.cache_rev.0.to_string());
        ctx.gauge_set("apiserver.cache_revision", self.cache_rev.0 as i64);
        // Fan out to component watchers.
        let cache_rev = self.cache_rev;
        for ((client, watch), (prefix, next_seq)) in self.watchers.iter_mut() {
            let matching: Vec<Rc<ObjEvent>> = out
                .iter()
                .filter(|e| e.key.starts_with(prefix.as_str()))
                .cloned()
                .collect();
            if !matching.is_empty() {
                let seq = *next_seq;
                *next_seq += 1;
                ctx.counter_add("apiserver.watch_delivered", matching.len() as u64);
                let batch = ApiWatchEvent {
                    watch: *watch,
                    stream_seq: seq,
                    events: matching,
                    revision: cache_rev,
                };
                let bytes = batch.wire_bytes();
                ctx.send_sized(*client, batch, bytes);
            }
        }
    }

    fn on_store_completion(&mut self, c: Completion, ctx: &mut Ctx) {
        match c {
            Completion::WatchEvents {
                watch,
                events,
                revision,
            } => {
                if Some(watch) == self.feed_watch {
                    self.apply_feed_events(events, revision, ctx);
                }
            }
            Completion::WatchCompacted { watch } => {
                if Some(watch) == self.feed_watch {
                    // Our resume point was compacted away: rebuild the cache.
                    self.begin_bootstrap(ctx);
                }
            }
            Completion::OpDone { req, result } => {
                let Some(p) = self.pending.remove(&req) else {
                    return;
                };
                self.on_op_done(p, result, ctx);
            }
        }
    }

    fn on_op_done(
        &mut self,
        pending: PendingApi,
        result: Result<OpResult, OpError>,
        ctx: &mut Ctx,
    ) {
        match pending {
            PendingApi::BootstrapList => {
                if let Ok(OpResult::Read { kvs, revision }) = result {
                    self.cache.clear();
                    for kv in kvs {
                        self.cache
                            .insert(kv.key.as_str(), kv.value, kv.mod_revision);
                    }
                    self.cache_rev = revision;
                    self.cache_advanced_at = ctx.now();
                    self.window.clear();
                    self.window_floor = revision;
                    self.ready = true;
                    self.feed_watch = Some(self.store.watch("", revision, ctx));
                    ctx.annotate("apiserver.ready", self.cache_rev.0.to_string());
                    ctx.annotate("view.frontier", self.cache_rev.0.to_string());
                } else {
                    // Store unavailable (e.g. election in progress): retry.
                    self.begin_bootstrap(ctx);
                }
            }
            PendingApi::FreshGet { client, req } => {
                let result = match result {
                    Ok(OpResult::Read { kvs, .. }) => Ok(ApiOk::Obj(
                        kvs.into_iter().next().map(|kv| (kv.value, kv.mod_revision)),
                    )),
                    _ => Err(ApiError::Unavailable),
                };
                let resp = ApiResponse { req, result };
                let bytes = resp.wire_bytes();
                ctx.send_sized(client, resp, bytes);
            }
            PendingApi::FreshList { client, req } => {
                let result = match result {
                    Ok(OpResult::Read { kvs, revision }) => Ok(ApiOk::List {
                        items: kvs
                            .into_iter()
                            .map(|kv| (kv.key.as_str().to_string(), kv.value, kv.mod_revision))
                            .collect(),
                        revision,
                    }),
                    _ => Err(ApiError::Unavailable),
                };
                let resp = ApiResponse { req, result };
                let bytes = resp.wire_bytes();
                ctx.send_sized(client, resp, bytes);
            }
            PendingApi::Write {
                client,
                req,
                not_exists,
            } => {
                let result = match result {
                    Ok(OpResult::Put { revision }) => Ok(ApiOk::Written(revision)),
                    Err(OpError::CasFailed { actual, .. }) => {
                        if not_exists {
                            Err(ApiError::AlreadyExists)
                        } else if actual.is_none() {
                            Err(ApiError::NotFound)
                        } else {
                            Err(ApiError::Conflict(actual))
                        }
                    }
                    _ => Err(ApiError::Unavailable),
                };
                ctx.send(client, ApiResponse { req, result });
            }
            PendingApi::Delete { client, req } => {
                let result = match result {
                    Ok(OpResult::Delete { existed, .. }) => Ok(ApiOk::Deleted { existed }),
                    Err(OpError::CasFailed { actual, .. }) => Err(ApiError::Conflict(actual)),
                    _ => Err(ApiError::Unavailable),
                };
                ctx.send(client, ApiResponse { req, result });
            }
            PendingApi::MarkRead {
                client,
                req,
                key,
                attempts,
            } => match result {
                Ok(OpResult::Read { kvs, .. }) => {
                    let Some(kv) = kvs.into_iter().next() else {
                        ctx.send(
                            client,
                            ApiResponse {
                                req,
                                result: Err(ApiError::NotFound),
                            },
                        );
                        return;
                    };
                    match Object::decode(&kv.value) {
                        Ok(mut obj) => {
                            if obj.meta.deletion_timestamp.is_some() {
                                // Already terminating: idempotent success.
                                ctx.send(
                                    client,
                                    ApiResponse {
                                        req,
                                        result: Ok(ApiOk::Written(kv.mod_revision)),
                                    },
                                );
                                return;
                            }
                            obj.meta.deletion_timestamp = Some(ctx.now().nanos());
                            let sreq = self.store.cas_put(
                                key.clone(),
                                obj.encode(),
                                Expect::ModRev(kv.mod_revision),
                                ctx,
                            );
                            self.pending.insert(
                                sreq,
                                PendingApi::MarkWrite {
                                    client,
                                    req,
                                    key,
                                    attempts,
                                },
                            );
                        }
                        Err(_) => ctx.send(
                            client,
                            ApiResponse {
                                req,
                                result: Err(ApiError::NotFound),
                            },
                        ),
                    }
                }
                _ => ctx.send(
                    client,
                    ApiResponse {
                        req,
                        result: Err(ApiError::Unavailable),
                    },
                ),
            },
            PendingApi::MarkWrite {
                client,
                req,
                key,
                attempts,
            } => match result {
                Ok(OpResult::Put { revision }) => {
                    ctx.send(
                        client,
                        ApiResponse {
                            req,
                            result: Ok(ApiOk::Written(revision)),
                        },
                    );
                }
                Err(OpError::CasFailed { .. }) if attempts < 3 => {
                    // Raced with another writer: re-read and retry.
                    let sreq = self.store.read(key.clone(), ReadLevel::Linearizable, ctx);
                    self.pending.insert(
                        sreq,
                        PendingApi::MarkRead {
                            client,
                            req,
                            key,
                            attempts: attempts + 1,
                        },
                    );
                }
                Err(OpError::CasFailed { actual, .. }) => {
                    ctx.send(
                        client,
                        ApiResponse {
                            req,
                            result: Err(ApiError::Conflict(actual)),
                        },
                    );
                }
                _ => ctx.send(
                    client,
                    ApiResponse {
                        req,
                        result: Err(ApiError::Unavailable),
                    },
                ),
            },
        }
    }

    fn on_api_request(&mut self, from: ActorId, r: ApiRequest, ctx: &mut Ctx) {
        match r.verb {
            Verb::Get { key, fresh } => {
                if fresh {
                    let sreq = self.store.read(key, ReadLevel::Linearizable, ctx);
                    self.pending.insert(
                        sreq,
                        PendingApi::FreshGet {
                            client: from,
                            req: r.req,
                        },
                    );
                } else if !self.ready {
                    ctx.send(
                        from,
                        ApiResponse {
                            req: r.req,
                            result: Err(ApiError::Unavailable),
                        },
                    );
                } else {
                    let obj = self.cache.get(&key).map(|(v, rv)| (v.clone(), rv));
                    self.reply_cached(
                        from,
                        ApiResponse {
                            req: r.req,
                            result: Ok(ApiOk::Obj(obj)),
                        },
                        ctx,
                    );
                }
            }
            Verb::List { prefix, fresh } => {
                if fresh {
                    let sreq = self.store.read(prefix, ReadLevel::Linearizable, ctx);
                    self.pending.insert(
                        sreq,
                        PendingApi::FreshList {
                            client: from,
                            req: r.req,
                        },
                    );
                } else if !self.ready {
                    ctx.send(
                        from,
                        ApiResponse {
                            req: r.req,
                            result: Err(ApiError::Unavailable),
                        },
                    );
                } else {
                    // Merged across shards back into lexical key order —
                    // identical to the single-map scan it replaced.
                    let items: Vec<(String, Value, Revision)> = self
                        .cache
                        .range_prefix(&prefix)
                        .map(|(k, v, rv)| (k.to_string(), v.clone(), rv))
                        .collect();
                    self.reply_cached(
                        from,
                        ApiResponse {
                            req: r.req,
                            result: Ok(ApiOk::List {
                                items,
                                revision: self.cache_rev,
                            }),
                        },
                        ctx,
                    );
                }
            }
            Verb::Create { key, value } => {
                let sreq = self.store.cas_put(key, value, Expect::NotExists, ctx);
                self.pending.insert(
                    sreq,
                    PendingApi::Write {
                        client: from,
                        req: r.req,
                        not_exists: true,
                    },
                );
            }
            Verb::Update {
                key,
                value,
                expect_rv,
            } => {
                let expect = match expect_rv {
                    Some(rv) => Expect::ModRev(rv),
                    None => Expect::Any,
                };
                let sreq = self.store.cas_put(key, value, expect, ctx);
                self.pending.insert(
                    sreq,
                    PendingApi::Write {
                        client: from,
                        req: r.req,
                        not_exists: false,
                    },
                );
            }
            Verb::Delete { key, expect_rv } => {
                let expect = match expect_rv {
                    Some(rv) => Expect::ModRev(rv),
                    None => Expect::Any,
                };
                let sreq = self.store.delete(key, expect, ctx);
                self.pending.insert(
                    sreq,
                    PendingApi::Delete {
                        client: from,
                        req: r.req,
                    },
                );
            }
            Verb::MarkDeleted { key } => {
                let sreq = self.store.read(key.clone(), ReadLevel::Linearizable, ctx);
                self.pending.insert(
                    sreq,
                    PendingApi::MarkRead {
                        client: from,
                        req: r.req,
                        key,
                        attempts: 0,
                    },
                );
            }
        }
    }

    fn on_watch_create(&mut self, from: ActorId, w: ApiWatchCreate, ctx: &mut Ctx) {
        if !self.ready {
            // Not serving yet: refuse explicitly so the client re-lists
            // instead of waiting on a stream that was never registered.
            ctx.send(
                from,
                ApiWatchCancelled {
                    watch: w.watch,
                    reason: WatchError::NotReady,
                },
            );
            return;
        }
        // `after` is a genuine resume point; revision 0 means "from the
        // dawn of history". If that history predates the window, refuse —
        // never silently skip to "now" (that would manufacture a gap).
        let after = w.after;
        if after < self.window_floor {
            ctx.counter_inc("apiserver.watch_too_old");
            ctx.send(
                from,
                ApiWatchCancelled {
                    watch: w.watch,
                    reason: WatchError::TooOldResourceVersion {
                        oldest: Revision(self.window_floor.0 + 1),
                    },
                },
            );
            return;
        }
        let backlog: Vec<Rc<ObjEvent>> = self
            .window
            .iter()
            .filter(|e| e.revision > after && e.key.starts_with(&w.prefix))
            .cloned()
            .collect();
        let first_seq = if backlog.is_empty() { 0 } else { 1 };
        self.watchers
            .insert((from, w.watch), (w.prefix.clone(), first_seq));
        if !backlog.is_empty() {
            ctx.send(
                from,
                ApiWatchEvent {
                    watch: w.watch,
                    stream_seq: 0,
                    events: backlog,
                    revision: self.cache_rev,
                },
            );
        }
    }
}

impl Actor for ApiServer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(TICK, TAG_TICK);
        ctx.set_timer(PROGRESS_INTERVAL, TAG_PROGRESS);
        self.begin_bootstrap(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // Everything is volatile: cache, window, watchers, in-flight work.
        self.store = StoreClient::new(self.cfg.store.clone());
        self.cache.clear();
        self.cache_rev = Revision::ZERO;
        self.ready = false;
        self.window.clear();
        self.objects_peak = 0;
        self.window_peak = 0;
        self.window_floor = Revision::ZERO;
        self.watchers.clear();
        self.pending.clear();
        self.feed_watch = None;
        self.busy_until = ph_sim::SimTime::ZERO;
        self.cache_advanced_at = ph_sim::SimTime::ZERO;
        self.deferred.clear();
        self.next_defer_tag = TAG_DEFER_BASE;
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if self.store.on_message(from, &msg, ctx, &mut completions) {
            for c in completions {
                self.on_store_completion(c, ctx);
            }
            return;
        }
        if let Some(r) = msg.downcast_ref::<ApiRequest>() {
            self.on_api_request(from, r.clone(), ctx);
            return;
        }
        if let Some(w) = msg.downcast_ref::<ApiWatchCreate>() {
            self.on_watch_create(from, w.clone(), ctx);
            return;
        }
        if let Some(c) = msg.downcast_ref::<ApiWatchCancelReq>() {
            self.watchers.remove(&(from, c.watch));
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag >= TAG_DEFER_BASE {
            if let Some((to, resp)) = self.deferred.remove(&tag) {
                let bytes = resp.wire_bytes();
                ctx.send_sized(to, resp, bytes);
            }
            return;
        }
        match tag {
            TAG_TICK => {
                self.store.tick(ctx);
                ctx.set_timer(TICK, TAG_TICK);
            }
            TAG_PROGRESS => {
                let cache_rev = self.cache_rev;
                for ((client, watch), (_, next_seq)) in self.watchers.iter_mut() {
                    let seq = *next_seq;
                    *next_seq += 1;
                    ctx.send(
                        *client,
                        ApiWatchProgress {
                            watch: *watch,
                            stream_seq: seq,
                            revision: cache_rev,
                        },
                    );
                }
                ctx.set_timer(PROGRESS_INTERVAL, TAG_PROGRESS);
            }
            _ => {}
        }
    }
}

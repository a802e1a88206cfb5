//! The client-side cache: list+watch reflector and informer.
//!
//! This is the analog of Kubernetes' `client-go/tools/cache` — the "common
//! shared library [that] contains the caches for (H′, S′)" (§6.2, [10]).
//! An [`Informer`] lists a key space through an [`ApiClient`], then watches
//! from the list's revision, maintaining a local object store `S′` and a
//! frontier revision, and surfaces typed [`InformerEvent`]s to its owner.
//! When the watch resume point falls out of the apiserver's window it
//! re-lists — from whichever upstream the client currently prefers.

use std::collections::BTreeMap;

use ph_lint::summary::{ReadKind, ViewDecl};
use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, SimTime, TimerId};
use ph_store::Revision;

use crate::api::{ApiError, ApiOk};
use crate::apiclient::{ApiClient, ApiClientConfig, ApiCompletion};
use crate::objects::Object;

/// Informer tuning.
#[derive(Debug, Clone)]
pub struct InformerConfig {
    /// Key-space prefix to mirror (e.g. `"pods/"`).
    pub prefix: String,
    /// `true` lists with quorum reads (the Kubernetes-59848 fix); `false`
    /// lists from the apiserver cache (the default, and the bug).
    pub fresh_lists: bool,
    /// Periodically force a re-list even while the watch is healthy
    /// (heals interior gaps at the cost of load). `None` disables.
    pub resync_interval: Option<Duration>,
    /// `true` when the feed from the apiserver to this informer rides a
    /// finite-bandwidth link, so offered load alone (queueing delay, tail
    /// drops) can age the view without any injected fault. Purely a static
    /// declaration for the hazard checker — the link itself is configured
    /// on the [`ph_sim::net::Network`].
    pub congestible: bool,
}

impl InformerConfig {
    /// Cache-backed informer with no periodic resync (Kubernetes defaults).
    pub fn new(prefix: impl Into<String>) -> InformerConfig {
        InformerConfig {
            prefix: prefix.into(),
            fresh_lists: false,
            resync_interval: None,
            congestible: false,
        }
    }

    /// The static [`ViewDecl`] this informer realizes, for the hazard
    /// checker: informers always watch and always relist on a watch gap,
    /// but a relist jumps to a *snapshot* — skipped intermediate events are
    /// never replayed (`event_replay: false`), which is exactly the §4.2.3
    /// observability gap the volume-controller scenario exercises.
    pub fn view_decl(&self) -> ViewDecl {
        ViewDecl {
            resource: self.prefix.trim_end_matches('/').to_string(),
            list: if self.fresh_lists {
                ReadKind::Quorum
            } else {
                ReadKind::Cache
            },
            watch: true,
            relist_on_gap: true,
            periodic_resync: self.resync_interval.is_some(),
            event_replay: false,
            congestible: self.congestible,
        }
    }
}

/// A typed view-change notification delivered to the informer's owner.
#[derive(Debug, Clone)]
pub enum InformerEvent {
    /// A (re)list completed; the local store was replaced wholesale.
    Synced {
        /// Snapshot revision (the new frontier).
        revision: Revision,
    },
    /// An object appeared.
    Added(Object),
    /// An object changed.
    Updated {
        /// Previous local copy, if the informer had one.
        old: Option<Object>,
        /// New copy.
        new: Object,
    },
    /// An object vanished.
    Deleted {
        /// Its key.
        key: String,
        /// The last local copy, if any.
        last: Option<Object>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NeedList,
    Listing { req: u64 },
    Watching { watch: u64 },
}

/// The informer state machine. Owners drive it with
/// [`Informer::poll`] (from their tick) and [`Informer::on_completion`]
/// (for every [`ApiCompletion`] from the shared [`ApiClient`]).
#[derive(Debug)]
pub struct Informer {
    cfg: InformerConfig,
    store: BTreeMap<String, Object>,
    revision: Revision,
    phase: Phase,
    synced_once: bool,
    last_resync: SimTime,
}

impl Informer {
    /// Creates an idle informer; call [`Informer::poll`] to start it.
    pub fn new(cfg: InformerConfig) -> Informer {
        Informer {
            cfg,
            store: BTreeMap::new(),
            revision: Revision::ZERO,
            phase: Phase::NeedList,
            synced_once: false,
            last_resync: SimTime::ZERO,
        }
    }

    /// The watched prefix.
    pub fn prefix(&self) -> &str {
        &self.cfg.prefix
    }

    /// The local store `S′`, keyed by full object key.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.store.values()
    }

    /// Number of locally known objects.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the local store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Local copy of one object by full key.
    pub fn get(&self, key: &str) -> Option<&Object> {
        self.store.get(key)
    }

    /// The view frontier `H′` has reached.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// `true` after the first successful list.
    pub fn is_synced(&self) -> bool {
        self.synced_once
    }

    /// Drives the state machine: starts the initial/recovery list, and
    /// triggers periodic resyncs if configured. Call from the owner's tick.
    pub fn poll(&mut self, client: &mut ApiClient, ctx: &mut Ctx) {
        match self.phase {
            Phase::NeedList => {
                ctx.counter_inc("informer.relist");
                let req = client.list(self.cfg.prefix.clone(), self.cfg.fresh_lists, ctx);
                self.phase = Phase::Listing { req };
            }
            Phase::Watching { watch } => {
                if let Some(every) = self.cfg.resync_interval {
                    if ctx.now().since(self.last_resync) >= every {
                        client.cancel_watch(watch, ctx);
                        self.phase = Phase::NeedList;
                        self.last_resync = ctx.now();
                        ctx.counter_inc("informer.relist");
                        let req = client.list(self.cfg.prefix.clone(), self.cfg.fresh_lists, ctx);
                        self.phase = Phase::Listing { req };
                    }
                }
            }
            Phase::Listing { .. } => {}
        }
    }

    /// Offers a completion from the shared client; returns `true` if it
    /// belonged to this informer (events, if any, appended to `out`).
    pub fn on_completion(
        &mut self,
        c: &ApiCompletion,
        client: &mut ApiClient,
        ctx: &mut Ctx,
        out: &mut Vec<InformerEvent>,
    ) -> bool {
        match c {
            ApiCompletion::Done { req, result } => {
                let Phase::Listing { req: want } = self.phase else {
                    return false;
                };
                if *req != want {
                    return false;
                }
                match result {
                    Ok(ApiOk::List { items, revision }) => {
                        self.store.clear();
                        for (key, value, rv) in items {
                            if let Ok(mut obj) = Object::decode(value) {
                                obj.meta.resource_version = *rv;
                                self.store.insert(key.clone(), obj);
                            }
                        }
                        self.revision = *revision;
                        self.synced_once = true;
                        self.last_resync = ctx.now();
                        ctx.annotate("view.frontier", revision.0.to_string());
                        ctx.counter_inc("informer.synced");
                        ctx.gauge_set("informer.frontier", revision.0 as i64);
                        let watch = client.watch(self.cfg.prefix.clone(), *revision, ctx);
                        self.phase = Phase::Watching { watch };
                        out.push(InformerEvent::Synced {
                            revision: *revision,
                        });
                    }
                    Ok(_) | Err(ApiError::Unavailable) | Err(_) => {
                        // Retry from the top on the next poll.
                        self.phase = Phase::NeedList;
                    }
                }
                true
            }
            ApiCompletion::WatchEvents {
                watch,
                events,
                revision,
            } => {
                let Phase::Watching { watch: want } = self.phase else {
                    return false;
                };
                if *watch != want {
                    return false;
                }
                for e in events {
                    if !e.key.starts_with(&self.cfg.prefix) {
                        continue;
                    }
                    ctx.counter_inc("informer.watch_events");
                    match &e.value {
                        Some(bytes) => {
                            if let Ok(mut obj) = Object::decode(bytes) {
                                obj.meta.resource_version = e.revision;
                                let old = self.store.insert(e.key.clone(), obj.clone());
                                match old {
                                    None => out.push(InformerEvent::Added(obj)),
                                    Some(o) => out.push(InformerEvent::Updated {
                                        old: Some(o),
                                        new: obj,
                                    }),
                                }
                            }
                        }
                        None => {
                            let last = self.store.remove(&e.key);
                            out.push(InformerEvent::Deleted {
                                key: e.key.clone(),
                                last,
                            });
                        }
                    }
                }
                if *revision > self.revision {
                    self.revision = *revision;
                }
                ctx.annotate("view.frontier", self.revision.0.to_string());
                ctx.gauge_set("informer.frontier", self.revision.0 as i64);
                true
            }
            ApiCompletion::WatchTooOld { watch } => {
                let Phase::Watching { watch: want } = self.phase else {
                    return false;
                };
                if *watch != want {
                    return false;
                }
                // Gap: events between our resume point and the window are
                // unrecoverable; rebuild from a fresh list (§4.2.3).
                ctx.annotate("informer.too_old", self.revision.0.to_string());
                ctx.counter_inc("informer.too_old");
                self.phase = Phase::NeedList;
                true
            }
        }
    }
}

/// A minimal actor owning an [`ApiClient`] and one [`Informer`], used by
/// tests and experiments that just need "a component watching the
/// cluster": it ticks every 30 ms and logs every event as a line (`synced`,
/// `add NAME`, `upd NAME`, `del KEY`).
#[derive(Debug)]
pub struct BasicInformer {
    /// The embedded client.
    pub client: ApiClient,
    /// The informer it feeds.
    pub informer: Informer,
    /// Every event so far, one line each.
    pub events: Vec<String>,
    /// Lists that synced the informer, the first one included.
    pub relists: u32,
}

impl BasicInformer {
    /// Mirrors `prefix` through the given apiservers.
    pub fn new(apiservers: Vec<ActorId>, prefix: &str) -> BasicInformer {
        BasicInformer {
            client: ApiClient::new(ApiClientConfig::new(apiservers), 0),
            informer: Informer::new(InformerConfig::new(prefix)),
            events: Vec::new(),
            relists: 0,
        }
    }
}

impl Actor for BasicInformer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::millis(30), 0);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events = Vec::new();
        for c in &completions {
            self.informer
                .on_completion(c, &mut self.client, ctx, &mut events);
        }
        for e in events {
            let line = match e {
                InformerEvent::Synced { .. } => {
                    self.relists += 1;
                    "synced".into()
                }
                InformerEvent::Added(o) => format!("add {}", o.meta.name),
                InformerEvent::Updated { new, .. } => format!("upd {}", new.meta.name),
                InformerEvent::Deleted { key, .. } => format!("del {key}"),
            };
            self.events.push(line);
        }
    }

    fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
        self.client.tick(ctx);
        self.informer.poll(&mut self.client, ctx);
        ctx.set_timer(Duration::millis(30), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informer_starts_unsynced_and_empty() {
        let inf = Informer::new(InformerConfig::new("pods/"));
        assert!(!inf.is_synced());
        assert!(inf.is_empty());
        assert_eq!(inf.len(), 0);
        assert_eq!(inf.revision(), Revision::ZERO);
        assert_eq!(inf.prefix(), "pods/");
        assert!(inf.get("pods/p1").is_none());
    }

    #[test]
    fn config_defaults_match_kubernetes() {
        let cfg = InformerConfig::new("nodes/");
        assert!(!cfg.fresh_lists, "default lists come from the cache");
        assert!(
            cfg.resync_interval.is_none(),
            "no periodic relist by default"
        );
    }
}

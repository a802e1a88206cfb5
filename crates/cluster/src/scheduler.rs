//! The scheduler: binds pending pods to nodes.
//!
//! The scheduler keeps pod and node informers and, every sync, binds each
//! unscheduled pod to the least-loaded node *in its cached view*. This is
//! the component of Kubernetes-56261 (§4.2.3): if the cache missed a node
//! deletion (a dropped notification), the scheduler keeps placing pods on
//! the ghost node forever — the pods never run.
//!
//! * **buggy** (`fixed = false`): purely event-driven cache, no recovery —
//!   the upstream defect ("scheduler should delete a node from its cache if
//!   it gets 'node not found'").
//! * **fixed** (`fixed = true`): the node informer re-lists periodically
//!   (healing interior gaps), and pods found bound to nonexistent nodes are
//!   rebound.

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, TimerId};

use crate::apiclient::{ApiClient, ApiClientConfig};
use crate::informer::{Informer, InformerConfig, InformerEvent};
use crate::objects::{Body, Object};

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// How to reach the apiservers.
    pub api: ApiClientConfig,
    /// Scheduling interval.
    pub sync_interval: Duration,
    /// `true` enables the recovery behaviours (periodic node re-list +
    /// rebinding off ghost nodes).
    pub fixed: bool,
    /// `true` when the apiserver→scheduler feed rides a finite-bandwidth
    /// link, so offered load alone can age this scheduler's views. Purely a
    /// static declaration (threaded into [`InformerConfig::congestible`]);
    /// the link itself is configured on the world's network.
    pub congestible_feed: bool,
}

/// Both informers' re-list period in the fixed variant.
const RESYNC_INTERVAL: Duration = Duration::millis(500);

const TAG_TICK: u64 = 1;

/// The scheduler actor.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    client: ApiClient,
    pods: Informer,
    nodes: Informer,
    /// In-flight binding decisions not yet reflected by the informer
    /// (kube-scheduler's "assumed pods"): pod name → (node, assumed-at).
    /// Counted into the load map so one burst of pods still spreads
    /// correctly; expires so a lost/conflicted bind write is retried.
    assumed: std::collections::BTreeMap<String, (String, ph_sim::SimTime)>,
}

impl Scheduler {
    /// Creates a scheduler (spawn it into a world).
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        let client = ApiClient::new(cfg.api.clone(), 0);
        // The fixed variant re-lists BOTH informers periodically (real
        // schedulers run periodic resyncs); the buggy variant trusts its
        // event streams forever.
        let pods = Informer::new(InformerConfig {
            prefix: "pods/".into(),
            fresh_lists: false,
            resync_interval: cfg.fixed.then_some(RESYNC_INTERVAL),
            congestible: cfg.congestible_feed,
        });
        let nodes = Informer::new(InformerConfig {
            prefix: "nodes/".into(),
            fresh_lists: cfg.fixed,
            resync_interval: cfg.fixed.then_some(RESYNC_INTERVAL),
            congestible: cfg.congestible_feed,
        });
        Scheduler {
            cfg,
            client,
            pods,
            nodes,
            assumed: std::collections::BTreeMap::new(),
        }
    }

    /// The static access protocol a scheduler built from `cfg` follows,
    /// for the partial-history hazard checker.
    ///
    /// Binding is modeled destructive: a bind is a commitment — a pod
    /// bound to a node that no longer exists is stranded (the
    /// Kubernetes-56261 outcome). The buggy variant gates binds on a
    /// cache-listed, never-resynced node view; the fix quorum-lists nodes
    /// and resyncs both informers, discharging the staleness hazard.
    pub fn access_summary(cfg: &SchedulerConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath};
        let pods = InformerConfig {
            prefix: "pods/".into(),
            fresh_lists: false,
            resync_interval: cfg.fixed.then_some(RESYNC_INTERVAL),
            congestible: cfg.congestible_feed,
        };
        let nodes = InformerConfig {
            prefix: "nodes/".into(),
            fresh_lists: cfg.fixed,
            resync_interval: cfg.fixed.then_some(RESYNC_INTERVAL),
            congestible: cfg.congestible_feed,
        };
        let mut actions = vec![ActionDecl {
            name: "bind-pod".into(),
            destructive: true,
            paths: vec![GatePath::new(
                "unbound-pod-to-cached-node",
                vec![
                    Gate::CachePresence("pods".into()),
                    Gate::CachePresence("nodes".into()),
                ],
            )],
        }];
        if cfg.fixed {
            actions.push(ActionDecl {
                name: "rebind-pod".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "bound-node-vanished",
                    vec![
                        Gate::CachePresence("pods".into()),
                        Gate::CacheAbsence("nodes".into()),
                    ],
                )],
            });
        }
        AccessSummary {
            component: "scheduler".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![pods.view_decl(), nodes.view_decl()],
            actions,
        }
    }

    /// The scheduler's cached node names (its `S′` of the node space).
    pub fn cached_nodes(&self) -> Vec<String> {
        self.nodes.objects().map(|o| o.meta.name.clone()).collect()
    }

    /// The most-behind frontier across this scheduler's informers (for lag
    /// sampling: the stalest view bounds what it can know).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.pods.revision().min(self.nodes.revision())
    }

    fn sync(&mut self, ctx: &mut Ctx) {
        if !self.pods.is_synced() || !self.nodes.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", "scheduler");
        self.sync_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn sync_inner(&mut self, ctx: &mut Ctx) {
        // Forget assumptions the informer has confirmed (pod bound),
        // obsoleted (pod gone), or that have expired (the bind write was
        // lost or lost a conflict — retry).
        let now = ctx.now();
        let expiry = self.cfg.sync_interval.times(20);
        self.assumed.retain(|pod, (_, at)| {
            now.since(*at) < expiry
                && self
                    .pods
                    .get(&format!("pods/{pod}"))
                    .is_some_and(|o| o.pod_node().is_none())
        });
        let node_names: Vec<String> = self
            .nodes
            .objects()
            .filter(|o| matches!(o.body, Body::Node { ready: true }))
            .map(|o| o.meta.name.clone())
            .collect();
        if node_names.is_empty() {
            return;
        }
        // Load = bound pods per node, from the cached view; updated as this
        // pass makes binding decisions so one sync spreads pods evenly.
        let mut load: std::collections::BTreeMap<String, usize> =
            node_names.iter().map(|n| (n.clone(), 0)).collect();
        for obj in self.pods.objects() {
            let node = obj
                .pod_node()
                .map(str::to_string)
                .or_else(|| self.assumed.get(&obj.meta.name).map(|(n, _)| n.clone()));
            if let Some(n) = node {
                if let Some(c) = load.get_mut(&n) {
                    *c += 1;
                }
            }
        }
        let pick = |load: &std::collections::BTreeMap<String, usize>| -> Option<String> {
            load.iter()
                .min_by_key(|(name, c)| (**c, (*name).clone()))
                .map(|(name, _)| name.clone())
        };

        let mut binds: Vec<(Object, String)> = Vec::new();
        for obj in self.pods.objects() {
            if obj.is_terminating() {
                continue;
            }
            match obj.pod_node() {
                None if self.assumed.contains_key(&obj.meta.name) => {
                    // Already decided; waiting for the write to surface.
                }
                None => {
                    if let Some(target) = pick(&load) {
                        *load.get_mut(&target).expect("picked from map") += 1;
                        binds.push((obj.clone(), target));
                    }
                }
                Some(n) if self.cfg.fixed && self.nodes.get(&format!("nodes/{n}")).is_none() => {
                    // Fixed variant: the pod is bound to a node whose
                    // object no longer EXISTS — rebind it. (A merely
                    // not-ready node keeps its pods: rebinding off an
                    // unreachable-but-alive node would duplicate execution,
                    // the node-fencing hazard.)
                    if let Some(target) = pick(&load) {
                        *load.get_mut(&target).expect("picked from map") += 1;
                        ctx.annotate(
                            "scheduler.rebind",
                            format!("{}:{}->{}", obj.meta.name, n, target),
                        );
                        ctx.counter_inc("scheduler.rebinds");
                        binds.push((obj.clone(), target));
                    }
                }
                Some(_) => {}
            }
        }
        for (obj, target) in binds {
            let mut bound = obj.clone();
            if let Body::Pod { node, .. } = &mut bound.body {
                *node = Some(target.clone());
            }
            ctx.annotate("scheduler.bind", format!("{}->{}", obj.meta.name, target));
            ctx.counter_inc("scheduler.binds");
            self.assumed
                .insert(obj.meta.name.clone(), (target, ctx.now()));
            self.client.update(&bound, ctx);
        }
    }
}

impl Actor for Scheduler {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        let fresh = Scheduler::new(self.cfg.clone());
        *self = fresh;
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            if !self
                .pods
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                self.nodes
                    .on_completion(c, &mut self.client, ctx, &mut events);
            }
        }
        if !events.is_empty() {
            self.sync(ctx);
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag == TAG_TICK {
            self.client.tick(ctx);
            self.pods.poll(&mut self.client, ctx);
            self.nodes.poll(&mut self.client, ctx);
            self.sync(ctx);
            ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let s = Scheduler::new(SchedulerConfig {
            api: ApiClientConfig::new(vec![ActorId(1)]),
            sync_interval: Duration::millis(50),
            fixed: true,
            congestible_feed: false,
        });
        assert!(s.cached_nodes().is_empty());
    }
}

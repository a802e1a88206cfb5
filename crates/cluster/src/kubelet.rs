//! The kubelet: runs pods bound to its node.
//!
//! A kubelet mirrors the pod key space through an [`Informer`] fed by *one*
//! apiserver, and reconciles: start pods bound to this node, stop pods that
//! were unbound, migrated or deleted, and finalize gracefully-deleted pods.
//! Containers (`running`) survive kubelet crashes — only the kubelet's
//! *view* is volatile — so a restarted kubelet re-decides everything from
//! whatever its (possibly different, possibly stale) apiserver tells it.
//!
//! This is the component at the center of Kubernetes-59848 (§2, Figure 2):
//!
//! * **buggy** (default, `fixed = false`): lists are served from the
//!   apiserver's watch cache. A kubelet that restarts against a stale
//!   apiserver re-runs pods it already stopped — two nodes run the same
//!   pod, violating the unique-execution guarantee.
//! * **fixed** (`fixed = true`): lists are quorum reads (the fix adopted
//!   upstream: verify against etcd before acting).
//!
//! Start/stop decisions are advertised via `kubelet.pod_start` /
//! `kubelet.pod_stop` annotations, which the unique-execution oracle
//! consumes.

use std::collections::BTreeSet;

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, TimerId};

use crate::apiclient::{ApiClient, ApiClientConfig};
use crate::informer::{Informer, InformerConfig, InformerEvent};
use crate::objects::{Body, Object, PodPhase};

/// Kubelet tuning.
#[derive(Debug, Clone)]
pub struct KubeletConfig {
    /// The node this kubelet manages.
    pub node: String,
    /// How to reach the apiservers (use [`crate::PickPolicy::ByInstance`]
    /// to get the restart-switches-apiserver behaviour of the 59848 setup).
    pub api: ApiClientConfig,
    /// Reconcile interval.
    pub sync_interval: Duration,
    /// `true` = quorum-read lists (the upstream fix).
    pub fixed: bool,
    /// Renew a node heartbeat lease (`leases/{node}`) this often
    /// (`None` disables heartbeats; the node-lifecycle controller needs
    /// them on).
    pub lease_interval: Option<Duration>,
}

/// Grace period between observing a pod's termination mark and finalizing
/// (deleting) the pod object — Kubernetes' `terminationGracePeriodSeconds`.
const TERMINATION_GRACE: Duration = Duration::millis(200);

const TAG_TICK: u64 = 1;
const TAG_LEASE: u64 = 2;

/// The kubelet actor.
#[derive(Debug)]
pub struct Kubelet {
    cfg: KubeletConfig,
    /// Incarnation counter (drives apiserver selection under `ByInstance`).
    instance: u64,
    client: ApiClient,
    informer: Informer,
    /// Pods whose containers are currently running on this node. Survives
    /// kubelet restarts (the container runtime keeps them alive).
    running: BTreeSet<String>,
    /// Pods whose Running status this incarnation already reported.
    status_written: BTreeSet<String>,
    /// When each terminating pod was first observed terminating (volatile;
    /// a restarted kubelet re-waits the grace period).
    terminating_since: std::collections::BTreeMap<String, ph_sim::SimTime>,
}

impl Kubelet {
    /// Creates a kubelet (spawn it into a world).
    pub fn new(cfg: KubeletConfig) -> Kubelet {
        let client = ApiClient::new(cfg.api.clone(), 0);
        let informer = Informer::new(InformerConfig {
            prefix: "pods/".into(),
            fresh_lists: cfg.fixed,
            resync_interval: None,
            congestible: false,
        });
        Kubelet {
            cfg,
            instance: 0,
            client,
            informer,
            running: BTreeSet::new(),
            status_written: BTreeSet::new(),
            terminating_since: std::collections::BTreeMap::new(),
        }
    }

    /// The static access protocol a kubelet built from `cfg` follows, for
    /// the partial-history hazard checker.
    ///
    /// Stopping a container is gated on the pod's *absence* from the view
    /// (bound elsewhere / deleted); finalizing on its terminating mark,
    /// which is persistent object state visible in any snapshot — so both
    /// are snapshot gates, unfenced (the kubelet fires unconditional
    /// deletes). The buggy kubelet lists from cache and, under
    /// `ByInstance`, relists from a different apiserver after a restart —
    /// the §4.2.2 recipe the Kubernetes-59848 scenario replays.
    pub fn access_summary(cfg: &KubeletConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath};
        let pods = InformerConfig {
            prefix: "pods/".into(),
            fresh_lists: cfg.fixed,
            resync_interval: None,
            congestible: false,
        };
        AccessSummary {
            component: format!("kubelet-{}", cfg.node),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![pods.view_decl()],
            actions: vec![
                ActionDecl {
                    name: "start-pod".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "bound-here",
                        vec![Gate::CachePresence("pods".into())],
                    )],
                },
                ActionDecl {
                    name: "stop-pod".into(),
                    destructive: true,
                    paths: vec![GatePath::new(
                        "unbound-or-deleted",
                        vec![Gate::CacheAbsence("pods".into())],
                    )],
                },
                ActionDecl {
                    name: "finalize-pod".into(),
                    destructive: true,
                    paths: vec![GatePath::new(
                        "terminating-marked",
                        vec![Gate::CachePresence("pods".into())],
                    )],
                },
            ],
        }
    }

    /// Pods currently running on this node.
    pub fn running_pods(&self) -> &BTreeSet<String> {
        &self.running
    }

    /// The apiserver this kubelet currently syncs with.
    pub fn upstream(&self) -> ActorId {
        self.client.upstream()
    }

    /// The node name.
    pub fn node(&self) -> &str {
        &self.cfg.node
    }

    /// The frontier `H′` of this kubelet's pod view (for lag sampling).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.informer.revision()
    }

    fn sync(&mut self, ctx: &mut Ctx) {
        if !self.informer.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", self.cfg.node.clone());
        self.sync_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn sync_inner(&mut self, ctx: &mut Ctx) {
        // Desired = pods bound to me, live, not finished.
        let mut desired: BTreeSet<String> = BTreeSet::new();
        let mut to_finalize: Vec<Object> = Vec::new();
        for obj in self.informer.objects() {
            let Body::Pod { node, phase, .. } = &obj.body else {
                continue;
            };
            if node.as_deref() != Some(self.cfg.node.as_str()) {
                continue;
            }
            if obj.is_terminating() {
                to_finalize.push(obj.clone());
                continue;
            }
            if matches!(phase, PodPhase::Succeeded | PodPhase::Failed) {
                continue;
            }
            desired.insert(obj.meta.name.clone());
        }

        // Start missing pods.
        let to_start: Vec<String> = desired.difference(&self.running).cloned().collect();
        for name in to_start {
            self.running.insert(name.clone());
            ctx.annotate("kubelet.pod_start", name.clone());
            ctx.counter_inc("kubelet.pod_starts");
            self.report_running(&name, ctx);
        }
        // Stop pods that should no longer run here.
        let to_stop: Vec<String> = self.running.difference(&desired).cloned().collect();
        for name in to_stop {
            self.running.remove(&name);
            self.status_written.remove(&name);
            ctx.annotate("kubelet.pod_stop", name);
            ctx.counter_inc("kubelet.pod_stops");
        }
        // Finalize gracefully-deleted pods once their containers stopped and
        // the grace period has elapsed.
        let now = ctx.now();
        let seen: BTreeSet<String> = to_finalize.iter().map(|o| o.meta.name.clone()).collect();
        self.terminating_since.retain(|k, _| seen.contains(k));
        for obj in to_finalize {
            if self.running.contains(&obj.meta.name) {
                continue;
            }
            let since = *self
                .terminating_since
                .entry(obj.meta.name.clone())
                .or_insert(now);
            if now.since(since) >= TERMINATION_GRACE {
                self.client
                    .delete(obj.key().as_str().to_string(), None, ctx);
            }
        }
    }

    fn report_running(&mut self, name: &str, ctx: &mut Ctx) {
        if self.status_written.contains(name) {
            return;
        }
        let key = format!("pods/{name}");
        if let Some(obj) = self.informer.get(&key) {
            let mut updated = obj.clone();
            if let Body::Pod { phase, .. } = &mut updated.body {
                *phase = PodPhase::Running;
            }
            self.client.update(&updated, ctx);
            self.status_written.insert(name.to_string());
        }
    }
}

impl Actor for Kubelet {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
        if let Some(every) = self.cfg.lease_interval {
            ctx.set_timer(every, TAG_LEASE);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // The view is volatile; the containers are not.
        self.instance += 1;
        self.client = ApiClient::new(self.cfg.api.clone(), self.instance);
        self.informer = Informer::new(InformerConfig {
            prefix: "pods/".into(),
            fresh_lists: self.cfg.fixed,
            resync_interval: None,
            congestible: false,
        });
        self.status_written.clear();
        self.terminating_since.clear();
        ctx.annotate("kubelet.restart", self.cfg.node.clone());
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            self.informer
                .on_completion(c, &mut self.client, ctx, &mut events);
        }
        if !events.is_empty() {
            self.sync(ctx);
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        match tag {
            TAG_TICK => {
                self.client.tick(ctx);
                self.informer.poll(&mut self.client, ctx);
                self.sync(ctx);
                ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
            }
            TAG_LEASE => {
                if let Some(every) = self.cfg.lease_interval {
                    // Heartbeat: last-writer-wins renewal of the node lease.
                    let lease = Object::lease(self.cfg.node.clone(), ctx.now().nanos());
                    self.client.update(&lease, ctx);
                    ctx.set_timer(every, TAG_LEASE);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apiclient::PickPolicy;

    #[test]
    fn construction_and_accessors() {
        let mut api = ApiClientConfig::new(vec![ActorId(1), ActorId(2)]);
        api.pick = PickPolicy::ByInstance;
        let k = Kubelet::new(KubeletConfig {
            node: "n1".into(),
            api,
            sync_interval: Duration::millis(50),
            fixed: false,
            lease_interval: None,
        });
        assert_eq!(k.node(), "n1");
        assert!(k.running_pods().is_empty());
        assert_eq!(k.upstream(), ActorId(1), "instance 0 → first apiserver");
    }
}

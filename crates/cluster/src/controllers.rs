//! Controllers: the volume controller and the replica-set controller.
//!
//! [`VolumeController`] is the paper's observability-gap case study ([17],
//! §4.2.3): it "only learns of the state of the system via sparse reads of
//! its local view S′" and releases the storage of deleted pods. Its three
//! modes encode the real defect and its (partially) fixed descendants:
//!
//! * [`VcMode::MarkOnly`] — releases a PVC only when it *observes* the
//!   owning pod carrying a deletion timestamp. If the pod is marked (e1)
//!   and deleted (e2) between two reads, the controller never sees e1 and
//!   the PVC leaks — the bug of [17] and cassandra-operator-398.
//! * [`VcMode::CacheOrphan`] — additionally releases PVCs whose owner pod
//!   is missing from the *cached* view. Heals the leak, but a stale cache
//!   now causes it to delete the storage of a live pod —
//!   cassandra-operator-402.
//! * [`VcMode::FreshOrphan`] — confirms the owner's absence with a quorum
//!   read before releasing. Correct on both counts.
//!
//! [`ReplicaSetController`] maintains pod counts for replica sets and is the
//! workload engine: it exercises create → schedule → run → graceful-delete
//! → finalize → release across the whole stack.
//!
//! [`NodeLifecycleController`] judges node health by heartbeat-lease age
//! and — in its aggressive variant — force-evicts pods from unreachable
//! nodes. Force eviction trusts the controller's *view*: a partitioned
//! (not dead) kubelet keeps its containers running, so the replacement
//! pods run concurrently with the originals — the node-fencing safety
//! hazard, same family as the paper's reference \[5\] ("Disallow
//! ApiServer HA for Pod Safety").

use std::collections::BTreeSet;

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, TimerId};

use crate::api::ApiOk;
use crate::apiclient::{ApiClient, ApiClientConfig, ApiCompletion};
use crate::informer::{Informer, InformerConfig, InformerEvent};
use crate::objects::{Body, Object};

const TAG_TICK: u64 = 1;

/// How the volume controller decides a PVC is releasable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcMode {
    /// Only on an observed deletion timestamp (buggy: leaks on gaps).
    MarkOnly,
    /// Also when the owner is missing from the cache (buggy: deletes live
    /// pods' storage on staleness).
    CacheOrphan,
    /// Orphan check confirmed by a quorum read (fixed).
    FreshOrphan,
}

/// Volume controller tuning.
#[derive(Debug, Clone)]
pub struct VolumeControllerConfig {
    /// How to reach the apiservers.
    pub api: ApiClientConfig,
    /// Sparse-read interval (the controller only looks at its view this
    /// often — the paper's "two sparse reads of S′").
    pub read_interval: Duration,
    /// Release policy.
    pub mode: VcMode,
}

/// The volume controller actor.
#[derive(Debug)]
pub struct VolumeController {
    cfg: VolumeControllerConfig,
    client: ApiClient,
    pods: Informer,
    pvcs: Informer,
    /// PVC keys already released (avoid duplicate deletes).
    released: BTreeSet<String>,
    /// Fresh-confirmation requests in flight: req → (pvc key, owner key).
    confirming: std::collections::BTreeMap<u64, (String, String)>,
}

impl VolumeController {
    /// Creates a volume controller (spawn it into a world).
    pub fn new(cfg: VolumeControllerConfig) -> VolumeController {
        let client = ApiClient::new(cfg.api.clone(), 0);
        VolumeController {
            cfg,
            client,
            pods: Informer::new(InformerConfig::new("pods/")),
            pvcs: Informer::new(InformerConfig::new("pvcs/")),
            released: BTreeSet::new(),
            confirming: std::collections::BTreeMap::new(),
        }
    }

    /// The static access protocol a volume controller built from `cfg`
    /// follows, for the partial-history hazard checker.
    ///
    /// The `terminating-owner` path requires *witnessing* the owner pod's
    /// transient terminating mark ([`ph_lint::summary::Gate::ObservedEvent`]
    /// — the mark exists only between graceful delete and finalization, and
    /// this controller samples its view sparsely), so in `MarkOnly` mode
    /// the release can be missed forever: the §4.2.3 gap of the
    /// volume-controller scenario. Orphan paths gate on the owner's
    /// absence from the cached pod view; only `FreshOrphan` re-confirms
    /// with a quorum read. Target-existence checks (the PVC itself) are
    /// omitted: deleting an already-gone object is an idempotent no-op.
    pub fn access_summary(cfg: &VolumeControllerConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath};
        let mut paths = vec![GatePath::new(
            "terminating-owner",
            vec![Gate::ObservedEvent("pods".into())],
        )];
        match cfg.mode {
            VcMode::MarkOnly => {}
            VcMode::CacheOrphan => paths.push(GatePath::new(
                "orphan-in-cache",
                vec![Gate::CacheAbsence("pods".into())],
            )),
            VcMode::FreshOrphan => paths.push(GatePath::new(
                "orphan-confirmed",
                vec![
                    Gate::CacheAbsence("pods".into()),
                    Gate::FreshConfirm("pods".into()),
                ],
            )),
        }
        AccessSummary {
            component: "volume-controller".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![
                InformerConfig::new("pods/").view_decl(),
                InformerConfig::new("pvcs/").view_decl(),
            ],
            actions: vec![ActionDecl {
                name: "release-pvc".into(),
                destructive: true,
                paths,
            }],
        }
    }

    /// PVC keys this controller has released.
    pub fn released(&self) -> &BTreeSet<String> {
        &self.released
    }

    /// The most-behind frontier across this controller's informers (for
    /// lag sampling).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.pods.revision().min(self.pvcs.revision())
    }

    fn release(&mut self, pvc_key: String, why: &str, ctx: &mut Ctx) {
        if !self.released.insert(pvc_key.clone()) {
            return;
        }
        ctx.annotate("vc.release_pvc", format!("{pvc_key} ({why})"));
        ctx.counter_inc("vc.pvc_releases");
        self.client.delete(pvc_key, None, ctx);
    }

    /// One sparse read of `S′` (the controller's entire decision procedure).
    fn sparse_read(&mut self, ctx: &mut Ctx) {
        if !self.pods.is_synced() || !self.pvcs.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", "volume-controller");
        self.sparse_read_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn sparse_read_inner(&mut self, ctx: &mut Ctx) {
        // Path 1: pods observed carrying a deletion timestamp.
        let mut to_release: Vec<(String, &'static str)> = Vec::new();
        for pod in self.pods.objects() {
            if pod.is_terminating() {
                if let Some(pvc) = pod.pod_pvc() {
                    to_release.push((format!("pvcs/{pvc}"), "terminating-owner"));
                }
            }
        }
        // Path 2 (CacheOrphan / FreshOrphan): PVCs whose owner is gone from
        // the cached pod view.
        let mut to_confirm: Vec<(String, String)> = Vec::new();
        if self.cfg.mode != VcMode::MarkOnly {
            for pvc in self.pvcs.objects() {
                let key = pvc.key().as_str().to_string();
                if self.released.contains(&key) {
                    continue;
                }
                let Some(owner) = &pvc.meta.owner else {
                    continue;
                };
                let owner_key = format!("pods/{owner}");
                if self.pods.get(&owner_key).is_none() {
                    match self.cfg.mode {
                        VcMode::CacheOrphan => to_release.push((key, "orphan-in-cache")),
                        VcMode::FreshOrphan => to_confirm.push((key, owner_key)),
                        VcMode::MarkOnly => unreachable!(),
                    }
                }
            }
        }
        for (key, why) in to_release {
            self.release(key, why, ctx);
        }
        for (pvc_key, owner_key) in to_confirm {
            if self.confirming.values().any(|(p, _)| p == &pvc_key) {
                continue;
            }
            let req = self.client.get(owner_key.clone(), true, ctx);
            self.confirming.insert(req, (pvc_key, owner_key));
        }
    }
}

impl Actor for VolumeController {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.read_interval, TAG_TICK);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // Everything here is volatile (view caches and dedup sets rebuild).
        *self = VolumeController::new(self.cfg.clone());
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            if self
                .pods
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            if self
                .pvcs
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            // Fresh-confirmation results.
            if let ApiCompletion::Done { req, result } = c {
                if let Some((pvc_key, _owner)) = self.confirming.remove(req) {
                    if let Ok(ApiOk::Obj(None)) = result {
                        self.release(pvc_key, "orphan-confirmed", ctx);
                    }
                }
            }
        }
        // NOTE: deliberately *no* sparse_read here — the controller only
        // consumes its view on the timer (that is the whole point of the
        // observability-gap pattern).
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag == TAG_TICK {
            self.client.tick(ctx);
            self.pods.poll(&mut self.client, ctx);
            self.pvcs.poll(&mut self.client, ctx);
            self.sparse_read(ctx);
            ctx.set_timer(self.cfg.read_interval, TAG_TICK);
        }
    }
}

/// Replica-set controller tuning.
#[derive(Debug, Clone)]
pub struct ReplicaSetControllerConfig {
    /// How to reach the apiservers.
    pub api: ApiClientConfig,
    /// Reconcile interval.
    pub sync_interval: Duration,
    /// Attach a PVC to every pod the controller creates (feeds the volume
    /// controller workloads).
    pub with_pvcs: bool,
}

/// Maintains `replicas` pods named `{rs}-{i}` per replica set.
#[derive(Debug)]
pub struct ReplicaSetController {
    cfg: ReplicaSetControllerConfig,
    client: ApiClient,
    sets: Informer,
    pods: Informer,
    /// Creates already issued this generation (avoid duplicate creates
    /// racing their own watch events).
    creating: BTreeSet<String>,
}

impl ReplicaSetController {
    /// Creates a replica-set controller (spawn it into a world).
    pub fn new(cfg: ReplicaSetControllerConfig) -> ReplicaSetController {
        let client = ApiClient::new(cfg.api.clone(), 0);
        ReplicaSetController {
            cfg,
            client,
            sets: Informer::new(InformerConfig::new("replicasets/")),
            pods: Informer::new(InformerConfig::new("pods/")),
            creating: BTreeSet::new(),
        }
    }

    /// The static access protocol a replica-set controller built from
    /// `cfg` follows, for the partial-history hazard checker.
    ///
    /// Creates are conflict-guarded and idempotent (non-destructive);
    /// scale-down gracefully deletes the highest-index pod *the cached
    /// view shows*, unfenced — an honest staleness hazard (a stale view
    /// can pick a pod that was already replaced), reported but not
    /// exercised by any scenario.
    pub fn access_summary(cfg: &ReplicaSetControllerConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath};
        AccessSummary {
            component: "rs-controller".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![
                InformerConfig::new("replicasets/").view_decl(),
                InformerConfig::new("pods/").view_decl(),
            ],
            actions: vec![
                ActionDecl {
                    name: "create-pod".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "missing-replica",
                        vec![Gate::CacheAbsence("pods".into())],
                    )],
                },
                ActionDecl {
                    name: "scale-down-pod".into(),
                    destructive: true,
                    paths: vec![GatePath::new(
                        "excess-replica",
                        vec![Gate::CachePresence("pods".into())],
                    )],
                },
            ],
        }
    }

    /// The most-behind frontier across this controller's informers (for
    /// lag sampling).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.sets.revision().min(self.pods.revision())
    }

    fn sync(&mut self, ctx: &mut Ctx) {
        if !self.sets.is_synced() || !self.pods.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", "replicaset-controller");
        self.sync_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn sync_inner(&mut self, ctx: &mut Ctx) {
        let sets: Vec<(String, u32)> = self
            .sets
            .objects()
            .filter_map(|o| match &o.body {
                Body::ReplicaSet { replicas } => Some((o.meta.name.clone(), *replicas)),
                _ => None,
            })
            .collect();
        for (rs, want) in sets {
            let mine: Vec<&Object> = self
                .pods
                .objects()
                .filter(|o| o.meta.owner.as_deref() == Some(rs.as_str()) && !o.is_terminating())
                .collect();
            let have = mine.len() as u32;
            // Creates already in flight for this set count toward the goal,
            // or a lagging informer would trigger runaway duplicate creates.
            let pending = self
                .creating
                .iter()
                .filter(|n| n.starts_with(&format!("{rs}-")))
                .count() as u32;
            if have + pending < want {
                // Create the lowest free indices.
                let used: BTreeSet<String> = mine.iter().map(|o| o.meta.name.clone()).collect();
                let mut created = 0;
                let mut i = 0u32;
                while created < want - have - pending {
                    let name = format!("{rs}-{i}");
                    i += 1;
                    if used.contains(&name) || self.creating.contains(&name) {
                        continue;
                    }
                    let pvc_name = self.cfg.with_pvcs.then(|| format!("{name}-pvc"));
                    if let Some(pvc) = &pvc_name {
                        self.client
                            .create(&Object::pvc(pvc.clone(), name.clone()), ctx);
                    }
                    let mut pod = Object::pod(name.clone(), None, pvc_name);
                    pod.meta.owner = Some(rs.clone());
                    ctx.annotate("rsc.create", name.clone());
                    ctx.counter_inc("rsc.pod_creates");
                    self.client.create(&pod, ctx);
                    self.creating.insert(name);
                    created += 1;
                }
            } else if have > want {
                // Gracefully delete the highest indices.
                let mut names: Vec<String> = mine.iter().map(|o| o.meta.name.clone()).collect();
                names.sort();
                for name in names.into_iter().rev().take((have - want) as usize) {
                    ctx.annotate("rsc.scale_down", name.clone());
                    ctx.counter_inc("rsc.scale_downs");
                    self.client.mark_deleted(format!("pods/{name}"), ctx);
                }
            }
        }
        // Drop create guards once the pod is visible.
        let visible: BTreeSet<String> = self.pods.objects().map(|o| o.meta.name.clone()).collect();
        self.creating.retain(|n| !visible.contains(n));
    }
}

impl Actor for ReplicaSetController {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        *self = ReplicaSetController::new(self.cfg.clone());
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
                .sets
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                self.pods
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
            self.sets.poll(&mut self.client, ctx);
            self.pods.poll(&mut self.client, ctx);
            self.sync(ctx);
            ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_modes_are_distinct() {
        assert_ne!(VcMode::MarkOnly, VcMode::CacheOrphan);
        assert_ne!(VcMode::CacheOrphan, VcMode::FreshOrphan);
    }

    #[test]
    fn construction() {
        let vc = VolumeController::new(VolumeControllerConfig {
            api: ApiClientConfig::new(vec![ActorId(0)]),
            read_interval: Duration::millis(100),
            mode: VcMode::MarkOnly,
        });
        assert!(vc.released().is_empty());
        let _rsc = ReplicaSetController::new(ReplicaSetControllerConfig {
            api: ApiClientConfig::new(vec![ActorId(0)]),
            sync_interval: Duration::millis(100),
            with_pvcs: true,
        });
    }
}

/// Node-lifecycle controller tuning.
#[derive(Debug, Clone)]
pub struct NodeLifecycleConfig {
    /// How to reach the apiservers.
    pub api: ApiClientConfig,
    /// Reconcile interval.
    pub sync_interval: Duration,
    /// `true`: force-delete pods bound to unreachable nodes so they get
    /// rescheduled (fast failover, unsafe under partitions — the hazard).
    /// `false`: only mark the node not-ready (safe; availability suffers).
    pub force_evict: bool,
}

/// A node whose lease is older than this is considered unreachable.
pub(crate) const LEASE_GRACE: Duration = Duration::millis(800);

/// Marks nodes (not-)ready from heartbeat-lease age and optionally evicts
/// pods from unreachable nodes.
#[derive(Debug)]
pub struct NodeLifecycleController {
    cfg: NodeLifecycleConfig,
    client: ApiClient,
    nodes: Informer,
    leases: Informer,
    pods: Informer,
}

impl NodeLifecycleController {
    /// Creates a node-lifecycle controller (spawn it into a world).
    pub fn new(cfg: NodeLifecycleConfig) -> NodeLifecycleController {
        let client = ApiClient::new(cfg.api.clone(), 0);
        NodeLifecycleController {
            cfg,
            client,
            nodes: Informer::new(InformerConfig::new("nodes/")),
            leases: Informer::new(InformerConfig::new("leases/")),
            pods: Informer::new(InformerConfig::new("pods/")),
        }
    }

    /// The static access protocol a node-lifecycle controller built from
    /// `cfg` follows, for the partial-history hazard checker.
    ///
    /// Readiness flips are reversible status writes (non-destructive).
    /// Force eviction, when enabled, deletes pods because the controller
    /// *stopped hearing* the node's leases — `ObservedSilence` with no
    /// fence: silence cannot distinguish a dead kubelet from a partitioned
    /// one, the §4.2.3 observability gap the node-fencing scenario
    /// exercises.
    pub fn access_summary(cfg: &NodeLifecycleConfig) -> ph_lint::summary::AccessSummary {
        use ph_lint::summary::{AccessSummary, ActionDecl, Gate, GatePath};
        let mut actions = vec![ActionDecl {
            name: "mark-node-ready".into(),
            destructive: false,
            paths: vec![GatePath::new(
                "lease-age",
                vec![Gate::ObservedSilence("leases".into())],
            )],
        }];
        if cfg.force_evict {
            actions.push(ActionDecl {
                name: "force-evict-pod".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "lease-silence",
                    vec![
                        Gate::ObservedSilence("leases".into()),
                        Gate::CachePresence("pods".into()),
                    ],
                )],
            });
        }
        AccessSummary {
            component: "node-lifecycle".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: vec![
                InformerConfig::new("nodes/").view_decl(),
                InformerConfig::new("leases/").view_decl(),
                InformerConfig::new("pods/").view_decl(),
            ],
            actions,
        }
    }

    /// The most-behind frontier across this controller's informers (for
    /// lag sampling).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.nodes
            .revision()
            .min(self.leases.revision())
            .min(self.pods.revision())
    }

    fn sync(&mut self, ctx: &mut Ctx) {
        if !self.nodes.is_synced() || !self.leases.is_synced() || !self.pods.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", "node-lifecycle-controller");
        self.sync_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn sync_inner(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let mut flips: Vec<Object> = Vec::new();
        let mut evict: Vec<String> = Vec::new();
        for node in self.nodes.objects() {
            let Body::Node { ready } = &node.body else {
                continue;
            };
            let fresh = self
                .leases
                .get(&format!("leases/{}", node.meta.name))
                .and_then(|l| match &l.body {
                    Body::Lease { renewed_at_ns, .. } => Some(*renewed_at_ns),
                    _ => None,
                })
                .is_some_and(|at| now.since(ph_sim::SimTime(at)) <= LEASE_GRACE);
            if fresh != *ready {
                let mut flipped = node.clone();
                if let Body::Node { ready } = &mut flipped.body {
                    *ready = fresh;
                }
                ctx.annotate(
                    if fresh { "nlc.ready" } else { "nlc.not_ready" },
                    node.meta.name.clone(),
                );
                flips.push(flipped);
            }
            if !fresh && self.cfg.force_evict {
                for pod in self.pods.objects() {
                    if pod.pod_node() == Some(node.meta.name.as_str()) && !pod.is_terminating() {
                        evict.push(pod.meta.name.clone());
                    }
                }
            }
        }
        for node in flips {
            self.client.update(&node, ctx);
        }
        for pod in evict {
            // Force eviction: delete the pod object outright so its
            // controller replaces it — trusting the view that the node is
            // gone. The kubelet may merely be partitioned.
            ctx.annotate("nlc.force_evict", pod.clone());
            ctx.counter_inc("nlc.force_evictions");
            self.client.delete(format!("pods/{pod}"), None, ctx);
        }
    }
}

impl Actor for NodeLifecycleController {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        *self = NodeLifecycleController::new(self.cfg.clone());
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            if self
                .nodes
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            if self
                .leases
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            self.pods
                .on_completion(c, &mut self.client, ctx, &mut events);
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag == TAG_TICK {
            self.client.tick(ctx);
            self.nodes.poll(&mut self.client, ctx);
            self.leases.poll(&mut self.client, ctx);
            self.pods.poll(&mut self.client, ctx);
            self.sync(ctx);
            ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
        }
    }
}

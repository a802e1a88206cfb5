//! Cluster assembly: spawn a whole Figure-1 stack in one call.
//!
//! [`spawn_cluster`] builds, in order: the replicated store, the
//! apiservers (each pinned to a different store member, like production
//! deployments), the kubelets (one per node name), and the optional
//! control-plane components. It also spawns an *admin* client used to seed
//! and mutate objects from scenarios, and exposes the ground-truth state
//! `S` for oracles.

use std::collections::BTreeMap;

use ph_sim::{ActorId, Duration, SimTime, World};
use ph_store::client::BasicClient;
use ph_store::msgs::Expect;
use ph_store::node::StoreNodeConfig;
use ph_store::{
    spawn_store_cluster, OpResult, Revision, StoreClient, StoreClientConfig, StoreCluster,
    StoreNode,
};

use crate::apiclient::{ApiClientConfig, PickPolicy};
use crate::apiserver::{ApiServer, ApiServerConfig};
use crate::controllers::{
    NodeLifecycleConfig, NodeLifecycleController, ReplicaSetController, ReplicaSetControllerConfig,
    VcMode, VolumeController, VolumeControllerConfig,
};
use crate::kubelet::{Kubelet, KubeletConfig};
use crate::objects::Object;
use crate::operator::{CassandraOperator, OperatorConfig, OperatorFlags};
use crate::scheduler::{Scheduler, SchedulerConfig};

/// Store cluster size (1–9 in the systems the paper surveys).
const STORE_NODES: usize = 3;

/// How often a kubelet renews its node lease when a node-lifecycle
/// controller watches the leases.
const LEASE_INTERVAL: Duration = Duration::millis(200);

// A live node stays ready only because it renews its lease before the
// controller's grace runs out: the kubelet must renew sooner.
const _: () = assert!(LEASE_INTERVAL.as_nanos() < crate::controllers::LEASE_GRACE.as_nanos());

/// What to build.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of apiservers.
    pub apiservers: usize,
    /// Kubelet node names (a kubelet and a `Node` object are created for
    /// each — seed the `Node` objects with [`ClusterHandle::create_object`]).
    pub nodes: Vec<String>,
    /// Stagger kubelets' *initial* apiservers across the fleet (kubelet i
    /// starts on apiserver i). Disable to have every kubelet start on
    /// apiserver 1 and only diverge on restarts — the Kubernetes-59848
    /// topology. Kubelets pick their apiserver
    /// [`PickPolicy::ByInstance`].
    pub kubelet_stagger: bool,
    /// Kubelet variant (`true` = quorum-read lists, the 59848 fix).
    pub kubelet_fixed: bool,
    /// Spawn a scheduler? (`Some(fixed)`)
    pub scheduler: Option<bool>,
    /// Declare the scheduler's apiserver feed congestible (finite
    /// bandwidth). Static declaration only — scenarios that set this must
    /// also throttle the corresponding network link so the dynamic world
    /// matches what the hazard checker is told.
    pub scheduler_congestible: bool,
    /// Spawn a volume controller with this release policy?
    pub volume_controller: Option<VcMode>,
    /// Spawn a replica-set controller? (`Some(with_pvcs)`)
    pub rs_controller: Option<bool>,
    /// Spawn a Cassandra operator with these defect switches?
    pub operator: Option<OperatorFlags>,
    /// Spawn a node-lifecycle controller? (`Some(force_evict)`; also turns
    /// on kubelet heartbeat leases.)
    pub node_lifecycle: Option<bool>,
    /// Store node tuning.
    pub store: StoreNodeConfig,
    /// Component reconcile interval.
    pub sync_interval: Duration,
    /// Apiserver watch-cache shard count (internal layout only; runs are
    /// byte-identical across shard counts).
    pub api_shards: usize,
    /// Apiserver watch-event window length, in events.
    pub api_window: usize,
    /// Emit apiserver scale gauges (objects / peak window entries). Off by
    /// default so existing scenario exports stay byte-identical.
    pub api_scale_telemetry: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            apiservers: 2,
            nodes: vec!["node-1".into(), "node-2".into()],
            kubelet_stagger: true,
            kubelet_fixed: false,
            scheduler: None,
            scheduler_congestible: false,
            volume_controller: None,
            rs_controller: None,
            operator: None,
            node_lifecycle: None,
            store: StoreNodeConfig::default(),
            sync_interval: Duration::millis(50),
            api_shards: 1,
            api_window: 100,
            api_scale_telemetry: false,
        }
    }
}

/// Handle to a spawned cluster.
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    /// The store cluster.
    pub store: StoreCluster,
    /// Apiserver actor ids, in index order.
    pub apiservers: Vec<ActorId>,
    /// Kubelet actor ids, in `nodes` order.
    pub kubelets: Vec<ActorId>,
    /// The scheduler, if configured.
    pub scheduler: Option<ActorId>,
    /// The volume controller, if configured.
    pub volume_controller: Option<ActorId>,
    /// The replica-set controller, if configured.
    pub rs_controller: Option<ActorId>,
    /// The Cassandra operator, if configured.
    pub operator: Option<ActorId>,
    /// The node-lifecycle controller, if configured.
    pub node_lifecycle: Option<ActorId>,
    /// The admin client (store-level) used by scenarios to seed/mutate.
    pub admin: ActorId,
}

/// Reads one view's frontier revision `|H′|` out of the world (a crashed
/// view's frontier is wherever it stopped); `None` if the actor is not the
/// kind of view the reader is for.
pub type Frontier = fn(&World, ActorId) -> Option<Revision>;

/// The control-plane component configurations a [`ClusterConfig`] implies,
/// resolved against a concrete apiserver list.
///
/// Extracted from [`spawn_cluster`] so the *exact same* configurations
/// feed both the dynamic world and the static hazard checker
/// ([`access_summaries`]) — the static pass analyzes what actually runs,
/// not a parallel description that could drift.
#[derive(Debug, Clone)]
pub struct ComponentConfigs {
    /// One per entry of [`ClusterConfig::nodes`], in order.
    pub kubelets: Vec<KubeletConfig>,
    /// The scheduler, if configured.
    pub scheduler: Option<SchedulerConfig>,
    /// The volume controller, if configured.
    pub volume_controller: Option<VolumeControllerConfig>,
    /// The replica-set controller, if configured.
    pub rs_controller: Option<ReplicaSetControllerConfig>,
    /// The Cassandra operator, if configured.
    pub operator: Option<OperatorConfig>,
    /// The node-lifecycle controller, if configured.
    pub node_lifecycle: Option<NodeLifecycleConfig>,
}

/// Builds the component configurations `cfg` implies, given the apiserver
/// actor ids (placeholders suffice for static analysis).
pub fn component_configs(cfg: &ClusterConfig, apiservers: &[ActorId]) -> ComponentConfigs {
    let api_cfg = |pick: PickPolicy| {
        let mut c = ApiClientConfig::new(apiservers.to_vec());
        c.pick = pick;
        c
    };

    let kubelets = cfg
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let mut api = api_cfg(PickPolicy::ByInstance);
            if cfg.kubelet_stagger {
                // Stagger initial upstreams: kubelet i starts on apiserver i.
                api.apiservers.rotate_left(i % apiservers.len().max(1));
            }
            KubeletConfig {
                node: node.clone(),
                api,
                sync_interval: cfg.sync_interval,
                fixed: cfg.kubelet_fixed,
                lease_interval: cfg.node_lifecycle.map(|_| LEASE_INTERVAL),
            }
        })
        .collect();

    ComponentConfigs {
        kubelets,
        scheduler: cfg.scheduler.map(|fixed| SchedulerConfig {
            api: api_cfg(PickPolicy::Pinned(0)),
            sync_interval: cfg.sync_interval,
            fixed,
            congestible_feed: cfg.scheduler_congestible,
        }),
        volume_controller: cfg.volume_controller.map(|mode| VolumeControllerConfig {
            api: api_cfg(PickPolicy::Pinned(apiservers.len().saturating_sub(1))),
            read_interval: cfg.sync_interval.times(2),
            mode,
        }),
        rs_controller: cfg
            .rs_controller
            .map(|with_pvcs| ReplicaSetControllerConfig {
                api: api_cfg(PickPolicy::Pinned(0)),
                sync_interval: cfg.sync_interval,
                with_pvcs,
            }),
        operator: cfg.operator.map(|flags| OperatorConfig {
            api: api_cfg(PickPolicy::ByInstance),
            sync_interval: cfg.sync_interval,
            flags,
        }),
        node_lifecycle: cfg.node_lifecycle.map(|force_evict| NodeLifecycleConfig {
            api: api_cfg(PickPolicy::Pinned(0)),
            sync_interval: cfg.sync_interval.times(2),
            force_evict,
        }),
    }
}

/// The [`ph_lint::summary::AccessSummary`] of every component `cfg` would
/// spawn — the input to the static partial-history hazard checker. Uses
/// placeholder apiserver ids; only their *count* matters statically (it
/// decides whether an upstream switch is possible).
pub fn access_summaries(cfg: &ClusterConfig) -> Vec<ph_lint::summary::AccessSummary> {
    let apiservers: Vec<ActorId> = (0..cfg.apiservers as u32).map(ActorId).collect();
    let cc = component_configs(cfg, &apiservers);
    let mut out = Vec::new();
    for kc in &cc.kubelets {
        out.push(Kubelet::access_summary(kc));
    }
    if let Some(sc) = &cc.scheduler {
        out.push(Scheduler::access_summary(sc));
    }
    if let Some(vc) = &cc.volume_controller {
        out.push(VolumeController::access_summary(vc));
    }
    if let Some(rc) = &cc.rs_controller {
        out.push(ReplicaSetController::access_summary(rc));
    }
    if let Some(oc) = &cc.operator {
        out.push(CassandraOperator::access_summary(oc));
    }
    if let Some(nc) = &cc.node_lifecycle {
        out.push(NodeLifecycleController::access_summary(nc));
    }
    out
}

/// The complete declared-summary set for the IR ↔ source conformance
/// pass: every component the tree implements, in its fully-guarded
/// (fixed) variant so all declared gates are present, plus the
/// apiserver's own summary — which [`access_summaries`] omits because the
/// apiserver performs no destructive actions, but the scanner still finds
/// its informer-like store view and must see a matching declaration.
pub fn declared_access_summaries() -> Vec<ph_lint::summary::AccessSummary> {
    let cfg = ClusterConfig {
        kubelet_fixed: true,
        scheduler: Some(true),
        volume_controller: Some(VcMode::FreshOrphan),
        rs_controller: Some(true),
        operator: Some(OperatorFlags::fixed()),
        node_lifecycle: Some(true),
        ..ClusterConfig::default()
    };
    let mut out = access_summaries(&cfg);
    out.push(ApiServer::access_summary(&ApiServerConfig::new(
        StoreClientConfig::new(Vec::new()),
    )));
    out
}

/// Spawns the full stack described by `cfg`.
pub fn spawn_cluster(world: &mut World, cfg: &ClusterConfig) -> ClusterHandle {
    let store = spawn_store_cluster(world, STORE_NODES, cfg.store);

    let mut apiservers = Vec::with_capacity(cfg.apiservers);
    for i in 0..cfg.apiservers {
        let mut scc = StoreClientConfig::new(store.nodes.clone());
        scc.affinity = Some(i % STORE_NODES);
        let mut api_cfg = ApiServerConfig::new(scc);
        api_cfg.window = cfg.api_window;
        api_cfg.shards = cfg.api_shards;
        api_cfg.scale_telemetry = cfg.api_scale_telemetry;
        let id = world.spawn(&format!("apiserver-{}", i + 1), ApiServer::new(api_cfg));
        apiservers.push(id);
    }

    let cc = component_configs(cfg, &apiservers);

    let mut kubelets = Vec::with_capacity(cc.kubelets.len());
    for kc in cc.kubelets {
        let name = format!("kubelet-{}", kc.node);
        kubelets.push(world.spawn(&name, Kubelet::new(kc)));
    }

    let scheduler = cc
        .scheduler
        .map(|sc| world.spawn("scheduler", Scheduler::new(sc)));

    let volume_controller = cc
        .volume_controller
        .map(|vc| world.spawn("volume-controller", VolumeController::new(vc)));

    let rs_controller = cc
        .rs_controller
        .map(|rc| world.spawn("rs-controller", ReplicaSetController::new(rc)));

    let operator = cc
        .operator
        .map(|oc| world.spawn("cassandra-operator", CassandraOperator::new(oc)));

    let node_lifecycle = cc
        .node_lifecycle
        .map(|nc| world.spawn("node-lifecycle", NodeLifecycleController::new(nc)));

    let admin = world.spawn(
        "admin",
        BasicClient::new(
            StoreClient::new(StoreClientConfig::new(store.nodes.clone())),
            Duration::millis(20),
        ),
    );

    ClusterHandle {
        store,
        apiservers,
        kubelets,
        scheduler,
        volume_controller,
        rs_controller,
        operator,
        node_lifecycle,
        admin,
    }
}

impl ClusterHandle {
    /// Every partial view of `H` the cluster maintains — each one an
    /// order-preserving sub-history with a frontier revision — as
    /// `(actor, frontier reader)`, in the fixed dense order lag sampling
    /// and strategy targets index by: apiservers, kubelets, then the
    /// configured singletons (scheduler, volume controller, replica-set
    /// controller, operator, node-lifecycle controller).
    pub fn views(&self) -> impl Iterator<Item = (ActorId, Frontier)> + '_ {
        let singletons: [(Option<ActorId>, Frontier); 5] = [
            (self.scheduler, |w, id| {
                w.actor_ref::<Scheduler>(id).map(Scheduler::view_revision)
            }),
            (self.volume_controller, |w, id| {
                w.actor_ref::<VolumeController>(id)
                    .map(VolumeController::view_revision)
            }),
            (self.rs_controller, |w, id| {
                w.actor_ref::<ReplicaSetController>(id)
                    .map(ReplicaSetController::view_revision)
            }),
            (self.operator, |w, id| {
                w.actor_ref::<CassandraOperator>(id)
                    .map(CassandraOperator::view_revision)
            }),
            (self.node_lifecycle, |w, id| {
                w.actor_ref::<NodeLifecycleController>(id)
                    .map(NodeLifecycleController::view_revision)
            }),
        ];
        let apiserver: Frontier =
            |w, id| w.actor_ref::<ApiServer>(id).map(ApiServer::cache_revision);
        let kubelet: Frontier = |w, id| w.actor_ref::<Kubelet>(id).map(Kubelet::view_revision);
        (self.apiservers.iter().map(move |&a| (a, apiserver)))
            .chain(self.kubelets.iter().map(move |&k| (k, kubelet)))
            .chain(
                singletons
                    .into_iter()
                    .filter_map(|(id, read)| Some((id?, read))),
            )
    }

    /// Runs the world until the store has a leader and every apiserver is
    /// serving. Returns `false` on timeout.
    pub fn wait_ready(&self, world: &mut World, deadline: SimTime) -> bool {
        loop {
            let leader = self.store.leader(world).is_some();
            let ready = self.apiservers.iter().all(|&a| {
                world
                    .actor_ref::<ApiServer>(a)
                    .is_some_and(|s| s.is_ready())
            });
            if leader && ready {
                return true;
            }
            match world.peek_next() {
                Some(at) if at <= deadline => {
                    world.step();
                }
                _ => return false,
            }
        }
    }

    /// Creates (or overwrites) an object directly in the store, waiting for
    /// the commit. Returns the commit revision, or `None` on timeout.
    pub fn create_object(
        &self,
        world: &mut World,
        obj: &Object,
        deadline: SimTime,
    ) -> Option<Revision> {
        let key = obj.key().as_str().to_string();
        let value = obj.encode();
        let req = world
            .invoke::<BasicClient, _>(self.admin, move |bc, ctx| bc.client.put(key, value, ctx));
        self.await_admin(world, req, deadline)
            .and_then(|r| match r {
                OpResult::Put { revision } => Some(revision),
                _ => None,
            })
    }

    /// Deletes a key directly in the store, waiting for the commit.
    pub fn delete_key(&self, world: &mut World, key: &str, deadline: SimTime) -> bool {
        let key = key.to_string();
        let req = world.invoke::<BasicClient, _>(self.admin, move |bc, ctx| {
            bc.client.delete(key, Expect::Any, ctx)
        });
        self.await_admin(world, req, deadline).is_some()
    }

    fn await_admin(&self, world: &mut World, req: u64, deadline: SimTime) -> Option<OpResult> {
        loop {
            if let Some(result) = world
                .actor_ref::<BasicClient>(self.admin)
                .expect("admin client")
                .result_of(req)
            {
                return result.clone().ok();
            }
            match world.peek_next() {
                Some(at) if at <= deadline => {
                    world.step();
                }
                _ => return None,
            }
        }
    }

    /// The ground-truth state `S`: every object in the store, decoded, as
    /// seen by the most caught-up live store node. Oracles compare views
    /// against this.
    pub fn ground_truth(&self, world: &World) -> BTreeMap<String, Object> {
        let node = self.store.leader(world).or_else(|| {
            self.store
                .nodes
                .iter()
                .copied()
                .filter(|&n| !world.is_crashed(n))
                .max_by_key(|&n| {
                    world
                        .actor_ref::<StoreNode>(n)
                        .map(|s| s.mvcc().revision())
                        .unwrap_or(Revision::ZERO)
                })
        });
        let mut out = BTreeMap::new();
        if let Some(n) = node {
            if let Some(store) = world.actor_ref::<StoreNode>(n) {
                for kv in store.mvcc().range("").0 {
                    if let Ok(obj) = Object::from_kv(&kv) {
                        out.insert(kv.key.as_str().to_string(), obj);
                    }
                }
            }
        }
        out
    }

    /// The retained ground-truth history `H` (KV events) from the same
    /// node as [`ClusterHandle::ground_truth`].
    pub fn ground_history(&self, world: &World) -> Vec<std::rc::Rc<ph_store::KvEvent>> {
        let node = self.store.leader(world).or_else(|| {
            self.store
                .nodes
                .iter()
                .copied()
                .find(|&n| !world.is_crashed(n))
        });
        node.and_then(|n| world.actor_ref::<StoreNode>(n))
            .map(|s| {
                s.mvcc()
                    .events_since(s.mvcc().compacted())
                    .unwrap_or_default()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::WorldConfig;

    #[test]
    fn full_stack_becomes_ready() {
        let mut world = World::new(WorldConfig::default(), 31);
        let cfg = ClusterConfig::default();
        let cluster = spawn_cluster(&mut world, &cfg);
        assert!(
            cluster.wait_ready(&mut world, SimTime(Duration::secs(3).as_nanos())),
            "stack did not become ready"
        );
        assert_eq!(cluster.apiservers.len(), 2);
        assert_eq!(cluster.kubelets.len(), 2);
    }

    #[test]
    fn seeding_and_ground_truth() {
        let mut world = World::new(WorldConfig::default(), 32);
        let cfg = ClusterConfig::default();
        let cluster = spawn_cluster(&mut world, &cfg);
        let deadline = SimTime(Duration::secs(5).as_nanos());
        assert!(cluster.wait_ready(&mut world, deadline));
        let rev = cluster
            .create_object(&mut world, &Object::node("node-1"), deadline)
            .expect("seed node");
        assert!(rev.0 >= 1);
        let s = cluster.ground_truth(&world);
        assert!(s.contains_key("nodes/node-1"));
        assert!(cluster.delete_key(&mut world, "nodes/node-1", deadline));
        let s = cluster.ground_truth(&world);
        assert!(!s.contains_key("nodes/node-1"));
        assert!(!cluster.ground_history(&world).is_empty());
    }
}

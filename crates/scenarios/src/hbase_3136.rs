//! HBASE-3136 / HBASE-3137 — stale reads from a ZooKeeper-like follower
//! break atomic compare-and-set region transitions (§4.2.1).
//!
//! "HBase runs region transitions using atomic compare-and-set operations
//! which read cached states at a ZooKeeper server, and staleness in the
//! cached states fails atomic region changes."
//!
//! A [`RegionManager`] drives each region through a state cycle: read the
//! region znode, then CAS it forward using the read's version. The
//! **buggy** manager reads *serializably from its local follower* (fast,
//! possibly stale — the pre-fix HBase behaviour); under replication lag the
//! CAS version is stale, the CAS fails, and the transition aborts. The
//! **fixed** manager forces a sync (linearizable read) before every CAS —
//! HBASE-3136's fix — which eliminates the aborts but pays a quorum
//! round-trip per transition: the HBASE-3137 regression measured by
//! experiment E1 (`phtool repro E1`).
//!
//! The guided staleness injection delays the Raft replication stream to the
//! manager's follower by 90 ms (just under the election timeout, so
//! leadership is undisturbed), giving the follower a steady ~90 ms lag —
//! longer than the 50 ms transition interval.

use ph_core::perturb::{Schedule, Strategy, Targets};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::{AccessSummary, PatternClass, ReadKind};
use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, SimTime, TimerId, World, WorldConfig};
use ph_store::msgs::Expect;
use ph_store::node::StoreNodeConfig;
use ph_store::{
    spawn_store_cluster, Completion, OpError, OpResult, ReadLevel, StoreClient, StoreClientConfig,
    Value,
};

use crate::{oracles, Scenario, Stack, StoreWorld, Variant, T0};

const TAG_TICK: u64 = 1;
const TAG_NEXT: u64 = 2;

/// HBASE-3136 as a value. The region manager aborts a region
/// (`hbase.aborted`) after a CAS built on a stale follower read; its view
/// caches are the store nodes themselves (replication is the update feed).
pub static SCENARIO: Scenario = Scenario {
    name: "hbase-3136",
    pattern: PatternClass::Staleness,
    blame: BlameSpec {
        scenario: "hbase-3136",
        component: "region-manager",
        action_labels: &["hbase.aborted"],
        caches: &["store-0", "store-1", "store-2"],
    },
    horizon: Duration::secs(5),
    stack: Stack::Store {
        summaries,
        setup,
        oracles: || vec![oracles::no_aborted_transitions()],
    },
    guided,
    realize,
};

/// How the region manager reads a region before its CAS: serializably
/// from its local follower (buggy, possibly stale) or linearizably (fixed,
/// HBASE-3136's sync). The run and the static summary both read it.
fn read_kind(variant: Variant) -> ReadKind {
    if variant.is_buggy() {
        ReadKind::Cache
    } else {
        ReadKind::Quorum
    }
}

/// Static access summary of the region manager.
///
/// This scenario has no informer stack, so the summary is written by hand:
/// the manager's "view" is one point read per transition, of
/// [`read_kind`]. The CAS carries an `Expect::ModRev` precondition, but
/// that fence only protects the *write*: the manager treats a failed CAS as
/// a permanently broken assignment and abandons the region, so the
/// destructive abandon decision consumes the possibly-stale read unfenced —
/// which is exactly HBASE-3136's failure mode.
fn summaries(variant: Variant) -> Vec<AccessSummary> {
    use ph_lint::summary::{ActionDecl, Gate, GatePath, ViewDecl};
    vec![AccessSummary {
        component: "region-manager".into(),
        upstream_switch: false,
        views: vec![ViewDecl {
            resource: "regions".into(),
            list: read_kind(variant),
            watch: false,
            relist_on_gap: false,
            periodic_resync: false,
            event_replay: false,
            congestible: false,
        }],
        actions: vec![ActionDecl {
            name: "cas-region-transition".into(),
            destructive: true,
            paths: vec![GatePath::new(
                "read-then-cas",
                vec![Gate::CachePresence("regions".into())],
            )],
        }],
    }]
}

/// Drives region state transitions with read-then-CAS cycles against the
/// store — the ZKAssign analog.
#[derive(Debug)]
pub struct RegionManager {
    client: StoreClient,
    regions: Vec<String>,
    interval: Duration,
    /// How each transition reads its region: `Linearizable` (a sync before
    /// every CAS) is the fix.
    level: ReadLevel,
    /// req → region, for reads awaiting a response.
    pending_read: std::collections::BTreeMap<u64, String>,
    /// req → region, for CAS writes awaiting a response.
    pending_cas: std::collections::BTreeMap<u64, String>,
    /// Regions whose transition aborted (the buggy manager gives up on
    /// them, as ZKAssign gave up on broken assignments).
    broken: std::collections::BTreeSet<String>,
    /// Completed transitions per region.
    pub transitions: std::collections::BTreeMap<String, u64>,
    seeded: bool,
}

impl RegionManager {
    /// Creates a manager for `n` regions, reading through `client`
    /// (configure the client's affinity to pick the follower it trusts):
    /// serializably for `ReadKind::Cache`, linearizably for
    /// `ReadKind::Quorum`.
    pub fn new(client: StoreClient, n: usize, interval: Duration, read: ReadKind) -> RegionManager {
        RegionManager {
            client,
            regions: (0..n).map(|i| format!("regions/r{i}")).collect(),
            interval,
            level: match read {
                ReadKind::Cache => ReadLevel::Serializable,
                ReadKind::Quorum => ReadLevel::Linearizable,
            },
            pending_read: std::collections::BTreeMap::new(),
            pending_cas: std::collections::BTreeMap::new(),
            broken: std::collections::BTreeSet::new(),
            transitions: std::collections::BTreeMap::new(),
            seeded: false,
        }
    }

    /// Total completed transitions.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.values().sum()
    }

    /// Regions whose assignment broke on a stale CAS.
    pub fn broken_regions(&self) -> usize {
        self.broken.len()
    }

    fn busy(&self, region: &str) -> bool {
        self.pending_read.values().any(|r| r == region)
            || self.pending_cas.values().any(|r| r == region)
    }

    fn start_transitions(&mut self, ctx: &mut Ctx) {
        let level = self.level;
        let todo: Vec<String> = self
            .regions
            .iter()
            .filter(|r| !self.broken.contains(*r) && !self.busy(r))
            .cloned()
            .collect();
        for region in todo {
            let req = self.client.read(region.clone(), level, ctx);
            self.pending_read.insert(req, region);
        }
    }

    fn on_completion(&mut self, c: Completion, ctx: &mut Ctx) {
        let Completion::OpDone { req, result } = c else {
            return;
        };
        if let Some(region) = self.pending_read.remove(&req) {
            if let Ok(OpResult::Read { kvs, .. }) = result {
                let Some(kv) = kvs.into_iter().next() else {
                    return; // region missing (not yet replicated) — retry next tick
                };
                let state: u64 = std::str::from_utf8(&kv.value)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let next = Value::copy_from_slice((state + 1).to_string().as_bytes());
                let req =
                    self.client
                        .cas_put(kv.key.clone(), next, Expect::ModRev(kv.mod_revision), ctx);
                self.pending_cas.insert(req, region);
            }
            return;
        }
        if let Some(region) = self.pending_cas.remove(&req) {
            match result {
                Ok(_) => {
                    *self.transitions.entry(region.clone()).or_insert(0) += 1;
                    ctx.annotate("hbase.transition", region);
                    // Closed loop with a short think time: throughput then
                    // reflects the read path's latency (the HBASE-3137
                    // measurement) without racing the replication stream.
                    ctx.set_timer(Duration::millis(5), TAG_NEXT);
                }
                Err(OpError::CasFailed { .. }) => {
                    // The atomic region change broke on a stale version —
                    // HBASE-3136. The manager gives the region up.
                    ctx.annotate("hbase.aborted", region.clone());
                    self.broken.insert(region);
                }
                Err(_) => {}
            }
        }
    }
}

impl Actor for RegionManager {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if !self.seeded {
            self.seeded = true;
            for region in self.regions.clone() {
                self.client.put(region, Value::from_static(b"0"), ctx);
            }
        }
        ctx.set_timer(self.interval, TAG_TICK);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if self.client.on_message(from, &msg, ctx, &mut completions) {
            for c in completions {
                self.on_completion(c, ctx);
            }
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        match tag {
            TAG_TICK => {
                self.client.tick(ctx);
                self.start_transitions(ctx);
                ctx.set_timer(self.interval, TAG_TICK);
            }
            TAG_NEXT => self.start_transitions(ctx),
            _ => {}
        }
    }
}

/// The tuned §4.2.1 staleness injection: delay the Raft stream to the
/// manager's follower by 90 ms (`caches[0]` in this scenario's targets).
fn guided(_seed: u64) -> Box<dyn Strategy> {
    Box::new(Schedule::staleness(
        0,
        Duration::millis(90),
        Duration::millis(1500),
    ))
}

/// The region manager reads the lagging follower.
fn realize(letter: &Letter) -> Vec<Box<dyn Strategy>> {
    match letter {
        Letter::DelayCache(_) => vec![guided(0)],
        _ => Vec::new(),
    }
}

/// A three-node store with an elected leader, and the region manager
/// reading through the first follower.
///
/// Targets: `caches[0]` = the follower the manager reads from;
/// `notify_kinds` = the Raft replication stream (`RaftWire`) — at the store
/// layer, replication *is* the view-update feed.
fn setup(seed: u64, variant: Variant) -> StoreWorld {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
    let t0 = SimTime(T0.as_nanos());
    let leader = cluster.wait_for_leader(&mut world, t0).expect("leader");
    world.run_until(t0);
    let follower_idx = cluster
        .nodes
        .iter()
        .position(|&n| n != leader)
        .expect("follower");
    let follower = cluster.nodes[follower_idx];

    let mut scc = StoreClientConfig::new(cluster.nodes.clone());
    scc.affinity = Some(follower_idx);
    let manager = world.spawn(
        "region-manager",
        RegionManager::new(
            StoreClient::new(scc),
            4,
            Duration::millis(50),
            read_kind(variant),
        ),
    );

    let targets = Targets {
        store_nodes: cluster.nodes.clone(),
        caches: [follower].into(),
        components: [manager].into(),
        notify_kinds: &["RaftWire"],
        horizon: SCENARIO.horizon,
    };
    StoreWorld {
        world,
        targets,
        truth: leader,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::perturb::NoFault;

    #[test]
    fn follower_lag_breaks_buggy_cas_transitions() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Buggy);
        assert!(report.failed(), "expected stale-CAS aborts");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.details.contains("regions/")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn sync_before_cas_survives_the_same_lag() {
        let report = SCENARIO.run(1, guided(1).as_mut(), Variant::Fixed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn no_fault_run_is_clean_even_when_buggy() {
        let report = SCENARIO.run(1, &mut NoFault, Variant::Buggy);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

//! Topology helpers: spawning an n-node store cluster in a world.

use std::rc::Rc;

use ph_sim::{ActorId, Duration, SimTime, World};

use crate::client::{BasicClient, StoreClient, StoreClientConfig};
use crate::node::{StoreNode, StoreNodeConfig};

/// Handle to a spawned store cluster.
///
/// The member list is a shared slice: cloning a handle (or lifting the
/// list into per-trial [`crate::StoreClientConfig`]s and perturbation
/// target sets) bumps a refcount instead of copying the ids.
#[derive(Debug, Clone)]
pub struct StoreCluster {
    /// Actor ids of the members, in node-index order.
    pub nodes: Rc<[ActorId]>,
}

impl StoreCluster {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the cluster has no members (never true for spawned
    /// clusters).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current leader's actor id, if any node currently leads.
    pub fn leader(&self, world: &World) -> Option<ActorId> {
        self.nodes.iter().copied().find(|&n| {
            !world.is_crashed(n)
                && world
                    .actor_ref::<StoreNode>(n)
                    .is_some_and(|s| s.is_leader())
        })
    }

    /// Spawns a [`BasicClient`] named `name` over every member, ticking
    /// every `tick`.
    pub fn spawn_client(&self, world: &mut World, name: &str, tick: Duration) -> ActorId {
        let client = StoreClient::new(StoreClientConfig::new(self.nodes.clone()));
        world.spawn(name, BasicClient::new(client, tick))
    }

    /// Runs the world until a leader exists or `deadline` passes.
    pub fn wait_for_leader(&self, world: &mut World, deadline: SimTime) -> Option<ActorId> {
        loop {
            if let Some(l) = self.leader(world) {
                return Some(l);
            }
            match world.peek_next() {
                Some(at) if at <= deadline => {
                    world.step();
                }
                _ => return self.leader(world),
            }
        }
    }
}

/// Spawns `n` store nodes named `store-0 … store-{n-1}`.
///
/// Actor ids are assigned in spawn order, so the member list handed to each
/// node is computed up front from the world's current actor count.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn spawn_store_cluster(world: &mut World, n: usize, cfg: StoreNodeConfig) -> StoreCluster {
    assert!(n > 0, "cluster must have at least one node");
    let base = world.actor_ids().count() as u32;
    let peers: Vec<ActorId> = (0..n as u32).map(|i| ActorId(base + i)).collect();
    let mut nodes = Vec::with_capacity(n);
    for idx in 0..n {
        let id = world.spawn(
            &format!("store-{idx}"),
            StoreNode::new(cfg, idx, peers.clone()),
        );
        assert_eq!(id, peers[idx], "spawn order must match precomputed ids");
        nodes.push(id);
    }
    StoreCluster {
        nodes: nodes.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::{Duration, WorldConfig};

    #[test]
    fn cluster_elects_a_leader() {
        let mut world = World::new(WorldConfig::default(), 11);
        let cluster = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
        assert_eq!(cluster.len(), 3);
        let leader = cluster.wait_for_leader(&mut world, SimTime(Duration::secs(2).as_nanos()));
        assert!(leader.is_some(), "no leader within 2s");
    }

    #[test]
    fn single_node_cluster_leads_quickly() {
        let mut world = World::new(WorldConfig::default(), 12);
        let cluster = spawn_store_cluster(&mut world, 1, StoreNodeConfig::default());
        let leader = cluster.wait_for_leader(&mut world, SimTime(Duration::secs(1).as_nanos()));
        assert_eq!(leader, Some(cluster.nodes[0]));
    }

    #[test]
    fn leader_failover() {
        let mut world = World::new(WorldConfig::default(), 13);
        let cluster = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
        let first = cluster
            .wait_for_leader(&mut world, SimTime(Duration::secs(2).as_nanos()))
            .expect("initial leader");
        world.crash(first);
        world.run_for(Duration::millis(500));
        let second = cluster.leader(&world).expect("failover leader");
        assert_ne!(first, second);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_panics() {
        let mut world = World::new(WorldConfig::default(), 1);
        spawn_store_cluster(&mut world, 0, StoreNodeConfig::default());
    }
}

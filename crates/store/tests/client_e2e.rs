//! End-to-end store tests: client ↔ replicated store over the simulated
//! network, exercising writes, reads at both consistency levels, watches,
//! CAS, leases, compaction, failover and follower staleness.
//!
//! The crate's one test binary: the MVCC and Raft properties are the
//! [`proptests`] module.

mod proptests;

use ph_sim::{Duration, SimTime, World, WorldConfig};
use ph_store::client::BasicClient;
use ph_store::msgs::{Expect, Op, ReadLevel};
use ph_store::node::AutoCompact;
use ph_store::{
    spawn_store_cluster, Completion, Key, OpError, OpResult, ReadLevel as RL, Revision,
    StoreClient, StoreClientConfig, StoreCluster, StoreNode, StoreNodeConfig, Value,
};

fn setup(seed: u64, n: usize, cfg: StoreNodeConfig) -> (World, StoreCluster, ph_sim::ActorId) {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_store_cluster(&mut world, n, cfg);
    let client = StoreClient::new(StoreClientConfig::new(cluster.nodes.clone()));
    let c = world.spawn("client", BasicClient::new(client, Duration::millis(50)));
    cluster
        .wait_for_leader(&mut world, SimTime(Duration::secs(2).as_nanos()))
        .expect("leader");
    (world, cluster, c)
}

fn await_op(world: &mut World, c: ph_sim::ActorId, req: u64) -> Result<OpResult, OpError> {
    for _ in 0..200 {
        world.run_for(Duration::millis(20));
        if let Some(r) = world
            .actor_ref::<BasicClient>(c)
            .expect("client")
            .result_of(req)
        {
            return r.clone();
        }
    }
    panic!("request {req} did not complete within 4s");
}

#[test]
fn put_then_linearizable_read_round_trips() {
    let (mut world, _cluster, c) = setup(21, 3, StoreNodeConfig::default());
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client
            .put("pods/p1", Value::from_static(b"running"), ctx)
    });
    let rev = match await_op(&mut world, c, req).expect("put") {
        OpResult::Put { revision } => revision,
        other => panic!("unexpected {other:?}"),
    };
    assert!(rev.0 >= 1);
    let req =
        world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.read("pods/", RL::Linearizable, ctx));
    match await_op(&mut world, c, req).expect("read") {
        OpResult::Read { kvs, revision } => {
            assert_eq!(kvs.len(), 1);
            assert_eq!(kvs[0].key, Key::new("pods/p1"));
            assert_eq!(&kvs[0].value[..], b"running");
            assert!(revision >= rev);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn watch_streams_events_in_order() {
    let (mut world, _cluster, c) = setup(22, 3, StoreNodeConfig::default());
    let watch =
        world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.watch("pods/", Revision::ZERO, ctx));
    world.run_for(Duration::millis(50));
    for (k, v) in [("pods/a", "1"), ("pods/b", "2"), ("nodes/n1", "x")] {
        let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
            bc.client.put(k, Value::copy_from_slice(v.as_bytes()), ctx)
        });
        await_op(&mut world, c, req).expect("put");
    }
    // Delete one to see a tombstone event.
    let req =
        world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.delete("pods/a", Expect::Any, ctx));
    await_op(&mut world, c, req).expect("delete");
    world.run_for(Duration::millis(300));

    let events = world
        .actor_ref::<BasicClient>(c)
        .expect("client")
        .watch_events(watch);
    let keys: Vec<_> = events
        .iter()
        .map(|e| e.key().as_str().to_string())
        .collect();
    assert_eq!(keys, vec!["pods/a", "pods/b", "pods/a"]);
    assert!(events[2].is_delete());
    // Revisions strictly increase.
    let revs: Vec<u64> = events.iter().map(|e| e.revision().0).collect();
    assert!(revs.windows(2).all(|w| w[0] < w[1]), "revisions {revs:?}");
}

#[test]
fn cas_conflict_surfaces_as_op_error() {
    let (mut world, _cluster, c) = setup(23, 3, StoreNodeConfig::default());
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.put("k", Value::from_static(b"v1"), ctx)
    });
    let rev = match await_op(&mut world, c, req).expect("put") {
        OpResult::Put { revision } => revision,
        other => panic!("unexpected {other:?}"),
    };
    // Overwrite, then CAS against the now-stale revision.
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.put("k", Value::from_static(b"v2"), ctx)
    });
    await_op(&mut world, c, req).expect("put2");
    let req = world.invoke::<BasicClient, _>(c, move |bc, ctx| {
        bc.client
            .cas_put("k", Value::from_static(b"v3"), Expect::ModRev(rev), ctx)
    });
    match await_op(&mut world, c, req) {
        Err(OpError::CasFailed { key, actual }) => {
            assert_eq!(key, Key::new("k"));
            assert_eq!(actual, Some(Revision(rev.0 + 1)));
        }
        other => panic!("expected CAS failure, got {other:?}"),
    }
}

#[test]
fn writes_survive_leader_failover() {
    let (mut world, cluster, c) = setup(24, 3, StoreNodeConfig::default());
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.put("durable", Value::from_static(b"1"), ctx)
    });
    await_op(&mut world, c, req).expect("put");
    let leader = cluster.leader(&world).expect("leader");
    world.crash(leader);
    // The client must find the new leader and the data must still be there.
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.read("durable", RL::Linearizable, ctx)
    });
    match await_op(&mut world, c, req).expect("read after failover") {
        OpResult::Read { kvs, .. } => {
            assert_eq!(kvs.len(), 1);
            assert_eq!(&kvs[0].value[..], b"1");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn serializable_read_from_partitioned_follower_is_stale() {
    let (mut world, cluster, _c) = setup(25, 3, StoreNodeConfig::default());
    let leader = cluster.leader(&world).expect("leader");
    let follower = *cluster
        .nodes
        .iter()
        .find(|&&n| n != leader)
        .expect("follower");
    let follower_idx = cluster.nodes.iter().position(|&n| n == follower).unwrap();

    // A client pinned to the follower for serializable reads.
    let mut cfg = StoreClientConfig::new(cluster.nodes.clone());
    cfg.affinity = Some(follower_idx);
    let c2 = world.spawn(
        "stale-reader",
        BasicClient::new(StoreClient::new(cfg), Duration::millis(50)),
    );

    // Write v1, let it replicate everywhere.
    let req = world.invoke::<BasicClient, _>(c2, |bc, ctx| {
        bc.client.put("k", Value::from_static(b"v1"), ctx)
    });
    await_op(&mut world, c2, req).expect("put v1");
    world.run_for(Duration::millis(200));

    // Cut the follower off from the rest, then write v2.
    let others: Vec<_> = cluster
        .nodes
        .iter()
        .copied()
        .filter(|&n| n != follower)
        .collect();
    let p = world.partition(&[follower], &others);
    let req = world.invoke::<BasicClient, _>(c2, |bc, ctx| {
        bc.client.put("k", Value::from_static(b"v2"), ctx)
    });
    await_op(&mut world, c2, req).expect("put v2");

    // Serializable read hits the partitioned follower: sees stale v1.
    let req =
        world.invoke::<BasicClient, _>(c2, |bc, ctx| bc.client.read("k", RL::Serializable, ctx));
    match await_op(&mut world, c2, req).expect("stale read") {
        OpResult::Read { kvs, .. } => {
            assert_eq!(&kvs[0].value[..], b"v1", "follower must serve stale data");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Linearizable read (reaches the majority side): sees v2.
    let req =
        world.invoke::<BasicClient, _>(c2, |bc, ctx| bc.client.read("k", RL::Linearizable, ctx));
    match await_op(&mut world, c2, req).expect("fresh read") {
        OpResult::Read { kvs, .. } => assert_eq!(&kvs[0].value[..], b"v2"),
        other => panic!("unexpected {other:?}"),
    }
    world.heal(p);
}

#[test]
fn lease_expiry_deletes_attached_keys() {
    let (mut world, _cluster, c) = setup(26, 3, StoreNodeConfig::default());
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.submit(
            Op::LeaseGrant {
                id: ph_store::LeaseId(1),
                ttl_ms: 300,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    });
    await_op(&mut world, c, req).expect("grant");
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.submit(
            Op::Put {
                key: Key::new("ephemeral"),
                value: Value::from_static(b"x"),
                lease: Some(ph_store::LeaseId(1)),
                expect: Expect::Any,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    });
    await_op(&mut world, c, req).expect("leased put");

    // Key exists now.
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.read("ephemeral", RL::Linearizable, ctx)
    });
    match await_op(&mut world, c, req).expect("read") {
        OpResult::Read { kvs, .. } => assert_eq!(kvs.len(), 1),
        other => panic!("unexpected {other:?}"),
    }

    // Let the lease expire without keepalives.
    world.run_for(Duration::millis(800));
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.read("ephemeral", RL::Linearizable, ctx)
    });
    match await_op(&mut world, c, req).expect("read after expiry") {
        OpResult::Read { kvs, .. } => assert!(kvs.is_empty(), "leased key must be gone"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn compaction_cancels_stale_watch_resume() {
    let (mut world, _cluster, c) = setup(27, 3, compacting());
    // Generate plenty of history.
    for i in 0..30 {
        let req = world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            bc.client
                .put(format!("k{i}"), Value::from_static(b"v"), ctx)
        });
        await_op(&mut world, c, req).expect("put");
    }
    world.run_for(Duration::millis(500)); // let autocompaction run

    // A watch resuming from revision 1 must be cancelled as compacted.
    let watch = world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.watch("k", Revision(1), ctx));
    world.run_for(Duration::millis(300));
    let compacted = world
        .actor_ref::<BasicClient>(c)
        .expect("client")
        .completions
        .iter()
        .any(|x| matches!(x, Completion::WatchCompacted { watch: w } if *w == watch));
    assert!(compacted, "resume below the compaction floor must cancel");
}

/// Auto-compaction that keeps five revisions: a few puts are enough to
/// compact both the history and the Raft log.
fn compacting() -> StoreNodeConfig {
    StoreNodeConfig {
        autocompact: Some(AutoCompact {
            keep: 5,
            interval: Duration::millis(100),
        }),
        ..StoreNodeConfig::default()
    }
}

fn put_keys(world: &mut World, c: ph_sim::ActorId, keys: std::ops::Range<usize>) {
    for i in keys {
        let req = world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            bc.client
                .put(format!("k{i}"), Value::from_static(b"v"), ctx)
        });
        await_op(world, c, req).expect("put");
    }
}

fn node(world: &World, id: ph_sim::ActorId) -> &StoreNode {
    world.actor_ref::<StoreNode>(id).expect("store node")
}

/// Everything a replica's applied state shows a reader: the live keys with
/// the revision they reflect, the compaction floor and the history above it.
fn applied_state(world: &World, id: ph_sim::ActorId) -> impl PartialEq + std::fmt::Debug {
    let mvcc = node(world, id).mvcc();
    let history = mvcc.events_since(mvcc.compacted()).expect("at the floor");
    (mvcc.range(""), mvcc.compacted(), history)
}

/// Crashes a replica while the others commit without it, restarts it, and
/// holds its rebuilt state to a peer's. With compaction on, the replica
/// restarts from its snapshot point above a compacted log.
fn restart_rebuilds_identical_state(cfg: StoreNodeConfig, crash_leader: bool) {
    let (mut world, cluster, c) = setup(28, 3, cfg);
    put_keys(&mut world, c, 0..10);
    world.run_for(Duration::millis(200));
    let leader = cluster.leader(&world).expect("leader");
    let victim = if crash_leader {
        leader
    } else {
        *cluster.nodes.iter().find(|&&n| n != leader).unwrap()
    };
    if cfg.autocompact.is_some() {
        assert!(
            node(&world, victim).raft().log_base() > 0,
            "log not compacted"
        );
    }

    world.crash(victim);
    put_keys(&mut world, c, 10..15);
    world.run_for(Duration::millis(100));
    world.restart(victim);
    world.run_for(Duration::millis(500));

    let peer = *cluster.nodes.iter().find(|&&n| n != victim).unwrap();
    assert_eq!(node(&world, victim).mvcc().len(), 15);
    assert_eq!(
        applied_state(&world, victim),
        applied_state(&world, peer),
        "rebuilt state must match a peer's exactly"
    );
}

#[test]
fn follower_restart_rebuilds_identical_state() {
    restart_rebuilds_identical_state(StoreNodeConfig::default(), false);
    restart_rebuilds_identical_state(compacting(), false);
}

#[test]
fn leader_restart_rebuilds_identical_state() {
    restart_rebuilds_identical_state(StoreNodeConfig::default(), true);
    restart_rebuilds_identical_state(compacting(), true);
}

#[test]
fn partitioned_follower_pins_the_log_floor_then_catches_up() {
    let (mut world, cluster, c) = setup(29, 3, compacting());
    put_keys(&mut world, c, 0..10);
    world.run_for(Duration::millis(200));
    let leader = cluster.leader(&world).expect("leader");
    let follower = *cluster.nodes.iter().find(|&&n| n != leader).unwrap();
    let others: Vec<_> = cluster
        .nodes
        .iter()
        .copied()
        .filter(|&n| n != follower)
        .collect();

    // Cut off, the follower holds no more than its log: no replica may
    // compact past that while the history compacts on (Compact entries
    // keep committing), however many compaction intervals go by.
    let cut = world.partition(&[follower], &others);
    let held = node(&world, follower).raft().log_len();
    let compacted = node(&world, leader).mvcc().compacted();
    let start = world.now();
    for i in 10..40 {
        put_keys(&mut world, c, i..i + 1);
        world.run_for(Duration::millis(20));
        for &n in cluster.nodes.iter() {
            let base = node(&world, n).raft().log_base();
            assert!(base <= held, "a replica compacted through {base} > {held}");
        }
    }
    assert!(world.now().0 - start.0 >= Duration::millis(300).0);
    for &n in &others {
        assert!(node(&world, n).mvcc().compacted() > compacted);
    }

    // Healed, it catches up by AppendEntries alone while writes keep
    // coming. Each write sends one more append at the same `next_index`,
    // so several rejections can arrive for one gap: the leader backs off
    // once per rejection, never under its base, from its own log end down
    // to the follower's. The floor then moves past where it was pinned.
    world.heal(cut);
    for i in 40..100 {
        world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            bc.client
                .put(format!("k{i}"), Value::from_static(b"v"), ctx)
        });
        world.run_for(Duration::millis(5));
    }
    world.run_for(Duration::millis(1500));
    let leader = cluster.leader(&world).expect("leader");
    assert_eq!(
        applied_state(&world, follower),
        applied_state(&world, leader)
    );
    put_keys(&mut world, c, 100..105);
    world.run_for(Duration::millis(300));
    for &n in cluster.nodes.iter() {
        let base = node(&world, n).raft().log_base();
        assert!(base > held, "the floor stayed at {base} after the heal");
    }
}

#[test]
fn a_clients_compact_cannot_drop_what_a_follower_lacks() {
    let (mut world, cluster, c) = setup(30, 3, StoreNodeConfig::default());
    put_keys(&mut world, c, 0..5);
    world.run_for(Duration::millis(200));
    let leader = cluster.leader(&world).expect("leader");
    let follower = *cluster.nodes.iter().find(|&&n| n != leader).unwrap();
    let others: Vec<_> = cluster
        .nodes
        .iter()
        .copied()
        .filter(|&n| n != follower)
        .collect();

    // With one follower cut off, a client asks every replica to drop its
    // whole log. The leader lowers the floor to what the follower holds.
    let cut = world.partition(&[follower], &others);
    put_keys(&mut world, c, 5..15);
    let held = node(&world, follower).raft().log_len();
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.submit(
            Op::Compact {
                at: Revision(10),
                log_floor: u64::MAX,
            },
            ReadLevel::Linearizable,
            ctx,
        )
    });
    await_op(&mut world, c, req).expect("compact");
    for &n in cluster.nodes.iter() {
        let base = node(&world, n).raft().log_base();
        assert!(base <= held, "a replica compacted through {base} > {held}");
    }

    // Healed, the follower catches up by AppendEntries.
    world.heal(cut);
    put_keys(&mut world, c, 15..20);
    world.run_for(Duration::millis(1500));
    let leader = cluster.leader(&world).expect("leader");
    assert_eq!(
        applied_state(&world, follower),
        applied_state(&world, leader)
    );
}

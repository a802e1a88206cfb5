//! Store-level correctness under faults, and the §3 model connection:
//! watch streams must be partial histories of `H`.

use ph_core::history::{Change, ChangeOp, History, PartialHistory};
use ph_sim::{ActorId, Duration, SimRng, SimTime, World, WorldConfig};
use ph_store::client::{BasicClient, Completion};
use ph_store::kv::KvEvent;
use ph_store::node::{AutoCompact, StoreNodeConfig};
use ph_store::{
    spawn_store_cluster, OpResult, ReadLevel, Revision, StoreClient, StoreClientConfig,
    StoreCluster, StoreNode, Value,
};

fn setup(seed: u64, cfg: StoreNodeConfig) -> (World, StoreCluster, ActorId) {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_store_cluster(&mut world, 3, cfg);
    let c = cluster.spawn_client(&mut world, "client", Duration::millis(50));
    cluster
        .wait_for_leader(&mut world, SimTime(Duration::secs(2).as_nanos()))
        .expect("leader");
    (world, cluster, c)
}

/// Converts a store event stream into `ph-core` model changes.
fn to_changes(events: &[std::rc::Rc<KvEvent>]) -> Vec<Change> {
    events
        .iter()
        .map(|e| Change {
            seq: e.revision().0,
            entity: e.key().as_str().to_string(),
            op: match e.as_ref() {
                KvEvent::Put { kv, .. } if kv.version == 1 => ChangeOp::Create,
                KvEvent::Put { kv, .. } => ChangeOp::Update(kv.version),
                KvEvent::Delete { .. } => ChangeOp::Delete,
            },
        })
        .collect()
}

/// `H`, from the leader's retained event log, and the partial history
/// client `c` observed on `watch`.
fn truth_and_view(
    world: &World,
    cluster: &StoreCluster,
    c: ActorId,
    watch: u64,
) -> (History, PartialHistory) {
    let leader = cluster.leader(world).expect("leader");
    let node = world.actor_ref::<StoreNode>(leader).expect("node");
    let truth = node
        .mvcc()
        .events_since(Revision::ZERO)
        .expect("uncompacted");
    let mut h = History::new();
    for change in to_changes(&truth) {
        let seq = h.append(change.entity.clone(), change.op);
        assert_eq!(seq, change.seq, "H must be dense in revisions");
    }
    let observed = world.actor_ref::<BasicClient>(c).expect("client");
    let mut view = PartialHistory::new();
    for change in to_changes(&observed.watch_events(watch)) {
        view.observe(change);
    }
    (h, view)
}

#[test]
fn acknowledged_writes_survive_repeated_leader_crashes() {
    let (mut world, cluster, c) = setup(61, StoreNodeConfig::default());
    let mut acknowledged = Vec::new();
    for round in 0..5 {
        // Write a key and wait for the ack.
        let key = format!("k{round}");
        let req = {
            let key = key.clone();
            world.invoke::<BasicClient, _>(c, move |bc, ctx| {
                bc.client.put(key, Value::from_static(b"v"), ctx)
            })
        };
        let mut done = false;
        for _ in 0..400 {
            world.run_for(Duration::millis(20));
            if let Some(r) = world.actor_ref::<BasicClient>(c).unwrap().result_of(req) {
                r.clone().expect("write must eventually succeed");
                done = true;
                break;
            }
        }
        assert!(done, "write {round} never completed");
        acknowledged.push(key);
        // Kill the current leader; a new one must take over.
        if let Some(leader) = cluster.leader(&world) {
            world.crash(leader);
            world.run_for(Duration::millis(400));
            world.restart(leader);
            world.run_for(Duration::millis(200));
        }
    }
    // Every acknowledged write is present in a linearizable read.
    let req = world.invoke::<BasicClient, _>(c, |bc, ctx| {
        bc.client.read("k", ReadLevel::Linearizable, ctx)
    });
    let mut found = None;
    for _ in 0..400 {
        world.run_for(Duration::millis(20));
        if let Some(r) = world.actor_ref::<BasicClient>(c).unwrap().result_of(req) {
            found = Some(r.clone().expect("read"));
            break;
        }
    }
    match found.expect("final read") {
        OpResult::Read { kvs, .. } => {
            let keys: Vec<String> = kvs.iter().map(|kv| kv.key.as_str().to_string()).collect();
            for k in &acknowledged {
                assert!(keys.contains(k), "acknowledged {k} lost; have {keys:?}");
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn replicas_converge_to_identical_state_after_faults() {
    let (mut world, cluster, c) = setup(62, StoreNodeConfig::default());
    let mut rng = SimRng::from_seed(62);
    // Random workload with a mid-run partition and node restart.
    for i in 0..30 {
        let key = format!("key{}", rng.below(10));
        let del = rng.chance(0.3);
        world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            if del {
                bc.client.delete(key, ph_store::msgs::Expect::Any, ctx);
            } else {
                bc.client.put(key, Value::from_static(b"x"), ctx);
            }
        });
        world.run_for(Duration::millis(30));
        if i == 10 {
            let p = world.partition(&[cluster.nodes[2]], &cluster.nodes[..2]);
            world.run_for(Duration::millis(300));
            world.heal(p);
        }
        if i == 20 {
            world.crash(cluster.nodes[1]);
            world.run_for(Duration::millis(200));
            world.restart(cluster.nodes[1]);
        }
    }
    // Let everything settle, then compare replica states.
    world.run_for(Duration::secs(2));
    let states: Vec<_> = cluster
        .nodes
        .iter()
        .map(|&n| {
            let node = world.actor_ref::<StoreNode>(n).expect("node");
            (node.mvcc().range("").0, node.mvcc().revision())
        })
        .collect();
    assert_eq!(states[0], states[1], "node 0 vs 1 diverged");
    assert_eq!(states[1], states[2], "node 1 vs 2 diverged");
    assert!(states[0].1 > Revision::ZERO);
}

#[test]
fn watch_stream_is_a_partial_history_of_h() {
    let (mut world, cluster, c) = setup(63, StoreNodeConfig::default());
    // Watch everything from revision 0 on the client.
    let watch =
        world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.watch("", Revision::ZERO, ctx));
    world.run_for(Duration::millis(100));
    // A churny workload.
    for i in 0..20 {
        let key = format!("obj{}", i % 5);
        let del = i % 4 == 3;
        world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            if del {
                bc.client.delete(key, ph_store::msgs::Expect::Any, ctx);
            } else {
                bc.client.put(key, Value::from_static(b"x"), ctx);
            }
        });
        world.run_for(Duration::millis(40));
    }
    world.run_for(Duration::millis(500));

    // The client's observed stream must be a partial history of H: a
    // subsequence, order preserved, nothing fabricated (§3).
    let (h, view) = truth_and_view(&world, &cluster, c, watch);
    assert!(!view.is_empty());
    assert!(
        view.is_partial_of(&h),
        "watch stream violated the partial-history invariant"
    );
    // With no faults it is in fact the complete recent history.
    assert_eq!(view.len(), h.len());
}

#[test]
fn follower_watch_stream_is_partial_history_even_under_faults() {
    let (mut world, cluster, c) = setup(64, StoreNodeConfig::default());
    // A second client watching via a follower, which we will disturb.
    let leader = cluster.leader(&world).expect("leader");
    let follower_idx = cluster
        .nodes
        .iter()
        .position(|&n| n != leader)
        .expect("follower");
    let mut cfg = StoreClientConfig::new(cluster.nodes.clone());
    cfg.affinity = Some(follower_idx);
    let c2 = world.spawn(
        "watcher",
        BasicClient::new(StoreClient::new(cfg), Duration::millis(50)),
    );
    let watch =
        world.invoke::<BasicClient, _>(c2, |bc, ctx| bc.client.watch("", Revision::ZERO, ctx));
    world.run_for(Duration::millis(100));

    let follower = cluster.nodes[follower_idx];
    for i in 0..20 {
        let key = format!("obj{}", i % 5);
        world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            bc.client.put(key, Value::from_static(b"x"), ctx);
        });
        world.run_for(Duration::millis(40));
        if i == 8 {
            // Crash the serving follower mid-stream; the watcher must
            // fail over and resume.
            world.crash(follower);
            world.run_for(Duration::millis(300));
            world.restart(follower);
        }
    }
    world.run_for(Duration::secs(2));

    let (h, view) = truth_and_view(&world, &cluster, c2, watch);
    assert!(
        view.is_partial_of(&h),
        "failover watch stream must remain a subsequence of H (no replays, \
         no reordering)"
    );
}

#[test]
fn watch_replay_after_compaction_errors_instead_of_skipping() {
    // A watcher whose stream breaks while the history window rolls
    // forward must either resume gap-free (the replay window still covers
    // its frontier) or be cancelled loudly as compacted — it must never
    // silently skip the compacted gap. This is the sim-level counterpart
    // of the `events_since` window property tests in ph-store.
    let cfg = StoreNodeConfig {
        autocompact: Some(AutoCompact {
            keep: 5,
            interval: Duration::millis(100),
        }),
        ..StoreNodeConfig::default()
    };
    let (mut world, _, c) = setup(65, cfg);

    // Register the watch before any history exists, then churn enough
    // that the retained window rolls far past revision 1, crashing the
    // serving node mid-stream so the client must reconnect and replay.
    let watch =
        world.invoke::<BasicClient, _>(c, |bc, ctx| bc.client.watch("", Revision::ZERO, ctx));
    world.run_for(Duration::millis(100));
    let serving = world
        .actor_ref::<BasicClient>(c)
        .expect("client")
        .client
        .watch_state(watch)
        .expect("registered")
        .node;
    for i in 0..40 {
        let key = format!("obj{}", i % 5);
        world.invoke::<BasicClient, _>(c, move |bc, ctx| {
            bc.client.put(key, Value::from_static(b"x"), ctx);
        });
        world.run_for(Duration::millis(40));
        if i == 15 {
            world.crash(serving);
            // Keep the node down across several compaction intervals so
            // the window genuinely rolls while the stream is dead.
            world.run_for(Duration::millis(400));
            world.restart(serving);
        }
    }
    world.run_for(Duration::secs(2));

    let bc = world.actor_ref::<BasicClient>(c).expect("client");
    let observed = bc.watch_events(watch);
    let compacted_notice = bc
        .completions
        .iter()
        .any(|x| matches!(x, Completion::WatchCompacted { watch: w } if *w == watch));

    // Whatever happened, the stream the client *did* see is in strict
    // revision order with no replays.
    let revs: Vec<u64> = observed.iter().map(|e| e.revision().0).collect();
    assert!(
        revs.windows(2).all(|w| w[0] < w[1]),
        "watch stream reordered or replayed: {revs:?}"
    );
    // And any gap in it must have been surfaced as a compaction cancel,
    // never skipped silently.
    let has_gap = revs.windows(2).any(|w| w[1] > w[0] + 1);
    if has_gap {
        assert!(
            compacted_notice,
            "stream skipped revisions {revs:?} without a WatchCompacted notice"
        );
    }
    assert!(!observed.is_empty(), "watch saw nothing at all");
}

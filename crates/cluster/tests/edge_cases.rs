//! Cluster-layer edge cases: the watch window, informer recovery,
//! apiserver restarts mid-stream, and the MarkDeleted retry path.

use ph_cluster::apiclient::{ApiClient, ApiClientConfig, ApiCompletion};
use ph_cluster::apiserver::{ApiServer, ApiServerConfig};
use ph_cluster::informer::BasicInformer;
use ph_cluster::objects::Object;
use ph_cluster::topology::{spawn_cluster, ClusterConfig};
use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, SimTime, TimerId, World, WorldConfig};
use ph_store::client::BasicClient;
use ph_store::node::StoreNodeConfig;
use ph_store::{spawn_store_cluster, Revision, StoreClientConfig, StoreCluster};

fn base_world(seed: u64) -> (World, ph_cluster::topology::ClusterHandle) {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_cluster(&mut world, &ClusterConfig::default());
    assert!(cluster.wait_ready(&mut world, SimTime(Duration::secs(1).as_nanos())));
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    (world, cluster)
}

/// One apiserver with a `window`-event watch window over a 3-node store,
/// ready at 1 s, and the store.
fn windowed(seed: u64, window: usize) -> (World, ActorId, StoreCluster) {
    let mut world = World::new(WorldConfig::default(), seed);
    let store = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
    let mut cfg = ApiServerConfig::new(StoreClientConfig::new(store.nodes.clone()));
    cfg.window = window;
    let api = world.spawn("apiserver-1", ApiServer::new(cfg));
    store
        .wait_for_leader(&mut world, SimTime(Duration::secs(1).as_nanos()))
        .expect("leader");
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    (world, api, store)
}

/// Writes node `nodes/n{i}` for each `i`, each committed before the next.
fn put_nodes(world: &mut World, admin: ActorId, nodes: std::ops::Range<usize>) {
    for i in nodes {
        let req = world.invoke::<BasicClient, _>(admin, move |bc, ctx| {
            let node = Object::node(format!("n{i}")).encode();
            bc.client.put(format!("nodes/n{i}"), node, ctx)
        });
        while world
            .actor_ref::<BasicClient>(admin)
            .unwrap()
            .result_of(req)
            .is_none()
        {
            world.step();
        }
    }
}

#[test]
fn informer_mirrors_adds_updates_and_deletes() {
    let (mut world, cluster) = base_world(81);
    let host = world.spawn(
        "host",
        BasicInformer::new(cluster.apiservers.clone(), "nodes/"),
    );
    world.run_for(Duration::millis(300));
    let dl = SimTime(world.now().0 + Duration::secs(5).as_nanos());
    cluster.create_object(&mut world, &Object::node("n1"), dl);
    cluster.create_object(&mut world, &Object::node("n1"), dl); // update
    cluster.delete_key(&mut world, "nodes/n1", dl);
    world.run_for(Duration::millis(300));
    let h = world.actor_ref::<BasicInformer>(host).unwrap();
    assert_eq!(
        h.events,
        vec!["synced", "add n1", "upd n1", "del nodes/n1"],
        "{:?}",
        h.events
    );
    assert!(h.informer.is_empty());
}

#[test]
fn apiserver_restart_forces_informer_resync() {
    let (mut world, cluster) = base_world(82);
    let dl = SimTime(world.now().0 + Duration::secs(20).as_nanos());
    cluster.create_object(&mut world, &Object::node("n1"), dl);
    let host = world.spawn(
        "host",
        BasicInformer::new(vec![cluster.apiservers[0]], "nodes/"),
    );
    world.run_for(Duration::millis(300));
    assert_eq!(
        world.actor_ref::<BasicInformer>(host).unwrap().relists,
        1,
        "initial sync"
    );
    // Restart the apiserver: the informer's watch dies; liveness timeout
    // plus the fresh window must bring the informer back in sync.
    world.crash(cluster.apiservers[0]);
    cluster.create_object(&mut world, &Object::node("n2"), dl);
    world.run_for(Duration::millis(200));
    world.restart(cluster.apiservers[0]);
    world.run_for(Duration::secs(3));
    let h = world.actor_ref::<BasicInformer>(host).unwrap();
    assert!(h.informer.is_synced());
    assert!(
        h.informer.get("nodes/n2").is_some(),
        "informer missed the write that happened during the outage: {:?}",
        h.events
    );
}

#[test]
fn watch_window_overflow_cancels_old_resumes() {
    // A tiny window: resuming after a burst larger than the window must be
    // refused with TooOldResourceVersion, forcing a re-list (§4.2.3, [7]).
    // Seed 20 writes so the 5-event window rolls over many times.
    let (mut world, api, store) = windowed(83, 5);
    let admin = store.spawn_client(&mut world, "admin", Duration::millis(20));
    put_nodes(&mut world, admin, 0..20);

    // Now ask for a watch from revision 1 — far below the window floor.
    struct RawWatcher {
        cancelled: bool,
    }
    impl Actor for RawWatcher {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _f: ActorId, msg: AnyMsg, _c: &mut Ctx) {
            if msg.is::<ph_cluster::api::ApiWatchCancelled>() {
                self.cancelled = true;
            }
        }
    }
    let w = world.spawn("raw-watcher", RawWatcher { cancelled: false });
    world.invoke::<RawWatcher, _>(w, move |_, ctx| {
        ctx.send(
            api,
            ph_cluster::api::ApiWatchCreate {
                watch: 1,
                prefix: "nodes/".into(),
                after: Revision(1),
            },
        );
    });
    world.run_for(Duration::millis(100));
    assert!(
        world.actor_ref::<RawWatcher>(w).unwrap().cancelled,
        "resume below the rolling window must be refused"
    );
}

#[test]
fn informer_survives_window_overflow_via_relist() {
    // End-to-end: an informer whose apiserver has a tiny window and whose
    // feed is interrupted long enough to overflow it must recover by
    // re-listing, ending consistent with the truth.
    let (mut world, api, store) = windowed(84, 4);
    let host = world.spawn("host", BasicInformer::new(vec![api], "nodes/"));
    world.run_for(Duration::millis(300));

    // Cut the host off from the apiserver while 12 writes roll the window.
    let p = world.partition(&[host], &[api]);
    let admin = store.spawn_client(&mut world, "admin", Duration::millis(20));
    put_nodes(&mut world, admin, 0..12);
    world.run_for(Duration::millis(500));
    world.heal(p);
    world.run_for(Duration::secs(4));

    let h = world.actor_ref::<BasicInformer>(host).unwrap();
    assert!(h.informer.is_synced());
    assert_eq!(h.informer.len(), 12, "informer must converge after re-list");
    assert!(
        h.relists >= 2,
        "a re-list should have occurred: {}",
        h.relists
    );
}

#[test]
fn mark_deleted_is_idempotent_and_survives_races() {
    let (mut world, cluster) = base_world(85);
    let dl = SimTime(world.now().0 + Duration::secs(20).as_nanos());
    cluster.create_object(&mut world, &Object::pod("p1", None, None), dl);

    struct Marker {
        client: ApiClient,
        results: Vec<bool>,
    }
    impl Actor for Marker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::millis(30), 0);
        }
        fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
            let mut out = Vec::new();
            if self.client.on_message(from, &msg, ctx, &mut out) {
                for c in out {
                    if let ApiCompletion::Done { result, .. } = c {
                        self.results.push(result.is_ok());
                    }
                }
            }
        }
        fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
            self.client.tick(ctx);
            ctx.set_timer(Duration::millis(30), 0);
        }
    }
    let m = world.spawn(
        "marker",
        Marker {
            client: ApiClient::new(ApiClientConfig::new(cluster.apiservers.clone()), 0),
            results: Vec::new(),
        },
    );
    // Two concurrent marks racing each other (read-CAS-retry inside the
    // apiserver must absorb the conflict).
    world.invoke::<Marker, _>(m, |mk, ctx| {
        mk.client.mark_deleted("pods/p1", ctx);
        mk.client.mark_deleted("pods/p1", ctx);
    });
    world.run_for(Duration::secs(1));
    let marker = world.actor_ref::<Marker>(m).unwrap();
    assert_eq!(marker.results, vec![true, true], "both marks must succeed");
    let s = cluster.ground_truth(&world);
    assert!(s["pods/p1"].is_terminating());
}

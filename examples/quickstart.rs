//! Quickstart: build a cluster, watch its history, and measure a partial
//! history.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks through the §3 model on a live simulated stack: the ground-truth
//! history `H` accumulates in the replicated store; an apiserver's watch
//! cache holds a view `(H′, S′)`; we freeze its feed and watch the lag
//! grow, then heal it and watch the views converge.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example narrates its run on stdout"
)]

use ph_cluster::apiserver::ApiServer;
use ph_cluster::objects::{Body, Object};
use ph_cluster::topology::{spawn_cluster, ClusterConfig};
use ph_core::perturb::{Schedule, Strategy, Targets};
use ph_sim::{Duration, SimTime, World, WorldConfig};
use ph_store::{Revision, StoreNode};

fn truth_revision(world: &World, cluster: &ph_cluster::topology::ClusterHandle) -> Revision {
    cluster
        .store
        .leader(world)
        .and_then(|n| world.actor_ref::<StoreNode>(n))
        .map(|s| s.mvcc().revision())
        .unwrap_or(Revision::ZERO)
}

fn main() {
    // 1. A deterministic world: same seed ⇒ identical run, always.
    let mut world = World::new(WorldConfig::default(), 42);

    // 2. The Figure-1 stack: 3-node store, 2 apiservers, 2 kubelets,
    //    a scheduler and a replica-set controller.
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, SimTime(Duration::secs(1).as_nanos())));
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    println!("cluster ready at {} (seed {})", world.now(), world.seed());

    // 3. Seed a workload: two nodes and a 4-replica set. The controller
    //    creates pods, the scheduler binds them, the kubelets run them —
    //    every step a committed change in the history H.
    let dl = SimTime(world.now().0 + Duration::secs(5).as_nanos());
    for n in &cfg.nodes {
        cluster.create_object(&mut world, &Object::node(n.clone()), dl);
    }
    cluster.create_object(
        &mut world,
        &Object::new("web", Body::ReplicaSet { replicas: 4 }),
        dl,
    );
    world.run_for(Duration::secs(2));

    let s = cluster.ground_truth(&world);
    println!(
        "ground truth S: {} objects at revision {} ({} pods running)",
        s.len(),
        truth_revision(&world, &cluster),
        s.values()
            .filter(|o| matches!(
                o.body,
                Body::Pod {
                    phase: ph_cluster::PodPhase::Running,
                    ..
                }
            ))
            .count(),
    );

    // 4. Freeze apiserver-2's feed — the §4.2.1 staleness pattern — and
    //    keep mutating. Its view (H′, S′) falls behind (H, S).
    let targets = Targets {
        store_nodes: cluster.store.nodes.clone(),
        caches: cluster.apiservers.as_slice().into(),
        components: cluster.kubelets.as_slice().into(),
        notify_kinds: &["WatchNotify", "ApiWatchEvent"],
        horizon: Duration::secs(10),
    };
    // (Delays preserve per-link FIFO order, like the TCP streams they
    // model: everything behind a delayed notification queues behind it.)
    let mut injector = Schedule::staleness(1, Duration::secs(2), Duration::ZERO);
    injector.setup(&mut world, &targets);
    cluster.create_object(
        &mut world,
        &Object::new("web", Body::ReplicaSet { replicas: 8 }),
        dl,
    );
    world.run_for(Duration::millis(1500));

    let api2 = world
        .actor_ref::<ApiServer>(cluster.apiservers[1])
        .expect("apiserver-2");
    let truth = truth_revision(&world, &cluster);
    println!(
        "after freezing apiserver-2: truth at {}, apiserver-2's view at {} \
         (lag: {} events)",
        truth,
        api2.cache_revision(),
        truth.0 - api2.cache_revision().0,
    );
    assert!(api2.cache_revision() < truth, "the view must be stale");

    // 5. Heal and converge: once the delayed notifications drain, the view
    //    catches back up with the truth.
    injector.teardown(&mut world);
    world.run_for(Duration::secs(4));
    let api2 = world
        .actor_ref::<ApiServer>(cluster.apiservers[1])
        .expect("apiserver-2");
    let truth = truth_revision(&world, &cluster);
    println!(
        "after healing: truth at {}, apiserver-2's view at {} — converged",
        truth,
        api2.cache_revision(),
    );
    assert_eq!(api2.cache_revision(), truth);

    println!(
        "trace: {} events, digest {:#018x} — rerun me and both will match",
        world.trace().len(),
        world.trace().digest(),
    );
}

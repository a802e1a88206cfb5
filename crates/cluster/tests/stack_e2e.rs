//! End-to-end cluster tests: the full Figure-1 pipeline under no faults.
//!
//! The crate's one test binary: the cluster-layer edge cases and the
//! node-lifecycle controller are the [`edge_cases`] and [`node_lifecycle`]
//! modules.

mod edge_cases;
mod node_lifecycle;

use ph_cluster::controllers::VcMode;
use ph_cluster::kubelet::Kubelet;
use ph_cluster::objects::{Body, Object, PodPhase};
use ph_cluster::operator::OperatorPaths;
use ph_cluster::topology::{spawn_cluster, ClusterConfig, ClusterHandle};
use ph_sim::{Duration, SimTime, World, WorldConfig};

fn deadline() -> SimTime {
    SimTime(Duration::secs(30).as_nanos())
}

/// A ready cluster on `seed` with its nodes and `workload` created.
fn seeded(seed: u64, cfg: &ClusterConfig, workload: Object) -> (World, ClusterHandle) {
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_cluster(&mut world, cfg);
    assert!(cluster.wait_ready(&mut world, deadline()));
    for n in &cfg.nodes {
        cluster
            .create_object(&mut world, &Object::node(n.clone()), deadline())
            .expect("seed node");
    }
    cluster
        .create_object(&mut world, &workload, deadline())
        .expect("seed workload");
    (world, cluster)
}

/// Runs until `pred` holds over the ground truth, or panics at `limit`.
fn settle(
    world: &mut World,
    cluster: &ClusterHandle,
    limit: Duration,
    what: &str,
    pred: impl Fn(&std::collections::BTreeMap<String, Object>, &World) -> bool,
) {
    let end = world.now() + limit;
    loop {
        let s = cluster.ground_truth(world);
        if pred(&s, world) {
            return;
        }
        if world.now() >= end {
            let keys: Vec<&String> = s.keys().collect();
            panic!("{} not reached within {}; state: {:?}", what, limit, keys);
        }
        world.run_for(Duration::millis(50));
    }
}

/// `true` for a running pod.
fn is_running(o: &Object) -> bool {
    matches!(
        o.body,
        Body::Pod {
            phase: PodPhase::Running,
            ..
        }
    )
}

/// Runs until exactly `n` pods are running, or panics at `limit`.
fn settle_running(world: &mut World, cluster: &ClusterHandle, limit: Duration, n: usize) {
    let what = format!("{n} running pods");
    settle(world, cluster, limit, &what, |s, _| {
        s.values().filter(|o| is_running(o)).count() == n
    });
}

#[test]
fn replicaset_pipeline_runs_pods() {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let web = Object::new("web", Body::ReplicaSet { replicas: 3 });
    let (mut world, cluster) = seeded(41, &cfg, web);

    // RS controller creates 3 pods, scheduler binds, kubelets run.
    settle_running(&mut world, &cluster, Duration::secs(10), 3);

    // Kubelets actually hold the containers.
    let total_running: usize = cluster
        .kubelets
        .iter()
        .map(|&k| world.actor_ref::<Kubelet>(k).unwrap().running_pods().len())
        .sum();
    assert_eq!(total_running, 3);

    // Spread across both nodes (least-loaded scheduling).
    let per_node: Vec<usize> = cluster
        .kubelets
        .iter()
        .map(|&k| world.actor_ref::<Kubelet>(k).unwrap().running_pods().len())
        .collect();
    assert!(per_node.iter().all(|&c| c >= 1), "spread {per_node:?}");
}

#[test]
fn scale_down_stops_and_finalizes_pods() {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(true), // with PVCs
        volume_controller: Some(VcMode::FreshOrphan),
        ..ClusterConfig::default()
    };
    let db = Object::new("db", Body::ReplicaSet { replicas: 2 });
    let (mut world, cluster) = seeded(42, &cfg, db);

    settle_running(&mut world, &cluster, Duration::secs(10), 2);
    // PVCs exist for both pods.
    let s = cluster.ground_truth(&world);
    assert_eq!(s.keys().filter(|k| k.starts_with("pvcs/")).count(), 2);

    // Scale down to 0: pods are marked, kubelets stop+finalize, the volume
    // controller releases the PVCs.
    cluster
        .create_object(
            &mut world,
            &Object::new("db", Body::ReplicaSet { replicas: 0 }),
            deadline(),
        )
        .expect("scale down");

    settle(
        &mut world,
        &cluster,
        Duration::secs(15),
        "no pods and no pvcs",
        |s, _| {
            !s.keys().any(|k| k.starts_with("pods/db-"))
                && !s.keys().any(|k| k.starts_with("pvcs/"))
        },
    );
    // Containers actually stopped.
    let total_running: usize = cluster
        .kubelets
        .iter()
        .map(|&k| world.actor_ref::<Kubelet>(k).unwrap().running_pods().len())
        .sum();
    assert_eq!(total_running, 0);
}

#[test]
fn cassandra_operator_scales_up_and_down() {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        operator: Some(OperatorPaths::fixed()),
        ..ClusterConfig::default()
    };
    let dc1 = Object::new("dc1", Body::CassandraDatacenter { desired: 3 });
    let (mut world, cluster) = seeded(43, &cfg, dc1);

    settle(
        &mut world,
        &cluster,
        Duration::secs(10),
        "3 cass pods + pvcs",
        |s, _| {
            let pods = s
                .values()
                .filter(|o| {
                    o.kind() == ph_cluster::ObjectKind::Pod
                        && o.meta.owner.as_deref() == Some("dc1")
                        && is_running(o)
                })
                .count();
            let pvcs = s.keys().filter(|k| k.starts_with("pvcs/dc1-pvc-")).count();
            pods == 3 && pvcs == 3
        },
    );

    // Scale to 2: the highest-index pod is decommissioned and its PVC
    // cleaned up.
    cluster
        .create_object(
            &mut world,
            &Object::new("dc1", Body::CassandraDatacenter { desired: 2 }),
            deadline(),
        )
        .expect("scale down");
    settle(
        &mut world,
        &cluster,
        Duration::secs(15),
        "dc1-2 gone",
        |s, _| !s.contains_key("pods/dc1-2") && !s.contains_key("pvcs/dc1-pvc-2"),
    );
    let s = cluster.ground_truth(&world);
    assert!(s.contains_key("pods/dc1-0") && s.contains_key("pods/dc1-1"));
    assert!(s.contains_key("pvcs/dc1-pvc-0") && s.contains_key("pvcs/dc1-pvc-1"));
}

#[test]
fn apiserver_crash_recovery_resumes_service() {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let web = Object::new("web", Body::ReplicaSet { replicas: 2 });
    let (mut world, cluster) = seeded(44, &cfg, web);
    settle_running(&mut world, &cluster, Duration::secs(10), 2);

    // Crash apiserver-1 (most components' upstream), scale up while down,
    // restart, and require convergence.
    let api1 = cluster.apiservers[0];
    world.crash(api1);
    cluster
        .create_object(
            &mut world,
            &Object::new("web", Body::ReplicaSet { replicas: 4 }),
            deadline(),
        )
        .expect("scale up during apiserver outage");
    world.run_for(Duration::millis(500));
    world.restart(api1);

    settle_running(&mut world, &cluster, Duration::secs(20), 4);
}

#[test]
fn identical_seeds_identical_cluster_traces() {
    let run = |seed: u64| {
        let cfg = ClusterConfig {
            scheduler: Some(false),
            rs_controller: Some(false),
            ..ClusterConfig::default()
        };
        let web = Object::new("web", Body::ReplicaSet { replicas: 2 });
        let (mut world, _) = seeded(seed, &cfg, web);
        world.run_for(Duration::secs(3));
        world.trace().digest()
    };
    assert_eq!(run(77), run(77), "cluster runs must be replayable");
    assert_ne!(run(77), run(78));
}

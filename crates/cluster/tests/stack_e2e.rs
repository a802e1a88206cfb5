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
use ph_cluster::operator::OperatorFlags;
use ph_cluster::topology::{spawn_cluster, ClusterConfig};
use ph_sim::{Duration, SimTime, World, WorldConfig};

fn deadline() -> SimTime {
    SimTime(Duration::secs(30).as_nanos())
}

/// Runs until `pred` holds over the ground truth, or panics at `limit`.
fn settle(
    world: &mut World,
    cluster: &ph_cluster::topology::ClusterHandle,
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

#[test]
fn replicaset_pipeline_runs_pods() {
    let mut world = World::new(WorldConfig::default(), 41);
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, deadline()));
    for n in &cfg.nodes {
        cluster
            .create_object(&mut world, &Object::node(n.clone()), deadline())
            .expect("seed node");
    }
    cluster
        .create_object(
            &mut world,
            &Object::new("web", Body::ReplicaSet { replicas: 3 }),
            deadline(),
        )
        .expect("seed rs");

    // RS controller creates 3 pods, scheduler binds, kubelets run.
    settle(
        &mut world,
        &cluster,
        Duration::secs(10),
        "3 running pods",
        |s, _| {
            let running = s
                .values()
                .filter(|o| {
                    matches!(
                        o.body,
                        Body::Pod {
                            phase: PodPhase::Running,
                            ..
                        }
                    )
                })
                .count();
            running == 3
        },
    );

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
    let mut world = World::new(WorldConfig::default(), 42);
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(true), // with PVCs
        volume_controller: Some(VcMode::FreshOrphan),
        ..ClusterConfig::default()
    };
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, deadline()));
    for n in &cfg.nodes {
        cluster
            .create_object(&mut world, &Object::node(n.clone()), deadline())
            .expect("seed node");
    }
    cluster
        .create_object(
            &mut world,
            &Object::new("db", Body::ReplicaSet { replicas: 2 }),
            deadline(),
        )
        .expect("seed rs");

    settle(
        &mut world,
        &cluster,
        Duration::secs(10),
        "2 running pods",
        |s, _| {
            s.values()
                .filter(|o| {
                    matches!(
                        o.body,
                        Body::Pod {
                            phase: PodPhase::Running,
                            ..
                        }
                    )
                })
                .count()
                == 2
        },
    );
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
    let mut world = World::new(WorldConfig::default(), 43);
    let cfg = ClusterConfig {
        scheduler: Some(false),
        operator: Some(OperatorFlags::fixed()),
        ..ClusterConfig::default()
    };
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, deadline()));
    for n in &cfg.nodes {
        cluster
            .create_object(&mut world, &Object::node(n.clone()), deadline())
            .expect("seed node");
    }
    cluster
        .create_object(
            &mut world,
            &Object::new("dc1", Body::CassandraDatacenter { desired: 3 }),
            deadline(),
        )
        .expect("seed dc");

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
                        && matches!(
                            o.body,
                            Body::Pod {
                                phase: PodPhase::Running,
                                ..
                            }
                        )
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
    let mut world = World::new(WorldConfig::default(), 44);
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, deadline()));
    for n in &cfg.nodes {
        cluster
            .create_object(&mut world, &Object::node(n.clone()), deadline())
            .expect("seed node");
    }
    cluster
        .create_object(
            &mut world,
            &Object::new("web", Body::ReplicaSet { replicas: 2 }),
            deadline(),
        )
        .expect("seed rs");
    settle(
        &mut world,
        &cluster,
        Duration::secs(10),
        "2 running",
        |s, _| {
            s.values()
                .filter(|o| {
                    matches!(
                        o.body,
                        Body::Pod {
                            phase: PodPhase::Running,
                            ..
                        }
                    )
                })
                .count()
                == 2
        },
    );

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

    settle(
        &mut world,
        &cluster,
        Duration::secs(20),
        "4 running",
        |s, _| {
            s.values()
                .filter(|o| {
                    matches!(
                        o.body,
                        Body::Pod {
                            phase: PodPhase::Running,
                            ..
                        }
                    )
                })
                .count()
                == 4
        },
    );
}

#[test]
fn identical_seeds_identical_cluster_traces() {
    let run = |seed: u64| {
        let mut world = World::new(WorldConfig::default(), seed);
        let cfg = ClusterConfig {
            scheduler: Some(false),
            rs_controller: Some(false),
            ..ClusterConfig::default()
        };
        let cluster = spawn_cluster(&mut world, &cfg);
        cluster.wait_ready(&mut world, deadline());
        for n in &cfg.nodes {
            cluster.create_object(&mut world, &Object::node(n.clone()), deadline());
        }
        cluster.create_object(
            &mut world,
            &Object::new("web", Body::ReplicaSet { replicas: 2 }),
            deadline(),
        );
        world.run_for(Duration::secs(3));
        world.trace().digest()
    };
    assert_eq!(run(77), run(77), "cluster runs must be replayable");
    assert_ne!(run(77), run(78));
}

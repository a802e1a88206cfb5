//! `ph-scenarios`' whole-scenario integration tests, built as one test
//! binary: this file's own tests, then one module per concern.
//!
//! This file's tests are the cross-crate integration: the §3/§4.2 model
//! applied to live cluster traces — frontiers, staleness, time travel and
//! gap analysis computed from what the components actually observed.
//!
//! The tests that read a scenario's guided seed-1 trial on the buggy
//! variant as a report or a blame chain share one run of it,
//! [`guided_seed1`].

mod auto_discovery;
mod canonical_equivalence;
mod congestion_staleness;
mod determinism;
mod export_golden;
mod parallel_equivalence;
mod reduction_equivalence;
mod registry;
mod shard_equivalence;
mod static_dynamic_agreement;
mod store_linearizability;
mod witness_guidance;

use std::sync::OnceLock;

use ph_cluster::objects::{Body, Object, PodPhase};
use ph_cluster::topology::{spawn_cluster, ClusterConfig};
use ph_core::causality::CausalGraph;
use ph_core::history::FrontierLog;
use ph_core::perturb::{RandomCrashes, Schedule, Strategy, Targets};
use ph_core::provenance::{explain, BlameChain};
use ph_core::RunReport;
use ph_scenarios::common::targets_for;
use ph_scenarios::{Variant, SCENARIOS};
use ph_sim::{ActorId, Duration, SimTime, TraceEventKind, World, WorldConfig};

/// Every scenario's guided seed-1 trial on the buggy variant, in registry
/// order, run once per binary: its report and its blame chain (a trace is
/// not `Sync`, so it is explained where it was run).
pub fn guided_seed1() -> &'static [(RunReport, BlameChain)] {
    static RUNS: OnceLock<Vec<(RunReport, BlameChain)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        ph_core::run_indexed(ph_core::default_threads(), SCENARIOS.len(), |i| {
            let s = SCENARIOS[i];
            let (report, trace) = s.run_traced(1, (s.guided)(1).as_mut(), Variant::Buggy);
            let chain = explain(&trace, &s.blame, &report.violations);
            (report, chain)
        })
    })
}

/// The [`guided_seed1`] report of the scenario named `name`.
pub fn guided_report(name: &str) -> &'static RunReport {
    let i = SCENARIOS.iter().position(|s| s.name == name);
    &guided_seed1()[i.expect("a registered scenario")].0
}

/// Extracts a component's view-frontier log from its `view.frontier`
/// annotations.
fn frontier_log(world: &World, actor: ActorId) -> FrontierLog {
    let mut log = FrontierLog::new();
    for e in world.trace().iter() {
        if let TraceEventKind::Annotation {
            actor: a,
            label,
            data,
        } = &e.kind
        {
            if *a == actor && *label == "view.frontier" {
                if let Ok(rev) = data.parse::<u64>() {
                    log.record(e.at.nanos(), rev);
                }
            }
        }
    }
    log
}

fn build(seed: u64) -> (World, ph_cluster::topology::ClusterHandle, Targets) {
    let cfg = ClusterConfig {
        scheduler: Some(false),
        rs_controller: Some(false),
        ..ClusterConfig::default()
    };
    let mut world = World::new(WorldConfig::default(), seed);
    let cluster = spawn_cluster(&mut world, &cfg);
    assert!(cluster.wait_ready(&mut world, SimTime(Duration::secs(1).as_nanos())));
    world.run_until(SimTime(Duration::secs(1).as_nanos()));
    let targets = targets_for(&cluster, Duration::secs(5));
    (world, cluster, targets)
}

fn seed_workload(world: &mut World, cluster: &ph_cluster::topology::ClusterHandle) {
    let dl = SimTime(world.now().0 + Duration::secs(10).as_nanos());
    for n in ["node-1", "node-2"] {
        cluster
            .create_object(world, &Object::node(n), dl)
            .expect("node");
    }
    cluster
        .create_object(
            world,
            &Object::new("web", Body::ReplicaSet { replicas: 4 }),
            dl,
        )
        .expect("rs");
}

#[test]
fn frontiers_are_monotone_without_time_travel_injection() {
    let (mut world, cluster, _targets) = build(71);
    seed_workload(&mut world, &cluster);
    world.run_for(Duration::secs(4));
    for &api in &cluster.apiservers {
        let log = frontier_log(&world, api);
        assert!(
            log.samples().len() > 3,
            "apiserver should annotate frontiers"
        );
        assert!(
            log.time_travels().is_empty(),
            "{} traveled in time without injection: {:?}",
            world.name_of(api),
            log.time_travels()
        );
    }
}

#[test]
fn time_travel_injection_makes_a_component_reobserve_its_past() {
    let (mut world, cluster, targets) = build(72);
    seed_workload(&mut world, &cluster);
    world.run_for(Duration::millis(500));

    // Freeze apiserver-2, crash kubelet-1, restart it against the stale
    // upstream.
    let mut injector = Schedule::time_travel(
        1,
        0,
        Duration::millis(1800),
        Duration::millis(2500),
        Duration::millis(2700),
        Some(Duration::millis(4000)),
    );
    injector.setup(&mut world, &targets);
    let end = SimTime(Duration::secs(5).as_nanos());
    let mut churned = false;
    while world.now() < end {
        world.run_for(Duration::millis(20));
        if !churned && world.now() >= SimTime(Duration::millis(2000).as_nanos()) {
            // Advance H while apiserver-2 is frozen, so the restarted
            // kubelet's view has somewhere to regress *from*.
            churned = true;
            let dl = SimTime(world.now().0 + Duration::millis(300).as_nanos());
            for i in 0..4 {
                cluster.create_object(
                    &mut world,
                    &Object::pod(format!("extra-{i}"), Some("node-1".into()), None),
                    dl,
                );
            }
        }
        injector.tick(&mut world, &targets);
    }
    injector.teardown(&mut world);

    // The kubelet's frontier regressed: after restarting against the
    // frozen apiserver its first sync is at an older revision than it had
    // reached before the crash — Figure 3b made measurable.
    let kubelet = cluster.kubelets[0];
    let log = frontier_log(&world, kubelet);
    assert!(
        !log.time_travels().is_empty(),
        "expected a frontier regression; samples: {:?}",
        log.samples()
    );
    assert!(log.max_travel_depth() > 0);
}

#[test]
fn random_crashes_leave_cluster_consistent() {
    let (mut world, cluster, targets) = build(73);
    seed_workload(&mut world, &cluster);
    let mut strategy = RandomCrashes {
        seed: 73,
        count: 4,
        down: Duration::millis(300),
    };
    strategy.setup(&mut world, &targets);
    world.run_for(Duration::secs(6));
    strategy.teardown(&mut world);
    world.run_for(Duration::secs(4));

    // Convergence: 4 pods running, kubelet container counts match the
    // ground truth bindings.
    let s = cluster.ground_truth(&world);
    let running: Vec<&Object> = s
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
        .collect();
    assert_eq!(running.len(), 4, "pods lost after random crashes");
    for &k in &cluster.kubelets {
        let kl = world.actor_ref::<ph_cluster::Kubelet>(k).expect("kubelet");
        let truth: std::collections::BTreeSet<String> = running
            .iter()
            .filter(|o| o.pod_node() == Some(kl.node()))
            .map(|o| o.meta.name.clone())
            .collect();
        assert_eq!(
            kl.running_pods(),
            &truth,
            "{} containers diverge from ground truth",
            world.name_of(k)
        );
    }
}

#[test]
fn causality_links_pod_creation_to_kubelet_start() {
    let (mut world, cluster, _targets) = build(74);
    seed_workload(&mut world, &cluster);
    world.run_for(Duration::secs(3));

    let graph = CausalGraph::from_trace(world.trace());
    let starts = graph.decisions("kubelet.pod_start");
    assert!(!starts.is_empty(), "pods should have started");
    for &start in &starts {
        let causes = graph.message_causes_of(start);
        assert!(
            causes.len() > 5,
            "a pod start should be causally downstream of many messages \
             (store replication, watch delivery): got {}",
            causes.len()
        );
    }
    // Decisions of different kubelets are causally independent unless
    // related through the store: at least the *first* starts on each node
    // shouldn't be totally ordered both ways.
    if starts.len() >= 2 {
        let a = starts[0];
        let b = starts[1];
        assert!(
            !(graph.happens_before(a, b) && graph.happens_before(b, a)),
            "happens-before must be antisymmetric"
        );
    }
    let _ = cluster;
}

#[test]
fn trace_json_export_is_consumable() {
    let (mut world, cluster, _targets) = build(75);
    seed_workload(&mut world, &cluster);
    world.run_for(Duration::secs(1));
    let json = world.trace().to_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"seq\":0"));
    assert!(json.contains("Spawned"));
    assert!(json.len() > 10_000, "substantial trace expected");
    let _ = cluster;
}

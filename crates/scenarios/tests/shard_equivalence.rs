//! Shard-count invisibility, end to end.
//!
//! The cache-level model tests pin that a `ShardedCache` behaves like one
//! `BTreeMap` for any shard count; this suite pins the whole-run claim: a
//! mega-cluster trial at `shards ∈ {1, 2, 8}` produces byte-identical
//! `RunReport` JSON and identical trace digests. Parameters are drawn as
//! tuples from a fixed-seed [`SimRng`], so every trial is reproducible
//! from the seed alone.
//!
//! Trace retention is the second invisible axis: the family runs
//! digest-only (nothing reads its events), and must report exactly what a
//! retaining run reports — while anything that *would* read events from a
//! digest-only world fails loudly instead of seeing an empty history.

use ph_cluster::topology::ClusterConfig;
use ph_core::perturb::NoFault;
use ph_scenarios::common::Runner;
use ph_scenarios::mega_cluster::{run, run_retaining_trace, ScaleParams, RETENTION};
use ph_sim::{Duration, Retention, SimRng, SimTime};

#[test]
fn shard_count_never_changes_a_run_report() {
    let mut rng = SimRng::from_seed(0xE10);
    for trial in 0..3u64 {
        // One tuple draw per trial: cluster shape first, then the run seed.
        let (nodes, pods, watchers, seed) = (
            1 + rng.below(12) as usize,
            50 + rng.below(250) as usize,
            1 + rng.below(3) as usize,
            1 + rng.below(1 << 20),
        );
        let params = |shards: usize| ScaleParams {
            nodes,
            pods,
            shards,
            watchers,
            churn: Duration::millis(400),
        };
        let reference = run(seed, &params(1));
        let reference_json = reference.to_json();
        for shards in [2usize, 8] {
            let report = run(seed, &params(shards));
            assert_eq!(
                report.trace_digest, reference.trace_digest,
                "trial {trial} (nodes {nodes}, pods {pods}, seed {seed}): \
                 trace digest moved at shards={shards}"
            );
            assert_eq!(
                report.to_json(),
                reference_json,
                "trial {trial} (nodes {nodes}, pods {pods}, seed {seed}): \
                 report bytes moved at shards={shards}"
            );
        }
    }
}

#[test]
fn trace_retention_never_changes_a_run_report() {
    assert_eq!(RETENTION, Retention::DigestOnly);
    for shards in [1usize, 8] {
        let params = ScaleParams {
            nodes: 10,
            pods: 200,
            shards,
            watchers: 2,
            churn: Duration::millis(600),
        };
        let retained = run_retaining_trace(7, &params);
        assert!(retained.trace_events > 1_000);
        assert_eq!(
            run(7, &params).to_json(),
            retained.to_json(),
            "report bytes moved with retention at shards={shards}"
        );
    }
}

/// A ready default cluster on a world that stores no events.
fn digest_only_runner() -> Runner {
    Runner::with_retention(
        "digest-only",
        3,
        &ClusterConfig::default(),
        Duration::secs(1),
        Duration::secs(3),
        Retention::DigestOnly,
    )
}

#[test]
#[should_panic(expected = "trace not retained")]
fn events_of_a_digest_only_world_panic() {
    let runner = digest_only_runner();
    assert!(!runner.world.trace().is_empty(), "events are still counted");
    let _ = runner.world.trace().events();
}

#[test]
#[should_panic(expected = "trace not retained")]
fn take_trace_on_a_digest_only_world_panics() {
    let _ = digest_only_runner().world.take_trace();
}

#[test]
#[should_panic(expected = "trace not retained")]
fn run_until_event_on_a_digest_only_world_panics() {
    let mut runner = digest_only_runner();
    let deadline = SimTime(Duration::secs(2).as_nanos());
    let _ = runner.world.run_until_event(deadline, |_| true);
}

#[test]
#[should_panic(expected = "trace not retained")]
fn finish_with_trace_on_a_digest_only_runner_panics() {
    let _ = digest_only_runner().finish_with_trace(&mut NoFault, Duration::millis(100), &mut []);
}

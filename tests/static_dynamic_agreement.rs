//! Static/dynamic agreement over all nine scenarios (the acceptance
//! gate of the hazard analysis).
//!
//! For every scenario the symbolic model checker must produce a minimal
//! hazard witness of the documented §4.2 class for the buggy variant's
//! access summaries and prove the fixed variant's epoch-safe — and the
//! dynamic explorer must confirm both verdicts: the guided run on the
//! buggy variant detects a violation, the same injection on the fixed
//! variant stays clean. One [`CrossCheckTable`] holds all four columns;
//! `all_agree()` is the theorem. The backward trace slicer
//! ([`ph_core::provenance::explain`]) must then blame each buggy
//! violation on the same class: static prediction and dynamic provenance
//! tell one story.
//!
//! The file also pins the determinism contract of the checker itself:
//! the same IR yields byte-identical witness JSON across repeated
//! in-process runs and across any worker count of the parallel runner —
//! and checks the IR against what runs: every request the cluster
//! scenarios' components send is one their summaries declare.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use ph_cluster::api::ApiWatchCreate;
use ph_cluster::topology::spawn_cluster;
use ph_cluster::{ApiRequest, Verb};
use ph_core::crosscheck::CrossCheckTable;
use ph_core::parallel::run_indexed;
use ph_core::perturb::{Strategy, Targets};
use ph_lint::modelcheck::model_check_all;
use ph_lint::summary::{Gate, ReadKind};
use ph_scenarios::{scenario_statics, Stack, Variant, SCENARIOS, T0};
use ph_sim::{ActorId, Envelope, SimTime, Verdict, World, WorldConfig};

/// Builds the full table: static verdicts from the model checker (via
/// [`ph_scenarios::static_crosscheck`], the same source `phtool lint`
/// renders), dynamic verdicts from one guided trial per variant (seed 1 —
/// every scenario's tuned injection is deterministic and seed-stable). The
/// buggy trials are the binary's shared [`crate::guided_seed1`] runs.
fn full_table() -> CrossCheckTable {
    let mut table = ph_scenarios::static_crosscheck();
    let rows = table.rows.iter_mut().zip(scenario_statics());
    for ((row, e), (buggy, _)) in rows.zip(crate::guided_seed1()) {
        assert_eq!(row.scenario, e.name, "row order must match scenario order");
        let fixed_report = (e.run)(1, (e.guided)(1).as_mut(), Variant::Fixed);
        row.dynamic_buggy_detected = Some(buggy.failed());
        row.dynamic_fixed_clean = Some(!fixed_report.failed());
    }
    table
}

#[test]
fn static_analysis_agrees_with_dynamic_exploration_on_all_scenarios() {
    let table = full_table();
    assert_eq!(table.rows.len(), 9, "all nine scenarios must be wired");
    for (row, (report, chain)) in table.rows.iter().zip(crate::guided_seed1()) {
        assert!(
            row.buggy_classes().contains(&row.expected),
            "{}: static pass missed the documented class {} (flagged: {:?})",
            row.scenario,
            row.expected,
            row.buggy_classes()
        );
        assert!(
            row.fixed_epoch_safe(),
            "{}: fixed variant statically flagged: {:?}",
            row.scenario,
            row.fixed
        );
        assert!(
            !row.buggy_witnesses().is_empty(),
            "{}: model checker produced no witness for the buggy variant",
            row.scenario
        );
        assert_eq!(
            row.dynamic_buggy_detected,
            Some(true),
            "{}: guided dynamic run failed to detect the buggy variant",
            row.scenario
        );
        assert_eq!(
            row.dynamic_fixed_clean,
            Some(true),
            "{}: fixed variant violated dynamically",
            row.scenario
        );
        assert_eq!(
            chain.class,
            row.expected,
            "{}: dynamic blame class {} disagrees with the static class {}\nrationale: {}\n{}",
            row.scenario,
            chain.class,
            row.expected,
            chain.rationale,
            chain.render()
        );
        // The chain is non-trivial, and the report summary agrees.
        let summary = report.blame.expect("failing run carries a blame summary");
        assert_eq!(summary.class, chain.class, "{}", row.scenario);
        assert_eq!(summary.injected, chain.injected, "{}", row.scenario);
        if chain.class == ph_lint::summary::PatternClass::CongestionStaleness {
            // The defining property of the emergent class: the guided
            // strategy reshapes link capacity but injects nothing — every
            // artifact in the chain is the queue's own queue-delay or
            // queue-drop, which count as emergent, not injected.
            assert_eq!(
                chain.injected, 0,
                "{}: a traffic surge must not count as injection",
                row.scenario
            );
            assert!(
                !chain.links.is_empty(),
                "{}: emergent queue artifacts must be causally implicated",
                row.scenario
            );
        } else {
            assert!(
                chain.injected > 0,
                "{}: guided injection must leave artifacts",
                row.scenario
            );
            assert!(
                chain.in_chain > 0,
                "{}: at least one injected artifact must be causally implicated",
                row.scenario
            );
        }
    }
    assert!(table.all_agree(), "\n{}", table.render_text());
}

#[test]
fn static_only_table_from_the_library_agrees() {
    // `phtool lint` renders exactly this table; keep its verdict pinned.
    let table = ph_scenarios::static_crosscheck();
    assert_eq!(table.rows.len(), 9);
    assert!(table.all_static_agree(), "\n{}", table.render_text());
    let json = table.to_json();
    assert!(json.contains("\"all_static_agree\":true"));
    assert!(json.contains("\"witnesses\":["));
}

#[test]
fn model_checker_witnesses_the_documented_class_and_proves_fixed_safe() {
    for e in scenario_statics() {
        let buggy = model_check_all(&(e.summaries)(Variant::Buggy));
        let classes: BTreeSet<_> = buggy
            .iter()
            .flat_map(|r| r.witnesses())
            .map(|w| w.class)
            .collect();
        assert!(
            classes.contains(&e.pattern),
            "{}: no minimal witness of class {} (witnessed: {:?})",
            e.name,
            e.pattern,
            classes
        );
        let fixed = model_check_all(&(e.summaries)(Variant::Fixed));
        for r in &fixed {
            assert!(
                r.is_epoch_safe(),
                "{}: fixed component {} not proved epoch-safe:\n{}",
                e.name,
                r.component,
                r.to_json()
            );
        }
    }
}

/// All nine scenarios' buggy-variant model-check reports as one JSON
/// blob, produced across `threads` workers of the deterministic runner.
fn witness_blob(threads: usize) -> String {
    let entries = scenario_statics();
    run_indexed(threads, entries.len(), |i| {
        model_check_all(&(entries[i].summaries)(Variant::Buggy))
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join("\n")
    })
    .join("\n")
}

#[test]
fn witness_json_is_byte_identical_across_runs_and_thread_counts() {
    // Two in-process runs: the checker has no hidden state.
    let first = witness_blob(1);
    let second = witness_blob(1);
    assert_eq!(first, second, "repeated runs must agree byte-for-byte");
    // Worker count must be invisible: `--threads 1` vs N.
    for threads in [2, 4, 8] {
        assert_eq!(
            first,
            witness_blob(threads),
            "witness JSON diverged at {threads} threads"
        );
    }
    // Sanity: the blob actually carries witnesses for every scenario.
    assert!(first.matches("\"verdict\":\"hazardous\"").count() >= 9);
}

/// One message a component sent an apiserver.
#[derive(Debug)]
enum Sent {
    /// A request.
    Request(Verb),
    /// A watch opened on a prefix.
    Watch(String),
}

/// The messages recorded so far, with their senders.
type Log = Rc<RefCell<Vec<(ActorId, Sent)>>>;

/// Installs an interceptor on `world` that passes every message and logs
/// each one [`Sent`] to an apiserver.
fn record_requests(world: &mut World) -> Log {
    let log = Log::default();
    let sink = Rc::clone(&log);
    world.set_interceptor(move |env: &Envelope, _now: SimTime| {
        let request = env.msg.downcast_ref::<ApiRequest>();
        let watch = env.msg.downcast_ref::<ApiWatchCreate>();
        let sent = match (request, watch) {
            (Some(r), _) => Some(Sent::Request(r.verb.clone())),
            (_, Some(w)) => Some(Sent::Watch(w.prefix.clone())),
            _ => None,
        };
        sink.borrow_mut().extend(sent.map(|sent| (env.src, sent)));
        Verdict::Pass
    });
    log
}

/// A strategy that injects nothing and logs every message [`Sent`] to an
/// apiserver.
struct Recorder(Option<Log>);

impl Strategy for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }

    fn setup(&mut self, world: &mut World, _targets: &Targets) {
        self.0 = Some(record_requests(world));
    }
}

/// The resource a key or prefix names: `pods` for `pods/p1` and `pods/`.
fn resource(key: &str) -> &str {
    key.split('/').next().unwrap_or(key)
}

/// What the components of every cluster scenario send, in a seed-1
/// no-fault run of each variant, is what their access summaries declare:
/// a delete or graceful delete comes from a component that declares a
/// destructive action, on a resource it has a view of; every list and
/// watch is on a declared view, a quorum list on a quorum view; and a quorum read comes from a component
/// that declares a fresh confirmation, or a quorum view, of that resource.
/// A component that sends requests but has no summary fails too.
///
/// A trial's strategy is set up only once the cluster is ready, so the
/// boot (spawn to [`T0`]: the first lists and watches) is recorded on its
/// own world built the same way, with the same seed and config: the same
/// actors, ids and requests as the trial's warm-up.
#[test]
fn components_send_only_what_their_summaries_declare() {
    let mut destructive = 0;
    for scenario in SCENARIOS {
        let Stack::Cluster { config, .. } = &scenario.stack else {
            continue;
        };
        for variant in [Variant::Buggy, Variant::Fixed] {
            let at = format!("{} {variant}", scenario.name);
            let mut boot = World::new(WorldConfig::default(), 1);
            let boot_log = record_requests(&mut boot);
            let cluster = spawn_cluster(&mut boot, &config(variant));
            let t0 = SimTime(T0.as_nanos());
            assert!(cluster.wait_ready(&mut boot, t0), "{at}: not ready");
            boot.run_until(t0);
            let mut trial = Recorder(None);
            scenario.run(1, &mut trial, variant);
            let trial_log = trial.0.expect("the driver sets the strategy up");

            let summaries = ph_cluster::topology::access_summaries(&config(variant));
            let log = boot_log.take().into_iter().chain(trial_log.take());
            for (id, sent) in log {
                let sender = boot.name_of(id);
                let Some(summary) = summaries.iter().find(|s| s.component == sender) else {
                    panic!("{at}: {sender} sends {sent:?} but declares no summary");
                };
                let view =
                    |prefix: &str| (summary.views.iter()).find(|v| v.resource == resource(prefix));
                let ok = match &sent {
                    Sent::Request(Verb::Delete { key } | Verb::MarkDeleted { key }) => {
                        destructive += 1;
                        summary.actions.iter().any(|a| a.destructive) && view(key).is_some()
                    }
                    Sent::Request(Verb::List { prefix, fresh }) => {
                        view(prefix).is_some_and(|v| (v.list == ReadKind::Quorum) == *fresh)
                    }
                    Sent::Watch(prefix) => view(prefix).is_some_and(|v| v.watch),
                    Sent::Request(Verb::Get { key, fresh: true }) => {
                        let confirms = (summary.actions.iter())
                            .flat_map(|a| &a.paths)
                            .flat_map(|p| &p.gates)
                            .any(|g| *g == Gate::FreshConfirm(resource(key).to_string()));
                        confirms || view(key).is_some_and(|v| v.list == ReadKind::Quorum)
                    }
                    Sent::Request(_) => true,
                };
                assert!(
                    ok,
                    "{at}: {sender} sends {sent:?}, undeclared by its summary"
                );
            }
        }
    }
    assert!(destructive > 0, "no run sent a destructive request");
}

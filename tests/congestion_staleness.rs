//! Load-emergent staleness: the acceptance gate for the queueing network
//! model.
//!
//! Both checks run the congestion scenario with **no strategy at all**
//! ([`NoFault`] — zero injected perturbations); the only difference is the
//! *static* modeled capacity of the apiserver→scheduler link relative to
//! the churn workload's offered load:
//!
//! * below capacity (offered load ≪ bandwidth), the run must be clean —
//!   no violation and not a single drop-tail loss; the network model adds
//!   latency, never semantics;
//! * past capacity, a staleness violation must *emerge* from queue
//!   physics alone, and the backward blame slicer must classify it as
//!   `congestion-staleness` — the same class the symbolic model checker
//!   predicts from the scenario's static access summaries. One story,
//!   three observers: static witness, dynamic oracle, provenance chain.
//!   The scarce run is also the one whose exports are pinned, so it runs
//!   once, in `export_golden::congestion_queue_exports_are_pinned`, which
//!   calls [`past_capacity_staleness_emerges_and_is_classified_as_congestion`]
//!   on it.

use ph_core::harness::RunReport;
use ph_core::perturb::NoFault;
use ph_core::provenance::explain;
use ph_lint::modelcheck::model_check_all;
use ph_lint::summary::PatternClass;
use ph_scenarios::{congestion, Scenario, Variant};
use ph_sim::Trace;

#[test]
fn below_capacity_the_network_only_adds_latency() {
    let (report, trace) = congestion::SCENARIO.run_traced(1, &mut NoFault, Variant::Buggy);
    assert!(
        report.violations.is_empty(),
        "ample capacity must stay clean: {:?}",
        report.violations
    );
    assert_eq!(
        report.metrics.counter_total("net.queue_dropped"),
        0,
        "ample capacity must not overflow any drop-tail queue"
    );
    use ph_sim::TraceEventKind as K;
    assert!(
        !trace
            .iter()
            .any(|e| matches!(&e.kind, K::MessageDropped { reason, .. }
                if *reason == ph_sim::DropReason::QueueFull)),
        "no queue-full drop may appear in the trace below capacity"
    );
}

/// The past-capacity gate, on the scarce run (seed 1, [`NoFault`], buggy).
pub(crate) fn past_capacity_staleness_emerges_and_is_classified_as_congestion(
    scenario: &Scenario,
    report: &RunReport,
    trace: &Trace,
) {
    // Dynamic: the oracle sees pods wedged on the ghost node, with zero
    // perturbations injected.
    assert!(
        report.failed(),
        "offered load past capacity must wedge the buggy scheduler"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.details.contains("node-2") || v.details.contains("stuck")),
        "{:?}",
        report.violations
    );
    assert!(
        report.metrics.counter_total("net.queue_dropped") > 0,
        "the emergent run must show real drop-tail losses"
    );

    // Provenance: the blame chain reaches the same class, from queue
    // artifacts alone (nothing was injected, so nothing counts as such).
    let chain = explain(trace, &scenario.blame, &report.violations);
    assert_eq!(
        chain.class,
        PatternClass::CongestionStaleness,
        "{}",
        chain.rationale
    );
    assert_eq!(
        chain.injected, 0,
        "a NoFault run cannot have injected artifacts"
    );
    assert!(
        !chain.links.is_empty(),
        "emergent queue artifacts must appear in the chain"
    );

    // Static: the model checker predicts the same class from the
    // scenario's access summaries — no run needed.
    let witnessed: Vec<PatternClass> = model_check_all(&scenario.summaries(Variant::Buggy))
        .iter()
        .flat_map(|r| r.witnesses())
        .map(|w| w.class)
        .collect();
    assert!(
        witnessed.contains(&chain.class),
        "static witnesses {witnessed:?} must include the dynamic class {}",
        chain.class
    );
}

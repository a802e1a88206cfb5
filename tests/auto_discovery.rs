//! The §7 automation loop, end-to-end on the real stack: the
//! causality-guided auto-explorer must *discover* real bugs from nothing
//! but a fault-free reference trace and the components' decision
//! annotations — no hand-tuned selectors, no scenario knowledge.

use ph_core::autoguide::{candidates, explore, Candidate};
use ph_core::perturb::{NoFault, Strategy};
use ph_scenarios::{k8s_56261, volume_17, Variant};

#[test]
fn auto_explorer_discovers_the_volume_controller_bug() {
    // The explorer knows only: (a) how to run the workload, (b) which
    // annotations are decisions, (c) which message kinds carry view
    // updates. It does NOT know which object, which component, or which
    // notification matters.
    let run = |strategy: &mut dyn Strategy| {
        let (report, trace) = volume_17::SCENARIO.run_traced(1, strategy, Variant::Buggy);
        let violations = report
            .violations
            .iter()
            .map(|v| v.details.clone())
            .collect();
        (violations, trace)
    };
    let targets_of = |_: &ph_sim::Trace| volume_17::SCENARIO.targets(1);

    let (findings, total, _census) = explore(
        run,
        targets_of,
        &["vc.release_pvc"], // the decision whose causes get perturbed
        4,                   // nearest causes per decision
        12,                  // candidate budget
    );
    assert!(total >= 2, "expected several candidates, got {total}");
    let hits: Vec<_> = findings.iter().filter(|f| f.violated).collect();
    assert!(
        !hits.is_empty(),
        "the auto-explorer failed to find the leak; findings: {:#?}",
        findings
            .iter()
            .map(|f| (f.candidate.to_string(), f.violated))
            .collect::<Vec<_>>()
    );
    // And the finding is the real one: a leaked PVC.
    assert!(hits
        .iter()
        .any(|f| f.violations.iter().any(|v| v.contains("leaked"))));
}

#[test]
fn auto_explorer_discovers_the_scheduler_bug() {
    let run = |strategy: &mut dyn Strategy| {
        let (report, trace) = k8s_56261::SCENARIO.run_traced(1, strategy, Variant::Buggy);
        let violations = report
            .violations
            .iter()
            .map(|v| v.details.clone())
            .collect();
        (violations, trace)
    };
    let targets_of = |_: &ph_sim::Trace| k8s_56261::SCENARIO.targets(1);

    let (findings, _total, _census) = explore(
        run,
        targets_of,
        &["scheduler.bind"],
        12, // deep enough to reach the node-deletion notification
        40,
    );
    let hits: Vec<_> = findings.iter().filter(|f| f.violated).collect();
    assert!(
        !hits.is_empty(),
        "the auto-explorer failed to wedge the scheduler; candidates tried: {:?}",
        findings
            .iter()
            .map(|f| f.candidate.to_string())
            .collect::<Vec<_>>()
    );
    // The real 56261 manifestation is among the finds: a pod bound to the
    // ghost node.
    assert!(
        hits.iter()
            .any(|f| f.violations.iter().any(|v| v.contains("nonexistent node"))),
        "expected a ghost-node binding among: {:#?}",
        hits.iter().map(|f| &f.violations).collect::<Vec<_>>()
    );
}

#[test]
fn candidates_are_replayable_across_runs() {
    // The positional encoding only works if the reference prefix replays
    // identically: same candidate, same run, same digest.
    let scenario = &volume_17::SCENARIO;
    let (_, reference) = scenario.run_traced(1, &mut NoFault, Variant::Buggy);
    let targets = scenario.targets(1);
    let cands = candidates(&reference, &targets, &["vc.release_pvc"], 2, 300);
    let Some(c) = cands
        .iter()
        .find(|c| matches!(c, Candidate::DropNth { .. }))
    else {
        panic!("no drop candidates: {cands:?}");
    };
    let digest = || {
        let mut s = c.schedule();
        scenario.run(1, &mut s, Variant::Buggy).trace_digest
    };
    assert_eq!(digest(), digest());
}

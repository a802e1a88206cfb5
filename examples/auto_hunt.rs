//! The §7 automation loop, live: discover bugs from causality alone.
//!
//! ```text
//! cargo run --release --example auto_hunt
//! ```
//!
//! No hand-tuned injectors: the explorer runs each workload once with no
//! faults, mines the trace for component decisions and the notifications
//! causally preceding them, turns those into drop/blackout/crash
//! candidates, and re-runs the workload once per candidate. Violations are
//! real bugs, found the way the paper proposes: "perturbing events that
//! are causally related to a component's action are likely to trigger
//! bugs."

use ph_core::autoguide::explore;
use ph_core::perturb::Strategy;
use ph_scenarios::{k8s_56261, volume_17, Scenario, Variant};

/// Hunts `scenario` from its own value: the decisions are its blame
/// spec's action labels, the targets its own topology's.
fn hunt(name: &str, scenario: &Scenario, depth: usize, budget: usize) {
    let decisions = scenario.blame.action_labels;
    println!("=== hunting {name} (decisions: {decisions:?}) ===");
    let run = |strategy: &mut dyn Strategy| {
        let (report, trace) = scenario.run_traced(1, strategy, Variant::Buggy);
        let violations = report
            .violations
            .iter()
            .map(|v| v.details.clone())
            .collect();
        (violations, trace)
    };
    let threads = ph_core::default_threads();
    let (findings, total, census) = explore(
        run,
        |_| scenario.targets(1),
        decisions,
        depth,
        budget,
        threads,
    );
    println!(
        "  {} candidates derived from the reference trace ({} distinct classes, \
         {} deduplicated), {} tried:",
        total,
        census.distinct_classes,
        census.deduped_trials,
        findings.len()
    );
    let mut found = 0;
    for f in &findings {
        if f.violated {
            found += 1;
            println!("  ✗ {}", f.candidate);
            for v in &f.violations {
                println!("      → {v}");
            }
        }
    }
    if found == 0 {
        println!("  (no violations — try a deeper/bigger budget)");
    } else {
        println!("  {found} candidate(s) exposed real violations\n");
    }
}

fn main() {
    hunt(
        "the volume controller (bug [17] shape)",
        &volume_17::SCENARIO,
        4,
        12,
    );
    hunt(
        "the scheduler (Kubernetes-56261 shape)",
        &k8s_56261::SCENARIO,
        12,
        40,
    );

    println!(
        "every finding above is replayable: the candidate encodes the exact\n\
         perturbation point positionally, and the simulation is deterministic."
    );
}

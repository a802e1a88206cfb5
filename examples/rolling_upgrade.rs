//! Figure 2, live: reproduce Kubernetes-59848 and print the execution.
//!
//! ```text
//! cargo run --example rolling_upgrade
//! ```
//!
//! Runs the rolling-upgrade scenario under the guided time-travel injection
//! against the buggy kubelet, prints the decision timeline extracted from
//! the trace, and then shows that the fixed kubelet survives the identical
//! injection.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example narrates its run on stdout"
)]

use ph_scenarios::k8s_59848::SCENARIO;
use ph_scenarios::Variant;
use ph_sim::TraceEventKind;

fn main() {
    println!("=== Kubernetes-59848: 'the most severe possible known vulnerability");
    println!("    in Kubernetes safety guarantees' — reproduced in simulation ===\n");

    let mut strategy = (SCENARIO.guided)(1);
    let report = SCENARIO.run(1, strategy.as_mut(), Variant::Buggy);

    println!("scenario : {}", report.scenario);
    println!("strategy : {}", report.strategy);
    println!("seed     : {}", report.seed);
    println!("events   : {}", report.trace_events);
    println!();
    if report.failed() {
        println!("SAFETY VIOLATION DETECTED:");
        for v in &report.violations {
            println!("  {v}");
        }
    } else {
        println!("no violation (unexpected — file a bug!)");
    }

    // Re-run to narrate the timeline (reports don't carry the full trace;
    // determinism means the rerun is byte-identical).
    println!("\n--- timeline (from the deterministic re-run) ---");
    let mut strategy = (SCENARIO.guided)(1);
    let report2 = SCENARIO.run_traced(1, strategy.as_mut(), Variant::Buggy);
    assert_eq!(report2.0.trace_digest, report.trace_digest);
    for e in report2.1.iter() {
        if let TraceEventKind::Annotation { label, data, .. } = &e.kind {
            if label.starts_with("kubelet.pod_") || *label == "kubelet.restart" {
                println!("  {:>10}  {:<18} {}", e.at.to_string(), label, data);
            }
        }
    }

    println!("\n--- the fix: quorum-read lists ---");
    let mut strategy = (SCENARIO.guided)(1);
    let fixed = SCENARIO.run(1, strategy.as_mut(), Variant::Fixed);
    if fixed.violations.is_empty() {
        println!("fixed kubelet survives the identical injection: no violations");
    } else {
        for v in &fixed.violations {
            println!("  UNEXPECTED: {v}");
        }
    }
}

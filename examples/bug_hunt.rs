//! The §7 bug hunt: every scenario, every strategy, one detection matrix.
//!
//! ```text
//! cargo run --release --example bug_hunt [max_trials]
//! ```
//!
//! Regenerates the paper's headline result as a table: the partial-history
//! guided injections find each bug immediately; the baselines (uniform
//! random crashes, CrashTuner-style crash-after-view-update, CoFI-style
//! partitions) rarely do within the same budget.

use ph_core::harness::{DetectionMatrix, Explorer};
use ph_scenarios::{Variant, SCENARIOS, STRATEGIES};

fn main() {
    let max_trials: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    println!(
        "hunting {} bugs with {} strategies, {} trials budget each…\n",
        SCENARIOS.len(),
        STRATEGIES.len(),
        max_trials
    );
    let explorer = Explorer {
        max_trials,
        base_seed: 1000,
    };

    let mut matrix = DetectionMatrix::new();
    for scenario in SCENARIOS {
        for strategy in STRATEGIES {
            let mut outcome = explorer.explore(
                scenario.name,
                &|seed, s| scenario.run(seed, s, Variant::Buggy),
                &|seed| scenario.strategy(strategy, seed),
            );
            // The row detail keeps the per-scenario injector's own name; the
            // matrix column is the uniform label.
            let mut detail = outcome.strategy.clone();
            if *strategy == "guided" {
                detail = format!("guided [{detail}]");
                outcome.strategy = "guided".into();
            }
            let tag = match outcome.first_violation {
                Some(n) => format!("detected on trial {n}"),
                None => "not detected".into(),
            };
            println!("  {:<14} × {:<22} {}", scenario.name, detail, tag);
            matrix.add(outcome);
        }
    }

    println!("\n=== detection matrix (✓ n = first failing trial) ===\n");
    println!("{}", matrix.render());

    let guided_hits = matrix
        .cells()
        .iter()
        .filter(|c| c.strategy == "guided" && c.detected())
        .count();
    println!(
        "guided strategies detected {guided_hits}/{} bugs; see EXPERIMENTS.md \
         for the recorded full-budget matrix",
        SCENARIOS.len()
    );
}

//! Witness-guided exploration beats the unguided baseline (EXPERIMENTS.md
//! E6 as a regression test).
//!
//! For every buggy scenario the model checker's minimal witnesses compile
//! (via [`ph_scenarios::witness_bridge`]) into concrete injectors that
//! lead the hunt schedule; the unguided baseline is the generic
//! random-crash / CrashTuner / CoFi cycle with the same per-trial seeds.
//! Guidance must never be worse, and must at least halve the
//! trials-to-first-detection on most scenarios.

use ph_scenarios::scenario_statics;
use ph_scenarios::witness_bridge::{first_detection_guided, first_detection_unguided};

/// Trial budget per hunt. An unguided hunt that never detects within the
/// budget is scored as `BUDGET + 1` (a lower bound on its true cost).
const BUDGET: usize = 30;
const SEED: u64 = 1;

#[test]
fn guided_hunt_is_never_worse_and_halves_trials_on_most_scenarios() {
    let mut halved = 0usize;
    let mut lines = Vec::new();
    let entries = scenario_statics();
    for e in &entries {
        let guided = first_detection_guided(e, BUDGET, SEED)
            .unwrap_or_else(|| panic!("{}: guided hunt missed within budget", e.name));
        let unguided = first_detection_unguided(e, BUDGET, SEED).unwrap_or(BUDGET as u32 + 1);
        let line = format!("{:<15} guided={guided:<3} unguided={unguided}", e.name);
        eprintln!("{line}");
        lines.push(line);
        assert!(
            guided <= unguided,
            "{}: guided ({guided}) worse than unguided ({unguided})",
            e.name
        );
        if 2 * guided <= unguided {
            halved += 1;
        }
    }
    // The acceptance bar: ≤50% of the unguided trial count on ≥6 scenarios.
    assert!(
        halved >= 6,
        "witness guidance halved trials on only {halved}/{} scenarios:\n{}",
        entries.len(),
        lines.join("\n")
    );
}

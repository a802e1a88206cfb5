//! From static witnesses to guided search: compiles the model checker's
//! minimal hazard witnesses into concrete perturbation schedules.
//!
//! The model checker ([`ph_lint::modelcheck`]) speaks in abstract letters
//! (`delay-cache(pods)`, `upstream-switch`, …) over the IR; the explorer
//! speaks in concrete schedules anchored to a scenario's keys, component
//! indices, and phase times. This module is the translation layer:
//!
//! 1. model-check the scenario's buggy summaries → minimal witnesses;
//! 2. list the letters their schedules call for, in witness order
//!    ([`ph_core::autoguide::witness_priors`]);
//! 3. realize each letter ([`crate::Scenario::realize`]) as the
//!    scenario-anchored schedule(s) that perturb the run the way the
//!    abstract letter perturbs the model.
//!
//! Witness-guided exploration then tries these realizations *first*, in
//! witness order (shortest schedules lead), before falling back to the
//! unguided strategy cycle — measured in EXPERIMENTS.md E6 as a
//! trials-to-first-detection reduction on the scenario suite.

use ph_core::autoguide::witness_priors;
use ph_core::canon::{dedup_by_class, ClassCensus};
use ph_core::parallel::derive_trial_seed;
use ph_core::perturb::Strategy;
use ph_lint::modelcheck::{model_check_all, Letter};

use crate::common::Variant;
use crate::strategies::baseline;
use crate::StaticEntry;

/// The letters the scenario's witnesses call for, in witness order
/// (shortest schedule first). Empty when the model checker proves every
/// action epoch-safe.
pub fn scenario_priors(entry: &StaticEntry) -> Vec<Letter> {
    let summaries = (entry.summaries)(Variant::Buggy);
    let reports = model_check_all(&summaries);
    let witnesses: Vec<_> = reports.iter().flat_map(|r| r.witnesses()).collect();
    witness_priors(&witnesses)
}

/// Every witness realization with **no** canonical dedup — the trial list
/// a hunt would burn without [`witness_plan`]'s class fingerprinting (for
/// experiment E9 and the equivalence tests; hunts use [`witness_plan`]).
///
/// The anchors (which cache, which key, which phase window) come from the
/// scenario's workload schedule — the same knowledge its tuned `guided`
/// injector uses; the *choice* of which perturbation family to anchor is
/// what the witness contributes. A letter with no sensible realization in a
/// scenario (an upstream switch where every component is pinned) yields
/// nothing.
pub fn witness_realizations(entry: &StaticEntry) -> Vec<Box<dyn Strategy>> {
    let realize = crate::lookup(entry.name)
        .expect("a registered scenario")
        .realize;
    scenario_priors(entry).iter().flat_map(realize).collect()
}

/// The ordered witness-derived strategies for `entry`, one representative
/// per canonical schedule class, witness order preserved — several abstract
/// letters often concretize to the *same* injection (e.g. `delay-cache`
/// and `upstream-switch` both land the operator on the lagging
/// apiserver), and the fingerprint proves it instead of trusting display
/// names. The census counts the realizations dropped as duplicates —
/// trials the guided hunt does *not* have to spend.
pub fn witness_plan(entry: &StaticEntry) -> (Vec<Box<dyn Strategy>>, ClassCensus) {
    dedup_by_class(witness_realizations(entry), |s| s.planned_schedule())
}

/// The unguided baseline: the generic strategy cycle every hunt falls
/// back to, with per-trial seeds.
pub fn unguided_strategy(trial: usize, seed: u64) -> Box<dyn Strategy> {
    let cycle = ["random-crash", "crashtuner", "cofi"];
    baseline(cycle[trial % cycle.len()], seed).expect("a baseline strategy")
}

/// One measured hunt: runs buggy-variant trials until the first
/// detection, returning the 1-based trial count, or `None` within
/// `budget`. `make` picks the strategy for each trial (0-based) given its
/// derived seed.
pub fn first_detection(
    entry: &StaticEntry,
    budget: usize,
    base_seed: u64,
    mut make: impl FnMut(usize, u64) -> Box<dyn Strategy>,
) -> Option<u32> {
    for trial in 0..budget {
        let seed = derive_trial_seed(base_seed, trial as u32);
        let mut strategy = make(trial, seed);
        let report = (entry.run)(seed, strategy.as_mut(), Variant::Buggy);
        if report.failed() {
            return Some(trial as u32 + 1);
        }
    }
    None
}

/// Trials to first detection with witness priors leading (then the
/// unguided cycle).
pub fn first_detection_guided(entry: &StaticEntry, budget: usize, base_seed: u64) -> Option<u32> {
    let priors = witness_plan(entry).0;
    let lead = priors.len();
    let mut priors = priors.into_iter();
    first_detection(entry, budget, base_seed, move |trial, seed| {
        priors
            .next()
            .unwrap_or_else(|| unguided_strategy(trial - lead, seed))
    })
}

/// Trials to first detection for the unguided cycle alone.
pub fn first_detection_unguided(entry: &StaticEntry, budget: usize, base_seed: u64) -> Option<u32> {
    first_detection(entry, budget, base_seed, unguided_strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_statics;

    #[test]
    fn every_buggy_scenario_compiles_to_at_least_one_strategy() {
        for entry in scenario_statics() {
            let shapes = scenario_priors(&entry);
            assert!(
                !shapes.is_empty(),
                "{}: buggy variant should produce witnesses",
                entry.name
            );
            let strategies = witness_plan(&entry).0;
            assert!(
                !strategies.is_empty(),
                "{}: witnesses must realize as concrete strategies (shapes {shapes:?})",
                entry.name
            );
        }
    }

    #[test]
    fn fixed_variants_produce_no_witnesses() {
        for entry in scenario_statics() {
            let summaries = (entry.summaries)(Variant::Fixed);
            let reports = model_check_all(&summaries);
            for r in &reports {
                assert!(
                    r.is_epoch_safe(),
                    "{}: fixed {} not epoch-safe",
                    entry.name,
                    r.component
                );
            }
        }
    }

    #[test]
    fn witness_plans_dedup_convergent_realizations_by_class() {
        // Several letters concretize to the same injection in these
        // scenarios; the canonical fingerprint collapses them.
        let expected = [
            ("k8s-59848", 1),
            ("cass-op-400", 1),
            ("cass-op-402", 1),
            ("congestion", 1),
        ];
        let entries = scenario_statics();
        for (name, deduped) in expected {
            let entry = entries.iter().find(|e| e.name == name).unwrap();
            let (kept, stats) = witness_plan(entry);
            assert_eq!(
                stats.deduped_trials, deduped,
                "{name}: expected {deduped} deduped realizations"
            );
            assert_eq!(stats.distinct_classes as usize, kept.len(), "{name}");
            // Every kept pair really is class-distinct.
            let classes: std::collections::BTreeSet<u64> = kept
                .iter()
                .map(|s| ph_core::plan_class(&s.planned_schedule().unwrap()))
                .collect();
            assert_eq!(
                classes.len(),
                kept.len(),
                "{name}: duplicate class survived"
            );
        }
    }

    #[test]
    fn unguided_cycle_is_deterministic_per_trial() {
        let a = unguided_strategy(4, 99).name();
        let b = unguided_strategy(4, 99).name();
        assert_eq!(a, b);
    }
}

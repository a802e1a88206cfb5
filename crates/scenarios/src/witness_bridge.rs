//! From static witnesses to guided search: compiles the model checker's
//! minimal hazard witnesses into concrete perturbation schedules.
//!
//! The model checker ([`ph_lint::modelcheck`]) speaks in abstract letters
//! (`delay-cache(pods)`, `upstream-switch`, …) over the IR; the explorer
//! speaks in concrete injectors anchored to a scenario's keys, component
//! indices, and phase times. This module is the translation layer:
//!
//! 1. model-check the scenario's buggy summaries → minimal witnesses;
//! 2. compile witness schedules into ordered [`PriorShape`]s
//!    ([`ph_core::autoguide::witness_priors`]);
//! 3. realize each shape as the scenario-anchored injector(s) that
//!    perturb the run the way the abstract letter perturbs the model.
//!
//! Witness-guided exploration then tries these realizations *first*, in
//! witness order (shortest schedules lead), before falling back to the
//! unguided strategy cycle — measured in EXPERIMENTS.md E6 as a
//! trials-to-first-detection reduction on the scenario suite.

use ph_core::autoguide::{witness_priors, PriorShape};
use ph_core::parallel::derive_trial_seed;
use ph_core::perturb::Strategy;
use ph_lint::modelcheck::model_check_all;

use crate::common::Variant;
use crate::strategies::baseline;
use crate::StaticEntry;

/// The prior shapes the scenario's witnesses compile to, in witness order
/// (shortest schedule first). Empty when the model checker proves every
/// action epoch-safe.
pub fn scenario_prior_shapes(entry: &StaticEntry) -> Vec<PriorShape> {
    let summaries = (entry.summaries)(Variant::Buggy);
    let reports = model_check_all(&summaries);
    let witnesses: Vec<_> = reports.iter().flat_map(|r| r.witnesses()).collect();
    witness_priors(&witnesses)
}

/// Realizes one abstract shape as the concrete injectors of `entry`'s
/// scenario ([`crate::Scenario::realize`]).
///
/// The anchors (which cache, which key, which phase window) come from the
/// scenario's workload schedule — the same knowledge its tuned `guided`
/// injector uses; the *choice* of which perturbation family to anchor is
/// what the witness contributes. Shapes with no sensible realization in a
/// scenario (e.g. an upstream switch where every component is pinned)
/// yield nothing.
fn realize(entry: &StaticEntry, shape: &PriorShape) -> Vec<Box<dyn Strategy>> {
    let scenario = crate::lookup(entry.name).expect("a registered scenario");
    (scenario.realize)(shape)
}

/// Canonical-dedup census of one witness plan: how many distinct
/// [`ph_core::plan_class`] fingerprints the realized strategies span, and
/// how many realizations were dropped as duplicates of an already-planned
/// class — trials the guided hunt does *not* have to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WitnessPlanStats {
    /// Distinct canonical schedule classes among the kept strategies.
    pub distinct_classes: u32,
    /// Realizations dropped as canonical duplicates.
    pub deduped_trials: u32,
}

/// The ordered witness-derived strategies for `entry`, one representative
/// per canonical schedule class ([`ph_core::plan_class`] over each
/// strategy's planned ops), witness order preserved — several abstract
/// letters often concretize to the *same* injection (e.g. `delay-cache`
/// and `upstream-switch` both land the operator on the lagging
/// apiserver), and the fingerprint proves it instead of trusting display
/// names. Unplannable strategies fall back to name dedup.
pub fn witness_plan(entry: &StaticEntry) -> (Vec<Box<dyn Strategy>>, WitnessPlanStats) {
    let mut out: Vec<Box<dyn Strategy>> = Vec::new();
    let mut classes = std::collections::BTreeSet::new();
    let mut stats = WitnessPlanStats::default();
    for shape in scenario_prior_shapes(entry) {
        for s in realize(entry, &shape) {
            let keep = match s.planned_schedule() {
                Some(ops) => classes.insert(ph_core::plan_class(&ops)),
                None => !out.iter().any(|have| have.name() == s.name()),
            };
            if keep {
                stats.distinct_classes += 1;
                out.push(s);
            } else {
                stats.deduped_trials += 1;
            }
        }
    }
    (out, stats)
}

/// [`witness_plan`] without the census — the strategy list alone.
pub fn witness_strategies(entry: &StaticEntry) -> Vec<Box<dyn Strategy>> {
    witness_plan(entry).0
}

/// Every witness realization with **no** canonical dedup — the trial list
/// a hunt would burn without [`witness_plan`]'s class fingerprinting.
/// Exists for experiment E9 and the equivalence tests; hunts should use
/// [`witness_plan`].
pub fn witness_realizations(entry: &StaticEntry) -> Vec<Box<dyn Strategy>> {
    scenario_prior_shapes(entry)
        .iter()
        .flat_map(|shape| realize(entry, shape))
        .collect()
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
    let priors = witness_strategies(entry);
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
    first_detection(entry, budget, base_seed, |trial, seed| {
        unguided_strategy(trial, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_statics;

    #[test]
    fn every_buggy_scenario_compiles_to_at_least_one_strategy() {
        for entry in scenario_statics() {
            let shapes = scenario_prior_shapes(&entry);
            assert!(
                !shapes.is_empty(),
                "{}: buggy variant should produce witnesses",
                entry.name
            );
            let strategies = witness_strategies(&entry);
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
            let classes: Vec<Option<u64>> = kept
                .iter()
                .map(|s| s.planned_schedule().map(|ops| ph_core::plan_class(&ops)))
                .collect();
            for (i, a) in classes.iter().enumerate() {
                for b in &classes[i + 1..] {
                    if let (Some(a), Some(b)) = (a, b) {
                        assert_ne!(a, b, "{name}: duplicate class survived");
                    }
                }
            }
        }
    }

    #[test]
    fn unguided_cycle_is_deterministic_per_trial() {
        let a = unguided_strategy(4, 99).name();
        let b = unguided_strategy(4, 99).name();
        assert_eq!(a, b);
    }
}

//! The scenario registry: unique names, tolerant lookup, every listed
//! strategy buildable, and hunt targets derived from a scenario's value
//! equal to the ones its run builds. The component registry: the declared
//! access summaries name exactly the components a cluster spawns.
//!
//! The §7 detection matrix itself is `phtool repro T1`, pinned by
//! `tests/golden/repro/T1.txt`: every guided cell detects on trial 1 and
//! the no-fault control stays clean on every buggy variant.

use std::collections::BTreeSet;

use ph_cluster::topology::{access_summaries, declared_config, spawn_cluster};
use ph_core::perturb::{Strategy, Targets};
use ph_scenarios::{Variant, SCENARIOS, STRATEGIES};
use ph_sim::{World, WorldConfig};

#[test]
fn registry_names_are_unique_and_lookup_tolerates_either_spelling() {
    for (i, scenario) in SCENARIOS.iter().enumerate() {
        assert!(
            SCENARIOS[..i].iter().all(|s| s.name != scenario.name),
            "{} registered twice",
            scenario.name
        );
        assert_eq!(scenario.blame.scenario, scenario.name);
        let underscored = scenario.name.replace('-', "_");
        for spelling in [scenario.name, underscored.as_str()] {
            let found = ph_scenarios::lookup(spelling).map(|s| s.name);
            assert_eq!(found, Some(scenario.name), "{spelling}");
        }
        for strategy in STRATEGIES {
            // Every listed name builds (an unlisted one would panic here).
            scenario.strategy(strategy, 1);
        }
    }
    assert!(
        ph_scenarios::lookup("volume_17").is_none(),
        "lookup is not a prefix match"
    );
}

/// Records the targets a trial hands its strategy.
struct Spy(Option<Targets>);

impl Strategy for Spy {
    fn name(&self) -> String {
        "spy".into()
    }

    fn setup(&mut self, _world: &mut ph_sim::World, targets: &Targets) {
        self.0 = Some(targets.clone());
    }
}

/// The targets a causal hunt derives from a scenario's value are the
/// targets its run actually builds.
#[test]
fn derived_hunt_targets_equal_the_targets_a_run_builds() {
    for scenario in SCENARIOS {
        for seed in [1, 7] {
            let mut spy = Spy(None);
            scenario.run(seed, &mut spy, Variant::Buggy);
            let seen = spy.0.expect("the driver sets the strategy up");
            assert_eq!(
                format!("{:?}", scenario.targets(seed)),
                format!("{seen:?}"),
                "{} (seed {seed})",
                scenario.name
            );
        }
    }
}

/// Every component that keeps a view has a declared summary, and every
/// declared summary is a component the cluster spawns: with
/// [`declared_config`], the actors [`ph_cluster::ClusterHandle::views`]
/// walks, less the apiservers (the caches the components read, which
/// take no action of their own), are exactly the components its
/// [`access_summaries`] name.
#[test]
fn declared_summaries_name_exactly_the_spawned_components() {
    let cfg = declared_config();
    let mut world = World::new(WorldConfig::default(), 1);
    let cluster = spawn_cluster(&mut world, &cfg);
    let spawned: BTreeSet<&str> = (cluster.views())
        .filter(|(id, _)| !cluster.apiservers.contains(id))
        .map(|(id, _)| world.name_of(id))
        .collect();
    let summaries = access_summaries(&cfg);
    let declared: BTreeSet<&str> = summaries.iter().map(|s| s.component.as_str()).collect();
    assert_eq!(
        declared.len(),
        summaries.len(),
        "a component declared twice"
    );
    assert_eq!(spawned, declared);
}

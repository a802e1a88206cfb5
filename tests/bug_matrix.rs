//! The §7 detection matrix as a regression test.
//!
//! For every bug in the paper: the guided (pattern-tuned) perturbation
//! must detect it within a single trial on the buggy variant, must NOT
//! fire on the fixed variant, and the no-fault control must stay clean.
//! This is the executable form of the paper's claim that "our tool has
//! reproduced two known bugs in Kubernetes … and detected three new bugs
//! in a Kubernetes controller for Cassandra".

use ph_core::harness::{DetectionMatrix, Explorer};
use ph_core::perturb::{NoFault, Strategy, Targets};
use ph_scenarios::{k8s_59848, Variant, SCENARIOS, STRATEGIES};

#[test]
fn guided_injection_detects_every_bug_first_trial() {
    let explorer = Explorer {
        max_trials: 3,
        base_seed: 100,
    };
    let mut matrix = DetectionMatrix::new();
    for scenario in SCENARIOS {
        let name = scenario.name;
        let outcome = explorer.explore(
            name,
            &|seed, strategy| scenario.run(seed, strategy, Variant::Buggy),
            &|seed| (scenario.guided)(seed),
        );
        assert!(
            outcome.detected(),
            "{name}: guided strategy failed to detect within 3 trials"
        );
        assert_eq!(
            outcome.first_violation,
            Some(1),
            "{name}: guided strategy should hit on trial 1"
        );
        matrix.add(outcome);
    }
    let table = matrix.render();
    assert_eq!(table.matches("✓ 1").count(), SCENARIOS.len(), "{table}");
}

#[test]
fn fixed_variants_survive_every_guided_injection() {
    for scenario in SCENARIOS {
        for seed in [100, 101] {
            let mut strategy = (scenario.guided)(seed);
            let report = scenario.run(seed, strategy.as_mut(), Variant::Fixed);
            assert!(
                report.violations.is_empty(),
                "{} fixed variant violated under guided injection (seed {seed}): {:?}",
                scenario.name,
                report.violations
            );
        }
    }
}

#[test]
fn no_fault_control_is_clean_on_buggy_variants() {
    for scenario in SCENARIOS {
        let report = scenario.run(100, &mut NoFault, Variant::Buggy);
        assert!(
            report.violations.is_empty(),
            "{} violated without any fault injection: {:?}",
            scenario.name,
            report.violations
        );
    }
}

#[test]
fn reports_carry_reproduction_evidence() {
    let scenario = &k8s_59848::SCENARIO;
    let mut strategy = (scenario.guided)(100);
    let report = scenario.run(100, strategy.as_mut(), Variant::Buggy);
    assert!(report.failed());
    assert_eq!(report.scenario, scenario.name);
    assert_eq!(report.seed, 100);
    assert!(report.trace_events > 100, "trace should be substantial");
    assert!(report.sim_time.0 > 0);
    // The same seed reproduces the identical run.
    let mut strategy = (scenario.guided)(100);
    let again = scenario.run(100, strategy.as_mut(), Variant::Buggy);
    assert_eq!(report.trace_digest, again.trace_digest);
}

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

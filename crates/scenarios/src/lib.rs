//! # ph-scenarios — every bug the paper discusses, as a runnable scenario
//!
//! Each module encodes one real-world partial-history bug on the
//! `ph-cluster` stack, with a fixed deterministic workload schedule, the
//! oracles that detect it, the *guided* perturbation (the paper's §7 tool)
//! that triggers it, and the fixed-variant regression check:
//!
//! | Module | Real bug | Pattern (§4.2) |
//! |---|---|---|
//! | [`k8s_59848`] | Kubernetes-59848 | time traveling |
//! | [`k8s_56261`] | Kubernetes-56261 | missed event / staleness |
//! | [`volume_17`] | controller bug \[17\] | observability gap |
//! | [`cass_398`] | cassandra-operator-398 | observability gap across restart |
//! | [`cass_400`] | cassandra-operator-400 | stale view blocks scale-down |
//! | [`cass_402`] | cassandra-operator-402 | stale view deletes live data |
//! | [`hbase_3136`] | HBASE-3136 / 3137 | stale follower CAS |
//! | [`node_fencing`] | the class behind \[5\] (pod safety vs HA) | unobservable liveness |
//! | [`congestion`] | watch-feed saturation (no single ticket) | load-emergent staleness |
//!
//! [`common`] holds the shared runner; [`strategies`] holds the
//! payload-aware schedule builders scenarios tune (they extend the generic
//! `ph-core` ops with cluster-level knowledge); [`oracles`] holds
//! the ground-truth safety/liveness checks; [`experiments`] holds the
//! paper's figures and tables as checked, deterministic text
//! (`phtool repro`).
//!
//! A scenario is a value ([`Scenario`]): name, §4.2 class, blame spec,
//! the stack it runs on, its seeding and timed workload script, its
//! oracles, the tuned §7 injector and its witness realizations. One driver
//! ([`Scenario::run_traced`]) runs all of them, and [`SCENARIOS`] is the
//! one registry every tool, test and experiment loops over — adding a
//! scenario is one module plus one line of the `scenarios!` list below.

#![warn(missing_docs)]

pub mod cass_398;
pub mod cass_400;
pub mod cass_402;
pub mod common;
pub mod congestion;
pub mod experiments;
pub mod hbase_3136;
pub mod k8s_56261;
pub mod k8s_59848;
pub mod mega_cluster;
pub mod node_fencing;
pub mod oracles;
pub mod strategies;
pub mod volume_17;
pub mod witness_bridge;

pub use common::{Runner, Variant};
pub use strategies::STRATEGIES;

use ph_cluster::topology::{ClusterConfig, ClusterHandle};
use ph_core::crosscheck::{CrossCheckRow, CrossCheckTable};
use ph_core::divergence::DivergenceSummary;
use ph_core::harness::RunReport;
use ph_core::oracle::Oracle;
use ph_core::perturb::{Strategy, Targets};
use ph_core::provenance::BlameSpec;
use ph_lint::modelcheck::Letter;
use ph_lint::summary::{AccessSummary, PatternClass};
use ph_sim::{ActorId, Duration, Trace, World, WorldConfig};
use ph_store::StoreNode;

/// When every workload schedule starts: the stack is up and the clock
/// stands at exactly this time, so schedules are seed-independent.
pub const T0: Duration = Duration::secs(1);
/// The drive quantum of the workload scripts.
pub const QUANTUM: Duration = Duration::millis(10);
/// How long the system settles between the workload's end and the verdict.
const SETTLE: Duration = Duration::millis(500);

/// One partial-history bug, as data: everything the driver, the static
/// pass, the hunts and the blame slicer need to know about it.
pub struct Scenario {
    /// Name used in reports, matrices and on the command line.
    pub name: &'static str,
    /// The §4.2 class the buggy variant exercises.
    pub pattern: PatternClass,
    /// What the blame slicer needs: the acting component, its destructive
    /// action's labels (also a causal hunt's decision labels), its caches.
    pub blame: BlameSpec,
    /// Nominal length of the workload schedule (absolute sim time).
    pub horizon: Duration,
    /// The stack the bug lives on, with the script that exhibits it.
    pub stack: Stack,
    /// The tuned §7 injector for this scenario's schedule.
    pub guided: fn(u64) -> Box<dyn Strategy>,
    /// Realizes one abstract model-checker letter as schedules anchored to
    /// this scenario's keys, component indices and phase times (nothing for
    /// a letter with no sensible realization here); see [`witness_bridge`].
    pub realize: fn(&Letter) -> Vec<Box<dyn Strategy>>,
}

/// Where a scenario runs.
pub enum Stack {
    /// The full Figure-1 stack of `ph-cluster`.
    Cluster {
        /// The cluster a variant spawns — shared by the run and the static
        /// hazard pass, so the analysis sees exactly what executes.
        config: fn(Variant) -> ClusterConfig,
        /// Name prefix of the focal component(s), whose access summaries
        /// the static pass checks.
        focal: &'static str,
        /// Builds the initial state `S` before the strategy is set up.
        seed: fn(&mut Runner),
        /// The timed workload: seeds, deletes, crashes and drives only.
        workload: fn(&mut Runner, &mut dyn Strategy),
        /// The ground-truth checks evaluated after the run settles.
        oracles: fn(&ClusterHandle) -> Vec<Box<dyn Oracle>>,
    },
    /// A bare replicated store with the scenario's own client actors: no
    /// informer stack, so the follower a client reads from is the view.
    /// The workload is the actors' own; the driver only drives to the
    /// horizon.
    Store {
        /// Hand-written access summaries of the client actors.
        summaries: fn(Variant) -> Vec<AccessSummary>,
        /// Builds the world, ready at [`T0`].
        setup: fn(u64, Variant) -> StoreWorld,
        /// The checks evaluated after the run settles.
        oracles: fn() -> Vec<Box<dyn Oracle>>,
    },
}

/// What a [`Stack::Store`] scenario's set-up hands the driver.
pub struct StoreWorld {
    /// The world at [`T0`].
    pub world: World,
    /// `caches` are the followers clients read from; `notify_kinds` the
    /// replication stream (at this layer it *is* the view-update feed).
    pub targets: Targets,
    /// The node whose revision is the truth `|H|` the caches trail.
    pub truth: ActorId,
}

impl Scenario {
    /// Runs one trial under `strategy`.
    pub fn run(&self, seed: u64, strategy: &mut dyn Strategy, variant: Variant) -> RunReport {
        self.run_traced(seed, strategy, variant).0
    }

    /// Runs one trial and also hands back its full trace (for the blame
    /// slicer, the causal explorer and trace exports). This is the one
    /// driver: set the stack up, seed, set the strategy up, run the
    /// workload, settle, judge, blame.
    pub fn run_traced(
        &self,
        seed: u64,
        strategy: &mut dyn Strategy,
        variant: Variant,
    ) -> (RunReport, Trace) {
        let (mut report, trace) = match self.stack {
            Stack::Cluster {
                config,
                seed: seed_state,
                workload,
                oracles,
                ..
            } => {
                let mut runner = Runner::new(self.name, seed, &config(variant), T0, self.horizon);
                seed_state(&mut runner);
                strategy.setup(&mut runner.world, &runner.targets);
                workload(&mut runner, strategy);
                let mut oracles = oracles(&runner.cluster);
                runner.finish_with_trace(strategy, SETTLE, &mut oracles)
            }
            Stack::Store { setup, oracles, .. } => {
                let StoreWorld {
                    mut world,
                    targets,
                    truth,
                } = setup(seed, variant);
                strategy.setup(&mut world, &targets);
                common::drive(
                    &mut world,
                    strategy,
                    &targets,
                    self.horizon,
                    QUANTUM,
                    |_| {},
                );
                let report = common::finish(
                    &mut world,
                    self.name.to_string(),
                    seed,
                    strategy,
                    SETTLE,
                    &mut oracles(),
                    |world| {
                        let revision =
                            |n| Some(world.actor_ref::<StoreNode>(n)?.mvcc().revision().0);
                        let mut divergence = DivergenceSummary::new();
                        for &cache in targets.caches.iter() {
                            if let (Some(h), Some(view)) = (revision(truth), revision(cache)) {
                                divergence.record(world.name_of(cache), h.saturating_sub(view));
                            }
                        }
                        divergence
                    },
                );
                (report, world.take_trace())
            }
        };
        report.attach_blame(&trace, &self.blame);
        (report, trace)
    }

    /// Static access summaries of the focal component(s) under `variant`.
    pub fn summaries(&self, variant: Variant) -> Vec<AccessSummary> {
        match self.stack {
            Stack::Cluster { config, focal, .. } => {
                ph_cluster::topology::access_summaries(&config(variant))
                    .into_iter()
                    .filter(|s| s.component.starts_with(focal))
                    .collect()
            }
            Stack::Store { summaries, .. } => summaries(variant),
        }
    }

    /// The [`Targets`] a trial with this `seed` hands its strategy, without
    /// running one: what a causal hunt derives its candidates against.
    pub fn targets(&self, seed: u64) -> Targets {
        match self.stack {
            Stack::Cluster { config, .. } => {
                let mut world = World::new(WorldConfig::default(), seed);
                let cluster =
                    ph_cluster::topology::spawn_cluster(&mut world, &config(Variant::Buggy));
                common::targets_for(&cluster, self.horizon)
            }
            Stack::Store { setup, .. } => setup(seed, Variant::Buggy).targets,
        }
    }

    /// Builds one of [`STRATEGIES`] for a trial: this scenario's tuned
    /// injector for `guided`, else the generic baseline of that name.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`STRATEGIES`] (check user input against
    /// the table first).
    pub fn strategy(&self, name: &str, seed: u64) -> Box<dyn Strategy> {
        if name == "guided" {
            return (self.guided)(seed);
        }
        strategies::baseline(name, seed).unwrap_or_else(|| panic!("no strategy {name:?}"))
    }
}

/// One scenario as plain function pointers — the form the witness bridge
/// and external harnesses take, so a caller can substitute one hook (say,
/// a counting `run`) and keep the rest. [`scenario_statics`] derives one
/// per [`Scenario`].
pub struct StaticEntry {
    /// Scenario name.
    pub name: &'static str,
    /// The §4.2 class the buggy variant exercises.
    pub pattern: PatternClass,
    /// Focal components' access summaries under a variant.
    pub summaries: fn(Variant) -> Vec<AccessSummary>,
    /// One dynamic trial.
    pub run: fn(u64, &mut dyn Strategy, Variant) -> RunReport,
    /// One dynamic trial that also hands back the full trace (for the blame
    /// slicer and trace exports).
    pub run_traced: fn(u64, &mut dyn Strategy, Variant) -> (RunReport, Trace),
    /// What the blame slicer needs to know about this scenario.
    pub blame: fn() -> BlameSpec,
    /// The tuned guided injector.
    pub guided: fn(u64) -> Box<dyn Strategy>,
}

/// The registry: one line per scenario module, in canonical order. Yields
/// [`SCENARIOS`] and, from the same list, [`scenario_statics`].
macro_rules! scenarios {
    ($($module:ident),* $(,)?) => {
        /// Every scenario, in canonical order.
        pub static SCENARIOS: &[&Scenario] = &[$(&$module::SCENARIO),*];

        /// Every scenario's function-pointer entry, in canonical order.
        pub fn scenario_statics() -> Vec<StaticEntry> {
            vec![$(StaticEntry {
                name: $module::SCENARIO.name,
                pattern: $module::SCENARIO.pattern,
                summaries: |variant| $module::SCENARIO.summaries(variant),
                run: |seed, strategy, variant| $module::SCENARIO.run(seed, strategy, variant),
                run_traced: |seed, strategy, variant| {
                    $module::SCENARIO.run_traced(seed, strategy, variant)
                },
                blame: || $module::SCENARIO.blame,
                guided: $module::SCENARIO.guided,
            }),*]
        }
    };
}

scenarios! {
    k8s_59848,
    k8s_56261,
    volume_17,
    cass_398,
    cass_400,
    cass_402,
    hbase_3136,
    node_fencing,
    congestion,
}

/// Every scenario in name order — the order every listing and all-scenario
/// table prints.
pub fn by_name() -> Vec<&'static Scenario> {
    let mut all = SCENARIOS.to_vec();
    all.sort_by_key(|s| s.name);
    all
}

/// Looks a scenario up by name, tolerant of `_`/`-` spelling
/// (`k8s_59848` = `k8s-59848`).
pub fn lookup(name: &str) -> Option<&'static Scenario> {
    let dashed = name.replace('_', "-");
    SCENARIOS.iter().copied().find(|s| s.name == dashed)
}

/// Runs the static hazard pass over every scenario, with the bounded
/// model checker ([`ph_lint::modelcheck`]) as the one verdict source: each
/// buggy variant's summaries are explored for minimal hazard witnesses,
/// each fixed variant's must prove epoch-safe. `phtool lint`/`check` and
/// the E3 experiment render the result; the agreement test additionally
/// fills in the dynamic columns.
pub fn static_crosscheck() -> CrossCheckTable {
    let rows = SCENARIOS
        .iter()
        .map(|e| CrossCheckRow {
            scenario: e.name.to_string(),
            expected: e.pattern,
            buggy: ph_lint::modelcheck::model_check_all(&e.summaries(Variant::Buggy)),
            fixed: ph_lint::modelcheck::model_check_all(&e.summaries(Variant::Fixed)),
            dynamic_buggy_detected: None,
            dynamic_fixed_clean: None,
            missing_static: Vec::new(),
        })
        .collect();
    CrossCheckTable { rows }
}

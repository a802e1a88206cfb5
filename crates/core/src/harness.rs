//! The explorer: run scenarios under strategies, count trials-to-detection.
//!
//! This is the outer loop of the §7 tool. A *scenario* is any function
//! `fn(seed, &mut dyn Strategy) -> RunReport` (the `ph-scenarios` crate
//! provides one per bug); a *strategy factory* builds a fresh strategy per
//! trial (random strategies get the trial seed). The [`Explorer`] runs
//! trials until the first violation or the budget is exhausted, and the
//! results aggregate into a [`DetectionMatrix`] — the reproduction of the
//! paper's §7 claims ("our tool has reproduced two known bugs … and
//! detected three new bugs") plus the §5/§6.1 guided-vs-random comparison.

use ph_lint::json;
use ph_sim::{MetricsReport, SimTime, Trace};

use crate::divergence::DivergenceSummary;
use crate::oracle::Violation;
use crate::perturb::Strategy;
use crate::provenance::{self, BlameSpec, BlameSummary};

/// The outcome of one simulated run of a scenario under a strategy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Strategy name.
    pub strategy: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Violations detected by the scenario's oracles.
    pub violations: Vec<Violation>,
    /// Logical time at which the run ended.
    pub sim_time: SimTime,
    /// Number of trace events (run size).
    pub trace_events: usize,
    /// Order-sensitive digest of the trace (for replay verification).
    pub trace_digest: u64,
    /// Deterministic metrics snapshot (counters, gauges, histograms) taken
    /// at the end of the run.
    pub metrics: MetricsReport,
    /// Sampled per-view lag (`|H| − |H′|`) over the run.
    pub divergence: DivergenceSummary,
    /// Compact blame-chain summary for failing runs (set by scenarios that
    /// know their [`BlameSpec`]; `None` for passing runs).
    pub blame: Option<BlameSummary>,
}

impl RunReport {
    /// `true` if any oracle fired.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Computes and attaches the blame-chain summary for a failing run
    /// (no-op on passing runs: a clean trace has nothing to blame).
    pub fn attach_blame(&mut self, trace: &Trace, spec: &BlameSpec) {
        if self.failed() {
            self.blame = Some(provenance::explain(trace, spec, &self.violations).summary());
        }
    }

    /// Renders the full report as deterministic JSON (key order fixed, no
    /// wall-clock anywhere) — the `phtool run --json` payload.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("scenario", &self.scenario)
                .str("strategy", &self.strategy)
                .val("seed", self.seed)
                .val("sim_time_ns", self.sim_time.0)
                .val("trace_events", self.trace_events)
                .str_fmt("trace_digest", format_args!("{:#018x}", self.trace_digest));
            o.raws("violations", self.violations.iter().map(Violation::to_json))
                .raw("metrics", &self.metrics.to_json())
                .raw("divergence", &self.divergence.to_json());
            match &self.blame {
                Some(b) => {
                    o.obj("blame")
                        .str("class", b.class.as_str())
                        .val("links", b.links)
                        .val("injected", b.injected)
                        .val("in_chain", b.in_chain);
                }
                None => {
                    o.null("blame");
                }
            }
        })
    }
}

/// A scenario under exploration: builds and runs one trial. `Sync`
/// because pool workers call it (plain `fn` pointers qualify).
pub type ScenarioFn<'a> = dyn Fn(u64, &mut dyn Strategy) -> RunReport + Sync + 'a;

/// Builds a fresh strategy for a trial seed; `Sync` like [`ScenarioFn`].
pub type StrategyFactory<'a> = dyn Fn(u64) -> Box<dyn Strategy> + Sync + 'a;

/// Result of exploring one (scenario, strategy) cell.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Strategy name (from the first built strategy).
    pub strategy: String,
    /// Trials actually executed (canonical-schedule duplicates are
    /// skipped and counted in [`TrialOutcome::deduped_trials`] instead).
    pub trials_run: u32,
    /// Distinct canonical schedule classes among the considered trials
    /// ([`crate::canon::plan_class`] over each trial's planned schedule;
    /// a strategy that plans no schedule counts as its own class).
    pub distinct_classes: u32,
    /// Trials skipped because their (canonical class, seed) pair already
    /// ran — provably identical runs whose verdict is already known.
    pub deduped_trials: u32,
    /// 1-based index of the first failing trial (numbered over
    /// *considered* trials, so seeds and indices match the non-deduped
    /// explorer), `None` if none failed.
    pub first_violation: Option<u32>,
    /// The failing run's report (evidence), if any.
    pub example: Option<RunReport>,
    /// Total trace events across all trials (effort proxy).
    pub total_events: u64,
    /// Total simulated nanoseconds across all trials (effort proxy).
    pub total_sim_ns: u64,
    /// Per-trial simulated nanoseconds of the executed trials, in trial
    /// order — the raw samples behind [`TrialOutcome::trial_latency`].
    pub trial_sim_ns: Vec<u64>,
}

impl TrialOutcome {
    /// `true` if the bug was detected within budget.
    pub fn detected(&self) -> bool {
        self.first_violation.is_some()
    }
}

/// Runs trials of a scenario under strategies.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Maximum trials per (scenario, strategy) cell.
    pub max_trials: u32,
    /// Root seed; trial `t` uses
    /// [`crate::parallel::derive_trial_seed`]`(base_seed, t)`.
    pub base_seed: u64,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer {
            max_trials: 20,
            base_seed: 0x5EED,
        }
    }
}

impl Explorer {
    /// The seed of trial `t` (0-based): positional splitmix64 derivation,
    /// so every worker agrees on every trial's seed regardless of
    /// execution order.
    pub fn trial_seed(&self, t: u32) -> u64 {
        crate::parallel::derive_trial_seed(self.base_seed, t)
    }

    /// [`Explorer::explore_parallel`] on one worker, which runs inline on
    /// the calling thread.
    pub fn explore(
        &self,
        scenario_name: &str,
        scenario: &ScenarioFn<'_>,
        factory: &StrategyFactory<'_>,
    ) -> TrialOutcome {
        self.explore_parallel(1, scenario_name, scenario, factory)
    }
}

/// A detection matrix: scenarios × strategies, as reported in
/// EXPERIMENTS.md (Table 1 / Table 2).
#[derive(Debug, Default, Clone)]
pub struct DetectionMatrix {
    cells: Vec<TrialOutcome>,
}

impl DetectionMatrix {
    /// An empty matrix.
    pub fn new() -> DetectionMatrix {
        DetectionMatrix::default()
    }

    /// Adds one explored cell.
    pub fn add(&mut self, outcome: TrialOutcome) {
        self.cells.push(outcome);
    }

    /// All cells.
    pub fn cells(&self) -> &[TrialOutcome] {
        &self.cells
    }

    /// The cell for a given scenario/strategy pair.
    pub fn cell(&self, scenario: &str, strategy: &str) -> Option<&TrialOutcome> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.strategy == strategy)
    }

    /// Renders the matrix as an aligned text table:
    /// `✓ n` = detected on trial n, `✗` = not detected within budget.
    pub fn render(&self) -> String {
        let mut scenarios: Vec<&str> = self.cells.iter().map(|c| c.scenario.as_str()).collect();
        scenarios.dedup();
        let mut strategies: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !strategies.contains(&c.strategy.as_str()) {
                strategies.push(&c.strategy);
            }
        }
        let first_col = scenarios
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(8)
            .max("scenario".len());
        let widths: Vec<usize> = strategies.iter().map(|s| s.len().max(6)).collect();

        let mut out = String::new();
        out.push_str(&format!("{:<first_col$}", "scenario"));
        for (s, w) in strategies.iter().zip(&widths) {
            out.push_str(&format!("  {s:>w$}"));
        }
        out.push('\n');
        for sc in scenarios {
            out.push_str(&format!("{sc:<first_col$}"));
            for (st, w) in strategies.iter().zip(&widths) {
                let cell = match self.cell(sc, st) {
                    Some(c) => match c.first_violation {
                        Some(n) => format!("✓ {n}"),
                        None => "✗".to_string(),
                    },
                    None => "-".to_string(),
                };
                out.push_str(&format!("  {cell:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::{NoFault, Targets};
    use ph_sim::World;

    /// A fake scenario that "fails" iff the strategy name contains `magic`
    /// and the seed is odd.
    fn fake_scenario(magic: &'static str) -> impl Fn(u64, &mut dyn Strategy) -> RunReport {
        move |seed, strategy| {
            let fails = strategy.name().contains(magic) && seed % 2 == 1;
            RunReport {
                scenario: "fake".into(),
                strategy: strategy.name(),
                seed,
                violations: if fails {
                    vec![Violation {
                        oracle: "o".into(),
                        at: SimTime(1),
                        details: "boom".into(),
                    }]
                } else {
                    Vec::new()
                },
                sim_time: SimTime(1),
                trace_events: 10,
                trace_digest: seed,
                metrics: MetricsReport::default(),
                divergence: DivergenceSummary::default(),
                blame: None,
            }
        }
    }

    struct Named(&'static str);
    impl Strategy for Named {
        fn name(&self) -> String {
            self.0.into()
        }
    }

    #[test]
    fn explorer_stops_at_first_violation() {
        let ex = Explorer {
            max_trials: 10,
            base_seed: 0,
        };
        // Trial seeds are derived (splitmix64), so compute which trial
        // first draws an odd seed rather than hardcoding it.
        let first_odd = (0..10)
            .find(|&t| ex.trial_seed(t) % 2 == 1)
            .expect("some odd seed within 10 trials");
        let out = ex.explore("fake", &fake_scenario("magic"), &|_s| {
            Box::new(Named("magic-strategy"))
        });
        assert!(out.detected());
        assert_eq!(out.first_violation, Some(first_odd + 1));
        assert_eq!(out.trials_run, first_odd + 1);
        assert_eq!(out.total_events, 10 * (first_odd as u64 + 1));
        assert!(out.example.as_ref().is_some_and(|r| r.failed()));
    }

    #[test]
    fn explorer_exhausts_budget_without_detection() {
        let ex = Explorer {
            max_trials: 5,
            base_seed: 0,
        };
        let out = ex.explore("fake", &fake_scenario("magic"), &|_s| {
            Box::new(Named("dud"))
        });
        assert!(!out.detected());
        assert_eq!(out.trials_run, 5);
        assert!(out.example.is_none());
    }

    #[test]
    fn matrix_renders_all_cells() {
        let ex = Explorer {
            max_trials: 4,
            base_seed: 0,
        };
        let mut m = DetectionMatrix::new();
        m.add(ex.explore("fake", &fake_scenario("magic"), &|_s| {
            Box::new(Named("magic"))
        }));
        m.add(ex.explore("fake", &fake_scenario("magic"), &|_s| {
            Box::new(Named("dud"))
        }));
        let table = m.render();
        let first_odd = (0..4)
            .find(|&t| ex.trial_seed(t) % 2 == 1)
            .expect("some odd seed within 4 trials");
        assert!(table.contains("scenario"));
        assert!(table.contains("magic"));
        assert!(table.contains(&format!("✓ {}", first_odd + 1)));
        assert!(table.contains('✗'));
        assert!(m.cell("fake", "magic").expect("cell").detected());
        assert!(!m.cell("fake", "dud").expect("cell").detected());
        assert!(m.cell("fake", "nope").is_none());
    }

    #[test]
    fn default_strategy_hooks_are_noops() {
        // Strategy's default setup/tick do nothing and must not disturb a
        // world (compile-and-run smoke check for the trait defaults).
        let mut w = World::new(ph_sim::WorldConfig::default(), 1);
        let t = Targets::default();
        let mut s = NoFault;
        s.setup(&mut w, &t);
        s.tick(&mut w, &t);
        s.teardown(&mut w);
        assert_eq!(w.trace().len(), 0);
    }
}

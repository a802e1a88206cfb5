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

use ph_lint::findings::esc;
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
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"oracle\":\"{}\",\"at_ns\":{},\"details\":\"{}\"}}",
                    esc(&v.oracle),
                    v.at.0,
                    esc(&v.details)
                )
            })
            .collect();
        let blame = match &self.blame {
            Some(b) => format!(
                "{{\"class\":\"{}\",\"links\":{},\"injected\":{},\"in_chain\":{}}}",
                b.class.as_str(),
                b.links,
                b.injected,
                b.in_chain
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"seed\":{},\"sim_time_ns\":{},\
             \"trace_events\":{},\"trace_digest\":\"{:#018x}\",\"violations\":[{}],\
             \"metrics\":{},\"divergence\":{},\"blame\":{}}}",
            esc(&self.scenario),
            esc(&self.strategy),
            self.seed,
            self.sim_time.0,
            self.trace_events,
            self.trace_digest,
            violations.join(","),
            self.metrics.to_json(),
            self.divergence.to_json(),
            blame,
        )
    }
}

/// A scenario under exploration: builds and runs one trial.
pub type ScenarioFn<'a> = dyn Fn(u64, &mut dyn Strategy) -> RunReport + 'a;

/// Builds a fresh strategy for a trial seed.
pub type StrategyFactory<'a> = dyn Fn(u64) -> Box<dyn Strategy> + 'a;

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
    /// Per-trial simulated nanoseconds, in trial order — the raw samples
    /// behind the hunt-telemetry latency histograms
    /// ([`crate::telemetry::HuntReport`]).
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
    /// shared with [`Explorer::explore_parallel`] so both paths agree on
    /// every trial's seed regardless of execution order.
    pub fn trial_seed(&self, t: u32) -> u64 {
        crate::parallel::derive_trial_seed(self.base_seed, t)
    }

    /// Runs up to `max_trials` trials, stopping at the first violation.
    ///
    /// Trials whose (canonical schedule class, seed) pair already ran are
    /// skipped: with identical planned injections *and* an identical root
    /// seed the run is bit-for-bit the same simulation, so its verdict is
    /// already known — the dedup is verdict-preserving by construction.
    /// The seed stays in the key because scenario workloads are
    /// seed-sensitive (jitter derives from the trial seed): equal plans
    /// under different seeds are genuinely different runs and both
    /// execute. Strategies without a planned schedule (the random
    /// baselines) are never deduplicated.
    pub fn explore(
        &self,
        scenario_name: &str,
        scenario: &ScenarioFn<'_>,
        factory: &StrategyFactory<'_>,
    ) -> TrialOutcome {
        let mut strategy_name = String::new();
        let mut total_events = 0u64;
        let mut total_sim_ns = 0u64;
        let mut trial_sim_ns = Vec::new();
        let mut classes: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut ran: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
        let mut distinct_classes = 0u32;
        let mut deduped_trials = 0u32;
        let mut executed = 0u32;
        for t in 0..self.max_trials {
            let seed = self.trial_seed(t);
            let mut strategy = factory(seed);
            if t == 0 {
                strategy_name = strategy.name();
            }
            match strategy.planned_schedule() {
                Some(ops) => {
                    let class = crate::canon::plan_class(&ops);
                    if classes.insert(class) {
                        distinct_classes += 1;
                    }
                    if !ran.insert((class, seed)) {
                        deduped_trials += 1;
                        continue;
                    }
                }
                None => distinct_classes += 1,
            }
            executed += 1;
            let report = scenario(seed, strategy.as_mut());
            total_events += report.trace_events as u64;
            total_sim_ns += report.sim_time.0;
            trial_sim_ns.push(report.sim_time.0);
            if report.failed() {
                return TrialOutcome {
                    scenario: scenario_name.to_string(),
                    strategy: strategy_name,
                    trials_run: executed,
                    distinct_classes,
                    deduped_trials,
                    first_violation: Some(t + 1),
                    example: Some(report),
                    total_events,
                    total_sim_ns,
                    trial_sim_ns,
                };
            }
        }
        TrialOutcome {
            scenario: scenario_name.to_string(),
            strategy: strategy_name,
            trials_run: executed,
            distinct_classes,
            deduped_trials,
            first_violation: None,
            example: None,
            total_events,
            total_sim_ns,
            trial_sim_ns,
        }
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

    /// Renders the exploration *effort* behind each cell: trials run, trace
    /// events generated, and simulated time burned. Companion to
    /// [`DetectionMatrix::render`] — that table says *whether* a strategy
    /// finds a bug; this one says what it cost.
    pub fn render_effort(&self) -> String {
        let first_col = self
            .cells
            .iter()
            .map(|c| c.scenario.len() + c.strategy.len() + 3)
            .max()
            .unwrap_or(8)
            .max("cell".len());
        let mut out = format!(
            "{:<first_col$}  {:>7}  {:>12}  {:>12}  {:>10}  {:>17}\n",
            "cell", "trials", "events", "sim-time", "detected", "blame"
        );
        for c in &self.cells {
            let label = format!("{} / {}", c.scenario, c.strategy);
            let sim = format!("{:.3}s", c.total_sim_ns as f64 / 1e9);
            let det = match c.first_violation {
                Some(n) => format!("trial {n}"),
                None => "no".to_string(),
            };
            let blame = c
                .example
                .as_ref()
                .and_then(|r| r.blame.as_ref())
                .map(|b| b.class.as_str())
                .unwrap_or("-");
            out.push_str(&format!(
                "{label:<first_col$}  {:>7}  {:>12}  {sim:>12}  {det:>10}  {blame:>17}\n",
                c.trials_run, c.total_events,
            ));
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

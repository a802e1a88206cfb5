//! Hunt telemetry: the explorer, observed.
//!
//! The §7 tool is itself a distributed-systems workload — trials, strategies,
//! events, simulated time — and this module makes it observable. A
//! [`HuntReport`] aggregates one [`StrategyStats`] row per explored
//! (scenario, strategy) cell: trial counters, per-trial sim-time latency
//! histograms, events per simulated second, time-to-detection, and the
//! paper's "perturb causally related events" heuristic made measurable —
//! *injection effectiveness*, the fraction of injected perturbations that
//! appear in the violation's blame chain ([`crate::provenance`]).
//!
//! The report renders as a text table and as Prometheus text-exposition
//! format (`to_prometheus`), so the planned `phtool serve` has a scrape
//! body ready-made. Everything is a pure function of the trial outcomes:
//! byte-identical across same-seed runs and thread counts.

use std::fmt::Write as _;

use ph_sim::{Histogram, DEFAULT_LATENCY_BOUNDS_NS};

use crate::harness::TrialOutcome;
use crate::provenance::BlameSummary;

/// Telemetry for one explored (scenario, strategy) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyStats {
    /// Scenario name.
    pub scenario: String,
    /// Strategy name.
    pub strategy: String,
    /// Trials executed.
    pub trials: u32,
    /// Distinct canonical schedule classes among the considered trials.
    pub distinct_classes: u32,
    /// Trials skipped as canonical-schedule duplicates of an already-run
    /// (class, seed) pair.
    pub deduped_trials: u32,
    /// 1-based index of the first violating trial, if any.
    pub first_violation: Option<u32>,
    /// Total trace events generated across all trials.
    pub total_events: u64,
    /// Total simulated nanoseconds across all trials.
    pub total_sim_ns: u64,
    /// Cumulative simulated nanoseconds burned until (and including) the
    /// first violating trial — the time-to-detection, in the only clock the
    /// simulator has.
    pub time_to_detection_ns: Option<u64>,
    /// Distribution of per-trial simulated run lengths.
    pub trial_latency: Histogram,
    /// Injected perturbation artifacts in the violating run, if one exists.
    pub injected: u64,
    /// Of those, how many appeared in the blame chain.
    pub in_chain: u64,
}

impl StrategyStats {
    /// Builds one row from a harness [`TrialOutcome`]; blame numbers come
    /// from the example report's attached [`BlameSummary`], when present.
    pub fn from_outcome(outcome: &TrialOutcome) -> StrategyStats {
        let mut trial_latency = Histogram::new(&DEFAULT_LATENCY_BOUNDS_NS);
        let mut time_to_detection_ns = None;
        let mut cumulative = 0u64;
        for (t, &ns) in outcome.trial_sim_ns.iter().enumerate() {
            trial_latency.observe(ns);
            cumulative += ns;
            if Some(t as u32 + 1) == outcome.first_violation {
                time_to_detection_ns = Some(cumulative);
            }
        }
        let blame: Option<BlameSummary> = outcome.example.as_ref().and_then(|r| r.blame);
        StrategyStats {
            scenario: outcome.scenario.clone(),
            strategy: outcome.strategy.clone(),
            trials: outcome.trials_run,
            distinct_classes: outcome.distinct_classes,
            deduped_trials: outcome.deduped_trials,
            first_violation: outcome.first_violation,
            total_events: outcome.total_events,
            total_sim_ns: outcome.total_sim_ns,
            time_to_detection_ns,
            trial_latency,
            injected: blame.map(|b| b.injected as u64).unwrap_or(0),
            in_chain: blame.map(|b| b.in_chain as u64).unwrap_or(0),
        }
    }

    /// Trace events per simulated second (integer, deterministic); 0 when
    /// no simulated time elapsed.
    pub fn events_per_sim_sec(&self) -> u64 {
        self.total_events
            .saturating_mul(1_000_000_000)
            .checked_div(self.total_sim_ns)
            .unwrap_or(0)
    }

    /// Injection effectiveness as an integer percentage (floor), or `None`
    /// when the cell has no violating run or nothing was injected.
    pub fn effectiveness_pct(&self) -> Option<u64> {
        (self.in_chain * 100).checked_div(self.injected)
    }
}

/// Aggregated telemetry across every explored cell of a hunt or matrix.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HuntReport {
    rows: Vec<StrategyStats>,
}

impl HuntReport {
    /// An empty report.
    pub fn new() -> HuntReport {
        HuntReport::default()
    }

    /// Builds a report from a batch of trial outcomes, preserving order.
    pub fn from_outcomes<'a>(outcomes: impl IntoIterator<Item = &'a TrialOutcome>) -> HuntReport {
        HuntReport {
            rows: outcomes
                .into_iter()
                .map(StrategyStats::from_outcome)
                .collect(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: StrategyStats) {
        self.rows.push(row);
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[StrategyStats] {
        &self.rows
    }

    /// `true` with no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table, one row per cell.
    pub fn render(&self) -> String {
        let first_col = self
            .rows
            .iter()
            .map(|r| r.scenario.len() + r.strategy.len() + 3)
            .max()
            .unwrap_or(8)
            .max("cell".len());
        let mut out = format!(
            "{:<first_col$}  {:>6}  {:>7}  {:>7}  {:>9}  {:>12}  {:>9}  {:>9}  {:>7}\n",
            "cell",
            "trials",
            "classes",
            "deduped",
            "events",
            "events/sim-s",
            "p95-trial",
            "detect",
            "inj-eff"
        );
        for r in &self.rows {
            let label = format!("{} / {}", r.scenario, r.strategy);
            let p95 = human_ns(r.trial_latency.quantile(0.95));
            let ttd = match r.time_to_detection_ns {
                Some(ns) => human_ns(ns),
                None => "-".to_string(),
            };
            let eff = match r.effectiveness_pct() {
                Some(p) => format!("{p}%"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{label:<first_col$}  {:>6}  {:>7}  {:>7}  {:>9}  {:>12}  {p95:>9}  {ttd:>9}  \
                 {eff:>7}",
                r.trials,
                r.distinct_classes,
                r.deduped_trials,
                r.total_events,
                r.events_per_sim_sec(),
            );
        }
        out
    }

    /// Renders the report in Prometheus text-exposition format (counters,
    /// gauges and one cumulative histogram per cell), deterministically:
    /// rows in insertion order, fixed label order, no timestamps.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels =
            |r: &StrategyStats| format!("scenario=\"{}\",strategy=\"{}\"", r.scenario, r.strategy);
        out.push_str("# HELP ph_hunt_trials_total Trials executed per (scenario, strategy).\n");
        out.push_str("# TYPE ph_hunt_trials_total counter\n");
        for r in &self.rows {
            let _ = writeln!(out, "ph_hunt_trials_total{{{}}} {}", labels(r), r.trials);
        }
        out.push_str(
            "# HELP ph_hunt_distinct_classes Distinct canonical schedule classes considered \
             per cell.\n",
        );
        out.push_str("# TYPE ph_hunt_distinct_classes gauge\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "ph_hunt_distinct_classes{{{}}} {}",
                labels(r),
                r.distinct_classes
            );
        }
        out.push_str(
            "# HELP ph_hunt_deduped_trials_total Trials skipped as canonical-schedule \
             duplicates per cell.\n",
        );
        out.push_str("# TYPE ph_hunt_deduped_trials_total counter\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "ph_hunt_deduped_trials_total{{{}}} {}",
                labels(r),
                r.deduped_trials
            );
        }
        out.push_str("# HELP ph_hunt_events_total Trace events generated per cell.\n");
        out.push_str("# TYPE ph_hunt_events_total counter\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "ph_hunt_events_total{{{}}} {}",
                labels(r),
                r.total_events
            );
        }
        out.push_str("# HELP ph_hunt_events_per_sim_second Trace events per simulated second.\n");
        out.push_str("# TYPE ph_hunt_events_per_sim_second gauge\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "ph_hunt_events_per_sim_second{{{}}} {}",
                labels(r),
                r.events_per_sim_sec()
            );
        }
        out.push_str(
            "# HELP ph_hunt_time_to_detection_ns Simulated ns burned until the first \
             violating trial (absent if none).\n",
        );
        out.push_str("# TYPE ph_hunt_time_to_detection_ns gauge\n");
        for r in &self.rows {
            if let Some(ns) = r.time_to_detection_ns {
                let _ = writeln!(out, "ph_hunt_time_to_detection_ns{{{}}} {ns}", labels(r));
            }
        }
        out.push_str(
            "# HELP ph_hunt_injection_effectiveness_pct Percent of injected perturbations \
             appearing in the violation's blame chain.\n",
        );
        out.push_str("# TYPE ph_hunt_injection_effectiveness_pct gauge\n");
        for r in &self.rows {
            if let Some(p) = r.effectiveness_pct() {
                let _ = writeln!(
                    out,
                    "ph_hunt_injection_effectiveness_pct{{{}}} {p}",
                    labels(r)
                );
            }
        }
        out.push_str("# HELP ph_hunt_trial_sim_ns Per-trial simulated run length.\n");
        out.push_str("# TYPE ph_hunt_trial_sim_ns histogram\n");
        for r in &self.rows {
            let l = labels(r);
            let mut cumulative = 0u64;
            for (i, &c) in r.trial_latency.counts.iter().enumerate() {
                cumulative += c;
                match r.trial_latency.bounds.get(i) {
                    Some(&b) => {
                        let _ = writeln!(
                            out,
                            "ph_hunt_trial_sim_ns_bucket{{{l},le=\"{b}\"}} {cumulative}"
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "ph_hunt_trial_sim_ns_bucket{{{l},le=\"+Inf\"}} {cumulative}"
                        );
                    }
                }
            }
            let _ = writeln!(
                out,
                "ph_hunt_trial_sim_ns_sum{{{l}}} {}",
                r.trial_latency.sum
            );
            let _ = writeln!(
                out,
                "ph_hunt_trial_sim_ns_count{{{l}}} {}",
                r.trial_latency.count
            );
        }
        out
    }
}

/// Simulated nanoseconds in the largest unit that keeps the value at or
/// above 1, to two decimals with trailing zeros dropped: `7.5 s`,
/// `120 ms`, `1.23 us`. Integer arithmetic only (floors), so the table
/// stays deterministic.
fn human_ns(ns: u64) -> String {
    let (unit, name) = match ns {
        1_000_000_000.. => (1_000_000_000, "s"),
        1_000_000.. => (1_000_000, "ms"),
        1_000.. => (1_000, "us"),
        _ => (1, "ns"),
    };
    let hundredths = (ns % unit) * 100 / unit;
    let whole = ns / unit;
    match (hundredths / 10, hundredths % 10) {
        (0, 0) => format!("{whole} {name}"),
        (tenths, 0) => format!("{whole}.{tenths} {name}"),
        _ => format!("{whole}.{hundredths:02} {name}"),
    }
}

/// Prints the Prometheus exposition to stdout — the metrics endpoint body
/// the planned `phtool serve` will return; until then, pipe it to a file
/// or node-exporter textfile collector.
pub fn print_prometheus(report: &HuntReport) {
    // ph-lint: allow(stray-print, the Prometheus text exposition IS this writer's output stream)
    println!("{}", report.to_prometheus());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TrialOutcome;

    fn outcome(first: Option<u32>) -> TrialOutcome {
        TrialOutcome {
            scenario: "s".into(),
            strategy: "guided".into(),
            trials_run: 3,
            distinct_classes: 2,
            deduped_trials: 1,
            first_violation: first,
            example: None,
            total_events: 300,
            total_sim_ns: 3_000_000_000,
            trial_sim_ns: vec![1_000_000_000; 3],
        }
    }

    #[test]
    fn stats_derive_rates_and_detection_time() {
        let s = StrategyStats::from_outcome(&outcome(Some(2)));
        assert_eq!(s.trials, 3);
        assert_eq!(s.distinct_classes, 2);
        assert_eq!(s.deduped_trials, 1);
        assert_eq!(s.events_per_sim_sec(), 100);
        assert_eq!(s.time_to_detection_ns, Some(2_000_000_000));
        assert_eq!(s.trial_latency.count, 3);
        assert_eq!(s.effectiveness_pct(), None, "no blame attached");
    }

    #[test]
    fn undetected_cells_have_no_detection_time() {
        let s = StrategyStats::from_outcome(&outcome(None));
        assert_eq!(s.time_to_detection_ns, None);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_typed() {
        let outcomes = [outcome(Some(1)), outcome(None)];
        let r = HuntReport::from_outcomes(outcomes.iter());
        let prom = r.to_prometheus();
        assert_eq!(
            prom,
            HuntReport::from_outcomes(outcomes.iter()).to_prometheus()
        );
        assert!(prom.contains("# TYPE ph_hunt_trials_total counter"));
        assert!(prom.contains("ph_hunt_trials_total{scenario=\"s\",strategy=\"guided\"} 3"));
        assert!(prom.contains("# TYPE ph_hunt_distinct_classes gauge"));
        assert!(prom.contains("ph_hunt_distinct_classes{scenario=\"s\",strategy=\"guided\"} 2"));
        assert!(prom.contains("# TYPE ph_hunt_deduped_trials_total counter"));
        assert!(prom.contains("ph_hunt_deduped_trials_total{scenario=\"s\",strategy=\"guided\"} 1"));
        assert!(prom.contains("le=\"+Inf\""));
        assert!(prom.contains("ph_hunt_trial_sim_ns_count{scenario=\"s\",strategy=\"guided\"} 3"));
        // Both rows appear; the undetected one contributes no detection gauge.
        assert_eq!(prom.matches("ph_hunt_time_to_detection_ns{").count(), 1);
    }

    #[test]
    fn render_is_a_table_with_one_row_per_cell() {
        let outcomes = [outcome(Some(1)), outcome(None)];
        let r = HuntReport::from_outcomes(outcomes.iter());
        let text = r.render();
        assert!(text.contains("cell"));
        assert!(text.contains("inj-eff"));
        assert_eq!(text.lines().count(), 3);
        // Durations carry their unit; the rate says which clock it is per.
        assert!(text.contains("events/sim-s") && !text.contains("-ns"));
        let detected = text.lines().nth(1).expect("first row");
        let cols: Vec<&str> = detected.split_whitespace().collect();
        assert!(cols.ends_with(&["1", "s", "-"]), "{detected:?}");
    }

    #[test]
    fn durations_render_in_the_largest_fitting_unit() {
        for (ns, want) in [
            (0, "0 ns"),
            (999, "999 ns"),
            (1_230, "1.23 us"),
            (120_000_000, "120 ms"),
            (7_500_000_000, "7.5 s"),
            (10_000_000_000, "10 s"),
            (1_005_000_000, "1 s"),
            (1_050_000_000, "1.05 s"),
            (3_600_000_000_000, "3600 s"),
        ] {
            assert_eq!(human_ns(ns), want);
        }
    }
}

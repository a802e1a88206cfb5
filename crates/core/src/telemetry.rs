//! Hunt telemetry: the explorer, observed.
//!
//! The §7 tool is itself a distributed-systems workload — trials, strategies,
//! events, simulated time — and this module makes it observable. Every
//! explored (scenario, strategy) cell is a [`TrialOutcome`], and the values
//! derived from it are its methods here: the per-trial sim-time latency
//! histogram, events per simulated second, time-to-detection, and the
//! paper's "perturb causally related events" heuristic made measurable —
//! *injection effectiveness*, the fraction of injected perturbations that
//! appear in the violation's blame chain ([`crate::provenance`]).
//!
//! A [`DetectionMatrix`] renders its cells as a text table
//! ([`DetectionMatrix::render_telemetry`]) and as Prometheus text-exposition
//! format ([`DetectionMatrix::to_prometheus`]), so the planned `phtool
//! serve` has a scrape body ready-made. Everything is a pure function of the
//! trial outcomes: byte-identical across same-seed runs and thread counts.

use std::fmt::Write as _;

use ph_sim::metrics::{prometheus_family, prometheus_sample};
use ph_sim::Histogram;

use crate::harness::{DetectionMatrix, TrialOutcome};

impl TrialOutcome {
    /// Distribution of the executed trials' simulated run lengths.
    pub fn trial_latency(&self) -> Histogram {
        let mut latency = Histogram::new();
        for &ns in &self.trial_sim_ns {
            latency.observe(ns);
        }
        latency
    }

    /// Cumulative simulated nanoseconds burned until (and including) the
    /// first violating trial — the time-to-detection, in the only clock the
    /// simulator has. `None` when nothing was detected, and also when
    /// deduplicated trials precede the detection: `first_violation` counts
    /// considered trials, `trial_sim_ns` only executed ones.
    pub fn time_to_detection_ns(&self) -> Option<u64> {
        let trials = self.first_violation? as usize;
        Some(self.trial_sim_ns.get(..trials)?.iter().sum())
    }

    /// Trace events per simulated second (integer, deterministic); 0 when
    /// no simulated time elapsed.
    pub fn events_per_sim_sec(&self) -> u64 {
        self.total_events
            .saturating_mul(1_000_000_000)
            .checked_div(self.total_sim_ns)
            .unwrap_or(0)
    }

    /// Injection effectiveness as an integer percentage (floor), from the
    /// violating run's blame summary; `None` when the cell has no violating
    /// run, no blame, or nothing was injected.
    pub fn effectiveness_pct(&self) -> Option<u64> {
        self.example.as_ref()?.blame?.effectiveness_pct()
    }
}

impl DetectionMatrix {
    /// Renders the hunt telemetry as an aligned text table, one row per
    /// cell: what each cell of [`DetectionMatrix::render`] cost.
    pub fn render_telemetry(&self) -> String {
        let first_col = self
            .cells()
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
        for r in self.cells() {
            let label = format!("{} / {}", r.scenario, r.strategy);
            let p95 = human_ns(r.trial_latency().quantile(0.95));
            let ttd = match r.time_to_detection_ns() {
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
                r.trials_run,
                r.distinct_classes,
                r.deduped_trials,
                r.total_events,
                r.events_per_sim_sec(),
            );
        }
        out
    }

    /// Renders the hunt telemetry in Prometheus text-exposition format
    /// (counters, gauges and one cumulative histogram per cell),
    /// deterministically: cells in insertion order, fixed label order, no
    /// timestamps.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels =
            |r: &TrialOutcome| format!("scenario=\"{}\",strategy=\"{}\"", r.scenario, r.strategy);
        for (name, help, kind, value) in FAMILIES {
            prometheus_family(&mut out, name, kind, Some(help));
            for r in self.cells() {
                if let Some(v) = value(r) {
                    prometheus_sample(&mut out, name, &labels(r), v);
                }
            }
        }
        let name = "ph_hunt_trial_sim_ns";
        prometheus_family(
            &mut out,
            name,
            "histogram",
            Some("Per-trial simulated run length."),
        );
        for r in self.cells() {
            r.trial_latency()
                .write_prometheus(&mut out, name, &labels(r));
        }
        out
    }
}

/// A cell's sample in one family, or `None` for no sample.
type CellValue = fn(&TrialOutcome) -> Option<u64>;

/// The single-sample families of [`DetectionMatrix::to_prometheus`]: name,
/// help, type, and a cell's value (a cell without one writes no sample).
const FAMILIES: [(&str, &str, &str, CellValue); 7] = [
    (
        "ph_hunt_trials_total",
        "Trials executed per (scenario, strategy).",
        "counter",
        |r| Some(r.trials_run.into()),
    ),
    (
        "ph_hunt_distinct_classes",
        "Distinct canonical schedule classes considered per cell.",
        "gauge",
        |r| Some(r.distinct_classes.into()),
    ),
    (
        "ph_hunt_deduped_trials_total",
        "Trials skipped as canonical-schedule duplicates per cell.",
        "counter",
        |r| Some(r.deduped_trials.into()),
    ),
    (
        "ph_hunt_events_total",
        "Trace events generated per cell.",
        "counter",
        |r| Some(r.total_events),
    ),
    (
        "ph_hunt_events_per_sim_second",
        "Trace events per simulated second.",
        "gauge",
        |r| Some(r.events_per_sim_sec()),
    ),
    (
        "ph_hunt_time_to_detection_ns",
        "Simulated ns burned until the first violating trial (absent if none).",
        "gauge",
        TrialOutcome::time_to_detection_ns,
    ),
    (
        "ph_hunt_injection_effectiveness_pct",
        "Percent of injected perturbations appearing in the violation's blame chain.",
        "gauge",
        TrialOutcome::effectiveness_pct,
    ),
];

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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A matrix of one detected and one undetected cell.
    fn matrix() -> DetectionMatrix {
        let mut m = DetectionMatrix::new();
        m.add(outcome(Some(1)));
        m.add(outcome(None));
        m
    }

    #[test]
    fn stats_derive_rates_and_detection_time() {
        let o = outcome(Some(2));
        assert_eq!(o.events_per_sim_sec(), 100);
        assert_eq!(o.time_to_detection_ns(), Some(2_000_000_000));
        assert_eq!(o.trial_latency().count, 3);
        assert_eq!(o.effectiveness_pct(), None, "no blame attached");
    }

    #[test]
    fn undetected_cells_have_no_detection_time() {
        assert_eq!(outcome(None).time_to_detection_ns(), None);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_typed() {
        let prom = matrix().to_prometheus();
        assert_eq!(prom, matrix().to_prometheus());
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
        let text = matrix().render_telemetry();
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

//! `phbench compare A.json B.json`: one verdict per (end-to-end metric,
//! workload), judged with the metric's direction and bound from the
//! catalogue (which a test pins to `BENCHMARK.json`), plus a bit-for-bit
//! check of every exact count.

use crate::metrics::{Row, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// One side's own spread is wider than the bound, so a bound-sized
    /// change could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (end-to-end metric, workload) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Signed share of `a` by which `b` is worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub pairings: Vec<Pairing>,
    /// `workload metric: a -> b` for every exact count that moved, and for
    /// every row present on one side only.
    pub exact_changes: Vec<String>,
}

/// Half of a row's p10..p90 (or min..max) range as a share of its median.
fn half_spread(row: &Row) -> f64 {
    let s = &row.summary;
    if s.median == 0.0 {
        return 0.0;
    }
    (s.p90 - s.p10) / 2.0 / s.median.abs()
}

fn find<'r>(rows: &'r [Row], like: &Row) -> Option<&'r Row> {
    rows.iter()
        .find(|r| r.workload == like.workload && r.metric == like.metric)
}

pub fn compare(a: &[Row], b: &[Row]) -> Comparison {
    let mut out = Comparison::default();
    for ra in a {
        let Some(rb) = find(b, ra) else {
            out.exact_changes
                .push(format!("{} {}: missing from B", ra.workload, ra.metric));
            continue;
        };
        if ra.exact {
            if ra.summary.median.to_bits() != rb.summary.median.to_bits() {
                out.exact_changes.push(format!(
                    "{} {}: {} -> {}",
                    ra.workload, ra.metric, ra.summary.median, rb.summary.median
                ));
            }
            continue;
        }
        let Some(gate) = END_TO_END.iter().find(|m| m.name == ra.metric) else {
            continue; // timing rows of single layers carry no bound
        };
        let (va, vb) = (ra.summary.median, rb.summary.median);
        let change = (vb - va) / va.abs();
        let worse_by = if gate.higher_is_better {
            -change
        } else {
            change
        };
        let verdict = if half_spread(ra).max(half_spread(rb)) > gate.bound {
            Verdict::Unresolved
        } else if worse_by > gate.bound {
            Verdict::Regressed
        } else if worse_by < -gate.bound {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        out.pairings.push(Pairing {
            workload: ra.workload.clone(),
            metric: gate.name,
            unit: gate.unit,
            a: va,
            b: vb,
            worse_by,
            bound: gate.bound,
            verdict,
        });
    }
    for rb in b {
        if find(a, rb).is_none() {
            out.exact_changes
                .push(format!("{} {}: missing from A", rb.workload, rb.metric));
        }
    }
    out
}

impl Comparison {
    /// No regression and no exact count moved. Improvements pass: whether
    /// a gain is *claimed* takes the paired runs of choosing-metrics §8.
    pub fn passed(&self) -> bool {
        self.exact_changes.is_empty()
            && self
                .pairings
                .iter()
                .all(|p| p.verdict != Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "A", "B", "worse by", "bound"
        );
        for p in &self.pairings {
            out.push_str(&format!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {} ({})\n",
                p.workload,
                p.metric,
                p.a,
                p.b,
                p.worse_by * 100.0,
                p.bound * 100.0,
                p.verdict.as_str(),
                p.unit,
            ));
        }
        for change in &self.exact_changes {
            out.push_str(&format!("EXACT COUNT CHANGED  {change}\n"));
        }
        let count = |v: Verdict| self.pairings.iter().filter(|p| p.verdict == v).count();
        out.push_str(&format!(
            "{} improved, {} unchanged, {} regressed, {} unresolved, {} exact change(s): {}\n",
            count(Verdict::Improved),
            count(Verdict::Unchanged),
            count(Verdict::Regressed),
            count(Verdict::Unresolved),
            self.exact_changes.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn timing(workload: &str, metric: &str, median: f64, p10: f64, p90: f64) -> Row {
        Row {
            workload: workload.into(),
            metric: metric.into(),
            unit: "s".into(),
            summary: Summary {
                median,
                p10,
                p90,
                n: 5,
            },
            exact: false,
        }
    }

    fn count(workload: &str, metric: &str, value: f64) -> Row {
        Row {
            workload: workload.into(),
            metric: metric.into(),
            unit: "count".into(),
            summary: Summary::single(value),
            exact: true,
        }
    }

    fn verdict_of(a: Row, b: Row) -> Verdict {
        compare(&[a], &[b]).pairings[0].verdict
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let w = |v: f64| timing("matrix", "wall_s", v, v * 0.99, v * 1.01);
        assert_eq!(verdict_of(w(2.0), w(2.4)), Verdict::Unchanged); // +20 % < 25 %
        assert_eq!(verdict_of(w(2.0), w(2.6)), Verdict::Regressed);
        assert_eq!(verdict_of(w(2.0), w(1.4)), Verdict::Improved);
        // Higher is better: the same numbers read the other way round.
        let s = |v: f64| timing("matrix", "sim_s_per_wall_s", v, v * 0.99, v * 1.01);
        assert_eq!(verdict_of(s(100.0), s(130.0)), Verdict::Improved);
        assert_eq!(verdict_of(s(100.0), s(70.0)), Verdict::Regressed);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let noisy = timing("matrix", "wall_s", 2.0, 1.4, 2.6); // ±30 %
        let steady = timing("matrix", "wall_s", 2.0, 1.99, 2.01);
        assert_eq!(
            verdict_of(noisy.clone(), steady.clone()),
            Verdict::Unresolved
        );
        assert_eq!(verdict_of(steady, noisy), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_must_not_move() {
        let a = [count("matrix", "ph-sim.world.events", 7e6)];
        assert!(compare(&a, &a).passed());
        let b = [count("matrix", "ph-sim.world.events", 7e6 + 1.0)];
        let c = compare(&a, &b);
        assert!(!c.passed());
        assert_eq!(c.exact_changes.len(), 1);
        assert!(c.render().contains("EXACT COUNT CHANGED"));
        // A row on one side only is a change too.
        assert!(!compare(&a, &[]).passed());
        assert!(!compare(&[], &a).passed());
    }

    #[test]
    fn layer_timings_are_not_gated() {
        let a = [timing(
            "matrix",
            "ph-sim.metrics.report_us",
            10.0,
            10.0,
            10.0,
        )];
        let b = [timing(
            "matrix",
            "ph-sim.metrics.report_us",
            50.0,
            50.0,
            50.0,
        )];
        let c = compare(&a, &b);
        assert!(c.pairings.is_empty() && c.passed());
    }

    #[test]
    fn render_counts_every_verdict() {
        let a = [timing("matrix", "wall_s", 2.0, 2.0, 2.0)];
        let b = [timing("matrix", "wall_s", 2.6, 2.6, 2.6)];
        let text = compare(&a, &b).render();
        assert!(text.contains("regressed"), "{text}");
        assert!(text.trim_end().ends_with("FAIL"), "{text}");
    }
}

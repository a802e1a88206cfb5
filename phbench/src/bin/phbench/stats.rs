//! Sample summaries: median, p10 and p90.

/// Below this many samples a 10th/90th percentile has no sample beyond
/// it, so the summary reports min/max instead and says so.
pub const PERCENTILE_MIN_N: usize = 20;

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// 10th percentile, or the minimum when `n < PERCENTILE_MIN_N`.
    pub p10: f64,
    /// 90th percentile, or the maximum when `n < PERCENTILE_MIN_N`.
    pub p90: f64,
    pub n: usize,
}

impl Summary {
    /// A summary of one value (a count, or a metric taken once per run).
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            p10: v,
            p90: v,
            n: 1,
        }
    }

    /// `true` when `p10`/`p90` are really min/max.
    pub fn tails_are_extremes(&self) -> bool {
        self.n < PERCENTILE_MIN_N
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of the samples.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller, not a value to report.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    quantile_sorted(&sorted(xs), 0.5)
}

/// Median, p10/p90 (min/max below [`PERCENTILE_MIN_N`] samples) and count.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of no samples");
    let v = sorted(xs);
    let (p10, p90) = if v.len() < PERCENTILE_MIN_N {
        (v[0], v[v.len() - 1])
    } else {
        (quantile_sorted(&v, 0.1), quantile_sorted(&v, 0.9))
    };
    Summary {
        median: quantile_sorted(&v, 0.5),
        p10,
        p90,
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn small_samples_report_extremes() {
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!((s.p10, s.median, s.p90, s.n), (1.0, 5.0, 9.0, 3));
        assert!(s.tails_are_extremes());
    }

    #[test]
    fn large_samples_report_percentiles() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.p10, s.median, s.p90, s.n), (10.0, 50.0, 90.0, 101));
        assert!(!s.tails_are_extremes());
        // Exactly at the threshold the percentiles are real ones.
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let s = summarize(&xs);
        assert!(s.p10 > 0.0 && s.p90 < 19.0);
    }

    #[test]
    fn single_summary_is_degenerate() {
        let s = Summary::single(42.0);
        assert_eq!((s.p10, s.median, s.p90, s.n), (42.0, 42.0, 42.0, 1));
    }
}

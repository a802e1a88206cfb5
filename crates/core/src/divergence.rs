//! Divergence telemetry: sampled per-view lag summaries.
//!
//! The paper's central quantity is the divergence between the ground-truth
//! history `H` and a component's partial history `H′` (§4.2). The
//! [`DivergenceSummary`] is the *measured* counterpart of the formal
//! [`crate::history::View::lag`]: a harness samples `|H| − |H′|` (in store
//! revisions) for every view at a fixed cadence over simulated time and
//! folds the samples here. The summary rides along in
//! [`crate::harness::RunReport`] next to the violations, so every trial
//! reports not just *whether* an oracle fired but *how far* each view
//! strayed from the truth while it ran.
//!
//! All fields are integers; summaries compare with `==` across runs, which
//! is what the determinism tests rely on (same seed ⇒ identical telemetry,
//! bit for bit).
//!
//! A harness also publishes every sample to the world's metrics: it
//! observes the view's `view_lag.revisions` histogram and sets its
//! `view_lag.last` gauge, so a sample costs one name lookup per view.

use std::collections::BTreeMap;

use ph_lint::json;

/// Sampled lag statistics for one view (an apiserver cache or a
/// component's informer frontier).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewLag {
    /// Number of samples taken.
    pub samples: u64,
    /// Samples where the view was strictly behind the truth (lag > 0).
    pub lagging: u64,
    /// Sum of sampled lags, in revisions (mean = `sum / samples`).
    pub sum: u64,
    /// Largest sampled lag, in revisions.
    pub max: u64,
}

impl ViewLag {
    /// Folds one sampled lag value in.
    pub fn record(&mut self, lag: u64) {
        self.samples += 1;
        if lag > 0 {
            self.lagging += 1;
        }
        self.sum += lag;
        self.max = self.max.max(lag);
    }

    /// Mean sampled lag in revisions (0.0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Fraction of samples where the view was behind the truth, in
    /// `[0, 1]` — the sampled analog of the observability-gap fraction.
    pub fn gap_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.lagging as f64 / self.samples as f64
        }
    }
}

/// Per-view divergence over one run, keyed by component name. Every
/// exported order (JSON, tables, iteration) is the name order.
///
/// (Reports cross threads in the parallel trial pool, so the names are
/// plain `String`s, not the world's `Rc<str>` actor names.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DivergenceSummary {
    views: BTreeMap<String, ViewLag>,
}

impl DivergenceSummary {
    /// An empty summary (also [`Default`]).
    pub fn new() -> DivergenceSummary {
        DivergenceSummary::default()
    }

    /// `true` if nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Folds one sampled lag for `component` in. The name is copied only
    /// the first time the view is sampled.
    pub fn record(&mut self, component: &str, lag: u64) {
        match self.views.get_mut(component) {
            Some(view) => view.record(lag),
            None => self
                .views
                .entry(component.to_string())
                .or_default()
                .record(lag),
        }
    }

    /// The stats for one component, if sampled.
    pub fn view(&self, component: &str) -> Option<&ViewLag> {
        self.views.get(component)
    }

    /// All `(component, stats)` pairs, in component order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ViewLag)> {
        self.views.iter().map(|(name, v)| (name.as_str(), v))
    }

    /// Largest lag sampled anywhere.
    pub fn max_lag(&self) -> u64 {
        self.views.values().map(|v| v.max).max().unwrap_or(0)
    }

    /// Mean lag across all samples of all views.
    pub fn mean_lag(&self) -> f64 {
        let (sum, n) = self
            .views
            .values()
            .fold((0u64, 0u64), |(s, n), v| (s + v.sum, n + v.samples));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Renders the summary as a deterministic JSON object keyed by
    /// component, in component order.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            for (name, v) in self.iter() {
                o.obj(name)
                    .val("samples", v.samples)
                    .val("lagging", v.lagging)
                    .val("sum", v.sum)
                    .val("max", v.max);
            }
        })
    }

    /// Renders an aligned text table (deterministic: component order).
    pub fn render(&self) -> String {
        if self.views.is_empty() {
            return "(no divergence samples)\n".to_string();
        }
        let wide = self
            .views
            .keys()
            .map(|name| name.len())
            .max()
            .unwrap_or(4)
            .max("view".len());
        let mut out = format!(
            "{:<wide$}  {:>8}  {:>8}  {:>8}  {:>7}\n",
            "view", "samples", "max-lag", "mean", "gap"
        );
        for (name, v) in self.iter() {
            out.push_str(&format!(
                "{name:<wide$}  {:>8}  {:>8}  {:>8.2}  {:>6.1}%\n",
                v.samples,
                v.max,
                v.mean(),
                v.gap_fraction() * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_all_zeroes() {
        let d = DivergenceSummary::new();
        assert!(d.is_empty());
        assert_eq!(d.max_lag(), 0);
        assert_eq!(d.mean_lag(), 0.0);
        assert!(d.view("x").is_none());
        assert!(d.render().contains("no divergence samples"));
    }

    #[test]
    fn record_accumulates_per_view() {
        let mut d = DivergenceSummary::new();
        d.record("apiserver-1", 0);
        d.record("apiserver-1", 4);
        d.record("apiserver-1", 2);
        d.record("kubelet-node-1", 0);
        let v = d.view("apiserver-1").expect("sampled");
        assert_eq!(v.samples, 3);
        assert_eq!(v.lagging, 2);
        assert_eq!(v.max, 4);
        assert_eq!(v.sum, 6);
        assert!((v.mean() - 2.0).abs() < 1e-9);
        assert!((v.gap_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(d.max_lag(), 4);
        assert!((d.mean_lag() - 6.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn summaries_compare_equal_across_identical_runs() {
        let run = || {
            let mut d = DivergenceSummary::new();
            for (c, l) in [("a", 1), ("b", 0), ("a", 3)] {
                d.record(c, l);
            }
            d
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn render_lists_views_in_name_order() {
        let mut d = DivergenceSummary::new();
        d.record("zeta", 1);
        d.record("alpha", 2);
        let table = d.render();
        let a = table.find("alpha").expect("alpha row");
        let z = table.find("zeta").expect("zeta row");
        assert!(a < z, "rows must be name-ordered:\n{table}");
        assert!(table.contains("gap"));
    }

    #[test]
    fn equality_ignores_registration_order() {
        let mut ab = DivergenceSummary::new();
        ab.record("a", 1);
        ab.record("b", 2);
        let mut ba = DivergenceSummary::new();
        ba.record("b", 2);
        ba.record("a", 1);
        assert_eq!(ab, ba);
        ba.record("a", 9);
        assert_ne!(ab, ba);
    }
}

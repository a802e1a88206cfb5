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
//! ## Storage and the slot fast path
//!
//! Internally the summary is a slot vector indexed by view name: a
//! harness registers each view once ([`DivergenceSummary::slot`]) and
//! then folds samples in O(1) by dense id ([`DivergenceSummary::record_slot`])
//! — no string hashing or tree descent per sample. The string-keyed
//! [`DivergenceSummary::record`] survives as a thin wrapper. All exported
//! orders (JSON, tables, iteration, equality) sort by view name at render
//! time, so the output is byte-identical to the old name-keyed map
//! regardless of registration order.
//!
//! A harness also publishes every sample to the world's metrics: it
//! observes the view's `view_lag.revisions` histogram and sets its
//! `view_lag.last` gauge, so a sample costs O(1) per view.

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

/// A dense view id handed out by [`DivergenceSummary::slot`].
pub type ViewSlot = u32;

/// Per-view divergence over one run, keyed by component name.
///
/// (Reports cross threads in the parallel trial pool, so the name table is
/// plain `String`s, not the world's `Rc<str>` actor names.)
#[derive(Debug, Clone, Default)]
pub struct DivergenceSummary {
    /// Name → slot id (sorted — the canonical export order).
    index: BTreeMap<String, ViewSlot>,
    /// Stats by slot id.
    slots: Vec<ViewLag>,
}

impl DivergenceSummary {
    /// An empty summary (also [`Default`]).
    pub fn new() -> DivergenceSummary {
        DivergenceSummary::default()
    }

    /// `true` if nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Registers (or finds) the slot for `component`. Call once per view,
    /// then fold samples in by id with [`DivergenceSummary::record_slot`].
    pub fn slot(&mut self, component: &str) -> ViewSlot {
        if let Some(&slot) = self.index.get(component) {
            return slot;
        }
        let slot = self.slots.len() as ViewSlot;
        self.index.insert(component.to_string(), slot);
        self.slots.push(ViewLag::default());
        slot
    }

    /// Folds one sampled lag into a registered slot — O(1), no hashing.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from [`DivergenceSummary::slot`] on
    /// this summary.
    pub fn record_slot(&mut self, slot: ViewSlot, lag: u64) {
        self.slots[slot as usize].record(lag);
    }

    /// Folds one sampled lag for `component` in (string-keyed wrapper
    /// around [`DivergenceSummary::record_slot`]).
    pub fn record(&mut self, component: &str, lag: u64) {
        let slot = self.slot(component);
        self.record_slot(slot, lag);
    }

    /// The stats for one component, if sampled.
    pub fn view(&self, component: &str) -> Option<&ViewLag> {
        self.index
            .get(component)
            .map(|&slot| &self.slots[slot as usize])
    }

    /// All `(component, stats)` pairs, sorted by component name — the
    /// name-keyed index is already in that order.
    fn sorted(&self) -> impl Iterator<Item = (&str, &ViewLag)> {
        self.index
            .iter()
            .map(|(name, &slot)| (name.as_str(), &self.slots[slot as usize]))
    }

    /// All `(component, stats)` pairs, in component order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ViewLag)> {
        self.sorted()
    }

    /// Largest lag sampled anywhere.
    pub fn max_lag(&self) -> u64 {
        self.slots.iter().map(|v| v.max).max().unwrap_or(0)
    }

    /// Mean lag across all samples of all views.
    pub fn mean_lag(&self) -> f64 {
        let (sum, n) = self
            .slots
            .iter()
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
            for (name, v) in self.sorted() {
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
        if self.slots.is_empty() {
            return "(no divergence samples)\n".to_string();
        }
        let wide = self
            .index
            .keys()
            .map(|name| name.len())
            .max()
            .unwrap_or(4)
            .max("view".len());
        let mut out = format!(
            "{:<wide$}  {:>8}  {:>8}  {:>8}  {:>7}\n",
            "view", "samples", "max-lag", "mean", "gap"
        );
        for (name, v) in self.sorted() {
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

// Equality by (sorted name, stats) content: two summaries that recorded
// the same views and samples compare equal even if the views were first
// seen in different orders (slot ids are an internal layout detail).
impl PartialEq for DivergenceSummary {
    fn eq(&self, other: &DivergenceSummary) -> bool {
        self.index.len() == other.index.len()
            && self
                .sorted()
                .zip(other.sorted())
                .all(|((an, av), (bn, bv))| an == bn && av == bv)
    }
}
impl Eq for DivergenceSummary {}

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
    fn slot_api_matches_string_api() {
        let mut by_name = DivergenceSummary::new();
        let mut by_slot = DivergenceSummary::new();
        // Register in reverse name order: slot ids then disagree with the
        // exported (sorted) order, which must not matter.
        let z = by_slot.slot("zeta");
        let a = by_slot.slot("alpha");
        for (name, slot, lag) in [("zeta", z, 3), ("alpha", a, 0), ("zeta", z, 1)] {
            by_name.record(name, lag);
            by_slot.record_slot(slot, lag);
        }
        assert_eq!(by_name, by_slot);
        assert_eq!(by_name.to_json(), by_slot.to_json());
        assert_eq!(by_name.render(), by_slot.render());
        assert_eq!(by_slot.slot("zeta"), z, "slot is idempotent");
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

//! Static/dynamic cross-check: does the hazard checker agree with the
//! explorer?
//!
//! The static pass (the bounded model checker,
//! [`ph_lint::modelcheck::model_check_all`], as run by
//! `ph_scenarios::static_crosscheck`) predicts, from a scenario's access
//! summaries alone, which §4.2 pattern class its buggy variant can
//! exhibit; the dynamic explorer actually detects a violation under
//! guided perturbation. A [`CrossCheckTable`] lines the two up, one
//! row per scenario, and `phtool lint` renders it. Agreement is
//! *containment*: static analysis is conservative and may report several
//! classes (a ByInstance component with an unfenced cache gate is both
//! stale-able and time-travel-able), so a row agrees statically when the
//! expected class is among the flagged ones for the buggy variant — and
//! the fixed variant flags nothing at all.

use ph_lint::json;
use ph_lint::summary::{Hazard, PatternClass};

/// One scenario's static (and optionally dynamic) verdicts.
#[derive(Debug, Clone)]
pub struct CrossCheckRow {
    /// Scenario name, e.g. `k8s-59848`.
    pub scenario: String,
    /// The §4.2 class the scenario is documented to exercise.
    pub expected: PatternClass,
    /// Hazards flagged on the buggy variant's summaries.
    pub buggy_hazards: Vec<Hazard>,
    /// Hazards flagged on the fixed variant's summaries (should be empty).
    pub fixed_hazards: Vec<Hazard>,
    /// Did the guided dynamic run on the buggy variant detect a violation?
    /// `None` when only the static pass ran (e.g. `phtool lint`).
    pub dynamic_buggy_detected: Option<bool>,
    /// Was the guided dynamic run on the fixed variant clean?
    pub dynamic_fixed_clean: Option<bool>,
    /// Components covered by the static pass (one summary each).
    pub static_components: Vec<String>,
    /// Components implicated dynamically that have *no* static row: an
    /// oracle blamed them but `access_summaries` never declared them, so
    /// the static side is silent for the wrong reason. Rendered as
    /// `static=missing` and always a disagreement.
    pub missing_static: Vec<String>,
    /// Rendered minimal witnesses from the model checker for the buggy
    /// variant (`ph_lint::modelcheck`), in canonical order.
    pub buggy_witnesses: Vec<String>,
}

impl CrossCheckRow {
    /// Distinct classes flagged on the buggy variant, sorted.
    pub fn buggy_classes(&self) -> Vec<PatternClass> {
        let mut out: Vec<PatternClass> = self.buggy_hazards.iter().map(|h| h.class).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Records a component the dynamic side implicated. If the static
    /// pass has no summary for it, the row gains a `static=missing` entry
    /// — previously such components silently vanished from the table.
    pub fn record_dynamic_component(&mut self, component: &str) {
        if self.static_components.iter().any(|c| c == component)
            || self.missing_static.iter().any(|c| c == component)
        {
            return;
        }
        self.missing_static.push(component.to_string());
        self.missing_static.sort();
    }

    /// Static agreement: expected class flagged on buggy, fixed clean,
    /// and no dynamically-implicated component missing a static row.
    pub fn static_agrees(&self) -> bool {
        self.buggy_classes().contains(&self.expected)
            && self.fixed_hazards.is_empty()
            && self.missing_static.is_empty()
    }

    /// Full agreement: static agreement plus (when the dynamic side ran)
    /// buggy detected and fixed clean dynamically too.
    pub fn agrees(&self) -> bool {
        self.static_agrees()
            && self.dynamic_buggy_detected.unwrap_or(true)
            && self.dynamic_fixed_clean.unwrap_or(true)
    }
}

/// The full static/dynamic agreement table.
#[derive(Debug, Clone, Default)]
pub struct CrossCheckTable {
    /// One row per scenario.
    pub rows: Vec<CrossCheckRow>,
}

impl CrossCheckTable {
    /// Do all rows agree statically?
    pub fn all_static_agree(&self) -> bool {
        self.rows.iter().all(|r| r.static_agrees())
    }

    /// Do all rows agree fully (static and, where run, dynamic)?
    pub fn all_agree(&self) -> bool {
        self.rows.iter().all(|r| r.agrees())
    }

    /// Human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<18} {:<30} {:<8} {}\n",
            "scenario", "expected", "static(buggy)", "fixed", "verdict"
        ));
        for r in &self.rows {
            let classes = r
                .buggy_classes()
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>()
                .join(",");
            let fixed = if r.fixed_hazards.is_empty() {
                "clean"
            } else {
                "FLAGGED"
            };
            let verdict = if !r.missing_static.is_empty() {
                "static=missing"
            } else if r.static_agrees() {
                "agree"
            } else {
                "MISMATCH"
            };
            out.push_str(&format!(
                "{:<16} {:<18} {:<30} {:<8} {}\n",
                r.scenario,
                r.expected.as_str(),
                classes,
                fixed,
                verdict
            ));
            for m in &r.missing_static {
                out.push_str(&format!(
                    "{:<16}   dynamic implicates `{m}` but access_summaries has no row\n",
                    ""
                ));
            }
            for w in &r.buggy_witnesses {
                out.push_str(&format!("{:<16}   witness: {w}\n", ""));
            }
        }
        out
    }

    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            let mut rows = o.arr("rows");
            for r in &self.rows {
                rows.obj()
                    .str("scenario", &r.scenario)
                    .str("expected", r.expected.as_str())
                    .strs(
                        "static_buggy_classes",
                        r.buggy_classes().iter().map(|c| c.as_str()),
                    )
                    .raws("buggy_hazards", r.buggy_hazards.iter().map(Hazard::to_json))
                    .raws("fixed_hazards", r.fixed_hazards.iter().map(Hazard::to_json))
                    .strs("missing_static", &r.missing_static)
                    .strs("witnesses", &r.buggy_witnesses)
                    .val("static_agrees", r.static_agrees());
            }
            drop(rows);
            o.val("all_static_agree", self.all_static_agree());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hazard(class: PatternClass) -> Hazard {
        Hazard {
            component: "c".into(),
            action: "a".into(),
            class,
            detail: "d".into(),
        }
    }

    #[test]
    fn containment_semantics() {
        let row = CrossCheckRow {
            scenario: "s".into(),
            expected: PatternClass::Staleness,
            buggy_hazards: vec![
                hazard(PatternClass::Staleness),
                hazard(PatternClass::TimeTravel),
            ],
            fixed_hazards: vec![],
            dynamic_buggy_detected: None,
            dynamic_fixed_clean: None,
            static_components: vec!["c".into()],
            missing_static: vec![],
            buggy_witnesses: vec![],
        };
        assert!(row.static_agrees());
        assert_eq!(
            row.buggy_classes(),
            vec![PatternClass::Staleness, PatternClass::TimeTravel]
        );
    }

    #[test]
    fn flagged_fixed_variant_breaks_agreement() {
        let row = CrossCheckRow {
            scenario: "s".into(),
            expected: PatternClass::Staleness,
            buggy_hazards: vec![hazard(PatternClass::Staleness)],
            fixed_hazards: vec![hazard(PatternClass::Staleness)],
            dynamic_buggy_detected: None,
            dynamic_fixed_clean: None,
            static_components: vec!["c".into()],
            missing_static: vec![],
            buggy_witnesses: vec![],
        };
        assert!(!row.static_agrees());
    }

    #[test]
    fn dynamic_side_feeds_full_agreement() {
        let mut row = CrossCheckRow {
            scenario: "s".into(),
            expected: PatternClass::TimeTravel,
            buggy_hazards: vec![hazard(PatternClass::TimeTravel)],
            fixed_hazards: vec![],
            dynamic_buggy_detected: Some(true),
            dynamic_fixed_clean: Some(true),
            static_components: vec!["c".into()],
            missing_static: vec![],
            buggy_witnesses: vec![],
        };
        assert!(row.agrees());
        row.dynamic_buggy_detected = Some(false);
        assert!(!row.agrees());
    }

    #[test]
    fn dynamically_implicated_component_without_static_row_is_a_disagreement() {
        // Regression: such a component used to vanish from the table.
        let mut row = CrossCheckRow {
            scenario: "s".into(),
            expected: PatternClass::Staleness,
            buggy_hazards: vec![hazard(PatternClass::Staleness)],
            fixed_hazards: vec![],
            dynamic_buggy_detected: Some(true),
            dynamic_fixed_clean: Some(true),
            static_components: vec!["c".into()],
            missing_static: vec![],
            buggy_witnesses: vec![],
        };
        assert!(row.static_agrees());
        row.record_dynamic_component("c"); // covered — no change
        assert!(row.static_agrees());
        row.record_dynamic_component("rogue");
        assert_eq!(row.missing_static, vec!["rogue".to_string()]);
        assert!(!row.static_agrees());
        assert!(!row.agrees());
        let table = CrossCheckTable { rows: vec![row] };
        let text = table.render_text();
        assert!(text.contains("static=missing"), "{text}");
        assert!(text.contains("`rogue`"), "{text}");
        assert!(table.to_json().contains("\"missing_static\":[\"rogue\"]"));
    }

    #[test]
    fn json_is_stable() {
        let table = CrossCheckTable {
            rows: vec![CrossCheckRow {
                scenario: "s".into(),
                expected: PatternClass::ObservabilityGap,
                buggy_hazards: vec![hazard(PatternClass::ObservabilityGap)],
                fixed_hazards: vec![],
                dynamic_buggy_detected: None,
                dynamic_fixed_clean: None,
                static_components: vec!["c".into()],
                missing_static: vec![],
                buggy_witnesses: vec!["a [staleness] via [delay-cache(pods)]".into()],
            }],
        };
        let json = table.to_json();
        assert!(json.contains("\"expected\":\"observability-gap\""));
        assert!(json.contains("\"witnesses\":[\"a [staleness] via [delay-cache(pods)]\"]"));
        assert!(json.contains("\"all_static_agree\":true"));
    }
}

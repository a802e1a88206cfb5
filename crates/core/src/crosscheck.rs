//! Static/dynamic cross-check: does the hazard checker agree with the
//! explorer?
//!
//! The static pass (the bounded model checker,
//! [`ph_lint::modelcheck::model_check_all`], run once per variant by
//! `ph_scenarios::static_crosscheck`) predicts, from a scenario's access
//! summaries alone, which §4.2 pattern class its buggy variant can
//! exhibit; the dynamic explorer actually detects a violation under
//! guided perturbation. A [`CrossCheckTable`] lines the two up, one row
//! per scenario holding the checker's reports for both variants; it is
//! the one static verdict table `phtool lint`, `phtool check` and the E3
//! experiment render. Agreement is
//! *containment*: static analysis is conservative and may report several
//! classes (a ByInstance component with an unfenced cache gate is both
//! stale-able and time-travel-able), so a row agrees statically when the
//! expected class is among the witnessed ones for the buggy variant — and
//! the fixed variant proves epoch-safe.

use ph_lint::json;
use ph_lint::modelcheck::{ModelCheckReport, Witness};
use ph_lint::summary::PatternClass;

/// One scenario's static (and optionally dynamic) verdicts.
#[derive(Debug, Clone)]
pub struct CrossCheckRow {
    /// Scenario name, e.g. `k8s-59848`.
    pub scenario: String,
    /// The §4.2 class the scenario is documented to exercise.
    pub expected: PatternClass,
    /// Model-checker reports on the buggy variant's summaries, one per
    /// component, in summary order.
    pub buggy: Vec<ModelCheckReport>,
    /// Reports on the fixed variant's summaries (every action should
    /// prove epoch-safe).
    pub fixed: Vec<ModelCheckReport>,
    /// Did the guided dynamic run on the buggy variant detect a violation?
    /// `None` when only the static pass ran (e.g. `phtool lint`).
    pub dynamic_buggy_detected: Option<bool>,
    /// Was the guided dynamic run on the fixed variant clean?
    pub dynamic_fixed_clean: Option<bool>,
    /// Components implicated dynamically that have *no* static row: an
    /// oracle blamed them but `access_summaries` never declared them, so
    /// the static side is silent for the wrong reason. Rendered as
    /// `static=missing` and always a disagreement.
    pub missing_static: Vec<String>,
}

impl CrossCheckRow {
    /// Minimal witnesses on the buggy variant, in (component, action,
    /// class) order.
    pub fn buggy_witnesses(&self) -> Vec<&Witness> {
        self.buggy.iter().flat_map(|r| r.witnesses()).collect()
    }

    /// Distinct classes witnessed on the buggy variant, sorted.
    pub fn buggy_classes(&self) -> Vec<PatternClass> {
        let mut out: Vec<PatternClass> = self.buggy_witnesses().iter().map(|w| w.class).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Is the documented class among the buggy variant's witnesses?
    pub fn class_witnessed(&self) -> bool {
        self.buggy_classes().contains(&self.expected)
    }

    /// Does every component of the fixed variant prove epoch-safe?
    pub fn fixed_epoch_safe(&self) -> bool {
        self.fixed.iter().all(|r| r.is_epoch_safe())
    }

    /// Records a component the dynamic side implicated. If the static
    /// pass has no summary for it, the row gains a `static=missing` entry
    /// — previously such components silently vanished from the table.
    pub fn record_dynamic_component(&mut self, component: &str) {
        if self.buggy.iter().any(|r| r.component == component)
            || self.missing_static.iter().any(|c| c == component)
        {
            return;
        }
        self.missing_static.push(component.to_string());
        self.missing_static.sort();
    }

    /// Static agreement: expected class witnessed on buggy, fixed
    /// epoch-safe, and no dynamically-implicated component missing a
    /// static row.
    pub fn static_agrees(&self) -> bool {
        self.class_witnessed() && self.fixed_epoch_safe() && self.missing_static.is_empty()
    }

    /// Full agreement: static agreement plus (when the dynamic side ran)
    /// buggy detected and fixed clean dynamically too.
    pub fn agrees(&self) -> bool {
        self.static_agrees()
            && self.dynamic_buggy_detected.unwrap_or(true)
            && self.dynamic_fixed_clean.unwrap_or(true)
    }
}

/// One witness as a hazard object: component, action, class, and the
/// witness detail with its schedule appended.
fn hazard_json(w: &Witness) -> String {
    json::object(|o| {
        o.str("component", &w.component)
            .str("action", &w.action)
            .str("class", w.class.as_str())
            .str(
                "detail",
                &format!("{} [witness: {}]", w.detail, w.schedule_text()),
            );
    })
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
            let fixed = if r.fixed_epoch_safe() {
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
            for w in r.buggy_witnesses() {
                out.push_str(&format!("{:<16}   witness: {}\n", "", w.render()));
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
                    .raws(
                        "buggy_hazards",
                        r.buggy_witnesses().into_iter().map(hazard_json),
                    )
                    .raws(
                        "fixed_hazards",
                        r.fixed.iter().flat_map(|f| f.witnesses()).map(hazard_json),
                    )
                    .strs("missing_static", &r.missing_static)
                    .strs("witnesses", r.buggy_witnesses().iter().map(|w| w.render()))
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
    use ph_lint::modelcheck::{ActionReport, ActionVerdict, Expansion, Letter};

    /// One component's report: a single action with one witness per class
    /// (epoch-safe when `classes` is empty).
    fn report(classes: &[PatternClass]) -> ModelCheckReport {
        let witnesses: Vec<Witness> = classes
            .iter()
            .map(|&class| Witness {
                component: "c".into(),
                action: "a".into(),
                class,
                path: "p".into(),
                schedule: vec![Letter::DelayCache("pods".into())],
                detail: "d".into(),
            })
            .collect();
        ModelCheckReport {
            component: "c".into(),
            states_explored: 1,
            states_expanded: 0,
            expansion: Expansion::Reduced,
            stale_bound: 3,
            actions: vec![ActionReport {
                action: "a".into(),
                verdict: if witnesses.is_empty() {
                    ActionVerdict::EpochSafe
                } else {
                    ActionVerdict::Hazardous(witnesses)
                },
            }],
        }
    }

    fn row(
        expected: PatternClass,
        buggy: &[PatternClass],
        fixed: &[PatternClass],
        dynamic: Option<bool>,
    ) -> CrossCheckRow {
        CrossCheckRow {
            scenario: "s".into(),
            expected,
            buggy: vec![report(buggy)],
            fixed: vec![report(fixed)],
            dynamic_buggy_detected: dynamic,
            dynamic_fixed_clean: dynamic,
            missing_static: vec![],
        }
    }

    #[test]
    fn containment_semantics() {
        let row = row(
            PatternClass::Staleness,
            &[PatternClass::Staleness, PatternClass::TimeTravel],
            &[],
            None,
        );
        assert!(row.static_agrees());
        assert_eq!(
            row.buggy_classes(),
            vec![PatternClass::Staleness, PatternClass::TimeTravel]
        );
    }

    #[test]
    fn flagged_fixed_variant_breaks_agreement() {
        let row = row(
            PatternClass::Staleness,
            &[PatternClass::Staleness],
            &[PatternClass::Staleness],
            None,
        );
        assert!(!row.fixed_epoch_safe());
        assert!(!row.static_agrees());
    }

    #[test]
    fn dynamic_side_feeds_full_agreement() {
        let mut row = row(
            PatternClass::TimeTravel,
            &[PatternClass::TimeTravel],
            &[],
            Some(true),
        );
        assert!(row.agrees());
        row.dynamic_buggy_detected = Some(false);
        assert!(!row.agrees());
    }

    #[test]
    fn dynamically_implicated_component_without_static_row_is_a_disagreement() {
        // Regression: such a component used to vanish from the table.
        let mut row = row(
            PatternClass::Staleness,
            &[PatternClass::Staleness],
            &[],
            Some(true),
        );
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
            rows: vec![row(
                PatternClass::ObservabilityGap,
                &[PatternClass::ObservabilityGap],
                &[],
                None,
            )],
        };
        let json = table.to_json();
        assert!(json.contains("\"expected\":\"observability-gap\""));
        assert!(json.contains("\"witnesses\":[\"a [observability-gap] via [delay-cache(pods)]\"]"));
        assert!(json.contains("\"detail\":\"d [witness: delay-cache(pods)]\""));
        assert!(json.contains("\"all_static_agree\":true"));
    }
}

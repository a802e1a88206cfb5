//! Static independence analysis over the perturbation alphabet.
//!
//! The model checker ([`crate::modelcheck`]) and the dynamic explorer both
//! burn budget re-exploring schedules that differ only by commuting
//! operations on unrelated views. This module derives, per component, the
//! *independence relation* on the enabled alphabet directly from the
//! [`AccessSummary`] IR — no execution needed — and emits it as an
//! auditable [`IndependenceMatrix`] with a one-line justification per
//! dependent pair (rendered by `phtool lint --json`).
//!
//! Two letters are **independent** (they commute) iff they touch disjoint
//! views and neither crosses an action gate's read set or a crash/replay
//! boundary. Concretely, a pair is *dependent* when any of three rules
//! fires, in order:
//!
//! 1. **Global** — `upstream-switch` and `crash-restart-replay` re-list
//!    every stale-able view and lose non-replayable events across the
//!    crash/replay boundary: they commute with nothing.
//! 2. **Same view** — both letters perturb the view over one resource;
//!    order is semantically visible (e.g. a reorder is absorbed by prior
//!    lag but not vice versa).
//! 3. **Gate-coupled** — the two resources are read *together* by one
//!    gate path of a destructive action: an admission check could observe
//!    the pair mid-flight, so the static relation keeps them ordered.
//!    This rule is deliberately conservative: the abstract transition
//!    semantics still commutes on disjoint views (the model checker's
//!    sleep sets therefore only use rule-1/rule-2 dependence), but any
//!    consumer that replays schedules against a *real* gate must not
//!    reorder across a joint read set.
//!
//! The matrix also classifies each letter as **absorbing** or not: an
//! absorbing letter's abstract effect is idempotent and monotone (flags
//! only set, a reorder is subsumed by any existing lag), so re-applying it
//! later in a schedule is provably a self-loop. The model checker uses
//! this for stutter elimination; the canonicalizer uses it to explain why
//! repeated letters never appear in a normal form's tail.

use crate::json;
use crate::modelcheck::{enabled_alphabet, Letter};
use crate::summary::AccessSummary;

/// Why a pair of letters is (in)dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStatus {
    /// Disjoint views, no shared gate read set: the pair commutes.
    Independent,
    /// At least one letter is `upstream-switch`/`crash-restart-replay`.
    Global,
    /// Both letters perturb the view over the same resource.
    SameView,
    /// The two resources are read together by one destructive gate path.
    GateCoupled,
}

impl PairStatus {
    /// Stable serialized name.
    pub fn as_str(&self) -> &'static str {
        match self {
            PairStatus::Independent => "independent",
            PairStatus::Global => "global",
            PairStatus::SameView => "same-view",
            PairStatus::GateCoupled => "gate-coupled",
        }
    }
}

/// Classifies the pair `(a, b)` against `summary` (order-insensitive).
///
/// Identical letters are [`PairStatus::SameView`]: a letter never
/// commutes with itself in the sense the reduction needs (swapping two
/// copies is the identity, so nothing is gained).
pub fn pair_status(summary: &AccessSummary, a: &Letter, b: &Letter) -> PairStatus {
    if a.resource().is_none() || b.resource().is_none() {
        return PairStatus::Global;
    }
    let (ra, rb) = (a.resource().unwrap(), b.resource().unwrap());
    if ra == rb {
        return PairStatus::SameView;
    }
    if gate_coupling(summary, ra, rb).is_some() {
        return PairStatus::GateCoupled;
    }
    PairStatus::Independent
}

/// The `(action, path)` whose read set couples `ra` and `rb`, if any.
fn gate_coupling<'a>(summary: &'a AccessSummary, ra: &str, rb: &str) -> Option<(&'a str, &'a str)> {
    for action in &summary.actions {
        if !action.destructive {
            continue;
        }
        for path in &action.paths {
            let reads = |r: &str| path.gates.iter().any(|g| g.resource() == r);
            if reads(ra) && reads(rb) {
                return Some((&action.name, &path.name));
            }
        }
    }
    None
}

/// Is this letter's abstract effect idempotent (re-application a
/// self-loop)? `delay-cache` and `traffic-surge` keep aging the view until
/// the lag saturates, so they are not absorbing; everything else sets
/// monotone flags or is subsumed by lag it already created.
pub fn absorbing(letter: &Letter) -> bool {
    matches!(
        letter,
        Letter::ReorderUpdateConsume(_)
            | Letter::DropNotification(_)
            | Letter::UpstreamSwitch
            | Letter::CrashRestartReplay
    )
}

/// One classified letter pair (`a < b` by alphabet index).
#[derive(Debug, Clone)]
pub struct PairEntry {
    /// Index of the first letter in [`IndependenceMatrix::letters`].
    pub a: usize,
    /// Index of the second letter.
    pub b: usize,
    /// The pair's classification.
    pub status: PairStatus,
    /// One-line justification; `None` for independent pairs.
    pub why: Option<String>,
}

/// The per-component independence relation, auditable and deterministic.
#[derive(Debug, Clone)]
pub struct IndependenceMatrix {
    /// Component the relation was derived for.
    pub component: String,
    /// The enabled alphabet, in canonical order.
    letters: Vec<Letter>,
    /// Every unordered pair (`a < b`), in (a, b) index order.
    pairs: Vec<PairEntry>,
    /// Per-letter absorbing classification.
    absorbing: Vec<bool>,
}

impl IndependenceMatrix {
    /// Derives the relation for `summary` over its full enabled alphabet.
    pub fn derive(summary: &AccessSummary) -> IndependenceMatrix {
        let letters = enabled_alphabet(summary);
        Self::build(&summary.component, letters, Some(summary))
    }

    /// Derives a footprint-only relation (rules 1 and 2; no IR to consult
    /// for gate coupling) over an arbitrary alphabet — the dynamic
    /// explorer uses this for concrete injection plans whose "resources"
    /// are cache/component anchors rather than IR views.
    pub fn for_alphabet(component: &str, letters: Vec<Letter>) -> IndependenceMatrix {
        Self::build(component, letters, None)
    }

    fn build(
        component: &str,
        letters: Vec<Letter>,
        summary: Option<&AccessSummary>,
    ) -> IndependenceMatrix {
        let mut pairs = Vec::new();
        for a in 0..letters.len() {
            for b in (a + 1)..letters.len() {
                let (la, lb) = (&letters[a], &letters[b]);
                let status = match summary {
                    Some(s) => pair_status(s, la, lb),
                    None => match (la.resource(), lb.resource()) {
                        (None, _) | (_, None) => PairStatus::Global,
                        (Some(ra), Some(rb)) if ra == rb => PairStatus::SameView,
                        _ => PairStatus::Independent,
                    },
                };
                let why = match status {
                    PairStatus::Independent => None,
                    PairStatus::Global => {
                        let g = if la.resource().is_none() { la } else { lb };
                        Some(format!(
                            "`{}` is global: it re-lists every stale-able view and crosses \
                             the crash/replay boundary, so it commutes with nothing",
                            g.label()
                        ))
                    }
                    PairStatus::SameView => Some(format!(
                        "both perturb the view over `{}`: order is semantically visible \
                         (lag absorbs reorders, but not vice versa)",
                        la.resource().unwrap_or("?")
                    )),
                    PairStatus::GateCoupled => {
                        let (action, path) = summary
                            .and_then(|s| {
                                gate_coupling(s, la.resource().unwrap(), lb.resource().unwrap())
                            })
                            .unwrap_or(("?", "?"));
                        Some(format!(
                            "gate path `{path}` of `{action}` reads both `{}` and `{}`: an \
                             admission check could observe the pair mid-flight",
                            la.resource().unwrap_or("?"),
                            lb.resource().unwrap_or("?"),
                        ))
                    }
                };
                pairs.push(PairEntry { a, b, status, why });
            }
        }
        let absorbing = letters.iter().map(absorbing).collect();
        IndependenceMatrix {
            component: component.to_string(),
            letters,
            pairs,
            absorbing,
        }
    }

    /// The alphabet the relation is over, in canonical order.
    pub fn letters(&self) -> &[Letter] {
        &self.letters
    }

    /// Index of `letter` in the alphabet, if enabled.
    pub fn index_of(&self, letter: &Letter) -> Option<usize> {
        self.letters.iter().position(|l| l == letter)
    }

    /// The classified pairs (`a < b`), in index order.
    pub fn pairs(&self) -> &[PairEntry] {
        &self.pairs
    }

    /// Classification of the unordered pair `(i, j)`; identical indices
    /// are [`PairStatus::SameView`].
    pub fn status_idx(&self, i: usize, j: usize) -> PairStatus {
        if i == j {
            return PairStatus::SameView;
        }
        let (a, b) = (i.min(j), i.max(j));
        self.pairs
            .iter()
            .find(|p| p.a == a && p.b == b)
            .map(|p| p.status)
            .unwrap_or(PairStatus::SameView)
    }

    /// Do `a` and `b` commute? Letters outside the alphabet are
    /// conservatively dependent.
    pub fn independent(&self, a: &Letter, b: &Letter) -> bool {
        match (self.index_of(a), self.index_of(b)) {
            (Some(i), Some(j)) => self.status_idx(i, j) == PairStatus::Independent,
            _ => false,
        }
    }

    /// `(independent, total)` pair counts.
    pub fn pair_counts(&self) -> (usize, usize) {
        let ind = self
            .pairs
            .iter()
            .filter(|p| p.status == PairStatus::Independent)
            .count();
        (ind, self.pairs.len())
    }

    /// Deterministic JSON object: alphabet, absorbing set, and every pair
    /// with its classification (and a justification when dependent).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            let absorbing = self.letters.iter().zip(&self.absorbing);
            o.str("component", &self.component)
                .strs("letters", self.letters.iter().map(Letter::label))
                .strs(
                    "absorbing",
                    absorbing.filter(|(_, &a)| a).map(|(l, _)| l.label()),
                );
            let (ind, total) = self.pair_counts();
            o.val("independent_pairs", ind).val("total_pairs", total);
            let mut pairs = o.arr("pairs");
            for p in &self.pairs {
                let mut pair = pairs.obj();
                pair.str("a", &self.letters[p.a].label())
                    .str("b", &self.letters[p.b].label())
                    .str("status", p.status.as_str());
                if let Some(why) = &p.why {
                    pair.str("why", why);
                }
            }
        })
    }

    /// Multi-line human rendering: a summary line, then one line per
    /// dependent pair with its justification.
    pub fn render(&self) -> String {
        let (ind, total) = self.pair_counts();
        let absorbing: Vec<String> = self
            .letters
            .iter()
            .zip(&self.absorbing)
            .filter(|(_, &a)| a)
            .map(|(l, _)| l.label())
            .collect();
        let mut out = format!(
            "independence({}): {} letters, {ind}/{total} pairs independent, absorbing: [{}]\n",
            self.component,
            self.letters.len(),
            absorbing.join(", ")
        );
        for p in &self.pairs {
            if p.status == PairStatus::Independent {
                continue;
            }
            out.push_str(&format!(
                "  {} x {} [{}]: {}\n",
                self.letters[p.a].label(),
                self.letters[p.b].label(),
                p.status.as_str(),
                p.why.as_deref().unwrap_or("")
            ));
        }
        out
    }
}

/// Derives matrices for a set of summaries, in input order.
pub fn derive_all(summaries: &[AccessSummary]) -> Vec<IndependenceMatrix> {
    summaries.iter().map(IndependenceMatrix::derive).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ActionDecl, Gate, GatePath, ReadKind, ViewDecl};

    fn cache_view(resource: &str) -> ViewDecl {
        ViewDecl {
            resource: resource.to_string(),
            list: ReadKind::Cache,
            watch: true,
            relist_on_gap: true,
            periodic_resync: false,
            event_replay: false,
            congestible: false,
        }
    }

    fn two_view_summary(coupled: bool) -> AccessSummary {
        let gates = if coupled {
            vec![
                Gate::CacheAbsence("pods".into()),
                Gate::CachePresence("nodes".into()),
            ]
        } else {
            vec![Gate::CacheAbsence("pods".into())]
        };
        AccessSummary {
            component: "c".into(),
            upstream_switch: true,
            views: vec![cache_view("nodes"), cache_view("pods")],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new("p", gates)],
            }],
        }
    }

    #[test]
    fn disjoint_views_commute_same_view_does_not() {
        let m = IndependenceMatrix::derive(&two_view_summary(false));
        let dn = Letter::DelayCache("nodes".into());
        let dp = Letter::DelayCache("pods".into());
        let rp = Letter::ReorderUpdateConsume("pods".into());
        assert!(m.independent(&dn, &dp));
        assert!(!m.independent(&dp, &rp), "same view never commutes");
    }

    #[test]
    fn global_letters_commute_with_nothing() {
        let m = IndependenceMatrix::derive(&two_view_summary(false));
        let us = Letter::UpstreamSwitch;
        let crr = Letter::CrashRestartReplay;
        for l in m.letters().to_vec() {
            if l != us {
                assert!(
                    !m.independent(&us, &l),
                    "{} commuted with switch",
                    l.label()
                );
            }
            if l != crr {
                assert!(
                    !m.independent(&crr, &l),
                    "{} commuted with crash",
                    l.label()
                );
            }
        }
    }

    #[test]
    fn joint_gate_read_set_couples_the_pair() {
        let m = IndependenceMatrix::derive(&two_view_summary(true));
        let dn = Letter::DelayCache("nodes".into());
        let dp = Letter::DelayCache("pods".into());
        assert!(!m.independent(&dn, &dp));
        let (i, j) = (m.index_of(&dn).unwrap(), m.index_of(&dp).unwrap());
        assert_eq!(m.status_idx(i, j), PairStatus::GateCoupled);
        let entry = m
            .pairs()
            .iter()
            .find(|p| (p.a, p.b) == (i.min(j), i.max(j)))
            .unwrap();
        assert!(entry.why.as_deref().unwrap_or("").contains("gate path"));
    }

    #[test]
    fn json_is_deterministic_and_carries_justifications() {
        let s = two_view_summary(true);
        let a = IndependenceMatrix::derive(&s).to_json();
        let b = IndependenceMatrix::derive(&s).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"status\":\"gate-coupled\""));
        assert!(a.contains("\"status\":\"global\""));
        assert!(a.contains("\"why\":"));
        assert!(a.contains("\"absorbing\":["));
    }

    #[test]
    fn footprint_matrix_ignores_gates() {
        let letters = vec![
            Letter::DelayCache("cache:0".into()),
            Letter::DropNotification("cache:1".into()),
            Letter::CrashRestartReplay,
        ];
        let m = IndependenceMatrix::for_alphabet("plan", letters);
        assert!(m.independent(
            &Letter::DelayCache("cache:0".into()),
            &Letter::DropNotification("cache:1".into())
        ));
        assert!(!m.independent(
            &Letter::DelayCache("cache:0".into()),
            &Letter::CrashRestartReplay
        ));
    }

    #[test]
    fn absorbing_classification_matches_semantics() {
        assert!(absorbing(&Letter::ReorderUpdateConsume("r".into())));
        assert!(absorbing(&Letter::DropNotification("r".into())));
        assert!(absorbing(&Letter::UpstreamSwitch));
        assert!(absorbing(&Letter::CrashRestartReplay));
        assert!(!absorbing(&Letter::DelayCache("r".into())));
        assert!(!absorbing(&Letter::TrafficSurge("r".into())));
    }
}

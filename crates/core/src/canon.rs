//! Canonical perturbation schedules — one representative per
//! commutation class.
//!
//! The static independence analysis ([`ph_lint::independence`]) says
//! which perturbation letters commute. Two planned schedules that differ
//! only by swapping adjacent *independent* operations are the same test:
//! they drive the model (and, for footprint-disjoint concrete injections,
//! the simulated cluster) to identical states. This module picks the
//! representative: [`canonicalize`] computes the lexicographically least
//! word of the schedule's trace-equivalence class ([`Letter`]'s derived
//! `Ord` — the same order the model checker's witnesses use), the unique
//! normal form every commuting permutation maps to. Dependent pairs —
//! same view, gate-coupled, or involving a global crash/switch letter —
//! are never reordered.
//!
//! The explorer and the witness bridge fingerprint each trial's
//! [`PlannedOp`] schedule via [`plan_class`] and skip duplicates of an
//! already-run canonical form, spending the freed budget on novel
//! classes. A planned op's anchor is derived from the whole op
//! ([`crate::perturb::Op::planned`]), so equal fingerprints mean
//! *behaviorally identical* strategies — the dedup is provably
//! verdict-preserving, which the canonical-equivalence property tests pin
//! end to end.

use std::fmt::Write as _;

use ph_lint::independence::IndependenceMatrix;
use ph_lint::modelcheck::Letter;
use ph_sim::rng::fnv1a;

/// One planned concrete injection: its abstract alphabet letter plus an
/// anchor string carrying every behavioral parameter (victim, times,
/// selectors). Two ops are the same operation iff letter and anchor both
/// match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedOp {
    /// The abstract perturbation this injection realizes.
    pub letter: Letter,
    /// Behavioral parameters, e.g. `cache:1@1500+900`.
    pub anchor: String,
}

impl PlannedOp {
    /// Convenience constructor.
    pub fn new(letter: Letter, anchor: impl Into<String>) -> PlannedOp {
        PlannedOp {
            letter,
            anchor: anchor.into(),
        }
    }
}

/// The lexicographically least word of a trace-equivalence class.
///
/// Greedy: at each step the candidates are the items with no *dependent*
/// item still ahead of them (the minimal elements of the remaining
/// word's dependence partial order — a property of the class, not of the
/// particular representative), and the one with the least letter is
/// emitted. A naive adjacent-swap bubble is **not** confluent here — an
/// independent pair separated by letters that block one path but not the
/// other can strand two equivalent words at different fixpoints — while
/// this greedy form is unique by construction. Items sharing a letter
/// are same-view dependent, so their relative order always survives.
fn least_linearization<T: Clone>(
    items: &[T],
    letter: impl Fn(&T) -> &Letter,
    matrix: &IndependenceMatrix,
) -> Vec<T> {
    let mut rest = items.to_vec();
    let mut out = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let mut best = 0usize;
        'candidates: for i in 1..rest.len() {
            for j in 0..i {
                if !matrix.independent(letter(&rest[j]), letter(&rest[i])) {
                    continue 'candidates;
                }
            }
            if letter(&rest[i]) < letter(&rest[best]) {
                best = i;
            }
        }
        out.push(rest.remove(best));
    }
    out
}

/// Reorders commuting letters into the canonical normal form: the unique
/// lexicographically least representative (under [`Letter`]'s derived
/// `Ord` — the same order the model checker's witnesses use) of the
/// schedule's trace-equivalence class. Equivalent schedules, and only
/// those, canonicalize identically; dependent pairs — same view,
/// gate-coupled, or involving a global crash/switch letter — keep their
/// order.
pub fn canonicalize(schedule: &[Letter], matrix: &IndependenceMatrix) -> Vec<Letter> {
    least_linearization(schedule, |l| l, matrix)
}

/// [`canonicalize`] lifted to planned ops: ops travel with their anchors,
/// and only the letters consult the matrix. Ops sharing a letter are
/// same-view dependent by definition, so their relative order (and thus
/// anchor order) is always preserved.
pub fn canonicalize_ops(ops: &[PlannedOp], matrix: &IndependenceMatrix) -> Vec<PlannedOp> {
    least_linearization(ops, |op| &op.letter, matrix)
}

/// FNV-1a over the ops' labels and anchors, with separators so adjacent
/// fields cannot alias.
pub fn fingerprint(ops: &[PlannedOp]) -> u64 {
    let mut text = String::new();
    for op in ops {
        let _ = write!(text, "{}@{};", op.letter.label(), op.anchor);
    }
    fnv1a(&text)
}

/// The footprint-only independence matrix of a plan: derived from the
/// plan's own letters (sorted, deduplicated), with the global/same-view
/// rules but no IR gate information — concrete injection anchors name
/// caches and components, not IR views, so gate coupling cannot apply.
pub fn plan_matrix(ops: &[PlannedOp]) -> IndependenceMatrix {
    let mut letters: Vec<Letter> = ops.iter().map(|op| op.letter.clone()).collect();
    letters.sort();
    letters.dedup();
    IndependenceMatrix::for_alphabet("plan", letters)
}

/// The canonical fingerprint of a planned schedule: permuting commuting
/// ops never changes it; reordering dependent ops or changing any anchor
/// does.
pub fn plan_class(ops: &[PlannedOp]) -> u64 {
    fingerprint(&canonicalize_ops(ops, &plan_matrix(ops)))
}

/// What a canonical dedup collapsed: how many distinct [`plan_class`]
/// fingerprints a batch of planned trials spans, and how many of them were
/// skipped as duplicates of an already-kept class — run budget not spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCensus {
    /// Distinct canonical schedule classes among the kept items.
    pub distinct_classes: u32,
    /// Items skipped as canonical duplicates of an earlier class.
    pub deduped_trials: u32,
}

/// Keeps one representative per canonical schedule class, in first-seen
/// order, and counts what was collapsed. An item with no plan (`None`) is
/// its own class: it is never deduplicated.
pub fn dedup_by_class<T>(
    items: Vec<T>,
    plan: impl Fn(&T) -> Option<Vec<PlannedOp>>,
) -> (Vec<T>, ClassCensus) {
    let derived = items.len();
    let mut seen = std::collections::BTreeSet::new();
    let kept: Vec<T> = items
        .into_iter()
        .filter(|item| plan(item).map_or(true, |ops| seen.insert(plan_class(&ops))))
        .collect();
    let census = ClassCensus {
        distinct_classes: kept.len() as u32,
        deduped_trials: (derived - kept.len()) as u32,
    };
    (kept, census)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay(r: &str, anchor: &str) -> PlannedOp {
        PlannedOp::new(Letter::DelayCache(r.into()), anchor)
    }

    fn drop_n(r: &str, anchor: &str) -> PlannedOp {
        PlannedOp::new(Letter::DropNotification(r.into()), anchor)
    }

    #[test]
    fn canonicalize_sorts_commuting_letters_and_is_idempotent() {
        let letters = vec![
            Letter::DropNotification("cache:1".into()),
            Letter::DelayCache("cache:0".into()),
        ];
        let matrix = IndependenceMatrix::for_alphabet("t", {
            let mut l = letters.clone();
            l.sort();
            l
        });
        let canon = canonicalize(&letters, &matrix);
        assert_eq!(
            canon,
            vec![
                Letter::DelayCache("cache:0".into()),
                Letter::DropNotification("cache:1".into()),
            ]
        );
        assert_eq!(canonicalize(&canon, &matrix), canon);
    }

    #[test]
    fn dependent_letters_keep_their_order() {
        // Same view: a delay then a drop on cache:0 must not commute.
        let letters = vec![
            Letter::DropNotification("cache:0".into()),
            Letter::DelayCache("cache:0".into()),
        ];
        let matrix = IndependenceMatrix::for_alphabet("t", {
            let mut l = letters.clone();
            l.sort();
            l
        });
        assert_eq!(canonicalize(&letters, &matrix), letters);
        // Global: nothing moves across a crash.
        let with_crash = vec![
            Letter::CrashRestartReplay,
            Letter::DelayCache("cache:0".into()),
        ];
        let matrix = IndependenceMatrix::for_alphabet("t", {
            let mut l = with_crash.clone();
            l.sort();
            l
        });
        assert_eq!(canonicalize(&with_crash, &matrix), with_crash);
    }

    #[test]
    fn plan_class_identifies_commuting_permutations_only() {
        let a = vec![delay("cache:0", "x"), drop_n("cache:1", "y")];
        let b = vec![drop_n("cache:1", "y"), delay("cache:0", "x")];
        assert_eq!(plan_class(&a), plan_class(&b));

        // Different anchor → different class.
        let c = vec![delay("cache:0", "z"), drop_n("cache:1", "y")];
        assert_ne!(plan_class(&a), plan_class(&c));

        // Dependent reorder (same view) → different class.
        let d1 = vec![delay("cache:0", "x"), drop_n("cache:0", "y")];
        let d2 = vec![drop_n("cache:0", "y"), delay("cache:0", "x")];
        assert_ne!(plan_class(&d1), plan_class(&d2));
    }

    /// The fingerprint is FNV-1a over `label@anchor;` per op; a change to
    /// that text or to the hash moves every plan class, and these values.
    #[test]
    fn fingerprint_values_are_pinned() {
        let plan = vec![
            delay("cache:0", "t=5ms"),
            drop_n("cache:1", "nth=2"),
            PlannedOp::new(Letter::UpstreamSwitch, ""),
        ];
        assert_eq!(fingerprint(&plan), 0xbb30_fd5b_73ac_04bd);
        assert_eq!(fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fingerprint_separators_prevent_field_aliasing() {
        let a = vec![delay("cache:0", "ab")];
        let b = vec![delay("cache:0a", "b")];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&[]), fingerprint(&a));
    }
}

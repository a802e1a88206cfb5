//! Causality-guided candidate generation — §7's automation loop.
//!
//! "The key challenge is to perturb events and trigger failures in a way
//! that efficiently covers the large state space. To do so, recording
//! causal relationships between events can be useful. For example,
//! perturbing events that are causally related to a component's action are
//! likely to trigger bugs."
//!
//! The loop implemented here:
//!
//! 1. run the workload once with no faults and record the trace;
//! 2. find the *decisions* — the annotations components advertise
//!    (pod starts, PVC releases, binds, decommissions);
//! 3. for each decision, use the [`crate::CausalGraph`] to find the
//!    view-update notifications that causally precede it;
//! 4. turn each such notification into concrete, replayable
//!    [`Candidate`] perturbations (drop it; crash the decider right after
//!    deciding), deduplicate, and order nearest-cause-first;
//! 5. re-run the workload once per candidate; oracles judge each run.
//!
//! Candidates are expressed *positionally* ("the nth view-update sent to
//! actor A"), which is replayable because the simulation is deterministic:
//! the prefix of the run before the perturbation point is identical to the
//! reference run.

use std::collections::BTreeSet;

use ph_lint::modelcheck::{Letter, Witness};
use ph_sim::{ActorId, Duration, Trace, TraceEventKind, Verdict};

use crate::canon::{dedup_by_class, ClassCensus};
use crate::causality::CausalGraph;
use crate::perturb::{Op, Rule, Schedule, Strategy, TargetRef, Targets};

/// Compiles minimal witnesses into an ordered, deduplicated list of the
/// letters they call for: witnesses are already minimal and canonically
/// ordered, so the first letters are the ones the model checker considers
/// shortest paths to a hazard — guided search tries them first. The
/// witness→strategy bridge (in ph-scenarios) maps each letter onto concrete,
/// scenario-anchored [`Schedule`]s.
pub fn witness_priors(witnesses: &[&Witness]) -> Vec<Letter> {
    let mut seen = BTreeSet::new();
    witnesses
        .iter()
        .flat_map(|w| &w.schedule)
        .filter(|letter| seen.insert(*letter))
        .cloned()
        .collect()
}

/// A concrete, replayable perturbation derived from a reference trace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Candidate {
    /// Drop the `n`th view-update notification sent to `dst` and the
    /// `burst - 1` matching sends after it (0-based, counted over sends
    /// matching [`Targets::notify_kinds`]). The burst matters: watch
    /// streams are loss-detecting, so a single drop is healed by a replay —
    /// a *persistent* observability gap needs the replays dropped too.
    DropNth {
        /// The receiving component/cache.
        dst: ActorId,
        /// Position in `dst`'s notification stream.
        n: u64,
        /// How many consecutive matching sends to drop.
        burst: u64,
    },
    /// Crash `actor` right after its `n`th `label` decision; restart after
    /// `down_ms`.
    CrashAfterDecision {
        /// The deciding component.
        actor: ActorId,
        /// Decision annotation label.
        label: String,
        /// Which occurrence (0-based).
        n: u64,
        /// Downtime in milliseconds.
        down_ms: u64,
    },
}

impl Candidate {
    /// The candidate as an executable [`Schedule`], named `auto[…]`. A drop
    /// counts ordinals from the start of the run, as the reference trace
    /// numbered them; a crash happens in the tick that sees the decision.
    pub fn schedule(&self) -> Schedule {
        let op = match *self {
            Candidate::DropNth { dst, n, burst } => Op::Intercept(Rule {
                nth: Some((n, burst)),
                ..Rule::new(TargetRef::Actor(dst), Verdict::Drop)
            }),
            Candidate::CrashAfterDecision {
                actor,
                ref label,
                n,
                down_ms,
            } => Op::CrashOn {
                label: label.clone(),
                actor: Some(actor),
                nth: n,
                max: 1,
                delay: None,
                down: Duration::millis(down_ms),
            },
        };
        Schedule::new(format!("auto[{self}]"), vec![op])
    }
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Candidate::DropNth { dst, n, burst } => {
                if *burst == u64::MAX {
                    write!(f, "black out notifications to {dst} from #{n}")
                } else {
                    write!(f, "drop notifications #{n}..#{} to {dst}", n + burst)
                }
            }
            Candidate::CrashAfterDecision {
                actor, label, n, ..
            } => {
                write!(f, "crash {actor} after its {label:?} decision #{n}")
            }
        }
    }
}

/// Enumerates candidates from a reference (fault-free) trace.
///
/// `decision_labels` selects which annotations count as decisions. For each
/// decision, the `depth` nearest causally-preceding view-update sends are
/// turned into [`Candidate::DropNth`] candidates (with a burst of 4, so
/// loss-detection replays are suppressed too), and the decision itself
/// into a [`Candidate::CrashAfterDecision`]. Candidates are deduplicated
/// and returned in discovery order (earliest decisions first, nearest
/// causes first).
pub fn candidates(
    trace: &Trace,
    targets: &Targets,
    decision_labels: &[&str],
    depth: usize,
    down_ms: u64,
) -> Vec<Candidate> {
    const BURST: u64 = 4;
    let graph = CausalGraph::from_trace(trace);

    // Index every view-update send: trace seq → (dst, ordinal at dst).
    let mut ordinal_at: std::collections::BTreeMap<u64, (ActorId, u64)> =
        std::collections::BTreeMap::new();
    let mut per_dst: std::collections::BTreeMap<ActorId, u64> = std::collections::BTreeMap::new();
    let interesting: BTreeSet<ActorId> = targets
        .caches
        .iter()
        .chain(targets.components.iter())
        .copied()
        .collect();
    for e in trace.iter() {
        if let TraceEventKind::MessageSent { dst, kind, .. } = &e.kind {
            if targets.notify_kinds.contains(kind) && interesting.contains(dst) {
                let n = per_dst.entry(*dst).or_insert(0);
                ordinal_at.insert(e.seq, (*dst, *n));
                *n += 1;
            }
        }
    }

    // Decisions, with per-(actor, label) occurrence counters.
    let mut decision_counter: std::collections::BTreeMap<(ActorId, String), u64> =
        std::collections::BTreeMap::new();
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for e in trace.iter() {
        let TraceEventKind::Annotation { actor, label, .. } = &e.kind else {
            continue;
        };
        if !decision_labels.contains(label) {
            continue;
        }
        let occurrence = {
            let c = decision_counter
                .entry((*actor, label.to_string()))
                .or_insert(0);
            let o = *c;
            *c += 1;
            o
        };
        // Crash the decider right after this decision.
        let crash = Candidate::CrashAfterDecision {
            actor: *actor,
            label: label.to_string(),
            n: occurrence,
            down_ms,
        };
        if seen.insert(crash.clone()) {
            out.push(crash);
        }
        // Drop the nearest causally-preceding view updates.
        let mut causes: Vec<u64> = graph
            .causes_of(e.seq)
            .into_iter()
            .filter(|s| ordinal_at.contains_key(s))
            .collect();
        causes.sort_unstable_by(|a, b| b.cmp(a)); // nearest (latest) first
        for s in causes.into_iter().take(depth) {
            let (dst, n) = ordinal_at[&s];
            // Two gap shapes per cause: a short burst (a transient loss,
            // replays suppressed) and a blackout (a persistent link fault
            // from this notification onward).
            for burst in [BURST, u64::MAX] {
                let c = Candidate::DropNth { dst, n, burst };
                if seen.insert(c.clone()) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// The result of exploring one candidate.
#[derive(Debug, Clone)]
pub struct AutoFinding {
    /// The candidate that was exercised.
    pub candidate: Candidate,
    /// Whether it triggered a violation.
    pub violated: bool,
    /// The violations' descriptions, if any.
    pub violations: Vec<String>,
    /// Trace events the candidate's run generated (hunt telemetry).
    pub events: u64,
    /// Simulated nanoseconds the run covered — the time of the last trace
    /// event (hunt telemetry).
    pub sim_ns: u64,
}

impl AutoFinding {
    fn from_run(candidate: Candidate, violations: Vec<String>, trace: &Trace) -> AutoFinding {
        AutoFinding {
            candidate,
            violated: !violations.is_empty(),
            violations,
            events: trace.events().len() as u64,
            sim_ns: trace.events().last().map(|e| e.at.0).unwrap_or(0),
        }
    }
}

/// Runs the full §7 loop: reference run → candidates → canonical-class
/// dedup → one run per surviving candidate (up to `budget`), collecting
/// what each found.
///
/// `run` executes the scenario under a strategy and returns
/// `(violations, trace)`; the first call uses [`crate::perturb::NoFault`]
/// to obtain the reference trace. The reference run is one run on the
/// calling thread; candidate enumeration is a pure function of its trace,
/// and the per-candidate re-runs fan out over `threads` workers of the
/// [`crate::parallel`] pool. Findings come back **in candidate order**
/// (merged by index, not completion), so the result is identical at any
/// thread count. The returned `usize` is the total number of candidates
/// derived before dedup and budgeting.
pub fn explore<R>(
    run: R,
    targets_of: impl Fn(&Trace) -> Targets,
    decision_labels: &[&str],
    depth: usize,
    budget: usize,
    threads: usize,
) -> (Vec<AutoFinding>, usize, ClassCensus)
where
    R: Fn(&mut dyn Strategy) -> (Vec<String>, Trace) + Sync,
{
    let (_, reference) = run(&mut crate::perturb::NoFault);
    let targets = targets_of(&reference);
    let all = candidates(&reference, &targets, decision_labels, depth, 300);
    let total = all.len();
    let (unique, census) = dedup_by_class(all, |c| c.schedule().planned_schedule());
    let tried: Vec<Candidate> = unique.into_iter().take(budget).collect();
    let findings = crate::parallel::run_indexed(threads, tried.len(), |i| {
        let candidate = tried[i].clone();
        let mut strategy = candidate.schedule();
        let (violations, trace) = run(&mut strategy);
        AutoFinding::from_run(candidate, violations, &trace)
    });
    (findings, total, census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::{Actor, AnyMsg, Ctx, TimerId, World, WorldConfig};

    /// Feeder sends View(i) every 10ms; Decider annotates "acted" upon
    /// receiving View(3).
    struct Feeder {
        peer: ActorId,
        i: u64,
    }
    #[derive(Debug)]
    struct View(u64);
    struct Decider;

    impl Actor for Feeder {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::millis(10), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
        fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
            ctx.send(self.peer, View(self.i));
            self.i += 1;
            ctx.set_timer(Duration::millis(10), 0);
        }
    }
    impl Actor for Decider {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _f: ActorId, m: AnyMsg, ctx: &mut Ctx) {
            if let Some(View(3)) = m.downcast_ref::<View>() {
                ctx.annotate("acted", "on view 3");
            }
        }
    }

    fn build() -> (World, Targets, ActorId) {
        let mut w = World::new(WorldConfig::default(), 5);
        let d = w.spawn("decider", Decider);
        let _f = w.spawn("feeder", Feeder { peer: d, i: 0 });
        let targets = Targets {
            store_nodes: [].into(),
            caches: [].into(),
            components: [d].into(),
            notify_kinds: &["View"],
            horizon: Duration::millis(200),
        };
        (w, targets, d)
    }

    #[test]
    fn witness_priors_dedupe_in_witness_order() {
        use ph_lint::summary::PatternClass;
        let w = |schedule: Vec<Letter>, class| Witness {
            component: "c".into(),
            action: "a".into(),
            class,
            path: "p".into(),
            schedule,
            detail: "d".into(),
        };
        let w1 = w(
            vec![Letter::DelayCache("pods".into())],
            PatternClass::Staleness,
        );
        let w2 = w(
            vec![Letter::DelayCache("pods".into()), Letter::UpstreamSwitch],
            PatternClass::TimeTravel,
        );
        let w3 = w(
            vec![Letter::DropNotification("leases".into())],
            PatternClass::ObservabilityGap,
        );
        let priors = witness_priors(&[&w1, &w2, &w3]);
        assert_eq!(
            priors,
            vec![
                Letter::DelayCache("pods".into()),
                Letter::UpstreamSwitch,
                Letter::DropNotification("leases".into()),
            ]
        );
    }

    #[test]
    fn candidates_cover_the_causal_notifications() {
        let (mut w, targets, d) = build();
        w.run_for(Duration::millis(100));
        let cands = candidates(w.trace(), &targets, &["acted"], 3, 100);
        // One crash candidate + up to 3 nearest drops.
        assert!(cands.iter().any(|c| matches!(
            c,
            Candidate::CrashAfterDecision { actor, n: 0, .. } if *actor == d
        )));
        let drops: Vec<&Candidate> = cands
            .iter()
            .filter(|c| matches!(c, Candidate::DropNth { .. }))
            .collect();
        assert_eq!(drops.len(), 6, "two gap shapes per cause: {cands:?}");
        // The nearest cause is the delivery of View(3) itself = ordinal 3.
        assert!(drops
            .iter()
            .any(|c| matches!(c, Candidate::DropNth { n: 3, burst: 4, .. })));
        assert!(drops.iter().any(|c| matches!(
            c,
            Candidate::DropNth {
                burst: u64::MAX,
                ..
            }
        )));
    }

    #[test]
    fn drop_candidate_suppresses_the_decision() {
        let (mut w, targets, _d) = build();
        w.run_for(Duration::millis(100));
        let cands = candidates(w.trace(), &targets, &["acted"], 1, 100);
        let drop = cands
            .iter()
            .find(|c| matches!(c, Candidate::DropNth { n: 3, .. }))
            .expect("nearest drop")
            .clone();

        // Re-run with the candidate applied: the decision must vanish.
        let (mut w2, targets2, _) = build();
        let mut strategy = drop.schedule();
        strategy.setup(&mut w2, &targets2);
        w2.run_for(Duration::millis(100));
        assert_eq!(w2.trace().annotations("acted").count(), 0);
    }

    #[test]
    fn crash_candidate_fires_once_after_the_decision() {
        let (mut w, targets, d) = build();
        let mut strategy = Candidate::CrashAfterDecision {
            actor: d,
            label: "acted".into(),
            n: 0,
            down_ms: 20,
        }
        .schedule();
        strategy.setup(&mut w, &targets);
        for _ in 0..20 {
            w.run_for(Duration::millis(10));
            strategy.tick(&mut w, &targets);
        }
        assert_eq!(w.incarnation(d), 1, "one crash+restart");
        assert_eq!(w.trace().annotations("acted").count(), 1);
    }

    #[test]
    fn explore_runs_reference_plus_budgeted_candidates() {
        let run = |strategy: &mut dyn Strategy| {
            let (mut w, targets, _) = build();
            strategy.setup(&mut w, &targets);
            for _ in 0..12 {
                w.run_for(Duration::millis(10));
                strategy.tick(&mut w, &targets);
            }
            strategy.teardown(&mut w);
            // "Oracle": the decision must happen.
            let violated = w.trace().annotations("acted").count() == 0;
            let violations = if violated {
                vec!["decision suppressed".to_string()]
            } else {
                Vec::new()
            };
            (violations, w.trace().clone())
        };
        let targets_of = |_: &Trace| {
            let (w, targets, _) = build();
            drop(w);
            targets
        };
        let (findings, total, census) = explore(run, targets_of, &["acted"], 2, 10, 1);
        assert!(total >= 3);
        // Anchors carry every parameter, so exact-deduped candidates all
        // land in distinct classes; the census must agree.
        assert_eq!(census.distinct_classes as usize, total);
        assert_eq!(census.deduped_trials, 0);
        assert!(
            findings.iter().any(|f| f.violated),
            "some candidate must suppress the decision: {findings:?}"
        );
    }

    #[test]
    fn candidate_classes_track_every_behavioral_parameter() {
        let (w, _, d) = build();
        drop(w);
        let drop_a = Candidate::DropNth {
            dst: d,
            n: 3,
            burst: 4,
        };
        let drop_b = Candidate::DropNth {
            dst: d,
            n: 3,
            burst: u64::MAX,
        };
        let crash = Candidate::CrashAfterDecision {
            actor: d,
            label: "acted".into(),
            n: 0,
            down_ms: 300,
        };
        let class =
            |c: &Candidate| crate::canon::plan_class(&c.schedule().planned_schedule().unwrap());
        assert_eq!(class(&drop_a), class(&drop_a.clone()));
        assert_ne!(class(&drop_a), class(&drop_b), "burst is behavioral");
        assert_ne!(class(&drop_a), class(&crash));
        let (kept, census) =
            dedup_by_class(vec![drop_a.clone(), drop_b, drop_a.clone(), crash], |c| {
                c.schedule().planned_schedule()
            });
        assert_eq!(kept.len(), 3);
        assert_eq!(census.distinct_classes, 3);
        assert_eq!(census.deduped_trials, 1);
    }
}

//! Violation provenance: backward causal blame chains (§7).
//!
//! A detected violation used to be a bit plus a seed — the human still had
//! to replay the trace by hand to learn *which* injected perturbation made
//! *which* view stale. This module is the dynamic counterpart of the static
//! witnesses in `ph-lint::modelcheck`: given a violating run's [`Trace`] and
//! a per-scenario [`BlameSpec`] (who acts, and under which annotation
//! labels), [`explain`] slices the trace backward from the destructive
//! action and reconstructs the minimal causal chain
//!
//! > injected perturbation → store commit(s) → delayed/dropped/reordered
//! > view update → stale read → action
//!
//! classifying it with the same §4.2 taxonomy the model checker uses
//! ([`PatternClass`]): **staleness** (acted on an old-but-once-true view),
//! **time-travel** (re-entered a state it had provably moved past, across a
//! crash/restart), **observability-gap** (the required fact never reached
//! the view — including omission sinks, where the component never acted at
//! all), or **congestion-staleness** (no perturbation was injected at all:
//! queue-delay and queue-drop artifacts from `ph_sim::net`'s finite-
//! bandwidth queues aged the view under offered load alone). The dynamic
//! class is cross-checked against the static witness class for every
//! scenario in CI.
//!
//! Everything here is a pure function of the trace, so same-seed runs
//! produce byte-identical explanations (`BlameChain::to_json`) at any
//! thread count.

use std::collections::{BTreeMap, BTreeSet};

use ph_lint::json;
use ph_lint::summary::PatternClass;
use ph_sim::{ActorId, DropReason, SimTime, Trace, TraceEventKind};

use crate::causality::CausalGraph;
use crate::oracle::Violation;

/// How many artifact groups (suppressed view updates / partition drops) a
/// chain lists in full; the rest are counted in [`BlameChain::truncated`].
/// Keeps hbase-style runs (hundreds of delayed replication messages) from
/// drowning the explanation while the effectiveness numbers still cover
/// every artifact.
pub const MAX_ARTIFACT_GROUPS: usize = 6;

/// What a scenario tells the slicer about its acting component.
#[derive(Debug, Clone, Copy)]
pub struct BlameSpec {
    /// Scenario name (appears in the explanation).
    pub scenario: &'static str,
    /// Name of the acting (destructive) component — the blame sink's actor.
    pub component: &'static str,
    /// Annotation labels that mark the destructive action.
    pub action_labels: &'static [&'static str],
    /// Names of the component's possible view caches (apiservers, store
    /// followers): suppression of updates *toward these* is what makes the
    /// component's view partial.
    pub caches: &'static [&'static str],
}

/// One step of a blame chain, anchored to a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameLink {
    /// Trace sequence number of the anchoring event.
    pub seq: u64,
    /// Logical time of the event.
    pub at: SimTime,
    /// The step's role in the chain (`"crash"`, `"store-commit"`,
    /// `"update-held"`, `"stale-read"`, `"action"`, …).
    pub role: &'static str,
    /// Human-readable account of the step.
    pub detail: String,
}

/// The compact form folded into `RunReport`s and detection matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameSummary {
    /// §4.2 class of the chain.
    pub class: PatternClass,
    /// Number of links in the (display-capped) chain.
    pub links: usize,
    /// Total injected perturbation artifacts in the run.
    pub injected: usize,
    /// How many of those appear in the blame chain.
    pub in_chain: usize,
}

impl BlameSummary {
    /// Injection effectiveness as an integer percentage (floor), or `None`
    /// when nothing was injected.
    pub fn effectiveness_pct(&self) -> Option<u64> {
        (self.in_chain as u64 * 100).checked_div(self.injected as u64)
    }
}

/// A classified backward slice from a violating destructive action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameChain {
    /// Scenario name, from the spec.
    pub scenario: String,
    /// §4.2 class of the chain (cross-checkable against the static witness
    /// class of the same scenario).
    pub class: PatternClass,
    /// One sentence naming the classification rule that fired.
    pub rationale: String,
    /// Trace seq of the sink action annotation; `None` for omission sinks
    /// (the component never performed the required action).
    pub sink: Option<u64>,
    /// The chain, in trace order.
    pub links: Vec<BlameLink>,
    /// Total injected perturbation artifacts in the run (held, delayed,
    /// interceptor-dropped, partition-dropped messages; victim crashes and
    /// restarts).
    pub injected: usize,
    /// How many injected artifacts appear in the chain (before display
    /// capping) — the paper's "perturb causally related events" heuristic,
    /// measured.
    pub in_chain: usize,
    /// Artifact groups omitted from `links` by the display cap.
    pub truncated: usize,
    /// The first violation the chain explains, if any were reported.
    pub violation: Option<Violation>,
}

impl BlameChain {
    /// The compact summary for reports and matrices.
    pub fn summary(&self) -> BlameSummary {
        BlameSummary {
            class: self.class,
            links: self.links.len(),
            injected: self.injected,
            in_chain: self.in_chain,
        }
    }

    /// Injection effectiveness as an integer percentage (floor), or `None`
    /// when nothing was injected.
    pub fn effectiveness_pct(&self) -> Option<u64> {
        self.summary().effectiveness_pct()
    }

    /// Deterministic JSON rendering — byte-identical across same-seed runs
    /// and thread counts (only integers and escaped strings, no floats).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("scenario", &self.scenario)
                .str("class", self.class.as_str())
                .str("rationale", &self.rationale)
                .opt_val("sink", self.sink)
                .val("injected", self.injected)
                .val("in_chain", self.in_chain)
                .opt_val("effectiveness_pct", self.effectiveness_pct())
                .val("truncated", self.truncated);
            let mut links = o.arr("links");
            for l in &self.links {
                links
                    .obj()
                    .val("seq", l.seq)
                    .val("at_ns", l.at.0)
                    .str("role", l.role)
                    .str("detail", &l.detail);
            }
            drop(links);
            match &self.violation {
                Some(v) => o.raw("violation", &v.to_json()),
                None => o.null("violation"),
            };
        })
    }

    /// Fixed-width text rendering for `phtool explain`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "blame chain for {} — class: {}",
            self.scenario,
            self.class.as_str()
        );
        let _ = writeln!(out, "  rationale: {}", self.rationale);
        match self.effectiveness_pct() {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  injection effectiveness: {}/{} artifacts in chain ({p}%)",
                    self.in_chain, self.injected
                );
            }
            None => {
                let _ = writeln!(out, "  injection effectiveness: n/a (nothing injected)");
            }
        }
        let _ = writeln!(out, "  {:<8} {:<12} {:<16} detail", "seq", "at", "role");
        for l in &self.links {
            let _ = writeln!(
                out,
                "  {:<8} {:<12} {:<16} {}",
                l.seq, l.at.0, l.role, l.detail
            );
        }
        if self.truncated > 0 {
            let _ = writeln!(out, "  … {} more artifact group(s) omitted", self.truncated);
        }
        match &self.violation {
            Some(v) => {
                let _ = writeln!(out, "  violation: {v}");
            }
            None => {
                let _ = writeln!(out, "  violation: (none reported)");
            }
        }
        out
    }
}

/// A suppressed view update (one message) and the trace events that tell
/// its story.
#[derive(Debug, Default, Clone)]
struct ArtifactGroup {
    first_seq: u64,
    links: Vec<BlameLink>,
}

/// Computes the blame chain for a run.
///
/// `violations` should be the run's reported violations (possibly empty —
/// the chain is still computed, with the sink search bounded by the end of
/// the trace; callers typically only attach chains to failing runs).
pub fn explain(trace: &Trace, spec: &BlameSpec, violations: &[Violation]) -> BlameChain {
    let mut names: BTreeMap<ActorId, String> = BTreeMap::new();
    for e in trace.iter() {
        if let TraceEventKind::Spawned { actor, name } = &e.kind {
            names.entry(*actor).or_insert_with(|| name.to_string());
        }
    }
    let by_name = |n: &str| -> Option<ActorId> {
        names
            .iter()
            .find(|(_, name)| name.as_str() == n)
            .map(|(&a, _)| a)
    };
    let victim = by_name(spec.component);
    let caches: BTreeSet<ActorId> = spec.caches.iter().filter_map(|c| by_name(c)).collect();
    let name_of = |a: ActorId| -> &str { names.get(&a).map(|s| s.as_str()).unwrap_or("?") };

    let bound = violations
        .iter()
        .map(|v| v.at)
        .min()
        .or_else(|| trace.events().last().map(|e| e.at))
        .unwrap_or(SimTime(0));

    // The sink: the victim's last destructive-action annotation at or
    // before the first violation. Absent => omission sink (the bug is that
    // the action never happened).
    let mut sink: Option<(u64, SimTime, &'static str, String)> = None;
    if let Some(v) = victim {
        for e in trace.iter() {
            if e.at > bound {
                break;
            }
            if let TraceEventKind::Annotation { actor, label, data } = &e.kind {
                if *actor == v && spec.action_labels.contains(label) {
                    sink = Some((e.seq, e.at, *label, data.clone()));
                }
            }
        }
    }
    let class_bound = sink.as_ref().map(|s| s.1).unwrap_or(bound);

    // Artifact scan: everything a perturbation strategy (or the scenario's
    // injected faults) left in the trace.
    let mut injected = 0usize;
    let mut in_chain = 0usize;
    let mut crash_links: Vec<BlameLink> = Vec::new();
    let mut victim_crash_seqs: Vec<(u64, SimTime)> = Vec::new();
    let mut victim_restart_seqs: Vec<(u64, SimTime)> = Vec::new();
    // Message id -> suppression artifact group under construction.
    let mut groups: BTreeMap<u64, ArtifactGroup> = BTreeMap::new();
    let mut partition_groups: Vec<ArtifactGroup> = Vec::new();
    let mut suppressed_ids: BTreeSet<u64> = BTreeSet::new();
    let mut any_suppression = false;
    let mut any_partition = false;
    // Congestion artifacts are *emergent*, not injected: the network's
    // queue discipline produced them from offered load, so they count
    // toward neither `injected` nor `in_chain`.
    let mut any_congestion = false;

    let toward_view = |dst: ActorId| -> bool { Some(dst) == victim || caches.contains(&dst) };

    for e in trace.iter() {
        match &e.kind {
            TraceEventKind::MessageHeld { id, src, dst, kind }
            | TraceEventKind::MessageDelayed {
                id, src, dst, kind, ..
            } => {
                injected += 1;
                if toward_view(*dst) && e.at <= class_bound {
                    in_chain += 1;
                    any_suppression = true;
                    suppressed_ids.insert(id.0);
                    let role = if matches!(e.kind, TraceEventKind::MessageHeld { .. }) {
                        "update-held"
                    } else {
                        "update-delayed"
                    };
                    let g = groups.entry(id.0).or_insert_with(|| ArtifactGroup {
                        first_seq: e.seq,
                        links: Vec::new(),
                    });
                    g.links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role,
                        detail: format!("{kind} {} → {}", name_of(*src), name_of(*dst)),
                    });
                }
            }
            TraceEventKind::MessageDropped {
                id,
                src,
                dst,
                kind,
                reason,
            } => match reason {
                DropReason::Interceptor => {
                    injected += 1;
                    if toward_view(*dst) && e.at <= class_bound {
                        in_chain += 1;
                        any_suppression = true;
                        suppressed_ids.insert(id.0);
                        let g = groups.entry(id.0).or_insert_with(|| ArtifactGroup {
                            first_seq: e.seq,
                            links: Vec::new(),
                        });
                        g.links.push(BlameLink {
                            seq: e.seq,
                            at: e.at,
                            role: "update-dropped",
                            detail: format!("{kind} {} → {}", name_of(*src), name_of(*dst)),
                        });
                    }
                }
                DropReason::Partitioned => {
                    injected += 1;
                    if e.at <= class_bound {
                        in_chain += 1;
                        any_partition = true;
                        partition_groups.push(ArtifactGroup {
                            first_seq: e.seq,
                            links: vec![BlameLink {
                                seq: e.seq,
                                at: e.at,
                                role: "partition-drop",
                                detail: format!("{kind} {} → {}", name_of(*src), name_of(*dst)),
                            }],
                        });
                    }
                }
                // Emergent: a drop-tail queue on the feed overflowed
                // under offered load. Not an injected artifact.
                DropReason::QueueFull if toward_view(*dst) && e.at <= class_bound => {
                    any_congestion = true;
                    suppressed_ids.insert(id.0);
                    let g = groups.entry(id.0).or_insert_with(|| ArtifactGroup {
                        first_seq: e.seq,
                        links: Vec::new(),
                    });
                    g.links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role: "queue-drop",
                        detail: format!(
                            "{kind} {} → {} tail-dropped by a full transmit queue",
                            name_of(*src),
                            name_of(*dst)
                        ),
                    });
                }
                _ => {}
            },
            // Emergent queueing delay on the feed (recorded only when
            // the message actually waited). Not an injected artifact.
            TraceEventKind::MessageQueued {
                id,
                src,
                dst,
                kind,
                depth,
                waited,
            } if toward_view(*dst) && e.at <= class_bound => {
                any_congestion = true;
                suppressed_ids.insert(id.0);
                let g = groups.entry(id.0).or_insert_with(|| ArtifactGroup {
                    first_seq: e.seq,
                    links: Vec::new(),
                });
                g.links.push(BlameLink {
                    seq: e.seq,
                    at: e.at,
                    role: "queue-delay",
                    detail: format!(
                        "{kind} {} → {} waited {waited} in a transmit queue (depth {depth})",
                        name_of(*src),
                        name_of(*dst)
                    ),
                });
            }
            TraceEventKind::Crashed { actor } if Some(*actor) == victim => {
                injected += 1;
                if e.at <= class_bound {
                    in_chain += 1;
                    victim_crash_seqs.push((e.seq, e.at));
                    crash_links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role: "crash",
                        detail: format!("{} crashed (view lost)", spec.component),
                    });
                }
            }
            TraceEventKind::Restarted { actor } if Some(*actor) == victim => {
                injected += 1;
                if e.at <= class_bound {
                    in_chain += 1;
                    victim_restart_seqs.push((e.seq, e.at));
                    crash_links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role: "restart",
                        detail: format!("{} restarted (rebuilding view)", spec.component),
                    });
                }
            }
            _ => {}
        }
    }

    // Second pass: complete each suppressed-update group with its story —
    // the send that committed the update, its release (if any), and its
    // eventual delivery (a stale read if it causally precedes the sink).
    let graph = sink.as_ref().map(|_| CausalGraph::from_trace(trace));
    let slice: BTreeSet<u64> = match (&graph, &sink) {
        (Some(g), Some((s, ..))) => g.slice(*s).into_iter().collect(),
        _ => BTreeSet::new(),
    };
    for e in trace.iter() {
        match &e.kind {
            TraceEventKind::MessageSent { id, src, dst, kind }
                if suppressed_ids.contains(&id.0) =>
            {
                if let Some(g) = groups.get_mut(&id.0) {
                    g.links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role: "store-commit",
                        detail: format!(
                            "{kind} emitted by {} for {}",
                            name_of(*src),
                            name_of(*dst)
                        ),
                    });
                }
            }
            TraceEventKind::MessageReleased { id } if suppressed_ids.contains(&id.0) => {
                if let Some(g) = groups.get_mut(&id.0) {
                    g.links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role: "update-released",
                        detail: format!("held update {} re-enters the network", id.0),
                    });
                }
            }
            TraceEventKind::MessageDelivered { id, dst, kind, .. }
                if suppressed_ids.contains(&id.0) =>
            {
                if let Some(g) = groups.get_mut(&id.0) {
                    let (role, what) = if slice.contains(&e.seq) {
                        ("stale-read", "observed before the action")
                    } else {
                        ("late-delivery", "arrived too late to matter")
                    };
                    g.links.push(BlameLink {
                        seq: e.seq,
                        at: e.at,
                        role,
                        detail: format!("{kind} reaches {} ({what})", name_of(*dst)),
                    });
                }
            }
            _ => {}
        }
    }

    // Classify with the §4.2 taxonomy.
    let crashed = !victim_crash_seqs.is_empty();
    let restarted = !victim_restart_seqs.is_empty();
    let (class, rationale) = if crashed && restarted {
        let time_travel = sink.as_ref().is_some_and(|(_, _, label, data)| {
            let v = victim.expect("sink implies victim resolved");
            let (crash_seq, _) = *victim_crash_seqs.last().unwrap();
            // The sink repeats a pre-crash annotation the victim had
            // provably moved past: a same-(label, data) twin exists before
            // the crash AND a later same-data annotation (different label)
            // intervened before the crash — the state was re-entered, not
            // merely re-asserted.
            let mut twin = false;
            let mut last_same_data_label = None;
            for e in trace.iter() {
                if e.seq >= crash_seq {
                    break;
                }
                if let TraceEventKind::Annotation {
                    actor,
                    label: l,
                    data: d,
                } = &e.kind
                {
                    if *actor == v && d == data {
                        if l == label {
                            twin = true;
                        }
                        last_same_data_label = Some(*l);
                    }
                }
            }
            twin && last_same_data_label != Some(*label)
        });
        if time_travel {
            (
                PatternClass::TimeTravel,
                format!(
                    "{} crashed and restarted, then re-performed an action it had already \
                     superseded before the crash — its view travelled back in time",
                    spec.component
                ),
            )
        } else if any_suppression {
            (
                PatternClass::Staleness,
                format!(
                    "{} acted after a crash/restart while updates toward its view were \
                     suppressed — it acted on an old-but-once-true view",
                    spec.component
                ),
            )
        } else {
            (
                PatternClass::ObservabilityGap,
                format!(
                    "{} crashed and restarted with no suppressed updates in flight — the \
                     fact it needed was never observable from its rebuilt view",
                    spec.component
                ),
            )
        }
    } else if any_suppression {
        if sink.is_some() {
            (
                PatternClass::Staleness,
                format!(
                    "updates toward {}'s view were suppressed before it acted — it acted \
                     on an old-but-once-true view",
                    spec.component
                ),
            )
        } else {
            (
                PatternClass::ObservabilityGap,
                format!(
                    "updates toward {}'s view were suppressed and it never performed the \
                     required action — the triggering fact never became observable",
                    spec.component
                ),
            )
        }
    } else if any_partition {
        (
            PatternClass::ObservabilityGap,
            format!(
                "a partition cut view updates off wholesale — {} cannot distinguish a \
                 dead peer from an unobservable one",
                spec.component
            ),
        )
    } else if any_congestion && sink.is_some() {
        (
            PatternClass::CongestionStaleness,
            format!(
                "offered load alone aged {}'s view — updates toward it sat in (or were \
                 tail-dropped by) a saturated queue, with no injected perturbation",
                spec.component
            ),
        )
    } else if sink.is_none() {
        (
            PatternClass::ObservabilityGap,
            format!(
                "{} never performed the required action and no suppression was injected \
                 — the fact it needed is invisible in its view",
                spec.component
            ),
        )
    } else {
        (
            PatternClass::Staleness,
            format!(
                "{} acted while its view lagged the store (no explicit suppression \
                 artifacts found — ambient lag)",
                spec.component
            ),
        )
    };

    // Assemble links: crash/restart markers, the first MAX_ARTIFACT_GROUPS
    // artifact groups by first seq, and the sink.
    let mut all_groups: Vec<ArtifactGroup> = groups.into_values().collect();
    all_groups.extend(partition_groups);
    all_groups.sort_by_key(|g| g.first_seq);
    let total_groups = all_groups.len();
    let truncated = total_groups.saturating_sub(MAX_ARTIFACT_GROUPS);
    let mut links: Vec<BlameLink> = crash_links;
    for g in all_groups.into_iter().take(MAX_ARTIFACT_GROUPS) {
        links.extend(g.links);
    }
    if let Some((seq, at, label, data)) = &sink {
        links.push(BlameLink {
            seq: *seq,
            at: *at,
            role: "action",
            detail: format!("{} {label}({data})", spec.component),
        });
    }
    links.sort_by_key(|l| l.seq);

    BlameChain {
        scenario: spec.scenario.to_string(),
        class,
        rationale,
        sink: sink.as_ref().map(|(s, ..)| *s),
        links,
        injected,
        in_chain,
        truncated,
        violation: violations.first().cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::{Duration, Trace};

    const SPEC: BlameSpec = BlameSpec {
        scenario: "synthetic",
        component: "worker",
        action_labels: &["worker.act"],
        caches: &["cache"],
    };

    fn base_trace() -> Trace {
        Trace::new()
    }

    // Building raw traces requires the crate-private `push`; go through a
    // real world instead for integration-grade coverage.
    struct Echo;
    impl ph_sim::Actor for Echo {
        fn on_start(&mut self, _ctx: &mut ph_sim::Ctx) {}
        fn on_message(&mut self, from: ph_sim::ActorId, _m: ph_sim::AnyMsg, ctx: &mut ph_sim::Ctx) {
            ctx.annotate("worker.act", "x");
            let _ = from;
        }
    }
    struct Pinger {
        peer: ph_sim::ActorId,
    }
    impl ph_sim::Actor for Pinger {
        fn on_start(&mut self, ctx: &mut ph_sim::Ctx) {
            ctx.send(self.peer, 1u32);
        }
        fn on_message(&mut self, _f: ph_sim::ActorId, _m: ph_sim::AnyMsg, _c: &mut ph_sim::Ctx) {}
    }

    #[test]
    fn suppressed_update_before_action_classifies_as_staleness() {
        let mut w = ph_sim::World::new(ph_sim::WorldConfig::default(), 3);
        let worker = w.spawn("worker", Echo);
        let delay_dst = worker;
        w.set_interceptor(move |env: &ph_sim::Envelope, _t: ph_sim::SimTime| {
            if env.dst == delay_dst {
                ph_sim::Verdict::Delay(Duration::millis(5))
            } else {
                ph_sim::Verdict::Pass
            }
        });
        w.spawn("pinger", Pinger { peer: worker });
        w.run_for(Duration::millis(20));
        let violations = vec![Violation {
            oracle: "test".into(),
            at: w.now(),
            details: "acted stale".into(),
        }];
        let chain = explain(w.trace(), &SPEC, &violations);
        assert_eq!(chain.class, PatternClass::Staleness);
        assert!(chain.sink.is_some(), "worker annotated the action");
        assert!(chain.injected >= 1);
        assert!(chain.in_chain >= 1);
        assert!(chain.links.iter().any(|l| l.role == "update-delayed"));
        assert!(chain.links.iter().any(|l| l.role == "action"));
        // Deterministic JSON.
        assert_eq!(
            chain.to_json(),
            explain(w.trace(), &SPEC, &violations).to_json()
        );
        assert!(chain.to_json().contains("\"class\":\"staleness\""));
    }

    /// Sends a burst of sized messages so a finite-bandwidth link queues
    /// (and, past capacity, tail-drops) them. Fires from a timer so the
    /// test can configure the link after spawning (`on_start` runs at
    /// spawn time, before `set_link`).
    struct Burst {
        peer: ph_sim::ActorId,
    }
    impl ph_sim::Actor for Burst {
        fn on_start(&mut self, ctx: &mut ph_sim::Ctx) {
            ctx.set_timer(Duration::micros(10), 0);
        }
        fn on_message(&mut self, _f: ph_sim::ActorId, _m: ph_sim::AnyMsg, _c: &mut ph_sim::Ctx) {}
        fn on_timer(&mut self, _t: ph_sim::TimerId, _tag: u64, ctx: &mut ph_sim::Ctx) {
            for i in 0..5u32 {
                ctx.send_sized(self.peer, i, 64 * 1024);
            }
        }
    }

    #[test]
    fn congested_feed_with_action_classifies_as_congestion_staleness() {
        let mut w = ph_sim::World::new(ph_sim::WorldConfig::default(), 4);
        let worker = w.spawn("worker", Echo);
        let pinger = w.spawn("pinger", Burst { peer: worker });
        w.net_mut().set_link(
            pinger,
            worker,
            ph_sim::LinkConfig {
                bandwidth: 10_000,
                queue: 3,
                ..ph_sim::LinkConfig::default()
            },
        );
        w.run_for(Duration::millis(60_000));
        let violations = vec![Violation {
            oracle: "test".into(),
            at: w.now(),
            details: "acted on a congestion-aged view".into(),
        }];
        let chain = explain(w.trace(), &SPEC, &violations);
        assert_eq!(chain.class, PatternClass::CongestionStaleness);
        assert_eq!(chain.injected, 0, "queue artifacts are emergent");
        assert_eq!(chain.in_chain, 0);
        assert!(chain.links.iter().any(|l| l.role == "queue-delay"));
        assert!(chain.links.iter().any(|l| l.role == "queue-drop"));
        assert!(chain.links.iter().any(|l| l.role == "action"));
        assert!(chain
            .to_json()
            .contains("\"class\":\"congestion-staleness\""));
    }

    #[test]
    fn no_action_and_no_artifacts_is_an_observability_gap() {
        let t = base_trace();
        let chain = explain(&t, &SPEC, &[]);
        assert_eq!(chain.class, PatternClass::ObservabilityGap);
        assert_eq!(chain.sink, None);
        assert_eq!(chain.injected, 0);
        assert_eq!(chain.effectiveness_pct(), None);
        assert!(chain.to_json().contains("\"sink\":null"));
        assert!(chain.to_json().contains("\"effectiveness_pct\":null"));
    }

    #[test]
    fn render_mentions_class_and_rationale() {
        let t = base_trace();
        let chain = explain(&t, &SPEC, &[]);
        let text = chain.render();
        assert!(text.contains("observability-gap"));
        assert!(text.contains("rationale:"));
        assert!(text.contains("violation: (none reported)"));
    }
}

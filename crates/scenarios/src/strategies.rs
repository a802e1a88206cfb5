//! Payload-aware perturbation schedules.
//!
//! The generic `ph-core` rules match messages by *kind*; [`EventSelector`]
//! additionally inspects cluster payloads (which object a notification
//! concerns). The builders here wrap it, and the trace trigger (which
//! decision a component just advertised), into named [`Schedule`]s — what
//! §7 calls perturbing "events that are causally related to a component's
//! action", made precise by the deterministic simulator.

use std::rc::Rc;

use ph_cluster::api::ApiWatchEvent;
use ph_cluster::objects::Object;
use ph_core::perturb::{
    CoFiPartitions, CrashTunerCrashes, Matcher, NoFault, Op, RandomCrashes, Rule, Schedule,
    Strategy, TargetRef, TrafficSurge,
};
use ph_sim::{Duration, Envelope, Verdict};
use ph_store::kv::KvEvent;
use ph_store::msgs::WatchNotify;

/// The strategies every scenario can be run under, in matrix-column order:
/// the scenario's own tuned injector, then the generic baselines.
pub const STRATEGIES: &[&str] = &[
    "guided",
    "random-crash",
    "crashtuner",
    "cofi",
    "traffic-surge",
    "no-fault",
];

/// Builds the generic baseline called `name` — any of [`STRATEGIES`] but
/// `guided`, which is per scenario ([`crate::Scenario::strategy`]).
pub fn baseline(name: &str, seed: u64) -> Option<Box<dyn Strategy>> {
    Some(match name {
        "random-crash" => Box::new(RandomCrashes {
            seed,
            count: 3,
            down: Duration::millis(300),
        }),
        "crashtuner" => Box::new(CrashTunerCrashes::new(seed, 0.02, 3, Duration::millis(300))),
        "cofi" => Box::new(CoFiPartitions::new(seed, 0.02, 3, Duration::millis(500))),
        // The generic load axis: squeeze the primary cache's whole fan-out
        // to a scarce trickle mid-run. The congestion scenario's tuned form
        // (its `guided`) focuses this on one component; the generic axis is
        // for probing every other scenario under load.
        "traffic-surge" => Box::new(TrafficSurge::new(
            0,
            2_000,
            4,
            Duration::millis(1100),
            Some(Duration::millis(3600)),
        )),
        "no-fault" => Box::new(NoFault),
        _ => return None,
    })
}

/// Returns the object keys named by a view-update envelope, at either layer
/// (store→apiserver `WatchNotify` or apiserver→component `ApiWatchEvent`),
/// each with `(key, is_delete, has_deletion_timestamp)`.
pub fn notify_keys(env: &Envelope) -> Vec<(String, bool, bool)> {
    let mut out = Vec::new();
    if let Some(n) = env.msg.downcast_ref::<WatchNotify>() {
        for e in &n.events {
            let (del, dt) = match e.as_ref() {
                KvEvent::Put { kv, .. } => (
                    false,
                    Object::decode(&kv.value)
                        .map(|o| o.is_terminating())
                        .unwrap_or(false),
                ),
                KvEvent::Delete { .. } => (true, false),
            };
            out.push((e.key().as_str().to_string(), del, dt));
        }
    }
    if let Some(n) = env.msg.downcast_ref::<ApiWatchEvent>() {
        for e in &n.events {
            let dt = e
                .value
                .as_ref()
                .and_then(|v| Object::decode(v).ok())
                .map(|o| o.is_terminating())
                .unwrap_or(false);
            out.push((e.key.clone(), e.is_delete(), dt));
        }
    }
    out
}

/// What [`drop_matching`] / [`hold_matching`] look for in a notification.
#[derive(Debug, Clone)]
pub struct EventSelector {
    /// Match events whose key contains this substring.
    pub key_contains: String,
    /// If `Some(true)`, only deletions; `Some(false)`, only puts.
    pub deletes: Option<bool>,
    /// If `Some(true)`, only puts that set a deletion timestamp.
    pub with_deletion_timestamp: Option<bool>,
}

impl EventSelector {
    fn new(key: impl Into<String>, deletes: Option<bool>, marked: Option<bool>) -> EventSelector {
        EventSelector {
            key_contains: key.into(),
            deletes,
            with_deletion_timestamp: marked,
        }
    }

    /// Any event touching a key containing `key`.
    #[must_use]
    pub fn key(key: impl Into<String>) -> EventSelector {
        EventSelector::new(key, None, None)
    }

    /// Only deletions of matching keys.
    #[must_use]
    pub fn deletes_of(key: impl Into<String>) -> EventSelector {
        EventSelector::new(key, Some(true), None)
    }

    /// Only the "marked for deletion" update of matching keys.
    #[must_use]
    pub fn termination_mark_of(key: impl Into<String>) -> EventSelector {
        EventSelector::new(key, Some(false), Some(true))
    }

    fn rule(self, dst: TargetRef, verdict: Verdict, from: Duration) -> Rule {
        Rule {
            from,
            matcher: Some(Rc::new(self)),
            ..Rule::new(dst, verdict)
        }
    }
}

impl Matcher for EventSelector {
    fn matches(&self, env: &Envelope) -> bool {
        notify_keys(env).iter().any(|(key, del, dt)| {
            key.contains(&self.key_contains)
                && self.deletes.map_or(true, |want| *del == want)
                && self
                    .with_deletion_timestamp
                    .map_or(true, |want| *dt == want)
        })
    }
}

/// Silently drops the first `max` view-update notifications matching
/// `selector` on their way to `dst` from `from` on (`u64::MAX` = all of
/// them) — the precise observability-gap injector.
#[must_use]
pub fn drop_matching(
    dst: TargetRef,
    selector: EventSelector,
    from: Duration,
    max: u64,
) -> Schedule {
    let label = format!("obs-gap(drop {:?})", selector.key_contains);
    let rule = Rule {
        nth: Some((0, max)),
        ..selector.rule(dst, Verdict::Drop, from)
    };
    Schedule::new(label, vec![Op::Intercept(rule)])
}

/// Holds every view-update notification matching `selector` on its way to
/// `dst` from `from` on — freezing that destination's knowledge of the
/// selected objects while the rest of its view advances. The backlog is
/// released at `release_at` (`None` = at teardown).
#[must_use]
pub fn hold_matching(
    dst: TargetRef,
    selector: EventSelector,
    from: Duration,
    release_at: Option<Duration>,
) -> Schedule {
    let label = format!("staleness(hold {:?})", selector.key_contains);
    let rule = Rule {
        until: release_at,
        ..selector.rule(dst, Verdict::Hold, from)
    };
    Schedule::new(label, vec![Op::Intercept(rule)])
}

/// Crashes whichever actor records a trace annotation labelled `label`,
/// `delay` later, and restarts it after `down` — at most `max` times
/// ([`Op::CrashOn`]).
#[must_use]
pub fn crash_on_annotation(label: &str, delay: Duration, down: Duration, max: u32) -> Schedule {
    Schedule::new(
        format!("time-travel(crash on {label:?})"),
        vec![Op::CrashOn {
            label: label.into(),
            actor: None,
            nth: 0,
            max,
            delay: Some(delay),
            down,
        }],
    )
}

/// Partitions component `component` from all the apiservers between `from`
/// and `until` ([`Op::Partition`]).
#[must_use]
pub fn partition_component(component: usize, from: Duration, until: Duration) -> Schedule {
    Schedule::new(
        "partition(component↔apiservers)",
        vec![Op::Partition {
            victim: TargetRef::Component(component),
            from,
            until,
        }],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::ActorId;

    #[test]
    fn selector_constructors() {
        let s = EventSelector::key("pods/p1");
        assert_eq!(s.deletes, None);
        let s = EventSelector::deletes_of("nodes/");
        assert_eq!(s.deletes, Some(true));
        let s = EventSelector::termination_mark_of("pods/");
        assert_eq!(s.with_deletion_timestamp, Some(true));
        assert_eq!(s.deletes, Some(false));
    }

    #[test]
    fn strategy_names_are_descriptive() {
        let (dst, key) = (TargetRef::Actor(ActorId(0)), || EventSelector::key("x"));
        let d = drop_matching(dst, key(), Duration::ZERO, 1);
        assert_eq!(d.name(), "obs-gap(drop \"x\")");
        let h = hold_matching(dst, key(), Duration::ZERO, None);
        assert_eq!(h.name(), "staleness(hold \"x\")");
        let c = crash_on_annotation("l", Duration::ZERO, Duration::ZERO, 1);
        assert_eq!(c.name(), "time-travel(crash on \"l\")");
        let p = partition_component(0, Duration::ZERO, Duration::ZERO);
        assert_eq!(p.name(), "partition(component↔apiservers)");
    }

    /// The derived-anchor rule, over every [`Op`] variant: equal ops are one
    /// class, and changing any single field — target, each selector field,
    /// each time, count, max, verdict, release — makes another.
    #[test]
    fn planned_schedules_carry_every_behavioral_parameter() {
        use TargetRef::{Cache, Component};
        let ms = Duration::millis;
        let class = |ops: &[&Op]| {
            let ops = ops.iter().map(|&op| op.clone()).collect();
            ph_core::plan_class(&Schedule::new("any label", ops).planned_schedule().unwrap())
        };
        let rule = Rule {
            nth: Some((1, 2)),
            until: Some(ms(900)),
            ..EventSelector::termination_mark_of("pods/").rule(Cache(0), Verdict::Hold, ms(100))
        };
        let with = |change: &dyn Fn(&mut Rule)| {
            let mut r = rule.clone();
            change(&mut r);
            Op::Intercept(r)
        };
        let selector = |change: &dyn Fn(&mut EventSelector)| {
            let mut s = EventSelector::termination_mark_of("pods/");
            change(&mut s);
            with(&|r| r.matcher = Some(Rc::new(s.clone())))
        };
        let crash = |victim, at, restart_at| Op::Crash {
            victim,
            at,
            restart_at,
        };
        let trigger = |label: &str, actor, nth, max, delay, down| Op::CrashOn {
            label: label.into(),
            actor,
            nth,
            max,
            delay,
            down,
        };
        let cut = |victim, from, until| Op::Partition {
            victim,
            from,
            until,
        };
        // Each row: a base op, then that op with exactly one field changed.
        let table = [
            vec![
                Op::Intercept(rule.clone()),
                with(&|r| r.dst = Cache(1)),
                with(&|r| r.dst = Component(0)),
                with(&|r| r.matcher = None),
                selector(&|s| s.key_contains = "nodes/".into()),
                selector(&|s| s.deletes = None),
                selector(&|s| s.with_deletion_timestamp = None),
                with(&|r| r.verdict = Verdict::Drop),
                with(&|r| r.verdict = Verdict::Delay(ms(5))),
                with(&|r| r.verdict = Verdict::Delay(ms(6))),
                with(&|r| r.from = ms(101)),
                with(&|r| r.nth = Some((0, 2))),
                with(&|r| r.nth = Some((1, 3))),
                with(&|r| r.nth = None),
                with(&|r| r.until = Some(ms(901))),
                with(&|r| r.until = None),
            ],
            vec![
                crash(Component(0), ms(1), ms(2)),
                crash(Component(1), ms(1), ms(2)),
                crash(Component(0), ms(0), ms(2)),
                crash(Component(0), ms(1), ms(3)),
            ],
            vec![
                trigger("acted", None, 0, 1, Some(ms(0)), ms(300)),
                trigger("other", None, 0, 1, Some(ms(0)), ms(300)),
                trigger("acted", Some(ActorId(4)), 0, 1, Some(ms(0)), ms(300)),
                trigger("acted", None, 1, 1, Some(ms(0)), ms(300)),
                trigger("acted", None, 0, 2, Some(ms(0)), ms(300)),
                trigger("acted", None, 0, 1, None, ms(300)),
                trigger("acted", None, 0, 1, Some(ms(1)), ms(300)),
                trigger("acted", None, 0, 1, Some(ms(0)), ms(301)),
            ],
            vec![
                cut(Component(1), ms(200), ms(400)),
                cut(Component(2), ms(200), ms(400)),
                cut(Component(1), ms(201), ms(400)),
                cut(Component(1), ms(200), ms(401)),
            ],
        ];
        for row in &table {
            assert_eq!(class(&[&row[0]]), class(&[&row[0].clone()]));
            let mut classes = std::collections::BTreeSet::new();
            for op in row {
                assert!(classes.insert(class(&[op])), "{op:?} shares a class");
            }
        }
        // Composition: a hold on cache:0 and a partition of component:1
        // touch different views, so the two orders are one class…
        let (hold, cut, crash) = (&table[0][0], &table[3][0], &table[2][0]);
        assert_eq!(class(&[hold, cut]), class(&[cut, hold]));
        // …while a crash composed either way is order-dependent (global).
        assert_ne!(class(&[hold, crash]), class(&[crash, hold]));
    }
}

//! Payload-aware perturbation strategies.
//!
//! The generic `ph-core` injectors match messages by *kind*; the strategies
//! here additionally inspect cluster payloads (which object a notification
//! concerns) and the trace (which decision a component just advertised).
//! They are what §7 calls perturbing "events that are causally related to a
//! component's action" — made precise by the deterministic simulator.

use ph_cluster::api::ApiWatchEvent;
use ph_cluster::objects::Object;
use ph_core::canon::PlannedOp;
use ph_core::perturb::{
    CoFiPartitions, CrashTunerCrashes, NoFault, RandomCrashes, Strategy, Targets, TrafficSurge,
};
use ph_lint::modelcheck::Letter;
use ph_sim::{ActorId, Duration, Envelope, SimTime, TraceEventKind, Verdict, World};
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

/// How a scenario strategy names its target actor before the world exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef {
    /// Index into [`Targets::caches`] (the apiservers).
    Cache(usize),
    /// Index into [`Targets::components`].
    Component(usize),
    /// A concrete actor id (when the scenario resolved it already).
    Actor(ActorId),
}

impl TargetRef {
    /// A stable textual anchor for canonical-schedule fingerprints.
    fn token(self) -> String {
        match self {
            TargetRef::Cache(i) => format!("cache:{i}"),
            TargetRef::Component(i) => format!("component:{i}"),
            TargetRef::Actor(a) => format!("actor:{a}"),
        }
    }

    /// Resolves against the target map.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn resolve(self, targets: &Targets) -> ActorId {
        match self {
            TargetRef::Cache(i) => targets.caches[i],
            TargetRef::Component(i) => targets.components[i],
            TargetRef::Actor(a) => a,
        }
    }
}

/// What [`DropMatching`] / [`HoldMatching`] look for in a notification.
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
    /// A stable textual anchor for canonical-schedule fingerprints; every
    /// field that changes which events match appears in it.
    fn token(&self) -> String {
        format!(
            "key~{:?}/del:{:?}/dt:{:?}",
            self.key_contains, self.deletes, self.with_deletion_timestamp
        )
    }

    /// Any event touching a key containing `key`.
    #[must_use]
    pub fn key(key: impl Into<String>) -> EventSelector {
        EventSelector {
            key_contains: key.into(),
            deletes: None,
            with_deletion_timestamp: None,
        }
    }

    /// Only deletions of matching keys.
    #[must_use]
    pub fn deletes_of(key: impl Into<String>) -> EventSelector {
        EventSelector {
            key_contains: key.into(),
            deletes: Some(true),
            with_deletion_timestamp: None,
        }
    }

    /// Only the "marked for deletion" update of matching keys.
    #[must_use]
    pub fn termination_mark_of(key: impl Into<String>) -> EventSelector {
        EventSelector {
            key_contains: key.into(),
            deletes: Some(false),
            with_deletion_timestamp: Some(true),
        }
    }

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

/// Silently drops view-update notifications matching a selector on their way
/// to one destination — the precise observability-gap injector.
#[derive(Debug, Clone)]
pub struct DropMatching {
    /// Destination actor.
    pub dst: TargetRef,
    /// What to drop.
    pub selector: EventSelector,
    /// Start dropping at this absolute sim time.
    pub from: Duration,
    /// Maximum number of messages to drop (`u64::MAX` = unlimited).
    pub max: u64,
}

impl Strategy for DropMatching {
    fn name(&self) -> String {
        format!("obs-gap(drop {:?})", self.selector.key_contains)
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(vec![PlannedOp::new(
            Letter::DropNotification(self.dst.token()),
            format!(
                "{}@{}ns*{}",
                self.selector.token(),
                self.from.as_nanos(),
                self.max
            ),
        )])
    }

    fn setup(&mut self, world: &mut World, targets: &Targets) {
        let dst = self.dst.resolve(targets);
        let selector = self.selector.clone();
        let from = SimTime(self.from.as_nanos());
        let mut left = self.max;
        world.set_interceptor(move |env: &Envelope, now: SimTime| {
            if now >= from && env.dst == dst && left > 0 && selector.matches(env) {
                left -= 1;
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        });
    }
}

/// Holds every view-update notification matching a selector on its way to
/// one destination, from a given time onward — freezing that destination's
/// knowledge of the selected objects while the rest of its view advances.
/// Held messages are released at teardown (or [`Strategy::tick`] past
/// `release_at`).
#[derive(Debug, Clone)]
pub struct HoldMatching {
    /// Destination actor.
    pub dst: TargetRef,
    /// What to freeze.
    pub selector: EventSelector,
    /// Start holding at this absolute sim time.
    pub from: Duration,
    /// Release the backlog at this absolute time (`None` = at teardown).
    pub release_at: Option<Duration>,
    /// Internal: released yet?
    released: bool,
}

impl HoldMatching {
    /// Creates the injector.
    #[must_use]
    pub fn new(
        dst: TargetRef,
        selector: EventSelector,
        from: Duration,
        release_at: Option<Duration>,
    ) -> HoldMatching {
        HoldMatching {
            dst,
            selector,
            from,
            release_at,
            released: false,
        }
    }
}

impl Strategy for HoldMatching {
    fn name(&self) -> String {
        format!("staleness(hold {:?})", self.selector.key_contains)
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(vec![PlannedOp::new(
            Letter::DelayCache(self.dst.token()),
            format!(
                "{}@{}ns..{}",
                self.selector.token(),
                self.from.as_nanos(),
                match self.release_at {
                    Some(r) => format!("{}ns", r.as_nanos()),
                    None => "teardown".to_string(),
                }
            ),
        )])
    }

    fn setup(&mut self, world: &mut World, targets: &Targets) {
        let dst = self.dst.resolve(targets);
        let selector = self.selector.clone();
        let from = SimTime(self.from.as_nanos());
        world.set_interceptor(move |env: &Envelope, now: SimTime| {
            if now >= from && env.dst == dst && selector.matches(env) {
                Verdict::Hold
            } else {
                Verdict::Pass
            }
        });
    }

    fn tick(&mut self, world: &mut World, _targets: &Targets) {
        if let Some(rel) = self.release_at {
            if !self.released && world.now() >= SimTime(rel.as_nanos()) {
                world.clear_interceptor();
                world.release_all_held();
                self.released = true;
            }
        }
    }

    fn teardown(&mut self, world: &mut World) {
        world.clear_interceptor();
        if !self.released {
            world.release_all_held();
            self.released = true;
        }
    }
}

/// Crashes an actor shortly after it records a trace annotation with the
/// given label — the trace-triggered "crash right after the decision"
/// injector (a sharper CrashTuner: the trigger is the component's own
/// advertised action rather than any view update).
#[derive(Debug, Clone)]
pub struct CrashOnAnnotation {
    /// Annotation label to trigger on.
    pub label: String,
    /// Restrict to annotations from this actor (`None` = any).
    pub actor: Option<ActorId>,
    /// Crash this long after the annotation appears.
    pub delay: Duration,
    /// Restart this long after the crash.
    pub down: Duration,
    /// Trigger at most this many times.
    pub max: u32,
    cursor: usize,
    fired: u32,
}

impl CrashOnAnnotation {
    /// Creates the injector.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        actor: Option<ActorId>,
        delay: Duration,
        down: Duration,
        max: u32,
    ) -> CrashOnAnnotation {
        CrashOnAnnotation {
            label: label.into(),
            actor,
            delay,
            down,
            max,
            cursor: 0,
            fired: 0,
        }
    }
}

impl Strategy for CrashOnAnnotation {
    fn name(&self) -> String {
        format!("time-travel(crash on {:?})", self.label)
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(vec![PlannedOp::new(
            Letter::CrashRestartReplay,
            format!(
                "on:{:?}/actor:{:?}+{}ns/down{}ns*{}",
                self.label,
                self.actor,
                self.delay.as_nanos(),
                self.down.as_nanos(),
                self.max
            ),
        )])
    }

    fn tick(&mut self, world: &mut World, _targets: &Targets) {
        if self.fired >= self.max {
            return;
        }
        let mut hits: Vec<ActorId> = Vec::new();
        {
            let events = world.trace().events();
            while self.cursor < events.len() {
                let e = &events[self.cursor];
                self.cursor += 1;
                if let TraceEventKind::Annotation { actor, label, .. } = &e.kind {
                    if *label == self.label
                        && self.actor.map_or(true, |a| a == *actor)
                        && self.fired < self.max
                    {
                        hits.push(*actor);
                        self.fired += 1;
                    }
                }
            }
        }
        let now = world.now();
        for victim in hits {
            world.schedule_crash(victim, now + self.delay);
            world.schedule_restart(victim, now + self.delay + self.down);
        }
    }
}

/// Partitions one component from all the caches (apiservers) for a fixed
/// window of absolute sim time — the plainest network fault, which still
/// becomes a safety hazard when controllers trust their partial views
/// (the node-fencing scenario).
#[derive(Debug, Clone)]
pub struct PartitionComponent {
    /// Index into [`Targets::components`] of the victim.
    pub component: usize,
    /// Partition start (absolute sim time).
    pub from: Duration,
    /// Heal time (absolute sim time).
    pub until: Duration,
    active: Option<ph_sim::Partition>,
    done: bool,
}

impl PartitionComponent {
    /// Creates the injector.
    #[must_use]
    pub fn new(component: usize, from: Duration, until: Duration) -> PartitionComponent {
        PartitionComponent {
            component,
            from,
            until,
            active: None,
            done: false,
        }
    }
}

impl Strategy for PartitionComponent {
    fn name(&self) -> String {
        "partition(component↔apiservers)".into()
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(vec![PlannedOp::new(
            Letter::DropNotification(format!("component:{}", self.component)),
            format!(
                "partition@{}ns..{}ns",
                self.from.as_nanos(),
                self.until.as_nanos()
            ),
        )])
    }

    fn tick(&mut self, world: &mut World, targets: &Targets) {
        let now = world.now();
        if self.active.is_none()
            && !self.done
            && now >= SimTime(self.from.as_nanos())
            && now < SimTime(self.until.as_nanos())
        {
            let victim = targets.components[self.component];
            self.active = Some(world.partition(&[victim], &targets.caches));
        }
        if let Some(p) = self.active.take() {
            if now >= SimTime(self.until.as_nanos()) {
                world.heal(p);
                self.done = true;
            } else {
                self.active = Some(p);
            }
        }
    }

    fn teardown(&mut self, world: &mut World) {
        if let Some(p) = self.active.take() {
            world.heal(p);
        }
        world.clear_interceptor();
    }
}

/// Composes several strategies (setup/tick in order, teardown in reverse).
/// Only one may install an interceptor; the composition does not multiplex
/// the interceptor slot.
pub struct Compose {
    parts: Vec<Box<dyn Strategy>>,
    label: String,
}

impl Compose {
    /// Composes `parts` under a display `label`.
    #[must_use]
    pub fn new(label: impl Into<String>, parts: Vec<Box<dyn Strategy>>) -> Compose {
        Compose {
            parts,
            label: label.into(),
        }
    }
}

impl Strategy for Compose {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        // The composition's plan is its parts' plans in order; if any part
        // is unplannable, so is the whole.
        let mut ops = Vec::new();
        for p in &self.parts {
            ops.extend(p.planned_schedule()?);
        }
        Some(ops)
    }

    fn setup(&mut self, world: &mut World, targets: &Targets) {
        for p in &mut self.parts {
            p.setup(world, targets);
        }
    }

    fn tick(&mut self, world: &mut World, targets: &Targets) {
        for p in &mut self.parts {
            p.tick(world, targets);
        }
    }

    fn teardown(&mut self, world: &mut World) {
        for p in self.parts.iter_mut().rev() {
            p.teardown(world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let d = DropMatching {
            dst: TargetRef::Actor(ActorId(0)),
            selector: EventSelector::key("x"),
            from: Duration::ZERO,
            max: 1,
        };
        assert!(d.name().contains("obs-gap"));
        let h = HoldMatching::new(
            TargetRef::Actor(ActorId(0)),
            EventSelector::key("x"),
            Duration::ZERO,
            None,
        );
        assert!(h.name().contains("staleness"));
        let c = CrashOnAnnotation::new("l", None, Duration::ZERO, Duration::ZERO, 1);
        assert!(c.name().contains("time-travel"));
    }

    #[test]
    fn planned_schedules_carry_every_behavioral_parameter() {
        let class = |s: &dyn Strategy| ph_core::plan_class(&s.planned_schedule().unwrap());
        let d = |max: u64| DropMatching {
            dst: TargetRef::Cache(0),
            selector: EventSelector::deletes_of("nodes/"),
            from: Duration::millis(100),
            max,
        };
        assert_eq!(class(&d(1)), class(&d(1)));
        assert_ne!(class(&d(1)), class(&d(2)), "max is behavioral");
        let h = HoldMatching::new(
            TargetRef::Cache(0),
            EventSelector::key("pods/"),
            Duration::millis(100),
            None,
        );
        assert_ne!(class(&d(1)), class(&h));
        assert_ne!(
            class(&h),
            class(&HoldMatching::new(
                TargetRef::Cache(0),
                EventSelector::key("pods/"),
                Duration::millis(100),
                Some(Duration::millis(900)),
            )),
            "release time is behavioral"
        );

        // Composition: a hold on cache:0 and a partition of component:1
        // touch different views, so the two orders are one class…
        let hold = || {
            Box::new(HoldMatching::new(
                TargetRef::Cache(0),
                EventSelector::key("pods/"),
                Duration::millis(100),
                None,
            )) as Box<dyn Strategy>
        };
        let cut = || {
            Box::new(PartitionComponent::new(
                1,
                Duration::millis(200),
                Duration::millis(400),
            )) as Box<dyn Strategy>
        };
        let ab = Compose::new("ab", vec![hold(), cut()]);
        let ba = Compose::new("ba", vec![cut(), hold()]);
        assert_eq!(class(&ab), class(&ba));
        // …while a crash composed either way is order-dependent (global).
        let crash = || {
            Box::new(CrashOnAnnotation::new(
                "acted",
                None,
                Duration::ZERO,
                Duration::millis(300),
                1,
            )) as Box<dyn Strategy>
        };
        let hc = Compose::new("hc", vec![hold(), crash()]);
        let ch = Compose::new("ch", vec![crash(), hold()]);
        assert_ne!(class(&hc), class(&ch));
        // An unplannable part poisons the composition.
        let with_random = Compose::new(
            "r",
            vec![
                hold(),
                Box::new(ph_core::RandomCrashes {
                    seed: 7,
                    count: 1,
                    down: Duration::millis(300),
                }),
            ],
        );
        assert_eq!(with_random.planned_schedule(), None);
    }
}

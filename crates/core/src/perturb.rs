//! Perturbation strategies — the §7 testing tool.
//!
//! The paper's tool has three moves, each regulating how a component's view
//! `(H′, S′)` advances relative to `(H, S)`: delay `H′` against `H`, crash a
//! component and re-synchronize it against a stale `H′`, drop notifications.
//! Here a planned perturbation is **data** — a [`Schedule`] of [`Op`]s
//! (intercept rule, timed crash, annotation-triggered crash, partition
//! window; DESIGN.md §3.4 tabulates op → letter → scenarios) — and one
//! interpreter, `impl Strategy for Schedule`, executes it. A schedule's
//! canonical-dedup plan ([`Strategy::planned_schedule`]) is computed from
//! the ops themselves ([`Op::planned`]), never written beside them.
//! [`Schedule::staleness`] and [`Schedule::time_travel`] build the
//! kind-matching injectors; `ph-scenarios` adds payload-aware ones through
//! [`Matcher`].
//!
//! Not schedules: [`TrafficSurge`] (reconfigures links instead of injecting
//! faults), the control [`NoFault`], and the baselines the paper positions
//! itself against (§5, §6.1), whose RNG draws are interleaved with the run —
//! [`RandomCrashes`], [`CrashTunerCrashes`] (crash a node right after it
//! updates its view) and [`CoFiPartitions`] (partition a component from its
//! upstream around view updates).
//!
//! Scenarios hand strategies a [`Targets`] map: which actors hold caches,
//! which are crash-eligible components, which message kinds carry view
//! updates. Ops name targets by index ([`TargetRef`]) so they can be built
//! before the world exists (the harness builds them per trial).

use std::cell::RefCell;
use std::rc::Rc;

use crate::canon::PlannedOp;
use ph_lint::modelcheck::Letter;
use ph_sim::{
    ActorId, Duration, Envelope, MsgId, Partition, SimRng, SimTime, TraceEventKind, Verdict, World,
};

/// The scenario-provided map of interesting actors and message kinds.
///
/// The lists are shared slices: the harness builds a `Targets` per trial
/// (hunts run hundreds), so cloning the same actor lists into every trial
/// is a refcount bump, not a per-trial allocation.
#[derive(Debug, Clone, Default)]
pub struct Targets {
    /// Members of the central store.
    pub store_nodes: std::rc::Rc<[ActorId]>,
    /// Actors that maintain a cached view `(H′, S′)` (apiservers, informers).
    pub caches: std::rc::Rc<[ActorId]>,
    /// Crash-eligible service components (kubelets, controllers, schedulers).
    pub components: std::rc::Rc<[ActorId]>,
    /// Short message-kind names that carry view updates (e.g. `WatchNotify`).
    pub notify_kinds: &'static [&'static str],
    /// Nominal scenario length; random strategies scatter faults within it.
    pub horizon: Duration,
}

/// A perturbation strategy's lifecycle.
///
/// The embedding contract (scenarios uphold it):
/// 1. `setup` once, after the world is built but before the workload;
/// 2. `tick` between workload steps (strategies with trace-triggered or
///    time-phased behaviour act here);
/// 3. `teardown` after the workload (default clears the interceptor).
pub trait Strategy {
    /// Human-readable name (appears in reports and EXPERIMENTS.md tables).
    fn name(&self) -> String;

    /// The injections this strategy will perform, as abstract alphabet
    /// letters with behavioral anchors — the input to canonical-schedule
    /// deduplication ([`crate::canon`]). Two strategies with equal planned
    /// schedules must be behaviorally identical; a [`Schedule`] guarantees
    /// it by deriving the plan from its ops. Strategies whose injections
    /// depend on a per-trial RNG (the random baselines) return `None` and
    /// are never deduplicated.
    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        None
    }

    /// Install interceptors / schedule faults.
    fn setup(&mut self, world: &mut World, targets: &Targets) {
        let _ = (world, targets);
    }

    /// Phase transitions and trace-triggered actions.
    fn tick(&mut self, world: &mut World, targets: &Targets) {
        let _ = (world, targets);
    }

    /// Remove interceptors; release or drop anything still held.
    fn teardown(&mut self, world: &mut World) {
        world.clear_interceptor();
    }
}

// ---------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------

/// The no-fault control strategy.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFault;

impl Strategy for NoFault {
    fn name(&self) -> String {
        "no-fault".into()
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(Vec::new())
    }
}

// ---------------------------------------------------------------------
// Planned perturbations (the paper's tool): a schedule of ops
// ---------------------------------------------------------------------

/// How an op names an actor before the world exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef {
    /// Index into [`Targets::caches`] (the apiservers).
    Cache(usize),
    /// Index into [`Targets::components`].
    Component(usize),
    /// A concrete actor id (when the caller resolved it already).
    Actor(ActorId),
}

impl TargetRef {
    /// The view this target stands for in a [`Letter`] (as [`TrafficSurge`]
    /// spells it too, so a hold and a surge on one cache are one view).
    fn token(self) -> String {
        match self {
            TargetRef::Cache(i) => format!("cache:{i}"),
            TargetRef::Component(i) => format!("component:{i}"),
            TargetRef::Actor(a) => format!("actor:{a}"),
        }
    }

    /// Resolves against the target map; panics on an out-of-range index.
    pub fn resolve(self, targets: &Targets) -> ActorId {
        match self {
            TargetRef::Cache(i) => targets.caches[i],
            TargetRef::Component(i) => targets.components[i],
            TargetRef::Actor(a) => a,
        }
    }
}

/// A payload predicate a higher layer plugs into a [`Rule`] — how
/// `ph-scenarios` matches on cluster objects without this crate knowing
/// them. Its `Debug` rendering is part of the op's anchor ([`Op::planned`]),
/// so derive it: every field that changes what matches must show.
pub trait Matcher: std::fmt::Debug {
    /// `true` if the rule applies to this message.
    fn matches(&self, env: &Envelope) -> bool;
}

/// One intercept rule: destination × matcher × time/ordinal window →
/// verdict. The installed interceptor evaluates a schedule's rules in op
/// order; the first that applies rules on the message and later ones never
/// see it.
///
/// `Delay` preserves per-link FIFO ordering (the notification stream models
/// a TCP connection), so every later message on the same link queues behind
/// a delayed one. Use bounded delays for lag; for an indefinite freeze use
/// `Hold`, which parks messages outside the link and replays them on release.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Destination actor.
    pub dst: TargetRef,
    /// Which of its incoming messages: `None` = every view update (a kind in
    /// [`Targets::notify_kinds`]), `Some` = whatever the matcher says.
    pub matcher: Option<Rc<dyn Matcher>>,
    /// What happens to them: `Delay(d)`, `Drop` or `Hold`.
    pub verdict: Verdict,
    /// Applies to sends at or after this absolute sim time.
    pub from: Duration,
    /// `(skip, count)`: of the sends matching all of the above, let `skip`
    /// through, rule on the next `count`, pass the rest; `None` rules on
    /// every match. View updates are numbered from the start of the run;
    /// the trace records no payloads, so a matcher's count from `setup`.
    pub nth: Option<(u64, u64)>,
    /// The rule ends, and whatever it held is released, at the first tick
    /// at or past this absolute time (`None` = at teardown).
    pub until: Option<Duration>,
}

impl Rule {
    /// A rule on every view update to `dst` for the whole run; narrow it
    /// with struct-update syntax (`Rule { from, ..Rule::new(..) }`).
    #[must_use]
    pub fn new(dst: TargetRef, verdict: Verdict) -> Rule {
        Rule {
            dst,
            matcher: None,
            verdict,
            from: Duration::ZERO,
            nth: None,
            until: None,
        }
    }

    fn matches(&self, env: &Envelope, notify_kinds: &[&str]) -> bool {
        match &self.matcher {
            None => notify_kinds.contains(&env.kind_short()),
            Some(m) => m.matches(env),
        }
    }
}

/// One planned injection. Plain data: what it does is entirely in its
/// fields, which is what lets [`Op::planned`] derive its canonical class.
#[derive(Debug, Clone)]
pub enum Op {
    /// Delay, drop or hold selected messages.
    Intercept(Rule),
    /// Crash `victim` at `at`, restart it at `restart_at` (absolute times).
    Crash {
        /// The actor to crash.
        victim: TargetRef,
        /// When to crash it.
        at: Duration,
        /// When to restart it.
        restart_at: Duration,
    },
    /// Crash an actor when it records a trace annotation — a sharper
    /// CrashTuner: the trigger is the component's own advertised decision
    /// rather than any view update. The victim is the annotating actor.
    CrashOn {
        /// Annotation label to trigger on.
        label: String,
        /// Restrict to annotations from this actor (`None` = any).
        actor: Option<ActorId>,
        /// Matching annotations to let pass first (0-based occurrence).
        nth: u64,
        /// Trigger at most this many times.
        max: u32,
        /// `Some(d)`: schedule the crash `d` after the tick that sees the
        /// annotation. `None`: crash in that very tick.
        delay: Option<Duration>,
        /// Restart this long after the crash.
        down: Duration,
    },
    /// Partition `victim` from all the caches (apiservers) for a window of
    /// absolute sim time — the plainest network fault, which still becomes
    /// a safety hazard when controllers trust their partial views.
    Partition {
        /// The actor to cut off.
        victim: TargetRef,
        /// Partition start.
        from: Duration,
        /// Heal time.
        until: Duration,
    },
}

impl Op {
    /// The op as canonical-dedup input: the letter follows from the variant
    /// and the anchor is the op's whole `Debug` rendering, so a field cannot
    /// be added to an op without entering its class.
    pub fn planned(&self) -> PlannedOp {
        let letter = match self {
            Op::Intercept(rule) if rule.verdict == Verdict::Drop => {
                Letter::DropNotification(rule.dst.token())
            }
            Op::Intercept(rule) => Letter::DelayCache(rule.dst.token()),
            Op::Crash { .. } | Op::CrashOn { .. } => Letter::CrashRestartReplay,
            Op::Partition { victim, .. } => Letter::DropNotification(victim.token()),
        };
        PlannedOp::new(letter, format!("{self:?}"))
    }
}

/// What one op has done so far. The installed interceptor (which counts
/// and holds) and [`Schedule::tick`] (which ends rules) share it.
#[derive(Debug, Default)]
struct Progress {
    /// Matching sends (rule) or annotations (trigger) seen.
    seen: u64,
    /// Trace events this trigger has scanned.
    cursor: usize,
    /// Messages this rule holds, in hold order.
    held: Vec<MsgId>,
    /// A tick has seen this rule's `until` pass.
    over: bool,
    /// The partition, while it is up.
    cut: Option<Partition>,
}

fn at(d: Duration) -> SimTime {
    SimTime(d.as_nanos())
}

/// A planned perturbation: a display label and the ops to perform.
#[derive(Debug)]
pub struct Schedule {
    /// Human-readable name (appears in reports and EXPERIMENTS.md tables).
    pub label: String,
    /// The injections, in evaluation order.
    pub ops: Vec<Op>,
    /// One entry per op, rebuilt by `setup`.
    progress: Rc<RefCell<Vec<Progress>>>,
}

impl Schedule {
    /// A schedule of `ops` under a display `label`.
    #[must_use]
    pub fn new(label: impl Into<String>, ops: Vec<Op>) -> Schedule {
        Schedule {
            label: label.into(),
            ops,
            progress: Rc::default(),
        }
    }

    /// Delays every view update to one cache by `delay` from `after` on,
    /// creating staleness (§4.2.1, Figure 3a).
    #[must_use]
    pub fn staleness(cache: usize, delay: Duration, after: Duration) -> Schedule {
        let rule = Rule {
            from: after,
            ..Rule::new(TargetRef::Cache(cache), Verdict::Delay(delay))
        };
        Schedule::new(format!("staleness(+{delay})"), vec![Op::Intercept(rule)])
    }

    /// The §4.2.2 time-travel pattern: the feed of cache `stale_upstream` is
    /// frozen (held) from `hold_at` so it goes stale; component `victim` is
    /// crashed and restarted, re-synchronizing — by scenario construction —
    /// against the stale upstream and thereby re-observing its own past.
    /// `release_at` lets the upstream catch up after the damage is done.
    #[must_use]
    pub fn time_travel(
        stale_upstream: usize,
        victim: usize,
        hold_at: Duration,
        crash_at: Duration,
        restart_at: Duration,
        release_at: Option<Duration>,
    ) -> Schedule {
        let hold = Rule {
            from: hold_at,
            until: release_at,
            ..Rule::new(TargetRef::Cache(stale_upstream), Verdict::Hold)
        };
        let crash = Op::Crash {
            victim: TargetRef::Component(victim),
            at: crash_at,
            restart_at,
        };
        Schedule::new("time-travel", vec![Op::Intercept(hold), crash])
    }
}

impl Strategy for Schedule {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        Some(self.ops.iter().map(Op::planned).collect())
    }

    /// Schedules the timed crashes and installs one interceptor for all the
    /// rules — none at all for a schedule without rules.
    fn setup(&mut self, world: &mut World, targets: &Targets) {
        let mut progress: Vec<Progress> = self.ops.iter().map(|_| Progress::default()).collect();
        let mut rules = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Intercept(rule) => {
                    let dst = rule.dst.resolve(targets);
                    // The interceptor only sees sends from now on: pre-load
                    // the ordinal with the matching sends already traced
                    // (workload seeding precedes strategy setup).
                    if rule.nth.is_some() && rule.matcher.is_none() {
                        let sent = |e: &&ph_sim::TraceEvent| {
                            matches!(&e.kind, TraceEventKind::MessageSent { dst: d, kind, .. }
                                if *d == dst && e.at >= at(rule.from)
                                    && targets.notify_kinds.contains(kind))
                        };
                        progress[i].seen = world.trace().iter().filter(sent).count() as u64;
                    }
                    rules.push((i, dst, rule.clone()));
                }
                Op::Crash {
                    victim,
                    at: crash_at,
                    restart_at,
                } => {
                    let victim = victim.resolve(targets);
                    world.schedule_crash(victim, at(*crash_at));
                    world.schedule_restart(victim, at(*restart_at));
                }
                Op::CrashOn { .. } | Op::Partition { .. } => {}
            }
        }
        self.progress = Rc::new(RefCell::new(progress));
        if rules.is_empty() {
            return;
        }
        let progress = Rc::clone(&self.progress);
        let notify_kinds = targets.notify_kinds;
        world.set_interceptor(move |env: &Envelope, now: SimTime| {
            let mut progress = progress.borrow_mut();
            for (i, dst, rule) in &rules {
                let p = &mut progress[*i];
                if env.dst != *dst
                    || p.over
                    || now < at(rule.from)
                    || !rule.matches(env, notify_kinds)
                {
                    continue;
                }
                let ordinal = p.seen;
                p.seen += 1;
                if rule
                    .nth
                    .is_some_and(|(skip, count)| ordinal < skip || ordinal - skip >= count)
                {
                    continue;
                }
                if rule.verdict == Verdict::Hold {
                    p.held.push(env.id);
                }
                return rule.verdict;
            }
            Verdict::Pass
        });
    }

    /// Lets each op act on the time and on the annotations traced since the
    /// last tick, in op order.
    fn tick(&mut self, world: &mut World, targets: &Targets) {
        let now = world.now();
        for (op, p) in self.ops.iter().zip(self.progress.borrow_mut().iter_mut()) {
            match op {
                Op::Intercept(rule) => {
                    if !p.over && rule.until.is_some_and(|until| now >= at(until)) {
                        p.over = true;
                        for id in p.held.drain(..) {
                            world.release_held(id);
                        }
                    }
                }
                Op::Crash { .. } => {}
                Op::CrashOn {
                    label: want,
                    actor: only,
                    nth,
                    max,
                    delay,
                    down,
                } => {
                    let events = world.trace().events();
                    let mut victims = Vec::new();
                    for e in &events[p.cursor..] {
                        match &e.kind {
                            TraceEventKind::Annotation { actor, label, .. }
                                if *label == want && only.map_or(true, |a| a == *actor) =>
                            {
                                if (*nth..nth.saturating_add(u64::from(*max))).contains(&p.seen) {
                                    victims.push(*actor);
                                }
                                p.seen += 1;
                            }
                            _ => {}
                        }
                    }
                    p.cursor = events.len();
                    for victim in victims {
                        let crash_at = now + delay.unwrap_or(Duration::ZERO);
                        match delay {
                            Some(_) => world.schedule_crash(victim, crash_at),
                            None => world.crash(victim),
                        }
                        world.schedule_restart(victim, crash_at + *down);
                    }
                }
                Op::Partition {
                    victim,
                    from,
                    until,
                } => match p.cut.take() {
                    Some(cut) if now >= at(*until) => world.heal(cut),
                    None if now >= at(*from) && now < at(*until) => {
                        p.cut = Some(world.partition(&[victim.resolve(targets)], &targets.caches));
                    }
                    cut => p.cut = cut,
                },
            }
        }
    }

    /// Clears the interceptor, releases what is held, heals what is cut.
    fn teardown(&mut self, world: &mut World) {
        world.clear_interceptor();
        world.release_all_held();
        for p in self.progress.borrow_mut().iter_mut() {
            if let Some(cut) = p.cut.take() {
                world.heal(cut);
            }
        }
    }
}

/// The `traffic-surge` axis: for a window, every link into one cache is
/// reconfigured to a finite bandwidth with a drop-tail queue, modeling a
/// burst of competing traffic that eats the feed's capacity. Unlike every
/// other guided strategy this injects **no fault at all** — no message is
/// dropped, held or reordered by the harness; staleness emerges from
/// queueing delay and tail drops computed by [`ph_sim::net`]'s queue
/// discipline, which is exactly the congestion-staleness hazard class.
#[derive(Debug, Clone)]
pub struct TrafficSurge {
    /// Index into [`Targets::caches`] of the congested cache: its fan-out
    /// links — the watch feed toward every component's view — are
    /// throttled, so updates from this cache queue (and, past the queue
    /// capacity, tail-drop) instead of arriving on schedule.
    pub cache: usize,
    /// Available bandwidth during the surge, bytes per second.
    pub bandwidth: u64,
    /// Drop-tail queue capacity during the surge (0 = unbounded, pure
    /// queueing delay).
    pub queue: usize,
    /// When the surge begins.
    pub from: Duration,
    /// When the surge ends and the links are restored (`None` = never).
    pub until: Option<Duration>,
    /// When set, only the feed toward this component (an index into
    /// [`Targets::components`]) is throttled — a surge of traffic that
    /// competes with one victim's watch stream while the rest of the
    /// fan-out keeps its capacity. `None` squeezes the whole fan-out.
    pub only: Option<usize>,
    saved: Vec<(ActorId, ActorId, ph_sim::LinkConfig)>,
    applied: bool,
    restored: bool,
}

impl TrafficSurge {
    /// Convenience constructor with internal state initialized.
    #[must_use]
    pub fn new(
        cache: usize,
        bandwidth: u64,
        queue: usize,
        from: Duration,
        until: Option<Duration>,
    ) -> TrafficSurge {
        TrafficSurge {
            cache,
            bandwidth,
            queue,
            from,
            until,
            only: None,
            saved: Vec::new(),
            applied: false,
            restored: false,
        }
    }

    /// Narrows the surge to a single victim component's feed. Chainable,
    /// consuming builder — the same shape as every other perturbation
    /// builder, so `TrafficSurge::new(..).focused(2)` reads like one
    /// declaration.
    #[must_use]
    pub fn focused(mut self, component: usize) -> TrafficSurge {
        self.only = Some(component);
        self
    }

    fn apply(&mut self, world: &mut World, targets: &Targets) {
        let cache = targets.caches[self.cache];
        let victims: Vec<ActorId> = match self.only {
            Some(i) => vec![targets.components[i]],
            None => targets.components.to_vec(),
        };
        for comp in victims {
            if comp == cache {
                continue;
            }
            let old = world.net().link(cache, comp);
            self.saved.push((cache, comp, old));
            world.net_mut().set_link(
                cache,
                comp,
                ph_sim::LinkConfig {
                    bandwidth: self.bandwidth,
                    queue: self.queue,
                    ..old
                },
            );
        }
        self.applied = true;
    }

    fn restore(&mut self, world: &mut World) {
        for (src, dst, cfg) in self.saved.drain(..) {
            world.net_mut().set_link(src, dst, cfg);
        }
        self.restored = true;
    }
}

impl Strategy for TrafficSurge {
    fn name(&self) -> String {
        match self.only {
            Some(i) => format!("traffic-surge({}B/s,q{},@{i})", self.bandwidth, self.queue),
            None => format!("traffic-surge({}B/s,q{})", self.bandwidth, self.queue),
        }
    }

    fn planned_schedule(&self) -> Option<Vec<PlannedOp>> {
        let until = match self.until {
            Some(u) => format!("..{u}"),
            None => String::new(),
        };
        let focus = match self.only {
            Some(i) => format!("->component:{i}"),
            None => String::new(),
        };
        Some(vec![PlannedOp::new(
            Letter::TrafficSurge(format!("cache:{}", self.cache)),
            format!(
                "{}B/s,q{}@{}{until}{focus}",
                self.bandwidth, self.queue, self.from
            ),
        )])
    }

    fn setup(&mut self, world: &mut World, targets: &Targets) {
        if self.from == Duration::ZERO {
            self.apply(world, targets);
        }
    }

    fn tick(&mut self, world: &mut World, targets: &Targets) {
        let now = world.now();
        if !self.applied && now >= SimTime(self.from.as_nanos()) {
            self.apply(world, targets);
        }
        if let Some(until) = self.until {
            if self.applied && !self.restored && now >= SimTime(until.as_nanos()) {
                self.restore(world);
            }
        }
    }

    fn teardown(&mut self, world: &mut World) {
        if self.applied && !self.restored {
            self.restore(world);
        }
        world.clear_interceptor();
    }
}

// ---------------------------------------------------------------------
// Baselines (§5 / §6.1 comparators)
// ---------------------------------------------------------------------

/// Uniformly random crash/restart injection — the "randomly generate
/// faults" baseline of §1.
#[derive(Debug, Clone)]
pub struct RandomCrashes {
    /// Strategy-local seed (vary per trial).
    pub seed: u64,
    /// Number of crash/restart pairs to scatter over the horizon.
    pub count: u32,
    /// Downtime per crash.
    pub down: Duration,
}

impl Strategy for RandomCrashes {
    fn name(&self) -> String {
        format!("random-crash(x{})", self.count)
    }

    fn setup(&mut self, world: &mut World, targets: &Targets) {
        if targets.components.is_empty() {
            return;
        }
        let mut rng = SimRng::derive(self.seed, 0x0C4A_54E5);
        for _ in 0..self.count {
            let at = SimTime(rng.below(targets.horizon.as_nanos().max(1)));
            let victim = *rng.pick(&targets.components).expect("non-empty");
            world.schedule_crash(victim, at);
            world.schedule_restart(victim, at + self.down);
        }
    }
}

/// The CrashTuner heuristic: crash a component *immediately after it
/// updates its view of the cluster state* (delivery of a notify-kind
/// message), restart it after `down`. Triggers are sampled per matching
/// delivery with probability `p`.
#[derive(Debug, Clone)]
pub struct CrashTunerCrashes {
    /// Strategy-local seed (vary per trial).
    pub seed: u64,
    /// Per-view-update trigger probability.
    pub p: f64,
    /// Maximum number of crashes to perform.
    pub max_crashes: u32,
    /// Downtime per crash.
    pub down: Duration,
    cursor: usize,
    fired: u32,
}

impl CrashTunerCrashes {
    /// Convenience constructor with internal cursors initialized.
    #[must_use]
    pub fn new(seed: u64, p: f64, max_crashes: u32, down: Duration) -> CrashTunerCrashes {
        CrashTunerCrashes {
            seed,
            p,
            max_crashes,
            down,
            cursor: 0,
            fired: 0,
        }
    }
}

impl Strategy for CrashTunerCrashes {
    fn name(&self) -> String {
        format!("crashtuner(p={})", self.p)
    }

    fn tick(&mut self, world: &mut World, targets: &Targets) {
        if self.fired >= self.max_crashes {
            return;
        }
        let mut to_crash = Vec::new();
        {
            let events = world.trace().events();
            while self.cursor < events.len() {
                let e = &events[self.cursor];
                self.cursor += 1;
                if let TraceEventKind::MessageDelivered { dst, kind, .. } = &e.kind {
                    let is_view_update = targets.notify_kinds.contains(kind);
                    let is_service =
                        targets.components.contains(dst) || targets.caches.contains(dst);
                    if is_view_update && is_service && self.fired < self.max_crashes {
                        // Deterministic per-delivery draw.
                        let mut rng = SimRng::derive(self.seed, 0xC7 ^ e.seq);
                        if rng.chance(self.p) {
                            to_crash.push(*dst);
                            self.fired += 1;
                        }
                    }
                }
            }
        }
        let now = world.now();
        for victim in to_crash {
            if !world.is_crashed(victim) {
                world.crash(victim);
                world.schedule_restart(victim, now + self.down);
            }
        }
    }
}

/// The CoFI heuristic: around a view update, partition the receiving
/// component from the sender (its upstream) for a fixed duration.
#[derive(Debug, Clone)]
pub struct CoFiPartitions {
    /// Strategy-local seed (vary per trial).
    pub seed: u64,
    /// Per-view-update trigger probability.
    pub p: f64,
    /// Maximum number of partitions to create.
    pub max_partitions: u32,
    /// How long each partition lasts.
    pub duration: Duration,
    cursor: usize,
    fired: u32,
    healing: Vec<(SimTime, Partition)>,
}

impl CoFiPartitions {
    /// Convenience constructor with internal cursors initialized.
    #[must_use]
    pub fn new(seed: u64, p: f64, max_partitions: u32, duration: Duration) -> CoFiPartitions {
        CoFiPartitions {
            seed,
            p,
            max_partitions,
            duration,
            cursor: 0,
            fired: 0,
            healing: Vec::new(),
        }
    }
}

impl Strategy for CoFiPartitions {
    fn name(&self) -> String {
        format!("cofi(p={})", self.p)
    }

    fn tick(&mut self, world: &mut World, targets: &Targets) {
        // Heal expired partitions first.
        let now = world.now();
        let mut still = Vec::new();
        for (heal_at, p) in self.healing.drain(..) {
            if now >= heal_at {
                world.heal(p);
            } else {
                still.push((heal_at, p));
            }
        }
        self.healing = still;

        if self.fired >= self.max_partitions {
            return;
        }
        let mut to_cut: Vec<(ActorId, ActorId)> = Vec::new();
        {
            let events = world.trace().events();
            while self.cursor < events.len() {
                let e = &events[self.cursor];
                self.cursor += 1;
                if let TraceEventKind::MessageDelivered { src, dst, kind, .. } = &e.kind {
                    let is_view_update = targets.notify_kinds.contains(kind);
                    let is_service =
                        targets.components.contains(dst) || targets.caches.contains(dst);
                    if is_view_update && is_service && self.fired < self.max_partitions {
                        let mut rng = SimRng::derive(self.seed, 0xF1 ^ e.seq);
                        if rng.chance(self.p) {
                            to_cut.push((*dst, *src));
                            self.fired += 1;
                        }
                    }
                }
            }
        }
        for (a, b) in to_cut {
            let p = world.partition(&[a], &[b]);
            self.healing.push((world.now() + self.duration, p));
        }
    }

    fn teardown(&mut self, world: &mut World) {
        for (_, p) in self.healing.drain(..) {
            world.heal(p);
        }
        world.clear_interceptor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::{Actor, AnyMsg, Ctx, TimerId, WorldConfig};

    /// Emits a "ViewUpdate" message to its peer every 10ms.
    struct Feeder {
        peer: ActorId,
    }
    #[derive(Debug)]
    struct ViewUpdate(u64);
    /// Records every update it sees, annotating each as `cache.update`.
    struct Cache {
        seen: Vec<u64>,
    }

    impl Actor for Feeder {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::millis(10), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
        fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
            ctx.send(self.peer, ViewUpdate(tag));
            ctx.set_timer(Duration::millis(10), tag + 1);
        }
    }
    impl Actor for Cache {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _f: ActorId, m: AnyMsg, ctx: &mut Ctx) {
            if let Some(ViewUpdate(n)) = m.downcast_ref::<ViewUpdate>() {
                self.seen.push(*n);
                ctx.annotate("cache.update", n.to_string());
            }
        }
        fn on_restart(&mut self, ctx: &mut Ctx) {
            self.seen.clear();
            self.on_start(ctx);
        }
    }

    fn feed_world(seed: u64) -> (World, Targets, ActorId) {
        let mut w = World::new(WorldConfig::default(), seed);
        let cache = w.spawn("cache", Cache { seen: vec![] });
        let _feeder = w.spawn("feeder", Feeder { peer: cache });
        let targets = Targets {
            store_nodes: [].into(),
            caches: [cache].into(),
            components: [cache].into(),
            notify_kinds: &["ViewUpdate"],
            horizon: Duration::millis(500),
        };
        (w, targets, cache)
    }

    fn seen(w: &World, cache: ActorId) -> Vec<u64> {
        w.actor_ref::<Cache>(cache).unwrap().seen.clone()
    }

    #[test]
    fn staleness_injector_delays_updates() {
        let (mut w, t, cache) = feed_world(1);
        let mut s = Schedule::staleness(0, Duration::millis(100), Duration::ZERO);
        s.setup(&mut w, &t);
        w.run_for(Duration::millis(105));
        // Without delay ~10 updates would have arrived; with +100ms, ~1.
        let n = seen(&w, cache).len();
        assert!(n <= 2, "saw {n} updates despite delay");
        s.teardown(&mut w);
        w.run_for(Duration::millis(200));
        let n = seen(&w, cache).len();
        assert!(n >= 15, "updates must flow after teardown, saw {n}");
    }

    #[test]
    fn dropper_creates_an_interior_gap() {
        let (mut w, t, cache) = feed_world(2);
        let mut rule = Rule::new(TargetRef::Cache(0), Verdict::Drop);
        rule.nth = Some((3, 2));
        let mut s = Schedule::new("gap", vec![Op::Intercept(rule)]);
        s.setup(&mut w, &t);
        w.run_for(Duration::millis(120));
        s.teardown(&mut w);
        let seen = seen(&w, cache);
        // Tags 0,1,2 pass; 3,4 dropped; 5.. pass.
        assert!(seen.contains(&0) && seen.contains(&2));
        assert!(!seen.contains(&3) && !seen.contains(&4), "seen {seen:?}");
        assert!(seen.contains(&5));
    }

    #[test]
    fn time_travel_holds_then_replays() {
        let (mut w, t, cache) = feed_world(3);
        let mut s = Schedule::time_travel(
            0,
            0,
            Duration::millis(30), // hold feed from 30ms
            Duration::millis(60), // crash cache at 60ms
            Duration::millis(80), // restart at 80ms
            Some(Duration::millis(120)),
        );
        s.setup(&mut w, &t);
        for _ in 0..20 {
            w.run_for(Duration::millis(10));
            s.tick(&mut w, &t);
        }
        s.teardown(&mut w);
        let seen = seen(&w, cache);
        // Restarted at 80ms (volatile state cleared), held updates (tags
        // 2..) replayed after 120ms: the cache re-observes its past.
        assert!(seen.contains(&2), "replayed past event missing: {seen:?}");
        assert_eq!(w.incarnation(cache), 1);
    }

    #[test]
    fn every_rule_of_a_schedule_applies_and_the_first_match_wins() {
        let (mut w, mut t, a) = feed_world(8);
        let b = w.spawn("cache-b", Cache { seen: vec![] });
        w.spawn("feeder-b", Feeder { peer: b });
        t.caches = [a, b].into();
        // Hold a's feed, drop b's; a second rule on a would drop, but the
        // hold ahead of it rules first.
        let notify = |cache, verdict| Op::Intercept(Rule::new(TargetRef::Cache(cache), verdict));
        let mut s = Schedule::new(
            "hold a, drop b",
            vec![
                notify(0, Verdict::Hold),
                notify(1, Verdict::Drop),
                notify(0, Verdict::Drop),
            ],
        );
        s.setup(&mut w, &t);
        w.run_for(Duration::millis(100));
        assert_eq!(seen(&w, a), [] as [u64; 0], "a's feed is held");
        assert_eq!(seen(&w, b), [] as [u64; 0], "b's feed is dropped");
        assert!(w.held_ids().count() >= 8, "held, not dropped");
        s.teardown(&mut w);
        w.run_for(Duration::millis(100));
        assert!(seen(&w, a).contains(&0), "a's backlog is replayed");
        assert!(!seen(&w, b).contains(&0), "b's is gone for good");
    }

    #[test]
    fn trigger_fires_once_on_the_chosen_occurrence() {
        let (mut w, t, cache) = feed_world(9);
        // A schedule without rules installs no interceptor: this one stays.
        let sends = Rc::new(std::cell::Cell::new(0));
        let counted = Rc::clone(&sends);
        w.set_interceptor(move |_: &Envelope, _: SimTime| {
            counted.set(counted.get() + 1);
            Verdict::Pass
        });
        let mut s = Schedule::new(
            "crash on third update",
            vec![Op::CrashOn {
                label: "cache.update".into(),
                actor: Some(cache),
                nth: 2,
                max: 1,
                delay: None,
                down: Duration::millis(20),
            }],
        );
        s.setup(&mut w, &t);
        for _ in 0..30 {
            w.run_for(Duration::millis(10));
            s.tick(&mut w, &t);
        }
        assert!(sends.get() >= 20, "only {} sends counted", sends.get());
        s.teardown(&mut w);
        // Updates kept coming after the restart — dozens of matching
        // annotations — yet exactly one crash, right after the third.
        let mut updates = 0;
        let mut updates_before_crash = Vec::new();
        for e in w.trace().iter() {
            match &e.kind {
                TraceEventKind::Annotation { .. } => updates += 1,
                TraceEventKind::Crashed { .. } => updates_before_crash.push(updates),
                _ => {}
            }
        }
        assert_eq!(updates_before_crash, [3]);
        assert!(updates >= 20, "only {updates} updates");
        assert_eq!(w.incarnation(cache), 1);
    }

    #[test]
    fn random_crashes_schedule_within_horizon() {
        let (mut w, t, cache) = feed_world(4);
        let mut s = RandomCrashes {
            seed: 9,
            count: 3,
            down: Duration::millis(20),
        };
        s.setup(&mut w, &t);
        w.run_for(Duration::millis(600));
        s.teardown(&mut w);
        // Overlapping crash windows coalesce, so incarnations ∈ [1, count].
        let inc = w.incarnation(cache);
        assert!((1..=3).contains(&inc), "incarnations {inc}");
        assert!(!w.is_crashed(cache), "every crash has a later restart");
    }

    #[test]
    fn crashtuner_crashes_after_view_updates_only() {
        let (mut w, t, cache) = feed_world(5);
        let mut s = CrashTunerCrashes::new(7, 1.0, 1, Duration::millis(10));
        s.setup(&mut w, &t);
        for _ in 0..10 {
            w.run_for(Duration::millis(10));
            s.tick(&mut w, &t);
        }
        s.teardown(&mut w);
        assert_eq!(w.incarnation(cache), 1, "exactly one triggered crash");
    }

    #[test]
    fn cofi_partitions_and_heals() {
        let (mut w, t, cache) = feed_world(6);
        let mut s = CoFiPartitions::new(8, 1.0, 1, Duration::millis(50));
        s.setup(&mut w, &t);
        for _ in 0..30 {
            w.run_for(Duration::millis(10));
            s.tick(&mut w, &t);
        }
        s.teardown(&mut w);
        // After healing, updates flow again: the cache keeps receiving.
        let seen = w.actor_ref::<Cache>(cache).unwrap().seen.clone();
        let max = *seen.iter().max().expect("some updates");
        assert!(max >= 25, "stream must resume after heal, max tag {max}");
        // And there must be a gap from the partition window.
        let missing = (0..max).filter(|n| !seen.contains(n)).count();
        assert!(missing >= 3, "partition should have cost messages");
    }

    /// Like [`Feeder`] but each update carries real bytes, so finite-
    /// bandwidth links actually queue.
    struct SizedFeeder {
        peer: ActorId,
        size: u64,
    }
    impl Actor for SizedFeeder {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::millis(10), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
        fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
            ctx.send_sized(self.peer, ViewUpdate(tag), self.size);
            ctx.set_timer(Duration::millis(10), tag + 1);
        }
    }

    #[test]
    fn traffic_surge_starves_the_view_without_injected_faults() {
        let mut w = World::new(WorldConfig::default(), 11);
        let view = w.spawn("component", Cache { seen: vec![] });
        // The feeder plays the cache (apiserver): the surge throttles its
        // fan-out link toward the component's view.
        let feeder = w.spawn(
            "cache",
            SizedFeeder {
                peer: view,
                size: 8 * 1024,
            },
        );
        let cache = view;
        let t = Targets {
            store_nodes: [].into(),
            caches: [feeder].into(),
            components: [view].into(),
            notify_kinds: &["ViewUpdate"],
            horizon: Duration::millis(500),
        };
        // 8 KB every 10 ms offered to a 10 KB/s link: ~80× over capacity
        // for the first 100 ms.
        let mut s = TrafficSurge::new(0, 10_000, 2, Duration::ZERO, Some(Duration::millis(100)));
        s.setup(&mut w, &t);
        for _ in 0..10 {
            w.run_for(Duration::millis(10));
            s.tick(&mut w, &t);
        }
        let during = w.actor_ref::<Cache>(cache).unwrap().seen.len();
        assert!(during <= 2, "surge must starve the feed, saw {during}");
        // After restore, new sends take the legacy path again — but FIFO
        // keeps them behind the messages still queued from the surge, so
        // give the tail room to drain.
        for _ in 0..30 {
            w.run_for(Duration::millis(100));
            s.tick(&mut w, &t);
        }
        s.teardown(&mut w);
        let after = w.actor_ref::<Cache>(cache).unwrap().seen.len();
        assert!(after >= 15, "flow must resume after the surge, saw {after}");
        // Every loss is a queue tail-drop — the strategy itself never
        // dropped, held or reordered a message.
        for e in w.trace().iter() {
            if let TraceEventKind::MessageDropped { reason, .. } = &e.kind {
                assert_eq!(*reason, ph_sim::DropReason::QueueFull, "{e:?}");
            }
        }
    }

    #[test]
    fn no_fault_changes_nothing() {
        let (mut w1, t, cache) = feed_world(7);
        let mut s = NoFault;
        s.setup(&mut w1, &t);
        w1.run_for(Duration::millis(200));
        s.teardown(&mut w1);
        let with = w1.actor_ref::<Cache>(cache).unwrap().seen.clone();

        let (mut w2, _t, cache2) = feed_world(7);
        w2.run_for(Duration::millis(200));
        let without = w2.actor_ref::<Cache>(cache2).unwrap().seen.clone();
        assert_eq!(with, without);
    }
}

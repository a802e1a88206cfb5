//! The simulation driver.
//!
//! A [`World`] owns the actors, the clock, the event queue, the network and
//! the trace, and executes events in a deterministic total order
//! `(time, insertion sequence)`. The fault-injection surface — crashes,
//! restarts, partitions, interceptors, held-message release — lives here and
//! is what `ph-core`'s perturbation strategies drive.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use crate::actor::{Actor, ActorObj, Ctx, Effect};
use crate::event::{Event, Scheduled};
use crate::ids::{ActorId, MsgId, TimerId};
use crate::intercept::{Interceptor, NullInterceptor, Verdict};
use crate::metrics::{Metrics, MetricsReport};
use crate::msg::{short_kind, AnyMsg, Envelope};
use crate::net::{Network, Partition, SendOutcome};
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use crate::trace::{DropReason, Retention, Trace, TraceEvent, TraceEventKind};

/// How a [`World`] is built.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldConfig {
    /// Whether the trace stores its events or only hashes and counts them.
    /// A choice for the code that builds the world, made by what will read
    /// the trace afterwards — not a tuning knob: [`Retention::DigestOnly`]
    /// makes every reader of events panic.
    pub retention: Retention,
}

/// Safety cap on processed events; exceeding it panics (it nearly always
/// means a zero-delay message loop in a protocol).
const MAX_EVENTS: u64 = 50_000_000;

struct Slot {
    name: Rc<str>,
    actor: Box<dyn ActorObj>,
    rng: SimRng,
    crashed: bool,
    incarnation: u32,
}

/// A deterministic discrete-event simulation.
///
/// See the crate-level docs for an end-to-end example.
pub struct World {
    now: SimTime,
    seed: u64,
    seq: u64,
    next_msg: u64,
    next_timer: u64,
    processed: u64,
    actors: Vec<Slot>,
    /// Name → id, keyed by the slot's own name allocation.
    names: BTreeMap<Rc<str>, ActorId>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Payload storage for queued events: [`Scheduled`] keys carry a slot
    /// index into this slab, keeping heap sifts small. Slots are recycled
    /// through `free_slots` as events are processed.
    event_slab: Vec<Option<Event>>,
    /// Vacant `event_slab` slots, reused LIFO.
    free_slots: Vec<u32>,
    /// Pending (armed, uncancelled) timers and their owners.
    timers: BTreeMap<TimerId, ActorId>,
    held: BTreeMap<MsgId, Envelope>,
    net: Network,
    net_rng: SimRng,
    interceptor: Box<dyn Interceptor>,
    trace: Trace,
    metrics: Metrics,
    /// Open span start times, LIFO per `(actor, label)`.
    open_spans: BTreeMap<(ActorId, &'static str), Vec<SimTime>>,
}

impl World {
    /// Creates an empty world from a configuration and a root seed.
    ///
    /// Two worlds created with equal configurations and seeds, populated and
    /// driven identically, produce identical traces.
    pub fn new(config: WorldConfig, seed: u64) -> World {
        let trace = match config.retention {
            Retention::All => Trace::new(),
            Retention::DigestOnly => Trace::digest_only(),
        };
        World {
            now: SimTime::ZERO,
            seed,
            seq: 0,
            next_msg: 0,
            next_timer: 0,
            processed: 0,
            actors: Vec::new(),
            names: BTreeMap::new(),
            queue: BinaryHeap::new(),
            event_slab: Vec::new(),
            free_slots: Vec::new(),
            timers: BTreeMap::new(),
            held: BTreeMap::new(),
            net: Network::new(),
            net_rng: SimRng::derive(seed, u64::MAX),
            interceptor: Box::new(NullInterceptor),
            trace,
            metrics: Metrics::new(),
            open_spans: BTreeMap::new(),
        }
    }

    /// The root seed this world was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes ownership of the trace, leaving an empty one behind. For
    /// harnesses that keep the trace after the world is torn down — taking
    /// is free where cloning would deep-copy every event.
    ///
    /// # Panics
    ///
    /// Panics if the world was built [`Retention::DigestOnly`]: there is no
    /// history to hand over.
    pub fn take_trace(&mut self) -> Trace {
        assert!(
            self.trace.retention() == Retention::All,
            "trace not retained: take_trace on a digest-only world"
        );
        std::mem::take(&mut self.trace)
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics registry, for samples recorded from
    /// outside the message plane (e.g. a harness probing view lag each
    /// scheduling quantum under a label of its choosing).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Snapshots the metrics registry into an ordered, comparable report,
    /// naming each series' actor.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report(|id| self.name_of(id))
    }

    /// Read access to the network fabric.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the network fabric (blocking links, partitions,
    /// latency overrides).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Installs a message interceptor, replacing any previous one.
    pub fn set_interceptor(&mut self, i: impl Interceptor + 'static) {
        self.interceptor = Box::new(i);
    }

    /// Removes any installed interceptor.
    pub fn clear_interceptor(&mut self) {
        self.interceptor = Box::new(NullInterceptor);
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Spawns an actor under a unique `name`, running its
    /// [`Actor::on_start`] immediately at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already taken.
    pub fn spawn<A: Actor>(&mut self, name: &str, actor: A) -> ActorId {
        assert!(
            !self.names.contains_key(name),
            "actor name {name:?} already in use"
        );
        let id = ActorId(self.actors.len() as u32);
        let rng = SimRng::derive(self.seed, id.0 as u64);
        let name: Rc<str> = name.into();
        self.actors.push(Slot {
            name: name.clone(),
            actor: Box::new(actor),
            rng,
            crashed: false,
            incarnation: 0,
        });
        self.names.insert(name.clone(), id);
        self.trace
            .push(self.now, TraceEventKind::Spawned { actor: id, name });
        self.run_callback(id, |actor, ctx| actor.on_start(ctx));
        id
    }

    /// Looks an actor up by name.
    pub fn lookup(&self, name: &str) -> Option<ActorId> {
        self.names.get(name).copied()
    }

    /// The name an actor was spawned under.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a spawned actor.
    pub fn name_of(&self, id: ActorId) -> &str {
        &self.actors[id.index()].name
    }

    /// Ids of all spawned actors, in spawn order. The iterator does not
    /// borrow the world.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len() as u32).map(ActorId)
    }

    /// `true` if the actor is currently crashed.
    pub fn is_crashed(&self, id: ActorId) -> bool {
        self.actors[id.index()].crashed
    }

    /// How many times the actor has restarted.
    pub fn incarnation(&self, id: ActorId) -> u32 {
        self.actors[id.index()].incarnation
    }

    /// Borrows an actor's concrete state (read-only); `None` if `id` refers
    /// to a different type.
    pub fn actor_ref<A: Actor>(&self, id: ActorId) -> Option<&A> {
        self.actors[id.index()].actor.as_any().downcast_ref::<A>()
    }

    /// Runs `f` against an actor's concrete state and a full [`Ctx`],
    /// synchronously, as if a callback had fired. This is how workloads and
    /// tests drive components from outside the message plane.
    ///
    /// # Panics
    ///
    /// Panics if the actor has a different concrete type or is crashed.
    pub fn invoke<A: Actor, R>(&mut self, id: ActorId, f: impl FnOnce(&mut A, &mut Ctx) -> R) -> R {
        assert!(
            !self.actors[id.index()].crashed,
            "invoke on crashed actor {}",
            self.actors[id.index()].name
        );
        let mut out = None;
        let out_ref = &mut out;
        self.run_callback(id, move |actor, ctx| {
            let concrete = actor
                .as_any_mut()
                .downcast_mut::<A>()
                .expect("invoke: actor has a different concrete type");
            *out_ref = Some(f(concrete, ctx));
        });
        out.expect("callback ran")
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /// Crashes an actor immediately: it stops receiving messages and timers
    /// until restarted, and in-flight messages to it are dropped.
    /// Crashing a crashed actor is a no-op.
    pub fn crash(&mut self, id: ActorId) {
        self.do_crash(id);
    }

    /// Schedules a crash at an absolute time.
    pub fn schedule_crash(&mut self, id: ActorId, at: SimTime) {
        self.schedule(at, Event::Crash { actor: id });
    }

    /// Restarts a crashed actor immediately, bumping its incarnation and
    /// invoking [`Actor::on_restart`]. Restarting a live actor is a no-op.
    pub fn restart(&mut self, id: ActorId) {
        self.do_restart(id);
    }

    /// Schedules a restart at an absolute time.
    pub fn schedule_restart(&mut self, id: ActorId, at: SimTime) {
        self.schedule(at, Event::Restart { actor: id });
    }

    /// Partitions two groups of actors (both directions). Returns a handle
    /// for [`World::heal`].
    pub fn partition(&mut self, group_a: &[ActorId], group_b: &[ActorId]) -> Partition {
        self.net.partition(group_a, group_b)
    }

    /// Heals a partition created by [`World::partition`].
    pub fn heal(&mut self, p: Partition) {
        self.net.heal(p);
    }

    // ------------------------------------------------------------------
    // Held messages (interceptor Verdict::Hold)
    // ------------------------------------------------------------------

    /// Ids of all currently held messages, in hold order.
    pub fn held_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.held.keys().copied()
    }

    /// Releases a held message back toward its destination, delivering it
    /// shortly after the current time (to the destination's *current*
    /// incarnation — this is how replayed notifications reach a restarted
    /// component). Returns `false` if `id` is not held.
    pub fn release_held(&mut self, id: MsgId) -> bool {
        let Some(env) = self.held.remove(&id) else {
            return false;
        };
        self.trace
            .push(self.now, TraceEventKind::MessageReleased { id });
        let dst_incarnation = self.actors[env.dst.index()].incarnation;
        let at = SimTime(self.now.0 + 1);
        self.schedule(
            at,
            Event::Deliver {
                env,
                dst_incarnation,
            },
        );
        true
    }

    /// Releases every held message, in hold order.
    pub fn release_all_held(&mut self) {
        while let Some((&id, _)) = self.held.first_key_value() {
            self.release_held(id);
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Processes the single next event. Returns `false` if the queue is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics past `MAX_EVENTS` (50 000 000) processed events.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(scheduled)) = self.queue.pop() else {
            return false;
        };
        self.processed += 1;
        assert!(
            self.processed <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — livelock or runaway timer loop?"
        );
        debug_assert!(scheduled.at >= self.now, "time went backwards");
        self.now = scheduled.at;
        let ev = self.event_slab[scheduled.slot as usize]
            .take()
            .expect("scheduled slot vacant");
        self.free_slots.push(scheduled.slot);
        match ev {
            Event::Deliver {
                env,
                dst_incarnation,
            } => self.deliver(env, dst_incarnation),
            Event::TimerFire { actor, timer, tag } => {
                // Valid only if still armed and the owner is alive; crash
                // disarms all of an actor's timers.
                if self.timers.remove(&timer).is_some() && !self.actors[actor.index()].crashed {
                    self.trace
                        .push(self.now, TraceEventKind::TimerFired { actor, timer, tag });
                    self.run_callback(actor, move |a, ctx| a.on_timer(timer, tag, ctx));
                }
            }
            Event::Crash { actor } => self.do_crash(actor),
            Event::Restart { actor } => self.do_restart(actor),
        }
        true
    }

    /// The time of the next pending event, if any.
    pub fn peek_next(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(s)| s.at)
    }

    /// Processes every event scheduled at or before `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while matches!(self.peek_next(), Some(at) if at <= t) {
            self.step();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs for a span of logical time from now.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Processes events until the queue is empty or the next event lies
    /// beyond `deadline_ns`. Returns `true` if the queue drained (the world
    /// is quiescent).
    pub fn run_until_quiescent(&mut self, deadline_ns: u64) -> bool {
        while matches!(self.peek_next(), Some(at) if at.0 <= deadline_ns) {
            self.step();
        }
        self.queue.is_empty()
    }

    /// Steps until a trace event satisfying `pred` is recorded or the clock
    /// would pass `deadline`. Returns the matching event's sequence number,
    /// or `None` on timeout. Events recorded before this call are not
    /// considered.
    ///
    /// # Panics
    ///
    /// Panics if the world was built [`Retention::DigestOnly`] — the
    /// predicate would have nothing to look at.
    pub fn run_until_event(
        &mut self,
        deadline: SimTime,
        pred: impl Fn(&TraceEvent) -> bool,
    ) -> Option<u64> {
        let mut scanned = self.trace.len();
        loop {
            for e in &self.trace.events()[scanned..] {
                if pred(e) {
                    return Some(e.seq);
                }
            }
            scanned = self.trace.len();
            match self.peek_next() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => {
                    if deadline > self.now {
                        self.now = deadline;
                    }
                    return None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: SimTime, ev: Event) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.event_slab[s as usize] = Some(ev);
                s
            }
            None => {
                let s = u32::try_from(self.event_slab.len()).expect("event slab overflow");
                self.event_slab.push(Some(ev));
                s
            }
        };
        self.queue.push(Reverse(Scheduled { at, seq, slot }));
    }

    fn deliver(&mut self, env: Envelope, dst_incarnation: u32) {
        let slot = &self.actors[env.dst.index()];
        let reason = if slot.crashed {
            Some(DropReason::DestCrashed)
        } else if slot.incarnation != dst_incarnation {
            Some(DropReason::Stale)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.trace.push(
                self.now,
                TraceEventKind::MessageDropped {
                    id: env.id,
                    src: env.src,
                    dst: env.dst,
                    kind: env.short,
                    reason,
                },
            );
            return;
        }
        self.trace.push(
            self.now,
            TraceEventKind::MessageDelivered {
                id: env.id,
                src: env.src,
                dst: env.dst,
                kind: env.short,
            },
        );
        let Envelope { src, dst, msg, .. } = env;
        self.run_callback(dst, move |a, ctx| a.on_message(src, msg, ctx));
    }

    fn do_crash(&mut self, id: ActorId) {
        let slot = &mut self.actors[id.index()];
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        self.timers.retain(|_, owner| *owner != id);
        // Open spans die with the incarnation that opened them.
        self.open_spans.retain(|(owner, _), _| *owner != id);
        self.trace
            .push(self.now, TraceEventKind::Crashed { actor: id });
    }

    fn do_restart(&mut self, id: ActorId) {
        let slot = &mut self.actors[id.index()];
        if !slot.crashed {
            return;
        }
        slot.crashed = false;
        slot.incarnation += 1;
        self.trace
            .push(self.now, TraceEventKind::Restarted { actor: id });
        self.run_callback(id, |a, ctx| a.on_restart(ctx));
    }

    /// Runs one actor callback and applies its effects.
    fn run_callback(&mut self, id: ActorId, f: impl FnOnce(&mut dyn ActorObj, &mut Ctx)) {
        let mut effects = Vec::new();
        {
            let now = self.now;
            let next_timer_id = &mut self.next_timer;
            let slot = &mut self.actors[id.index()];
            let mut ctx = Ctx {
                me: id,
                now,
                rng: &mut slot.rng,
                effects: &mut effects,
                next_timer_id,
            };
            f(slot.actor.as_mut(), &mut ctx);
        }
        self.apply_effects(id, effects);
    }

    fn apply_effects(&mut self, src: ActorId, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send {
                    to,
                    kind,
                    bytes,
                    msg,
                } => self.do_send(src, to, kind, bytes, msg),
                Effect::SetTimer { id, after, tag } => {
                    let fire_at = self.now + after;
                    self.timers.insert(id, src);
                    self.trace.push(
                        self.now,
                        TraceEventKind::TimerSet {
                            actor: src,
                            timer: id,
                            tag,
                            fire_at,
                        },
                    );
                    self.schedule(
                        fire_at,
                        Event::TimerFire {
                            actor: src,
                            timer: id,
                            tag,
                        },
                    );
                }
                Effect::CancelTimer { id } => {
                    self.timers.remove(&id);
                }
                Effect::Annotate { label, data } => {
                    self.trace.push(
                        self.now,
                        TraceEventKind::Annotation {
                            actor: src,
                            label,
                            data,
                        },
                    );
                }
                Effect::CounterAdd { name, delta } => self.metrics.counter_add(src, name, delta),
                Effect::GaugeSet { name, value } => self.metrics.gauge_set(src, name, value),
                Effect::Observe { name, value } => self.metrics.observe(src, name, value),
                Effect::SpanBegin { label, detail } => {
                    self.open_spans
                        .entry((src, label))
                        .or_default()
                        .push(self.now);
                    self.trace.push(
                        self.now,
                        TraceEventKind::SpanBegin {
                            actor: src,
                            label,
                            detail,
                        },
                    );
                }
                Effect::SpanEnd { label } => {
                    let started = self
                        .open_spans
                        .get_mut(&(src, label))
                        .and_then(|stack| stack.pop());
                    // An end with no matching begin is dropped silently: a
                    // crash wipes the actor's open spans, and its restarted
                    // incarnation may close scopes it never opened.
                    if let Some(started) = started {
                        self.trace
                            .push(self.now, TraceEventKind::SpanEnd { actor: src, label });
                        self.metrics
                            .observe_span(src, label, self.now.0 - started.0);
                    }
                }
            }
        }
    }

    fn do_send(&mut self, src: ActorId, dst: ActorId, kind: &'static str, bytes: u64, msg: AnyMsg) {
        assert!(
            dst.index() < self.actors.len(),
            "send to unknown actor {dst}"
        );
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        let env = Envelope {
            id,
            src,
            dst,
            sent_at: self.now,
            kind,
            short: short_kind(kind),
            bytes,
            msg,
        };
        self.trace.push(
            self.now,
            TraceEventKind::MessageSent {
                id,
                src,
                dst,
                kind: env.short,
            },
        );
        let verdict = self.interceptor.on_send(&env, self.now);
        let extra = match verdict {
            Verdict::Pass => Duration::ZERO,
            Verdict::Delay(d) => {
                self.trace.push(
                    self.now,
                    TraceEventKind::MessageDelayed {
                        id,
                        src,
                        dst,
                        kind: env.short,
                        by: d,
                    },
                );
                d
            }
            Verdict::Drop => {
                self.trace.push(
                    self.now,
                    TraceEventKind::MessageDropped {
                        id,
                        src,
                        dst,
                        kind: env.short,
                        reason: DropReason::Interceptor,
                    },
                );
                return;
            }
            Verdict::Hold => {
                self.trace.push(
                    self.now,
                    TraceEventKind::MessageHeld {
                        id,
                        src,
                        dst,
                        kind: env.short,
                    },
                );
                self.held.insert(id, env);
                return;
            }
        };
        match self
            .net
            .offer(src, dst, self.now, &mut self.net_rng, env.bytes, extra)
        {
            SendOutcome::DeliverAt(at) => {
                let dst_incarnation = self.actors[dst.index()].incarnation;
                self.schedule(
                    at,
                    Event::Deliver {
                        env,
                        dst_incarnation,
                    },
                );
            }
            SendOutcome::Queued { at, depth, waited } => {
                // Congestion telemetry, attributed to the sender: queue
                // depth gauge, wait histogram, and — only when the message
                // actually waited — a trace event provenance can blame.
                self.metrics.gauge_set(src, "net.queue_depth", depth as i64);
                self.metrics.observe(src, "net.queue_wait_ns", waited.0);
                if waited.0 > 0 {
                    self.trace.push(
                        self.now,
                        TraceEventKind::MessageQueued {
                            id,
                            src,
                            dst,
                            kind: env.short,
                            depth,
                            waited,
                        },
                    );
                }
                let dst_incarnation = self.actors[dst.index()].incarnation;
                self.schedule(
                    at,
                    Event::Deliver {
                        env,
                        dst_incarnation,
                    },
                );
            }
            SendOutcome::Lost(reason) => {
                if reason == DropReason::QueueFull {
                    self.metrics.counter_add(src, "net.queue_dropped", 1);
                }
                self.trace.push(
                    self.now,
                    TraceEventKind::MessageDropped {
                        id,
                        src,
                        dst,
                        kind: env.short,
                        reason,
                    },
                );
            }
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("seed", &self.seed)
            .field("actors", &self.actors.len())
            .field("queued", &self.queue.len())
            .field("processed", &self.processed)
            .field("held", &self.held.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Actor;

    /// Echoes every `u32` it receives back to the sender, incremented.
    struct Echo {
        received: Vec<u32>,
    }
    impl Actor for Echo {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
            let v = *msg.downcast_ref::<u32>().expect("u32");
            self.received.push(v);
            if v < 3 {
                ctx.send(from, v + 1);
            }
        }
    }

    /// Periodically ticks and counts; volatile count resets on restart.
    struct Ticker {
        ticks: u64,
        period: Duration,
    }
    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
        fn on_timer(&mut self, _t: TimerId, _tag: u64, ctx: &mut Ctx) {
            self.ticks += 1;
            ctx.annotate("tick", self.ticks.to_string());
            ctx.set_timer(self.period, 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx) {
            self.ticks = 0; // volatile
            self.on_start(ctx);
        }
    }

    fn two_echoes() -> (World, ActorId, ActorId) {
        let mut w = World::new(WorldConfig::default(), 1);
        let a = w.spawn("a", Echo { received: vec![] });
        let b = w.spawn("b", Echo { received: vec![] });
        (w, a, b)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut w, a, b) = two_echoes();
        w.invoke::<Echo, _>(a, |_, ctx| ctx.send(ctx.id(), 0u32)); // self-send kick
        w.run_until_quiescent(10_000_000);
        // a receives 0, sends 1 to itself (from==a), etc. until 3.
        assert_eq!(w.actor_ref::<Echo>(a).unwrap().received, vec![0, 1, 2, 3]);
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());
    }

    #[test]
    fn cross_actor_messaging_works() {
        let (mut w, a, b) = two_echoes();
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 1u32));
        w.run_until_quiescent(10_000_000);
        assert_eq!(w.actor_ref::<Echo>(b).unwrap().received, vec![1, 3]);
        assert_eq!(w.actor_ref::<Echo>(a).unwrap().received, vec![2]);
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        let run = |seed| {
            let mut w = World::new(WorldConfig::default(), seed);
            let a = w.spawn("a", Echo { received: vec![] });
            let b = w.spawn("b", Echo { received: vec![] });
            w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 0u32));
            w.run_until_quiescent(10_000_000);
            w.trace().digest()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should jitter differently");
    }

    #[test]
    fn timers_fire_periodically_and_stop_on_crash() {
        let mut w = World::new(WorldConfig::default(), 3);
        let t = w.spawn(
            "ticker",
            Ticker {
                ticks: 0,
                period: Duration::millis(10),
            },
        );
        w.run_for(Duration::millis(35));
        assert_eq!(w.actor_ref::<Ticker>(t).unwrap().ticks, 3);
        w.crash(t);
        w.run_for(Duration::millis(50));
        assert_eq!(
            w.actor_ref::<Ticker>(t).unwrap().ticks,
            3,
            "no ticks while crashed"
        );
        w.restart(t);
        w.run_for(Duration::millis(25));
        assert_eq!(
            w.actor_ref::<Ticker>(t).unwrap().ticks,
            2,
            "volatile state reset"
        );
        assert_eq!(w.incarnation(t), 1);
    }

    #[test]
    fn messages_to_crashed_actors_are_dropped() {
        let (mut w, a, b) = two_echoes();
        w.crash(b);
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 9u32));
        w.run_until_quiescent(10_000_000);
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());
        let drops = w.trace().count(|e| {
            matches!(
                &e.kind,
                TraceEventKind::MessageDropped {
                    reason: DropReason::DestCrashed,
                    ..
                }
            )
        });
        assert_eq!(drops, 1);
    }

    #[test]
    fn in_flight_messages_do_not_survive_restart() {
        let (mut w, a, b) = two_echoes();
        // Send while b is alive, then crash+restart b before delivery.
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 9u32));
        w.crash(b);
        w.restart(b);
        w.run_until_quiescent(10_000_000);
        assert!(
            w.actor_ref::<Echo>(b).unwrap().received.is_empty(),
            "message addressed to old incarnation must be dropped"
        );
        let stale = w.trace().count(|e| {
            matches!(
                &e.kind,
                TraceEventKind::MessageDropped {
                    reason: DropReason::Stale,
                    ..
                }
            )
        });
        assert_eq!(stale, 1);
    }

    #[test]
    fn partitions_drop_and_heal_restores() {
        let (mut w, a, b) = two_echoes();
        let p = w.partition(&[a], &[b]);
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 1u32));
        w.run_until_quiescent(10_000_000);
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());
        w.heal(p);
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 1u32));
        w.run_until_quiescent(20_000_000);
        assert_eq!(w.actor_ref::<Echo>(b).unwrap().received, vec![1, 3]);
    }

    #[test]
    fn interceptor_hold_and_release_replays_to_new_incarnation() {
        let (mut w, a, b) = two_echoes();
        w.set_interceptor(move |env: &Envelope, _t: SimTime| {
            if env.dst == b {
                Verdict::Hold
            } else {
                Verdict::Pass
            }
        });
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 2u32));
        w.run_until_quiescent(10_000_000);
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());
        assert_eq!(w.held_ids().count(), 1);
        // Restart b, then release: the held message reaches the NEW incarnation.
        w.crash(b);
        w.restart(b);
        w.clear_interceptor();
        w.release_all_held();
        w.run_until_quiescent(20_000_000);
        assert_eq!(w.actor_ref::<Echo>(b).unwrap().received, vec![2]);
    }

    #[test]
    fn interceptor_drop_and_delay() {
        let (mut w, a, b) = two_echoes();
        w.set_interceptor(move |env: &Envelope, _t: SimTime| {
            if env.dst == b {
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        });
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 2u32));
        w.run_until_quiescent(10_000_000);
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());

        w.set_interceptor(move |env: &Envelope, _t: SimTime| {
            if env.dst == b {
                Verdict::Delay(Duration::millis(100))
            } else {
                Verdict::Pass
            }
        });
        w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 3u32));
        w.run_for(Duration::millis(50));
        assert!(w.actor_ref::<Echo>(b).unwrap().received.is_empty());
        w.run_for(Duration::millis(60));
        assert_eq!(w.actor_ref::<Echo>(b).unwrap().received, vec![3]);
    }

    #[test]
    fn run_until_event_finds_annotations() {
        let mut w = World::new(WorldConfig::default(), 3);
        let _ = w.spawn(
            "ticker",
            Ticker {
                ticks: 0,
                period: Duration::millis(10),
            },
        );
        let hit = w.run_until_event(SimTime(Duration::secs(1).as_nanos()), |e| {
            matches!(&e.kind, TraceEventKind::Annotation { label, data, .. }
                if *label == "tick" && data == "3")
        });
        assert!(hit.is_some());
        assert_eq!(w.now().millis(), 30);
    }

    #[test]
    fn run_until_event_times_out_and_advances_clock() {
        let mut w = World::new(WorldConfig::default(), 3);
        let hit = w.run_until_event(SimTime(5_000_000), |_| true);
        assert!(hit.is_none());
        assert_eq!(w.now(), SimTime(5_000_000));
    }

    #[test]
    fn scheduled_faults_fire_at_their_times() {
        let mut w = World::new(WorldConfig::default(), 3);
        let t = w.spawn(
            "ticker",
            Ticker {
                ticks: 0,
                period: Duration::millis(10),
            },
        );
        w.schedule_crash(t, SimTime(Duration::millis(25).as_nanos()));
        w.schedule_restart(t, SimTime(Duration::millis(100).as_nanos()));
        w.run_for(Duration::millis(200));
        // 2 ticks before crash (10, 20), then restart at 100 → ticks at 110..200: 10 ticks.
        assert_eq!(w.actor_ref::<Ticker>(t).unwrap().ticks, 10);
        assert_eq!(w.incarnation(t), 1);
    }

    #[test]
    fn retention_changes_neither_digest_nor_count() {
        let run = |retention| {
            let mut w = World::new(WorldConfig { retention }, 42);
            let a = w.spawn("a", Echo { received: vec![] });
            let b = w.spawn("b", Echo { received: vec![] });
            let t = w.spawn(
                "ticker",
                Ticker {
                    ticks: 0,
                    period: Duration::millis(10),
                },
            );
            w.invoke::<Echo, _>(a, move |_, ctx| ctx.send(b, 0u32));
            w.run_for(Duration::millis(45));
            w.crash(t);
            w.restart(t);
            w.run_for(Duration::millis(45));
            (w.trace().digest(), w.trace().len(), w.metrics_report())
        };
        let kept = run(Retention::All);
        assert!(kept.1 > 20);
        assert_eq!(run(Retention::DigestOnly), kept);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_names_panic() {
        let mut w = World::new(WorldConfig::default(), 1);
        w.spawn("x", Echo { received: vec![] });
        w.spawn("x", Echo { received: vec![] });
    }

    #[test]
    fn lookup_and_names_round_trip() {
        let (w, a, b) = two_echoes();
        assert_eq!(w.lookup("a"), Some(a));
        assert_eq!(w.lookup("b"), Some(b));
        assert_eq!(w.lookup("zzz"), None);
        assert_eq!(w.name_of(a), "a");
        assert_eq!(w.actor_ids().collect::<Vec<_>>(), vec![a, b]);
    }
}

//! Randomized-but-deterministic tests on the simulator's core guarantees:
//! determinism, FIFO delivery, and crash/restart hygiene, under arbitrary
//! topologies and fault schedules.
//!
//! Cases are generated from a fixed-seed [`SimRng`] rather than an external
//! property-testing framework, so the exact case set is pinned forever and
//! the suite runs with zero third-party dependencies.
//!
//! The crate's one test binary: the network model's properties are the
//! [`net_props`] module.

mod net_props;

use ph_sim::{
    Actor, ActorId, AnyMsg, Ctx, Duration, SimRng, SimTime, TraceEventKind, World, WorldConfig,
};

/// A chatty actor: every tick it messages a fixed peer with a sequence
/// number; it records (sender, seq) pairs it receives.
struct Chatter {
    peer: Option<ActorId>,
    seq: u64,
    received: Vec<(ActorId, u64)>,
}

#[derive(Debug)]
struct Chat(u64);

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::millis(5), 0);
    }
    fn on_message(&mut self, from: ActorId, msg: AnyMsg, _ctx: &mut Ctx) {
        if let Some(Chat(n)) = msg.downcast_ref::<Chat>() {
            self.received.push((from, *n));
        }
    }
    fn on_timer(&mut self, _t: ph_sim::TimerId, _tag: u64, ctx: &mut Ctx) {
        if let Some(p) = self.peer {
            ctx.send(p, Chat(self.seq));
            self.seq += 1;
        }
        ctx.set_timer(Duration::millis(5), 0);
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.seq = 0;
        self.received.clear();
        self.on_start(ctx);
    }
}

#[derive(Debug, Clone)]
enum Fault {
    Crash {
        victim: u8,
        at_ms: u16,
        down_ms: u16,
    },
    Partition {
        a: u8,
        b: u8,
    },
}

/// Draws a random fault from the same distribution the proptest version used.
fn gen_fault(rng: &mut SimRng) -> Fault {
    if rng.below(2) == 0 {
        Fault::Crash {
            victim: rng.below(4) as u8,
            at_ms: rng.range(1, 400) as u16,
            down_ms: rng.range(1, 200) as u16,
        }
    } else {
        Fault::Partition {
            a: rng.below(4) as u8,
            b: rng.below(4) as u8,
        }
    }
}

/// Draws a full random case: a world seed and a fault schedule.
fn gen_case(rng: &mut SimRng) -> (u64, Vec<Fault>) {
    let seed = rng.below(1000);
    let n = rng.below(6) as usize;
    let faults = (0..n).map(|_| gen_fault(rng)).collect();
    (seed, faults)
}

/// Builds a 4-actor ring and applies the fault schedule; returns the world.
fn run_ring(seed: u64, faults: &[Fault]) -> World {
    let mut world = World::new(WorldConfig::default(), seed);
    let ids: Vec<ActorId> = (0..4)
        .map(|i| {
            world.spawn(
                &format!("chatter-{i}"),
                Chatter {
                    peer: None,
                    seq: 0,
                    received: Vec::new(),
                },
            )
        })
        .collect();
    // Close the ring (peer of i is i+1).
    for i in 0..4 {
        let peer = ids[(i + 1) % 4];
        world.invoke::<Chatter, _>(ids[i], move |c, _| c.peer = Some(peer));
    }
    for f in faults {
        match *f {
            Fault::Crash {
                victim,
                at_ms,
                down_ms,
            } => {
                let v = ids[victim as usize % 4];
                world.schedule_crash(v, SimTime(Duration::millis(at_ms as u64).as_nanos()));
                world.schedule_restart(
                    v,
                    SimTime(Duration::millis(at_ms as u64 + down_ms as u64).as_nanos()),
                );
            }
            Fault::Partition { a, b } => {
                let (x, y) = (ids[a as usize % 4], ids[b as usize % 4]);
                if x != y {
                    world.net_mut().block(x, y);
                }
            }
        }
    }
    world.run_until(SimTime(Duration::millis(500).as_nanos()));
    world
}

/// The headline guarantee: identical inputs produce identical traces,
/// regardless of fault schedules.
#[test]
fn runs_are_deterministic() {
    let mut rng = SimRng::from_seed(0xD0);
    for _ in 0..48 {
        let (seed, faults) = gen_case(&mut rng);
        let a = run_ring(seed, &faults).trace().digest();
        let b = run_ring(seed, &faults).trace().digest();
        assert_eq!(a, b, "seed {seed} faults {faults:?}");
    }
}

/// Per-link FIFO: sequence numbers received from any single incarnation
/// of a sender are strictly increasing.
#[test]
fn links_deliver_in_order() {
    let mut rng = SimRng::from_seed(0xF1F0);
    for _ in 0..48 {
        let (seed, faults) = gen_case(&mut rng);
        let world = run_ring(seed, &faults);
        for id in world.actor_ids() {
            if let Some(c) = world.actor_ref::<Chatter>(id) {
                // Split the stream at sender restarts (seq resets to 0).
                let mut last: std::collections::BTreeMap<ActorId, u64> =
                    std::collections::BTreeMap::new();
                for &(from, n) in &c.received {
                    if let Some(&prev) = last.get(&from) {
                        assert!(
                            n > prev || n == 0,
                            "link {from}->{id} reordered: {prev} then {n}"
                        );
                    }
                    last.insert(from, n);
                }
            }
        }
    }
}

/// Trace bookkeeping: every delivered message was sent, and no message
/// is both delivered and dropped.
#[test]
fn trace_message_lifecycle_is_consistent() {
    let mut rng = SimRng::from_seed(0x11FE);
    for _ in 0..48 {
        let (seed, faults) = gen_case(&mut rng);
        let world = run_ring(seed, &faults);
        let mut sent = std::collections::BTreeSet::new();
        let mut delivered = std::collections::BTreeSet::new();
        let mut dropped = std::collections::BTreeSet::new();
        for e in world.trace().iter() {
            match &e.kind {
                TraceEventKind::MessageSent { id, .. } => {
                    assert!(sent.insert(*id), "duplicate send id");
                }
                TraceEventKind::MessageDelivered { id, .. } => {
                    assert!(sent.contains(id), "delivery without send");
                    assert!(delivered.insert(*id), "double delivery");
                }
                TraceEventKind::MessageDropped { id, .. } => {
                    assert!(sent.contains(id), "drop without send");
                    dropped.insert(*id);
                }
                _ => {}
            }
        }
        assert!(delivered.is_disjoint(&dropped), "delivered AND dropped");
    }
}

/// Crashed actors receive nothing while down; restarted actors resume.
#[test]
fn crash_windows_are_silent() {
    let mut rng = SimRng::from_seed(0xC1A5);
    for _ in 0..48 {
        let victim = rng.below(4) as u8;
        let at_ms = rng.range(50, 200) as u16;
        let down_ms = rng.range(50, 150) as u16;
        let faults = [Fault::Crash {
            victim,
            at_ms,
            down_ms,
        }];
        let world = run_ring(7, &faults);
        let ids: Vec<ActorId> = world.actor_ids().collect();
        let v = ids[victim as usize % 4];
        let start = Duration::millis(at_ms as u64).as_nanos();
        let end = Duration::millis(at_ms as u64 + down_ms as u64).as_nanos();
        for e in world.trace().iter() {
            if let TraceEventKind::MessageDelivered { dst, .. } = &e.kind {
                if *dst == v {
                    assert!(
                        e.at.0 < start || e.at.0 >= end,
                        "delivery to crashed actor at {}",
                        e.at
                    );
                }
            }
        }
        assert_eq!(world.incarnation(v), 1);
        assert!(!world.is_crashed(v));
    }
}

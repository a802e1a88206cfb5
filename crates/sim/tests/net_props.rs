//! Property tests for the queueing network model.
//!
//! Random topologies and flows are generated from fixed-seed [`SimRng`]s
//! (the same in-tree idiom as `proptests.rs` — no third-party framework, so
//! the exact case set is pinned forever). Each seeded case builds a random
//! set of finite-bandwidth links and drives a random message flow through
//! [`Network::offer`], then checks the queue discipline's core invariants:
//!
//! 1. **Per-link FIFO order** — on a FIFO link, delivery times never
//!    reorder relative to offer order.
//! 2. **Conservation** — every offered message is exactly one of
//!    delivered-in-future (in flight), or lost with a recorded reason;
//!    at the world level, sent == delivered + dropped + in-flight.
//! 3. **Capacity bound** — queue occupancy never exceeds the configured
//!    drop-tail capacity, and admissions past capacity tail-drop.
//! 4. **Zero-load latency** — an idle link delivers after exactly
//!    transmission + propagation; a zero-size message sees pure
//!    propagation delay.

use ph_sim::net::{LinkConfig, Network, SendOutcome};
use ph_sim::{
    Actor, ActorId, AnyMsg, Ctx, DropReason, Duration, SimRng, SimTime, TraceEventKind, World,
    WorldConfig,
};

/// Number of seeded random cases per property (the ISSUE's floor is 100).
const CASES: u64 = 120;

/// A random finite-bandwidth link: 1 KB/s – 10 MB/s, 0–500 µs propagation,
/// optional jitter, drop-tail capacity 1–16 (or unbounded).
fn random_queued_link(rng: &mut SimRng, fifo: bool) -> LinkConfig {
    LinkConfig {
        latency: Duration::micros(rng.below(500)),
        jitter: if rng.chance(0.3) {
            Duration::micros(rng.below(50))
        } else {
            Duration::ZERO
        },
        loss: 0.0,
        fifo,
        bandwidth: rng.range(1_000, 10_000_000),
        queue: if rng.chance(0.5) {
            rng.range(1, 16) as usize
        } else {
            0
        },
    }
}

/// Drives `count` offers of random sizes at non-decreasing random times over
/// the `src → dst` link, returning `(offer_time, outcome)` pairs.
fn random_flow(
    net: &mut Network,
    rng: &mut SimRng,
    src: ActorId,
    dst: ActorId,
    count: usize,
) -> Vec<(SimTime, SendOutcome)> {
    let mut now = SimTime(0);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        now = SimTime(now.0 + rng.below(200_000));
        let size = rng.below(64 * 1024);
        out.push((now, net.offer(src, dst, now, rng, size, Duration::ZERO)));
    }
    out
}

#[test]
fn fifo_queued_links_never_reorder_across_seeds() {
    for seed in 0..CASES {
        let mut rng = SimRng::from_seed(seed);
        let mut net = Network::new();
        let (src, dst) = (ActorId(0), ActorId(1));
        net.set_link(src, dst, random_queued_link(&mut rng, true));
        let mut last = None;
        for (i, (_, outcome)) in random_flow(&mut net, &mut rng, src, dst, 120)
            .into_iter()
            .enumerate()
        {
            let at = match outcome {
                SendOutcome::Queued { at, .. } | SendOutcome::DeliverAt(at) => at,
                SendOutcome::Lost(DropReason::QueueFull) => continue,
                other => panic!("seed {seed}: unexpected {other:?}"),
            };
            if let Some(prev) = last {
                assert!(at > prev, "seed {seed}: message {i} overtook predecessor");
            }
            last = Some(at);
        }
    }
}

#[test]
fn every_offer_is_admitted_or_lost_with_a_reason() {
    for seed in 0..CASES {
        let mut rng = SimRng::from_seed(0x1000 + seed);
        let mut net = Network::new();
        let (src, dst) = (ActorId(0), ActorId(1));
        let fifo = rng.chance(0.8);
        net.set_link(src, dst, random_queued_link(&mut rng, fifo));
        let (mut admitted, mut lost) = (0usize, 0usize);
        let flow = random_flow(&mut net, &mut rng, src, dst, 150);
        for (now, outcome) in &flow {
            match outcome {
                SendOutcome::Queued { at, .. } => {
                    assert!(*at > *now, "seed {seed}: delivery not in the future");
                    admitted += 1;
                }
                SendOutcome::DeliverAt(_) => {
                    panic!("seed {seed}: queued link took the legacy path")
                }
                SendOutcome::Lost(DropReason::QueueFull) => lost += 1,
                SendOutcome::Lost(other) => {
                    panic!("seed {seed}: unexpected loss {other:?}")
                }
            }
        }
        assert_eq!(admitted + lost, flow.len(), "seed {seed}: conservation");
    }
}

#[test]
fn queue_occupancy_never_exceeds_capacity() {
    for seed in 0..CASES {
        let mut rng = SimRng::from_seed(0x2000 + seed);
        let mut net = Network::new();
        let (src, dst) = (ActorId(0), ActorId(1));
        let mut link = random_queued_link(&mut rng, true);
        link.queue = rng.range(1, 12) as usize;
        net.set_link(src, dst, link);
        let mut now = SimTime(0);
        let mut saw_drop = false;
        for _ in 0..200 {
            // Mostly bursts (same instant) with occasional pauses, to
            // exercise both the full-queue and drained states.
            if rng.chance(0.15) {
                now = SimTime(now.0 + rng.below(5_000_000));
            }
            let size = rng.range(1, 32 * 1024);
            match net.offer(src, dst, now, &mut rng, size, Duration::ZERO) {
                SendOutcome::Queued { depth, .. } => {
                    assert!(
                        depth as usize <= link.queue,
                        "seed {seed}: depth {depth} > capacity {}",
                        link.queue
                    );
                }
                SendOutcome::Lost(DropReason::QueueFull) => saw_drop = true,
                other => panic!("seed {seed}: unexpected {other:?}"),
            }
            assert!(
                net.queue_occupancy(src, dst, now) <= link.queue,
                "seed {seed}: occupancy exceeded capacity"
            );
        }
        assert!(saw_drop, "seed {seed}: burst flow never filled the queue");
    }
}

#[test]
fn zero_load_latency_is_transmission_plus_propagation() {
    for seed in 0..CASES {
        let mut rng = SimRng::from_seed(0x3000 + seed);
        let mut net = Network::new();
        let (src, dst) = (ActorId(0), ActorId(1));
        let mut link = random_queued_link(&mut rng, true);
        link.jitter = Duration::ZERO;
        net.set_link(src, dst, link);
        // Offers spaced far enough apart that the link is always idle.
        let mut now = SimTime(0);
        for _ in 0..20 {
            now = SimTime(now.0 + 60_000_000_000);
            let size = rng.below(4096);
            let service = (size as u128 * 1_000_000_000).div_ceil(link.bandwidth as u128) as u64;
            match net.offer(src, dst, now, &mut rng, size, Duration::ZERO) {
                SendOutcome::Queued { at, depth, waited } => {
                    assert_eq!(
                        at,
                        SimTime(now.0 + service + link.latency.0),
                        "seed {seed}: idle-link latency must be service + propagation"
                    );
                    assert_eq!(waited, Duration::ZERO, "seed {seed}");
                    assert_eq!(depth, 1, "seed {seed}");
                }
                other => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        // The degenerate case: zero bytes ⇒ delivery exactly one
        // propagation delay after the send.
        now = SimTime(now.0 + 60_000_000_000);
        match net.offer(src, dst, now, &mut rng, 0, Duration::ZERO) {
            SendOutcome::Queued { at, .. } => {
                assert_eq!(at, SimTime(now.0 + link.latency.0), "seed {seed}");
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
    }
}

/// A sender that pushes `total` sized messages at its peer as fast as its
/// tick allows; the peer just counts.
struct Blaster {
    peer: ActorId,
    total: u32,
    sent: u32,
    size: u64,
}

#[derive(Debug)]
struct Blast(
    #[allow(
        dead_code,
        reason = "gives each send a distinct Debug rendering in the trace; nothing downcasts it"
    )]
    u32,
);

impl Actor for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::micros(50), 0);
    }
    fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
    fn on_timer(&mut self, _t: ph_sim::TimerId, _tag: u64, ctx: &mut Ctx) {
        if self.sent < self.total {
            ctx.send_sized(self.peer, Blast(self.sent), self.size);
            self.sent += 1;
            ctx.set_timer(Duration::micros(50), 0);
        }
    }
}

struct Sink;
impl Actor for Sink {
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
}

/// World-level conservation: over a congested run cut off mid-flight,
/// every `Blast` send is delivered, dropped, or still in flight at the
/// horizon — no message is double-counted or vanishes.
#[test]
fn world_conserves_messages_under_congestion() {
    for seed in 0..CASES {
        let mut rng = SimRng::from_seed(0x4000 + seed);
        let mut w = World::new(WorldConfig::default(), seed);
        let sink = w.spawn("sink", Sink);
        let blaster = w.spawn(
            "blaster",
            Blaster {
                peer: sink,
                total: 200,
                sent: 0,
                size: 8 * 1024,
            },
        );
        w.net_mut().set_link(
            blaster,
            sink,
            LinkConfig {
                jitter: Duration::ZERO,
                bandwidth: rng.range(100_000, 2_000_000),
                queue: rng.range(2, 20) as usize,
                ..LinkConfig::default()
            },
        );
        // Stop mid-transfer so some messages are still in flight.
        w.run_for(Duration::millis(1 + rng.below(12)));
        let is_blast = |kind: &str| kind == "Blast";
        let sent = w.trace().count(
            |e| matches!(&e.kind, TraceEventKind::MessageSent { kind, .. } if is_blast(kind)),
        );
        let delivered = w.trace().count(
            |e| matches!(&e.kind, TraceEventKind::MessageDelivered { kind, .. } if is_blast(kind)),
        );
        let dropped = w.trace().count(|e| {
            matches!(
                &e.kind,
                TraceEventKind::MessageDropped {
                    kind,
                    reason: DropReason::QueueFull,
                    ..
                } if is_blast(kind)
            )
        });
        let in_flight = w.net().queue_occupancy(blaster, sink, w.now());
        assert!(sent > 0, "seed {seed}: no traffic generated");
        assert!(
            delivered + dropped <= sent,
            "seed {seed}: {delivered}+{dropped} > {sent}"
        );
        // In-flight covers both queued-not-yet-departed and
        // departed-not-yet-delivered (propagation), so it is a lower bound
        // on the sent-minus-settled gap.
        assert!(
            sent - delivered - dropped >= in_flight,
            "seed {seed}: sent {sent} != delivered {delivered} + dropped {dropped} + in-flight {in_flight}"
        );
    }
}

/// Determinism: the same seed and topology produce identical outcomes
/// across two independently-built networks.
#[test]
fn queued_offer_sequences_are_deterministic() {
    for seed in 0..CASES {
        let run = |seed: u64| {
            let mut rng = SimRng::from_seed(0x5000 + seed);
            let mut net = Network::new();
            let (src, dst) = (ActorId(0), ActorId(1));
            net.set_link(src, dst, random_queued_link(&mut rng, true));
            random_flow(&mut net, &mut rng, src, dst, 100)
        };
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

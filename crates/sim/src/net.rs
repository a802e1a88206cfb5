//! The message network: latency, loss, FIFO links, queues and partitions.
//!
//! Links are FIFO by default (modelling TCP-backed RPC/watch streams: a later
//! message never overtakes an earlier one on the same link), with configurable
//! base latency, jitter and loss. Partitions block links in both or one
//! direction; healing restores them. Partitions and loss are how the
//! *unintentional* part of a partial history arises — the `ph-core`
//! interceptors add the *targeted* part on top.
//!
//! Links may additionally model **finite capacity**: setting
//! [`LinkConfig::bandwidth`] gives the link a serial transmitter
//! (`bytes/sec`) fronted by a drop-tail queue of at most
//! [`LinkConfig::queue`] in-flight messages. Latency and loss then *emerge*
//! from occupancy — offered load past the transmitter's rate queues up (and
//! eventually tail-drops as [`DropReason::QueueFull`]) with no interceptor
//! involved. This is the §4.1 story: partial histories exist because the
//! store saturates, not only because someone injected a fault. Links with
//! `bandwidth == 0` (the default) keep the legacy infinite-capacity
//! behaviour bit-for-bit, including the RNG draw sequence, so the runs of
//! scenarios that never queue are unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ids::ActorId;
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use crate::trace::DropReason;

/// Behaviour of a single directed link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Minimum one-way delay.
    pub latency: Duration,
    /// Uniform extra delay in `[0, jitter]` added per message.
    pub jitter: Duration,
    /// Probability a message is silently lost.
    pub loss: f64,
    /// If `true` (the default), deliveries on this link never reorder.
    pub fifo: bool,
    /// Transmission rate in bytes/sec. `0` (the default) means infinite:
    /// the link behaves exactly as before queueing existed.
    pub bandwidth: u64,
    /// Drop-tail queue capacity in messages (counting the one being
    /// transmitted). `0` means unbounded. Only meaningful when
    /// `bandwidth > 0`.
    pub queue: usize,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            latency: Duration::micros(200),
            jitter: Duration::micros(100),
            loss: 0.0,
            fifo: true,
            bandwidth: 0,
            queue: 0,
        }
    }
}

/// Per-link transmitter state for finite-bandwidth links: when the serial
/// transmitter frees up and the departure time of every message still
/// occupying the queue (head included). Drained lazily against `now` on
/// each offer — no dequeue events are ever scheduled, which keeps the
/// queue model invisible to the event loop and trivially deterministic.
#[derive(Debug, Default)]
struct QueueState {
    busy_until: SimTime,
    departures: VecDeque<SimTime>,
}

/// A handle to an active partition, listing exactly the directed pairs it
/// blocked, so healing removes precisely what the partition added.
#[derive(Debug, Clone)]
pub struct Partition {
    pub(crate) pairs: Vec<(ActorId, ActorId)>,
}

impl Partition {
    /// The directed pairs blocked by this partition.
    pub fn pairs(&self) -> &[(ActorId, ActorId)] {
        &self.pairs
    }
}

/// Outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Deliver at the given time.
    DeliverAt(SimTime),
    /// Accepted by a finite-bandwidth link's queue; deliver at `at`. The
    /// extra fields let the world record congestion telemetry without
    /// re-deriving queue state.
    Queued {
        /// Delivery time (departure + propagation + jitter).
        at: SimTime,
        /// Queue occupancy right after this message was admitted
        /// (this message included).
        depth: u32,
        /// Time this message waited behind earlier traffic before its own
        /// transmission began. Zero on an idle link.
        waited: Duration,
    },
    /// Lost; the reason is recorded in the trace.
    Lost(DropReason),
}

/// The simulated network fabric. Every pair without an override behaves
/// as [`LinkConfig::default`].
#[derive(Debug, Default)]
pub struct Network {
    overrides: BTreeMap<(ActorId, ActorId), LinkConfig>,
    blocked: BTreeSet<(ActorId, ActorId)>,
    /// Last scheduled delivery per directed link, for FIFO clamping.
    fifo_horizon: BTreeMap<(ActorId, ActorId), SimTime>,
    /// Transmitter/queue state per finite-bandwidth directed link.
    queues: BTreeMap<(ActorId, ActorId), QueueState>,
}

impl Network {
    /// Creates a network with no overrides, partitions or queued traffic.
    pub fn new() -> Network {
        Network::default()
    }

    /// The link configuration in effect for `src → dst`.
    pub fn link(&self, src: ActorId, dst: ActorId) -> LinkConfig {
        self.overrides.get(&(src, dst)).copied().unwrap_or_default()
    }

    /// Overrides the configuration of the directed link `src → dst`.
    pub fn set_link(&mut self, src: ActorId, dst: ActorId, cfg: LinkConfig) {
        self.overrides.insert((src, dst), cfg);
    }

    /// Blocks the directed link `src → dst` (messages are dropped as
    /// [`DropReason::Partitioned`]).
    pub fn block(&mut self, src: ActorId, dst: ActorId) {
        self.blocked.insert((src, dst));
    }

    /// `true` if `src → dst` is currently blocked.
    pub fn is_blocked(&self, src: ActorId, dst: ActorId) -> bool {
        self.blocked.contains(&(src, dst))
    }

    /// Partitions `group_a` from `group_b` in both directions, returning a
    /// handle that [`Network::heal`] accepts.
    pub fn partition(&mut self, group_a: &[ActorId], group_b: &[ActorId]) -> Partition {
        let mut pairs = Vec::with_capacity(group_a.len() * group_b.len() * 2);
        for &a in group_a {
            for &b in group_b {
                if a == b {
                    continue;
                }
                for pair in [(a, b), (b, a)] {
                    if self.blocked.insert(pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        Partition { pairs }
    }

    /// Isolates one actor from everyone in `others`, both directions.
    pub fn isolate(&mut self, actor: ActorId, others: &[ActorId]) -> Partition {
        self.partition(&[actor], others)
    }

    /// Heals a partition created by [`Network::partition`]/[`Network::isolate`],
    /// unblocking exactly the pairs that call blocked.
    pub fn heal(&mut self, partition: Partition) {
        for pair in partition.pairs {
            self.blocked.remove(&pair);
        }
    }

    /// Removes every block, regardless of origin.
    pub fn heal_all(&mut self) {
        self.blocked.clear();
    }

    /// Messages still occupying the `src → dst` queue at `now` (queued or
    /// mid-transmission). Zero for links without bandwidth modelling.
    pub fn queue_occupancy(&self, src: ActorId, dst: ActorId, now: SimTime) -> usize {
        self.queues
            .get(&(src, dst))
            .map_or(0, |q| q.departures.iter().filter(|&&d| d > now).count())
    }

    /// Decides the fate of a message of `size` bytes offered to the network
    /// at `now`.
    ///
    /// On delivery, advances the link's FIFO horizon so later messages on the
    /// same link cannot overtake this one. On finite-bandwidth links the
    /// message first claims the serial transmitter — waiting behind earlier
    /// traffic, or tail-dropping as [`DropReason::QueueFull`] when the queue
    /// is at capacity — and only then accrues propagation delay; `size` is
    /// ignored on infinite-bandwidth links.
    pub fn offer(
        &mut self,
        src: ActorId,
        dst: ActorId,
        now: SimTime,
        rng: &mut SimRng,
        size: u64,
        extra_delay: Duration,
    ) -> SendOutcome {
        if self.is_blocked(src, dst) {
            return SendOutcome::Lost(DropReason::Partitioned);
        }
        let link = self.link(src, dst);
        if link.loss > 0.0 && rng.chance(link.loss) {
            return SendOutcome::Lost(DropReason::Loss);
        }
        let jitter = if link.jitter.as_nanos() == 0 {
            Duration::ZERO
        } else {
            Duration::nanos(rng.below(link.jitter.as_nanos() + 1))
        };
        if link.bandwidth == 0 {
            // Legacy infinite-capacity path. The draws above happen in the
            // exact pre-queueing order, so unqueued links run as they always did.
            let mut at = now + link.latency + jitter + extra_delay;
            if link.fifo {
                let horizon = self.fifo_horizon.entry((src, dst)).or_insert(SimTime::ZERO);
                if at <= *horizon {
                    at = SimTime(horizon.0 + 1);
                }
                *horizon = at;
            }
            return SendOutcome::DeliverAt(at);
        }
        let q = self.queues.entry((src, dst)).or_default();
        while q.departures.front().is_some_and(|&d| d <= now) {
            q.departures.pop_front();
        }
        if link.queue > 0 && q.departures.len() >= link.queue {
            return SendOutcome::Lost(DropReason::QueueFull);
        }
        let start = if q.busy_until > now {
            q.busy_until
        } else {
            now
        };
        // Ceiling division in u128: a 1-byte message on a 1 GB/s link still
        // occupies the transmitter for a full nanosecond.
        let service =
            Duration::nanos((size as u128 * 1_000_000_000).div_ceil(link.bandwidth as u128) as u64);
        let depart = start + service;
        q.busy_until = depart;
        q.departures.push_back(depart);
        let depth = q.departures.len() as u32;
        let waited = Duration(start.0 - now.0);
        let mut at = depart + link.latency + jitter + extra_delay;
        if link.fifo {
            let horizon = self.fifo_horizon.entry((src, dst)).or_insert(SimTime::ZERO);
            if at <= *horizon {
                at = SimTime(horizon.0 + 1);
            }
            *horizon = at;
        }
        SendOutcome::Queued { at, depth, waited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new()
    }

    fn a() -> ActorId {
        ActorId(0)
    }
    fn b() -> ActorId {
        ActorId(1)
    }

    #[test]
    fn default_link_delivers_with_latency() {
        let mut n = net();
        let mut rng = SimRng::from_seed(1);
        match n.offer(a(), b(), SimTime(0), &mut rng, 0, Duration::ZERO) {
            SendOutcome::DeliverAt(t) => {
                assert!(t >= SimTime(Duration::micros(200).as_nanos()));
                assert!(t <= SimTime(Duration::micros(300).as_nanos()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fifo_links_never_reorder() {
        let mut n = net();
        let mut rng = SimRng::from_seed(2);
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            match n.offer(a(), b(), SimTime(i), &mut rng, 0, Duration::ZERO) {
                SendOutcome::DeliverAt(t) => {
                    assert!(t > last, "message {i} overtook its predecessor");
                    last = t;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn non_fifo_links_can_reorder() {
        let mut n = net();
        n.set_link(
            a(),
            b(),
            LinkConfig {
                latency: Duration::micros(100),
                jitter: Duration::micros(500),
                loss: 0.0,
                fifo: false,
                ..LinkConfig::default()
            },
        );
        let mut rng = SimRng::from_seed(3);
        let mut times = Vec::new();
        for i in 0..100 {
            if let SendOutcome::DeliverAt(t) =
                n.offer(a(), b(), SimTime(i), &mut rng, 0, Duration::ZERO)
            {
                times.push(t);
            }
        }
        let mut sorted = times.clone();
        sorted.sort();
        assert_ne!(times, sorted, "expected at least one reordering");
    }

    #[test]
    fn partition_blocks_both_directions_and_heals_exactly() {
        let mut n = net();
        let c = ActorId(2);
        // Pre-existing manual block must survive healing the partition.
        n.block(a(), c);
        let p = n.partition(&[a()], &[b(), c]);
        assert!(n.is_blocked(a(), b()));
        assert!(n.is_blocked(b(), a()));
        assert!(n.is_blocked(c, a()));
        // (a,c) was already blocked, so the partition does not own it.
        assert!(!p.pairs().contains(&(a(), c)));
        n.heal(p);
        assert!(!n.is_blocked(a(), b()));
        assert!(!n.is_blocked(b(), a()));
        assert!(n.is_blocked(a(), c), "manual block must survive heal");
    }

    #[test]
    fn blocked_link_drops_as_partitioned() {
        let mut n = net();
        n.block(a(), b());
        let mut rng = SimRng::from_seed(4);
        assert_eq!(
            n.offer(a(), b(), SimTime(0), &mut rng, 0, Duration::ZERO),
            SendOutcome::Lost(DropReason::Partitioned)
        );
        // Reverse direction unaffected.
        assert!(matches!(
            n.offer(b(), a(), SimTime(0), &mut rng, 0, Duration::ZERO),
            SendOutcome::DeliverAt(_)
        ));
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut n = net();
        n.set_link(
            a(),
            b(),
            LinkConfig {
                loss: 0.3,
                ..LinkConfig::default()
            },
        );
        let mut rng = SimRng::from_seed(5);
        let lost = (0..2000)
            .filter(|&i| {
                matches!(
                    n.offer(a(), b(), SimTime(i), &mut rng, 0, Duration::ZERO),
                    SendOutcome::Lost(DropReason::Loss)
                )
            })
            .count();
        assert!((450..750).contains(&lost), "lost {lost} of 2000 at p=0.3");
    }

    #[test]
    fn extra_delay_shifts_delivery() {
        let mut n = net();
        n.set_link(
            a(),
            b(),
            LinkConfig {
                latency: Duration::micros(100),
                jitter: Duration::ZERO,
                loss: 0.0,
                fifo: true,
                ..LinkConfig::default()
            },
        );
        let mut rng = SimRng::from_seed(6);
        let base = match n.offer(a(), b(), SimTime(0), &mut rng, 0, Duration::ZERO) {
            SendOutcome::DeliverAt(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        let mut n2 = net();
        n2.set_link(a(), b(), n.link(a(), b()));
        let mut rng2 = SimRng::from_seed(6);
        let delayed = match n2.offer(a(), b(), SimTime(0), &mut rng2, 0, Duration::millis(5)) {
            SendOutcome::DeliverAt(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(delayed, base + Duration::millis(5));
    }

    #[test]
    fn heal_all_clears_every_block() {
        let mut n = net();
        n.block(a(), b());
        n.partition(&[a()], &[b()]);
        n.heal_all();
        assert!(!n.is_blocked(a(), b()));
        assert!(!n.is_blocked(b(), a()));
    }

    /// 1 KB/ms transmitter, no jitter, 100 µs propagation.
    fn queued_link(queue: usize) -> LinkConfig {
        LinkConfig {
            latency: Duration::micros(100),
            jitter: Duration::ZERO,
            loss: 0.0,
            fifo: true,
            bandwidth: 1_000_000,
            queue,
        }
    }

    #[test]
    fn idle_queued_link_adds_only_transmission_to_propagation() {
        let mut n = net();
        n.set_link(a(), b(), queued_link(0));
        let mut rng = SimRng::from_seed(7);
        // 1000 bytes at 1_000_000 B/s = exactly 1 ms of transmission.
        match n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO) {
            SendOutcome::Queued { at, depth, waited } => {
                assert_eq!(at, SimTime(Duration::millis(1).0 + Duration::micros(100).0));
                assert_eq!(depth, 1);
                assert_eq!(waited, Duration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_size_message_on_idle_queued_link_sees_pure_propagation() {
        let mut n = net();
        n.set_link(a(), b(), queued_link(0));
        let mut rng = SimRng::from_seed(8);
        match n.offer(a(), b(), SimTime(0), &mut rng, 0, Duration::ZERO) {
            SendOutcome::Queued { at, waited, .. } => {
                assert_eq!(at, SimTime(Duration::micros(100).0));
                assert_eq!(waited, Duration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_offers_serialize_on_the_transmitter() {
        let mut n = net();
        n.set_link(a(), b(), queued_link(0));
        let mut rng = SimRng::from_seed(9);
        let first = n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO);
        let second = n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO);
        let (
            SendOutcome::Queued { at: t1, .. },
            SendOutcome::Queued {
                at: t2,
                waited,
                depth,
            },
        ) = (first, second)
        else {
            panic!("unexpected {first:?} / {second:?}");
        };
        assert_eq!(t2, t1 + Duration::millis(1), "second waits out the first");
        assert_eq!(waited, Duration::millis(1));
        assert_eq!(depth, 2);
    }

    #[test]
    fn full_queue_tail_drops() {
        let mut n = net();
        n.set_link(a(), b(), queued_link(2));
        let mut rng = SimRng::from_seed(10);
        assert!(matches!(
            n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO),
            SendOutcome::Queued { .. }
        ));
        assert!(matches!(
            n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO),
            SendOutcome::Queued { .. }
        ));
        assert_eq!(
            n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO),
            SendOutcome::Lost(DropReason::QueueFull)
        );
        assert_eq!(n.queue_occupancy(a(), b(), SimTime(0)), 2);
        // Once the head departs, the queue admits traffic again.
        let later = SimTime(Duration::millis(1).0);
        assert!(matches!(
            n.offer(a(), b(), later, &mut rng, 1000, Duration::ZERO),
            SendOutcome::Queued { depth: 2, .. }
        ));
    }

    #[test]
    fn queue_drains_fully_when_idle() {
        let mut n = net();
        n.set_link(a(), b(), queued_link(4));
        let mut rng = SimRng::from_seed(11);
        for _ in 0..4 {
            n.offer(a(), b(), SimTime(0), &mut rng, 1000, Duration::ZERO);
        }
        assert_eq!(n.queue_occupancy(a(), b(), SimTime(0)), 4);
        let drained = SimTime(Duration::millis(10).0);
        assert_eq!(n.queue_occupancy(a(), b(), drained), 0);
        assert!(matches!(
            n.offer(a(), b(), drained, &mut rng, 1000, Duration::ZERO),
            SendOutcome::Queued {
                depth: 1,
                waited: Duration::ZERO,
                ..
            }
        ));
    }

    #[test]
    fn zero_bandwidth_links_keep_the_legacy_path_and_rng_sequence() {
        // Same seed, same offers: a bandwidth-0 link must produce exactly
        // the delivery times the pre-queueing network produced (pinned
        // values so a behavioural change in the legacy path fails loudly).
        let mut n = net();
        let mut rng = SimRng::from_seed(12);
        let mut ats = Vec::new();
        for i in 0..8u64 {
            match n.offer(
                a(),
                b(),
                SimTime(i * 1000),
                &mut rng,
                1 << 20,
                Duration::ZERO,
            ) {
                SendOutcome::DeliverAt(t) => ats.push(t),
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut n2 = net();
        let mut rng2 = SimRng::from_seed(12);
        let mut ats2 = Vec::new();
        for i in 0..8u64 {
            match n2.offer(a(), b(), SimTime(i * 1000), &mut rng2, 0, Duration::ZERO) {
                SendOutcome::DeliverAt(t) => ats2.push(t),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ats, ats2, "message size must not perturb legacy links");
    }
}

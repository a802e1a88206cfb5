//! The watch-stream protocol, the one implementation both layers use.
//!
//! A component builds its partial history `H′` (§3) from watch streams,
//! from a store node to its clients and from an apiserver to its
//! components. The server numbers each registration's messages densely,
//! routes every applied batch to the watchers whose prefix it matches and
//! sends every stream a periodic progress beacon ([`WatchRegistry`]); the
//! client checks the numbering, reconnects from the last contiguous
//! revision on a gap and declares a silent stream dead ([`Streams`]).
//! Streams are served from each server's *applied* (or cached) state, so
//! one attached to a lagging follower or a stale apiserver sees history
//! late; this is the path the `ph-core` perturbation strategies delay and
//! drop. Only the wire differs per layer: the message types (their type
//! names are trace kinds) and the event type.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::rc::Rc;

use ph_sim::{ActorId, Ctx, Duration, SimTime};

use crate::kv::{KvEvent, Revision};

/// An event a watch stream carries: routed to a watcher iff its key has
/// the watcher's prefix.
pub trait StreamEvent {
    /// `true` if this event's key starts with `prefix`.
    fn has_prefix(&self, prefix: &str) -> bool;
}

impl StreamEvent for KvEvent {
    fn has_prefix(&self, prefix: &str) -> bool {
        self.key().has_prefix(prefix)
    }
}

/// Where one numbered stream message goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The watching client actor.
    pub client: ActorId,
    /// The client's watch id.
    pub watch: u64,
    /// The message's stream sequence number.
    pub seq: u64,
}

/// One registered watcher: its prefix filter and the next sequence number
/// of its stream (dense per registration; clients detect lost stream
/// messages by gaps).
#[derive(Debug, Clone)]
struct Watcher {
    prefix: String,
    next_seq: u64,
}

impl Watcher {
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }
}

/// All watchers registered on one server, keyed by `(client, watch id)`.
/// Volatile: cleared on crash (clients detect the dead stream via progress
/// timeouts and re-register).
#[derive(Debug, Default, Clone)]
pub struct WatchRegistry {
    watchers: BTreeMap<(ActorId, u64), Watcher>,
}

impl WatchRegistry {
    /// Creates an empty registry.
    pub fn new() -> WatchRegistry {
        WatchRegistry::default()
    }

    /// Registers (or replaces) a watcher, restarting its stream at
    /// sequence 0. If the `backlog` holds events under its prefix, returns
    /// them with the sequence number they take (0).
    pub fn open<'a, E: StreamEvent + 'a>(
        &mut self,
        client: ActorId,
        watch: u64,
        prefix: String,
        backlog: impl IntoIterator<Item = &'a Rc<E>>,
    ) -> Option<(u64, Vec<Rc<E>>)> {
        let mut w = Watcher {
            prefix,
            next_seq: 0,
        };
        let matching = matching(backlog, &w.prefix);
        let first = (!matching.is_empty()).then(|| (w.take_seq(), matching));
        self.watchers.insert((client, watch), w);
        first
    }

    /// Removes a watcher. Returns `true` if it existed.
    pub fn cancel(&mut self, client: ActorId, watch: u64) -> bool {
        self.watchers.remove(&(client, watch)).is_some()
    }

    /// Drops every watcher (server crash).
    pub fn clear(&mut self) {
        self.watchers.clear();
    }

    /// Routes a batch of freshly applied events: hands `deliver`, per
    /// watcher in `(client, watch)` order, the subsequence matching its
    /// prefix and the next sequence number of its stream. A watcher with
    /// no matching event is skipped and consumes no sequence number.
    pub fn route<E: StreamEvent>(
        &mut self,
        events: &[Rc<E>],
        mut deliver: impl FnMut(Slot, Vec<Rc<E>>),
    ) {
        if events.is_empty() {
            return;
        }
        for (&(client, watch), w) in self.watchers.iter_mut() {
            let matching = matching(events, &w.prefix);
            if !matching.is_empty() {
                let seq = w.take_seq();
                deliver(Slot { client, watch, seq }, matching);
            }
        }
    }

    /// A progress round: hands `beat` every watcher, in `(client, watch)`
    /// order, with the next sequence number of its stream.
    pub fn progress(&mut self, mut beat: impl FnMut(Slot)) {
        for (&(client, watch), w) in self.watchers.iter_mut() {
            let seq = w.take_seq();
            beat(Slot { client, watch, seq });
        }
    }
}

/// The events of `events` under `prefix`, shared.
fn matching<'a, E: StreamEvent + 'a>(
    events: impl IntoIterator<Item = &'a Rc<E>>,
    prefix: &str,
) -> Vec<Rc<E>> {
    events
        .into_iter()
        .filter(|e| e.has_prefix(prefix))
        .cloned()
        .collect()
}

/// One layer's stream-control messages: implemented by the message that
/// opens a stream, naming the one that cancels it.
pub trait StreamWire: Any + Debug {
    /// The cancel message.
    type Cancel: Any + Debug;
    /// The counter bumped on every reconnect, if the layer keeps one.
    const RECONNECTS: Option<&'static str>;
    /// Opens stream `watch` on `prefix` for events strictly after `after`.
    fn create(watch: u64, prefix: String, after: Revision) -> Self;
    /// Cancels stream `watch`.
    fn cancel(watch: u64) -> Self::Cancel;
}

/// Client-side state of one watch stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Prefix being watched.
    pub prefix: String,
    /// The last contiguously received revision: a (re)connect asks for
    /// the events after it.
    pub resume: Revision,
    /// Server currently serving the stream.
    pub node: ActorId,
    last_seen: SimTime,
    /// Next expected sequence number; a gap ⇒ the network lost a stream
    /// message ⇒ reconnect from `resume` instead of silently skipping
    /// history.
    expect_seq: u64,
}

/// Outcome of a stream sequence check.
enum StreamCheck {
    /// In order: process.
    InOrder,
    /// A gap: the stream lost a message; reconnect.
    Broken,
    /// From a previous server or a pre-reconnect sequence: drop silently.
    Ignore,
}

/// A client's watch streams by watch id, embedded by both the store client
/// and the apiserver client. The owner picks the server each (re)connect
/// goes to; the tracker sends the `W` messages.
#[derive(Debug)]
pub struct Streams<W> {
    /// A stream silent for longer than this is dead.
    timeout: Duration,
    next_watch: u64,
    streams: BTreeMap<u64, Stream>,
    wire: PhantomData<fn() -> W>,
}

impl<W: StreamWire> Streams<W> {
    /// No streams; each is declared dead after `timeout` of silence.
    pub fn new(timeout: Duration) -> Streams<W> {
        Streams {
            timeout,
            next_watch: 0,
            streams: BTreeMap::new(),
            wire: PhantomData,
        }
    }

    /// State of one stream, if it is open.
    pub fn get(&self, watch: u64) -> Option<&Stream> {
        self.streams.get(&watch)
    }

    /// Opens a stream on `node` for `prefix` after `after`; returns its
    /// watch id.
    pub fn open(&mut self, prefix: String, after: Revision, node: ActorId, ctx: &mut Ctx) -> u64 {
        let watch = self.next_watch;
        self.next_watch += 1;
        ctx.send(node, W::create(watch, prefix.clone(), after));
        let st = Stream {
            prefix,
            resume: after,
            node,
            last_seen: ctx.now(),
            expect_seq: 0,
        };
        self.streams.insert(watch, st);
        watch
    }

    /// Cancels a stream.
    pub fn cancel(&mut self, watch: u64, ctx: &mut Ctx) {
        if let Some(st) = self.streams.remove(&watch) {
            ctx.send(st.node, W::cancel(watch));
        }
    }

    /// The server ended the stream: forgets it. Returns `true` if it was
    /// open.
    pub fn ended(&mut self, watch: u64) -> bool {
        self.streams.remove(&watch).is_some()
    }

    /// A stream message (events or progress) numbered `seq` from `from`.
    /// In order: advances the stream to `revision` and returns `true` (the
    /// owner delivers the events). A gap: reconnects on `pick()`. Anything
    /// else is ignored.
    pub fn receive(
        &mut self,
        from: ActorId,
        watch: u64,
        seq: u64,
        revision: Revision,
        ctx: &mut Ctx,
        pick: impl FnOnce() -> ActorId,
    ) -> bool {
        match self.stream_check(watch, from, seq) {
            StreamCheck::InOrder => {
                let st = self.streams.get_mut(&watch).expect("checked");
                st.resume = st.resume.max(revision);
                st.last_seen = ctx.now();
                true
            }
            StreamCheck::Broken => {
                self.reconnect(watch, ctx, pick);
                false
            }
            StreamCheck::Ignore => false,
        }
    }

    /// Reconnects every stream silent for longer than the timeout, in
    /// watch-id order, each on the next `pick()`: possibly a different,
    /// and possibly *less caught-up*, server.
    pub fn reap(&mut self, ctx: &mut Ctx, mut pick: impl FnMut() -> ActorId) {
        let now = ctx.now();
        let dead: Vec<u64> = self
            .streams
            .iter()
            .filter(|(_, st)| now.since(st.last_seen) > self.timeout)
            .map(|(&w, _)| w)
            .collect();
        for watch in dead {
            self.reconnect(watch, ctx, &mut pick);
        }
    }

    /// Validates a stream message's sequence number.
    fn stream_check(&mut self, watch: u64, from: ActorId, seq: u64) -> StreamCheck {
        let Some(st) = self.streams.get_mut(&watch) else {
            return StreamCheck::Ignore;
        };
        if st.node != from {
            return StreamCheck::Ignore; // stale registration elsewhere
        }
        use std::cmp::Ordering;
        match seq.cmp(&st.expect_seq) {
            Ordering::Equal => {
                st.expect_seq += 1;
                StreamCheck::InOrder
            }
            Ordering::Less => StreamCheck::Ignore, // pre-reconnect leftover
            Ordering::Greater => StreamCheck::Broken, // a message was lost
        }
    }

    /// Tears a stream down and re-creates it on `pick()` from the last
    /// contiguously received revision.
    fn reconnect(&mut self, watch: u64, ctx: &mut Ctx, pick: impl FnOnce() -> ActorId) {
        let st = self.streams.get_mut(&watch).expect("open stream");
        if let Some(counter) = W::RECONNECTS {
            ctx.counter_inc(counter);
        }
        ctx.send(st.node, W::cancel(watch));
        st.node = pick();
        ctx.send(st.node, W::create(watch, st.prefix.clone(), st.resume));
        st.last_seen = ctx.now();
        st.expect_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Key;
    use crate::msgs::WatchCreate;
    use ph_sim::{Actor, AnyMsg, World, WorldConfig};

    fn ev(key: &str) -> Rc<KvEvent> {
        let (key, revision, prev) = (Key::new(key), Revision(1), None);
        Rc::new(KvEvent::Delete {
            key,
            revision,
            prev,
        })
    }

    /// The `(slot, batch length)` of every message a batch of `keys` routes.
    fn routed(reg: &mut WatchRegistry, keys: &[&str]) -> Vec<(Slot, usize)> {
        let mut out = Vec::new();
        let events: Vec<_> = keys.iter().map(|k| ev(k)).collect();
        reg.route(&events, |slot, evs| out.push((slot, evs.len())));
        out
    }

    fn register(reg: &mut WatchRegistry, client: u32, watch: u64, prefix: &str) {
        let none: &[Rc<KvEvent>] = &[];
        assert!(reg
            .open(ActorId(client), watch, prefix.into(), none)
            .is_none());
    }

    fn slot(client: u32, watch: u64, seq: u64) -> Slot {
        let client = ActorId(client);
        Slot { client, watch, seq }
    }

    #[test]
    fn routes_by_prefix() {
        let mut reg = WatchRegistry::new();
        register(&mut reg, 10, 1, "pods/");
        register(&mut reg, 11, 1, "nodes/");
        register(&mut reg, 12, 1, "");
        let want = [
            (slot(10, 1, 0), 1),
            (slot(11, 1, 0), 1),
            (slot(12, 1, 0), 2),
        ];
        assert_eq!(routed(&mut reg, &["pods/a", "nodes/x"]), want);
    }

    #[test]
    fn uninterested_watchers_get_nothing() {
        let mut reg = WatchRegistry::new();
        register(&mut reg, 10, 1, "volumes/");
        assert!(routed(&mut reg, &["pods/a"]).is_empty());
    }

    #[test]
    fn cancel_and_clear() {
        let mut reg = WatchRegistry::new();
        register(&mut reg, 1, 1, "");
        register(&mut reg, 1, 2, "");
        assert!(reg.cancel(ActorId(1), 1));
        assert!(!reg.cancel(ActorId(1), 1));
        assert_eq!(routed(&mut reg, &["k"]), [(slot(1, 2, 0), 1)]);
        reg.clear();
        assert!(routed(&mut reg, &["k"]).is_empty());
    }

    #[test]
    fn reregistration_replaces_prefix() {
        let mut reg = WatchRegistry::new();
        register(&mut reg, 1, 1, "pods/");
        register(&mut reg, 1, 1, "nodes/");
        assert_eq!(
            routed(&mut reg, &["nodes/x", "pods/a"]),
            [(slot(1, 1, 0), 1)]
        );
    }

    #[test]
    fn backlog_progress_and_routed_batches_each_take_one_seq() {
        let mut reg = WatchRegistry::new();
        // A backlog with events under the prefix opens the stream at seq 0.
        let opened = reg.open(ActorId(1), 7, "pods/".into(), &[ev("pods/a"), ev("n")]);
        assert_eq!(opened.map(|(seq, evs)| (seq, evs.len())), Some((0, 1)));
        register(&mut reg, 2, 7, "vols/");
        let mut beats = Vec::new();
        reg.progress(|s| beats.push(s));
        assert_eq!(beats, [slot(1, 7, 1), slot(2, 7, 0)]);
        // Routing skips the watcher with no matching event.
        assert_eq!(routed(&mut reg, &["pods/b"]), [(slot(1, 7, 2), 1)]);
        reg.progress(|s| beats.push(s));
        assert_eq!(beats[2..], [slot(1, 7, 3), slot(2, 7, 1)]);
    }

    /// Servers `A` and `B` log what they receive; `OWNER` holds the
    /// stream. All three are `Node`s.
    #[derive(Debug)]
    struct Node(Vec<String>, Streams<WatchCreate>);

    impl Actor for Node {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _from: ActorId, msg: AnyMsg, _ctx: &mut Ctx) {
            self.0.push(format!("{msg:?}"));
        }
    }

    const TIMEOUT: Duration = Duration::millis(1000);
    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);
    const OWNER: ActorId = ActorId(2);

    /// `OWNER` holds stream 0 on `pods/` after r4, opened on `A`; every
    /// reconnect goes to `B`.
    fn setup() -> World {
        let mut world = World::new(WorldConfig::default(), 1);
        for name in ["a", "b", "owner"] {
            world.spawn(name, Node(Vec::new(), Streams::new(TIMEOUT)));
        }
        let open = |o: &mut Node, ctx: &mut Ctx| o.1.open("pods/".into(), Revision(4), A, ctx);
        assert_eq!(world.invoke(OWNER, open), 0);
        world
    }

    /// `OWNER` receives message `seq` of stream 0 from `from`, at `rev`.
    fn receive(world: &mut World, from: ActorId, seq: u64, rev: u64) -> bool {
        let receive =
            |o: &mut Node, ctx: &mut Ctx| o.1.receive(from, 0, seq, Revision(rev), ctx, || B);
        world.invoke(OWNER, receive)
    }

    fn stream(world: &World) -> Stream {
        world
            .actor_ref::<Node>(OWNER)
            .unwrap()
            .1
            .get(0)
            .unwrap()
            .clone()
    }

    #[test]
    fn an_in_order_message_advances_resume_and_last_seen() {
        let mut world = setup();
        world.run_for(Duration::millis(300));
        assert!(receive(&mut world, A, 0, 9));
        let st = stream(&world);
        assert_eq!(
            (st.resume, st.last_seen, st.expect_seq),
            (Revision(9), world.now(), 1)
        );
        // A lower revision (progress from a lagging server) never moves
        // `resume` back.
        assert!(receive(&mut world, A, 1, 7));
        assert_eq!(stream(&world).resume, Revision(9));
    }

    #[test]
    fn a_gap_reconnects_from_the_last_contiguous_revision() {
        let mut world = setup();
        assert!(receive(&mut world, A, 0, 6));
        // seq 1 was lost: seq 2 is not delivered, and the stream moves.
        assert!(!receive(&mut world, A, 2, 8));
        let st = stream(&world);
        assert_eq!((st.node, st.resume, st.expect_seq), (B, Revision(6), 0));
        world.run_for(Duration::millis(50));
        let got = |id| world.actor_ref::<Node>(id).unwrap().0.clone();
        let create = |r| format!("WatchCreate {{ watch: 0, prefix: \"pods/\", after: {r:?} }}");
        let cancel = "WatchCancelReq { watch: 0 }".to_string();
        assert_eq!(got(A), [create(Revision(4)), cancel]);
        assert_eq!(got(B), [create(Revision(6))]);
    }

    #[test]
    fn messages_from_the_previous_node_or_before_the_reconnect_are_ignored() {
        let mut world = setup();
        assert!(!receive(&mut world, A, 1, 9), "a gap: reconnect to B");
        // A's stragglers, in A's numbering, change nothing.
        assert!(!receive(&mut world, A, 0, 9));
        assert!(!receive(&mut world, A, 2, 9));
        // B's stream starts at 0; a repeat of 0 is a leftover, not a gap.
        assert!(receive(&mut world, B, 0, 7));
        assert!(!receive(&mut world, B, 0, 9));
        let st = stream(&world);
        assert_eq!((st.node, st.resume, st.expect_seq), (B, Revision(7), 1));
    }

    #[test]
    fn a_stream_silent_past_the_timeout_is_dead() {
        let mut world = setup();
        let reap = |world: &mut World| world.invoke(OWNER, |o: &mut Node, ctx| o.1.reap(ctx, || B));
        world.run_for(TIMEOUT);
        reap(&mut world);
        assert_eq!(stream(&world).node, A, "silent for exactly the timeout");
        world.run_for(Duration::millis(1));
        reap(&mut world);
        let st = stream(&world);
        assert_eq!(
            (st.node, st.resume, st.last_seen),
            (B, Revision(4), world.now())
        );
    }
}

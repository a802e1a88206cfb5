//! Structured run traces.
//!
//! The trace is the ground truth of a simulation: every send, delivery, drop,
//! timer, crash, restart and actor annotation is recorded in order. The
//! partial-history tooling in `ph-core` consumes traces to (a) derive
//! happens-before relations for causality-guided perturbation and (b) give
//! oracles the evidence they report violations with.
//!
//! A trace also carries the run's **digest**: a 64-bit fold over a
//! canonical binary encoding of every event (`Fold`, below), updated as
//! events are appended. The encoding is the digest's definition — it does
//! not go through `Debug`; the `{:?}` rendering belongs to the exports
//! ([`Trace::to_json`], [`crate::export`]).

use std::rc::Rc;

use ph_lint::json::Arr;

use crate::ids::{ActorId, MsgId, TimerId};
use crate::time::{Duration, SimTime};

/// Why a message failed to reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link was partitioned at send time.
    Partitioned,
    /// The network loss model dropped it.
    Loss,
    /// An installed [`crate::Interceptor`] returned [`crate::Verdict::Drop`].
    Interceptor,
    /// The destination was crashed at delivery time.
    DestCrashed,
    /// The destination was crashed between the original delivery time and the
    /// release of a held message.
    Stale,
    /// A finite-bandwidth link's drop-tail queue was at capacity — organic
    /// congestion loss, not an injected fault.
    QueueFull,
}

/// One thing that happened during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An actor was created.
    Spawned {
        /// The new actor.
        actor: ActorId,
        /// Its human-readable name, shared with the world's actor table.
        name: Rc<str>,
    },
    /// An actor sent a message.
    MessageSent {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
    },
    /// A message reached its destination and was handled.
    MessageDelivered {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
    },
    /// A message was lost.
    MessageDropped {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
        /// Why it was lost.
        reason: DropReason,
    },
    /// An interceptor put a message on hold.
    MessageHeld {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
    },
    /// An interceptor delayed a message in flight ([`crate::Verdict::Delay`]).
    /// The message is still expected to arrive, `by` later than the network
    /// alone would have delivered it — the staleness injector's signature.
    MessageDelayed {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
        /// Extra in-flight latency added by the interceptor.
        by: Duration,
    },
    /// A message was admitted to a finite-bandwidth link's queue and had to
    /// wait behind earlier traffic — congestion made it later than
    /// propagation alone would have. Only recorded when `waited > 0`; an
    /// idle queued link delivers without ceremony.
    MessageQueued {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (`"AppendEntries"`).
        kind: &'static str,
        /// Queue occupancy at admission (this message included).
        depth: u32,
        /// Time spent queued before transmission began.
        waited: Duration,
    },
    /// A held message was released back into the network.
    MessageReleased {
        /// Message id.
        id: MsgId,
    },
    /// A timer was armed.
    TimerSet {
        /// Owning actor.
        actor: ActorId,
        /// Timer id.
        timer: TimerId,
        /// Caller-chosen tag.
        tag: u64,
        /// When it will fire.
        fire_at: SimTime,
    },
    /// A timer fired.
    TimerFired {
        /// Owning actor.
        actor: ActorId,
        /// Timer id.
        timer: TimerId,
        /// Caller-chosen tag.
        tag: u64,
    },
    /// An actor crashed (volatile state will be lost on restart).
    Crashed {
        /// The crashed actor.
        actor: ActorId,
    },
    /// A crashed actor came back.
    Restarted {
        /// The restarted actor.
        actor: ActorId,
    },
    /// A component-level annotation written via [`crate::Ctx::annotate`].
    Annotation {
        /// The annotating actor.
        actor: ActorId,
        /// Annotation label (namespaced by convention, e.g. `"kubelet.run_pod"`).
        label: &'static str,
        /// Free-form payload.
        data: String,
    },
    /// A scoped operation opened via [`crate::Ctx::span_begin`]. Spans model
    /// request/reconcile scopes; matching `SpanEnd` events close them
    /// LIFO per `(actor, label)`.
    SpanBegin {
        /// The actor the span belongs to.
        actor: ActorId,
        /// Span label (e.g. `"reconcile"`).
        label: &'static str,
        /// Free-form detail attached at open time.
        detail: String,
    },
    /// Closes the innermost open span with this label on this actor; the
    /// world also records the span's duration into the actor's
    /// `"<label>.ns"` histogram.
    SpanEnd {
        /// The actor the span belongs to.
        actor: ActorId,
        /// Span label matching the corresponding `SpanBegin`.
        label: &'static str,
    },
}

/// A trace record: what happened, when, and its position in the total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the run's total order (dense, starting at 0).
    pub seq: u64,
    /// Logical time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// What a [`Trace`] keeps of the events appended to it. Fixed when the
/// trace (and the [`crate::World`] around it) is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Store every event; every reader works.
    #[default]
    All,
    /// Hash and count every event but store none. [`Trace::digest`] and
    /// [`Trace::len`] report exactly what a retaining trace would; anything
    /// that reads events back panics rather than see an empty history.
    /// Only for runs nobody inspects afterwards (no trace-fed strategy, no
    /// oracle, no export).
    DigestOnly,
}

/// The digest's running state, and the definition of what it hashes.
///
/// Each event contributes a sequence of 64-bit words: `at` in nanoseconds,
/// the variant's tag, then the variant's fields in declaration order. An
/// integer field (ids, `tag`, `depth`, durations, times) is one word; a
/// [`DropReason`] is its own tag; a string is its byte length followed by
/// its UTF-8 bytes packed little-endian into 8-byte words, the last one
/// zero-padded — the length word keeps adjacent strings from aliasing.
/// Tags are the literals in [`Fold::event`] and [`Fold::drop_reason`];
/// they never follow declaration order implicitly, so reordering variants
/// cannot move a digest. Words are mixed in one at a time by
/// [`Fold::word`].
#[derive(Debug, Clone, Copy)]
struct Fold(u64);

impl Fold {
    /// State of an empty trace.
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    /// Odd multiplier (2^64 / golden ratio).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Mixes one word in. Every step is a bijection of the state, and the
    /// xorshift carries high bits back down — a multiply alone only moves
    /// differences upward, so two top-bit flips would cancel.
    #[inline]
    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(Self::K);
        self.0 = h ^ (h >> 29);
    }

    #[inline]
    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// The fields the seven message variants open with.
    #[inline]
    fn msg(&mut self, tag: u64, id: MsgId, src: ActorId, dst: ActorId, kind: &str) {
        self.words(&[tag, id.0, src.0 as u64, dst.0 as u64]);
        self.str(kind);
    }

    fn drop_reason(reason: DropReason) -> u64 {
        match reason {
            DropReason::Partitioned => 1,
            DropReason::Loss => 2,
            DropReason::Interceptor => 3,
            DropReason::DestCrashed => 4,
            DropReason::Stale => 5,
            DropReason::QueueFull => 6,
        }
    }

    /// Folds one event in. The match names every field of every variant
    /// and has no wildcard arm: a new variant or field does not compile
    /// until it is encoded here.
    fn event(&mut self, at: SimTime, kind: &TraceEventKind) {
        use TraceEventKind::*;
        self.word(at.0);
        match kind {
            Spawned { actor, name } => {
                self.words(&[1, actor.0 as u64]);
                self.str(name);
            }
            MessageSent { id, src, dst, kind } => self.msg(2, *id, *src, *dst, kind),
            MessageDelivered { id, src, dst, kind } => self.msg(3, *id, *src, *dst, kind),
            MessageDropped {
                id,
                src,
                dst,
                kind,
                reason,
            } => {
                self.msg(4, *id, *src, *dst, kind);
                self.word(Fold::drop_reason(*reason));
            }
            MessageHeld { id, src, dst, kind } => self.msg(5, *id, *src, *dst, kind),
            MessageDelayed {
                id,
                src,
                dst,
                kind,
                by,
            } => {
                self.msg(6, *id, *src, *dst, kind);
                self.word(by.0);
            }
            MessageQueued {
                id,
                src,
                dst,
                kind,
                depth,
                waited,
            } => {
                self.msg(7, *id, *src, *dst, kind);
                self.words(&[*depth as u64, waited.0]);
            }
            MessageReleased { id } => self.words(&[8, id.0]),
            TimerSet {
                actor,
                timer,
                tag,
                fire_at,
            } => self.words(&[9, actor.0 as u64, timer.0, *tag, fire_at.0]),
            TimerFired { actor, timer, tag } => self.words(&[10, actor.0 as u64, timer.0, *tag]),
            Crashed { actor } => self.words(&[11, actor.0 as u64]),
            Restarted { actor } => self.words(&[12, actor.0 as u64]),
            Annotation { actor, label, data } => {
                self.words(&[13, actor.0 as u64]);
                self.str(label);
                self.str(data);
            }
            SpanBegin {
                actor,
                label,
                detail,
            } => {
                self.words(&[14, actor.0 as u64]);
                self.str(label);
                self.str(detail);
            }
            SpanEnd { actor, label } => {
                self.words(&[15, actor.0 as u64]);
                self.str(label);
            }
        }
    }
}

/// The ordered record of a simulation run: a sink that folds every appended
/// event into the run digest and — unless built [`Retention::DigestOnly`] —
/// stores it for the readers.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Retained events; `None` for a digest-only trace.
    events: Option<Vec<TraceEvent>>,
    /// Events appended so far, retained or not.
    recorded: usize,
    /// Running digest over every appended event.
    hash: Fold,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            events: Some(Vec::new()),
            recorded: 0,
            hash: Fold(Fold::SEED),
        }
    }
}

impl Trace {
    /// Creates an empty trace that retains every event.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty [`Retention::DigestOnly`] trace.
    pub(crate) fn digest_only() -> Trace {
        Trace {
            events: None,
            ..Trace::new()
        }
    }

    /// What this trace keeps of its events.
    pub fn retention(&self) -> Retention {
        match self.events {
            Some(_) => Retention::All,
            None => Retention::DigestOnly,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: TraceEventKind) {
        let seq = self.recorded as u64;
        self.append(TraceEvent { seq, at, kind });
    }

    /// Folds one event into the digest, counts it, and stores it if this
    /// trace retains.
    fn append(&mut self, event: TraceEvent) {
        self.hash.event(event.at, &event.kind);
        self.recorded += 1;
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// The retained events.
    ///
    /// # Panics
    ///
    /// Panics on a [`Retention::DigestOnly`] trace: it has no events to
    /// show, and an empty slice would read as "nothing happened".
    fn retained(&self) -> &[TraceEvent] {
        self.events.as_deref().expect(
            "trace not retained: this world was built digest-only \
             (WorldConfig::retention), so only digest() and len() are available",
        )
    }

    /// A copy of this trace containing only the events matching `pred`,
    /// with original sequence numbers and timestamps preserved. For
    /// carving a focused export — say, the queue-physics slice of a
    /// congested run — out of a full record; the result is an export
    /// source, not a replayable run, and its digest and length describe
    /// the slice.
    ///
    /// # Panics
    ///
    /// Panics if the trace was not retained.
    pub fn filtered(&self, pred: impl Fn(&TraceEvent) -> bool) -> Trace {
        let mut out = Trace::new();
        for e in self.retained().iter().filter(|e| pred(e)) {
            out.append(e.clone());
        }
        out
    }

    /// Number of events recorded — retained or not.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// All events, in order.
    ///
    /// # Panics
    ///
    /// Panics if the trace was not retained — as does every other reader
    /// of events below.
    pub fn events(&self) -> &[TraceEvent] {
        self.retained()
    }

    /// Iterates over events in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.retained().iter()
    }

    /// All annotations with the given label, in order, as `(actor, data)`.
    pub fn annotations<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = (ActorId, &'a str)> + 'a {
        self.iter().filter_map(move |e| match &e.kind {
            TraceEventKind::Annotation {
                actor,
                label: l,
                data,
            } if *l == label => Some((*actor, data.as_str())),
            _ => None,
        })
    }

    /// All annotations from one actor, in order, as `(label, data)`.
    pub fn annotations_of(&self, actor: ActorId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.iter().filter_map(move |e| match &e.kind {
            TraceEventKind::Annotation {
                actor: a,
                label,
                data,
            } if *a == actor => Some((*label, data.as_str())),
            _ => None,
        })
    }

    /// Counts events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.iter().filter(|e| pred(e)).count()
    }

    /// A 64-bit order-sensitive digest of every event recorded so far; two
    /// runs with equal digests almost certainly behaved identically. Used
    /// by determinism tests and by the harness to deduplicate schedules.
    ///
    /// Folded from the canonical encoding of each event as it was appended
    /// (see the module docs), so reading it is O(1) and it is the same
    /// whether or not the events were retained.
    pub fn digest(&self) -> u64 {
        self.hash.0
    }

    /// Renders the trace as a JSON array of event objects, each event's
    /// kind in its `Debug` form.
    pub fn to_json(&self) -> String {
        let events = self.retained();
        let mut out = String::with_capacity(events.len() * 96 + 2);
        let mut array = Arr::new(&mut out);
        for e in events {
            array
                .obj()
                .val("seq", e.seq)
                .val("at_ns", e.at.0)
                .str_fmt("event", format_args!("{:?}", e.kind));
        }
        drop(array);
        out
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.retained().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REASONS: [DropReason; 6] = [
        DropReason::Partitioned,
        DropReason::Loss,
        DropReason::Interceptor,
        DropReason::DestCrashed,
        DropReason::Stale,
        DropReason::QueueFull,
    ];

    /// Field values for [`build`], handed out in the order asked for.
    struct Fields<'a> {
        ints: std::slice::Iter<'a, u64>,
        strs: std::slice::Iter<'a, &'static str>,
    }

    impl Fields<'_> {
        fn n(&mut self) -> u64 {
            *self.ints.next().expect("an int per field")
        }
        fn actor(&mut self) -> ActorId {
            ActorId(self.n() as u32)
        }
        fn name(&mut self) -> &'static str {
            self.strs.next().expect("a string per field")
        }
    }

    /// The variant the digest tags `tag`, its integer fields drawn from
    /// `ints` and its string fields from `strs`, both in declaration order
    /// (extras unused). Every field is named, so a new one must draw a
    /// value here — which is all it takes for the tests below to perturb it.
    fn build(tag: u64, ints: &[u64], strs: &[&'static str], reason: DropReason) -> TraceEventKind {
        use TraceEventKind::*;
        let f = &mut Fields {
            ints: ints.iter(),
            strs: strs.iter(),
        };
        match tag {
            1 => Spawned {
                actor: f.actor(),
                name: f.name().into(),
            },
            2 => MessageSent {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
            },
            3 => MessageDelivered {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
            },
            4 => MessageDropped {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
                reason,
            },
            5 => MessageHeld {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
            },
            6 => MessageDelayed {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
                by: Duration(f.n()),
            },
            7 => MessageQueued {
                id: MsgId(f.n()),
                src: f.actor(),
                dst: f.actor(),
                kind: f.name(),
                depth: f.n() as u32,
                waited: Duration(f.n()),
            },
            8 => MessageReleased { id: MsgId(f.n()) },
            9 => TimerSet {
                actor: f.actor(),
                timer: TimerId(f.n()),
                tag: f.n(),
                fire_at: SimTime(f.n()),
            },
            10 => TimerFired {
                actor: f.actor(),
                timer: TimerId(f.n()),
                tag: f.n(),
            },
            11 => Crashed { actor: f.actor() },
            12 => Restarted { actor: f.actor() },
            13 => Annotation {
                actor: f.actor(),
                label: f.name(),
                data: f.name().to_string(),
            },
            14 => SpanBegin {
                actor: f.actor(),
                label: f.name(),
                detail: f.name().to_string(),
            },
            15 => SpanEnd {
                actor: f.actor(),
                label: f.name(),
            },
            _ => panic!("no variant is tagged {tag}"),
        }
    }

    /// Every (variant, drop reason) once.
    fn shapes() -> Vec<(u64, DropReason)> {
        let mut shapes: Vec<_> = (1..=15).map(|tag| (tag, REASONS[0])).collect();
        shapes.extend(REASONS[1..].iter().map(|&r| (4, r)));
        shapes
    }

    /// Strings picked to break a sloppy encoder: empty, escapes and control
    /// chars, multi-byte UTF-8, and 7-/8-/9-byte strings that differ only
    /// in trailing NULs — the bytes zero-padding adds.
    const TRICKY: [&str; 11] = [
        "plain",
        "",
        "with \"quotes\" and \\backslash\\",
        "tab\tnewline\nnull\0",
        "unicode: héllo ✓ — 日本語",
        "combining: e\u{301} (grapheme-extended)",
        "single 'quotes' stay raw",
        "1234567",
        "1234567\0",
        "12345678",
        "12345678\0",
    ];

    /// Integer field values for the `i`-th tricky string: small, zero,
    /// and both widths' maxima.
    fn ints_for(i: usize) -> [u64; 6] {
        let i = i as u64;
        [i, u32::MAX as u64, 0, i * 90_000_000, u64::MAX - i, 7]
    }

    /// One event of every shape over every tricky string.
    fn every_kind() -> Vec<TraceEventKind> {
        let mut kinds = Vec::new();
        for (i, s) in TRICKY.iter().enumerate() {
            for (tag, reason) in shapes() {
                kinds.push(build(tag, &ints_for(i), &[s, s], reason));
            }
        }
        kinds
    }

    /// The digest of `events` hashed from scratch: what an appended,
    /// recycled or filtered trace holding them must report.
    fn reference_digest(events: &[TraceEvent]) -> u64 {
        let mut fresh = Trace::new();
        for e in events {
            fresh.append(e.clone());
        }
        fresh.digest()
    }

    /// Digest of a trace holding just `kind`, at time `at`.
    fn one_at(at: u64, kind: &TraceEventKind) -> u64 {
        let mut t = Trace::new();
        t.push(SimTime(at), kind.clone());
        t.digest()
    }

    fn one(kind: &TraceEventKind) -> u64 {
        one_at(42, kind)
    }

    /// The mix step, restated: folds `words` from the empty-trace state.
    fn fold_words(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| {
            let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^ (h >> 29)
        })
    }

    /// Up to eight bytes as one little-endian, zero-padded word.
    fn le(s: &str) -> u64 {
        let mut b = [0u8; 8];
        b[..s.len()].copy_from_slice(s.as_bytes());
        u64::from_le_bytes(b)
    }

    /// The wire format by example: every variant tag, every drop-reason
    /// tag, field order and string framing, written out as words. A change
    /// that moves one of these rows moves every digest.
    #[test]
    fn encoding_is_the_documented_word_layout() {
        let ints = [11, 12, 13, 14, 15];
        let strs = ["WatchEvent", "é"];
        let kind = [10, le("WatchEve"), le("nt")];
        let msg = |tail: &[u64]| [&[11, 12, 13], &kind[..], tail].concat();
        let one_str = [&[11], &kind[..]].concat();
        let two_strs = [&one_str[..], &[2, le("é")]].concat();
        // (tag, drop reason, the words after the tag)
        let mut rows: Vec<(u64, DropReason, Vec<u64>)> = [
            (1, one_str.clone()),
            (2, msg(&[])),
            (3, msg(&[])),
            (5, msg(&[])),
            (6, msg(&[14])),
            (7, msg(&[14, 15])),
            (8, vec![11]),
            (9, vec![11, 12, 13, 14]),
            (10, vec![11, 12, 13]),
            (11, vec![11]),
            (12, vec![11]),
            (13, two_strs.clone()),
            (14, two_strs),
            (15, one_str),
        ]
        .into_iter()
        .map(|(tag, fields)| (tag, REASONS[0], fields))
        .collect();
        rows.extend((1..).zip(REASONS).map(|(r, reason)| (4, reason, msg(&[r]))));
        let mut all = Trace::new();
        let mut all_words = Vec::new();
        for (tag, reason, fields) in rows {
            let kind = build(tag, &ints, &strs, reason);
            let words = [&[7, tag], &fields[..]].concat();
            assert_eq!(one_at(7, &kind), fold_words(&words), "{kind:?}");
            all.push(SimTime(7), kind);
            all_words.extend(words);
        }
        // A run's digest is the fold over its events' words, concatenated.
        assert_eq!(all.digest(), fold_words(&all_words));
        assert_eq!(Trace::new().digest(), fold_words(&[]));
        // The empty string is its length word alone; a full last word is
        // not followed by padding.
        let note = build(13, &[5], &["12345678", ""], REASONS[0]);
        assert_eq!(one(&note), fold_words(&[42, 13, 5, 8, le("12345678"), 0]));
    }

    /// `every_kind()` gives all variants the same field values, so this is
    /// also where `MessageSent`/`Delivered`/`Held` (and `Crashed`/
    /// `Restarted`, `Annotation`/`SpanBegin`) with equal fields must differ.
    #[test]
    fn events_digest_equal_exactly_when_they_are_equal() {
        let mut kinds = every_kind();
        kinds.extend(every_kind().into_iter().step_by(17));
        let digests: Vec<u64> = kinds.iter().map(one).collect();
        for i in 0..kinds.len() {
            for j in 0..i {
                let (a, b) = (&kinds[i], &kinds[j]);
                assert_eq!(a == b, digests[i] == digests[j], "{a:?} vs {b:?}");
            }
        }
    }

    /// Every integer stepped up, down and top-bit-flipped (at both
    /// widths), every string grown and shrunk by a char, every drop reason
    /// swapped: each perturbation that changes the event changes its
    /// digest. One that does not — a value the variant never draws, bit 63
    /// of a 32-bit field — is skipped, and counted out.
    #[test]
    fn perturbing_any_single_field_changes_the_digest() {
        let mut checked = 0;
        for (i, s) in TRICKY.iter().enumerate() {
            let ints = ints_for(i);
            let shrunk = &s[..s.char_indices().next_back().map_or(0, |(at, _)| at)];
            // Labels are `&'static str`; the few grown strings are leaked.
            let resized = [format!("{s}x"), format!("{s}\0"), shrunk.to_string()]
                .map(|r| &*Box::leak(r.into_boxed_str()));
            for (tag, reason) in shapes() {
                let base = build(tag, &ints, &[s, s], reason);
                let mut others = Vec::new();
                for at in 0..ints.len() {
                    let v = ints[at];
                    for alt in [
                        v.wrapping_add(1),
                        v.wrapping_sub(1),
                        v ^ 1 << 31,
                        v ^ 1 << 63,
                    ] {
                        let mut ints = ints;
                        ints[at] = alt;
                        others.push(build(tag, &ints, &[s, s], reason));
                    }
                }
                for alt in &resized {
                    others.push(build(tag, &ints, &[alt, s], reason));
                    others.push(build(tag, &ints, &[s, alt], reason));
                }
                others.extend(REASONS.map(|r| build(tag, &ints, &[s, s], r)));
                let before = checked;
                for other in others.iter().filter(|o| **o != base) {
                    assert_ne!(one(&base), one(other), "{base:?} vs {other:?}");
                    checked += 1;
                }
                // At the least: one integer (±1, one flip) and, where there
                // is a string, its two growths.
                assert!(checked - before >= 3, "{base:?} barely perturbed");
                // The timestamp is a field like any other.
                for at in [41, 43, 42 ^ (1 << 63)] {
                    assert_ne!(one(&base), one_at(at, &base), "{base:?} at {at}");
                }
            }
        }
        assert!(checked > 2_500, "only {checked} perturbations tried");
    }

    /// A multiply-only fold moves a top-bit difference nowhere but the top
    /// bit, so a second top-bit flip downstream would cancel the first.
    #[test]
    fn top_bit_flips_in_different_words_do_not_cancel() {
        const TOP: u64 = 1 << 63;
        let timer = |timer, tag, fire_at| build(9, &[1, timer, tag, fire_at], &[], REASONS[0]);
        let base = one(&timer(5, 6, 7));
        assert_ne!(base, one(&timer(5 ^ TOP, 6 ^ TOP, 7)));
        assert_ne!(base, one(&timer(5 ^ TOP, 6, 7 ^ TOP)));
        assert_ne!(base, one(&timer(5, 6 ^ TOP, 7 ^ TOP)));
        // Across events too: the last word of one and the first of the next.
        let pair = |fire_at, at| {
            let mut t = Trace::new();
            t.push(SimTime(1), timer(5, 6, fire_at));
            t.push(SimTime(at), TraceEventKind::Crashed { actor: ActorId(1) });
            t.digest()
        };
        assert_ne!(pair(7, 9), pair(7 ^ TOP, 9 ^ TOP));
    }

    #[test]
    fn string_boundaries_are_framed() {
        let note = |label: &'static str, data: &'static str| {
            one(&build(13, &[0], &[label, data], REASONS[0]))
        };
        // Bytes moving across the boundary between adjacent strings.
        assert_ne!(note("ab", "c"), note("a", "bc"));
        assert_ne!(note("abc", ""), note("", "abc"));
        assert_ne!(note("12345678", "9"), note("1234567", "89"));
        // Trailing NULs are content, not padding.
        assert_ne!(note("x", ""), note("x", "\0"));
        assert_ne!(note("", ""), note("\0", ""));
        let lengths = [&TRICKY[7..], &["123456789"]].concat();
        for (i, a) in lengths.iter().enumerate() {
            for b in &lengths[..i] {
                assert_ne!(note("x", a), note("x", b), "{a:?} vs {b:?}");
                assert_ne!(note(a, "x"), note(b, "x"), "{a:?} vs {b:?}");
            }
        }
    }

    /// Appends a seeded random event sequence drawn from `every_kind()`.
    fn random_trace(seed: u64, mut t: Trace) -> Trace {
        let kinds = every_kind();
        let mut rng = crate::rng::SimRng::from_seed(seed);
        let mut at = 0u64;
        for _ in 0..rng.below(400) {
            at += rng.below(1 << 40);
            t.push(
                SimTime(at),
                kinds[rng.below(kinds.len() as u64) as usize].clone(),
            );
        }
        t
    }

    #[test]
    fn appended_fold_equals_reference_fold_over_events() {
        let mut all = Trace::new();
        for (i, kind) in every_kind().into_iter().enumerate() {
            all.push(SimTime(i as u64 * 7), kind);
            assert_eq!(all.digest(), reference_digest(all.events()));
        }
        assert_eq!(Trace::new().digest(), reference_digest(&[]));
        for seed in 0..32 {
            let t = random_trace(seed, Trace::new());
            assert_eq!(t.digest(), reference_digest(t.events()), "seed {seed}");
            assert_eq!(t.len(), t.events().len());
        }
    }

    #[test]
    fn digest_only_records_hashes_and_counts_but_stores_nothing() {
        for seed in 0..32 {
            let kept = random_trace(seed, Trace::new());
            let folded = random_trace(seed, Trace::digest_only());
            assert_eq!(folded.retention(), Retention::DigestOnly);
            assert_eq!(folded.digest(), kept.digest(), "seed {seed}");
            assert_eq!(folded.len(), kept.len(), "seed {seed}");
            assert_eq!(folded.is_empty(), kept.is_empty());
        }
    }

    #[test]
    fn filtered_traces_hash_as_their_own_contents() {
        for seed in 0..16 {
            let trace = random_trace(seed, Trace::new());
            let timers = trace.filtered(|e| matches!(e.kind, TraceEventKind::TimerSet { .. }));
            assert_eq!(timers.digest(), reference_digest(timers.events()));
            assert_eq!(timers.len(), timers.events().len());
            // Original positions survive the carve.
            assert!(timers.iter().all(|e| trace.events()[e.seq as usize] == *e));
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(SimTime(1), build(1, &[0], &["a"], REASONS[0]));
        t.push(SimTime(2), build(13, &[0], &["x", "one"], REASONS[0]));
        t.push(SimTime(3), build(13, &[1], &["x", "two"], REASONS[0]));
        t.push(SimTime(3), build(13, &[1], &["y", "three"], REASONS[0]));
        t
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let t = sample();
        for (i, e) in t.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn annotation_queries_filter_correctly() {
        let t = sample();
        let xs: Vec<_> = t.annotations("x").collect();
        assert_eq!(xs, vec![(ActorId(0), "one"), (ActorId(1), "two")]);
        let of1: Vec<_> = t.annotations_of(ActorId(1)).collect();
        assert_eq!(of1, vec![("x", "two"), ("y", "three")]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = sample();
        // Same events, the two annotations at t=3 in the other order.
        let mut swapped = a.events().to_vec();
        swapped.swap(2, 3);
        assert_ne!(a.digest(), reference_digest(&swapped));
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn to_json_is_wellformed_array() {
        let t = sample();
        let j = t.to_json();
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert_eq!(j.matches("\"seq\":").count(), 4);
    }

    #[test]
    fn count_applies_predicate() {
        let t = sample();
        let n = t.count(|e| matches!(&e.kind, TraceEventKind::Annotation { .. }));
        assert_eq!(n, 3);
    }
}

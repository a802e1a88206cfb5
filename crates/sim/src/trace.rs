//! Structured run traces.
//!
//! The trace is the ground truth of a simulation: every send, delivery, drop,
//! timer, crash, restart and actor annotation is recorded in order. The
//! partial-history tooling in `ph-core` consumes traces to (a) derive
//! happens-before relations for causality-guided perturbation and (b) give
//! oracles the evidence they report violations with.

use crate::ids::{ActorId, MsgId, TimerId};
use crate::intern::Name;
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
        /// Its human-readable name (interned; prints like a `String`).
        name: Name,
    },
    /// An actor sent a message.
    MessageSent {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
    },
    /// A message reached its destination and was handled.
    MessageDelivered {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
    },
    /// A message was lost.
    MessageDropped {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
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
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
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
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
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
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
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
        label: Name,
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
        label: Name,
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
        label: Name,
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The ordered record of a simulation run: a sink that folds every appended
/// event into the run digest and — unless built [`Retention::DigestOnly`] —
/// stores it for the readers.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Retained events; `None` for a digest-only trace.
    events: Option<Vec<TraceEvent>>,
    /// Events appended so far, retained or not.
    recorded: usize,
    /// Running FNV-1a state over every appended event's bytes.
    hash: u64,
    /// Reused rendering buffer for the fold.
    scratch: Vec<u8>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::with_buffer(Vec::new())
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

    /// Creates an empty retaining trace on top of a recycled event buffer,
    /// keeping its capacity. Used by the world's trial buffer pool.
    pub(crate) fn with_buffer(mut events: Vec<TraceEvent>) -> Trace {
        events.clear();
        Trace {
            events: Some(events),
            recorded: 0,
            hash: FNV_OFFSET,
            scratch: Vec::new(),
        }
    }

    /// Surrenders the backing event buffer so its capacity can be reused;
    /// `None` if this trace never retained.
    pub(crate) fn take_buffer(&mut self) -> Option<Vec<TraceEvent>> {
        self.events.as_mut().map(std::mem::take)
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
    /// trace retains. The hashed bytes are `at.0.to_le_bytes()` followed by
    /// the `format!("{:?}")` rendering of the kind — streamed through
    /// [`render_kind`] into one reused buffer, because `core::fmt` plus a
    /// fresh `String` per event used to dominate whole-trial wall time.
    fn append(&mut self, event: TraceEvent) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&event.at.0.to_le_bytes());
        render_kind(&event.kind, &mut self.scratch);
        let mut h = self.hash;
        for &b in &self.scratch {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
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
            } if l == label => Some((*actor, data.as_str())),
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
            } if *a == actor => Some((label.as_str(), data.as_str())),
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
    /// FNV-1a over the bytes each event contributed when it was appended,
    /// so reading it is O(1) and it is the same whether or not the events
    /// were retained.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Renders the trace as a JSON array of event objects (hand-rolled to
    /// keep the dependency set minimal).
    pub fn to_json(&self) -> String {
        let events = self.retained();
        let mut out = String::with_capacity(events.len() * 96 + 2);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_ns\":{},\"event\":{}}}",
                e.seq,
                e.at.0,
                json_string(&format!("{:?}", e.kind))
            ));
        }
        out.push(']');
        out
    }
}

/// Appends the decimal rendering of `v` to `buf` (no allocation).
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

/// Appends the exact `format!("{:?}", s)` bytes of a `str` to `buf`.
///
/// The fast path covers the strings the sim actually produces (plain
/// printable ASCII); anything needing escapes goes char-by-char through
/// [`char::escape_debug`], matching `str`'s `Debug` impl — which, unlike
/// `char`'s, leaves single quotes unescaped.
fn push_str_debug(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    if s.bytes()
        .all(|b| (0x20..=0x7e).contains(&b) && b != b'"' && b != b'\\')
    {
        buf.extend_from_slice(s.as_bytes());
    } else {
        let mut utf8 = [0u8; 4];
        for c in s.chars() {
            if c == '\'' {
                buf.push(b'\'');
            } else {
                for esc in c.escape_debug() {
                    buf.extend_from_slice(esc.encode_utf8(&mut utf8).as_bytes());
                }
            }
        }
    }
    buf.push(b'"');
}

/// Appends `ActorId(n)`-style tuple-struct Debug bytes.
fn push_id(buf: &mut Vec<u8>, name: &[u8], v: u64) {
    buf.extend_from_slice(name);
    buf.push(b'(');
    push_u64(buf, v);
    buf.push(b')');
}

/// Streams the byte-exact derived-`Debug` rendering of a kind into `buf`.
///
/// This MUST stay byte-identical to `format!("{:?}", kind)` — the trace
/// digest is defined over those bytes, and replay verification compares
/// digests across builds. `digest_render_matches_derived_debug` pins the
/// equivalence for every variant.
fn render_kind(kind: &TraceEventKind, buf: &mut Vec<u8>) {
    use TraceEventKind::*;
    match kind {
        Spawned { actor, name } => {
            buf.extend_from_slice(b"Spawned { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", name: ");
            push_str_debug(buf, name);
            buf.extend_from_slice(b" }");
        }
        MessageSent { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageSent { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageDelivered { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageDelivered { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageHeld { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageHeld { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageDelayed {
            id,
            src,
            dst,
            kind,
            by,
        } => {
            buf.extend_from_slice(b"MessageDelayed { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", by: ");
            push_id(buf, b"Duration", by.0);
            buf.extend_from_slice(b" }");
        }
        MessageDropped {
            id,
            src,
            dst,
            kind,
            reason,
        } => {
            buf.extend_from_slice(b"MessageDropped { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", reason: ");
            buf.extend_from_slice(match reason {
                DropReason::Partitioned => b"Partitioned".as_slice(),
                DropReason::Loss => b"Loss",
                DropReason::Interceptor => b"Interceptor",
                DropReason::DestCrashed => b"DestCrashed",
                DropReason::Stale => b"Stale",
                DropReason::QueueFull => b"QueueFull",
            });
            buf.extend_from_slice(b" }");
        }
        MessageQueued {
            id,
            src,
            dst,
            kind,
            depth,
            waited,
        } => {
            buf.extend_from_slice(b"MessageQueued { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", depth: ");
            push_u64(buf, *depth as u64);
            buf.extend_from_slice(b", waited: ");
            push_id(buf, b"Duration", waited.0);
            buf.extend_from_slice(b" }");
        }
        MessageReleased { id } => {
            buf.extend_from_slice(b"MessageReleased { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b" }");
        }
        TimerSet {
            actor,
            timer,
            tag,
            fire_at,
        } => {
            buf.extend_from_slice(b"TimerSet { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", timer: ");
            push_id(buf, b"TimerId", timer.0);
            buf.extend_from_slice(b", tag: ");
            push_u64(buf, *tag);
            buf.extend_from_slice(b", fire_at: ");
            push_id(buf, b"SimTime", fire_at.0);
            buf.extend_from_slice(b" }");
        }
        TimerFired { actor, timer, tag } => {
            buf.extend_from_slice(b"TimerFired { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", timer: ");
            push_id(buf, b"TimerId", timer.0);
            buf.extend_from_slice(b", tag: ");
            push_u64(buf, *tag);
            buf.extend_from_slice(b" }");
        }
        Crashed { actor } => {
            buf.extend_from_slice(b"Crashed { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b" }");
        }
        Restarted { actor } => {
            buf.extend_from_slice(b"Restarted { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b" }");
        }
        Annotation { actor, label, data } => {
            buf.extend_from_slice(b"Annotation { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b", data: ");
            push_str_debug(buf, data);
            buf.extend_from_slice(b" }");
        }
        SpanBegin {
            actor,
            label,
            detail,
        } => {
            buf.extend_from_slice(b"SpanBegin { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b", detail: ");
            push_str_debug(buf, detail);
            buf.extend_from_slice(b" }");
        }
        SpanEnd { actor, label } => {
            buf.extend_from_slice(b"SpanEnd { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b" }");
        }
    }
}

/// Shared tail of the `MessageSent`/`Delivered`/`Held` renderings (the
/// three differ only in the variant name).
fn push_msg_header(buf: &mut Vec<u8>, id: MsgId, src: ActorId, dst: ActorId, kind: &str) {
    push_id(buf, b"MsgId", id.0);
    buf.extend_from_slice(b", src: ");
    push_id(buf, b"ActorId", src.0 as u64);
    buf.extend_from_slice(b", dst: ");
    push_id(buf, b"ActorId", dst.0 as u64);
    buf.extend_from_slice(b", kind: ");
    push_str_debug(buf, kind);
    buf.extend_from_slice(b" }");
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

    /// One event of every variant, with strings that exercise the escape
    /// fallback: quotes, backslashes, control chars, unicode, combining
    /// (grapheme-extended) marks, and the single quote `str`'s Debug does
    /// NOT escape.
    fn every_kind() -> Vec<TraceEventKind> {
        use TraceEventKind::*;
        let tricky = [
            "plain",
            "",
            "with \"quotes\" and \\backslash\\",
            "tab\tnewline\nnull\0",
            "unicode: héllo ✓ — 日本語",
            "combining: e\u{301} (grapheme-extended)",
            "single 'quotes' stay raw",
        ];
        let mut kinds = Vec::new();
        for (i, s) in tricky.iter().enumerate() {
            let i = i as u64;
            kinds.extend([
                Spawned {
                    actor: ActorId(i as u32),
                    name: (*s).into(),
                },
                MessageSent {
                    id: MsgId(i),
                    src: ActorId(0),
                    dst: ActorId(u32::MAX),
                    kind: (*s).into(),
                },
                MessageDelivered {
                    id: MsgId(u64::MAX),
                    src: ActorId(1),
                    dst: ActorId(2),
                    kind: (*s).into(),
                },
                MessageHeld {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                },
                MessageDelayed {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                    by: Duration(i * 90_000_000),
                },
                MessageQueued {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                    depth: i as u32 + 1,
                    waited: Duration(i * 70_000),
                },
                MessageReleased { id: MsgId(i) },
                TimerSet {
                    actor: ActorId(5),
                    timer: TimerId(i),
                    tag: i * 1000,
                    fire_at: SimTime(u64::MAX - i),
                },
                TimerFired {
                    actor: ActorId(6),
                    timer: TimerId(i),
                    tag: 0,
                },
                Crashed { actor: ActorId(7) },
                Restarted { actor: ActorId(8) },
                Annotation {
                    actor: ActorId(9),
                    label: (*s).into(),
                    data: (*s).to_string(),
                },
                SpanBegin {
                    actor: ActorId(10),
                    label: (*s).into(),
                    detail: (*s).to_string(),
                },
                SpanEnd {
                    actor: ActorId(11),
                    label: (*s).into(),
                },
            ]);
            for reason in [
                DropReason::Partitioned,
                DropReason::Loss,
                DropReason::Interceptor,
                DropReason::DestCrashed,
                DropReason::Stale,
                DropReason::QueueFull,
            ] {
                kinds.push(MessageDropped {
                    id: MsgId(i),
                    src: ActorId(12),
                    dst: ActorId(13),
                    kind: (*s).into(),
                    reason,
                });
            }
        }
        kinds
    }

    /// The digest is defined over `format!("{:?}")` bytes; the streaming
    /// renderer must reproduce them exactly for every variant and every
    /// escape class.
    #[test]
    fn digest_render_matches_derived_debug() {
        for kind in every_kind() {
            let mut buf = Vec::new();
            render_kind(&kind, &mut buf);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                format!("{kind:?}"),
                "streamed rendering diverged"
            );
        }
    }

    /// The digest's definition, stated over a finished event list: what
    /// `digest()` computed before the fold moved to append.
    fn reference_digest(events: &[TraceEvent]) -> u64 {
        let mut h = FNV_OFFSET;
        for e in events {
            let rendered = format!("{:?}", e.kind);
            for &b in e.at.0.to_le_bytes().iter().chain(rendered.as_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
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
    fn recycled_and_filtered_traces_hash_as_their_own_contents() {
        for seed in 0..16 {
            let mut used = random_trace(seed, Trace::new());
            let recycled = Trace::with_buffer(used.take_buffer().expect("retaining"));
            assert_eq!((recycled.len(), recycled.digest()), (0, FNV_OFFSET));
            let recycled = random_trace(seed + 100, recycled);
            assert_eq!(recycled.digest(), reference_digest(recycled.events()));
            assert!(recycled.iter().enumerate().all(|(i, e)| e.seq == i as u64));

            let timers = recycled.filtered(|e| matches!(e.kind, TraceEventKind::TimerSet { .. }));
            assert_eq!(timers.digest(), reference_digest(timers.events()));
            assert_eq!(timers.len(), timers.events().len());
            // Original positions survive the carve.
            assert!(timers
                .iter()
                .all(|e| recycled.events()[e.seq as usize] == *e));
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(
            SimTime(1),
            TraceEventKind::Spawned {
                actor: ActorId(0),
                name: "a".into(),
            },
        );
        t.push(
            SimTime(2),
            TraceEventKind::Annotation {
                actor: ActorId(0),
                label: "x".into(),
                data: "one".into(),
            },
        );
        t.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "x".into(),
                data: "two".into(),
            },
        );
        t.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "y".into(),
                data: "three".into(),
            },
        );
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
        let mut b = Trace::new();
        // Same events, different order of the two annotations at t=3.
        b.push(
            SimTime(1),
            TraceEventKind::Spawned {
                actor: ActorId(0),
                name: "a".into(),
            },
        );
        b.push(
            SimTime(2),
            TraceEventKind::Annotation {
                actor: ActorId(0),
                label: "x".into(),
                data: "one".into(),
            },
        );
        b.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "y".into(),
                data: "three".into(),
            },
        );
        b.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "x".into(),
                data: "two".into(),
            },
        );
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
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

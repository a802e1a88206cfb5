//! Trace exporters.
//!
//! Two serializations of a [`Trace`], both deterministic and written
//! through the workspace's one JSON writer ([`ph_lint::json`]) straight
//! into the output buffer:
//!
//! * [`trace_to_jsonl`] — one structured JSON object per line, for grep/jq
//!   pipelines and archival;
//! * [`trace_to_chrome`] — the Chrome `trace_event` array format, loadable
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Each
//!   actor becomes a named thread; spans become `B`/`E` duration events,
//!   everything else becomes an instant event.
//!
//! Timestamps are the simulation's logical nanoseconds (Chrome wants
//! microseconds, so `ts` is rendered as `ns/1000` with three decimals); no
//! wall-clock time is involved, so exports are byte-identical across
//! same-seed runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ph_lint::json::{Arr, Obj};

use crate::ids::{ActorId, MsgId};
use crate::trace::{Trace, TraceEventKind as K};

/// Renders the trace as JSON Lines: one event object per line, with
/// structured per-kind fields (`seq`, `at_ns`, `type`, then the event's own
/// fields).
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 96);
    for e in trace.iter() {
        let mut o = Obj::new(&mut out);
        o.val("seq", e.seq).val("at_ns", e.at.0);
        match &e.kind {
            K::Spawned { actor, name } => {
                o.str("type", "spawned")
                    .val("actor", actor.0)
                    .str("name", name);
            }
            K::MessageSent { id, src, dst, kind } => {
                message(&mut o, "sent", *id, *src, *dst, kind);
            }
            K::MessageDelivered { id, src, dst, kind } => {
                message(&mut o, "delivered", *id, *src, *dst, kind);
            }
            K::MessageDropped {
                id,
                src,
                dst,
                kind,
                reason,
            } => {
                message(&mut o, "dropped", *id, *src, *dst, kind)
                    .str_fmt("reason", format_args!("{reason:?}"));
            }
            K::MessageHeld { id, src, dst, kind } => {
                message(&mut o, "held", *id, *src, *dst, kind);
            }
            K::MessageDelayed {
                id,
                src,
                dst,
                kind,
                by,
            } => {
                message(&mut o, "delayed", *id, *src, *dst, kind).val("by_ns", by.0);
            }
            K::MessageQueued {
                id,
                src,
                dst,
                kind,
                depth,
                waited,
            } => {
                message(&mut o, "queued", *id, *src, *dst, kind)
                    .val("depth", depth)
                    .val("waited_ns", waited.0);
            }
            K::MessageReleased { id } => {
                o.str("type", "released").val("id", id.0);
            }
            K::TimerSet {
                actor,
                timer,
                tag,
                fire_at,
            } => {
                o.str("type", "timer_set")
                    .val("actor", actor.0)
                    .val("timer", timer.0)
                    .val("tag", tag)
                    .val("fire_at_ns", fire_at.0);
            }
            K::TimerFired { actor, timer, tag } => {
                o.str("type", "timer_fired")
                    .val("actor", actor.0)
                    .val("timer", timer.0)
                    .val("tag", tag);
            }
            K::Crashed { actor } => {
                o.str("type", "crashed").val("actor", actor.0);
            }
            K::Restarted { actor } => {
                o.str("type", "restarted").val("actor", actor.0);
            }
            K::Annotation { actor, label, data } => {
                o.str("type", "annotation")
                    .val("actor", actor.0)
                    .str("label", label)
                    .str("data", data);
            }
            K::SpanBegin {
                actor,
                label,
                detail,
            } => {
                o.str("type", "span_begin")
                    .val("actor", actor.0)
                    .str("label", label)
                    .str("detail", detail);
            }
            K::SpanEnd { actor, label } => {
                o.str("type", "span_end")
                    .val("actor", actor.0)
                    .str("label", label);
            }
        }
        drop(o);
        out.push('\n');
    }
    out
}

/// The fields every message event shares in the JSONL export.
fn message<'o, 'a>(
    o: &'o mut Obj<'a>,
    ty: &str,
    id: MsgId,
    src: ActorId,
    dst: ActorId,
    kind: &str,
) -> &'o mut Obj<'a> {
    o.str("type", ty)
        .val("id", id.0)
        .val("src", src.0)
        .val("dst", dst.0)
        .str("kind", kind)
}

/// Formats logical nanoseconds as Chrome's microsecond `ts` with fixed
/// 3-decimal precision (keeps output byte-stable, no float formatting).
fn chrome_ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the trace in the Chrome `trace_event` JSON object format
/// (`{"traceEvents": [...]}`), suitable for Perfetto. The export is
/// self-contained: thread names come from the trace's `Spawned` events.
///
/// Every send→deliver message pair additionally emits a flow-event pair
/// (`"ph":"s"` at the send, `"ph":"f","bp":"e"` at the delivery, bound by
/// the message id) so Perfetto draws causality arrows between the two
/// timelines — the visual counterpart of the happens-before edges
/// `ph-core::causality` derives from the same trace.
pub fn trace_to_chrome(trace: &Trace) -> String {
    // Thread names come from the trace's spawns. Flow starts with no
    // matching finish render as dangling arrows, so only messages that
    // were actually delivered get a flow pair.
    let (mut names, mut delivered) = (BTreeMap::new(), BTreeSet::new());
    for e in trace.iter() {
        match &e.kind {
            K::Spawned { actor, name } => {
                names.insert(*actor, name);
            }
            K::MessageDelivered { id, .. } => {
                delivered.insert(*id);
            }
            _ => {}
        }
    }
    let mut out = String::with_capacity(trace.len() * 128 + 64);
    let mut doc = Obj::new(&mut out);
    doc.str("displayTimeUnit", "ms");
    let mut events = doc.arr("traceEvents");
    for (actor, name) in names {
        events
            .obj()
            .str("ph", "M")
            .val("pid", 1)
            .val("tid", actor.0)
            .str("name", "thread_name")
            .obj("args")
            .str("name", name);
    }
    for e in trace.iter() {
        let ts = chrome_ts(e.at.0);
        let ev = &mut events;
        match &e.kind {
            K::SpanBegin {
                actor,
                label,
                detail,
            } => {
                ev.obj()
                    .str("ph", "B")
                    .val("pid", 1)
                    .val("tid", actor.0)
                    .val("ts", &ts)
                    .str("name", label)
                    .obj("args")
                    .str("detail", detail);
            }
            K::SpanEnd { actor, label } => {
                ev.obj()
                    .str("ph", "E")
                    .val("pid", 1)
                    .val("tid", actor.0)
                    .val("ts", &ts)
                    .str("name", label);
            }
            K::MessageSent { id, src, dst, kind } => {
                instant(&mut ev.obj(), *src, &ts, format_args!("send {kind}"))
                    .val("id", id.0)
                    .val("dst", dst.0);
                if delivered.contains(id) {
                    flow(ev, "s", *src, &ts, *id);
                }
            }
            K::MessageDelivered { id, src, dst, kind } => {
                instant(&mut ev.obj(), *dst, &ts, format_args!("recv {kind}"))
                    .val("id", id.0)
                    .val("src", src.0);
                flow(ev, "f", *dst, &ts, *id);
            }
            K::MessageDropped {
                id,
                src,
                dst,
                kind,
                reason,
            } => {
                instant(&mut ev.obj(), *dst, &ts, format_args!("drop {kind}"))
                    .val("id", id.0)
                    .val("src", src.0)
                    .str_fmt("reason", format_args!("{reason:?}"));
            }
            K::MessageDelayed {
                id,
                src,
                dst,
                kind,
                by,
            } => {
                instant(&mut ev.obj(), *dst, &ts, format_args!("delay {kind}"))
                    .val("id", id.0)
                    .val("src", src.0)
                    .val("by_ns", by.0);
            }
            K::MessageQueued {
                id,
                src,
                dst,
                kind,
                depth,
                waited,
            } => {
                instant(&mut ev.obj(), *src, &ts, format_args!("queue {kind}"))
                    .val("id", id.0)
                    .val("dst", dst.0)
                    .val("depth", depth)
                    .val("waited_ns", waited.0);
            }
            K::Crashed { actor } => {
                instant(&mut ev.obj(), *actor, &ts, format_args!("crash"));
            }
            K::Restarted { actor } => {
                instant(&mut ev.obj(), *actor, &ts, format_args!("restart"));
            }
            K::Annotation { actor, label, data } => {
                instant(&mut ev.obj(), *actor, &ts, format_args!("{label}")).str("data", data);
            }
            // Spawn/timer/hold bookkeeping would drown the timeline; the
            // JSONL exporter carries the complete record.
            _ => {}
        }
    }
    drop(events);
    drop(doc);
    out
}

/// Writes an instant event's header on `tid`'s timeline into `ev` and
/// opens its `args`.
fn instant<'e>(ev: &'e mut Obj, tid: ActorId, ts: &str, name: fmt::Arguments) -> Obj<'e> {
    ev.str("ph", "i")
        .str("s", "t")
        .val("pid", 1)
        .val("tid", tid.0)
        .val("ts", ts)
        .str_fmt("name", name)
        .obj("args")
}

/// One half of a flow-event pair binding a send to its delivery. `bp:"e"`
/// on the finishing half attaches the arrowhead to the enclosing event
/// rather than the next slice, which is what instants need.
fn flow(events: &mut Arr, ph: &str, tid: ActorId, ts: &str, msg: MsgId) {
    let mut ev = events.obj();
    ev.str("ph", ph);
    if ph == "f" {
        ev.str("bp", "e");
    }
    ev.str("cat", "msg")
        .val("pid", 1)
        .val("tid", tid.0)
        .val("ts", ts)
        .str("name", "msg")
        .val("id", msg.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Ctx};
    use crate::ids::ActorId;
    use crate::msg::AnyMsg;
    use crate::time::Duration;
    use crate::world::{World, WorldConfig};

    struct Spanner;
    impl Actor for Spanner {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::millis(1), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
        fn on_timer(&mut self, _t: crate::ids::TimerId, _tag: u64, ctx: &mut Ctx) {
            ctx.span_begin("work", "unit");
            ctx.counter_inc("ticks");
            ctx.span_end("work");
        }
    }

    fn spanned_world() -> World {
        let mut w = World::new(WorldConfig::default(), 5);
        w.spawn("spanner", Spanner);
        w.run_for(Duration::millis(2));
        w
    }

    #[test]
    fn jsonl_lines_are_objects_covering_every_event() {
        let w = spanned_world();
        let jsonl = trace_to_jsonl(w.trace());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), w.trace().len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"type\":\"span_begin\""));
        assert!(jsonl.contains("\"type\":\"span_end\""));
    }

    #[test]
    fn chrome_export_pairs_spans_and_names_threads() {
        let w = spanned_world();
        let chrome = trace_to_chrome(w.trace());
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"name\":\"spanner\""));
        assert_eq!(
            chrome.matches("\"ph\":\"B\"").count(),
            chrome.matches("\"ph\":\"E\"").count(),
            "every B needs an E"
        );
    }

    #[test]
    fn chrome_ts_renders_microseconds_with_nanosecond_fraction() {
        assert_eq!(chrome_ts(0), "0.000");
        assert_eq!(chrome_ts(1_500), "1.500");
        assert_eq!(chrome_ts(2_000_007), "2000.007");
    }

    struct Pinger {
        peer: ActorId,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(self.peer, 1u32);
        }
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
    }

    struct Sink;
    impl Actor for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
    }

    #[test]
    fn chrome_flow_events_pair_every_delivery() {
        let mut w = World::new(WorldConfig::default(), 5);
        let sink = w.spawn("sink", Sink);
        w.spawn("pinger", Pinger { peer: sink });
        w.run_for(Duration::millis(5));
        let chrome = trace_to_chrome(w.trace());
        let starts = chrome.matches("\"ph\":\"s\"").count();
        let finishes = chrome.matches("\"ph\":\"f\"").count();
        assert!(starts > 0, "no flow starts emitted");
        assert_eq!(starts, finishes, "every flow start needs a finish");
        assert_eq!(finishes, chrome.matches("\"bp\":\"e\"").count());
    }

    #[test]
    fn delayed_messages_appear_in_both_exports() {
        use crate::intercept::Verdict;
        use crate::msg::Envelope;
        use crate::time::SimTime;
        let mut w = World::new(WorldConfig::default(), 6);
        let sink = w.spawn("sink", Sink);
        w.set_interceptor(move |env: &Envelope, _t: SimTime| {
            if env.dst == sink {
                Verdict::Delay(Duration::millis(3))
            } else {
                Verdict::Pass
            }
        });
        w.spawn("pinger", Pinger { peer: sink });
        w.run_for(Duration::millis(10));
        let jsonl = trace_to_jsonl(w.trace());
        assert!(jsonl.contains("\"type\":\"delayed\""), "{jsonl}");
        assert!(jsonl.contains("\"by_ns\":3000000"), "{jsonl}");
        let chrome = trace_to_chrome(w.trace());
        assert!(chrome.contains("delay u32"), "{chrome}");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = spanned_world();
        let b = spanned_world();
        assert_eq!(trace_to_jsonl(a.trace()), trace_to_jsonl(b.trace()));
        assert_eq!(trace_to_chrome(a.trace()), trace_to_chrome(b.trace()));
    }

    #[test]
    fn span_durations_land_in_histograms() {
        let w = spanned_world();
        let report = w.metrics_report();
        assert_eq!(report.counter("spanner", "ticks"), Some(1));
        let h = report
            .histogram("spanner", "work.ns")
            .expect("span histogram");
        assert_eq!(h.count, 1);
    }
}

//! The span recorder: phbench wraps each call it makes into a public
//! function of the program under test in a span (name = `crate.module.fn`,
//! start, end, parent, iteration), keeps them in memory, and writes them
//! as a Chrome trace when the benchmark ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover (children may overlap one another).
//!
//! The recorder is shared by reference with the trial closure, which
//! `Explorer::explore_parallel` requires to be `Sync`, hence the mutex.
//! Parent tracking is one stack for the whole recorder, which is exact as
//! long as one thread records at a time — phbench only enables the
//! recorder on the sequential explorer; the pooled runs go unrecorded.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::esc;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `crate.module.fn` of the call the span wraps.
    pub name: &'static str,
    /// What the call worked on (a scenario name, or empty).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark iteration the span belongs to.
    pub iteration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

/// Records spans when enabled; a disabled recorder only runs the closure.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the iteration id stamped on spans begun from now on.
    pub fn set_iteration(&self, iteration: u32) {
        self.lock().iteration = iteration;
    }

    /// Runs `f` inside a span (or bare, when the recorder is disabled).
    pub fn span<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin_at(name, tag, self.now_ns());
        let out = f();
        self.end_at(id, self.now_ns());
        out
    }

    fn begin_at(&self, name: &'static str, tag: &'static str, at_ns: u64) -> usize {
        let mut inner = self.lock();
        let id = inner.spans.len();
        let parent = inner.open.last().copied();
        let iteration = inner.iteration;
        inner.spans.push(Span {
            name,
            tag,
            start_ns: at_ns,
            end_ns: at_ns,
            parent,
            iteration,
        });
        inner.open.push(id);
        id
    }

    fn end_at(&self, id: usize, at_ns: u64) {
        let mut inner = self.lock();
        let top = inner.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let span = &mut inner.spans[id];
        span.end_ns = at_ns.max(span.start_ns);
    }

    /// Every closed span, in begin order.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.lock();
        assert!(inner.open.is_empty(), "spans still open");
        inner.spans.clone()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span). Index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of the durations, in ns, of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

const CHROME_HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const CHROME_FOOTER: &str = "]}";

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete (`"ph":"X"`) events with microsecond timestamps, one `pid`
/// per workload.
pub fn to_chrome_trace(workload: &str, pid: usize, spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from(CHROME_HEADER);
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"iteration\":{},\
             \"tag\":\"{}\",\"self_us\":{:.3}}}}}",
            esc(s.name),
            esc(workload),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.iteration,
            esc(s.tag),
            *own as f64 / 1e3,
        ));
    }
    out.push_str(CHROME_FOOTER);
    out
}

/// Joins documents written by [`to_chrome_trace`] into one.
pub fn merge_chrome_traces(docs: &[String]) -> String {
    let bodies: Vec<&str> = docs
        .iter()
        .filter_map(|d| {
            d.trim()
                .strip_prefix(CHROME_HEADER)?
                .strip_suffix(CHROME_FOOTER)
        })
        .filter(|body| !body.is_empty())
        .collect();
    format!("{CHROME_HEADER}{}{CHROME_FOOTER}", bodies.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Builds spans from `(name, start, end, depth-first nesting)` by
    /// driving the recorder with explicit timestamps.
    fn record(script: &[(&'static str, u64, bool)]) -> Vec<Span> {
        // Each entry is (name, timestamp, is_begin); ends close the
        // innermost open span.
        let rec = Recorder::new(true);
        let mut open = Vec::new();
        for &(name, at, is_begin) in script {
            if is_begin {
                open.push(rec.begin_at(name, "", at));
            } else {
                rec.end_at(open.pop().unwrap(), at);
            }
        }
        rec.spans()
    }

    #[test]
    fn nested_spans_subtract_child_time() {
        let spans = record(&[
            ("outer", 0, true),
            ("mid", 10, true),
            ("leaf", 20, true),
            ("leaf", 30, false),
            ("mid", 50, false),
            ("outer", 100, false),
        ]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        // outer: 100 - mid(40); mid: 40 - leaf(10); leaf: 10.
        assert_eq!(self_times_ns(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn sibling_spans_both_count() {
        let spans = record(&[
            ("outer", 0, true),
            ("a", 10, true),
            ("a", 20, false),
            ("b", 30, true),
            ("b", 60, false),
            ("outer", 100, false),
        ]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(self_times_ns(&spans), vec![60, 10, 30]);
        assert_eq!(total_ns(&spans, "outer"), 100);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let spans = record(&[
            ("outer", 5, true),
            ("instant", 7, true),
            ("instant", 7, false),
            ("outer", 5, false), // a clock that did not advance
        ]);
        assert_eq!(spans[0].duration_ns(), 0);
        assert_eq!(self_times_ns(&spans), vec![0, 0]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // The recorder cannot produce overlapping siblings itself (one
        // stack), but spans merged from several threads can; self time
        // must take the union.
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        };
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),  // inside both
            span("d", 90, 120, Some(0)), // sticks out: clipped to 90..100
        ];
        // Union of children inside outer: 10..70 and 90..100 = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", "", || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn live_spans_nest_and_carry_their_iteration() {
        let rec = Recorder::new(true);
        rec.set_iteration(3);
        rec.span("outer", "t", || rec.span("inner", "", || ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].tag, spans[0].iteration),
            ("outer", "t", 3)
        );
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let spans = record(&[
            ("ph-core.parallel.explore_parallel", 1_000, true),
            ("ph-scenarios.scenario.run", 2_000, true),
            ("ph-scenarios.scenario.run", 5_500, false),
            ("ph-core.parallel.explore_parallel", 9_000, false),
        ]);
        let text = to_chrome_trace("matrix \"quoted\"", 1, &spans);
        let doc = json::parse(&text).expect("chrome trace parses as JSON");
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert_eq!(e.get("cat").unwrap().as_str(), Some("matrix \"quoted\""));
            for key in ["ts", "dur", "pid", "tid"] {
                assert!(e.get(key).unwrap().as_f64().is_some(), "{key} is a number");
            }
            assert_eq!(
                e.get("args").unwrap().get("id").unwrap().as_f64(),
                Some(i as f64)
            );
        }
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(3.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&json::Json::Null)
        );
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64(),
            Some(4.5)
        );
        // No spans at all is still a valid document, and documents merge.
        let empty = to_chrome_trace("w", 2, &[]);
        assert!(json::parse(&empty).is_ok());
        let merged = json::parse(&merge_chrome_traces(&[text.clone(), empty, text])).unwrap();
        assert_eq!(
            merged.get("traceEvents").unwrap().as_array().unwrap().len(),
            4
        );
    }
}

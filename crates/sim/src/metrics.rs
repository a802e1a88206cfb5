//! Deterministic run metrics.
//!
//! Components record counters, gauges and fixed-bucket histograms through
//! their [`crate::Ctx`]; the [`crate::World`] owns one [`Metrics`] registry
//! and attributes every sample to the recording actor. Everything here is a
//! pure function of the simulation schedule: no wall-clock time, no
//! allocation-order dependence, and snapshots ([`MetricsReport`]) iterate in
//! `BTreeMap` order — so two runs with the same seed produce *byte-identical*
//! reports, and a report diff is a behavior diff.
//!
//! Every histogram buckets by [`DEFAULT_LATENCY_BOUNDS_NS`], a log-spaced
//! ladder suited to simulated latencies recorded in nanoseconds.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use ph_lint::json;

use crate::ids::ActorId;

/// Default histogram bucket upper bounds, in nanoseconds: 1µs … 10s,
/// log-spaced. Values above the last bound land in the implicit overflow
/// bucket.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// The last finite bucket bound: an overflow observation's quantile.
const LAST_BOUND: u64 = DEFAULT_LATENCY_BOUNDS_NS[DEFAULT_LATENCY_BOUNDS_NS.len() - 1];

/// A fixed-bucket histogram over [`DEFAULT_LATENCY_BOUNDS_NS`]: counts per
/// upper bound plus an overflow bucket, with total count and sum for mean
/// computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// One count per bound, plus a final overflow bucket.
    pub counts: [u64; DEFAULT_LATENCY_BOUNDS_NS.len() + 1],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Appends this histogram as the Prometheus series `name{labels}`:
    /// one cumulative `_bucket` line per bound and a last one at
    /// `le="+Inf"`, then `_sum` and `_count`.
    pub fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            let _ = match DEFAULT_LATENCY_BOUNDS_NS.get(i) {
                Some(b) => writeln!(out, "{name}_bucket{{{labels},le=\"{b}\"}} {cumulative}"),
                None => writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}"),
            };
        }
        prometheus_sample(out, &format!("{name}_sum"), labels, self.sum);
        prometheus_sample(out, &format!("{name}_count"), labels, self.count);
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = DEFAULT_LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(DEFAULT_LATENCY_BOUNDS_NS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean of all observations, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`): the
    /// inclusive upper bound of the bucket containing the `ceil(q * count)`-th
    /// observation, computed purely from integer bucket counts so the result
    /// is deterministic. Observations past the last bound report the last
    /// bound (the histogram records nothing finer). Returns 0 with no
    /// observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(q * count) without float rounding surprises at the seam:
        // rank is clamped into [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return DEFAULT_LATENCY_BOUNDS_NS
                    .get(i)
                    .copied()
                    .unwrap_or(LAST_BOUND);
            }
        }
        LAST_BOUND
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(i64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// The live metrics registry, owned by a [`crate::World`].
///
/// Series are keyed `(actor, series)`: the recording actor's id and the
/// metric's `&'static str` name, so recording a sample looks no string up
/// and allocates nothing once the series exists. [`Metrics::report`]
/// resolves ids to actor names; the report re-sorts by those strings, so
/// its order does not depend on spawn order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<(ActorId, Series), MetricValue>,
}

/// A series' name within one actor: a metric effect's name, or a span
/// label whose durations land in the `"<label>.ns"` histogram. Spelled
/// out only when a report is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Series {
    Named(&'static str),
    SpanNs(&'static str),
}

impl Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Series::Named(name) => f.write_str(name),
            Series::SpanNs(label) => write!(f, "{label}.ns"),
        }
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to a counter, creating it at zero first if needed.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn counter_add(&mut self, actor: ActorId, name: &'static str, delta: u64) {
        match self
            .values
            .entry((actor, Series::Named(name)))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("{actor}/{name} is not a counter: {other:?}"),
        }
    }

    /// Sets a gauge to `value`, creating it if needed.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn gauge_set(&mut self, actor: ActorId, name: &'static str, value: i64) {
        match self
            .values
            .entry((actor, Series::Named(name)))
            .or_insert(MetricValue::Gauge(0))
        {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("{actor}/{name} is not a gauge: {other:?}"),
        }
    }

    /// Records a histogram observation, creating the histogram over
    /// [`DEFAULT_LATENCY_BOUNDS_NS`] if needed.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn observe(&mut self, actor: ActorId, name: &'static str, value: u64) {
        self.observe_series(actor, Series::Named(name), value);
    }

    /// Records a closed span's duration into the actor's `"<label>.ns"`
    /// histogram.
    pub(crate) fn observe_span(&mut self, actor: ActorId, label: &'static str, ns: u64) {
        self.observe_series(actor, Series::SpanNs(label), ns);
    }

    fn observe_series(&mut self, actor: ActorId, series: Series, value: u64) {
        match self
            .values
            .entry((actor, series))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("{actor}/{series} is not a histogram: {other:?}"),
        }
    }

    /// Snapshots the registry into an immutable report, naming each
    /// series' actor by `name_of`. The report's `BTreeMap` re-sorts by
    /// `(actor name, metric name)`, so it is the same whatever order the
    /// actors were spawned or the series recorded in.
    pub fn report<'a>(&self, name_of: impl Fn(ActorId) -> &'a str) -> MetricsReport {
        let metrics: BTreeMap<_, _> = self
            .values
            .iter()
            .map(|(&(actor, series), v)| {
                ((name_of(actor).to_string(), series.to_string()), v.clone())
            })
            .collect();
        // A metric named `"<label>.ns"` would collide with that span's series.
        debug_assert_eq!(metrics.len(), self.values.len(), "two series share a name");
        MetricsReport { metrics }
    }
}

/// An immutable, deterministically ordered snapshot of a [`Metrics`]
/// registry. Two same-seed runs of the same scenario produce equal reports.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    metrics: BTreeMap<(String, String), MetricValue>,
}

impl MetricsReport {
    /// `true` if no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of distinct `(component, metric)` series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Iterates all series in `(component, metric)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.metrics
            .iter()
            .map(|((c, n), v)| (c.as_str(), n.as_str(), v))
    }

    /// One component's counter, if recorded.
    pub fn counter(&self, component: &str, name: &str) -> Option<u64> {
        match self.get(component, name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// One component's gauge, if recorded.
    pub fn gauge(&self, component: &str, name: &str) -> Option<i64> {
        match self.get(component, name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// One component's histogram, if recorded.
    pub fn histogram(&self, component: &str, name: &str) -> Option<&Histogram> {
        match self.get(component, name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Raw lookup by `(component, metric)`.
    pub fn get(&self, component: &str, name: &str) -> Option<&MetricValue> {
        self.metrics.get(&(component.to_string(), name.to_string()))
    }

    /// Sums a counter across every component that recorded it.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|((_, n), _)| n == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Maximum of a gauge across every component that recorded it.
    pub fn gauge_max(&self, name: &str) -> Option<i64> {
        self.metrics
            .iter()
            .filter(|((_, n), _)| n == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Gauge(g) => Some(*g),
                _ => None,
            })
            .max()
    }

    /// Renders a fixed-width text table, one row per series, in key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<28} {}\n",
            "component", "metric", "value"
        ));
        for ((c, n), v) in &self.metrics {
            let rendered = match v {
                MetricValue::Counter(x) => x.to_string(),
                MetricValue::Gauge(x) => x.to_string(),
                MetricValue::Histogram(h) => {
                    format!(
                        "count {} sum {} mean {:.1} p50 {} p95 {} p99 {}",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99)
                    )
                }
            };
            out.push_str(&format!("{c:<24} {n:<28} {rendered}\n"));
        }
        out
    }

    /// Renders the report as a deterministic JSON object keyed
    /// `"component/metric"`, in key order.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            for ((c, n), v) in &self.metrics {
                let mut m = o.obj(&format!("{c}/{n}"));
                match v {
                    MetricValue::Counter(x) => {
                        m.str("type", "counter").val("value", x);
                    }
                    MetricValue::Gauge(x) => {
                        m.str("type", "gauge").val("value", x);
                    }
                    MetricValue::Histogram(h) => {
                        m.str("type", "histogram")
                            .val("count", h.count)
                            .val("sum", h.sum)
                            .val("p50", h.quantile(0.50))
                            .val("p95", h.quantile(0.95))
                            .val("p99", h.quantile(0.99))
                            .vals("bounds", DEFAULT_LATENCY_BOUNDS_NS)
                            .vals("counts", h.counts);
                    }
                }
            }
        })
    }

    /// Renders the report in Prometheus text-exposition format,
    /// deterministically: metric families in name order, series in
    /// component order, fixed label order, no timestamps. Metric names map
    /// into the `ph_` namespace with dots as underscores (counters gain
    /// the conventional `_total` suffix), the recording component becomes
    /// the `component` label, and histograms render as cumulative
    /// `_bucket` lines with an explicit `+Inf` bound — so the same
    /// `net.queue_*` series a test reads programmatically can be scraped
    /// or diffed as text.
    pub fn to_prometheus(&self) -> String {
        // Prometheus wants every series of a family contiguous under one
        // TYPE header, so regroup the (component, metric)-ordered map by
        // metric name first.
        let mut families: BTreeMap<&str, Vec<(&str, &MetricValue)>> = BTreeMap::new();
        for ((c, n), v) in &self.metrics {
            families
                .entry(n.as_str())
                .or_default()
                .push((c.as_str(), v));
        }
        let mut out = String::new();
        for (name, series) in families {
            let base = format!("ph_{}", name.replace(['.', '-'], "_"));
            // A family has one type, its first series'; a series of another
            // type under the same name is left out.
            let first = std::mem::discriminant(series[0].1);
            let (family, kind) = match series[0].1 {
                MetricValue::Counter(_) => (format!("{base}_total"), "counter"),
                MetricValue::Gauge(_) => (base, "gauge"),
                MetricValue::Histogram(_) => (base, "histogram"),
            };
            prometheus_family(&mut out, &family, kind, None);
            for (c, v) in series {
                if std::mem::discriminant(v) != first {
                    continue;
                }
                let labels = format!("component=\"{c}\"");
                match v {
                    MetricValue::Counter(x) => prometheus_sample(&mut out, &family, &labels, x),
                    MetricValue::Gauge(x) => prometheus_sample(&mut out, &family, &labels, x),
                    MetricValue::Histogram(h) => h.write_prometheus(&mut out, &family, &labels),
                }
            }
        }
        out
    }
}

/// Appends a Prometheus metric family's header: its `# HELP` line when
/// `help` is given, then its `# TYPE` line.
pub fn prometheus_family(out: &mut String, name: &str, kind: &str, help: Option<&str>) {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one Prometheus sample line, `name{labels} value`.
pub fn prometheus_sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = writeln!(out, "{name}{{{labels}}} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, AnyMsg, Ctx, World, WorldConfig};

    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);
    const C: ActorId = ActorId(2);

    /// The registry's report with actors 0, 1, 2 named `a`, `b`, `c`.
    fn report(m: &Metrics) -> MetricsReport {
        m.report(|id| ["a", "b", "c"][id.index()])
    }

    #[test]
    fn prometheus_rendering_is_grouped_and_cumulative() {
        let mut m = Metrics::new();
        m.counter_add(B, "net.queue_dropped", 2);
        m.counter_add(A, "net.queue_dropped", 1);
        m.gauge_set(A, "net.queue_depth", 4);
        m.observe(A, "net.queue_wait_ns", 5);
        m.observe(A, "net.queue_wait_ns", 20_000_000_000);
        let text = report(&m).to_prometheus();
        let expected = "\
# TYPE ph_net_queue_depth gauge
ph_net_queue_depth{component=\"a\"} 4
# TYPE ph_net_queue_dropped_total counter
ph_net_queue_dropped_total{component=\"a\"} 1
ph_net_queue_dropped_total{component=\"b\"} 2
# TYPE ph_net_queue_wait_ns histogram
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"1000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"10000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"100000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"1000000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"10000000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"100000000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"1000000000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"10000000000\"} 1
ph_net_queue_wait_ns_bucket{component=\"a\",le=\"+Inf\"} 2
ph_net_queue_wait_ns_sum{component=\"a\"} 20000000005
ph_net_queue_wait_ns_count{component=\"a\"} 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn counters_accumulate_and_total_across_components() {
        let mut m = Metrics::new();
        m.counter_add(A, "hits", 2);
        m.counter_add(A, "hits", 3);
        m.counter_add(B, "hits", 10);
        let r = report(&m);
        assert_eq!(r.counter("a", "hits"), Some(5));
        assert_eq!(r.counter("b", "hits"), Some(10));
        assert_eq!(r.counter_total("hits"), 15);
        assert_eq!(r.counter("a", "missing"), None);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut m = Metrics::new();
        m.gauge_set(A, "lag", 7);
        m.gauge_set(A, "lag", 3);
        m.gauge_set(B, "lag", 9);
        let r = report(&m);
        assert_eq!(r.gauge("a", "lag"), Some(3));
        assert_eq!(r.gauge_max("lag"), Some(9));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new();
        h.observe(500);
        h.observe(1_000); // inclusive upper bound
        h.observe(5_000);
        h.observe(20_000_000_000); // overflow
        assert_eq!(h.counts, [2, 1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 20_000_006_500);
        assert!((h.mean() - 5_000_001_625.0).abs() < 1e-3);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantiles_pick_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(500); // bucket <=1µs
        }
        for _ in 0..9 {
            h.observe(5_000); // bucket <=10µs
        }
        h.observe(20_000_000_000); // overflow
        assert_eq!(h.quantile(0.50), 1_000);
        assert_eq!(h.quantile(0.90), 1_000);
        assert_eq!(h.quantile(0.95), 10_000);
        assert_eq!(h.quantile(0.99), 10_000);
        // Overflow observations report the last finite bound.
        assert_eq!(h.quantile(1.0), 10_000_000_000);
    }

    #[test]
    fn report_renderings_carry_quantiles() {
        let mut m = Metrics::new();
        m.observe(C, "lat", 2_000);
        let r = report(&m);
        assert!(r.render().contains("p50 10000 p95 10000 p99 10000"));
        assert!(r
            .to_json()
            .contains("\"p50\":10000,\"p95\":10000,\"p99\":10000"));
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let mut m = Metrics::new();
        m.gauge_set(A, "x", 1);
        m.counter_add(A, "x", 1);
    }

    #[test]
    fn report_iterates_in_key_order_and_compares_equal() {
        let mut m1 = Metrics::new();
        m1.counter_add(B, "n", 1);
        m1.gauge_set(A, "g", 2);
        let mut m2 = Metrics::new();
        // Recorded in the opposite order; snapshots must still be equal.
        m2.gauge_set(A, "g", 2);
        m2.counter_add(B, "n", 1);
        assert_eq!(report(&m1), report(&m2));
        let r = report(&m1);
        let keys: Vec<(&str, &str)> = r.iter().map(|(c, n, _)| (c, n)).collect();
        assert_eq!(keys, vec![("a", "g"), ("b", "n")]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_rendering_is_deterministic_and_wellformed() {
        let mut m = Metrics::new();
        m.counter_add(C, "n", 4);
        m.observe(C, "lat", 2_000);
        let j = report(&m).to_json();
        assert_eq!(j, report(&m).to_json());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"c/n\":{\"type\":\"counter\",\"value\":4}"));
        assert!(j.contains("\"c/lat\":{\"type\":\"histogram\",\"count\":1,\"sum\":2000"));
    }

    /// Records the same counter, gauge and span on each actor it is
    /// spawned as.
    struct Recorder(u64);
    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.counter_add("hits", self.0);
            ctx.gauge_set("depth", self.0 as i64);
            ctx.span_begin("work", "");
            ctx.span_end("work");
        }
        fn on_message(&mut self, _from: ActorId, _msg: AnyMsg, _ctx: &mut Ctx) {}
    }

    /// Series are keyed by actor id, and ids follow spawn order: `b`,
    /// spawned first, has the smaller id, yet every rendering lists `a`
    /// first, and a span's series is named `<label>.ns`.
    #[test]
    fn reports_sort_by_actor_name_not_spawn_order() {
        let mut world = World::new(WorldConfig::default(), 1);
        let b = world.spawn("b", Recorder(2));
        let a = world.spawn("a", Recorder(1));
        assert!(b < a);
        let r = world.metrics_report();
        let keys: Vec<(&str, &str)> = r.iter().map(|(c, n, _)| (c, n)).collect();
        assert_eq!(
            keys,
            [
                ("a", "depth"),
                ("a", "hits"),
                ("a", "work.ns"),
                ("b", "depth"),
                ("b", "hits"),
                ("b", "work.ns"),
            ]
        );
        assert_eq!(
            (r.counter("a", "hits"), r.counter("b", "hits")),
            (Some(1), Some(2))
        );
        assert_eq!(r.histogram("b", "work.ns").map(|h| h.count), Some(1));

        let json = r.to_json();
        assert!(json.starts_with("{\"a/depth\":{\"type\":\"gauge\",\"value\":1}"));
        let at = |needle: &str| json.find(needle).unwrap_or_else(|| panic!("{needle}"));
        assert!(at("\"a/work.ns\":{\"type\":\"histogram\"") < at("\"b/depth\""));

        let prom = r.to_prometheus();
        let at = |needle: &str| prom.find(needle).unwrap_or_else(|| panic!("{needle}"));
        assert!(at("ph_depth{component=\"a\"} 1\n") < at("ph_depth{component=\"b\"} 2\n"));
        assert!(
            at("ph_hits_total{component=\"a\"} 1\n") < at("ph_hits_total{component=\"b\"} 2\n")
        );
        assert!(at("# TYPE ph_work_ns histogram\n") < at("ph_work_ns_count{component=\"a\"} 1\n"));
        assert!(
            at("ph_work_ns_count{component=\"a\"} 1\n")
                < at("ph_work_ns_count{component=\"b\"} 1\n")
        );
    }
}

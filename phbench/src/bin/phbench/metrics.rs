//! The metric catalogue — the one place that names every metric, its unit,
//! direction and bound — plus the result-row schema and `BENCHMARK.json`.

use ph_scenarios::scenario_statics;
use ph_sim::TraceEventKind;

use crate::json::{esc, num, Json};
use crate::stats::Summary;
use crate::workloads::Workload;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: something a user of the tool waits for or pays.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim-s/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric. `exact` marks deterministic counts that must repeat
/// bit-for-bit between two runs of the same code and seed.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub exact: bool,
}

/// The 15 trace event kinds, in declaration order.
pub const KINDS: [&str; 15] = [
    "Spawned",
    "MessageSent",
    "MessageDelivered",
    "MessageDropped",
    "MessageHeld",
    "MessageDelayed",
    "MessageQueued",
    "MessageReleased",
    "TimerSet",
    "TimerFired",
    "Crashed",
    "Restarted",
    "Annotation",
    "SpanBegin",
    "SpanEnd",
];

/// Index into [`KINDS`]; exhaustive, so a new kind fails to compile here.
pub fn kind_index(kind: &TraceEventKind) -> usize {
    match kind {
        TraceEventKind::Spawned { .. } => 0,
        TraceEventKind::MessageSent { .. } => 1,
        TraceEventKind::MessageDelivered { .. } => 2,
        TraceEventKind::MessageDropped { .. } => 3,
        TraceEventKind::MessageHeld { .. } => 4,
        TraceEventKind::MessageDelayed { .. } => 5,
        TraceEventKind::MessageQueued { .. } => 6,
        TraceEventKind::MessageReleased { .. } => 7,
        TraceEventKind::TimerSet { .. } => 8,
        TraceEventKind::TimerFired { .. } => 9,
        TraceEventKind::Crashed { .. } => 10,
        TraceEventKind::Restarted { .. } => 11,
        TraceEventKind::Annotation { .. } => 12,
        TraceEventKind::SpanBegin { .. } => 13,
        TraceEventKind::SpanEnd { .. } => 14,
    }
}

/// Every per-layer metric a traced run reports. A workload that does not
/// exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<PerLayer> {
    // (name, unit, higher_is_better, exact)
    const FIXED: &[(&str, &str, bool, bool)] = &[
        ("ph-sim.world.ns_per_event", "ns", false, false),
        ("ph-sim.world.events", "count", false, true),
        ("ph-sim.world.pingpong_ns_per_event", "ns", false, false),
        ("ph-sim.queue.ref_heap_ns_per_op.1k", "ns", false, false),
        ("ph-sim.queue.ref_heap_ns_per_op.100k", "ns", false, false),
        ("ph-sim.trace.digest_ns_per_event", "ns", false, false),
        ("ph-sim.trace.digest_share", "ratio", false, false),
        ("ph-sim.trace.rss_bytes_per_event", "B", false, false),
        ("ph-sim.export.chrome_ns_per_event", "ns", false, false),
        ("ph-sim.export.jsonl_ns_per_event", "ns", false, false),
        ("ph-sim.metrics.report_us", "us", false, false),
        ("ph-store.commit.host_us", "us", false, false),
        ("ph-store.commit.sim_us", "us", false, true),
        ("ph-store.commit.events_per_commit", "count", false, true),
        ("ph-store.mvcc.apply_ns", "ns", false, false),
        ("ph-store.mvcc.range_ns_per_kv", "ns", false, false),
        ("ph-cluster.topology.warmup_us", "us", false, false),
        ("ph-cluster.topology.warmup_events", "count", false, true),
        ("ph-cluster.slab.insert_ns", "ns", false, false),
        ("ph-cluster.slab.remove_ns", "ns", false, false),
        (
            "ph-cluster.slab.range_prefix_ns_per_obj",
            "ns",
            false,
            false,
        ),
        ("ph-cluster.slab.shards8_ratio", "ratio", false, false),
        (
            "ph-cluster.apiserver.shards8_wall_ratio",
            "ratio",
            false,
            false,
        ),
        (
            "ph-cluster.apiserver.cache_bytes_per_object",
            "B",
            false,
            true,
        ),
        ("ph-cluster.apiserver.watch_delivered", "count", false, true),
        ("ph-cluster.apiserver.window_evicted", "count", false, true),
        ("ph-cluster.informer.relists", "count", false, true),
        ("ph-cluster.informer.watch_events", "count", false, true),
        ("ph-cluster.apiclient.retries", "count", false, true),
        ("ph-core.harness.cell_self_us", "us", false, false),
        ("ph-core.harness.trial_share", "ratio", true, false),
        ("ph-core.parallel.pool_1t_ratio", "ratio", false, false),
        ("ph-core.parallel.speedup_2t", "ratio", true, false),
        (
            "ph-core.provenance.explain_us_per_kevent",
            "us",
            false,
            false,
        ),
        ("ph-core.provenance.chain_links", "count", false, true),
        ("ph-core.divergence.sample_ns", "ns", false, false),
        ("ph-lint.modelcheck.crosscheck_us", "us", false, false),
        ("ph-lint.modelcheck.states_expanded", "count", false, true),
        ("ph-lint.modelcheck.exhaustive_us", "us", false, false),
        (
            "ph-lint.modelcheck.exhaustive_states_expanded",
            "count",
            false,
            true,
        ),
        ("ph-lint.independence.derive_us", "us", false, false),
        ("ph-lint.scan_workspace_ms", "ms", false, false),
        ("ph-scenarios.witness_bridge.plan_us", "us", false, false),
        (
            "ph-scenarios.witness_bridge.trials_to_detect",
            "count",
            false,
            true,
        ),
        ("ph-scenarios.witness_bridge.detect_s", "s", false, false),
        ("ph-scenarios.matrix.trials_run", "count", false, true),
        ("ph-scenarios.matrix.deduped_trials", "count", true, true),
        ("ph-scenarios.matrix.cells_detected", "count", true, true),
        (
            "ph-scenarios.matrix.detections_per_trial",
            "ratio",
            true,
            true,
        ),
        ("ph-scenarios.mega_cluster.commits", "count", false, true),
        (
            "ph-scenarios.mega_cluster.watcher_events",
            "count",
            false,
            true,
        ),
        ("phbench.trace_overhead_frac", "ratio", false, false),
    ];
    let mut all: Vec<PerLayer> = FIXED
        .iter()
        .map(|&(name, unit, higher_is_better, exact)| PerLayer {
            name: name.to_string(),
            unit,
            higher_is_better,
            exact,
        })
        .collect();
    all.extend(KINDS.iter().map(|kind| PerLayer {
        name: format!("ph-sim.trace.kind.{kind}"),
        unit: "count",
        higher_is_better: false,
        exact: true,
    }));
    all.extend(scenario_statics().iter().map(|e| PerLayer {
        name: format!("ph-scenarios.run_us.{}", e.name),
        unit: "us",
        higher_is_better: false,
        exact: false,
    }));
    all
}

/// The layer a metric belongs to: the part of its name before the first
/// dot (`end-to-end` for the end-to-end metrics).
pub fn layer_of(metric: &str) -> &str {
    if END_TO_END.iter().any(|m| m.name == metric) {
        "end-to-end"
    } else {
        metric.split('.').next().unwrap_or(metric)
    }
}

/// One result row: `{workload, layer, metric, unit, median, p10, p90, n}`.
/// For `n < 20`, `p10`/`p90` are the minimum and maximum, and `tails` says
/// so.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
    pub exact: bool,
}

impl Row {
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        format!(
            "{{\"workload\":\"{}\",\"layer\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\
             \"median\":{},\"p10\":{},\"p90\":{},\"n\":{},\"tails\":\"{}\",\"exact\":{}}}",
            esc(&self.workload),
            esc(layer_of(&self.metric)),
            esc(&self.metric),
            esc(&self.unit),
            num(s.median),
            num(s.p10),
            num(s.p90),
            s.n,
            if s.tails_are_extremes() {
                "min/max"
            } else {
                "p10/p90"
            },
            self.exact,
        )
    }

    pub fn from_json(v: &Json) -> Result<Row, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row without a string {key:?}"))
        };
        let number = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row without a number {key:?}"))
        };
        Ok(Row {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            summary: Summary {
                median: number("median")?,
                p10: number("p10")?,
                p90: number("p90")?,
                n: number("n")? as usize,
            },
            exact: v.get("exact").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// One aligned, human-readable line.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let spread = if self.exact {
            "exact".to_string()
        } else if s.n == 1 {
            "n=1".to_string()
        } else {
            format!(
                "n={} {} {:.6} .. {:.6}",
                s.n,
                if s.tails_are_extremes() {
                    "min/max"
                } else {
                    "p10/p90"
                },
                s.p10,
                s.p90
            )
        };
        format!(
            "{:<16} {:<52} {:>16.6} {:<8} {spread}",
            self.workload, self.metric, s.median, self.unit
        )
    }
}

/// Serialises rows as the `--out` document.
pub fn rows_document(seed: u64, rows: &[Row]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!(
        "{{\"seed\":{seed},\"cpus\":{cpus},\"rows\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}

/// Reads the rows of an `--out` document.
pub fn parse_rows_document(text: &str) -> Result<Vec<Row>, String> {
    let doc = crate::json::parse(text)?;
    doc.get("rows")
        .and_then(Json::as_array)
        .ok_or("no \"rows\" array")?
        .iter()
        .map(Row::from_json)
        .collect()
}

/// The text of `BENCHMARK.json`, generated from the catalogue
/// (`phbench manifest`); a test pins the checked-in file to it.
pub fn manifest() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                esc(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"phbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"phbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn checked_in_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `phbench manifest > BENCHMARK.json`"
        );
        let doc = json::parse(&on_disk).unwrap();
        assert_eq!(doc.get("workloads").unwrap().as_array().unwrap().len(), 4);
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn rows_round_trip_through_the_document() {
        let rows = vec![
            Row {
                workload: "scale-1k".into(),
                metric: "wall_s".into(),
                unit: "s".into(),
                summary: Summary {
                    median: 2.25,
                    p10: 2.0,
                    p90: 2.5,
                    n: 5,
                },
                exact: false,
            },
            Row {
                workload: "matrix".into(),
                metric: "ph-sim.world.events".into(),
                unit: "count".into(),
                summary: Summary::single(7_012_345.0),
                exact: true,
            },
        ];
        let text = rows_document(1000, &rows);
        assert_eq!(parse_rows_document(&text).unwrap(), rows);
        assert!(text.contains("\"layer\":\"end-to-end\""));
        assert!(text.contains("\"layer\":\"ph-sim\""));
        assert!(text.contains("\"tails\":\"min/max\""));
    }

    #[test]
    fn every_kind_has_a_name() {
        let unique: std::collections::BTreeSet<&str> = KINDS.iter().copied().collect();
        assert_eq!(unique.len(), 15);
    }
}

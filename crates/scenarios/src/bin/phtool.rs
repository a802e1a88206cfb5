//! `phtool` — the partial-histories testing tool, as a command line.
//!
//! ```text
//! phtool list                         enumerate scenarios and strategies
//! phtool run --scenario <name>        one trial (prints the report)
//!        [--strategy <name>] [--variant buggy|fixed] [--seed N]
//!        [--trace <file>] [--format json|jsonl|chrome]
//!                                     dump the full trace (chrome = load
//!                                     in Perfetto / chrome://tracing)
//!        [--prom <file>]             export the run's metrics (queue
//!                                     depths, drops, waits, staleness) in
//!                                     Prometheus text exposition
//!        [--metrics]                  print the metrics + divergence tables
//!        [--json]                     print the full report as JSON
//! phtool explain --scenario <name> | --all
//!        [--strategy <name>] [--variant buggy|fixed] [--seed N]
//!        [--json] [--threads N]      blame chain: the minimal causal
//!                                     story behind a violation (injected
//!                                     perturbation → store commit →
//!                                     suppressed view update → stale read
//!                                     → action), classified per §4.2 and
//!                                     cross-checked against the static
//!                                     witness class (exit 3 on
//!                                     disagreement)
//! phtool report [--scenario <name>] [--strategy <name>]
//!        [--variant buggy|fixed] [--seed N] [--threads N]
//!                                     divergence & effort dashboard
//!                                     (now with p95 read-staleness and
//!                                     blame-class columns)
//! phtool matrix [--trials N] [--seed N] [--threads N]
//!        [--prom <file>]             the §7 detection matrix + per-cell
//!                                     hunt telemetry (optionally exported
//!                                     in Prometheus text exposition)
//! phtool hunt --scenario <name> [--budget N] [--depth N] [--seed N]
//!        [--threads N]               causality-guided auto-discovery
//!        [--witnesses]               model-checker witness priors first,
//!                                     then the unguided strategy cycle
//! phtool scale [--nodes N] [--pods N] [--shards N] [--seed N] [--json]
//!                                     one mega-cluster scale point: churn
//!                                     a synthetic demand curve through the
//!                                     sharded watch cache and report the
//!                                     deterministic scale telemetry
//!                                     (objects, window peak, cache bytes);
//!                                     the trace is hashed and counted but
//!                                     not stored (digest-only)
//! phtool lint [--json] [--root DIR]  stale `ph-lint:` directive scan +
//!                                     §4.2 partial-history hazard
//!                                     analysis
//! phtool check [--json]               symbolic model check (minimal
//!                                     witnesses / epoch-safety per
//!                                     destructive action)
//! phtool repro <id> | --all           reproduce one of the paper's figures
//!                                     or tables (or all of them) as text;
//!                                     `tests/golden/repro/<id>.txt` pins
//!                                     each, EXPERIMENTS.md quotes them
//! ```
//!
//! Everything is deterministic: `--seed` fully determines a run, including
//! every metric value and every exported trace byte. `--threads` (default:
//! the machine's available parallelism) only changes wall-clock time —
//! trials fan out over the deterministic `ph-core::parallel` pool and
//! merge by trial index, so output bytes are identical at any thread
//! count.
//!
//! Each subcommand accepts only the flags listed for it; an unknown flag
//! is a usage error.
//!
//! Exit codes: `0` clean, `1` runtime error (I/O), `2` usage error (unknown
//! command or flag, missing, ill-typed or out-of-range value), `3` a
//! violation was detected (a dynamic oracle fired, a hunt found a
//! violating candidate, or `lint` found a stale directive or a
//! static/dynamic disagreement) — so CI can gate on any subcommand. A
//! closed stdout (`phtool repro --all | head`) ends the command quietly
//! with `141`, the status a shell reports for a process SIGPIPE ended.

#![allow(
    clippy::print_stderr,
    reason = "a command line tool: its status and error lines go to stderr"
)]

use std::collections::BTreeMap;
use std::io::Write;

use ph_core::autoguide;
use ph_core::harness::Explorer;
use ph_core::perturb::Strategy;
use ph_lint::json;
use ph_scenarios::experiments::{self, EXPERIMENTS};
use ph_scenarios::{by_name, Scenario, Variant, SCENARIOS, STRATEGIES};
use ph_sim::Trace;

/// The scenario called `name` (`-`/`_` tolerant).
fn lookup(name: &str) -> Result<&'static Scenario, String> {
    ph_scenarios::lookup(name).ok_or_else(|| format!("unknown scenario {name:?} (phtool list)"))
}

/// Why a command produced no verdict. A bare `String` error converts to
/// [`Failure::Usage`] — nearly every check in this file is on the command
/// line — so only the I/O sites name their kind.
enum Failure {
    /// The command line is wrong (exit 2): unknown command or flag, a
    /// missing, ill-typed or out-of-range value.
    Usage(String),
    /// The command line was fine but the run could not finish (exit 1).
    Runtime(String),
    /// Stdout closed before the output was written: exit
    /// [`EXIT_CLOSED`], quietly.
    Closed,
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Failure::Closed,
            _ => Failure::Runtime(format!("writing stdout: {e}")),
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Usage(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::Usage(message.to_string())
    }
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["metrics", "json", "witnesses", "all"];

/// A subcommand: it writes its output to `out` (stdout) and returns its
/// exit code.
type Command = fn(&Args, &mut dyn Write) -> Result<i32, Failure>;

/// Every subcommand with the flags it accepts; any other flag is a usage
/// error.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("list", &[], cmd_list),
    (
        "run",
        &[
            "scenario", "strategy", "variant", "seed", "trace", "format", "prom", "metrics", "json",
        ],
        cmd_run,
    ),
    (
        "explain",
        &[
            "scenario", "all", "strategy", "variant", "seed", "json", "threads",
        ],
        cmd_explain,
    ),
    (
        "report",
        &["scenario", "strategy", "variant", "seed", "threads"],
        cmd_report,
    ),
    ("matrix", &["trials", "seed", "threads", "prom"], cmd_matrix),
    (
        "hunt",
        &[
            "scenario",
            "budget",
            "depth",
            "seed",
            "threads",
            "witnesses",
        ],
        cmd_hunt,
    ),
    (
        "scale",
        &["nodes", "pods", "shards", "seed", "json"],
        cmd_scale,
    ),
    ("lint", &["json", "root"], cmd_lint),
    ("check", &["json"], cmd_check),
    ("repro", &["all"], cmd_repro),
];

/// Subcommands that take one bare operand besides their flags.
const OPERAND_COMMANDS: &[&str] = &["repro"];

/// Minimal `--key value` flag parser (plus valueless boolean flags).
struct Args {
    flags: BTreeMap<String, String>,
    /// The bare argument of an [`OPERAND_COMMANDS`] command.
    operand: Option<String>,
}

impl Args {
    /// Parses `argv` against the flags `cmd` accepts.
    fn parse(cmd: &str, allowed: &[&str], argv: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut operand = None;
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                if OPERAND_COMMANDS.contains(&cmd) && operand.is_none() {
                    operand = Some(a.clone());
                    continue;
                }
                return Err(format!("unexpected argument {a:?}"));
            };
            if !allowed.contains(&key) {
                let takes: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "phtool {cmd} has no flag --{key} (it takes: {})",
                    if takes.is_empty() {
                        "no flags".to_string()
                    } else {
                        takes.join(" ")
                    }
                ));
            }
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Args { flags, operand })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number")),
        }
    }

    /// A count that must be at least 1 (`--trials`, `--budget`, …).
    fn get_positive(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get_u64(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// `--variant buggy|fixed`, defaulting to buggy.
    fn variant(&self) -> Result<Variant, String> {
        match self.get("variant").unwrap_or("buggy") {
            "buggy" => Ok(Variant::Buggy),
            "fixed" => Ok(Variant::Fixed),
            other => Err(format!("unknown variant {other:?}")),
        }
    }

    /// `--strategy <name>`, defaulting to guided; rejects names outside
    /// [`STRATEGIES`], so `Scenario::strategy` cannot panic on it.
    fn strategy(&self) -> Result<&str, String> {
        let name = self.get("strategy").unwrap_or("guided");
        if !STRATEGIES.contains(&name) {
            return Err(format!("unknown strategy {name:?} (try: {STRATEGIES:?})"));
        }
        Ok(name)
    }

    /// Worker-pool size: `--threads N`, defaulting to the machine's
    /// available parallelism.
    fn threads(&self) -> Result<usize, String> {
        Ok(self.get_positive("threads", ph_core::default_threads() as u64)? as usize)
    }
}

fn usage() -> &'static str {
    "usage:\n  phtool list\n  phtool run --scenario <name> [--strategy <name>] \
     [--variant buggy|fixed] [--seed N] [--trace out.json] \
     [--format json|jsonl|chrome] [--prom <file>] [--metrics] [--json]\n  \
     phtool explain \
     --scenario <name> | --all [--strategy <name>] [--variant buggy|fixed] [--seed N] \
     [--json] [--threads N]\n  phtool report \
     [--scenario <name>] [--strategy <name>] [--variant buggy|fixed] [--seed N] \
     [--threads N]\n  \
     phtool matrix [--trials N] [--seed N] [--threads N] [--prom <file>]\n  phtool hunt \
     --scenario <name> [--budget N] [--depth N] [--seed N] [--threads N] [--witnesses]\n  \
     phtool scale [--nodes N] [--pods N] [--shards N] [--seed N] [--json]\n  \
     phtool lint [--json] [--root DIR]\n  phtool check [--json]\n  \
     phtool repro <id> | --all\n\
     exit codes: 0 clean, 1 error, 2 usage, 3 violation detected, 141 stdout closed"
}

fn cmd_list(_args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    writeln!(out, "scenarios:")?;
    for scenario in by_name() {
        writeln!(out, "  {}", scenario.name)?;
    }
    writeln!(out, "strategies: {}", STRATEGIES.join(", "))?;
    Ok(0)
}

/// Serializes a trace in the chosen export format.
fn format_trace(trace: &Trace, format: &str) -> Result<String, String> {
    match format {
        "json" => Ok(trace.to_json()),
        "jsonl" => Ok(ph_sim::trace_to_jsonl(trace)),
        "chrome" => Ok(ph_sim::trace_to_chrome(trace)),
        other => Err(format!(
            "unknown trace format {other:?} (json|jsonl|chrome)"
        )),
    }
}

/// Exit code for "the tool worked and found a violation" — distinct from
/// runtime (1) and usage (2) errors so CI can gate on it.
const EXIT_VIOLATION: i32 = 3;

fn cmd_run(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let scenario = lookup(args.get("scenario").ok_or("--scenario is required")?)?;
    let seed = args.get_u64("seed", 1)?;
    let variant = args.variant()?;
    let strategy_name = args.strategy()?;
    let new_strategy = || scenario.strategy(strategy_name, seed);
    let format = args.get("format").unwrap_or("json");

    let report = if let Some(path) = args.get("trace") {
        let (report, trace) = scenario.run_traced(seed, new_strategy().as_mut(), variant);
        std::fs::write(path, format_trace(&trace, format)?)
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        // Stderr, like `--prom`'s status, so `--json --trace` keeps stdout
        // the report alone.
        eprintln!("trace written to {path} ({} events, {format})", trace.len());
        report
    } else {
        scenario.run(seed, new_strategy().as_mut(), variant)
    };

    if let Some(path) = args.get("prom") {
        std::fs::write(path, report.metrics.to_prometheus())
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        // Status goes to stderr so `--json --prom` keeps stdout diffable.
        eprintln!("metrics written to {path} (Prometheus text exposition)");
    }

    let exit = if report.failed() { EXIT_VIOLATION } else { 0 };
    if args.has("json") {
        writeln!(out, "{}", report.to_json())?;
        return Ok(exit);
    }
    writeln!(out, "scenario : {}", report.scenario)?;
    writeln!(out, "strategy : {}", report.strategy)?;
    writeln!(out, "variant  : {variant}")?;
    writeln!(out, "seed     : {}", report.seed)?;
    writeln!(out, "events   : {}", report.trace_events)?;
    writeln!(out, "digest   : {:#018x}", report.trace_digest)?;
    if report.failed() {
        writeln!(out, "VERDICT  : VIOLATED")?;
        for v in &report.violations {
            writeln!(out, "  {v}")?;
        }
    } else {
        writeln!(out, "VERDICT  : clean")?;
    }
    if let Some(b) = report.blame {
        writeln!(
            out,
            "blame    : {} ({} link(s); {}/{} injected artifacts in chain)",
            b.class, b.links, b.in_chain, b.injected
        )?;
    }
    if args.has("metrics") {
        writeln!(out, "\n-- metrics --")?;
        write!(out, "{}", report.metrics.render())?;
        writeln!(out, "\n-- divergence (|H| - |H'|, sampled) --")?;
        write!(out, "{}", report.divergence.render())?;
    }
    Ok(exit)
}

/// `phtool explain` — run a scenario and print the violation's blame chain:
/// the minimal causal story `injected perturbation → store commit →
/// suppressed view update → stale read → action`, classified with the §4.2
/// taxonomy and cross-checked against the scenario's static witness class.
///
/// Exit 3 when the dynamic class disagrees with the static one (or the run
/// produced no violation to explain while one was statically predicted) —
/// CI gates on it.
fn cmd_explain(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let seed = args.get_u64("seed", 1)?;
    let variant = args.variant()?;
    let strategy_name = args.strategy()?;
    let threads = args.threads()?;
    let selected = if args.has("all") {
        by_name()
    } else {
        let name = args
            .get("scenario")
            .ok_or("--scenario <name> or --all is required")?;
        vec![lookup(name)?]
    };
    let (text, disagreements) = experiments::explain_chains(
        &selected,
        strategy_name,
        variant,
        seed,
        threads,
        args.has("json"),
    );
    write!(out, "{text}")?;
    Ok(if disagreements > 0 { EXIT_VIOLATION } else { 0 })
}

/// The observability dashboard: run every scenario (or one) once and
/// summarize verdicts, effort, and divergence side by side.
fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let seed = args.get_u64("seed", 1)?;
    let variant = args.variant()?;
    let strategy_name = args.strategy()?;
    let threads = args.threads()?;
    let selected = match args.get("scenario") {
        Some(name) => vec![lookup(name)?],
        None => by_name(),
    };
    let (text, violated) = experiments::report(&selected, strategy_name, variant, seed, threads);
    write!(out, "{text}")?;
    Ok(if violated { EXIT_VIOLATION } else { 0 })
}

fn cmd_matrix(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let explorer = Explorer {
        max_trials: args.get_positive("trials", 5)? as u32,
        base_seed: args.get_u64("seed", 1000)?,
    };
    let matrix = experiments::detection_matrix(&by_name(), STRATEGIES, explorer, args.threads()?);
    writeln!(out, "{}", matrix.render())?;
    writeln!(out, "-- hunt telemetry (per scenario × strategy cell) --")?;
    write!(out, "{}", matrix.render_telemetry())?;
    if let Some(path) = args.get("prom") {
        std::fs::write(path, matrix.to_prometheus())
            .map_err(|e| Failure::Runtime(format!("writing {path}: {e}")))?;
        writeln!(out, "prometheus exposition written to {path}")?;
    }
    if matrix.cells().iter().any(|c| c.detected()) {
        return Ok(EXIT_VIOLATION);
    }
    Ok(0)
}

fn cmd_hunt(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let scenario = args.get("scenario").ok_or("--scenario is required")?;
    let entry = lookup(scenario)?;
    let seed = args.get_u64("seed", 1)?;
    if args.has("witnesses") {
        let budget = args.get_positive("budget", 30)? as usize;
        let (text, found) = experiments::witness_hunt(entry, budget, seed);
        write!(out, "{text}")?;
        return Ok(if found.is_some() { EXIT_VIOLATION } else { 0 });
    }
    let labels = entry.blame.action_labels;
    let budget = args.get_positive("budget", 20)? as usize;
    let depth = args.get_u64("depth", 8)? as usize;
    let threads = args.threads()?;

    let run = |strategy: &mut dyn Strategy| {
        let (report, trace) = entry.run_traced(seed, strategy, Variant::Buggy);
        (
            report
                .violations
                .iter()
                .map(|v| v.details.clone())
                .collect::<Vec<_>>(),
            trace,
        )
    };
    writeln!(
        out,
        "hunting {scenario} (decisions {labels:?}, depth {depth}, budget {budget})…"
    )?;
    let (findings, total, census) =
        autoguide::explore(run, |_| entry.targets(seed), labels, depth, budget, threads);
    writeln!(
        out,
        "{total} candidates derived; {} distinct classes, {} deduplicated; {} tried",
        census.distinct_classes,
        census.deduped_trials,
        findings.len()
    )?;
    let mut found = 0;
    let mut first_violating: Option<usize> = None;
    for (i, f) in findings.iter().enumerate() {
        if f.violated {
            found += 1;
            first_violating.get_or_insert(i + 1);
            writeln!(out, "✗ {}", f.candidate)?;
            for v in &f.violations {
                writeln!(out, "    → {v}")?;
            }
        }
    }
    // Hunt telemetry: simulated work done across all tried candidates.
    let events: u64 = findings.iter().map(|f| f.events).sum();
    let sim_ns: u64 = findings.iter().map(|f| f.sim_ns).sum();
    let rate = events
        .saturating_mul(1_000_000_000)
        .checked_div(sim_ns)
        .unwrap_or(0);
    writeln!(
        out,
        "telemetry: {events} events over {:.2}s simulated ({rate} events/sim-sec); \
         first violating candidate: {}",
        sim_ns as f64 / 1e9,
        match first_violating {
            Some(i) => format!("#{i}"),
            None => "none".into(),
        }
    )?;
    writeln!(
        out,
        "{found} violating candidate(s); re-run any with the same seed to replay"
    )?;
    if found > 0 {
        return Ok(EXIT_VIOLATION);
    }
    Ok(0)
}

/// Finds the workspace root: `--root` if given, else ascend from the
/// current directory to the first `Cargo.toml` declaring `[workspace]`.
fn workspace_root(args: &Args) -> Result<std::path::PathBuf, Failure> {
    if let Some(root) = args.get("root") {
        let root = std::path::PathBuf::from(root);
        if !root.join("Cargo.toml").is_file() {
            return Err(format!("--root {}: no Cargo.toml there", root.display()).into());
        }
        return Ok(root);
    }
    let mut dir = std::env::current_dir().map_err(|e| Failure::Runtime(format!("getcwd: {e}")))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| Failure::Runtime(format!("reading {}: {e}", manifest.display())))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(Failure::Runtime(
                "no workspace Cargo.toml above the current directory (use --root)".into(),
            ));
        }
    }
}

/// `phtool scale` — run one mega-cluster scale point (the E10 workload):
/// a synthetic demand curve churns 10k–100k pods through the sharded
/// watch cache while watch consumers follow along. Output is fully
/// deterministic (no wall-clock numbers — wall time and memory are
/// `phbench`'s `scale-1k`/`scale-5k` workloads), so two invocations with
/// the same flags are byte-identical, shard count included.
fn cmd_scale(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let nodes = args.get_positive("nodes", 100)? as usize;
    let shards = args.get_positive("shards", 1)? as usize;
    let seed = args.get_u64("seed", 1)?;
    let mut params = ph_scenarios::mega_cluster::ScaleParams::for_nodes(nodes, shards);
    params.pods = args.get_positive("pods", params.pods as u64)? as usize;
    let (report, probe) = ph_scenarios::mega_cluster::run_probed(seed, &params);
    let exit = if report.failed() { EXIT_VIOLATION } else { 0 };
    // The store's replication cost: a deterministic counter (CI gates on
    // steps per commit), out-of-band like the cache probe.
    let raft = format!(
        "{} steps over {} commits ({:.1} per commit)",
        probe.raft_steps,
        probe.raft_commits,
        probe.raft_steps as f64 / probe.raft_commits.max(1) as f64
    );
    // What compaction leaves of the store's history and Raft log (CI
    // bounds both).
    let history = format!(
        "{} revisions retained (largest replica), compacted through {}",
        probe.store_history, probe.store_compacted
    );
    let log = format!(
        "{} entries retained (largest replica), compacted through i{}",
        probe.raft_log, probe.raft_log_base
    );
    if args.has("json") {
        // The probe is costs, not report content, so it goes to stderr:
        // stdout is the report alone (CI diffs it across shard counts).
        eprintln!(
            "cache probe: {} bytes over {} objects; raft: {raft}; history: {history}; log: {log}",
            probe.cache_bytes, probe.cache_objects
        );
        writeln!(out, "{}", report.to_json())?;
        return Ok(exit);
    }
    let gauge = |name: &str| {
        report
            .metrics
            .gauge_max(name)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into())
    };
    writeln!(out, "scenario : {}", report.scenario)?;
    writeln!(out, "seed     : {}", report.seed)?;
    writeln!(out, "nodes    : {nodes}")?;
    writeln!(out, "pods     : {}", params.pods)?;
    writeln!(out, "shards   : {shards}")?;
    writeln!(out, "events   : {}", report.trace_events)?;
    writeln!(out, "digest   : {:#018x}", report.trace_digest)?;
    // Where the memory did not go. The line states the family's retention,
    // so it must change with it.
    const _: () = assert!(matches!(
        ph_scenarios::mega_cluster::RETENTION,
        ph_sim::Retention::DigestOnly
    ));
    writeln!(
        out,
        "trace    : {} recorded, 0 retained (digest-only)",
        report.trace_events
    )?;
    writeln!(
        out,
        "objects  : {} (peak live in the watch cache)",
        gauge("apiserver.objects")
    )?;
    writeln!(
        out,
        "peak-win : {} (window entries)",
        gauge("apiserver.window_peak")
    )?;
    writeln!(
        out,
        "bytes    : {} over {} objects (cache approx at churn end)",
        probe.cache_bytes, probe.cache_objects
    )?;
    writeln!(
        out,
        "churn    : {} creates, {} deletes, {} watch events delivered",
        report.metrics.counter_total("demand.pod_creates"),
        report.metrics.counter_total("demand.pod_deletes"),
        report.metrics.counter_total("watcher.events"),
    )?;
    writeln!(out, "raft     : {raft}")?;
    writeln!(out, "history  : {history}")?;
    writeln!(out, "log      : {log}")?;
    Ok(exit)
}

/// The static passes: the stale `ph-lint:` directive scan over every
/// workspace `.rs` file, and the §4.2 hazard analysis over every
/// scenario's access summaries, cross-checked against each scenario's
/// documented class.
/// Determinism itself is clippy's (`crates/clippy.toml`).
fn cmd_lint(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let root = workspace_root(args)?;
    let report = ph_lint::scan_workspace(&root)
        .map_err(|e| Failure::Runtime(format!("scanning {}: {e}", root.display())))?;
    let table = ph_scenarios::static_crosscheck();
    let violated = !report.findings.is_empty() || !table.all_static_agree();

    // Static independence matrices over every scenario's perturbation
    // alphabet (buggy variants — the alphabets the hunts actually use).
    let matrices: Vec<(&'static str, ph_lint::independence::IndependenceMatrix)> = SCENARIOS
        .iter()
        .flat_map(|e| {
            ph_lint::independence::derive_all(&e.summaries(Variant::Buggy))
                .into_iter()
                .map(|m| (e.name, m))
        })
        .collect();

    if args.has("json") {
        let doc = json::object(|o| {
            o.raw("directives", &report.to_json())
                .raw("hazards", &table.to_json());
            let mut independence = o.arr("independence");
            for (scenario, m) in &matrices {
                independence
                    .obj()
                    .str("scenario", scenario)
                    .raw("matrix", &m.to_json());
            }
        });
        writeln!(out, "{doc}")?;
        return Ok(if violated { EXIT_VIOLATION } else { 0 });
    }

    writeln!(out, "-- ph-lint directives ({}) --", root.display())?;
    write!(out, "{}", report.render_text())?;
    writeln!(
        out,
        "\n-- independence matrices (perturbation alphabets, buggy variants) --"
    )?;
    for (scenario, m) in &matrices {
        write!(out, "{scenario} {}", m.render())?;
    }
    writeln!(
        out,
        "\n-- partial-history hazards (§4.2, buggy variants) --"
    )?;
    for row in &table.rows {
        let buggy = row.buggy_witnesses().into_iter().map(|w| ("", w));
        let fixed =
            (row.fixed.iter().flat_map(|r| r.witnesses())).map(|w| ("FIXED VARIANT FLAGGED ", w));
        for (flag, w) in buggy.chain(fixed) {
            writeln!(
                out,
                "  {}: {flag}{}/{} [{}] {} [witness: {}]",
                row.scenario,
                w.component,
                w.action,
                w.class,
                w.detail,
                w.schedule_text()
            )?;
        }
    }
    writeln!(out, "\n-- static cross-check --")?;
    write!(out, "{}", table.render_text())?;
    if violated {
        writeln!(
            out,
            "\nverdict: VIOLATION (stale directives or static/dynamic mismatch)"
        )?;
        Ok(EXIT_VIOLATION)
    } else {
        writeln!(out, "\nverdict: clean")?;
        Ok(0)
    }
}

/// `phtool check` — the symbolic side on its own: per-scenario model-check
/// verdicts (minimal witnesses on buggy variants, epoch-safety proofs on
/// fixed ones). Exits 3 when a buggy variant lacks a witness of its
/// documented class or a fixed variant fails to prove epoch-safe.
fn cmd_check(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let table = ph_scenarios::static_crosscheck();
    let violated = !table.all_static_agree();

    if args.has("json") {
        let doc = json::object(|o| {
            let mut modelcheck = o.arr("modelcheck");
            for r in &table.rows {
                modelcheck
                    .obj()
                    .str("scenario", &r.scenario)
                    .str("expected", r.expected.as_str())
                    .val("class_witnessed", r.class_witnessed())
                    .val("fixed_epoch_safe", r.fixed_epoch_safe())
                    .raws("buggy", r.buggy.iter().map(|b| b.to_json()));
            }
            drop(modelcheck);
            o.val("violated", violated);
        });
        writeln!(out, "{doc}")?;
        return Ok(if violated { EXIT_VIOLATION } else { 0 });
    }

    writeln!(out, "-- symbolic model check (witnesses / epoch-safety) --")?;
    for row in &table.rows {
        let states: usize = row.buggy.iter().map(|r| r.states_explored).sum();
        writeln!(
            out,
            "{}  expected {}  ({} state(s) explored)",
            row.scenario,
            row.expected.as_str(),
            states
        )?;
        for w in row.buggy_witnesses() {
            writeln!(out, "  buggy  witness: {}", w.render())?;
        }
        for r in &row.fixed {
            if r.is_epoch_safe() {
                writeln!(out, "  fixed  {}: epoch-safe (all actions)", r.component)?;
            } else {
                for w in r.witnesses() {
                    writeln!(out, "  fixed  UNEXPECTED witness: {}", w.render())?;
                }
            }
        }
        if !row.class_witnessed() {
            writeln!(out, "  MISMATCH: no witness of the documented class")?;
        }
    }

    if violated {
        writeln!(out, "\nverdict: VIOLATION (model-check mismatch)")?;
        Ok(EXIT_VIOLATION)
    } else {
        writeln!(out, "\nverdict: clean")?;
        Ok(0)
    }
}

/// `phtool repro` — print one of the paper's experiments, or all of them
/// in EXPERIMENTS.md order. `repro <id>` prints exactly what
/// `tests/golden/repro/<id>.txt` pins.
fn cmd_repro(args: &Args, out: &mut dyn Write) -> Result<i32, Failure> {
    let ids = || {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.join(" ")
    };
    match (&args.operand, args.has("all")) {
        (Some(id), false) => {
            let experiment = experiments::find(id)
                .ok_or_else(|| format!("unknown experiment {id:?} (try: {})", ids()))?;
            write!(out, "{}", (experiment.run)())?;
        }
        (None, true) => {
            for e in EXPERIMENTS {
                writeln!(out, "### {} ({}) — {}\n", e.id, e.paper_ref, e.title)?;
                writeln!(out, "{}", (e.run)())?;
            }
        }
        _ => return Err(format!("give one experiment id or --all (ids: {})", ids()).into()),
    }
    Ok(0)
}

/// Exit code when stdout closed before the output was written (a reader
/// such as `head` exited): 141, the status a shell reports for a process
/// that SIGPIPE ended, written quietly.
const EXIT_CLOSED: i32 = 141;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let mut out = std::io::stdout().lock();
    let result = match COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Some((name, flags, run)) => Args::parse(name, flags, rest)
            .map_err(Failure::Usage)
            .and_then(|args| run(&args, &mut out)),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => writeln!(out, "{}", usage())
            .map(|()| 0)
            .map_err(Failure::from),
        None => Err(Failure::Usage(format!(
            "unknown command {cmd:?}\n{}",
            usage()
        ))),
    };
    let result = result.and_then(|code| out.flush().map(|()| code).map_err(Failure::from));
    let (kind, message, code) = match result {
        Ok(code) => std::process::exit(code),
        Err(Failure::Closed) => std::process::exit(EXIT_CLOSED),
        Err(Failure::Usage(message)) => ("usage error", message, 2),
        Err(Failure::Runtime(message)) => ("error", message, 1),
    };
    eprintln!("{kind}: {message}");
    std::process::exit(code);
}

//! `phbench` — the repository's benchmark.
//!
//! ```text
//! phbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                   one worker: one workload, one pass, in
//!                                   this process (what BENCHMARK.json's
//!                                   `command` runs); the last stdout line
//!                                   is the result as one JSON object
//!         [--out FILE]              also write the rows (and, traced, the
//!                                   spans as FILE's sibling spans.json)
//! phbench run [--seed S] [--out FILE] [--quick]
//!                                   the whole suite: every workload in its
//!                                   own fresh worker process, timed pass
//!                                   then traced pass; prints every metric,
//!                                   writes rows + spans.json, exits
//!                                   non-zero iff a correctness check failed
//! phbench compare A.json B.json     one verdict per (end-to-end metric,
//!                                   workload); fails on a regression or on
//!                                   any change in an exact count
//! phbench selfcheck [--quick]       the suite twice on this build, then
//!                                   `compare` on the two (A/A agreement)
//! phbench manifest                  print BENCHMARK.json from the catalogue
//! ```
//!
//! `--quick` is the smoke mode: one iteration per workload, scale points
//! at 100 nodes. Its numbers are not comparable with the benchmark's.

#![forbid(unsafe_code)]

mod compare;
mod expect;
mod json;
mod metrics;
mod procfs;
mod replays;
mod spans;
mod stats;
mod worker;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::Row;
use worker::PassResult;
use workloads::Workload;

/// The checkout this binary was built in: the parent of the package
/// directory. The sources the lint replay scans live there.
fn checkout_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package directory has a parent")
}

/// `--key value` flags plus the valueless `--quick`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match key {
                "quick" => String::new(),
                "workload" | "seed" | "seconds" | "trace" | "out" => it
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?
                    .clone(),
                _ => return Err(format!("unknown flag --{key}")),
            };
            flags.push((key.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: {v:?} is not a number")),
        }
    }
}

/// The spans file that goes with a rows file.
fn spans_path(out: &Path) -> PathBuf {
    out.with_file_name("spans.json")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The contract's result line.
fn result_line(result: &PassResult) -> String {
    let metrics: Vec<String> = result
        .rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::esc(&r.metric),
                json::num(r.summary.median),
                json::esc(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.checks.failed == 0,
        result.checks.attempted,
        result.checks.failed,
        metrics.join(", ")
    )
}

/// One workload, one pass, in this process.
fn cmd_worker(flags: &Flags, process_start: Instant) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seed: u64 = flags.number("seed", expect::DEFAULT_SEED)?;
    let seconds: f64 = flags.number("seconds", metrics::RUN_SECONDS as f64)?;
    let quick = flags.get("quick").is_some();
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
    };
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }

    let result = if traced {
        worker::traced_pass(workload, seed, quick, checkout_root())?
    } else {
        worker::timed_pass(workload, seed, seconds, quick, process_start)?
    };
    for row in &result.rows {
        println!("{}", row.render());
    }
    for failure in &result.checks.failures {
        println!("FAILED CHECK: {failure}");
    }
    if let Some(out) = flags.get("out").map(Path::new) {
        write_file(out, &metrics::rows_document(seed, &result.rows))?;
        if traced {
            let pid = Workload::ALL
                .iter()
                .position(|w| *w == workload)
                .unwrap_or(0);
            write_file(
                &spans_path(out),
                &spans::to_chrome_trace(workload.name(), pid, &result.spans),
            )?;
        }
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload's two passes, each in a fresh worker process, and
/// returns the merged rows and whether every check passed.
fn run_suite(seed: u64, quick: bool, out: &Path) -> Result<(Vec<Row>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating phbench: {e}"))?;
    let scratch = out.with_extension("parts");
    let mut rows = Vec::new();
    let mut span_docs = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let part = scratch
                .join(format!("{}.{trace}", workload.name()))
                .join("rows.json");
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .arg("--out")
                .arg(&part);
            if quick {
                cmd.args(["--quick", "--seconds", "0"]);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("starting the {} worker: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, result) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{report}");
            if !output.status.success() {
                return Err(format!(
                    "the {} worker failed: {}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr).trim_end()
                ));
            }
            let result = json::parse(result)
                .map_err(|e| format!("the {} worker's result line: {e}", workload.name()))?;
            correct &= result.get("correct").and_then(json::Json::as_bool) == Some(true);
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("reading {}: {e}", part.display()))?;
            rows.extend(metrics::parse_rows_document(&text)?);
            if trace == "1" {
                let path = spans_path(&part);
                span_docs.push(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?,
                );
            }
        }
    }
    write_file(out, &metrics::rows_document(seed, &rows))?;
    write_file(&spans_path(out), &spans::merge_chrome_traces(&span_docs))?;
    std::fs::remove_dir_all(&scratch)
        .map_err(|e| format!("removing {}: {e}", scratch.display()))?;
    println!(
        "rows: {}  spans: {}  checks: {}",
        out.display(),
        spans_path(out).display(),
        if correct { "all passed" } else { "FAILED" }
    );
    Ok((rows, correct))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("seed", expect::DEFAULT_SEED)?;
    let out = PathBuf::from(flags.get("out").unwrap_or("phbench-out/rows.json"));
    let (_, correct) = run_suite(seed, flags.get("quick").is_some(), &out)?;
    Ok(exit_code(correct))
}

fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    metrics::parse_rows_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `true` when it passed.
fn report_comparison(a: &[Row], b: &[Row]) -> bool {
    let comparison = compare::compare(a, b);
    print!("{}", comparison.render());
    comparison.passed()
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: phbench compare A.json B.json".into());
    };
    Ok(exit_code(report_comparison(&read_rows(a)?, &read_rows(b)?)))
}

fn cmd_selfcheck(flags: &Flags) -> Result<ExitCode, String> {
    let quick = flags.get("quick").is_some();
    let (a, a_ok) = run_suite(
        expect::DEFAULT_SEED,
        quick,
        Path::new("phbench-out/selfcheck-a/rows.json"),
    )?;
    let (b, b_ok) = run_suite(
        expect::DEFAULT_SEED,
        quick,
        Path::new("phbench-out/selfcheck-b/rows.json"),
    )?;
    let agree = report_comparison(&a, &b);
    Ok(exit_code(a_ok && b_ok && agree))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("compare") => cmd_compare(&args[1..]),
        Some("selfcheck") => Flags::parse(&args[1..]).and_then(|f| cmd_selfcheck(&f)),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Flags::parse(&args).and_then(|f| cmd_worker(&f, process_start)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("phbench: {e}");
        ExitCode::from(2)
    })
}

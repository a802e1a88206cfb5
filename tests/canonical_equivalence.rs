//! Canonical-schedule equivalence, property-tested end to end.
//!
//! Three layers, all seeded and deterministic:
//!
//! 1. **Canon laws** (≥120 random schedules per scenario × variant ×
//!    component): `canonicalize` is idempotent, preserves the letter
//!    multiset, maps every commuting permutation of a schedule to the
//!    same representative, and never changes what the schedule *does* to
//!    the abstract model state (`apply_schedule`).
//! 2. **Dynamic runs**: a pair of footprint-disjoint concrete injections
//!    composed in both orders — one canonical class — produces
//!    byte-identical `RunReport` JSON on every scenario, buggy and fixed.
//! 3. **Matrix determinism**: `IndependenceMatrix` JSON is bit-stable
//!    across repeated derivation and across `phtool lint --json
//!    --threads 1/4` invocations.

use ph_core::{canonicalize, plan_class, PlannedOp};
use ph_lint::independence::IndependenceMatrix;
use ph_lint::modelcheck::{apply_schedule, enabled_alphabet, Letter};
use ph_scenarios::{scenario_statics, Variant};
use ph_sim::Duration;

const CASES_PER_COMPONENT: usize = 120;

/// splitmix64 — the same generator the explorer uses for trial seeds.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_schedule(alphabet: &[Letter], rng: &mut u64) -> Vec<Letter> {
    let len = (splitmix(rng) % 7) as usize;
    (0..len)
        .map(|_| alphabet[(splitmix(rng) % alphabet.len() as u64) as usize].clone())
        .collect()
}

/// Applies `swaps` random adjacent transpositions of *independent* pairs —
/// a walk through the schedule's commutation class.
fn commuting_permutation(
    schedule: &[Letter],
    matrix: &IndependenceMatrix,
    swaps: usize,
    rng: &mut u64,
) -> Vec<Letter> {
    let mut out = schedule.to_vec();
    if out.len() < 2 {
        return out;
    }
    for _ in 0..swaps {
        let i = 1 + (splitmix(rng) % (out.len() as u64 - 1)) as usize;
        if matrix.independent(&out[i - 1], &out[i]) {
            out.swap(i - 1, i);
        }
    }
    out
}

fn sorted(mut letters: Vec<Letter>) -> Vec<Letter> {
    letters.sort();
    letters
}

#[test]
fn canonicalization_laws_hold_on_every_scenario_alphabet() {
    let mut rng = 0xE9u64;
    for entry in scenario_statics() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            for summary in (entry.summaries)(variant) {
                let alphabet = enabled_alphabet(&summary);
                if alphabet.is_empty() {
                    continue;
                }
                let matrix = IndependenceMatrix::derive(&summary);
                for case in 0..CASES_PER_COMPONENT {
                    let schedule = random_schedule(&alphabet, &mut rng);
                    let canon = canonicalize(&schedule, &matrix);
                    let ctx = || {
                        format!(
                            "{}/{} {variant} case {case}: {schedule:?} -> {canon:?}",
                            entry.name, summary.component
                        )
                    };
                    // Idempotent, multiset-preserving.
                    assert_eq!(canonicalize(&canon, &matrix), canon, "{}", ctx());
                    assert_eq!(sorted(schedule.clone()), sorted(canon.clone()), "{}", ctx());
                    // Every commuting permutation lands on the same
                    // representative (the class really is a class).
                    let sibling = commuting_permutation(&schedule, &matrix, 8, &mut rng);
                    assert_eq!(canonicalize(&sibling, &matrix), canon, "{}", ctx());
                    // And the representative drives the abstract model to
                    // the same state — swapping independent letters is
                    // semantically invisible, which is exactly what lets
                    // the explorer skip non-canonical duplicates.
                    assert_eq!(
                        apply_schedule(&summary, &schedule),
                        apply_schedule(&summary, &canon),
                        "{}",
                        ctx()
                    );
                }
            }
        }
    }
}

#[test]
fn plan_class_is_invariant_under_commuting_permutations() {
    // Concrete planned ops with disjoint footprints: every interleaving
    // of the cache-hold and the component-cut is one class; same-view
    // reorderings and anchor changes split it.
    let hold = PlannedOp::new(Letter::DelayCache("cache:0".into()), "w1");
    let cut = PlannedOp::new(Letter::DropNotification("component:0".into()), "w2");
    let surge = PlannedOp::new(Letter::TrafficSurge("cache:0".into()), "w3");
    let ab = plan_class(&[hold.clone(), cut.clone()]);
    assert_eq!(ab, plan_class(&[cut.clone(), hold.clone()]));
    assert_ne!(
        plan_class(&[hold.clone(), surge.clone()]),
        plan_class(&[surge, hold])
    );
    let moved = PlannedOp::new(Letter::DelayCache("cache:0".into()), "other");
    assert_ne!(ab, plan_class(&[moved, cut]));
}

#[test]
fn commuting_injection_orders_produce_byte_identical_reports() {
    use ph_core::perturb::{Schedule, Strategy, TargetRef};
    use ph_scenarios::strategies::{hold_matching, partition_component, EventSelector};

    // A hold on cache 0 and a partition of component 0: disjoint views,
    // so the two compositions are one canonical class — and must be one
    // behavior, byte for byte, on every scenario and variant.
    let pair = |hold_first: bool| {
        let hold = hold_matching(
            TargetRef::Cache(0),
            EventSelector::key("zzz-untouched-key"),
            Duration::millis(100),
            None,
        );
        let cut = partition_component(0, Duration::millis(200), Duration::millis(450));
        let ops = if hold_first {
            [hold.ops, cut.ops]
        } else {
            [cut.ops, hold.ops]
        };
        Schedule::new("pair", ops.concat())
    };
    let mut rng = 0xCAFEu64;
    for entry in scenario_statics() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            for _ in 0..2 {
                let seed = splitmix(&mut rng);
                let (mut ab, mut ba) = (pair(true), pair(false));
                assert_eq!(
                    plan_class(&ab.planned_schedule().unwrap()),
                    plan_class(&ba.planned_schedule().unwrap()),
                    "{}: the pair must be one canonical class",
                    entry.name
                );
                let ra = (entry.run)(seed, &mut ab, variant);
                let rb = (entry.run)(seed, &mut ba, variant);
                assert_eq!(
                    ra.to_json(),
                    rb.to_json(),
                    "{} {variant} seed {seed}: commuting orders diverged",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn independence_matrix_json_is_deterministic() {
    for entry in scenario_statics() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            for summary in (entry.summaries)(variant) {
                let a = IndependenceMatrix::derive(&summary).to_json();
                let b = IndependenceMatrix::derive(&summary).to_json();
                assert_eq!(a, b, "{}/{}", entry.name, summary.component);
            }
        }
    }
}

#[test]
fn phtool_lint_json_is_deterministic() {
    let bin = env!("CARGO_BIN_EXE_phtool");
    let run = || {
        let out = std::process::Command::new(bin)
            .args(["lint", "--json"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("spawning phtool");
        let code = out.status.code();
        assert!(
            code == Some(0) || code == Some(3),
            "phtool lint exited {code:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = run();
    assert!(!one.is_empty());
    assert_eq!(one, run(), "same invocation diverged");
    // The independence section is present and carries per-pair
    // justifications.
    let text = String::from_utf8(one).unwrap();
    assert!(text.contains("\"independence\":["));
    assert!(text.contains("\"why\":"));
}

/// `run --json` prints the report alone on stdout, with or without
/// `--trace`: the trace file's status line goes to stderr.
#[test]
fn phtool_run_json_stdout_is_the_report_alone_with_a_trace() {
    let bin = env!("CARGO_BIN_EXE_phtool");
    let trace = std::env::temp_dir().join(format!("ph-run-json-{}.jsonl", std::process::id()));
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(bin)
            .args(["run", "--scenario", "k8s-59848", "--json"])
            .args(extra)
            .output()
            .expect("spawning phtool");
        assert_eq!(
            out.status.code(),
            Some(3),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let plain = run(&[]);
    let traced = run(&["--trace", trace.to_str().unwrap(), "--format", "jsonl"]);
    std::fs::remove_file(&trace).expect("the trace was written");
    assert_eq!(traced, plain);
}

/// Usage errors exit 2 and say what was wrong on stderr; a well-formed
/// command that cannot finish exits 1. (`lint --threads` is the flag this
/// suite itself used to pass — and phtool to ignore.)
#[test]
fn phtool_rejects_bad_command_lines_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_phtool");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("spawning phtool");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for (args, complaint) in [
        (&["frob"][..], "unknown command \"frob\""),
        (&["scale", "--bogusflag", "x"], "has no flag --bogusflag"),
        (&["lint", "--threads", "4"], "has no flag --threads"),
        (&["run", "--threads", "4"], "has no flag --threads"),
        (&["list", "--json"], "has no flag --json"),
        (&["scale", "--nodes"], "--nodes needs a value"),
        (&["scale", "--nodes", "many"], "--nodes wants a number"),
        (&["scale", "--nodes", "0"], "--nodes must be at least 1"),
        (&["scale", "--pods", "many"], "--pods wants a number"),
        (&["scale", "--pods", "0"], "--pods must be at least 1"),
        (&["matrix", "--trials", "0"], "--trials must be at least 1"),
        (
            &["hunt", "--scenario", "k8s-56261", "--budget", "0"],
            "--budget must be at least 1",
        ),
        (&["repro", "Z9"], "unknown experiment \"Z9\" (try: F1 F2"),
        (&["repro"], "give one experiment id or --all"),
        (&["repro", "F1", "--all"], "give one experiment id or --all"),
        (&["repro", "F1", "F2"], "unexpected argument"),
        (&["scale", "100"], "unexpected argument"),
        (&["run", "--scenario", "no-such"], "unknown scenario"),
        (&["run"], "--scenario is required"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
    let (code, stderr) = run(&[
        "run",
        "--scenario",
        "k8s-59848",
        "--trace",
        "/nonexistent-dir/trace.json",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: writing"), "{stderr}");
}

/// `phtool list` prints exactly the registry, and every scenario it prints
/// takes a causal hunt: labels and targets come from the scenario's own
/// value, so there is no wiring table for a scenario to be missing from.
#[test]
fn phtool_lists_the_registry_and_hunts_every_scenario() {
    let bin = env!("CARGO_BIN_EXE_phtool");
    let list = std::process::Command::new(bin)
        .arg("list")
        .output()
        .expect("spawning phtool");
    let text = String::from_utf8(list.stdout).unwrap();
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "scenarios:")
        .skip(1)
        .map_while(|l| l.strip_prefix("  "))
        .collect();
    let mut registered: Vec<&str> = ph_scenarios::SCENARIOS.iter().map(|s| s.name).collect();
    registered.sort_unstable();
    assert_eq!(listed, registered);

    for name in registered {
        let out = std::process::Command::new(bin)
            .args(["hunt", "--scenario", name, "--budget", "3", "--depth", "2"])
            .output()
            .expect("spawning phtool");
        let code = out.status.code();
        assert!(
            code == Some(0) || code == Some(3),
            "hunt {name} exited {code:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

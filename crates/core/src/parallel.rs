//! Deterministic parallel trial execution.
//!
//! The §7 outer loop is embarrassingly parallel — every trial is an
//! independent simulation pinned by its seed — but naive parallelism
//! destroys the property the whole methodology rests on: that a
//! [`TrialOutcome`] is a pure function of `(scenario, strategy, base
//! seed, budget)` and nothing else. This module provides parallelism that
//! provably preserves it:
//!
//! * **Seed derivation is positional, not sequential.** Trial `t` runs
//!   under [`derive_trial_seed`]`(base_seed, t)` — a splitmix64 evaluated
//!   *at* index `t` — so any worker can compute any trial's seed without
//!   knowing what the other workers are doing. (The old `base_seed + t`
//!   scheme had the same property but correlated neighbouring trials;
//!   splitmix64 decorrelates them for free.)
//! * **Results merge by trial index, never by completion order.** Workers
//!   deposit each report into a per-trial slot; the aggregation walks the
//!   slots `0, 1, 2, …`, so `total_events`/`total_sim_ns` are summed in
//!   trial order and `first_violation` is the *lowest* failing index — not
//!   the first to finish.
//! * **Early-cancel is cooperative and one-sided.** Once some trial `f`
//!   fails, trials with index `> f` become unnecessary and are skipped;
//!   trials `≤ f` are never skipped (the cancel cutoff only decreases, and
//!   never below the final first failure), so every slot the merge reads
//!   is guaranteed to be populated.
//!
//! The scheduler is one shared cursor over the trial range: workers claim
//! indices in ascending order, so the trials a cancelled explore started
//! are always a prefix `0..k` of the range. With one worker the jobs run
//! inline on the calling thread (no thread is spawned), which keeps that
//! thread's trial buffer pool warm across calls. Which worker runs a trial
//! never changes the trial's seed, nor where its result lands.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one deterministic worker pool"
)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::harness::{Explorer, RunReport, ScenarioFn, StrategyFactory, TrialOutcome};

/// Derives the seed of trial `trial_idx` from the explorer's root seed:
/// splitmix64 evaluated at index `trial_idx`.
///
/// The derivation is *positional* — a pure function of `(root_seed,
/// trial_idx)` — so workers racing in any order all agree on every
/// trial's seed.
pub fn derive_trial_seed(root_seed: u64, trial_idx: u32) -> u64 {
    // splitmix64 with its state advanced trial_idx + 1 steps from
    // root_seed, collapsed into one multiply (the increment is a constant
    // stride), then the standard finalizer.
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut z = root_seed.wrapping_add(GOLDEN.wrapping_mul(trial_idx as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `job(0), job(1), …, job(jobs - 1)` across `threads` workers and
/// returns the results **in job order** (index `i` holds `job(i)`),
/// regardless of which worker ran what when.
///
/// `job` must be deterministic in its index for the output to be
/// deterministic — that is the caller's contract, and everything in this
/// crate satisfies it (trials are pure functions of their seed).
pub fn run_indexed<T, F>(threads: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots = run_pool(threads, jobs as u32, None, |i| job(i as usize));
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("uncancelled job always completes")
        })
        .collect()
}

/// The shared pool core: runs `job` for indices `0..jobs`, depositing
/// each result in its index's slot. Workers claim indices from one cursor
/// in ascending order. If `cancel` is given, no index greater than its
/// current value is claimed (the slots from there on stay `None`); the
/// value only ever decreases (via `fetch_min` inside `job`), so the claimed
/// indices are a prefix `0..k` that covers every index at or below its
/// final value. One worker runs the jobs inline on the calling thread.
fn run_pool<T, F>(
    threads: usize,
    jobs: u32,
    cancel: Option<&AtomicU32>,
    job: F,
) -> Vec<Mutex<Option<T>>>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicU32::new(0);
    let work = || {
        // Claiming and the cancel check are one atomic step on the cursor,
        // so an index is claimed only if it runs. The cursor publishes no
        // data (results travel through the slots and the scope's join).
        while let Ok(i) = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
            let open = cancel.map_or(true, |c| i <= c.load(Ordering::Acquire));
            (i < jobs && open).then_some(i + 1)
        }) {
            let out = job(i);
            *slots[i as usize].lock().expect("slot poisoned") = Some(out);
        }
    };
    match threads.clamp(1, jobs.max(1) as usize) {
        1 => work(),
        workers => std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        }),
    }
    slots
}

/// What a worker records per trial: the built strategy's name (trial 0's
/// names the whole cell) plus the report.
struct TrialRecord {
    strategy_name: String,
    report: RunReport,
}

impl Explorer {
    /// Runs up to `max_trials` trials on `threads` workers, stopping at the
    /// first violation. The [`TrialOutcome`] is the same at any thread
    /// count: `first_violation` is the lowest failing trial index (found
    /// cooperatively), and `total_events`/`total_sim_ns` are summed in
    /// trial order over exactly the trials up to it.
    ///
    /// Trials whose (canonical schedule class, seed) pair already ran are
    /// skipped: with identical planned injections *and* an identical root
    /// seed the run is bit-for-bit the same simulation, so its verdict is
    /// already known — the dedup is verdict-preserving by construction.
    /// The seed stays in the key because scenario workloads are
    /// seed-sensitive (jitter derives from the trial seed): equal plans
    /// under different seeds are genuinely different runs and both
    /// execute. Strategies without a planned schedule (the random
    /// baselines) are never deduplicated.
    pub fn explore_parallel(
        &self,
        threads: usize,
        scenario_name: &str,
        scenario: &ScenarioFn<'_>,
        factory: &StrategyFactory<'_>,
    ) -> TrialOutcome {
        let n = self.max_trials;

        // Canonical-schedule dedup decisions are precomputed positionally
        // — a walk over planned schedules in trial order (cheap: no
        // simulation runs) — so every worker agrees on which trials are
        // duplicates, regardless of completion order. `*_prefix[t]` hold
        // the counter values after considering trials `0..=t`, so the
        // outcome reports them as of the first failure.
        let mut classes: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut ran: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
        let mut skip = vec![false; n as usize];
        let mut distinct_prefix = vec![0u32; n as usize];
        let mut deduped_prefix = vec![0u32; n as usize];
        let mut distinct = 0u32;
        let mut deduped = 0u32;
        for t in 0..n {
            let seed = self.trial_seed(t);
            match factory(seed).planned_schedule() {
                Some(ops) => {
                    let class = crate::canon::plan_class(&ops);
                    if classes.insert(class) {
                        distinct += 1;
                    }
                    if !ran.insert((class, seed)) {
                        deduped += 1;
                        skip[t as usize] = true;
                    }
                }
                None => distinct += 1,
            }
            distinct_prefix[t as usize] = distinct;
            deduped_prefix[t as usize] = deduped;
        }
        let skip = &skip;

        let cutoff = AtomicU32::new(u32::MAX);
        let slots = run_pool(threads, n, Some(&cutoff), |t| {
            if skip[t as usize] {
                return None;
            }
            let seed = self.trial_seed(t);
            let mut strategy = factory(seed);
            let strategy_name = strategy.name();
            let report = scenario(seed, strategy.as_mut());
            if report.failed() {
                // Publish "nothing above t is needed"; fetch_min keeps the
                // cutoff at the lowest failure seen so far.
                cutoff.fetch_min(t, Ordering::AcqRel);
            }
            Some(TrialRecord {
                strategy_name,
                report,
            })
        });

        // Merge in trial order, up to and including the first failure.
        let mut records: Vec<Option<Option<TrialRecord>>> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot poisoned"))
            .collect();
        let first_fail = records.iter().enumerate().find_map(|(t, r)| match r {
            Some(Some(rec)) if rec.report.failed() => Some(t as u32),
            _ => None,
        });
        let upto = first_fail.map_or(n, |f| f + 1);
        let mut strategy_name = String::new();
        let mut example = None;
        let mut executed = 0u32;
        let mut total_events = 0u64;
        let mut total_sim_ns = 0u64;
        let mut trial_sim_ns = Vec::with_capacity(upto as usize);
        for t in 0..upto {
            if skip[t as usize] {
                continue;
            }
            let rec = records[t as usize]
                .take()
                .expect("trials at or before the first failure always run")
                .expect("non-skipped trials always record");
            if t == 0 {
                strategy_name = rec.strategy_name;
            }
            executed += 1;
            total_events += rec.report.trace_events as u64;
            total_sim_ns += rec.report.sim_time.0;
            trial_sim_ns.push(rec.report.sim_time.0);
            if Some(t) == first_fail {
                example = Some(rec.report);
            }
        }
        let (distinct_classes, deduped_trials) = match upto.checked_sub(1) {
            Some(last) => (
                distinct_prefix[last as usize],
                deduped_prefix[last as usize],
            ),
            None => (0, 0),
        };
        TrialOutcome {
            scenario: scenario_name.to_string(),
            strategy: strategy_name,
            trials_run: executed,
            distinct_classes,
            deduped_trials,
            first_violation: first_fail.map(|f| f + 1),
            example,
            total_events,
            total_sim_ns,
            trial_sim_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence::DivergenceSummary;
    use crate::oracle::Violation;
    use crate::perturb::Strategy;
    use ph_sim::{MetricsReport, SimTime};

    /// A deterministic fake scenario: fails iff `seed % modulus == 0`;
    /// event count and sim-time derive from the seed so aggregate sums
    /// discriminate between orderings.
    fn fake(modulus: u64) -> impl Fn(u64, &mut dyn Strategy) -> RunReport + Sync {
        move |seed, strategy| RunReport {
            scenario: "fake".into(),
            strategy: strategy.name(),
            seed,
            violations: if seed % modulus == 0 {
                vec![Violation {
                    oracle: "o".into(),
                    at: SimTime(seed),
                    details: format!("seed {seed}"),
                }]
            } else {
                Vec::new()
            },
            sim_time: SimTime(seed % 1000),
            trace_events: (seed % 97) as usize,
            trace_digest: seed,
            metrics: MetricsReport::default(),
            divergence: DivergenceSummary::default(),
            blame: None,
        }
    }

    struct Named;
    impl Strategy for Named {
        fn name(&self) -> String {
            "named".into()
        }
    }

    fn factory(_seed: u64) -> Box<dyn Strategy> {
        Box::new(Named)
    }

    fn outcomes_equal(a: &TrialOutcome, b: &TrialOutcome) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.trials_run, b.trials_run);
        assert_eq!(a.distinct_classes, b.distinct_classes);
        assert_eq!(a.deduped_trials, b.deduped_trials);
        assert_eq!(a.first_violation, b.first_violation);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.total_sim_ns, b.total_sim_ns);
        assert_eq!(a.trial_sim_ns, b.trial_sim_ns);
        match (&a.example, &b.example) {
            (None, None) => {}
            (Some(x), Some(y)) => assert_eq!(x.to_json(), y.to_json()),
            _ => panic!("example presence diverged"),
        }
    }

    #[test]
    fn trial_seeds_are_positional_and_decorrelated() {
        let ex = Explorer {
            max_trials: 64,
            base_seed: 42,
        };
        let seeds: Vec<u64> = (0..64).map(|t| ex.trial_seed(t)).collect();
        // Stable under recomputation in any order.
        for (t, &s) in seeds.iter().enumerate().rev() {
            assert_eq!(derive_trial_seed(42, t as u32), s);
        }
        // All distinct (splitmix64 is a bijection over the stride).
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn parallel_matches_sequential_across_thread_counts() {
        for modulus in [3, 7, 1_000_000_007] {
            let ex = Explorer {
                max_trials: 33,
                base_seed: modulus,
            };
            let scenario = fake(modulus);
            let seq = ex.explore("fake", &scenario, &factory);
            for threads in [1, 2, 3, 4, 8] {
                let par = ex.explore_parallel(threads, "fake", &scenario, &factory);
                outcomes_equal(&seq, &par);
            }
        }
    }

    /// A strategy with a planned schedule whose anchor buckets the seed,
    /// so a handful of canonical classes recur across trials.
    struct Planned(u64);
    impl Strategy for Planned {
        fn name(&self) -> String {
            "planned".into()
        }
        fn planned_schedule(&self) -> Option<Vec<crate::canon::PlannedOp>> {
            Some(vec![crate::canon::PlannedOp::new(
                ph_lint::modelcheck::Letter::DelayCache("cache:0".into()),
                format!("bucket:{}", self.0 % 4),
            )])
        }
    }

    #[test]
    fn planned_strategies_agree_across_paths_and_count_classes() {
        let planned_factory = |seed: u64| Box::new(Planned(seed)) as Box<dyn Strategy>;
        for modulus in [5, 1_000_000_007] {
            let ex = Explorer {
                max_trials: 24,
                base_seed: modulus,
            };
            let scenario = fake(modulus);
            let seq = ex.explore("fake", &scenario, &planned_factory);
            // Seeds are distinct, so every bucket is a fresh (class, seed)
            // pair: nothing dedups, but the class census collapses to the
            // bucket count.
            assert_eq!(seq.deduped_trials, 0);
            assert!(seq.distinct_classes <= 4);
            assert!(seq.distinct_classes >= 1);
            for threads in [1, 2, 4, 8] {
                let par = ex.explore_parallel(threads, "fake", &scenario, &planned_factory);
                outcomes_equal(&seq, &par);
            }
        }
        // Strategies without a plan are never deduplicated: each trial is
        // its own class.
        let ex = Explorer {
            max_trials: 9,
            base_seed: 1_000_003,
        };
        let out = ex.explore("fake", &fake(1_000_000_007), &factory);
        assert_eq!(out.distinct_classes, out.trials_run);
        assert_eq!(out.deduped_trials, 0);
    }

    #[test]
    fn zero_trials_is_an_empty_outcome_in_both_paths() {
        let ex = Explorer {
            max_trials: 0,
            base_seed: 1,
        };
        let scenario = fake(2);
        let seq = ex.explore("fake", &scenario, &factory);
        let par = ex.explore_parallel(4, "fake", &scenario, &factory);
        outcomes_equal(&seq, &par);
        assert_eq!(par.trials_run, 0);
        assert!(par.example.is_none());
    }

    #[test]
    fn first_violation_is_the_lowest_failing_index() {
        // A modulus of 1 makes every trial fail; the winner must be trial
        // 1 (1-based) no matter how many workers race.
        let ex = Explorer {
            max_trials: 16,
            base_seed: 9,
        };
        let scenario = fake(1);
        for threads in [2, 4, 8] {
            let out = ex.explore_parallel(threads, "fake", &scenario, &factory);
            assert_eq!(out.first_violation, Some(1));
            assert_eq!(out.trials_run, 1);
            assert_eq!(out.example.as_ref().map(|r| r.seed), Some(ex.trial_seed(0)));
        }
    }

    #[test]
    fn run_indexed_returns_results_in_job_order() {
        for threads in [1, 2, 5] {
            let out = run_indexed(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(3, 0, |i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = run_indexed(1, 5, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller; 5]);
    }

    #[test]
    fn a_cancelled_explore_starts_a_prefix_of_the_trials() {
        let ex = Explorer {
            max_trials: 64,
            base_seed: 11,
        };
        let fails = fake(1);
        let started = Mutex::new(Vec::new());
        let scenario = |seed: u64, s: &mut dyn Strategy| {
            started.lock().expect("no job panicked").push(seed);
            fails(seed, s)
        };
        let out = ex.explore_parallel(8, "fake", &scenario, &factory);
        assert_eq!(out.first_violation, Some(1));
        // The started seeds are exactly those of trials 0..k.
        let mut started = started.into_inner().expect("no job panicked");
        let mut prefix: Vec<u64> = (0..started.len() as u32)
            .map(|t| ex.trial_seed(t))
            .collect();
        started.sort_unstable();
        prefix.sort_unstable();
        assert_eq!(started, prefix);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}

//! Pinned simulated statistics at the default seed.
//!
//! A change meant only to make the simulator faster or smaller must leave
//! every simulated statistic identical. These are the ones that survive a
//! re-bless of the trace digest (ROADMAP item 2 redefines the digest and
//! may stop counting `trace_events` the same way): detection outcomes,
//! simulated time, and the workload's own churn counters. Digests and
//! event counts are only checked for repeating within a run, never pinned.
//!
//! At any other seed, and in `--quick` mode, only the self-consistency
//! checks apply.

/// `--seed` of the defining run: the matrix base seed and the seed of
/// every other trial.
pub const DEFAULT_SEED: u64 = 1000;

/// First violating trial (1-based, 0 = not detected within 5 trials) per
/// matrix cell: rows are scenarios in name order, columns are
/// `workloads::STRATEGIES` in order.
#[rustfmt::skip]
pub const MATRIX_FIRST_VIOLATION: [[u8; 6]; 9] = [
    // guided, random-crash, crashtuner, cofi, traffic-surge, no-fault
    [1, 0, 0, 0, 0, 0], // cass-op-398
    [1, 0, 0, 0, 0, 0], // cass-op-400
    [1, 0, 0, 0, 1, 0], // cass-op-402
    [1, 0, 5, 0, 0, 0], // congestion
    [1, 1, 0, 1, 0, 0], // hbase-3136
    [1, 0, 0, 0, 0, 0], // k8s-56261
    [1, 0, 0, 0, 0, 0], // k8s-59848
    [1, 0, 3, 0, 0, 0], // node-fencing
    [1, 4, 0, 0, 0, 0], // volume-ctrl-17
];

/// Σ `RunReport.sim_time` over every trial of one `matrix` iteration.
pub const MATRIX_SIM_NS: u64 = 1_454_500_000_000;

/// Σ `RunReport.sim_time` over every trial of one `detect-explain`
/// iteration (the hunts' trials and the nine traced runs).
pub const DETECT_EXPLAIN_SIM_NS: u64 = 123_500_000_000;

/// The simulated statistics of one mega-cluster trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleStats {
    pub sim_ns: u64,
    pub pod_creates: u64,
    pub pod_deletes: u64,
    pub watcher_events: u64,
    /// Live watch-cache objects at churn end.
    pub cache_objects: u64,
}

pub const SCALE_1K: ScaleStats = ScaleStats {
    sim_ns: 4_200_000_000,
    pod_creates: 51_875,
    pod_deletes: 32_000,
    watcher_events: 166_502,
    cache_objects: 15_750,
};

pub const SCALE_5K: ScaleStats = ScaleStats {
    sim_ns: 4_200_000_000,
    pod_creates: 199_875,
    pod_deletes: 114_750,
    watcher_events: 628_252,
    cache_objects: 69_625,
};

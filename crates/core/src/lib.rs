//! # ph-core — partial histories: the model and the testing tool
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*"Reasoning about modern datacenter infrastructures using partial
//! histories"*, HotOS '21):
//!
//! * [`history`] — the formal model of §3: the history `H` of committed
//!   changes, the materialized state `S`, partial histories `H′ ⊆ H` that
//!   preserve relative order, per-component views `(H′, S′)`, and the
//!   divergence/staleness/time-travel metrics of §4.2;
//! * [`observe`] — the observability model: which events of `H` a component
//!   can reconstruct from *sparse reads* of `S′` (it cannot, in general —
//!   §3), and the gap analysis behind Figure 3c;
//! * [`epoch`] — the epoch-bounded delivery model sketched in §6.2:
//!   partition `H` into epochs and guarantee all-or-nothing visibility per
//!   epoch, trading coordination for bounded divergence;
//! * [`divergence`] — sampled per-view lag (`|H| − |H′|`) summaries, the
//!   measured counterpart of the §4.2 divergence metrics, folded into every
//!   [`harness::RunReport`];
//! * [`causality`] — happens-before recovery from simulation traces,
//!   used to pick perturbation points causally related to component
//!   decisions (§7);
//! * [`autoguide`] — the §7 automation loop: derive replayable
//!   perturbation candidates from a reference trace's causality and run
//!   them, no hand-tuning required;
//! * [`perturb`] — the §7 testing tool: a planned perturbation is a
//!   [`Schedule`] of plain-data [`Op`]s run by one interpreter — staleness
//!   (delay or hold cache updates), time travel (crash, restart against a
//!   stale upstream, replay held events), observability gaps (drop
//!   notifications, partitions) — plus the baseline fault injectors the
//!   paper compares against in §5/§6.1 (uniform random crashes,
//!   CrashTuner-style crash-after-view-update, CoFI-style partitions);
//! * [`oracle`] — test oracles over simulation traces and world state,
//!   with violation reports carrying the evidence;
//! * [`harness`] — the explorer: run a scenario under a strategy across
//!   seeds, count trials-to-first-violation, and build the detection
//!   matrices reported in EXPERIMENTS.md;
//! * [`parallel`] — the deterministic trial pool: one cursor handing out
//!   trial indices in ascending order (inline on the calling thread with
//!   one worker), positional splitmix64 seed derivation, order-stable
//!   merge by trial index, and cooperative early-cancel, so
//!   `explore_parallel(n)` is byte-identical at any thread count;
//! * [`provenance`] — the backward trace slicer: from a violating
//!   destructive action, walk the happens-before graph back to the injected
//!   perturbation and classify the resulting **blame chain** with the §4.2
//!   taxonomy (staleness / time-travel / observability-gap), cross-checkable
//!   against the static witness class from `ph-lint`;
//! * [`telemetry`] — hunt observability over a [`DetectionMatrix`]'s
//!   cells: per-trial latency histograms, events per simulated second,
//!   time-to-detection and injection effectiveness as [`TrialOutcome`]
//!   methods, rendered as a table or in Prometheus text-exposition format.
//!
//! The crate depends only on [`ph_sim`] (the substrate) and `ph_lint` (the
//! shared §4.2 [`ph_lint::summary::PatternClass`] taxonomy): the model and
//! tool are substrate-agnostic, and `ph-scenarios` wires them to the
//! Kubernetes-like stack in `ph-cluster`.
//!
//! ## The model in five lines
//!
//! ```
//! use ph_core::history::{ChangeOp, History, View};
//!
//! let mut h = History::new();                    // the ground truth H
//! h.append("pod", ChangeOp::Create);             // seq 1
//! h.append("pod", ChangeOp::Delete);             // seq 2
//! let mut view = View::new();                    // a component's (H′, S′)
//! view.observe(h.at(1).unwrap().clone());        // it saw the create…
//! assert!(view.history.is_partial_of(&h));       // …a valid partial history
//! assert_eq!(view.lag(&h), 1);                   // one event behind (stale)
//! assert!(view.state().contains_key("pod"));     // S′ disagrees with S:
//! assert!(h.state().is_empty());                 // the pod is long gone
//! ```

#![warn(missing_docs)]

pub mod autoguide;
pub mod canon;
pub mod causality;
pub mod crosscheck;
pub mod divergence;
pub mod epoch;
pub mod harness;
pub mod history;
pub mod observe;
pub mod oracle;
pub mod parallel;
pub mod perturb;
pub mod provenance;
pub mod telemetry;

pub use autoguide::{candidates, explore, AutoFinding, Candidate};
pub use canon::{canonicalize, canonicalize_ops, plan_class, ClassCensus, PlannedOp};
pub use causality::CausalGraph;
pub use divergence::{DivergenceSummary, ViewLag};
pub use epoch::{EpochBuffer, EpochPartition};
pub use harness::{DetectionMatrix, Explorer, RunReport, TrialOutcome};
pub use history::{Change, ChangeOp, FrontierLog, History, PartialHistory, View};
pub use observe::{observability_report, ObservabilityReport};
pub use oracle::{FnOracle, Oracle, UniqueExecutionOracle, Violation};
pub use parallel::{default_threads, derive_trial_seed, run_indexed};
pub use perturb::{
    CoFiPartitions, CrashTunerCrashes, NoFault, Op, RandomCrashes, Rule, Schedule, Strategy,
    TargetRef, Targets,
};
pub use provenance::{explain, BlameChain, BlameLink, BlameSpec, BlameSummary};

//! # ph-sim — deterministic discrete-event simulation runtime
//!
//! This crate is the substrate on which the rest of the `partial-histories`
//! workspace runs. It provides a *deterministic* discrete-event simulator for
//! message-passing distributed systems:
//!
//! * a logical clock with nanosecond resolution ([`SimTime`]),
//! * an actor model ([`Actor`], [`Ctx`]) with timers, crashes and restarts,
//! * a message network ([`net`]) with per-link latency, loss, partitions and
//!   optional finite-bandwidth drop-tail queues (congestion-emergent delay),
//! * a pluggable message [`Interceptor`] — the hook used by `ph-core`'s
//!   perturbation strategies to delay, drop, hold and replay notifications,
//! * a structured [`Trace`] of everything that happened, from which
//!   `ph-core` derives happens-before relations and oracles derive verdicts,
//! * a deterministic [`metrics`] registry (counters, gauges, histograms,
//!   spans) snapshotted into ordered [`MetricsReport`]s, and [`export`]ers
//!   rendering traces as JSONL or Chrome `trace_event` JSON for Perfetto.
//!
//! Every simulation is a pure function of `(topology, workload, seed)`:
//! re-running a [`World`] with the same inputs produces the *identical* trace,
//! which is what makes every bug reproduction in this workspace replayable.
//!
//! ## Quick example
//!
//! ```
//! use ph_sim::{Actor, Ctx, World, WorldConfig, AnyMsg, ActorId, TimerId};
//!
//! struct Ping { peer: Option<ActorId>, got: u32 }
//!
//! #[derive(Debug)]
//! struct Hello(u32);
//!
//! impl Actor for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, Hello(1));
//!         }
//!     }
//!     fn on_message(&mut self, _from: ActorId, msg: AnyMsg, _ctx: &mut Ctx) {
//!         let hello: &Hello = msg.downcast_ref().unwrap();
//!         self.got += hello.0;
//!     }
//!     fn on_timer(&mut self, _t: TimerId, _tag: u64, _ctx: &mut Ctx) {}
//! }
//!
//! let mut world = World::new(WorldConfig::default(), 42);
//! let a = world.spawn("ping-a", Ping { peer: None, got: 0 });
//! let b = world.spawn("ping-b", Ping { peer: Some(a), got: 0 });
//! let _ = b;
//! world.run_until_quiescent(1_000_000);
//! let ping_a = world.actor_ref::<Ping>(a).unwrap();
//! assert_eq!(ping_a.got, 1);
//! ```

#![warn(missing_docs)]

pub mod actor;
pub mod event;
pub mod export;
pub mod ids;
pub mod intercept;
pub mod metrics;
pub mod msg;
pub mod net;
pub mod rng;
pub mod time;
pub mod trace;
pub mod world;

pub use actor::{Actor, Ctx};
pub use event::Event;
pub use export::{trace_to_chrome, trace_to_jsonl};
pub use ids::{ActorId, MsgId, TimerId};
pub use intercept::{Interceptor, NullInterceptor, Verdict};
pub use metrics::{Histogram, MetricValue, Metrics, MetricsReport, DEFAULT_LATENCY_BOUNDS_NS};
pub use msg::{AnyMsg, Envelope};
pub use net::{LinkConfig, Network, Partition, SendOutcome};
pub use rng::SimRng;
pub use time::{Duration, SimTime};
pub use trace::{DropReason, Retention, Trace, TraceEvent, TraceEventKind};
pub use world::{World, WorldConfig};

//! # ph-cluster — a Kubernetes-like cluster management stack
//!
//! The infrastructure substrate the paper's bugs live in (§2, Figure 1):
//! a strongly consistent store (`ph-store`) at the bottom, *apiservers*
//! with watch caches above it, and components — *kubelets*, a *scheduler*,
//! *controllers*, and a Cassandra *operator* — that observe the cluster
//! state through client caches fed by notification streams. Every layer
//! adds a cache, and therefore a partial history.
//!
//! Components come in **buggy** and **fixed** variants, switched by
//! configuration, reproducing the real defects the paper cites:
//!
//! | Bug | Component | Pattern |
//! |---|---|---|
//! | Kubernetes-59848 | [`kubelet`] | time traveling (§2, §4.2.2, Figure 2) |
//! | Kubernetes-56261 | [`scheduler`] | missed deletion / staleness (§4.2.3) |
//! | controller bug [17] | [`controllers::VolumeController`] | observability gap (§4.2.3) |
//! | cassandra-operator-398/400/402 | [`operator`] | gaps / staleness (§7) |
//!
//! Layout:
//! * [`objects`] — the typed object model (pods, nodes, PVCs, …) and its
//!   store codec;
//! * [`api`] — apiserver wire messages;
//! * [`apiserver`] — the apiserver actor: watch-cache fed from the store,
//!   cache-or-quorum reads, write pass-through with optimistic concurrency,
//!   a rolling watch-event window ([7] in the paper);
//! * [`apiclient`] — embeddable apiserver client with retry and
//!   upstream-switching (the time-travel vector);
//! * [`informer`] — the client-go analog: list+watch reflector maintaining
//!   a local object cache `(H′, S′)`;
//! * [`kubelet`], [`scheduler`], [`controllers`], [`operator`] — the
//!   services;
//! * [`slab`] — the key-hash-sharded ordered map the apiserver's watch
//!   cache is stored in;
//! * [`topology`] — helpers that assemble whole clusters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod apiclient;
pub mod apiserver;
pub mod controllers;
pub mod informer;
pub mod kubelet;
pub mod objects;
pub mod operator;
pub mod scheduler;
pub mod slab;
pub mod topology;

pub use api::{ApiError, ApiOk, ApiRequest, ApiResponse, Verb};
pub use apiclient::{ApiClient, ApiClientConfig, ApiCompletion, PickPolicy};
pub use apiserver::{ApiServer, ApiServerConfig};
pub use informer::{Informer, InformerConfig, InformerEvent};
pub use kubelet::{Kubelet, KubeletConfig};
pub use objects::{Object, ObjectKind, ObjectMeta, PodPhase};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use slab::ShardedCache;
pub use topology::{spawn_cluster, ClusterConfig, ClusterHandle};

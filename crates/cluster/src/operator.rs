//! The Cassandra operator — the §7 case study.
//!
//! A reconcile-loop operator managing `CassandraDatacenter` resources: it
//! keeps `desired` Cassandra pods (each with a PVC) per datacenter, scales
//! up by creating `{dc}-pvc-{i}` then `{dc}-{i}`, and scales down by
//! decommissioning the highest-index pod (graceful delete → kubelet stops
//! and finalizes → PVC cleanup). All decisions read the operator's informer
//! caches — its `(H′, S′)`.
//!
//! The three real defects the paper's tool found (instaclustr
//! cassandra-operator issues 398, 400, 402) are the gate paths its two
//! destructive actions act under, chosen per defect by [`OperatorPaths`]:
//!
//! * **398** (`delete_pvc` = `observed-terminating`): `Reconcile()`
//!   deletes a PVC only if it *observed* the pod with a deletion timestamp;
//!   if the pod's mark+delete fell into an observability gap, the PVC is
//!   orphaned forever.
//! * **400** (`decommission` unfenced): decommission decisions trust the
//!   cached pod list; when the target is already gone (stale cache), the
//!   mark-delete returns NotFound and the buggy operator pins itself on the
//!   same target, blocking scale-down.
//! * **402** (`delete_pvc` = `orphan-in-cache`): orphaned-PVC cleanup
//!   trusts the cached pod list; a stale cache makes it delete the PVC of a
//!   live pod.
//!
//! The code branches on the paths' gates ([`GatePath::evidence`]), and
//! [`CassandraOperator::access_summary`] declares the same paths, so the
//! hazard checker reads what runs.

use std::collections::BTreeSet;

use ph_sim::{Actor, ActorId, AnyMsg, Ctx, Duration, TimerId};

use ph_lint::summary::{AccessSummary, ActionDecl, Evidence, Gate, GatePath};

use crate::api::{ApiError, ApiOk};
use crate::apiclient::{ApiClient, ApiClientConfig, ApiCompletion};
use crate::controllers::{orphan_confirmed, orphan_in_cache};
use crate::informer::{Informer, InformerConfig, InformerEvent};
use crate::objects::{Body, Object};

const TAG_TICK: u64 = 1;

/// The gate paths the operator's two destructive actions act under (see
/// module docs). [`OperatorPaths::buggy`] reproduces all three upstream
/// defects; [`OperatorPaths::fixed`] none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorPaths {
    /// `decommission-pod`: `scale-down`, fenced by NotFound recovery
    /// unless bug 400.
    pub decommission: GatePath,
    /// `delete-pvc`: `observed-terminating` (bug 398), `orphan-in-cache`
    /// (bug 402) or `orphan-confirmed` (fixed).
    pub delete_pvc: GatePath,
}

impl OperatorPaths {
    /// The shipped (defective) behaviour: 398's PVC path, unfenced.
    pub fn buggy() -> OperatorPaths {
        OperatorPaths::new(false, observed_terminating())
    }

    /// All three defects repaired.
    pub fn fixed() -> OperatorPaths {
        OperatorPaths::new(true, orphan_confirmed())
    }

    /// Only bug 398.
    pub fn cass_398() -> OperatorPaths {
        OperatorPaths::new(true, observed_terminating())
    }

    /// Only bug 400.
    pub fn cass_400() -> OperatorPaths {
        OperatorPaths::new(false, orphan_confirmed())
    }

    /// Only bug 402.
    pub fn cass_402() -> OperatorPaths {
        OperatorPaths::new(true, orphan_in_cache())
    }

    fn new(fenced_decommission: bool, delete_pvc: GatePath) -> OperatorPaths {
        OperatorPaths {
            decommission: scale_down(fenced_decommission),
            delete_pvc,
        }
    }
}

/// Decommission the highest-index pod the cache shows. `fenced`: NotFound
/// on the mark-delete is detected and the target re-derived, so the
/// destructive write is ordered after the true state (a fence in the
/// §4.2.2 sense).
fn scale_down(fenced: bool) -> GatePath {
    let mut gates = vec![Gate::CachePresence("pods".into())];
    if fenced {
        gates.push(Gate::Fence("pods".into()));
    }
    GatePath::new("scale-down", gates)
}

/// Delete a PVC only after witnessing its owner's transient terminating
/// mark: a missed-trigger observability gap (bug 398).
fn observed_terminating() -> GatePath {
    GatePath::new(
        "observed-terminating",
        vec![
            Gate::CacheAbsence("pods".into()),
            Gate::ObservedEvent("pods".into()),
        ],
    )
}

/// Operator tuning.
#[derive(Debug, Clone)]
pub struct OperatorConfig {
    /// How to reach the apiservers (use `ByInstance` to model the operator
    /// re-connecting elsewhere after a restart).
    pub api: ApiClientConfig,
    /// Reconcile interval.
    pub sync_interval: Duration,
    /// The gate paths the destructive actions act under.
    pub paths: OperatorPaths,
}

#[derive(Debug)]
enum PendingOp {
    /// A decommission mark in flight: the pod key.
    Decommission(String),
    /// A fresh owner-existence check guarding PVC deletion: the pvc key.
    ConfirmOrphan(String),
}

/// The Cassandra operator actor.
#[derive(Debug)]
pub struct CassandraOperator {
    cfg: OperatorConfig,
    /// `paths.decommission`'s evidence: `Fenced` recovers from NotFound.
    decommission_evidence: Evidence,
    /// `paths.delete_pvc`'s evidence: what an orphaned PVC waits for.
    pvc_evidence: Evidence,
    instance: u64,
    client: ApiClient,
    dcs: Informer,
    pods: Informer,
    pvcs: Informer,
    /// Pod names we have *observed* carrying a deletion timestamp (the
    /// evidence bug 398 insists on).
    observed_terminating: BTreeSet<String>,
    /// PVC keys already deleted.
    released: BTreeSet<String>,
    /// Decommission target the buggy-400 path is stuck on, if any.
    stuck_on: Option<String>,
    pending: std::collections::BTreeMap<u64, PendingOp>,
    /// Pod/PVC creates already issued (dedup until visible).
    creating: BTreeSet<String>,
}

impl CassandraOperator {
    /// Creates an operator (spawn it into a world).
    ///
    /// # Panics
    ///
    /// Panics if a path demands evidence its action has no code for: a
    /// decommission path is fenced or cached, and a PVC delete carries no
    /// precondition, so it is never fenced.
    pub fn new(cfg: OperatorConfig) -> CassandraOperator {
        let decommission_evidence = cfg.paths.decommission.evidence();
        assert!(
            matches!(decommission_evidence, Evidence::Fenced | Evidence::Cached),
            "decommission-pod cannot act on {decommission_evidence:?} evidence"
        );
        let pvc_evidence = cfg.paths.delete_pvc.evidence();
        assert!(
            pvc_evidence != Evidence::Fenced,
            "delete-pvc carries no precondition to fence it"
        );
        let client = ApiClient::new(cfg.api.clone(), 0);
        let [dcs, pods, pvcs] = Self::informers().map(Informer::new);
        CassandraOperator {
            cfg,
            decommission_evidence,
            pvc_evidence,
            instance: 0,
            client,
            dcs,
            pods,
            pvcs,
            observed_terminating: BTreeSet::new(),
            released: BTreeSet::new(),
            stuck_on: None,
            pending: std::collections::BTreeMap::new(),
            creating: BTreeSet::new(),
        }
    }

    /// The operator's views: datacenters, pods and PVCs, cache-listed.
    fn informers() -> [InformerConfig; 3] {
        ["cassdcs/", "pods/", "pvcs/"].map(InformerConfig::new)
    }

    /// The static access protocol an operator built from `cfg` follows,
    /// for the partial-history hazard checker: its views, and the gate
    /// paths its code acts under (see [`OperatorPaths`]).
    pub fn access_summary(cfg: &OperatorConfig) -> AccessSummary {
        AccessSummary {
            component: "cassandra-operator".into(),
            upstream_switch: cfg.api.upstream_switch(),
            views: (Self::informers().iter())
                .map(InformerConfig::view_decl)
                .collect(),
            actions: vec![
                ActionDecl {
                    name: "create-pod".into(),
                    destructive: false,
                    paths: vec![GatePath::new(
                        "missing-replica",
                        vec![Gate::CacheAbsence("pods".into())],
                    )],
                },
                ActionDecl {
                    name: "decommission-pod".into(),
                    destructive: true,
                    paths: vec![cfg.paths.decommission.clone()],
                },
                ActionDecl {
                    name: "delete-pvc".into(),
                    destructive: true,
                    paths: vec![cfg.paths.delete_pvc.clone()],
                },
            ],
        }
    }

    /// PVC keys the operator has deleted.
    pub fn released(&self) -> &BTreeSet<String> {
        &self.released
    }

    /// The decommission target the operator is wedged on (bug 400), if any.
    pub fn stuck_on(&self) -> Option<&str> {
        self.stuck_on.as_deref()
    }

    /// The most-behind frontier across this operator's informers (for lag
    /// sampling).
    pub fn view_revision(&self) -> ph_store::Revision {
        self.dcs
            .revision()
            .min(self.pods.revision())
            .min(self.pvcs.revision())
    }

    /// Deletes a PVC under the `delete_pvc` path, annotated with its name.
    fn delete_pvc(&mut self, pvc_key: String, ctx: &mut Ctx) {
        if !self.released.insert(pvc_key.clone()) {
            return;
        }
        let why = &self.cfg.paths.delete_pvc.name;
        ctx.annotate("operator.delete_pvc", format!("{pvc_key} ({why})"));
        ctx.counter_inc("operator.pvc_deletes");
        self.client.delete(pvc_key, ctx);
    }

    fn reconcile(&mut self, ctx: &mut Ctx) {
        if !self.dcs.is_synced() || !self.pods.is_synced() || !self.pvcs.is_synced() {
            return;
        }
        ctx.span_begin("reconcile", "cassandra-operator");
        self.reconcile_inner(ctx);
        ctx.span_end("reconcile");
    }

    fn reconcile_inner(&mut self, ctx: &mut Ctx) {
        // Record deletion-timestamp observations (evidence for bug 398).
        for pod in self.pods.objects() {
            if pod.is_terminating() {
                self.observed_terminating.insert(pod.meta.name.clone());
            }
        }
        let dcs: Vec<(String, u32)> = self
            .dcs
            .objects()
            .filter_map(|o| match &o.body {
                Body::CassandraDatacenter { desired } => Some((o.meta.name.clone(), *desired)),
                _ => None,
            })
            .collect();
        for (dc, desired) in dcs {
            self.reconcile_dc(&dc, desired, ctx);
        }
        self.cleanup_pvcs(ctx);
        let visible: BTreeSet<String> = self
            .pods
            .objects()
            .chain(self.pvcs.objects())
            .map(|o| o.key().as_str().to_string())
            .collect();
        self.creating.retain(|k| !visible.contains(k));
    }

    fn reconcile_dc(&mut self, dc: &str, desired: u32, ctx: &mut Ctx) {
        // Cassandra pods of this dc, from the cached view.
        let mine: Vec<Object> = self
            .pods
            .objects()
            .filter(|o| o.meta.owner.as_deref() == Some(dc))
            .cloned()
            .collect();
        let live: Vec<&Object> = mine.iter().filter(|o| !o.is_terminating()).collect();

        if (live.len() as u32) < desired {
            // Scale up: create PVC before pod (the real operator's order —
            // and the window bug 402's staleness exploits).
            for i in 0..desired {
                let pod_name = format!("{dc}-{i}");
                let pod_key = format!("pods/{pod_name}");
                if mine.iter().any(|o| o.meta.name == pod_name) || self.creating.contains(&pod_key)
                {
                    continue;
                }
                let pvc_name = format!("{dc}-pvc-{i}");
                let pvc_key = format!("pvcs/{pvc_name}");
                if self.pvcs.get(&pvc_key).is_none() && !self.creating.contains(&pvc_key) {
                    self.client
                        .create(&Object::pvc(pvc_name.clone(), pod_name.clone()), ctx);
                    self.creating.insert(pvc_key);
                }
                let mut pod = Object::pod(pod_name.clone(), None, Some(pvc_name));
                pod.meta.owner = Some(dc.to_string());
                ctx.annotate("operator.create_pod", pod_name);
                ctx.counter_inc("operator.pod_creates");
                self.client.create(&pod, ctx);
                self.creating.insert(pod_key);
            }
        } else if (live.len() as u32) > desired {
            // Scale down: decommission the highest-index live pod.
            // Cassandra decommissions are serial: wait for any draining pod
            // to fully leave before picking the next target.
            if mine.iter().any(|o| o.is_terminating()) {
                return;
            }
            if self
                .pending
                .values()
                .any(|p| matches!(p, PendingOp::Decommission(_)))
            {
                return; // one decommission at a time
            }
            let target = if let Some(stuck) = &self.stuck_on {
                // Buggy 400: wedged on a target the cache said existed.
                stuck.clone()
            } else {
                let mut names: Vec<String> = live.iter().map(|o| o.meta.name.clone()).collect();
                names.sort();
                match names.pop() {
                    Some(n) => format!("pods/{n}"),
                    None => return,
                }
            };
            ctx.annotate("operator.decommission", target.clone());
            ctx.counter_inc("operator.decommissions");
            // One decommission is in flight at a time, so this span pairs
            // unambiguously with the span_end in on_done and measures the
            // real mark-to-completion latency across callbacks.
            ctx.span_begin("decommission", target.clone());
            let req = self.client.mark_deleted(target.clone(), ctx);
            self.pending.insert(req, PendingOp::Decommission(target));
        }
    }

    fn cleanup_pvcs(&mut self, ctx: &mut Ctx) {
        let candidates: Vec<(String, String, String)> = self
            .pvcs
            .objects()
            .filter_map(|pvc| {
                let key = pvc.key().as_str().to_string();
                if self.released.contains(&key) {
                    return None;
                }
                let owner = pvc.meta.owner.clone()?;
                Some((key, format!("pods/{owner}"), owner))
            })
            .collect();
        for (pvc_key, owner_key, owner) in candidates {
            if self.pods.get(&owner_key).is_some() {
                continue; // owner visible: nothing to clean
            }
            match self.pvc_evidence {
                Evidence::Observed => {
                    // Bug 398: without the observed deletion timestamp,
                    // the reconcile loop refuses to clean up — the PVC
                    // leaks.
                    if self.observed_terminating.contains(&owner) {
                        self.delete_pvc(pvc_key, ctx);
                    }
                }
                Evidence::Fresh => {
                    // Fixed path: also skip anything we are mid-creating —
                    // the quorum read would race our own uncommitted
                    // create.
                    if self.creating.contains(&owner_key) {
                        continue;
                    }
                    if self
                        .pending
                        .values()
                        .any(|p| matches!(p, PendingOp::ConfirmOrphan(k) if *k == pvc_key))
                    {
                        continue;
                    }
                    let req = self.client.get(owner_key, true, ctx);
                    self.pending.insert(req, PendingOp::ConfirmOrphan(pvc_key));
                }
                Evidence::Cached | Evidence::Fenced => {
                    // Bug 402: trust the cache — deliberately no
                    // in-flight-create guard either: the shipped operator
                    // judged orphanhood purely from its (possibly stale)
                    // listed snapshot. (`new` rejects a fenced path.)
                    self.delete_pvc(pvc_key, ctx);
                }
            }
        }
    }

    fn on_done(&mut self, op: PendingOp, result: &Result<ApiOk, ApiError>, ctx: &mut Ctx) {
        match op {
            PendingOp::Decommission(target) => match result {
                Err(ApiError::NotFound) => {
                    ctx.span_end("decommission");
                    if self.decommission_evidence == Evidence::Fenced {
                        // Fixed: the cache was stale; drop the target and
                        // let the next reconcile re-derive it.
                        self.stuck_on = None;
                        ctx.annotate("operator.decommission_skipped", target);
                    } else {
                        // Bug 400: wedge on the phantom target forever.
                        ctx.annotate("operator.decommission_stuck", target.clone());
                        ctx.counter_inc("operator.decommission_stuck");
                        self.stuck_on = Some(target);
                    }
                }
                _ => {
                    ctx.span_end("decommission");
                    self.stuck_on = None;
                }
            },
            PendingOp::ConfirmOrphan(pvc_key) => {
                if let Ok(ApiOk::Obj(None)) = result {
                    self.delete_pvc(pvc_key, ctx);
                }
            }
        }
    }
}

impl Actor for CassandraOperator {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        let instance = self.instance + 1;
        let cfg = self.cfg.clone();
        *self = CassandraOperator::new(cfg);
        self.instance = instance;
        self.client = ApiClient::new(self.cfg.api.clone(), instance);
        ctx.annotate("operator.restart", instance.to_string());
        self.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: AnyMsg, ctx: &mut Ctx) {
        let mut completions = Vec::new();
        if !self.client.on_message(from, &msg, ctx, &mut completions) {
            return;
        }
        let mut events: Vec<InformerEvent> = Vec::new();
        for c in &completions {
            if self
                .dcs
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            if self
                .pods
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            if self
                .pvcs
                .on_completion(c, &mut self.client, ctx, &mut events)
            {
                continue;
            }
            if let ApiCompletion::Done { req, result } = c {
                if let Some(op) = self.pending.remove(req) {
                    self.on_done(op, result, ctx);
                }
            }
        }
        // Reconciliation happens on the timer only (the real operator's
        // level-triggered loop) — except terminating-pod observations,
        // which must be recorded as seen.
        for e in &events {
            if let InformerEvent::Updated { new, .. } | InformerEvent::Added(new) = e {
                if new.kind() == crate::objects::ObjectKind::Pod && new.is_terminating() {
                    self.observed_terminating.insert(new.meta.name.clone());
                }
            }
        }
    }

    fn on_timer(&mut self, _t: TimerId, tag: u64, ctx: &mut Ctx) {
        if tag == TAG_TICK {
            self.client.tick(ctx);
            self.dcs.poll(&mut self.client, ctx);
            self.pods.poll(&mut self.client, ctx);
            self.pvcs.poll(&mut self.client, ctx);
            self.reconcile(ctx);
            ctx.set_timer(self.cfg.sync_interval, TAG_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_presets() {
        let evidence = |p: OperatorPaths| (p.decommission.evidence(), p.delete_pvc.evidence());
        use Evidence::{Cached, Fenced, Fresh, Observed};
        assert_eq!(evidence(OperatorPaths::buggy()), (Cached, Observed));
        assert_eq!(evidence(OperatorPaths::fixed()), (Fenced, Fresh));
        assert_eq!(evidence(OperatorPaths::cass_398()), (Fenced, Observed));
        assert_eq!(evidence(OperatorPaths::cass_400()), (Cached, Fresh));
        assert_eq!(evidence(OperatorPaths::cass_402()), (Fenced, Cached));
    }

    #[test]
    fn construction() {
        let op = CassandraOperator::new(OperatorConfig {
            api: ApiClientConfig::new(vec![ActorId(0)]),
            sync_interval: Duration::millis(100),
            paths: OperatorPaths::buggy(),
        });
        assert!(op.released().is_empty());
        assert!(op.stuck_on().is_none());
    }
}

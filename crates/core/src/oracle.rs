//! Test oracles: safety checks over traces and world state.
//!
//! §6.2 asks "what workloads and test oracles to use?" — our answer mirrors
//! the paper's practice: scenario authors supply system-specific oracles
//! (easy to express as closures over the [`ph_sim::World`], via
//! [`FnOracle`]), while common safety shapes ship here. The flagship
//! reusable oracle is [`UniqueExecutionOracle`]: *no entity may be executed
//! by two components at once* — exactly the "critical pod safety guarantee"
//! Kubernetes-59848 violates (two kubelets running the same pod).
//!
//! Components advertise their actions through trace annotations with
//! conventional labels; oracles read those annotations plus any direct
//! world state the scenario exposes.

use ph_lint::json;
use ph_sim::{ActorId, SimTime, TraceEventKind, World};

/// A detected safety violation, with the evidence to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: String,
    /// Logical time of detection.
    pub at: SimTime,
    /// Human-readable account of what went wrong.
    pub details: String,
}

impl Violation {
    /// Deterministic JSON object — the shape run reports and blame chains
    /// both embed.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("oracle", &self.oracle)
                .val("at_ns", self.at.0)
                .str("details", &self.details);
        })
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} @ {}] {}", self.oracle, self.at, self.details)
    }
}

/// A safety/liveness check evaluated against the running world.
///
/// `check` may be called repeatedly during a run and once at the end; it
/// must be idempotent (re-reporting the same violation is fine — the
/// harness deduplicates on `details`).
pub trait Oracle {
    /// The oracle's name (appears in [`Violation::oracle`]).
    fn name(&self) -> String;

    /// Inspect the world; report any violations visible now.
    fn check(&mut self, world: &World) -> Vec<Violation>;
}

/// Wraps a closure as an oracle — the vehicle for scenario-specific checks.
pub struct FnOracle<F> {
    name: String,
    f: F,
}

impl<F> FnOracle<F>
where
    F: FnMut(&World) -> Vec<String>,
{
    /// Creates an oracle that reports each returned string as a violation.
    pub fn new(name: impl Into<String>, f: F) -> FnOracle<F> {
        FnOracle {
            name: name.into(),
            f,
        }
    }
}

impl<F> Oracle for FnOracle<F>
where
    F: FnMut(&World) -> Vec<String>,
{
    fn name(&self) -> String {
        self.name.clone()
    }

    fn check(&mut self, world: &World) -> Vec<Violation> {
        (self.f)(world)
            .into_iter()
            .map(|details| Violation {
                oracle: self.name.clone(),
                at: world.now(),
                details,
            })
            .collect()
    }
}

/// Checks that no entity is ever "executed" by two actors simultaneously.
///
/// Convention: an actor annotates `start_label` with the entity name when it
/// begins running the entity, and `stop_label` when it stops (crashes also
/// implicitly stop everything the actor was running). Overlapping run
/// intervals on *different* actors violate the guarantee.
#[derive(Debug, Clone)]
pub struct UniqueExecutionOracle {
    start_label: String,
    stop_label: String,
}

impl UniqueExecutionOracle {
    /// Creates the oracle for a start/stop annotation pair, e.g.
    /// `("kubelet.pod_start", "kubelet.pod_stop")`.
    pub fn new(start_label: impl Into<String>, stop_label: impl Into<String>) -> Self {
        UniqueExecutionOracle {
            start_label: start_label.into(),
            stop_label: stop_label.into(),
        }
    }
}

impl Oracle for UniqueExecutionOracle {
    fn name(&self) -> String {
        format!("unique-execution({})", self.start_label)
    }

    fn check(&mut self, world: &World) -> Vec<Violation> {
        // Replay the annotation stream, tracking who currently runs what.
        use std::collections::BTreeMap;
        let mut running: BTreeMap<String, BTreeMap<ActorId, SimTime>> = BTreeMap::new();
        let mut out = Vec::new();
        for e in world.trace().iter() {
            match &e.kind {
                TraceEventKind::Annotation { actor, label, data } => {
                    if *label == self.start_label {
                        let holders = running.entry(data.clone()).or_default();
                        holders.insert(*actor, e.at);
                        if holders.len() > 1 {
                            let who: Vec<String> = holders
                                .keys()
                                .map(|a| world.name_of(*a).to_string())
                                .collect();
                            out.push(Violation {
                                oracle: self.name(),
                                at: e.at,
                                details: format!(
                                    "entity {:?} running on {} actors at once: {}",
                                    data,
                                    holders.len(),
                                    who.join(", ")
                                ),
                            });
                        }
                    } else if *label == self.stop_label {
                        if let Some(holders) = running.get_mut(data) {
                            holders.remove(actor);
                        }
                    }
                }
                TraceEventKind::Crashed { actor } => {
                    // A crash stops everything the actor was running.
                    for holders in running.values_mut() {
                        holders.remove(actor);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Runs every oracle and returns the deduplicated union of violations.
pub fn check_all(oracles: &mut [Box<dyn Oracle>], world: &World) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    for o in oracles.iter_mut() {
        for v in o.check(world) {
            if !out
                .iter()
                .any(|x| x.oracle == v.oracle && x.details == v.details)
            {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sim::{Actor, AnyMsg, Ctx, World, WorldConfig};

    struct Annotator;
    impl Actor for Annotator {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_message(&mut self, _f: ActorId, _m: AnyMsg, _c: &mut Ctx) {}
    }

    fn world_with(n: usize) -> (World, Vec<ActorId>) {
        let mut w = World::new(WorldConfig::default(), 1);
        let ids = (0..n)
            .map(|i| w.spawn(&format!("node-{i}"), Annotator))
            .collect();
        (w, ids)
    }

    fn start(w: &mut World, a: ActorId, entity: &str) {
        w.invoke::<Annotator, _>(a, |_, ctx| ctx.annotate("run.start", entity.to_string()));
    }
    fn stop(w: &mut World, a: ActorId, entity: &str) {
        w.invoke::<Annotator, _>(a, |_, ctx| ctx.annotate("run.stop", entity.to_string()));
    }

    fn oracle() -> UniqueExecutionOracle {
        UniqueExecutionOracle::new("run.start", "run.stop")
    }

    #[test]
    fn sequential_handoff_is_clean() {
        let (mut w, ids) = world_with(2);
        start(&mut w, ids[0], "p1");
        stop(&mut w, ids[0], "p1");
        start(&mut w, ids[1], "p1");
        assert!(oracle().check(&w).is_empty());
    }

    #[test]
    fn concurrent_execution_is_flagged() {
        let (mut w, ids) = world_with(2);
        start(&mut w, ids[0], "p1");
        start(&mut w, ids[1], "p1");
        let v = oracle().check(&w);
        assert_eq!(v.len(), 1);
        assert!(v[0].details.contains("p1"));
        assert!(v[0].details.contains("node-0") && v[0].details.contains("node-1"));
    }

    #[test]
    fn different_entities_do_not_conflict() {
        let (mut w, ids) = world_with(2);
        start(&mut w, ids[0], "p1");
        start(&mut w, ids[1], "p2");
        assert!(oracle().check(&w).is_empty());
    }

    #[test]
    fn same_actor_restarting_an_entity_is_fine() {
        let (mut w, ids) = world_with(1);
        start(&mut w, ids[0], "p1");
        start(&mut w, ids[0], "p1"); // idempotent re-assert
        assert!(oracle().check(&w).is_empty());
    }

    #[test]
    fn crash_releases_everything_the_actor_ran() {
        let (mut w, ids) = world_with(2);
        start(&mut w, ids[0], "p1");
        w.crash(ids[0]);
        w.restart(ids[0]);
        start(&mut w, ids[1], "p1");
        assert!(oracle().check(&w).is_empty(), "crash must release p1");
    }

    #[test]
    fn fn_oracle_wraps_closures_and_check_all_dedups() {
        let (w, _ids) = world_with(1);
        let mut oracles: Vec<Box<dyn Oracle>> = vec![
            Box::new(FnOracle::new("always", |_w: &World| vec!["bad".into()])),
            Box::new(FnOracle::new("always", |_w: &World| vec!["bad".into()])),
            Box::new(FnOracle::new("never", |_w: &World| Vec::new())),
        ];
        let v = check_all(&mut oracles, &w);
        assert_eq!(v.len(), 1, "identical reports deduplicate");
        assert_eq!(v[0].oracle, "always");
        assert!(v[0].to_string().contains("bad"));
    }
}

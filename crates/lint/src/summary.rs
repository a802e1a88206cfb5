//! The `AccessSummary` IR and the partial-history hazard checker.
//!
//! Every controller in ph-cluster interacts with cluster state through a
//! *view* — a cache fed by list + watch — and takes actions gated on what
//! that view shows. The paper's §4.2 taxonomy says exactly three things go
//! wrong with such views: they can be **stale**, they can **travel back in
//! time** when a controller switches upstreams, and they can have
//! **observability gaps** where an intermediate state or a liveness fact is
//! never seen at all. All three are properties of the *access protocol*,
//! not of any particular execution — which makes them statically checkable
//! from a declarative summary of how each component reads and acts.
//!
//! An [`AccessSummary`] declares, per component:
//! * its views ([`ViewDecl`]): resource, list freshness, watch/replay
//!   properties, periodic resync;
//! * whether it can switch upstream apiservers mid-life (`upstream_switch`
//!   — the §4.2.2 time-travel vector);
//! * its actions ([`ActionDecl`]): destructive or not, and the *gate
//!   paths* that justify them — an OR of AND-ed [`Gate`]s. An action fires
//!   when any one path's gates all hold.
//!
//! Gates model **observed state**, not desired spec: reading a CRD's
//! `desired` count from cache is intent propagation (monotone, safe to act
//! on eventually), while reading which pods exist is an observation whose
//! staleness the checker reasons about.
//!
//! [`check_summary`] then applies five rules (see the module-level rules in
//! `DESIGN.md`): wrongful-action staleness, time travel, silence gaps,
//! missed-trigger gaps, and congestion staleness. The checker is deliberately conservative in one
//! direction only: paths gated on an observed *event* are sound evidence
//! (events, unlike snapshots, cannot claim a state that never existed), so
//! they are exempt from the staleness rules but are exactly what the
//! missed-trigger rule inspects.

use crate::json;

/// The §4.2 bug-pattern taxonomy (plus the load-emergent refinement).
///
/// Kept in this declaration order — new classes append at the end — because
/// the derived `Ord` is what the model checker's found-class ranges and the
/// crosscheck tables sort by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternClass {
    /// §4.2.1 — acting on an old-but-once-true view.
    Staleness,
    /// §4.2.2 — the view moves backwards across an upstream switch.
    TimeTravel,
    /// §4.2.3 — a state or liveness fact the view can never show.
    ObservabilityGap,
    /// §4.1 — staleness that *emerges from load*: the view's feed rides a
    /// saturable link, so queueing delay/tail drops alone (no injected
    /// fault) can age the view past an unfenced destructive action.
    CongestionStaleness,
}

impl PatternClass {
    /// Stable serialized name.
    pub fn as_str(&self) -> &'static str {
        match self {
            PatternClass::Staleness => "staleness",
            PatternClass::TimeTravel => "time-travel",
            PatternClass::ObservabilityGap => "observability-gap",
            PatternClass::CongestionStaleness => "congestion-staleness",
        }
    }
}

impl std::fmt::Display for PatternClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a view's initial (and re-) list is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Served from an apiserver watch cache — possibly stale.
    Cache,
    /// Served with a quorum / linearizable read — fresh at read time.
    Quorum,
}

/// One view a component maintains over a resource.
#[derive(Debug, Clone)]
pub struct ViewDecl {
    /// Resource prefix, e.g. `pods`.
    pub resource: String,
    /// Freshness of list/relist reads.
    pub list: ReadKind,
    /// Does a watch keep the view updated between lists?
    pub watch: bool,
    /// On a watch gap (compaction / window overrun), does the component
    /// relist rather than continue on the torn stream?
    pub relist_on_gap: bool,
    /// Does the component periodically relist regardless of watch health?
    pub periodic_resync: bool,
    /// Are historical events replayed on (re)connect? `false` means a
    /// relist jumps to a snapshot: intermediate states are unobservable.
    pub event_replay: bool,
    /// Does this view's feed traverse a finite-bandwidth (saturable) link?
    /// When true, offered load alone can delay or drop the feed — the
    /// congestion-staleness vector. `false` models an uncontended feed.
    pub congestible: bool,
}

/// A single precondition on an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// The view currently shows an object of this resource.
    CachePresence(String),
    /// The view currently shows *no* object of this resource.
    CacheAbsence(String),
    /// The component saw a specific event (e.g. a terminating mark) flow
    /// through its watch — evidence that the state existed at some point.
    ObservedEvent(String),
    /// The component concluded from *not hearing* (e.g. missed leases)
    /// that a remote party is dead.
    ObservedSilence(String),
    /// The precondition is re-confirmed with a quorum read at action time.
    FreshConfirm(String),
    /// The action is fenced: ordered after the state it consumes by a
    /// revision precondition (CAS / resourceVersion check).
    Fence(String),
}

impl Gate {
    /// The resource this gate observes.
    pub fn resource(&self) -> &str {
        match self {
            Gate::CachePresence(r)
            | Gate::CacheAbsence(r)
            | Gate::ObservedEvent(r)
            | Gate::ObservedSilence(r)
            | Gate::FreshConfirm(r)
            | Gate::Fence(r) => r,
        }
    }

    fn label(&self) -> String {
        match self {
            Gate::CachePresence(r) => format!("cache-presence({r})"),
            Gate::CacheAbsence(r) => format!("cache-absence({r})"),
            Gate::ObservedEvent(r) => format!("observed-event({r})"),
            Gate::ObservedSilence(r) => format!("observed-silence({r})"),
            Gate::FreshConfirm(r) => format!("fresh-confirm({r})"),
            Gate::Fence(r) => format!("fence({r})"),
        }
    }
}

/// One way an action can be justified: all gates must hold together.
#[derive(Debug, Clone)]
pub struct GatePath {
    /// Label for reports, e.g. `observed-terminating`.
    pub name: String,
    /// The AND-ed preconditions.
    pub gates: Vec<Gate>,
}

impl GatePath {
    /// Convenience constructor.
    pub fn new(name: &str, gates: Vec<Gate>) -> GatePath {
        GatePath {
            name: name.to_string(),
            gates,
        }
    }
}

/// One action a component takes, with its justifying paths (OR of ANDs).
#[derive(Debug, Clone)]
pub struct ActionDecl {
    /// Action name, e.g. `delete-pvc`.
    pub name: String,
    /// Destructive actions (delete storage, kill pods, evict nodes) are
    /// what the hazard rules protect; constructive ones are assumed
    /// idempotent / conflict-guarded.
    pub destructive: bool,
    /// Alternative justifications; the action fires when any path holds.
    pub paths: Vec<GatePath>,
}

/// A component's full access protocol.
#[derive(Debug, Clone)]
pub struct AccessSummary {
    /// Component name, e.g. `kubelet-node-1`.
    pub component: String,
    /// Can this component re-list from a *different* upstream than the one
    /// that served its current view (restart + ByInstance pick, multiple
    /// apiservers)? This is the §4.2.2 time-travel vector.
    pub upstream_switch: bool,
    /// Views the component maintains.
    pub views: Vec<ViewDecl>,
    /// Actions it takes.
    pub actions: Vec<ActionDecl>,
}

/// One statically detected hazard.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// The component the hazard lives in.
    pub component: String,
    /// The action whose gating is hazardous.
    pub action: String,
    /// Which §4.2 pattern it instantiates.
    pub class: PatternClass,
    /// Human explanation referencing the gates involved.
    pub detail: String,
}

impl Hazard {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("component", &self.component)
                .str("action", &self.action)
                .str("class", self.class.as_str())
                .str("detail", &self.detail);
        })
    }
}

/// Looks up the view over `resource`, if declared.
fn view<'a>(s: &'a AccessSummary, resource: &str) -> Option<&'a ViewDecl> {
    s.views.iter().find(|v| v.resource == resource)
}

/// Can a cache gate on `resource` be stale? True when the backing view
/// lists from cache and never resyncs — or when no view is declared at all
/// (an undeclared read is an unmanaged read).
fn stale_able(s: &AccessSummary, resource: &str) -> bool {
    match view(s, resource) {
        Some(v) => v.list == ReadKind::Cache && !v.periodic_resync,
        None => true,
    }
}

/// Runs the hazard rules over one summary.
///
/// Rules, per destructive action:
///
/// 1. **Silence gap (§4.2.3)** — a path contains `ObservedSilence(r)` with
///    no `Fence(r)`: silence is indistinguishable from a network partition,
///    so the component may act against a live peer, and nothing orders the
///    action after the peer's true state.
/// 2. **Staleness (§4.2.1)** — a path with *no* observed-event/-silence
///    evidence has a cache gate on a stale-able resource and neither a
///    `FreshConfirm` nor a `Fence` on that resource: the action can fire
///    from an arbitrarily old snapshot.
/// 3. **Time travel (§4.2.2)** — rule 2's condition holds *and* the
///    component can switch upstreams: the stale view may even be older
///    than state the component itself already observed and acted on.
/// 4. **Missed trigger (§4.2.3)** — *every* path requires an
///    `ObservedEvent(r)` whose view does not replay history: a relist
///    jumps over the event, the trigger is missed forever, and the action
///    (often a cleanup) never fires.
/// 5. **Congestion staleness (§4.1)** — rule 2's condition holds *and* the
///    view is declared [`ViewDecl::congestible`]: its feed rides a
///    saturable link, so pure offered load — queueing delay and tail
///    drops, zero injected faults — can age the view past the action.
pub fn check_summary(s: &AccessSummary) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    for action in &s.actions {
        if !action.destructive {
            continue;
        }
        let mut push = |class: PatternClass, detail: String| {
            hazards.push(Hazard {
                component: s.component.clone(),
                action: action.name.clone(),
                class,
                detail,
            });
        };

        for path in &action.paths {
            let fenced = |r: &str| {
                path.gates
                    .iter()
                    .any(|g| matches!(g, Gate::FreshConfirm(x) | Gate::Fence(x) if x == r))
            };

            // Rule 1: silence gap.
            for g in &path.gates {
                if let Gate::ObservedSilence(r) = g {
                    if !path
                        .gates
                        .iter()
                        .any(|f| matches!(f, Gate::Fence(x) if x == r))
                    {
                        push(
                            PatternClass::ObservabilityGap,
                            format!(
                                "path `{}` acts on {} with no fence: silence is \
                                 indistinguishable from a partition, liveness is unobservable",
                                path.name,
                                g.label()
                            ),
                        );
                    }
                }
            }

            // Rules 2+3 apply only to paths without event/silence evidence:
            // an observed event proves the gated state existed (sound),
            // and silence paths are already rule 1's business.
            let has_evidence = path
                .gates
                .iter()
                .any(|g| matches!(g, Gate::ObservedEvent(_) | Gate::ObservedSilence(_)));
            if has_evidence {
                continue;
            }
            for g in &path.gates {
                let r = match g {
                    Gate::CachePresence(r) | Gate::CacheAbsence(r) => r,
                    _ => continue,
                };
                if stale_able(s, r) && !fenced(r) {
                    push(
                        PatternClass::Staleness,
                        format!(
                            "path `{}` gates a destructive action on {} with no \
                             fresh-confirm or fence, over a cache view with no resync",
                            path.name,
                            g.label()
                        ),
                    );
                    if s.upstream_switch {
                        push(
                            PatternClass::TimeTravel,
                            format!(
                                "component can relist from a different upstream; the \
                                 unfenced {} gate in path `{}` may consume a view older \
                                 than state already acted on",
                                g.label(),
                                path.name
                            ),
                        );
                    }
                    if view(s, r).is_some_and(|v| v.congestible) {
                        push(
                            PatternClass::CongestionStaleness,
                            format!(
                                "the view feeding the {} gate in path `{}` rides a \
                                 saturable link: offered load alone (queueing delay or \
                                 tail drops, no injected fault) can age it past the action",
                                g.label(),
                                path.name
                            ),
                        );
                    }
                }
            }
        }

        // Rule 4: missed trigger — every path needs an unreplayable event.
        let all_event_gated = !action.paths.is_empty()
            && action.paths.iter().all(|p| {
                p.gates.iter().any(|g| {
                    matches!(g, Gate::ObservedEvent(r)
                        if view(s, r).map(|v| !v.event_replay).unwrap_or(true))
                })
            });
        if all_event_gated {
            push(
                PatternClass::ObservabilityGap,
                "every path requires observing a transient event over a view that does \
                 not replay history; a relist skips the event and the action never fires"
                    .to_string(),
            );
        }
    }
    hazards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_view(resource: &str) -> ViewDecl {
        ViewDecl {
            resource: resource.to_string(),
            list: ReadKind::Cache,
            watch: true,
            relist_on_gap: true,
            periodic_resync: false,
            event_replay: false,
            congestible: false,
        }
    }

    #[test]
    fn unfenced_cache_gate_is_staleness() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        let hz = check_summary(&s);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].class, PatternClass::Staleness);
    }

    #[test]
    fn upstream_switch_adds_time_travel() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: true,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        let cs: Vec<_> = check_summary(&s).into_iter().map(|h| h.class).collect();
        assert!(cs.contains(&PatternClass::Staleness));
        assert!(cs.contains(&PatternClass::TimeTravel));
    }

    #[test]
    fn fresh_confirm_discharges_staleness() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: true,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan-confirmed",
                    vec![
                        Gate::CacheAbsence("pods".into()),
                        Gate::FreshConfirm("pods".into()),
                    ],
                )],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }

    #[test]
    fn quorum_list_discharges_staleness() {
        let mut v = cache_view("pods");
        v.list = ReadKind::Quorum;
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![v],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }

    #[test]
    fn periodic_resync_discharges_staleness() {
        let mut v = cache_view("pods");
        v.periodic_resync = true;
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![v],
            actions: vec![ActionDecl {
                name: "bind".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "unbound",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }

    #[test]
    fn event_only_action_is_missed_trigger_gap() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "release".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "observed-terminating",
                    vec![Gate::ObservedEvent("pods".into())],
                )],
            }],
        };
        let hz = check_summary(&s);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].class, PatternClass::ObservabilityGap);
    }

    #[test]
    fn alternative_snapshot_path_clears_missed_trigger() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "release".into(),
                destructive: true,
                paths: vec![
                    GatePath::new(
                        "observed-terminating",
                        vec![Gate::ObservedEvent("pods".into())],
                    ),
                    GatePath::new(
                        "orphan-confirmed",
                        vec![
                            Gate::CacheAbsence("pods".into()),
                            Gate::FreshConfirm("pods".into()),
                        ],
                    ),
                ],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }

    #[test]
    fn silence_without_fence_is_gap_not_staleness() {
        let s = AccessSummary {
            component: "nlc".into(),
            upstream_switch: false,
            views: vec![cache_view("leases"), cache_view("pods")],
            actions: vec![ActionDecl {
                name: "force-evict".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "missed-leases",
                    vec![
                        Gate::ObservedSilence("leases".into()),
                        Gate::CachePresence("pods".into()),
                    ],
                )],
            }],
        };
        let cs: Vec<_> = check_summary(&s).into_iter().map(|h| h.class).collect();
        assert_eq!(cs, vec![PatternClass::ObservabilityGap]);
    }

    #[test]
    fn congestible_view_adds_congestion_staleness() {
        let mut v = cache_view("pods");
        v.congestible = true;
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![v],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        let cs: Vec<_> = check_summary(&s).into_iter().map(|h| h.class).collect();
        assert_eq!(
            cs,
            vec![PatternClass::Staleness, PatternClass::CongestionStaleness],
            "congestion staleness rides along with plain staleness"
        );
    }

    #[test]
    fn resynced_congestible_view_is_safe() {
        // A periodic resync bounds how long congestion can age the view,
        // discharging both rule 2 and rule 5.
        let mut v = cache_view("pods");
        v.congestible = true;
        v.periodic_resync = true;
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![v],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }

    #[test]
    fn undeclared_views_never_claim_congestion() {
        // No declared view over `pods`: rule 2 still fires (unmanaged
        // read), but congestibility cannot be assumed.
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: false,
            views: vec![],
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths: vec![GatePath::new(
                    "orphan",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        let cs: Vec<_> = check_summary(&s).into_iter().map(|h| h.class).collect();
        assert_eq!(cs, vec![PatternClass::Staleness]);
    }

    #[test]
    fn non_destructive_actions_are_ignored() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: true,
            views: vec![cache_view("pods")],
            actions: vec![ActionDecl {
                name: "create".into(),
                destructive: false,
                paths: vec![GatePath::new(
                    "missing",
                    vec![Gate::CacheAbsence("pods".into())],
                )],
            }],
        };
        assert!(check_summary(&s).is_empty());
    }
}

//! The `AccessSummary` IR the partial-history hazard analysis reads.
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
//! The bounded model checker ([`crate::modelcheck`]) is the one classifier
//! over this IR: per destructive action it reports a minimal perturbation
//! witness for each reachable hazard class, or proves the action
//! epoch-safe. Its five hazard predicates (wrongful-action staleness,
//! time travel, silence gaps, missed-trigger gaps and congestion
//! staleness) are pinned over an enumerated IR grid in
//! `tests/fixtures/hazard_grid.golden`. Paths gated on an observed
//! *event* are sound evidence (events, unlike snapshots, cannot claim a
//! state that never existed), so they are exempt from staleness but are
//! exactly what the missed-trigger predicate inspects.

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

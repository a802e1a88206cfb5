//! Bounded explicit-state model checking over the [`AccessSummary`] IR:
//! the one static classifier of the §4.2 taxonomy.
//!
//! The checker answers, per destructive action, *which perturbation
//! schedule reaches* a hazard. It tracks, per view, a small symbolic
//! freshness state — how many epochs the view lags truth (capped at
//! [`STALE_BOUND`], the §6.2 epoch counter), whether an upstream switch
//! has made it time-traveled, whether a watch event was irrecoverably
//! lost, and whether the component is hearing a false silence — and
//! explores the closure of that state space under an alphabet of
//! abstract perturbations ([`Letter`]).
//!
//! For every destructive action the checker either
//!
//! * emits a **minimal hazard witness** ([`Witness`]): the shortest
//!   perturbation schedule, in canonical alphabet order, after which some
//!   gate path admits the action while its guarding view is hazardous —
//!   classified with the §4.2 taxonomy; or
//! * proves the action **epoch-safe**: the *entire* reachable state space
//!   (every interleaving of every perturbation, staleness bounded by
//!   [`STALE_BOUND`]) contains no state satisfying any unfenced path, so
//!   every route to the action is fenced within epoch bounds.
//!
//! The exploration covers the full reachable space and the witness search
//! is breadth-first, so the verdict is *complete* relative to the
//! abstraction, and the witness is the shortest schedule in the
//! deterministic letter order. The class set the five hazard predicates
//! (`Model::hazards_in`) yield on every cell of an enumerated IR grid is
//! pinned in `tests/fixtures/hazard_grid.golden`. The reports are the one
//! static verdict source: the cross-check table (`ph_core::crosscheck`),
//! `phtool lint` and `phtool check` all read them, and the schedules
//! additionally seed the dynamic explorer (`ph-core::autoguide`).
//!
//! By default the BFS runs with **partial-order reduction**
//! ([`Expansion::Reduced`]): the resource universe is sliced to the cone
//! of influence, permanently-absorbed letters are skipped, and sleep sets
//! driven by the static independence relation ([`crate::independence`])
//! prune commuting interleavings — with witnesses and epoch-safety
//! verdicts provably (and test-pinned) identical to the reference
//! [`model_check_exhaustive`], at a fraction of the expansion work
//! (reported as [`ModelCheckReport::states_expanded`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::independence::{pair_status, PairStatus};
use crate::json;
use crate::summary::{AccessSummary, Gate, GatePath, PatternClass, ReadKind};

/// Cap on the per-view staleness counter: views lagging by more than this
/// many epochs are indistinguishable to every gate, so the state space is
/// finite without losing any hazard (the gates only test *lag > 0*).
pub const STALE_BOUND: u8 = 3;

/// One abstract perturbation. The declaration order is the canonical
/// alphabet order: witnesses are minimal first by schedule length, then
/// lexicographically by letter index, so the same IR always yields the
/// same witness bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Letter {
    /// Delay the cache feeding the view over this resource by one epoch
    /// (§4.2.1: an apiserver watch cache falls behind the store).
    DelayCache(String),
    /// Reorder an update against its consumption: the component reads the
    /// view one epoch before the write it races with lands (a bounded
    /// special case of [`Letter::DelayCache`], kept for schedule realism).
    ReorderUpdateConsume(String),
    /// Drop a notification carrying an event or a liveness signal for this
    /// resource (§4.2.3: the event is missed; silence turns false).
    DropNotification(String),
    /// The component re-lists from a different — possibly older — upstream
    /// (§4.2.2: restart under `ByInstance`, or a retry detour).
    UpstreamSwitch,
    /// Crash, restart against a stale upstream, replay: the upstream
    /// switch plus the loss of any queued non-replayable watch events.
    CrashRestartReplay,
    /// Saturate the link feeding the view over this resource (§4.1): the
    /// offered load exceeds modeled capacity, so queueing delay and tail
    /// drops age the view with zero injected faults. Only enabled for
    /// views declared congestible.
    TrafficSurge(String),
}

impl Letter {
    /// Stable serialized name, e.g. `delay-cache(pods)`.
    pub fn label(&self) -> String {
        match self {
            Letter::DelayCache(r) => format!("delay-cache({r})"),
            Letter::ReorderUpdateConsume(r) => format!("reorder-update-consume({r})"),
            Letter::DropNotification(r) => format!("drop-notification({r})"),
            Letter::UpstreamSwitch => "upstream-switch".to_string(),
            Letter::CrashRestartReplay => "crash-restart-replay".to_string(),
            Letter::TrafficSurge(r) => format!("traffic-surge({r})"),
        }
    }

    /// The resource the letter perturbs, if it targets one.
    pub fn resource(&self) -> Option<&str> {
        match self {
            Letter::DelayCache(r)
            | Letter::ReorderUpdateConsume(r)
            | Letter::DropNotification(r)
            | Letter::TrafficSurge(r) => Some(r),
            Letter::UpstreamSwitch | Letter::CrashRestartReplay => None,
        }
    }
}

impl std::fmt::Display for Letter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A minimal hazard witness: the shortest perturbation schedule after
/// which `action` is admitted by `path` while the guarding view is
/// hazardous.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Component the hazard lives in.
    pub component: String,
    /// The gated destructive action.
    pub action: String,
    /// §4.2 classification of the witnessed state.
    pub class: PatternClass,
    /// The admitting gate path (`*` for action-level missed-trigger
    /// hazards, which quantify over every path).
    pub path: String,
    /// The schedule, in canonical alphabet order.
    pub schedule: Vec<Letter>,
    /// Human explanation of the witnessed state.
    pub detail: String,
}

impl Witness {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("component", &self.component)
                .str("action", &self.action)
                .str("class", self.class.as_str())
                .str("path", &self.path)
                .strs("schedule", self.schedule.iter().map(Letter::label))
                .str("detail", &self.detail);
        })
    }

    /// The schedule's letters joined as `letter1 ; letter2`.
    pub fn schedule_text(&self) -> String {
        let sched: Vec<String> = self.schedule.iter().map(Letter::label).collect();
        sched.join(" ; ")
    }

    /// One-line rendering: `action [class] via [letter1 ; letter2]`.
    pub fn render(&self) -> String {
        format!(
            "{} [{}] via [{}]",
            self.action,
            self.class.as_str(),
            self.schedule_text()
        )
    }
}

/// The checker's verdict on one destructive action.
#[derive(Debug, Clone)]
pub enum ActionVerdict {
    /// At least one reachable hazardous admission; minimal witnesses, one
    /// per hazard class, in class order.
    Hazardous(Vec<Witness>),
    /// Every reachable state that admits the action is fenced: the action
    /// is safe within epoch bounds.
    EpochSafe,
}

/// Verdict for one destructive action of the component.
#[derive(Debug, Clone)]
pub struct ActionReport {
    /// The action's declared name.
    pub action: String,
    /// Its verdict.
    pub verdict: ActionVerdict,
}

/// How the BFS expands the perturbation closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// Every enabled letter from every reachable state over the full
    /// resource universe — the reference semantics.
    Exhaustive,
    /// Partial-order reduction: the resource universe is sliced to the
    /// cone of influence (resources some destructive gate actually
    /// reads), permanently-no-op letters are skipped (stutter
    /// elimination), and sleep sets prune commuting interleavings using
    /// the static independence relation ([`crate::independence`]) —
    /// only [`PairStatus::Independent`] pairs are ever commuted, so the
    /// conservative gate-coupled pairs stay ordered. Witnesses and
    /// epoch-safety verdicts are provably identical to exhaustive: a
    /// minimal witness never contains a no-op or an irrelevant letter,
    /// and pruned words always have a same-length lexicographically
    /// smaller equivalent that survives.
    Reduced,
}

impl Expansion {
    /// Stable serialized name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Expansion::Exhaustive => "exhaustive",
            Expansion::Reduced => "reduced",
        }
    }
}

/// The full model-checking result for one component.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Component name.
    pub component: String,
    /// Size of the explored (= entire reachable, over the expansion's
    /// resource universe) state space.
    pub states_explored: usize,
    /// Successor expansions performed (one per `apply` of a letter to a
    /// dequeued state) — the work metric the reduction shrinks.
    /// `states_explored · |alphabet|` when exhaustive.
    pub states_expanded: usize,
    /// Which expansion strategy produced this report.
    pub expansion: Expansion,
    /// The staleness cap the epoch-safety proof is relative to.
    pub stale_bound: u8,
    /// One entry per destructive action, in declaration order.
    pub actions: Vec<ActionReport>,
}

impl ModelCheckReport {
    /// `true` when every destructive action is epoch-safe.
    pub fn is_epoch_safe(&self) -> bool {
        self.actions
            .iter()
            .all(|a| matches!(a.verdict, ActionVerdict::EpochSafe))
    }

    /// All witnesses, in (action declaration, class) order.
    pub fn witnesses(&self) -> Vec<&Witness> {
        self.actions
            .iter()
            .filter_map(|a| match &a.verdict {
                ActionVerdict::Hazardous(ws) => Some(ws.iter()),
                ActionVerdict::EpochSafe => None,
            })
            .flatten()
            .collect()
    }

    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("component", &self.component)
                .val("states_explored", self.states_explored)
                .val("states_expanded", self.states_expanded)
                .str("reduction", self.expansion.as_str())
                .val("stale_bound", self.stale_bound);
            let mut actions = o.arr("actions");
            for a in &self.actions {
                let mut action = actions.obj();
                action.str("action", &a.action);
                match &a.verdict {
                    ActionVerdict::EpochSafe => {
                        action.str("verdict", "epoch-safe");
                    }
                    ActionVerdict::Hazardous(ws) => {
                        action
                            .str("verdict", "hazardous")
                            .raws("witnesses", ws.iter().map(Witness::to_json));
                    }
                }
            }
        })
    }
}

// ---------------------------------------------------------------------
// The symbolic state
// ---------------------------------------------------------------------

const F_TIME_TRAVELED: u8 = 1 << 2;
const F_EVENT_LOST: u8 = 1 << 3;
const F_FALSE_SILENCE: u8 = 1 << 4;
const F_CONGESTED: u8 = 1 << 5;
const STALE_MASK: u8 = 0b11;

/// Per-resource packed freshness state: 2 bits of epoch lag plus the three
/// hazard flags. All transitions are monotone (lag saturates, flags only
/// set), which is what makes the reachable space small and the BFS total.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State(Vec<u8>);

impl State {
    fn fresh(n: usize) -> State {
        State(vec![0; n])
    }

    fn stale(&self, r: usize) -> u8 {
        self.0[r] & STALE_MASK
    }

    fn add_stale(&mut self, r: usize, by: u8) {
        let lag = (self.stale(r) + by).min(STALE_BOUND);
        self.0[r] = (self.0[r] & !STALE_MASK) | lag;
    }

    fn flag(&self, r: usize, f: u8) -> bool {
        self.0[r] & f != 0
    }

    fn set_flag(&mut self, r: usize, f: u8) {
        self.0[r] |= f;
    }
}

/// The model: the summary, its sorted resource universe, and the enabled
/// alphabet in canonical order.
struct Model<'a> {
    summary: &'a AccessSummary,
    resources: Vec<String>,
    alphabet: Vec<Letter>,
}

impl<'a> Model<'a> {
    fn new(summary: &'a AccessSummary, expansion: Expansion) -> Model<'a> {
        let resources = match expansion {
            Expansion::Exhaustive => resource_universe(summary),
            // Cone of influence: the hazard predicates only read state
            // over resources some destructive gate path mentions, so the
            // reduced model drops every other coordinate — and with it
            // every letter that only perturbs irrelevant views. Minimal
            // witnesses never contain such a letter (dropping it would
            // shorten the witness), so verdicts and witness bytes are
            // unchanged while the state space shrinks multiplicatively.
            Expansion::Reduced => relevant_resources(summary),
        };
        let alphabet = alphabet_over(summary, &resources);
        Model {
            summary,
            resources,
            alphabet,
        }
    }

    fn idx(&self, resource: &str) -> usize {
        self.resources
            .iter()
            .position(|r| r == resource)
            .expect("gate resources are in the universe by construction")
    }

    fn find(&self, resource: &str) -> Option<usize> {
        self.resources.iter().position(|r| r == resource)
    }

    /// Is `letter` a permanent no-op in `state`? Every transition is
    /// monotone (lag saturates, flags only set), so once a letter's whole
    /// effect is already absorbed it stays absorbed: applying it is a
    /// self-loop forever after, and no minimal path contains it. Cheap
    /// bit tests — no clone, no apply.
    fn is_noop(&self, state: &State, letter: &Letter) -> bool {
        match letter {
            Letter::DelayCache(r) => state.stale(self.idx(r)) == STALE_BOUND,
            Letter::ReorderUpdateConsume(r) => state.stale(self.idx(r)) > 0,
            Letter::DropNotification(r) => {
                let i = self.idx(r);
                state.flag(i, F_FALSE_SILENCE)
                    && (!event_loss_possible(self.summary, r) || state.flag(i, F_EVENT_LOST))
            }
            Letter::TrafficSurge(r) => {
                let i = self.idx(r);
                state.flag(i, F_CONGESTED) && state.stale(i) == STALE_BOUND
            }
            Letter::UpstreamSwitch => self.switch_is_noop(state),
            Letter::CrashRestartReplay => {
                self.switch_is_noop(state)
                    && self.summary.views.iter().all(|v| {
                        !v.watch
                            || v.event_replay
                            || self
                                .find(&v.resource)
                                .map(|i| state.flag(i, F_EVENT_LOST))
                                .unwrap_or(true)
                    })
            }
        }
    }

    fn switch_is_noop(&self, state: &State) -> bool {
        self.resources.iter().enumerate().all(|(i, r)| {
            !stale_able(self.summary, r) || (state.stale(i) > 0 && state.flag(i, F_TIME_TRAVELED))
        })
    }

    /// The successor of `state` under `letter`.
    fn apply(&self, state: &State, letter: &Letter) -> State {
        let mut next = state.clone();
        match letter {
            Letter::DelayCache(r) => next.add_stale(self.idx(r), 1),
            Letter::ReorderUpdateConsume(r) => {
                let i = self.idx(r);
                if next.stale(i) == 0 {
                    next.add_stale(i, 1);
                }
            }
            Letter::DropNotification(r) => {
                let i = self.idx(r);
                next.set_flag(i, F_FALSE_SILENCE);
                if event_loss_possible(self.summary, r) {
                    next.set_flag(i, F_EVENT_LOST);
                }
            }
            Letter::TrafficSurge(r) => {
                let i = self.idx(r);
                next.set_flag(i, F_CONGESTED);
                next.add_stale(i, 1);
            }
            Letter::UpstreamSwitch => self.switch_upstream(&mut next),
            Letter::CrashRestartReplay => {
                self.switch_upstream(&mut next);
                // The crash additionally loses queued watch notifications
                // for every view that cannot replay history. (A sliced
                // universe may not track the view's resource at all; its
                // coordinate is then irrelevant to every hazard.)
                for v in &self.summary.views {
                    if v.watch && !v.event_replay {
                        if let Some(i) = self.find(&v.resource) {
                            next.set_flag(i, F_EVENT_LOST);
                        }
                    }
                }
            }
        }
        next
    }

    /// Re-list from a potentially older upstream: every stale-able view
    /// may come back at least one epoch behind *and* behind state the
    /// component already consumed (time travel). Quorum-listed and
    /// resynced views re-list fresh, so they are untouched — exactly why
    /// the fixed variants prove epoch-safe.
    fn switch_upstream(&self, state: &mut State) {
        for (i, r) in self.resources.iter().enumerate() {
            if stale_able(self.summary, r) {
                if state.stale(i) == 0 {
                    state.add_stale(i, 1);
                }
                state.set_flag(i, F_TIME_TRAVELED);
            }
        }
    }

    /// Hazardous admissions in `state`, in (action, path, gate) order.
    fn hazards_in(&self, state: &State) -> Vec<(usize, PatternClass, String, String)> {
        let mut out = Vec::new();
        for (ai, action) in self.summary.actions.iter().enumerate() {
            if !action.destructive {
                continue;
            }
            for path in &action.paths {
                // Silence gap: the silence gate is satisfied *because* the
                // liveness signal was dropped, and no fence orders the
                // action after the peer's true state.
                for g in &path.gates {
                    if let Gate::ObservedSilence(r) = g {
                        let hard_fenced = path
                            .gates
                            .iter()
                            .any(|f| matches!(f, Gate::Fence(x) if x == r));
                        if !hard_fenced && state.flag(self.idx(r), F_FALSE_SILENCE) {
                            out.push((
                                ai,
                                PatternClass::ObservabilityGap,
                                path.name.clone(),
                                format!(
                                    "silence over {r} is false (the liveness signal was \
                                     dropped) and path `{}` has no fence on {r}",
                                    path.name
                                ),
                            ));
                        }
                    }
                }

                // Staleness / time travel: only snapshot paths — a path
                // with event or silence evidence is sound against
                // staleness (events cannot claim a state that never
                // existed).
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
                    if fenced(path, r) {
                        continue;
                    }
                    let i = self.idx(r);
                    if state.flag(i, F_TIME_TRAVELED) {
                        out.push((
                            ai,
                            PatternClass::TimeTravel,
                            path.name.clone(),
                            format!(
                                "the view over {r} re-listed from an older upstream; the \
                                 unfenced {r} gate in path `{}` consumes state older than \
                                 what the component already acted on",
                                path.name
                            ),
                        ));
                    } else if state.stale(i) > 0 {
                        out.push((
                            ai,
                            PatternClass::Staleness,
                            path.name.clone(),
                            format!(
                                "the view over {r} lags truth by {} epoch(s) and path `{}` \
                                 admits the action with no fresh-confirm or fence on {r}",
                                state.stale(i),
                                path.name
                            ),
                        ));
                    }
                    if state.flag(i, F_CONGESTED) {
                        out.push((
                            ai,
                            PatternClass::CongestionStaleness,
                            path.name.clone(),
                            format!(
                                "offered load past the capacity of the link feeding the \
                                 view over {r} aged it organically (no injected fault), \
                                 and path `{}` admits the action with no fresh-confirm \
                                 or fence on {r}",
                                path.name
                            ),
                        ));
                    }
                }
            }

            // Missed trigger: every justification requires an event that
            // the state has irrecoverably lost — the action never fires.
            let all_lost = !action.paths.is_empty()
                && action.paths.iter().all(|p| {
                    p.gates.iter().any(|g| {
                        matches!(g, Gate::ObservedEvent(r)
                            if state.flag(self.idx(r), F_EVENT_LOST))
                    })
                });
            if all_lost {
                out.push((
                    ai,
                    PatternClass::ObservabilityGap,
                    "*".to_string(),
                    "every path requires observing an event the schedule has lost over a \
                     view that does not replay history; the trigger is gone and the \
                     action never fires"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// The full resource universe: every declared view plus every gate
/// resource of every action, sorted.
fn resource_universe(summary: &AccessSummary) -> Vec<String> {
    let mut resources: BTreeSet<String> = BTreeSet::new();
    for v in &summary.views {
        resources.insert(v.resource.clone());
    }
    for a in &summary.actions {
        for p in &a.paths {
            for g in &p.gates {
                resources.insert(g.resource().to_string());
            }
        }
    }
    resources.into_iter().collect()
}

/// The cone of influence: resources read by some gate path of a
/// *destructive* action — the only coordinates any hazard predicate
/// inspects.
fn relevant_resources(summary: &AccessSummary) -> Vec<String> {
    let mut resources: BTreeSet<String> = BTreeSet::new();
    for a in summary.actions.iter().filter(|a| a.destructive) {
        for p in &a.paths {
            for g in &p.gates {
                resources.insert(g.resource().to_string());
            }
        }
    }
    resources.into_iter().collect()
}

/// The alphabet enabled over a resource universe, in canonical order. A
/// letter is included only when the IR says its perturbation can affect
/// this component, so no-op letters never pad a witness.
fn alphabet_over(summary: &AccessSummary, resources: &[String]) -> Vec<Letter> {
    let mut alphabet = Vec::new();
    for r in resources {
        if stale_able(summary, r) {
            alphabet.push(Letter::DelayCache(r.clone()));
        }
    }
    for r in resources {
        if stale_able(summary, r) {
            alphabet.push(Letter::ReorderUpdateConsume(r.clone()));
        }
    }
    for r in resources {
        if droppable(summary, r) {
            alphabet.push(Letter::DropNotification(r.clone()));
        }
    }
    if summary.upstream_switch {
        alphabet.push(Letter::UpstreamSwitch);
        alphabet.push(Letter::CrashRestartReplay);
    }
    for r in resources {
        if stale_able(summary, r) && congestible(summary, r) {
            alphabet.push(Letter::TrafficSurge(r.clone()));
        }
    }
    alphabet
}

/// The full enabled perturbation alphabet of `summary`, in canonical
/// order — the alphabet the exhaustive checker explores and the
/// [`crate::independence::IndependenceMatrix`] is derived over.
pub fn enabled_alphabet(summary: &AccessSummary) -> Vec<Letter> {
    alphabet_over(summary, &resource_universe(summary))
}

/// Applies `schedule` to the fresh state of the exhaustive model and
/// returns the packed per-resource bytes (sorted resource order). Letters
/// over resources outside the component's universe are ignored. This is
/// the observable the canonical-equivalence property tests compare: two
/// schedules the independence relation calls equivalent must land on
/// byte-identical model state.
pub fn apply_schedule(summary: &AccessSummary, schedule: &[Letter]) -> Vec<u8> {
    let model = Model::new(summary, Expansion::Exhaustive);
    let mut state = State::fresh(model.resources.len());
    for letter in schedule {
        if let Some(r) = letter.resource() {
            if model.find(r).is_none() {
                continue;
            }
        }
        state = model.apply(&state, letter);
    }
    state.0
}

/// Can a cache gate on `resource` be stale? When the view lists from
/// cache with no periodic resync, or no view is declared at all (an
/// undeclared read is an unmanaged read).
fn stale_able(s: &AccessSummary, resource: &str) -> bool {
    match s.views.iter().find(|v| v.resource == resource) {
        Some(v) => v.list == ReadKind::Cache && !v.periodic_resync,
        None => true,
    }
}

/// Does the view over `resource` ride a saturable link? Only a
/// *declared* congestible view enables the traffic-surge letter —
/// undeclared reads assume an uncontended feed.
fn congestible(s: &AccessSummary, resource: &str) -> bool {
    s.views
        .iter()
        .find(|v| v.resource == resource)
        .is_some_and(|v| v.congestible)
}

/// Is dropping a notification about `resource` meaningful? Yes when some
/// gate listens for events or silence on it, or a watch feeds its view.
fn droppable(s: &AccessSummary, resource: &str) -> bool {
    let gated = s.actions.iter().any(|a| {
        a.paths.iter().any(|p| {
            p.gates.iter().any(
                |g| matches!(g, Gate::ObservedEvent(r) | Gate::ObservedSilence(r) if r == resource),
            )
        })
    });
    let watched = s.views.iter().any(|v| v.resource == resource && v.watch);
    gated || watched
}

/// Does dropping an event on `resource` lose it forever? Yes unless the
/// declared view replays history on reconnect (undeclared views are
/// unmanaged and lose everything).
fn event_loss_possible(s: &AccessSummary, resource: &str) -> bool {
    s.views
        .iter()
        .find(|v| v.resource == resource)
        .map(|v| !v.event_replay)
        .unwrap_or(true)
}

/// A gate path discharges staleness on `r` when it re-confirms or fences.
fn fenced(path: &GatePath, r: &str) -> bool {
    path.gates
        .iter()
        .any(|g| matches!(g, Gate::FreshConfirm(x) | Gate::Fence(x) if x == r))
}

/// Model-checks one summary with the reduced expansion (the default):
/// BFS over the perturbation closure with partial-order reduction,
/// recording the minimal witness per (destructive action, hazard class).
/// Verdicts and witness bytes match [`model_check_exhaustive`] — the
/// equivalence tests pin this over the enumerated IR grid and every
/// scenario component.
pub fn model_check(summary: &AccessSummary) -> ModelCheckReport {
    model_check_with(summary, Expansion::Reduced)
}

/// Model-checks one summary with the reference exhaustive expansion:
/// every enabled letter from every reachable state over the full
/// resource universe.
pub fn model_check_exhaustive(summary: &AccessSummary) -> ModelCheckReport {
    model_check_with(summary, Expansion::Exhaustive)
}

/// The BFS both expansions share.
///
/// Reduction soundness rests on one lemma: with state dedup, the path the
/// BFS records for a state is its (length, then lexicographic-by-letter-
/// index) minimal word, and *the prefix of a minimal word is the minimal
/// word of its intermediate state* (a smaller word to the intermediate
/// state would extend to a smaller word overall). Each pruning rule only
/// ever discards words that are not minimal for their endpoint:
///
/// * **stutter** — a minimal word never contains a permanent no-op step
///   (dropping it gives a shorter word to the same state);
/// * **sleep sets** — `sleep(p·m) = {l < m : indep(l, m)} ∪ {s ∈ sleep(p)
///   : indep(s, m)}`; a word taking a slept letter has a same-length,
///   lexicographically smaller equivalent (bubble the slept letter left
///   across the letters it commutes with), and our independence is
///   *semantic* commutation of the transition functions — state-
///   independent — so the equivalent word reaches the same state and
///   survives. Only [`PairStatus::Independent`] pairs are slept; the
///   conservatively dependent gate-coupled pairs are never commuted.
///
/// Hence every state keeps its minimal word, the dequeue order of the
/// survivors is the same global (length, lex) order, and the first-wins
/// witness per (action, class) is byte-identical to exhaustive.
fn model_check_with(summary: &AccessSummary, expansion: Expansion) -> ModelCheckReport {
    let model = Model::new(summary, expansion);
    let n = model.alphabet.len();
    // Per-letter bitmask of the letters it commutes with. Sleep sets are
    // only consulted under reduction, and only fit a u64 mask; a wider
    // alphabet (never seen in practice) just forfeits the sleep pruning.
    let indep: Vec<u64> = if expansion == Expansion::Reduced && n <= 64 {
        (0..n)
            .map(|i| {
                let mut mask = 0u64;
                for j in 0..n {
                    if j != i
                        && pair_status(summary, &model.alphabet[i], &model.alphabet[j])
                            == PairStatus::Independent
                    {
                        mask |= 1 << j;
                    }
                }
                mask
            })
            .collect()
    } else {
        vec![0; n]
    };

    let mut visited: BTreeSet<State> = BTreeSet::new();
    let mut queue: VecDeque<(State, Vec<usize>, u64)> = VecDeque::new();
    let init = State::fresh(model.resources.len());
    visited.insert(init.clone());
    queue.push_back((init, Vec::new(), 0));
    let mut expanded: usize = 0;

    // Minimal witnesses, keyed by (action index, class). BFS dequeues
    // states in (schedule length, lexicographic letter index) order, so
    // first insertion wins minimality deterministically.
    let mut found: BTreeMap<(usize, PatternClass), Witness> = BTreeMap::new();

    while let Some((state, schedule, sleep)) = queue.pop_front() {
        for (ai, class, path, detail) in model.hazards_in(&state) {
            found.entry((ai, class)).or_insert_with(|| Witness {
                component: summary.component.clone(),
                action: summary.actions[ai].name.clone(),
                class,
                path,
                schedule: schedule
                    .iter()
                    .map(|&li| model.alphabet[li].clone())
                    .collect(),
                detail,
            });
        }
        for (li, letter) in model.alphabet.iter().enumerate() {
            let bit = 1u64.checked_shl(li as u32).unwrap_or(0);
            if expansion == Expansion::Reduced
                && (sleep & bit != 0 || model.is_noop(&state, letter))
            {
                continue;
            }
            expanded += 1;
            let next = model.apply(&state, letter);
            if visited.insert(next.clone()) {
                let mut sched = schedule.clone();
                sched.push(li);
                let child_sleep = indep[li] & (bit.wrapping_sub(1) | sleep);
                queue.push_back((next, sched, child_sleep));
            }
        }
    }

    let actions = summary
        .actions
        .iter()
        .enumerate()
        .filter(|(_, a)| a.destructive)
        .map(|(ai, a)| {
            let ws: Vec<Witness> = found
                .range((ai, PatternClass::Staleness)..=(ai, PatternClass::CongestionStaleness))
                .map(|(_, w)| w.clone())
                .collect();
            ActionReport {
                action: a.name.clone(),
                verdict: if ws.is_empty() {
                    ActionVerdict::EpochSafe
                } else {
                    ActionVerdict::Hazardous(ws)
                },
            }
        })
        .collect();

    ModelCheckReport {
        component: summary.component.clone(),
        states_explored: visited.len(),
        states_expanded: expanded,
        expansion,
        stale_bound: STALE_BOUND,
        actions,
    }
}

/// Model-checks a set of summaries, in input order.
pub fn model_check_all(summaries: &[AccessSummary]) -> Vec<ModelCheckReport> {
    summaries.iter().map(model_check).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ActionDecl, ViewDecl};

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

    fn summary(upstream_switch: bool, views: Vec<ViewDecl>, paths: Vec<GatePath>) -> AccessSummary {
        AccessSummary {
            component: "c".into(),
            upstream_switch,
            views,
            actions: vec![ActionDecl {
                name: "delete".into(),
                destructive: true,
                paths,
            }],
        }
    }

    #[test]
    fn unfenced_cache_gate_has_a_one_letter_staleness_witness() {
        let s = summary(
            false,
            vec![cache_view("pods")],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        let report = model_check(&s);
        let ws = report.witnesses();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].class, PatternClass::Staleness);
        assert_eq!(ws[0].schedule, vec![Letter::DelayCache("pods".into())]);
        assert_eq!(ws[0].path, "orphan");
    }

    #[test]
    fn upstream_switch_yields_a_time_travel_witness_too() {
        let s = summary(
            true,
            vec![cache_view("pods")],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        let report = model_check(&s);
        let classes: Vec<PatternClass> = report.witnesses().iter().map(|w| w.class).collect();
        assert_eq!(
            classes,
            vec![PatternClass::Staleness, PatternClass::TimeTravel]
        );
        let tt = report
            .witnesses()
            .into_iter()
            .find(|w| w.class == PatternClass::TimeTravel)
            .unwrap()
            .clone();
        assert_eq!(tt.schedule, vec![Letter::UpstreamSwitch]);
    }

    #[test]
    fn fenced_paths_prove_epoch_safe() {
        let s = summary(
            true,
            vec![cache_view("pods")],
            vec![GatePath::new(
                "orphan-confirmed",
                vec![
                    Gate::CacheAbsence("pods".into()),
                    Gate::FreshConfirm("pods".into()),
                ],
            )],
        );
        let report = model_check(&s);
        assert!(report.is_epoch_safe());
        assert!(report.states_explored > 1, "exploration actually ran");
    }

    #[test]
    fn quorum_views_prove_epoch_safe_under_upstream_switch() {
        let mut v = cache_view("pods");
        v.list = ReadKind::Quorum;
        let s = summary(
            true,
            vec![v],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        assert!(model_check(&s).is_epoch_safe());
    }

    #[test]
    fn event_only_action_has_a_drop_notification_witness() {
        let s = summary(
            false,
            vec![cache_view("pods")],
            vec![GatePath::new(
                "observed-terminating",
                vec![Gate::ObservedEvent("pods".into())],
            )],
        );
        let report = model_check(&s);
        let ws = report.witnesses();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].class, PatternClass::ObservabilityGap);
        assert_eq!(
            ws[0].schedule,
            vec![Letter::DropNotification("pods".into())]
        );
        assert_eq!(ws[0].path, "*");
    }

    #[test]
    fn silence_gate_without_fence_has_a_gap_witness() {
        let s = summary(
            false,
            vec![cache_view("leases"), cache_view("pods")],
            vec![GatePath::new(
                "missed-leases",
                vec![
                    Gate::ObservedSilence("leases".into()),
                    Gate::CachePresence("pods".into()),
                ],
            )],
        );
        let report = model_check(&s);
        let ws = report.witnesses();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].class, PatternClass::ObservabilityGap);
        assert_eq!(
            ws[0].schedule,
            vec![Letter::DropNotification("leases".into())]
        );
    }

    #[test]
    fn event_replay_views_survive_dropped_notifications() {
        let mut v = cache_view("pods");
        v.event_replay = true;
        let s = summary(
            false,
            vec![v],
            vec![GatePath::new(
                "observed-terminating",
                vec![Gate::ObservedEvent("pods".into())],
            )],
        );
        assert!(model_check(&s).is_epoch_safe());
    }

    /// The gate-path shapes over one resource `r`, each with its column
    /// label: every gate kind alone or with its discharging companion,
    /// and the two-path event/snapshot alternatives.
    fn path_shapes() -> Vec<(&'static str, Vec<GatePath>)> {
        let r = || "r".to_string();
        vec![
            (
                "absent",
                vec![GatePath::new("p", vec![Gate::CacheAbsence(r())])],
            ),
            (
                "present",
                vec![GatePath::new("p", vec![Gate::CachePresence(r())])],
            ),
            (
                "abs+conf",
                vec![GatePath::new(
                    "p",
                    vec![Gate::CacheAbsence(r()), Gate::FreshConfirm(r())],
                )],
            ),
            (
                "pres+fnc",
                vec![GatePath::new(
                    "p",
                    vec![Gate::CachePresence(r()), Gate::Fence(r())],
                )],
            ),
            (
                "event",
                vec![GatePath::new("p", vec![Gate::ObservedEvent(r())])],
            ),
            (
                "sil+pres",
                vec![GatePath::new(
                    "p",
                    vec![Gate::ObservedSilence(r()), Gate::CachePresence(r())],
                )],
            ),
            (
                "sil+fnc",
                vec![GatePath::new(
                    "p",
                    vec![Gate::ObservedSilence(r()), Gate::Fence(r())],
                )],
            ),
            (
                "ev|a+cf",
                vec![
                    GatePath::new("e", vec![Gate::ObservedEvent(r())]),
                    GatePath::new("s", vec![Gate::CacheAbsence(r()), Gate::FreshConfirm(r())]),
                ],
            ),
            (
                "ev|abs",
                vec![
                    GatePath::new("e", vec![Gate::ObservedEvent(r())]),
                    GatePath::new("s", vec![Gate::CacheAbsence(r())]),
                ],
            ),
        ]
    }

    /// The enumerated IR grid: one row per view configuration over `r`
    /// (no view declared, or every combination of list kind, resync,
    /// replay and congestibility), times the upstream-switch bit, each row
    /// holding one single-action summary per [`path_shapes`] column. The
    /// view flags mean nothing without a view, so that case is not
    /// multiplied by them: (2 + 32) rows × 9 shapes = 306 cells.
    fn grid() -> Vec<(String, Vec<AccessSummary>)> {
        let mut views: Vec<Option<ViewDecl>> = vec![None];
        for list in [ReadKind::Cache, ReadKind::Quorum] {
            for periodic_resync in [false, true] {
                for event_replay in [false, true] {
                    for congestible in [false, true] {
                        views.push(Some(ViewDecl {
                            resource: "r".into(),
                            list,
                            watch: true,
                            relist_on_gap: true,
                            periodic_resync,
                            event_replay,
                            congestible,
                        }));
                    }
                }
            }
        }
        let bit = |b: bool| if b { "1" } else { "0" };
        let mut rows = Vec::new();
        for view in &views {
            for upstream_switch in [false, true] {
                let label = match view {
                    None => format!("{:<6} {:<6} {:<6} {:<7}", "-", "-", "-", "-"),
                    Some(v) => format!(
                        "{:<6} {:<6} {:<6} {:<7}",
                        match v.list {
                            ReadKind::Cache => "cache",
                            ReadKind::Quorum => "quorum",
                        },
                        bit(v.periodic_resync),
                        bit(v.event_replay),
                        bit(v.congestible)
                    ),
                } + &format!(" {:<6}", bit(upstream_switch));
                let cells = path_shapes()
                    .into_iter()
                    .map(|(_, paths)| {
                        summary(upstream_switch, view.iter().cloned().collect(), paths)
                    })
                    .collect();
                rows.push((label, cells));
            }
        }
        assert_eq!(rows.len() * path_shapes().len(), 306);
        rows
    }

    /// The model checker's class set for every grid cell, pinned as data
    /// in `tests/fixtures/hazard_grid.golden` (regenerate with
    /// `PH_LINT_BLESS=1`). This is the readable hazard spec: each cell is
    /// the set of §4.2 classes with a witness for one IR configuration.
    #[test]
    fn grid_verdicts_are_pinned() {
        let code = |c: PatternClass| match c {
            PatternClass::Staleness => "st",
            PatternClass::TimeTravel => "tt",
            PatternClass::ObservabilityGap => "og",
            PatternClass::CongestionStaleness => "cs",
        };
        let mut got = String::from(
            "# The hazard classes the model checker witnesses over the IR grid: one\n\
             # single-action summary per cell, reading resource `r`. Rows are view\n\
             # configurations (`-` = no view declared) times the upstream-switch bit;\n\
             # columns are gate-path shapes. st = staleness, tt = time-travel,\n\
             # og = observability-gap, cs = congestion-staleness, - = epoch-safe.\n\
             # Regenerate: PH_LINT_BLESS=1 cargo test -p ph-lint grid_verdicts_are_pinned\n",
        );
        let mut header = format!(
            "{:<6} {:<6} {:<6} {:<7} {:<6}",
            "list", "resync", "replay", "congest", "switch"
        );
        for (name, _) in path_shapes() {
            header.push_str(&format!(" {name:<8}"));
        }
        got.push_str(header.trim_end());
        got.push('\n');
        for (label, cells) in grid() {
            let mut line = label;
            for s in &cells {
                let classes: BTreeSet<PatternClass> =
                    model_check(s).witnesses().iter().map(|w| w.class).collect();
                let cell = if classes.is_empty() {
                    "-".to_string()
                } else {
                    classes.into_iter().map(code).collect::<Vec<_>>().join("+")
                };
                line.push_str(&format!(" {cell:<8}"));
            }
            got.push_str(line.trim_end());
            got.push('\n');
        }
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/hazard_grid.golden"
        );
        if std::env::var_os("PH_LINT_BLESS").is_some() {
            std::fs::write(golden, &got).unwrap();
        } else {
            let want = std::fs::read_to_string(golden)
                .unwrap_or_else(|e| panic!("reading {golden} (PH_LINT_BLESS=1 to create): {e}"));
            assert_eq!(
                got, want,
                "hazard grid moved (PH_LINT_BLESS=1 to regenerate)"
            );
        }
    }

    #[test]
    fn congestible_view_has_a_one_letter_traffic_surge_witness() {
        let mut v = cache_view("pods");
        v.congestible = true;
        let s = summary(
            false,
            vec![v],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        let report = model_check(&s);
        let classes: Vec<PatternClass> = report.witnesses().iter().map(|w| w.class).collect();
        assert_eq!(
            classes,
            vec![PatternClass::Staleness, PatternClass::CongestionStaleness]
        );
        let cw = report
            .witnesses()
            .into_iter()
            .find(|w| w.class == PatternClass::CongestionStaleness)
            .unwrap()
            .clone();
        assert_eq!(
            cw.schedule,
            vec![Letter::TrafficSurge("pods".into())],
            "minimal congestion witness is the surge alone — no injected fault"
        );
        assert_eq!(cw.path, "orphan");
    }

    #[test]
    fn resynced_congestible_view_proves_epoch_safe() {
        let mut v = cache_view("pods");
        v.congestible = true;
        v.periodic_resync = true;
        let s = summary(
            false,
            vec![v],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        assert!(model_check(&s).is_epoch_safe());
    }

    /// JSON of the actions array alone — the verdict-and-witness payload
    /// both expansions must agree on byte for byte (the report header
    /// legitimately differs in `states_*` and `reduction`).
    fn actions_json(report: &ModelCheckReport) -> String {
        let mut s = String::new();
        for a in &report.actions {
            s.push_str(&a.action);
            match &a.verdict {
                ActionVerdict::EpochSafe => s.push_str(":epoch-safe;"),
                ActionVerdict::Hazardous(ws) => {
                    for w in ws {
                        s.push_str(&w.to_json());
                    }
                    s.push(';');
                }
            }
        }
        s
    }

    /// The reduction-soundness pin over the pinned IR grid: identical
    /// witnesses and verdicts, never more expansion work.
    #[test]
    fn reduced_and_exhaustive_agree_on_the_enumerated_grid() {
        for (label, cells) in grid() {
            for s in &cells {
                let reduced = model_check(s);
                let full = model_check_exhaustive(s);
                assert_eq!(
                    actions_json(&reduced),
                    actions_json(&full),
                    "witness divergence on row `{label}`: {s:?}"
                );
                assert!(reduced.states_expanded <= full.states_expanded);
            }
        }
    }

    /// Two views, one of which no destructive gate ever reads: the
    /// reduction slices it away and must cut both state count and
    /// expansion work while keeping the witnesses byte-identical.
    #[test]
    fn irrelevant_views_are_sliced_without_changing_witnesses() {
        let s = summary(
            true,
            vec![cache_view("pods"), cache_view("metrics")],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        let reduced = model_check(&s);
        let full = model_check_exhaustive(&s);
        assert_eq!(actions_json(&reduced), actions_json(&full));
        assert!(reduced.states_explored < full.states_explored);
        assert!(
            reduced.states_expanded * 2 <= full.states_expanded,
            "slicing an unread view should at least halve the work: {} vs {}",
            reduced.states_expanded,
            full.states_expanded
        );
        assert_eq!(reduced.expansion, Expansion::Reduced);
        assert_eq!(full.expansion, Expansion::Exhaustive);
        // Exhaustive work is exactly |V|·|alphabet|: two stale-able
        // watched views enable delay/reorder/drop each, plus the two
        // global letters.
        assert_eq!(full.states_expanded, full.states_explored * 8);
    }

    /// The diamond the sleep sets rely on: letters the static relation
    /// calls independent commute *semantically* — both orders land on the
    /// same packed state from any reachable point.
    #[test]
    fn independent_letters_commute_on_model_state() {
        let s = AccessSummary {
            component: "c".into(),
            upstream_switch: true,
            views: vec![cache_view("nodes"), cache_view("pods")],
            actions: vec![
                ActionDecl {
                    name: "evict".into(),
                    destructive: true,
                    paths: vec![GatePath::new(
                        "gone",
                        vec![Gate::CacheAbsence("pods".into())],
                    )],
                },
                ActionDecl {
                    name: "fence".into(),
                    destructive: true,
                    paths: vec![GatePath::new(
                        "dead",
                        vec![Gate::CachePresence("nodes".into())],
                    )],
                },
            ],
        };
        let matrix = crate::independence::IndependenceMatrix::derive(&s);
        let letters = matrix.letters().to_vec();
        // A few reachable prefixes to start the diamond from.
        let prefixes: Vec<Vec<Letter>> = vec![
            vec![],
            vec![Letter::DelayCache("pods".into())],
            vec![Letter::UpstreamSwitch],
            vec![
                Letter::DropNotification("nodes".into()),
                Letter::DelayCache("nodes".into()),
            ],
        ];
        for a in &letters {
            for b in &letters {
                if !matrix.independent(a, b) {
                    continue;
                }
                for p in &prefixes {
                    let mut ab = p.clone();
                    ab.push(a.clone());
                    ab.push(b.clone());
                    let mut ba = p.clone();
                    ba.push(b.clone());
                    ba.push(a.clone());
                    assert_eq!(
                        apply_schedule(&s, &ab),
                        apply_schedule(&s, &ba),
                        "{} and {} marked independent but do not commute after {p:?}",
                        a.label(),
                        b.label()
                    );
                }
            }
        }
    }

    #[test]
    fn report_json_is_deterministic_across_runs() {
        let s = summary(
            true,
            vec![cache_view("pods"), cache_view("leases")],
            vec![
                GatePath::new("snap", vec![Gate::CacheAbsence("pods".into())]),
                GatePath::new("silence", vec![Gate::ObservedSilence("leases".into())]),
            ],
        );
        let a = model_check(&s).to_json();
        let b = model_check(&s).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"verdict\":\"hazardous\""));
        assert!(a.contains("delay-cache(pods)"));
    }

    #[test]
    fn non_destructive_actions_are_not_reported() {
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
        let report = model_check(&s);
        assert!(report.actions.is_empty());
        assert!(report.is_epoch_safe());
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
        assert!(model_check(&s).is_epoch_safe());
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
        assert!(model_check(&s).is_epoch_safe());
    }

    #[test]
    fn undeclared_views_never_claim_congestion() {
        // No declared view over `pods`: the unmanaged read is still
        // stale-able, but congestibility cannot be assumed.
        let s = summary(
            false,
            vec![],
            vec![GatePath::new(
                "orphan",
                vec![Gate::CacheAbsence("pods".into())],
            )],
        );
        let classes: Vec<PatternClass> = model_check(&s)
            .witnesses()
            .iter()
            .map(|w| w.class)
            .collect();
        assert_eq!(classes, vec![PatternClass::Staleness]);
    }
}

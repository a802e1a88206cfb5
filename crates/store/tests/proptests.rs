//! Randomized-but-deterministic tests on the store's MVCC state machine and
//! the Raft core's safety invariants. Cases come from a fixed-seed
//! [`SimRng`], so the suite is reproducible with no third-party framework.

use ph_sim::SimRng;
use ph_store::kv::{Key, LeaseId, Revision, Value};
use ph_store::msgs::{Expect, Op};
use ph_store::mvcc::MvccStore;
use ph_store::raft::{Command, Effect, RaftCore, RaftMsg};

/// Draws an arbitrary op over a small key universe.
fn gen_op(rng: &mut SimRng) -> Op {
    match rng.below(6) {
        0 => Op::Put {
            key: Key::new(format!("k{}", rng.below(8))),
            value: Value::copy_from_slice(&[rng.below(256) as u8]),
            lease: None,
            expect: Expect::Any,
        },
        1 => Op::Delete {
            key: Key::new(format!("k{}", rng.below(8))),
            expect: Expect::Any,
        },
        2 => Op::LeaseGrant {
            id: LeaseId(rng.below(4)),
            ttl_ms: rng.range(1, 500),
        },
        3 => Op::LeaseRevoke {
            id: LeaseId(rng.below(4)),
        },
        4 => Op::Compact {
            at: Revision(rng.below(20)),
            log_floor: 0,
        },
        _ => Op::Nop,
    }
}

fn gen_ops(rng: &mut SimRng, max: u64) -> Vec<Op> {
    let n = rng.below(max) as usize;
    (0..n).map(|_| gen_op(rng)).collect()
}

#[test]
fn mvcc_apply_is_deterministic() {
    let mut rng = SimRng::from_seed(0x3A11);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng, 60);
        let mut a = MvccStore::new();
        let mut b = MvccStore::new();
        for op in &ops {
            let (ra, ea) = a.apply(op);
            let (rb, eb) = b.apply(op);
            assert_eq!(ra.is_ok(), rb.is_ok());
            assert_eq!(ra.ok(), rb.ok());
            assert_eq!(ea, eb);
        }
        assert_eq!(a.range(""), b.range(""));
        assert_eq!(a.revision(), b.revision());
        assert_eq!(a.compacted(), b.compacted());
    }
}

#[test]
fn mvcc_event_log_is_dense_in_revisions() {
    let mut rng = SimRng::from_seed(0xDE45);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng, 60);
        let mut s = MvccStore::new();
        let mut all_events = Vec::new();
        for op in &ops {
            let (result, evs) = s.apply(op);
            let _ = result.is_ok(); // both outcomes are legal here
            all_events.extend(evs);
        }
        // Every revision in 1..=current appears exactly once across events.
        let mut revs: Vec<u64> = all_events.iter().map(|e| e.revision().0).collect();
        revs.sort_unstable();
        let expected: Vec<u64> = (1..=s.revision().0).collect();
        assert_eq!(revs, expected);
    }
}

#[test]
fn mvcc_retained_events_replay_to_current_state() {
    let mut rng = SimRng::from_seed(0x4E91);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng, 60);
        let mut s = MvccStore::new();
        for op in &ops {
            let _ = s.apply(op);
        }
        // Without compaction interference, events from 0 replay to S.
        if s.compacted() == Revision::ZERO {
            let events = s.events_since(Revision::ZERO).expect("retained");
            let mut rebuilt: std::collections::BTreeMap<Key, Value> =
                std::collections::BTreeMap::new();
            for e in events {
                match e.as_ref() {
                    ph_store::KvEvent::Put { kv, .. } => {
                        rebuilt.insert(kv.key.clone(), kv.value.clone());
                    }
                    ph_store::KvEvent::Delete { key, .. } => {
                        rebuilt.remove(key);
                    }
                }
            }
            let (current, _) = s.range("");
            let direct: std::collections::BTreeMap<Key, Value> =
                current.into_iter().map(|kv| (kv.key, kv.value)).collect();
            assert_eq!(rebuilt, direct);
        }
    }
}

#[test]
fn mvcc_version_counts_writes_since_create() {
    let mut rng = SimRng::from_seed(0x7C01);
    for _ in 0..32 {
        let puts = rng.range(1, 20) as u8;
        let mut s = MvccStore::new();
        for i in 0..puts {
            let (r, _) = s.apply(&Op::Put {
                key: Key::new("k"),
                value: Value::copy_from_slice(&[i]),
                lease: None,
                expect: Expect::Any,
            });
            r.expect("put");
        }
        assert_eq!(s.get(&Key::new("k")).expect("k").version, puts as u64);
    }
}

#[test]
fn cas_never_succeeds_against_a_wrong_revision() {
    let mut rng = SimRng::from_seed(0xCA5);
    for _ in 0..64 {
        let writes = rng.range(2, 10) as u8;
        let guess = rng.below(100);
        let mut s = MvccStore::new();
        for i in 0..writes {
            let _ = s.apply(&Op::Put {
                key: Key::new("k"),
                value: Value::copy_from_slice(&[i]),
                lease: None,
                expect: Expect::Any,
            });
        }
        let actual = s.get(&Key::new("k")).expect("k").mod_revision;
        let (r, _) = s.apply(&Op::Put {
            key: Key::new("k"),
            value: Value::from_static(b"cas"),
            lease: None,
            expect: Expect::ModRev(Revision(guess)),
        });
        assert_eq!(r.is_ok(), Revision(guess) == actual);
    }
}

// ---------------------------------------------------------------------
// MVCC watch-window invariants under random interleavings
// ---------------------------------------------------------------------

/// One step of a random store/view interleaving: a mutation, a
/// compaction, or a windowed view read from one of `VIEWS` cursors.
#[derive(Debug, Clone)]
enum WindowStep {
    Mutate(Op),
    Compact(u64),
    ViewRead(usize),
}

const VIEWS: usize = 3;

fn gen_window_step(rng: &mut SimRng) -> WindowStep {
    match rng.below(8) {
        0..=3 => WindowStep::Mutate(Op::Put {
            key: Key::new(format!("k{}", rng.below(6))),
            value: Value::copy_from_slice(&[rng.below(256) as u8]),
            lease: None,
            expect: Expect::Any,
        }),
        4 => WindowStep::Mutate(Op::Delete {
            key: Key::new(format!("k{}", rng.below(6))),
            expect: Expect::Any,
        }),
        5 => WindowStep::Compact(rng.below(40)),
        _ => WindowStep::ViewRead(rng.below(VIEWS as u64) as usize),
    }
}

/// The §4.2.3 window contract, as a property over random interleavings of
/// puts, deletes, compactions and per-view windowed reads:
///
/// * a view's frontier (the last revision it has seen) never goes
///   backwards, and each read's events are strictly ascending, dense, and
///   entirely above the frontier — no replays, no reordering;
/// * a read from a frontier below the compaction floor **always errors**
///   ([`ph_store::msgs::OpError::Compacted`]) and **never silently
///   skips** the compacted gap — the error fires exactly when the window
///   is too old, with the true floor in the payload.
#[test]
fn watch_window_frontiers_are_monotonic_and_too_old_windows_always_error() {
    use ph_store::msgs::OpError;
    let mut rng = SimRng::from_seed(0x717D_0175);
    for _ in 0..96 {
        let n = rng.range(10, 80) as usize;
        let steps: Vec<WindowStep> = (0..n).map(|_| gen_window_step(&mut rng)).collect();
        let mut s = MvccStore::new();
        // Each view resumes from the last revision it saw (starting at 0,
        // like a watcher registered before any history existed).
        let mut frontiers = [Revision::ZERO; VIEWS];
        for step in steps {
            match step {
                WindowStep::Mutate(op) => {
                    let _ = s.apply(&op);
                }
                WindowStep::Compact(at) => {
                    s.compact(Revision(at));
                    assert!(s.compacted() <= s.revision(), "floor above head");
                }
                WindowStep::ViewRead(v) => {
                    let before = frontiers[v];
                    match s.events_since(before) {
                        Ok(events) => {
                            // Ok is only legal when the window still
                            // covers the frontier.
                            assert!(
                                before >= s.compacted(),
                                "silent skip: read from {before:?} under floor {:?}",
                                s.compacted()
                            );
                            let mut last = before;
                            for e in &events {
                                // Dense and strictly ascending: exactly
                                // the next revision, every time.
                                assert_eq!(
                                    e.revision(),
                                    Revision(last.0 + 1),
                                    "gap or reorder in view {v}"
                                );
                                last = e.revision();
                            }
                            frontiers[v] = last;
                            assert!(frontiers[v] >= before, "view {v} frontier went backwards");
                        }
                        Err(OpError::Compacted {
                            requested,
                            compacted,
                        }) => {
                            // The error fires iff the window is too old,
                            // and reports the true floor.
                            assert_eq!(requested, before);
                            assert_eq!(compacted, s.compacted());
                            assert!(
                                requested < compacted,
                                "spurious Compacted error for a covered window"
                            );
                            // A real watcher would re-list; model that by
                            // resuming from the floor (still monotonic:
                            // the floor is above the stale frontier).
                            frontiers[v] = compacted;
                        }
                        Err(other) => panic!("unexpected error {other:?}"),
                    }
                }
            }
        }
    }
}

/// After any interleaving, a fresh view resuming from *exactly* the
/// compaction floor sees the full retained suffix — the window boundary
/// itself is never off by one in either direction.
#[test]
fn window_boundary_is_exact_after_random_compactions() {
    let mut rng = SimRng::from_seed(0x0B0D_A7E5);
    for _ in 0..96 {
        let mut s = MvccStore::new();
        let writes = rng.range(1, 40);
        for i in 0..writes {
            let _ = s.apply(&Op::Put {
                key: Key::new(format!("k{}", i % 5)),
                value: Value::from_static(b"v"),
                lease: None,
                expect: Expect::Any,
            });
        }
        s.compact(Revision(rng.below(writes + 10)));
        let floor = s.compacted();
        // At the floor: Ok, and dense up to the head.
        let evs = s.events_since(floor).expect("at the floor");
        assert_eq!(evs.len() as u64, s.revision().0 - floor.0);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.revision(), Revision(floor.0 + 1 + i as u64));
        }
        // One below the floor: always an error (unless the floor is 0).
        if floor > Revision::ZERO {
            assert!(
                s.events_since(Revision(floor.0 - 1)).is_err(),
                "one-below-floor read must error"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Raft safety under arbitrary message schedules
// ---------------------------------------------------------------------

/// A scripted action against a 3-node in-memory Raft network.
#[derive(Debug, Clone)]
enum Action {
    Timeout(usize),
    Heartbeat(usize),
    Propose(usize, u8),
    DeliverOne,
    DropOne,
    /// Deliver the k-th in-flight message (modulo the queue): `ph-sim`
    /// links jitter, so messages overtake each other.
    DeliverAny(usize),
    /// Deliver a copy of the k-th in-flight message and keep the original.
    Duplicate(usize),
}

fn gen_action(rng: &mut SimRng) -> Action {
    match rng.below(10) {
        0 => Action::Timeout(rng.below(3) as usize),
        1 => Action::Heartbeat(rng.below(3) as usize),
        2 => Action::Propose(rng.below(3) as usize, rng.below(256) as u8),
        3 => Action::DropOne,
        4 | 5 => Action::DeliverAny(rng.below(16) as usize),
        6 => Action::Duplicate(rng.below(16) as usize),
        _ => Action::DeliverOne, // bias toward delivery
    }
}

/// The core Raft safety property: no two nodes ever apply different
/// commands at the same log index, under arbitrary interleaving,
/// reordering, duplication and message loss.
#[test]
fn raft_applied_logs_never_conflict() {
    let mut rng = SimRng::from_seed(0x4A47);
    let mut total_applied = 0;
    for _ in 0..256 {
        let actions: Vec<Action> = {
            let n = rng.below(120) as usize;
            (0..n).map(|_| gen_action(&mut rng)).collect()
        };
        let n = 3;
        let mut cores: Vec<RaftCore> = (0..n).map(|i| RaftCore::new(i, n)).collect();
        let mut inflight: std::collections::VecDeque<(usize, usize, RaftMsg)> =
            std::collections::VecDeque::new();
        let mut applied: Vec<Vec<(u64, Command)>> = vec![Vec::new(); n];

        let absorb = |at: usize,
                      effects: Vec<Effect>,
                      inflight: &mut std::collections::VecDeque<(usize, usize, RaftMsg)>,
                      applied: &mut Vec<Vec<(u64, Command)>>| {
            for e in effects {
                match e {
                    Effect::Send(to, msg) => inflight.push_back((at, to, msg)),
                    Effect::Apply { index, entry } => applied[at].push((index, entry.cmd.clone())),
                    _ => {}
                }
            }
        };

        for action in actions {
            let mut effects = Vec::new();
            match action {
                Action::Timeout(i) => {
                    cores[i].on_election_timeout(&mut effects);
                    absorb(i, effects, &mut inflight, &mut applied);
                }
                Action::Heartbeat(i) => {
                    cores[i].on_heartbeat(&mut effects);
                    absorb(i, effects, &mut inflight, &mut applied);
                }
                Action::Propose(i, v) => {
                    let _ = cores[i].propose(
                        Command::internal(Op::Put {
                            key: Key::new(format!("v{v}")),
                            value: Value::copy_from_slice(&[v]),
                            lease: None,
                            expect: Expect::Any,
                        }),
                        &mut effects,
                    );
                    absorb(i, effects, &mut inflight, &mut applied);
                }
                Action::DropOne => {
                    inflight.pop_front();
                }
                Action::DeliverOne | Action::DeliverAny(_) | Action::Duplicate(_) => {
                    let picked = match action {
                        _ if inflight.is_empty() => None,
                        Action::DeliverAny(k) => inflight.remove(k % inflight.len()),
                        Action::Duplicate(k) => inflight.get(k % inflight.len()).cloned(),
                        _ => inflight.pop_front(),
                    };
                    if let Some((from, to, msg)) = picked {
                        cores[to].on_message(from, &msg, &mut effects);
                        absorb(to, effects, &mut inflight, &mut applied);
                    }
                }
            }
        }

        // Safety: agreement on every commonly applied index.
        for a in 0..n {
            for b in (a + 1)..n {
                let map_a: std::collections::BTreeMap<u64, &Command> =
                    applied[a].iter().map(|(i, c)| (*i, c)).collect();
                for (idx, cmd) in &applied[b] {
                    if let Some(other) = map_a.get(idx) {
                        assert_eq!(*other, cmd, "index {} diverged", idx);
                    }
                }
            }
        }
        // Each node applies each index at most once, in order.
        for log in &applied {
            let idxs: Vec<u64> = log.iter().map(|(i, _)| *i).collect();
            let mut sorted = idxs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(idxs.len(), sorted.len(), "duplicate applies");
            assert!(idxs.windows(2).all(|w| w[0] < w[1]), "out-of-order applies");
            total_applied += idxs.len();
        }
    }
    assert!(
        total_applied >= 300,
        "schedules too hostile to commit: {total_applied} applies"
    );
}

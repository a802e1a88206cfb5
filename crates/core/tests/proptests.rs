//! Randomized-but-deterministic tests on the partial-history model's
//! invariants, generated from a fixed-seed [`SimRng`].
//!
//! The crate's one test binary: the causality laws are the
//! [`causality_props`] module.

mod causality_props;

use ph_sim::SimRng;

use ph_core::epoch::{EpochBuffer, EpochError, EpochPartition};
use ph_core::history::{ChangeOp, History, PartialHistory, View};
use ph_core::observe::observability_report;

/// Draws an arbitrary history over a small entity universe.
fn gen_history(rng: &mut SimRng, max_len: u64) -> History {
    let n = rng.below(max_len) as usize;
    let mut h = History::new();
    let mut alive = [false; 6];
    for _ in 0..n {
        let e = rng.below(6) as usize;
        let kind = rng.below(3);
        let v = rng.below(100);
        let entity = format!("e{e}");
        match kind {
            0 => {
                if !alive[e] {
                    h.append(entity, ChangeOp::Create);
                    alive[e] = true;
                } else {
                    h.append(entity, ChangeOp::Update(v));
                }
            }
            1 => {
                if alive[e] {
                    h.append(entity, ChangeOp::Delete);
                    alive[e] = false;
                } else {
                    h.append(entity, ChangeOp::Create);
                    alive[e] = true;
                }
            }
            _ => {
                if alive[e] {
                    h.append(entity, ChangeOp::Update(v));
                } else {
                    h.append(entity, ChangeOp::Create);
                    alive[e] = true;
                }
            }
        }
    }
    h
}

/// Draws a subsequence mask for a history.
fn gen_mask(rng: &mut SimRng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.below(2) == 1).collect()
}

#[test]
fn any_subsequence_is_a_partial_history() {
    let mut rng = SimRng::from_seed(0x5B5);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 40);
        let mask = gen_mask(&mut rng, h.len() as usize);
        let mut view = PartialHistory::new();
        for (c, keep) in h.changes().iter().zip(&mask) {
            if *keep {
                view.observe(c.clone());
            }
        }
        assert!(view.is_partial_of(&h));
        // Frontier never exceeds |H|.
        assert!(view.frontier() <= h.len());
    }
}

#[test]
fn duplicating_any_element_breaks_the_invariant() {
    let mut rng = SimRng::from_seed(0xD0B1);
    let mut cases = 0;
    while cases < 128 {
        let h = gen_history(&mut rng, 40);
        if h.is_empty() {
            continue;
        }
        cases += 1;
        let idx = rng.range(1, h.len() + 1);
        let mut view = PartialHistory::new();
        for c in h.changes() {
            view.observe(c.clone());
            if c.seq == idx {
                view.observe(c.clone()); // replay
            }
        }
        assert!(!view.is_partial_of(&h), "replays must be rejected");
    }
}

#[test]
fn lag_plus_frontier_equals_history_length() {
    let mut rng = SimRng::from_seed(0x1A6);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 40);
        let mask = gen_mask(&mut rng, h.len() as usize);
        let mut view = View::new();
        for (c, keep) in h.changes().iter().zip(&mask) {
            if *keep {
                view.observe(c.clone());
            }
        }
        assert_eq!(view.lag(&h) + view.history.frontier(), h.len());
    }
}

#[test]
fn complete_views_never_diverge() {
    let mut rng = SimRng::from_seed(0xC0);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 40);
        let view = View {
            history: h.as_view(),
        };
        assert!(view.divergent_entities(&h).is_empty());
        assert!(view.interior_gaps(&h).is_empty());
        assert_eq!(view.lag(&h), 0);
    }
}

#[test]
fn interior_gaps_are_exactly_the_masked_out_prefix_changes() {
    let mut rng = SimRng::from_seed(0x6A5);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 40);
        let mask = gen_mask(&mut rng, h.len() as usize);
        let mut view = View::new();
        for (c, keep) in h.changes().iter().zip(&mask) {
            if *keep {
                view.observe(c.clone());
            }
        }
        let frontier = view.history.frontier();
        let expected: Vec<u64> = h
            .changes()
            .iter()
            .zip(&mask)
            .filter(|(c, keep)| !**keep && c.seq <= frontier)
            .map(|(c, _)| c.seq)
            .collect();
        let got: Vec<u64> = view.interior_gaps(&h).iter().map(|c| c.seq).collect();
        assert_eq!(got, expected);
    }
}

#[test]
fn observability_partitions_the_history() {
    let mut rng = SimRng::from_seed(0x0B5);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 40);
        let points: Vec<u64> = {
            let n = rng.below(8) as usize;
            (0..n).map(|_| rng.below(h.len() + 3)).collect()
        };
        let report = observability_report(&h, &points);
        let mut all: Vec<u64> = report
            .observable
            .iter()
            .chain(&report.unobservable)
            .copied()
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (1..=h.len()).collect();
        assert_eq!(all, expected, "every change classified exactly once");
    }
}

#[test]
fn reading_after_every_event_observes_single_entity_histories_fully() {
    // With one entity and alternating create/delete, dense reads see all.
    for n in 1u64..30 {
        let mut h = History::new();
        for i in 0..n {
            h.append(
                "x",
                if i % 2 == 0 {
                    ChangeOp::Create
                } else {
                    ChangeOp::Delete
                },
            );
        }
        let points: Vec<u64> = (1..=n).collect();
        let report = observability_report(&h, &points);
        assert!(report.unobservable.is_empty());
    }
}

#[test]
fn epoch_buffer_releases_everything_given_a_complete_feed() {
    let mut rng = SimRng::from_seed(0xE9);
    for _ in 0..128 {
        let h = gen_history(&mut rng, 60);
        let size = rng.range(1, 10);
        let mut buf = EpochBuffer::new(EpochPartition::new(size));
        for c in h.changes() {
            buf.push(c.clone());
        }
        let mut released = 0u64;
        loop {
            match buf.release_next(h.len()) {
                Ok(epoch) => {
                    // Released epochs are internally ordered.
                    let seqs: Vec<u64> = epoch.iter().map(|c| c.seq).collect();
                    let mut sorted = seqs.clone();
                    sorted.sort_unstable();
                    assert_eq!(&seqs, &sorted);
                    released += epoch.len() as u64;
                }
                Err(EpochError::NotSealed { .. }) => break,
                Err(EpochError::Incomplete { .. }) => {
                    panic!("complete feed produced an incomplete epoch");
                }
            }
        }
        // Everything except the trailing unsealed epoch is delivered.
        assert_eq!(released, (h.len() / size) * size);
    }
}

#[test]
fn epoch_buffer_detects_every_gap() {
    let mut rng = SimRng::from_seed(0x6A9);
    let mut cases = 0;
    while cases < 128 {
        let h = gen_history(&mut rng, 60);
        if h.len() < 4 {
            continue;
        }
        cases += 1;
        let size = rng.range(1, 5);
        let drop_seq = rng.range(1, h.len() + 1);
        let mut buf = EpochBuffer::new(EpochPartition::new(size));
        for c in h.changes() {
            if c.seq != drop_seq {
                buf.push(c.clone());
            }
        }
        let dropped_epoch = EpochPartition::new(size).epoch_of(drop_seq);
        let mut hit = false;
        loop {
            match buf.release_next(h.len()) {
                Ok(epoch) => {
                    // No released epoch may contain a neighbour of the gap
                    // from the same epoch.
                    for c in &epoch {
                        assert_ne!(EpochPartition::new(size).epoch_of(c.seq), dropped_epoch);
                    }
                }
                Err(EpochError::Incomplete { epoch, missing }) => {
                    assert_eq!(epoch, dropped_epoch);
                    assert!(missing.contains(&drop_seq));
                    hit = true;
                    buf.skip_epoch();
                }
                Err(EpochError::NotSealed { .. }) => break,
            }
        }
        // The gap is detected iff its epoch seals within the history.
        let seals = EpochPartition::new(size).is_sealed(dropped_epoch, h.len());
        assert_eq!(hit, seals);
    }
}

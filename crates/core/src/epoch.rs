//! The epoch-bounded programming model sketched in §6.2.
//!
//! The paper proposes bounding divergence by breaking `H` into epochs (as in
//! streaming systems) and guaranteeing: *if a service can see one event
//! within an epoch, it can see all other events within that epoch*. This
//! module implements that contract as a consumer-side buffer:
//! [`EpochBuffer`] holds arriving changes back until their epoch is sealed,
//! then releases the epoch atomically. The cost is delivery delay
//! (coordination); the benefit is that staleness and observability gaps
//! cannot occur *within* an epoch — only at whole-epoch granularity.

use crate::history::Change;

/// A static partition of sequence numbers into fixed-size epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPartition {
    size: u64,
}

impl EpochPartition {
    /// Epochs of `size` consecutive sequence numbers: epoch 0 is seqs
    /// `1..=size`, epoch 1 is `size+1..=2*size`, …
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: u64) -> EpochPartition {
        assert!(size > 0, "epoch size must be positive");
        EpochPartition { size }
    }

    /// The configured epoch size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The epoch containing sequence number `seq` (1-based seqs).
    ///
    /// # Panics
    ///
    /// Panics if `seq == 0` (no change has sequence number 0).
    pub fn epoch_of(&self, seq: u64) -> u64 {
        assert!(seq > 0, "sequence numbers start at 1");
        (seq - 1) / self.size
    }

    /// First sequence number of `epoch`.
    pub fn first_seq(&self, epoch: u64) -> u64 {
        epoch * self.size + 1
    }

    /// Last sequence number of `epoch`.
    pub fn last_seq(&self, epoch: u64) -> u64 {
        (epoch + 1) * self.size
    }

    /// An epoch is *sealed* once the history has committed past its last
    /// sequence number.
    pub fn is_sealed(&self, epoch: u64, committed: u64) -> bool {
        committed >= self.last_seq(epoch)
    }

    /// The static worst-case staleness of a gap-free, eagerly-draining
    /// consumer: up to `size - 1` committed events in the still-unsealed
    /// epoch, plus the sealing event itself before release happens. This
    /// is the bound the model checker's epoch-safety verdict leans on —
    /// within it, divergence is coordination delay, not a hazard.
    pub fn staleness_ceiling(&self) -> u64 {
        self.size
    }
}

/// Consumer-side enforcement of the all-or-nothing epoch guarantee.
///
/// Changes are pushed as they arrive (possibly with gaps — the buffer does
/// not heal missing events, it *detects* them) and released strictly in
/// epoch order, each epoch complete, once sealed.
#[derive(Debug, Clone)]
pub struct EpochBuffer {
    partition: EpochPartition,
    /// Buffered changes keyed by seq, sparse.
    pending: std::collections::BTreeMap<u64, Change>,
    /// Next epoch to release.
    next_epoch: u64,
    /// Total changes released so far.
    released: u64,
    /// Peak buffer occupancy (coordination-cost metric).
    peak_buffered: usize,
}

/// Why an epoch could not be released.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// The epoch is not sealed yet (history hasn't passed its end).
    NotSealed {
        /// The epoch in question.
        epoch: u64,
    },
    /// The epoch is sealed but events are missing from the buffer — the
    /// feed violated the epoch contract (dropped notifications).
    Incomplete {
        /// The epoch in question.
        epoch: u64,
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
}

impl EpochBuffer {
    /// Creates an empty buffer over the given partition.
    pub fn new(partition: EpochPartition) -> EpochBuffer {
        EpochBuffer {
            partition,
            pending: std::collections::BTreeMap::new(),
            next_epoch: 0,
            released: 0,
            peak_buffered: 0,
        }
    }

    /// The partition in force.
    pub fn partition(&self) -> EpochPartition {
        self.partition
    }

    /// Buffers an arriving change. Late arrivals for already-released
    /// epochs are ignored (they were already delivered or declared missing).
    pub fn push(&mut self, change: Change) {
        if self.partition.epoch_of(change.seq) < self.next_epoch {
            return;
        }
        self.pending.insert(change.seq, change);
        self.peak_buffered = self.peak_buffered.max(self.pending.len());
    }

    /// Attempts to release the next epoch given that the history has
    /// committed up to `committed`.
    ///
    /// # Errors
    ///
    /// [`EpochError::NotSealed`] if the epoch isn't over yet;
    /// [`EpochError::Incomplete`] if it is over but events never arrived.
    pub fn release_next(&mut self, committed: u64) -> Result<Vec<Change>, EpochError> {
        let epoch = self.next_epoch;
        if !self.partition.is_sealed(epoch, committed) {
            return Err(EpochError::NotSealed { epoch });
        }
        let lo = self.partition.first_seq(epoch);
        let hi = self.partition.last_seq(epoch);
        let missing: Vec<u64> = (lo..=hi)
            .filter(|s| !self.pending.contains_key(s))
            .collect();
        if !missing.is_empty() {
            return Err(EpochError::Incomplete { epoch, missing });
        }
        let mut out = Vec::with_capacity(self.partition.size() as usize);
        for s in lo..=hi {
            out.push(self.pending.remove(&s).expect("checked"));
        }
        self.next_epoch += 1;
        self.released += out.len() as u64;
        Ok(out)
    }

    /// Releases every currently releasable epoch, in order, stopping at the
    /// first unsealed or incomplete one.
    pub fn drain_ready(&mut self, committed: u64) -> Vec<Vec<Change>> {
        let mut out = Vec::new();
        while let Ok(epoch) = self.release_next(committed) {
            out.push(epoch);
        }
        out
    }

    /// Skips an incomplete epoch (the consumer chose to re-list instead of
    /// waiting for lost events), discarding whatever was buffered for it.
    pub fn skip_epoch(&mut self) {
        let hi = self.partition.last_seq(self.next_epoch);
        let keys: Vec<u64> = self.pending.range(..=hi).map(|(&s, _)| s).collect();
        for k in keys {
            self.pending.remove(&k);
        }
        self.next_epoch += 1;
    }

    /// Number of changes delivered so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Number of changes currently held back.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Highest buffer occupancy ever reached — the coordination cost the
    /// §6.2 granularity knob trades against staleness bounds.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// The §6.2 guarantee as a checkable property: with the consumer's view
    /// being everything released so far, its staleness relative to
    /// `committed` is bounded by buffered + up to one unsealed epoch.
    pub fn staleness_bound(&self, committed: u64) -> u64 {
        committed.saturating_sub(self.partition.first_seq(self.next_epoch) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ChangeOp;

    fn ch(seq: u64) -> Change {
        Change {
            seq,
            entity: format!("e{seq}"),
            op: ChangeOp::Create,
        }
    }

    #[test]
    fn partition_maps_seqs_to_epochs() {
        let p = EpochPartition::new(3);
        assert_eq!(p.epoch_of(1), 0);
        assert_eq!(p.epoch_of(3), 0);
        assert_eq!(p.epoch_of(4), 1);
        assert_eq!(p.first_seq(1), 4);
        assert_eq!(p.last_seq(1), 6);
        assert!(p.is_sealed(0, 3));
        assert!(!p.is_sealed(1, 5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_size_panics() {
        EpochPartition::new(0);
    }

    #[test]
    fn complete_epoch_releases_atomically() {
        let mut b = EpochBuffer::new(EpochPartition::new(2));
        b.push(ch(1));
        // Sealed? History only at 1 → no.
        assert_eq!(b.release_next(1), Err(EpochError::NotSealed { epoch: 0 }));
        b.push(ch(2));
        let epoch = b.release_next(2).expect("complete");
        assert_eq!(epoch.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(b.released(), 2);
    }

    #[test]
    fn out_of_order_arrival_within_epoch_is_fine() {
        let mut b = EpochBuffer::new(EpochPartition::new(3));
        b.push(ch(3));
        b.push(ch(1));
        b.push(ch(2));
        let epoch = b.release_next(3).expect("complete");
        let seqs: Vec<u64> = epoch.iter().map(|c| c.seq).collect();
        assert_eq!(
            seqs,
            vec![1, 2, 3],
            "released in seq order regardless of arrival"
        );
    }

    #[test]
    fn missing_event_blocks_whole_epoch() {
        let mut b = EpochBuffer::new(EpochPartition::new(2));
        b.push(ch(2)); // 1 never arrives (dropped notification)
        match b.release_next(5) {
            Err(EpochError::Incomplete { epoch: 0, missing }) => {
                assert_eq!(missing, vec![1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The all-or-nothing guarantee: the consumer saw event 2's arrival
        // but the buffer refuses to expose it without event 1.
        assert_eq!(b.released(), 0);
    }

    #[test]
    fn skip_epoch_unblocks_after_a_gap() {
        let mut b = EpochBuffer::new(EpochPartition::new(2));
        b.push(ch(2));
        b.push(ch(3));
        b.push(ch(4));
        assert!(b.release_next(4).is_err());
        b.skip_epoch(); // give up on epoch 0
        let epoch = b.release_next(4).expect("epoch 1 complete");
        assert_eq!(epoch.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn drain_ready_releases_multiple_epochs_in_order() {
        let mut b = EpochBuffer::new(EpochPartition::new(2));
        for s in 1..=6 {
            b.push(ch(s));
        }
        let epochs = b.drain_ready(5); // epoch 2 (seqs 5,6) not sealed
        assert_eq!(epochs.len(), 2);
        assert_eq!(b.buffered(), 2);
        let epochs = b.drain_ready(6);
        assert_eq!(epochs.len(), 1);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn late_arrivals_for_released_epochs_are_ignored() {
        let mut b = EpochBuffer::new(EpochPartition::new(1));
        b.push(ch(1));
        b.release_next(1).expect("ok");
        b.push(ch(1)); // replay
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn smaller_epochs_buffer_less() {
        // Coordination-cost shape behind experiment E2: with the same feed,
        // a finer partition holds fewer events back at peak.
        let feed: Vec<Change> = (1..=64).map(ch).collect();
        let mut peaks = Vec::new();
        for size in [1u64, 4, 16, 64] {
            let mut b = EpochBuffer::new(EpochPartition::new(size));
            for c in &feed {
                b.push(c.clone());
                b.drain_ready(c.seq);
            }
            peaks.push(b.peak_buffered());
        }
        assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "peaks {peaks:?}");
        assert_eq!(peaks[0], 1);
        assert_eq!(peaks[3], 64);
    }

    #[test]
    fn staleness_ceiling_bounds_gap_free_eager_consumers() {
        for size in [1u64, 2, 4, 8] {
            let p = EpochPartition::new(size);
            let mut b = EpochBuffer::new(p);
            let mut tight = false;
            for s in 1..=32 {
                b.push(ch(s));
                // Just before draining, the sealing event itself may sit
                // at the ceiling — never beyond it.
                assert!(b.staleness_bound(s) <= p.staleness_ceiling());
                tight |= b.staleness_bound(s) == p.staleness_ceiling();
                b.drain_ready(s);
                // After an eager drain only the open epoch's prefix lags.
                assert!(b.staleness_bound(s) < p.staleness_ceiling().max(1));
            }
            assert!(tight, "ceiling is reached for size {size}");
        }
    }

    #[test]
    fn staleness_bound_tracks_unreleased_span() {
        let mut b = EpochBuffer::new(EpochPartition::new(4));
        assert_eq!(b.staleness_bound(0), 0);
        for s in 1..=3 {
            b.push(ch(s));
        }
        // Committed 3, nothing released: bound = 3.
        assert_eq!(b.staleness_bound(3), 3);
        b.push(ch(4));
        b.drain_ready(4);
        assert_eq!(b.staleness_bound(4), 0);
    }
}

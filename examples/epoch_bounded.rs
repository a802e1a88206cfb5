//! The §6.2 proposal, implemented: epoch-bounded delivery.
//!
//! ```text
//! cargo run --example epoch_bounded
//! ```
//!
//! "A hypothetical programming model might explicitly break down H into
//! epochs … and guarantee that if a service can see one event within an
//! epoch, it should be able to see all other events within that epoch."
//!
//! This example feeds the same lossy notification stream to a naive
//! consumer and to an epoch-buffered consumer, and shows the trade-off the
//! paper predicts: epochs convert silent interior gaps into *detected*,
//! whole-epoch losses (no partial visibility), at the cost of buffering.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example narrates its run on stdout"
)]

use ph_core::epoch::{EpochBuffer, EpochError, EpochPartition};
use ph_core::history::{Change, ChangeOp, History};
use ph_core::observe::observability_report;
use ph_sim::SimRng;

fn main() {
    // Ground truth: 64 committed changes over 8 entities.
    let mut h = History::new();
    let mut rng = SimRng::from_seed(2024);
    let mut alive = [false; 8];
    for _ in 0..64 {
        let e = rng.below(8) as usize;
        let entity = format!("obj{e}");
        if !alive[e] {
            h.append(entity, ChangeOp::Create);
            alive[e] = true;
        } else if rng.chance(0.3) {
            h.append(entity, ChangeOp::Delete);
            alive[e] = false;
        } else {
            h.append(entity, ChangeOp::Update(rng.below(100)));
        }
    }
    println!("ground truth history H: {} changes\n", h.len());

    // The delivery stream drops ~15% of notifications (network trouble).
    let delivered: Vec<Change> = h
        .changes()
        .iter()
        .filter(|_| !rng.chance(0.15))
        .cloned()
        .collect();
    let dropped = h.len() as usize - delivered.len();
    println!("delivery dropped {dropped} notifications silently\n");

    // Consumer A: naive — applies whatever arrives. It has interior gaps
    // it can never detect from the stream itself.
    let mut naive = ph_core::history::View::new();
    for c in &delivered {
        naive.observe(c.clone());
    }
    let gaps = naive.interior_gaps(&h);
    println!(
        "naive consumer: frontier {}, {} silent interior gaps, {} divergent entities",
        naive.history.frontier(),
        gaps.len(),
        naive.divergent_entities(&h).len()
    );

    // How much would sparse state reads have told it? (§3: not enough.)
    let report = observability_report(&h, &[16, 32, 48, 64]);
    println!(
        "  (even reading S at 4 points reconstructs only {}/{} events — \
         {:.0}% unobservable)\n",
        report.observable.len(),
        h.len(),
        report.gap_fraction() * 100.0
    );

    // Consumer B: epoch-buffered (epoch size 8). It releases only complete
    // epochs: every gap is *detected* as an incomplete epoch instead of
    // silently skewing the view.
    for size in [4u64, 8, 16] {
        let mut buf = EpochBuffer::new(EpochPartition::new(size));
        for c in &delivered {
            buf.push(c.clone());
        }
        let mut complete = 0;
        let mut incomplete = 0;
        loop {
            match buf.release_next(h.len()) {
                Ok(_epoch) => complete += 1,
                Err(EpochError::Incomplete { missing, .. }) => {
                    incomplete += 1;
                    // The consumer now KNOWS it must re-list: the gap is
                    // explicit.
                    let _ = missing;
                    buf.skip_epoch();
                }
                Err(EpochError::NotSealed { .. }) => break,
            }
            if (complete + incomplete) as u64 * size >= h.len() {
                break;
            }
        }
        println!(
            "epoch consumer (size {size:>2}): {complete} complete epochs delivered \
             atomically, {incomplete} gaps DETECTED, peak buffer {}",
            buf.peak_buffered()
        );
    }

    println!(
        "\nthe §6.2 trade-off: smaller epochs → finer loss granularity and \
         smaller buffers;\nlarger epochs → fewer coordination points but \
         whole-epoch re-lists. Silent gaps: zero, at every size."
    );
}

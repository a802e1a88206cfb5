//! Deterministic, splittable randomness.
//!
//! All randomness in a simulation flows from one root seed. Each actor gets
//! its own [`SimRng`] derived from `(root seed, actor id)`, so adding an actor
//! or reordering unrelated draws does not perturb the streams of existing
//! actors — a property that keeps bug reproductions stable as scenarios grow.
//! [`fnv1a`] is the seed-independent string hash that layers above use to
//! place keys deterministically.

/// A deterministic random number generator for one simulation component.
///
/// The generator is an in-repo xoshiro256++ — no external crates, so the
/// byte-for-byte output stream is pinned by this file alone and can never
/// shift underneath recorded traces when a dependency is upgraded.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// FNV-1a hash of `s`: seed-independent and allocation-free, so a key's
/// placement (a watch-cache shard, a plan fingerprint) is the same in
/// every run and on every machine.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mixes a 64-bit value (splitmix64 finalizer); used to derive child seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a raw seed.
    pub fn from_seed(seed: u64) -> SimRng {
        // Expand the seed into the full 256-bit state with splitmix64, as
        // the xoshiro authors recommend; a zero state is unreachable.
        let mut z = mix(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = mix(z.wrapping_add(0x9e37_79b9_7f4a_7c15));
            *slot = z;
        }
        SimRng { s }
    }

    /// Derives an independent child generator; children with distinct
    /// `stream` values have decorrelated output.
    pub fn derive(seed: u64, stream: u64) -> SimRng {
        SimRng::from_seed(mix(seed) ^ mix(stream.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    /// Uniform `u64` (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift with rejection: unbiased and deterministic.
        loop {
            let m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low < bound {
                let threshold = bound.wrapping_neg() % bound;
                if low < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0, 1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.below(items.len() as u64) as usize;
            Some(&items[i])
        }
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_decorrelated() {
        let mut a = SimRng::derive(7, 0);
        let mut b = SimRng::derive(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = SimRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn pick_and_shuffle_are_deterministic() {
        let mut a = SimRng::from_seed(11);
        let mut b = SimRng::from_seed(11);
        let items = [1, 2, 3, 4, 5];
        assert_eq!(a.pick(&items), b.pick(&items));
        assert_eq!(a.pick::<u32>(&[]), None);
        let mut va = items;
        let mut vb = items;
        a.shuffle(&mut va);
        b.shuffle(&mut vb);
        assert_eq!(va, vb);
        let mut sorted = va;
        sorted.sort_unstable();
        assert_eq!(sorted, items, "shuffle permutes");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::from_seed(1).below(0);
    }
}

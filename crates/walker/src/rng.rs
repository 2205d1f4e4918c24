//! Per-walker deterministic RNG.
//!
//! Each walker owns a tiny SplitMix64 state that migrates with it, so a
//! walk's trajectory is a pure function of `(seed, walker id)` — never of
//! which machine executes the step. That property is what lets the tests
//! assert that different partitioners produce byte-identical walks, and it
//! mirrors KnightKing's walker-attached sampler state.

use bpart_graph::splitmix::{mix64, unit_f64, GOLDEN_GAMMA};

/// SplitMix64-based walker RNG (8 bytes of state, `Copy`, migrates freely).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkerRng {
    state: u64,
}

impl WalkerRng {
    /// RNG for walker `id` under the engine-wide `seed`.
    pub fn new(seed: u64, id: u64) -> Self {
        // Decorrelate the stream from the raw id with one mix round.
        WalkerRng {
            state: mix64(seed ^ mix64(id.wrapping_add(0x0DDB_1A5E))),
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply-shift; bias is negligible for graph-sized bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Bernoulli draw.
    #[inline]
    pub fn next_bool(&mut self, probability: f64) -> bool {
        self.next_f64() < probability
    }

    /// The raw 8-byte state, for serializing a walker across a process
    /// boundary. [`from_bits`](WalkerRng::from_bits) restores the exact
    /// stream, so a migrated walker's trajectory is unchanged.
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.state
    }

    /// Rebuilds the RNG from [`to_bits`](WalkerRng::to_bits) output.
    #[inline]
    pub fn from_bits(state: u64) -> Self {
        WalkerRng { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_id() {
        let mut a = WalkerRng::new(1, 2);
        let mut b = WalkerRng::new(1, 2);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = WalkerRng::new(1, 3);
        assert_ne!(WalkerRng::new(1, 2).next_u64(), c.next_u64());
        let mut d = WalkerRng::new(2, 2);
        assert_ne!(WalkerRng::new(1, 2).next_u64(), d.next_u64());
    }

    #[test]
    fn bounded_values_stay_in_range_and_cover() {
        let mut rng = WalkerRng::new(9, 0);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = rng.next_bounded(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_uniformity_rough() {
        let mut rng = WalkerRng::new(5, 5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = WalkerRng::new(7, 7);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.2)).count() as f64 / n as f64;
        assert!((hits - 0.2).abs() < 0.02, "rate = {hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        WalkerRng::new(0, 0).next_bounded(0);
    }

    #[test]
    fn bits_round_trip_preserves_the_stream() {
        let mut rng = WalkerRng::new(3, 14);
        rng.next_u64(); // advance past the initial state
        let mut copy = WalkerRng::from_bits(rng.to_bits());
        for _ in 0..8 {
            assert_eq!(rng.next_u64(), copy.next_u64());
        }
    }
}

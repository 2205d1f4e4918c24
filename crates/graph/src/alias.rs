//! Walker's alias method for O(1) sampling from a discrete distribution.
//!
//! Used by the Chung-Lu generator (endpoint sampling proportional to vertex
//! weights). Construction is O(n); each draw costs one random index plus one
//! random coin.

use rand::{Rng, RngExt};

/// A pre-built alias table over `n` outcomes with the given non-negative
/// weights.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Probability of keeping the column's own outcome (scaled to [0, 1]).
    prob: Vec<f64>,
    /// Alternative outcome taken when the coin exceeds `prob`.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table. Weights must be non-negative and sum to a positive
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/NaN value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "alias table needs at least one outcome"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "alias table weights must sum to a positive finite value"
        );
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "alias table weights must be non-negative"
            );
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        // Classic two-stack construction (Vose's method).
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // The large column donates its excess to fill the small column.
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residual columns are exactly 1 up to floating-point error.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no outcomes (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        sample_slices(&self.prob, &self.alias, rng)
    }
}

/// Draws one outcome from a decomposed alias table (`prob`/`alias` columns).
///
/// This is the single sampling routine: [`AliasTable::sample`] delegates
/// here, so callers that keep table columns in their own (bucketed, arena)
/// storage consume the RNG in exactly the same order and produce the same
/// outcome stream as a freshly built [`AliasTable`].
#[inline]
pub fn sample_slices<R: Rng + ?Sized>(prob: &[f64], alias: &[u32], rng: &mut R) -> u32 {
    let i = rng.random_range(0..prob.len());
    if rng.random::<f64>() < prob[i] {
        i as u32
    } else {
        alias[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_sample_all_outcomes() {
        let t = AliasTable::new(&[1.0; 4]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            // each ~10_000; allow 10% slack
            assert!((9_000..=11_000).contains(&c), "count {c} out of tolerance");
        }
    }

    #[test]
    fn skewed_weights_respect_proportions() {
        let t = AliasTable::new(&[8.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let trials = 100_000;
        for _ in 0..trials {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let p0 = counts[0] as f64 / trials as f64;
        assert!((p0 - 0.8).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[0.5]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -0.5]);
    }
}

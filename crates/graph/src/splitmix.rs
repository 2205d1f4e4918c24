//! SplitMix64 (Steele, Lea and Flood; Vigna's constants): the one integer
//! mixer behind every seeded hash and stateless draw in the workspace —
//! hash partitioning, vertex-cut edge hashing, fault draws, retry jitter,
//! synthetic SSSP weights, Chung-Lu communities and the walker RNG.

/// The golden-gamma increment between consecutive SplitMix64 states.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer alone: a bijective avalanche of `x`.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One SplitMix64 output for state `x`: the finalizer of `x + γ`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// The top 53 bits of `bits` as a float in `[0, 1)`.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream_seeded_with_zero() {
        // The first two outputs of Vigna's splitmix64.c with x = 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn unit_spans_zero_to_just_below_one() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(unit_f64(1 << 63), 0.5);
    }
}

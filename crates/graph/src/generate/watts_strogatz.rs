//! Watts–Strogatz small-world graphs.
//!
//! Start from a ring lattice where each vertex connects to its `k/2`
//! nearest neighbors on each side, then rewire each edge's target with
//! probability `beta` to a uniform random vertex. Low `beta` gives high
//! clustering and pure id-locality (contiguous chunking's best case);
//! high `beta` approaches Erdős–Rényi — a useful contrast workload for
//! partitioner benchmarks.

use super::edgeset::{Draws, EdgeSet};
use crate::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates a directed Watts–Strogatz graph: `n` vertices, each with `k`
/// out-edges (k even), rewiring probability `beta`.
///
/// # Panics
///
/// Panics unless `k` is even, `0 < k < n`, and `beta` is a probability.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(k % 2 == 0, "k must be even (k/2 neighbors per side)");
    assert!(k > 0 && k < n, "need 0 < k < n");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws = Draws(Vec::with_capacity(n * k));
    for u in 0..n as VertexId {
        for d in 1..=(k / 2) as VertexId {
            for target in [
                (u + d) % n as VertexId,
                (u + n as VertexId - d) % n as VertexId,
            ] {
                let v = if rng.random::<f64>() < beta {
                    // Rewire: uniform target, avoiding self-loops.
                    loop {
                        let w = rng.random_range(0..n) as VertexId;
                        if w != u {
                            break w;
                        }
                    }
                } else {
                    target
                };
                draws.push(u, v);
            }
        }
    }
    // Rewiring can create duplicates; the set keeps each edge once.
    let mut set = EdgeSet::default();
    set.add(draws);
    set.into_csr(n, n * k, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_beta_is_a_pure_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 1);
        assert_eq!(g.num_edges(), 20 * 4);
        assert_eq!(g.out_neighbors(0), &[1, 2, 18, 19]);
        assert_eq!(g.out_neighbors(10), &[8, 9, 11, 12]);
    }

    #[test]
    fn full_rewire_destroys_locality() {
        let g = watts_strogatz(500, 6, 1.0, 7);
        // Count neighbors within lattice distance 3.
        let near = g
            .edges()
            .filter(|&(u, v)| {
                let d = (u as i64 - v as i64).rem_euclid(500);
                d.min(500 - d) <= 3
            })
            .count() as f64;
        let frac = near / g.num_edges() as f64;
        assert!(frac < 0.05, "near fraction {frac} too high for beta = 1");
    }

    #[test]
    fn partial_rewire_keeps_most_lattice_edges() {
        let g = watts_strogatz(500, 6, 0.1, 7);
        let near = g
            .edges()
            .filter(|&(u, v)| {
                let d = (u as i64 - v as i64).rem_euclid(500);
                d.min(500 - d) <= 3
            })
            .count() as f64;
        let frac = near / g.num_edges() as f64;
        assert!(frac > 0.85, "near fraction {frac} too low for beta = 0.1");
    }

    #[test]
    fn deterministic_and_loop_free() {
        let a = watts_strogatz(100, 4, 0.3, 9);
        assert_eq!(a, watts_strogatz(100, 4, 0.3, 9));
        assert_ne!(a, watts_strogatz(100, 4, 0.3, 10));
        for u in a.vertices() {
            assert!(!a.out_neighbors(u).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_panics() {
        watts_strogatz(10, 3, 0.1, 1);
    }
}

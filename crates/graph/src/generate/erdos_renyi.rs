//! Uniform `G(n, m)` random graphs.

use super::edgeset::{assert_capacity, draw_exactly};
use crate::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates a directed Erdős–Rényi graph with exactly `m` unique loop-free
/// edges drawn uniformly from all `n * (n - 1)` possibilities.
///
/// # Panics
///
/// Panics if `m` exceeds the simple-graph capacity.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert_capacity(n, m);
    let mut rng = StdRng::seed_from_u64(seed);
    draw_exactly(n, m, seed, "erdos-renyi", |count, draws| {
        for _ in 0..count {
            let u = rng.random_range(0..n) as VertexId;
            let v = rng.random_range(0..n) as VertexId;
            draws.push(u, v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_determinism() {
        let g = erdos_renyi(200, 1_500, 7);
        assert_eq!(g.num_vertices(), 200);
        assert_eq!(g.num_edges(), 1_500);
        assert_eq!(g, erdos_renyi(200, 1_500, 7));
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let g = erdos_renyi(1_000, 20_000, 13);
        let low = g.degree_sum(0..500u32) as f64;
        let high = g.degree_sum(500..1000u32) as f64;
        assert!((low / high - 1.0).abs() < 0.1, "low={low} high={high}");
    }

    #[test]
    fn dense_request_fills_capacity() {
        let g = erdos_renyi(10, 90, 3);
        assert_eq!(g.num_edges(), 90);
    }

    #[test]
    fn no_loops() {
        let g = erdos_renyi(50, 500, 21);
        for u in g.vertices() {
            assert!(!g.out_neighbors(u).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_check() {
        erdos_renyi(4, 13, 1);
    }
}

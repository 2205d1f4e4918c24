//! R-MAT (recursive matrix) graph generator.
//!
//! Each edge is placed by recursively descending into one of the four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`.
//! With the classic skewed parameters the result is a power-law-ish graph
//! whose hubs sit at low vertex ids — the same locality the Chung-Lu
//! presets rely on.

use super::edgeset::{assert_capacity, draw_exactly};
use crate::{CsrGraph, Edge, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`rmat`].
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices (n = 2^scale).
    pub scale: u32,
    /// Number of directed edges (after dedup, exact).
    pub edges: usize,
    /// Quadrant probabilities; must sum to 1. Defaults: Graph500's
    /// `(0.57, 0.19, 0.19, 0.05)`.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500-style defaults.
    pub fn new(scale: u32, edges: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates a directed R-MAT graph with `2^scale` vertices and exactly
/// `edges` unique, loop-free edges.
///
/// # Panics
///
/// Panics if the quadrant probabilities are invalid or if the edge count
/// exceeds the simple-graph capacity.
pub fn rmat(config: &RmatConfig) -> CsrGraph {
    let n = 1usize << config.scale;
    let m = config.edges;
    let d = config.d();
    assert!(
        config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0 && d >= 0.0,
        "invalid quadrant probabilities"
    );
    assert_capacity(n, m);
    let mut rng = StdRng::seed_from_u64(config.seed);
    draw_exactly(n, m, config.seed, "rmat", |count, draws| {
        for _ in 0..count {
            let (u, v) = place_edge(config, &mut rng);
            draws.push(u, v);
        }
    })
}

/// One recursive quadrant descent.
fn place_edge(config: &RmatConfig, rng: &mut StdRng) -> Edge {
    let (mut u, mut v) = (0u64, 0u64);
    let ab = config.a + config.b;
    let abc = ab + config.c;
    for level in (0..config.scale).rev() {
        let r: f64 = rng.random();
        let bit = 1u64 << level;
        if r < config.a {
            // top-left: no bits set
        } else if r < ab {
            v |= bit;
        } else if r < abc {
            u |= bit;
        } else {
            u |= bit;
            v |= bit;
        }
    }
    (u as VertexId, v as VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_determinism() {
        let cfg = RmatConfig::new(10, 8_000, 5);
        let g = rmat(&cfg);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 8_000);
        assert_eq!(g, rmat(&cfg));
    }

    #[test]
    fn skewed_toward_low_ids() {
        let g = rmat(&RmatConfig::new(10, 8_000, 5));
        let low = g.degree_sum(0..256u32);
        let high = g.degree_sum(768..1024u32);
        assert!(low > high * 2, "low={low} high={high}");
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = rmat(&RmatConfig::new(8, 2_000, 11));
        for u in g.vertices() {
            let nbrs = g.out_neighbors(u);
            assert!(!nbrs.contains(&u));
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn uniform_quadrants_behave_like_er() {
        let mut cfg = RmatConfig::new(9, 4_000, 3);
        (cfg.a, cfg.b, cfg.c) = (0.25, 0.25, 0.25);
        let g = rmat(&cfg);
        let low = g.degree_sum(0..256u32) as f64;
        let high = g.degree_sum(256..512u32) as f64;
        assert!((low / high - 1.0).abs() < 0.25, "low={low} high={high}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_check() {
        rmat(&RmatConfig::new(2, 100, 1));
    }
}

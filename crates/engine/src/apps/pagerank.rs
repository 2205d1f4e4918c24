//! PageRank with damping and dangling-mass redistribution.
//!
//! Synchronous formulation: every iteration,
//!
//! ```text
//! rank'(v) = (1 − d)/n + d · (Σ_{u→v} rank(u)/outdeg(u) + D/n)
//! ```
//!
//! where `D` is the total rank held by dangling (out-degree-0) vertices —
//! collected through the engine's global aggregate so the ranks keep
//! summing to 1.

use crate::program::{ProgramContext, VertexProgram};
use bpart_graph::{CsrGraph, VertexId};

/// PageRank vertex program.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor `d` (classic 0.85).
    pub damping: f64,
    /// Fixed iteration count (the paper runs 10).
    pub iterations: usize,
}

impl PageRank {
    /// PageRank with damping 0.85 and the given iteration count.
    pub fn new(iterations: usize) -> Self {
        PageRank {
            damping: 0.85,
            iterations,
        }
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Accum = f64;

    fn init(&self, _v: VertexId, graph: &CsrGraph) -> f64 {
        1.0 / graph.num_vertices() as f64
    }

    fn initially_active(&self, _v: VertexId, _graph: &CsrGraph) -> bool {
        true
    }

    fn scatter(&self, u: VertexId, value: &f64, graph: &CsrGraph) -> Option<f64> {
        let d = graph.out_degree(u);
        (d > 0).then(|| value / d as f64)
    }

    fn combine(&self, a: &mut f64, b: f64) {
        *a += b;
    }

    /// Every share sent is a non-negative rank over a degree, and
    /// `0.0 + s == s` bit for bit for all of those.
    fn identity(&self) -> f64 {
        0.0
    }

    fn apply(
        &self,
        _v: VertexId,
        value: &mut f64,
        incoming: Option<f64>,
        ctx: &ProgramContext,
        _graph: &CsrGraph,
    ) -> bool {
        let n = ctx.num_vertices as f64;
        let sum = incoming.unwrap_or(0.0) + ctx.aggregate / n;
        *value = (1.0 - self.damping) / n + self.damping * sum;
        true
    }

    fn apply_to_all(&self) -> bool {
        true
    }

    fn aggregate(&self, v: VertexId, value: &f64, graph: &CsrGraph) -> f64 {
        // Dangling mass: rank stuck on out-degree-0 vertices.
        if graph.out_degree(v) == 0 {
            *value
        } else {
            0.0
        }
    }

    fn max_iterations(&self) -> Option<usize> {
        Some(self.iterations)
    }
}

/// Single-machine reference PageRank used by the tests (same formula,
/// straightforward loops).
pub fn reference_pagerank(graph: &CsrGraph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let dangling: f64 = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| rank[v as usize])
            .sum();
        let mut next = vec![(1.0 - damping) / n as f64 + damping * dangling / n as f64; n];
        for u in graph.vertices() {
            let d = graph.out_degree(u);
            if d == 0 {
                continue;
            }
            let share = damping * rank[u as usize] / d as f64;
            for &v in graph.out_neighbors(u) {
                next[v as usize] += share;
            }
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IterationEngine;
    use bpart_core::{ChunkE, HashPartitioner, Partitioner};
    use bpart_graph::generate;
    use bpart_graph::splitmix::mix64;
    use std::sync::Arc;

    fn run_distributed(graph: Arc<CsrGraph>, k: usize, iters: usize) -> Vec<f64> {
        let partition = Arc::new(HashPartitioner::default().partition(&graph, k));
        IterationEngine::default_for(graph, partition)
            .run(&PageRank::new(iters))
            .values
    }

    #[test]
    fn ranks_sum_to_one_with_dangling_vertices() {
        // path graph: last vertex is dangling
        let graph = Arc::new(generate::path(50));
        let ranks = run_distributed(graph, 4, 10);
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn matches_reference_implementation() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let expected = reference_pagerank(&graph, 0.85, 10);
        let got = run_distributed(graph, 4, 10);
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn partition_choice_does_not_change_ranks() {
        let graph = Arc::new(generate::lj_like().generate_scaled(0.01));
        let a = run_distributed(graph.clone(), 8, 5);
        let partition = Arc::new(ChunkE.partition(&graph, 8));
        let b = IterationEngine::default_for(graph, partition)
            .run(&PageRank::new(5))
            .values;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_outranks_leaves() {
        let graph = Arc::new(generate::star(10));
        let ranks = run_distributed(graph, 2, 20);
        for v in 1..11 {
            assert!(
                ranks[0] > ranks[v],
                "hub {} vs spoke {}",
                ranks[0],
                ranks[v]
            );
        }
    }

    #[test]
    fn iteration_count_is_respected() {
        let graph = Arc::new(generate::ring(10));
        let partition = Arc::new(HashPartitioner::default().partition(&graph, 2));
        let run = IterationEngine::default_for(graph, partition).run(&PageRank::new(7));
        assert_eq!(run.iterations, 7);
        assert_eq!(run.telemetry.num_iterations(), 7);
    }

    #[test]
    fn zero_is_an_identity_of_every_share() {
        let program = PageRank::new(1);
        let normal = [0.0, 1e-300, 1.0 / 3.0, 1.0, 1e300, f64::MAX];
        let subnormal = [f64::from_bits(1), f64::MIN_POSITIVE / 3.0];
        // Sign bit clear: any finite one is a share some rank could make.
        let sampled = (0..10_000)
            .map(|i| f64::from_bits(mix64(i) >> 1))
            .filter(|share| share.is_finite());
        for share in normal.into_iter().chain(subnormal).chain(sampled) {
            let mut slot = program.identity();
            program.combine(&mut slot, share);
            assert_eq!(slot.to_bits(), share.to_bits(), "{share:e}");
        }
    }
}

//! Single-source shortest paths (Bellman-Ford style) with deterministic
//! synthetic edge weights.
//!
//! The datasets are unweighted, so the app derives a pseudo-random but
//! deterministic weight in `1..=max_weight` from each edge's endpoints;
//! distributed and reference implementations use the same function and so
//! agree exactly.

use crate::program::{ProgramContext, VertexProgram};
use bpart_graph::splitmix::mix64;
use bpart_graph::{CsrGraph, VertexId};

/// Deterministic synthetic weight for edge `(u, v)` in `1..=max_weight`.
#[inline]
pub fn edge_weight(u: VertexId, v: VertexId, max_weight: u32) -> u64 {
    mix64(((u as u64) << 32) | v as u64) % max_weight as u64 + 1
}

/// SSSP vertex program; distances are `u64::MAX` when unreachable.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// Root of the traversal.
    pub source: VertexId,
    /// Synthetic weights are drawn from `1..=max_weight`.
    pub max_weight: u32,
}

impl Sssp {
    /// SSSP from `source` with weights in `1..=8`.
    pub fn new(source: VertexId) -> Self {
        Sssp {
            source,
            max_weight: 8,
        }
    }
}

/// The signal carries the sender and its distance; the receiver adds its
/// incident edge weight on apply (scatter cannot know the target under the
/// one-signal-per-vertex Gemini model, so edges are re-weighted receiver
/// side — equivalent, because weights are a pure function of endpoints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistFrom {
    /// Sending vertex.
    pub from: VertexId,
    /// Sender's distance at scatter time.
    pub dist: u64,
}

impl VertexProgram for Sssp {
    type Value = u64;
    type Accum = Vec<DistFrom>;

    fn init(&self, v: VertexId, _graph: &CsrGraph) -> u64 {
        if v == self.source {
            0
        } else {
            u64::MAX
        }
    }

    fn initially_active(&self, v: VertexId, _graph: &CsrGraph) -> bool {
        v == self.source
    }

    fn scatter(&self, u: VertexId, value: &u64, _graph: &CsrGraph) -> Option<Vec<DistFrom>> {
        Some(vec![DistFrom {
            from: u,
            dist: *value,
        }])
    }

    fn combine(&self, a: &mut Vec<DistFrom>, b: Vec<DistFrom>) {
        a.extend(b);
    }

    fn apply(
        &self,
        v: VertexId,
        value: &mut u64,
        incoming: Option<Vec<DistFrom>>,
        _ctx: &ProgramContext,
        _graph: &CsrGraph,
    ) -> bool {
        let Some(candidates) = incoming else {
            return false;
        };
        let mut improved = false;
        for c in candidates {
            let d = c
                .dist
                .saturating_add(edge_weight(c.from, v, self.max_weight));
            if d < *value {
                *value = d;
                improved = true;
            }
        }
        improved
    }
}

/// Reference Dijkstra with the same synthetic weights.
pub fn reference_sssp(graph: &CsrGraph, source: VertexId, max_weight: u32) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = graph.num_vertices();
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &v in graph.out_neighbors(u) {
            let nd = d + edge_weight(u, v, max_weight);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IterationEngine;
    use bpart_core::{ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::generate;
    use std::sync::Arc;

    #[test]
    fn weights_are_deterministic_and_bounded() {
        for (u, v) in [(0u32, 1u32), (5, 9), (1000, 3)] {
            let w = edge_weight(u, v, 8);
            assert_eq!(w, edge_weight(u, v, 8));
            assert!((1..=8).contains(&w));
        }
        assert_eq!(edge_weight(3, 4, 1), 1);
    }

    #[test]
    fn matches_reference_dijkstra() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let expected = reference_sssp(&graph, 0, 8);
        let partition = Arc::new(HashPartitioner::default().partition(&graph, 4));
        let run = IterationEngine::default_for(graph, partition).run(&Sssp::new(0));
        assert_eq!(run.values, expected);
    }

    #[test]
    fn unreachable_stays_max() {
        let graph = Arc::new(generate::path(4));
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        let run = IterationEngine::default_for(graph, partition).run(&Sssp::new(3));
        assert_eq!(run.values[0], u64::MAX);
        assert_eq!(run.values[3], 0);
    }

    #[test]
    fn shorter_multi_hop_path_wins() {
        // 0->1 heavy? All weights deterministic; just verify triangle
        // inequality holds vs reference on a small dense graph.
        let graph = Arc::new(generate::complete(12));
        let expected = reference_sssp(&graph, 0, 8);
        let partition = Arc::new(ChunkV.partition(&graph, 3));
        let run = IterationEngine::default_for(graph, partition).run(&Sssp::new(0));
        assert_eq!(run.values, expected);
    }
}

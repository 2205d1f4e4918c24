//! Breadth-first distances from a source vertex (frontier-push style).

use crate::program::{ProgramContext, VertexProgram};
use bpart_graph::{CsrGraph, VertexId};

/// BFS vertex program over out-edges; unreached vertices end at `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Root of the traversal.
    pub source: VertexId,
}

impl Bfs {
    /// BFS rooted at `source`.
    pub fn new(source: VertexId) -> Self {
        Bfs { source }
    }
}

impl VertexProgram for Bfs {
    type Value = u32;
    type Accum = u32;

    fn init(&self, v: VertexId, _graph: &CsrGraph) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn initially_active(&self, v: VertexId, _graph: &CsrGraph) -> bool {
        v == self.source
    }

    fn scatter(&self, _u: VertexId, value: &u32, _graph: &CsrGraph) -> Option<u32> {
        Some(value + 1)
    }

    fn combine(&self, a: &mut u32, b: u32) {
        *a = (*a).min(b);
    }

    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn apply(
        &self,
        _v: VertexId,
        value: &mut u32,
        incoming: Option<u32>,
        _ctx: &ProgramContext,
        _graph: &CsrGraph,
    ) -> bool {
        match incoming {
            Some(d) if d < *value => {
                *value = d;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IterationEngine;
    use bpart_core::{ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::splitmix::mix64;
    use bpart_graph::{generate, traversal};
    use std::sync::Arc;

    #[test]
    fn matches_reference_bfs() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let expected = traversal::bfs_distances(&graph, 0);
        let partition = Arc::new(HashPartitioner::default().partition(&graph, 4));
        let run = IterationEngine::default_for(graph, partition).run(&Bfs::new(0));
        assert_eq!(run.values, expected);
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        let graph = Arc::new(generate::path(5)); // 0->1->2->3->4
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        let run = IterationEngine::default_for(graph, partition).run(&Bfs::new(2));
        assert_eq!(run.values, vec![u32::MAX, u32::MAX, 0, 1, 2]);
    }

    #[test]
    fn iterations_track_eccentricity() {
        let graph = Arc::new(generate::path(10));
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        let run = IterationEngine::default_for(graph, partition).run(&Bfs::new(0));
        // 9 frontier expansions, +1 quiet round to detect convergence
        assert!(
            run.iterations >= 9 && run.iterations <= 11,
            "iters = {}",
            run.iterations
        );
    }

    #[test]
    fn the_largest_distance_is_an_identity_of_every_signal() {
        let program = Bfs::new(0);
        let sampled = (0..10_000).map(|i| mix64(i) as u32);
        for distance in [0, 1, u32::MAX - 1].into_iter().chain(sampled) {
            let mut slot = program.identity();
            program.combine(&mut slot, distance);
            assert_eq!(slot, distance);
        }
    }
}

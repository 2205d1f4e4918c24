//! Weakly connected components by min-label propagation.
//!
//! Every vertex starts labelled with its own id and repeatedly adopts the
//! smallest label in its (undirected) neighborhood; at convergence each
//! vertex carries the minimum vertex id of its weakly connected component —
//! the same convention as
//! [`bpart_graph::traversal::connected_components`], so distributed and
//! reference results compare with `==`.

use crate::program::{ProgramContext, VertexProgram};
use bpart_graph::{CsrGraph, VertexId};

/// Connected-components vertex program (runs until convergence).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type Value = VertexId;
    type Accum = VertexId;

    fn init(&self, v: VertexId, _graph: &CsrGraph) -> VertexId {
        v
    }

    fn initially_active(&self, _v: VertexId, _graph: &CsrGraph) -> bool {
        true
    }

    fn scatter(&self, _u: VertexId, value: &VertexId, _graph: &CsrGraph) -> Option<VertexId> {
        Some(*value)
    }

    fn combine(&self, a: &mut VertexId, b: VertexId) {
        *a = (*a).min(b);
    }

    fn identity(&self) -> VertexId {
        VertexId::MAX
    }

    fn apply(
        &self,
        _v: VertexId,
        value: &mut VertexId,
        incoming: Option<VertexId>,
        _ctx: &ProgramContext,
        _graph: &CsrGraph,
    ) -> bool {
        match incoming {
            Some(label) if label < *value => {
                *value = label;
                true
            }
            _ => false,
        }
    }

    fn use_in_edges(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IterationEngine;
    use bpart_core::{ChunkV, Fennel, HashPartitioner, Partitioner};
    use bpart_graph::splitmix::mix64;
    use bpart_graph::{generate, traversal};
    use std::sync::Arc;

    #[test]
    fn matches_reference_on_disjoint_rings() {
        let mut edges = Vec::new();
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            edges.push((a, b));
        }
        let graph = Arc::new(bpart_graph::CsrGraph::from_edges(6, &edges));
        let partition = Arc::new(HashPartitioner::default().partition(&graph, 3));
        let run = IterationEngine::default_for(graph.clone(), partition).run(&ConnectedComponents);
        assert_eq!(run.values, traversal::connected_components(&graph));
    }

    #[test]
    fn matches_reference_on_power_law_graph() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let expected = traversal::connected_components(&graph);
        for k in [2usize, 8] {
            let partition = Arc::new(ChunkV.partition(&graph, k));
            let run =
                IterationEngine::default_for(graph.clone(), partition).run(&ConnectedComponents);
            assert_eq!(run.values, expected, "k = {k}");
        }
    }

    #[test]
    fn partition_invariance() {
        let graph = Arc::new(generate::lj_like().generate_scaled(0.01));
        let a = IterationEngine::default_for(graph.clone(), Arc::new(Fennel.partition(&graph, 4)))
            .run(&ConnectedComponents);
        let b = IterationEngine::default_for(
            graph.clone(),
            Arc::new(HashPartitioner::default().partition(&graph, 4)),
        )
        .run(&ConnectedComponents);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn converges_and_stops() {
        let graph = Arc::new(generate::path(32));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let run = IterationEngine::default_for(graph, partition).run(&ConnectedComponents);
        assert!(run.values.iter().all(|&l| l == 0));
        // label needs ~31 hops; convergence must terminate shortly after
        assert!(
            run.iterations >= 31 && run.iterations <= 34,
            "iters = {}",
            run.iterations
        );
    }

    #[test]
    fn isolated_vertices_keep_their_ids() {
        let graph = Arc::new(bpart_graph::CsrGraph::from_edges(4, &[(0, 1)]));
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        let run = IterationEngine::default_for(graph, partition).run(&ConnectedComponents);
        assert_eq!(run.values, vec![0, 0, 2, 3]);
    }

    #[test]
    fn the_largest_id_is_an_identity_of_every_label() {
        let program = ConnectedComponents;
        let sampled = (0..10_000).map(|i| mix64(i) as VertexId);
        for label in [0, 1, VertexId::MAX - 1].into_iter().chain(sampled) {
            let mut slot = program.identity();
            program.combine(&mut slot, label);
            assert_eq!(slot, label);
        }
    }
}

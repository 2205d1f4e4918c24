//! DeepWalk (Perozzi et al., KDD '14): plain uniform random walks whose
//! recorded vertex sequences feed a skip-gram model. The walk itself is a
//! fixed-length first-order walk — the same "simple random walk" behind the
//! paper's load-balance experiments (Figs. 4, 12, 13) — run with path
//! recording enabled to produce the training corpus (see the
//! `random_walk_corpus` example).

use crate::walker::{uniform_neighbor, WalkApp, Walker};
use bpart_graph::{CsrGraph, VertexId};

/// DeepWalk corpus walk.
#[derive(Clone, Copy, Debug)]
pub struct DeepWalk {
    walk_length: u32,
}

impl DeepWalk {
    /// DeepWalk with the given walk length (the original paper uses 40-80).
    pub fn new(walk_length: u32) -> Self {
        DeepWalk { walk_length }
    }
}

impl WalkApp for DeepWalk {
    fn walk_length(&self) -> u32 {
        self.walk_length
    }

    fn next(&self, walker: &mut Walker, graph: &CsrGraph) -> Option<VertexId> {
        uniform_neighbor(walker, graph, walker.current)
    }

    fn name(&self) -> &'static str {
        "DeepWalk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{WalkEngine, WalkStarts};
    use bpart_core::{ChunkV, Partitioner};
    use bpart_graph::generate;
    use std::sync::Arc;

    #[test]
    fn walks_follow_edges() {
        let g = generate::ring(6);
        let mut w = Walker::new(0, 2, 1);
        let app = DeepWalk::new(3);
        for expect in [3u32, 4, 5] {
            let next = app.next(&mut w, &g).unwrap();
            assert_eq!(next, expect); // ring has one out-edge per vertex
            w.advance(next);
        }
        assert_eq!(app.walk_length(), 3);
    }

    #[test]
    fn corpus_walks_stay_on_edges() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.005));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let run = WalkEngine::default_for(graph.clone(), partition)
            .with_recording()
            .run(&DeepWalk::new(10), &WalkStarts::PerVertex(1), 3);
        let paths = run.paths.unwrap();
        assert_eq!(paths.len(), graph.num_vertices());
        for path in &paths {
            for w in path.windows(2) {
                assert!(graph.is_out_neighbor(w[0], w[1]), "non-edge {w:?}");
            }
        }
    }
}

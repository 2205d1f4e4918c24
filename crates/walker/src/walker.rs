//! Walker state and the walk-application trait.

use crate::rng::WalkerRng;
use bpart_graph::{CsrGraph, VertexId};

/// One random walker. Small and `Copy`: this is the message payload that
/// crosses machines when a walk leaves its partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walker {
    /// Stable walker id (indexes the recorded path).
    pub id: u64,
    /// The walk's starting vertex.
    pub source: VertexId,
    /// Current position.
    pub current: VertexId,
    /// Previous position (`VertexId::MAX` before the first step) — needed
    /// by second-order walks (node2vec).
    pub previous: VertexId,
    /// Steps taken so far.
    pub step: u32,
    /// The walker-attached RNG (migrates with the walker).
    pub rng: WalkerRng,
}

impl Walker {
    /// A fresh walker at `source`.
    pub fn new(id: u64, source: VertexId, seed: u64) -> Self {
        Walker {
            id,
            source,
            current: source,
            previous: VertexId::MAX,
            step: 0,
            rng: WalkerRng::new(seed, id),
        }
    }

    /// Advances to `next`, updating second-order state and the step count.
    pub fn advance(&mut self, next: VertexId) {
        self.previous = self.current;
        self.current = next;
        self.step += 1;
    }
}

/// A random-walk application: decides each walker's next move.
pub trait WalkApp: Sync {
    /// Walks terminate after this many steps (a hard cap even for
    /// probabilistically-terminated walks like PPR).
    fn walk_length(&self) -> u32;

    /// Chooses the next vertex for `walker`, or `None` to terminate the
    /// walk now (before taking another step).
    fn next(&self, walker: &mut Walker, graph: &CsrGraph) -> Option<VertexId>;

    /// Application name for harness tables.
    fn name(&self) -> &'static str;
}

/// Uniform choice among `v`'s out-neighbors; `None` at dead ends. The
/// shared primitive most walk apps build on.
#[inline]
pub fn uniform_neighbor(walker: &mut Walker, graph: &CsrGraph, v: VertexId) -> Option<VertexId> {
    let nbrs = graph.out_neighbors(v);
    if nbrs.is_empty() {
        None
    } else {
        Some(nbrs[walker.rng.next_bounded(nbrs.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;

    #[test]
    fn advance_tracks_history() {
        let mut w = Walker::new(0, 5, 1);
        assert_eq!(w.previous, VertexId::MAX);
        w.advance(7);
        assert_eq!((w.previous, w.current, w.step), (5, 7, 1));
        w.advance(2);
        assert_eq!((w.previous, w.current, w.step), (7, 2, 2));
    }

    #[test]
    fn uniform_neighbor_is_deterministic_per_walker() {
        let g = generate::complete(10);
        let mut a = Walker::new(3, 0, 9);
        let mut b = Walker::new(3, 0, 9);
        for _ in 0..5 {
            let (ca, cb) = (a.current, b.current);
            let na = uniform_neighbor(&mut a, &g, ca).unwrap();
            let nb = uniform_neighbor(&mut b, &g, cb).unwrap();
            assert_eq!(na, nb);
            a.advance(na);
            b.advance(nb);
        }
    }

    #[test]
    fn dead_end_returns_none() {
        let g = generate::path(3); // vertex 2 has no out-edges
        let mut w = Walker::new(0, 2, 1);
        assert_eq!(uniform_neighbor(&mut w, &g, 2), None);
    }

    #[test]
    fn uniform_neighbor_covers_all_choices() {
        let g = generate::star(6); // hub 0 has 6 spokes
        let mut seen = std::collections::HashSet::new();
        let mut w = Walker::new(1, 0, 2);
        for _ in 0..200 {
            seen.insert(uniform_neighbor(&mut w, &g, 0).unwrap());
        }
        assert_eq!(seen.len(), 6);
    }
}

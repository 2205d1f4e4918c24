//! Mutable edge-list staging container.
//!
//! The text reader accumulates edges here before freezing them into a
//! [`CsrGraph`], growing the vertex universe to the largest id it meets.

use crate::{CsrGraph, Edge, VertexId};

/// A growable list of directed edges plus a vertex count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently staged.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges are staged.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends a directed edge. Grows the vertex count if an endpoint is out
    /// of range, so files with implicit vertex universes load cleanly.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        let needed = (u.max(v) as usize) + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
        self.edges.push((u, v));
    }

    /// The staged edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Freezes the staged edges into a [`CsrGraph`].
    pub fn into_csr(self) -> CsrGraph {
        CsrGraph::from_edges(self.num_vertices, &self.edges)
    }

    /// Extends from an iterator of edges (growing the vertex universe).
    pub fn extend<I: IntoIterator<Item = Edge>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.push(u, v);
        }
    }
}

impl FromIterator<Edge> for EdgeList {
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        let mut el = EdgeList::new(0);
        el.extend(iter);
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_grows_vertex_universe() {
        let mut el = EdgeList::new(0);
        el.push(3, 7);
        assert_eq!(el.num_vertices(), 8);
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn explicit_universe_is_kept_when_larger() {
        let mut el = EdgeList::new(100);
        el.push(0, 1);
        assert_eq!(el.num_vertices(), 100);
    }

    #[test]
    fn into_csr_round_trip() {
        let el: EdgeList = [(0, 1), (2, 0)].into_iter().collect();
        let g = el.into_csr();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(2), &[0]);
    }

    #[test]
    fn from_iterator_and_is_empty() {
        let el: EdgeList = std::iter::empty().collect();
        assert!(el.is_empty());
        assert_eq!(el.num_vertices(), 0);
    }
}

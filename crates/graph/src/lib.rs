//! # bpart-graph — graph substrate for the BPart reproduction
//!
//! This crate provides everything the partitioners and engines need from a
//! graph library:
//!
//! * [`CsrGraph`] — a compact, immutable compressed-sparse-row graph with
//!   both out- and in-adjacency, the workhorse representation,
//! * [`EdgeList`] — the mutable staging container text edge lists are read
//!   into,
//! * [`generate`] — seeded synthetic generators (Chung-Lu power-law, R-MAT,
//!   Erdős–Rényi, Watts–Strogatz and small deterministic shapes) plus the
//!   `*_like` dataset presets standing in for the paper's LiveJournal /
//!   Twitter / Friendster graphs,
//! * [`io`] — text edge-list and binary serialization,
//! * [`splitmix`] — the SplitMix64 mixer every seeded hash shares,
//! * [`stats`] — degree statistics (histogram, skew, power-law exponent),
//! * [`traversal`] — BFS and connected components.
//!
//! The representation follows the conventions of Gemini and KnightKing, the
//! two systems the paper integrates BPart into: the graph is **directed**,
//! each vertex *owns* its out-edges, and undirected graphs are stored
//! symmetrized (each undirected edge appears in both directions).
//!
//! ## Example
//!
//! ```
//! use bpart_graph::{generate, CsrGraph};
//!
//! let g: CsrGraph = generate::erdos_renyi(1_000, 8_000, 42);
//! assert_eq!(g.num_vertices(), 1_000);
//! assert_eq!(g.num_edges(), 8_000);
//! let d = g.average_degree();
//! assert!((d - 8.0).abs() < 1e-9);
//! ```

pub mod alias;
pub mod csr;
pub mod edgelist;
pub mod generate;
pub mod io;
pub mod splitmix;
pub mod stats;
pub mod traversal;

pub use csr::{CsrGraph, OwnedLists};
pub use edgelist::EdgeList;

/// Vertex identifier.
///
/// `u32` keeps adjacency arrays half the size of `usize` on 64-bit targets
/// (see the perf-book guidance on smaller integers); four billion vertices
/// is far beyond the laptop-scale graphs this reproduction targets.
pub type VertexId = u32;

/// A directed edge `(source, target)`.
pub type Edge = (VertexId, VertexId);

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id `>= num_vertices`.
    VertexOutOfRange {
        vertex: VertexId,
        num_vertices: usize,
    },
    /// Binary/text decode failure with a human-readable reason.
    Format(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {num_vertices} vertices)"
                )
            }
            GraphError::Format(msg) => write!(f, "malformed graph data: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_formats() {
        let e = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 5,
        };
        assert!(e.to_string().contains("vertex 9"));
        let e = GraphError::Format("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = GraphError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }
}

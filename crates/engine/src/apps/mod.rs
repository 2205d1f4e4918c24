//! Iteration-engine applications.
//!
//! The two the paper runs on Gemini — [`PageRank`] (10 iterations) and
//! [`ConnectedComponents`] (until convergence) — plus [`Bfs`] and [`Sssp`]
//! as additional Gemini-style workloads.

mod bfs;
mod cc;
mod delta_pagerank;
mod pagerank;
mod sssp;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use delta_pagerank::{DeltaPageRank, RankState};
pub use pagerank::{reference_pagerank, PageRank};
pub use sssp::{edge_weight, reference_sssp, DistFrom, Sssp};

//! Iteration-engine applications.
//!
//! The two the paper runs on Gemini — [`PageRank`] (10 iterations) and
//! [`ConnectedComponents`] (until convergence) — plus [`Bfs`] and [`Sssp`],
//! which the kernel's restore tests and the engine oracle run beside them
//! (SSSP's slots own heap memory).

mod bfs;
mod cc;
mod pagerank;
mod sssp;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use pagerank::{reference_pagerank, PageRank};
pub use sssp::{edge_weight, reference_sssp, DistFrom, Sssp};

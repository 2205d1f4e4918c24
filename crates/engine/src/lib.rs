//! # bpart-engine — a Gemini-like vertex-centric iteration engine
//!
//! Re-implements the execution model of Gemini (Zhu et al., OSDI '16), the
//! iteration-based system the paper integrates BPart into, on top of the
//! [`bpart_cluster`] BSP simulator:
//!
//! * vertices are partitioned across machines; each machine owns its
//!   vertices' state and out-edges,
//! * each iteration, machines *scatter* signals along the edges of their
//!   active vertices (sender-side combining, as in Gemini), exchange the
//!   combined updates at the BSP barrier, then *apply* incoming signals to
//!   local vertex state,
//! * work is counted per machine (edges scanned + vertices updated) so the
//!   cost model can reproduce the paper's load-balance measurements.
//!
//! Applications are [`VertexProgram`] implementations; the crate ships the
//! two the paper runs on Gemini — [`apps::PageRank`] (10 iterations) and
//! [`apps::ConnectedComponents`] (to convergence) — plus BFS and SSSP.
//!
//! ```
//! use bpart_core::{ChunkV, Partitioner};
//! use bpart_engine::{apps::PageRank, IterationEngine};
//! use bpart_graph::generate;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(generate::erdos_renyi(100, 600, 1));
//! let partition = Arc::new(ChunkV.partition(&graph, 4));
//! let engine = IterationEngine::default_for(graph, partition);
//! let run = engine.run(&PageRank::new(10));
//! let total: f64 = run.values.iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

pub mod apps;
pub mod engine;
pub mod kernel;
#[cfg(test)]
mod oracle;
pub mod program;

pub use engine::{EngineRun, IterationEngine};
pub use kernel::MachineStep;
pub use program::{ProgramContext, VertexProgram};

//! # bpart-core — two-dimensional balanced graph partitioning
//!
//! This crate implements the primary contribution of *"Towards Fast
//! Large-scale Graph Analysis via Two-dimensional Balanced Partitioning"*
//! (ICPP '22): the **BPart** partitioner, together with the streaming
//! baselines it is evaluated against and the balance metrics the paper
//! reports.
//!
//! ## Partitioners
//!
//! All partitioners implement the [`Partitioner`] trait and produce a
//! [`Partition`] — a vertex-disjoint (edge-cut) assignment where each vertex
//! owns its out-edges:
//!
//! * [`ChunkV`] — contiguous chunks with equal vertex counts
//!   (Gemini, GridGraph),
//! * [`ChunkE`] — contiguous chunks with equal out-degree
//!   sums (KnightKing, GraphChi),
//! * [`HashPartitioner`] — seeded random assignment
//!   (Giraph, Pregel),
//! * [`Fennel`] — single-pass streaming with the
//!   neighborhood-minus-penalty score of Tsourakakis et al.,
//! * [`BPart`] — the paper's two-phase scheme: over-split with
//!   a weighted two-dimensional balance indicator, then pair-and-combine in
//!   layers until both dimensions balance.
//!
//! ## Metrics
//!
//! [`metrics`] provides the paper's balance measures — bias
//! `(max − mean)/mean` and Jain's fairness index — plus the edge-cut ratio
//! and the inter-piece connectivity matrix of §3.3.
//!
//! ## Example
//!
//! ```
//! use bpart_core::prelude::*;
//! use bpart_graph::generate;
//!
//! let g = generate::twitter_like().generate_scaled(0.01);
//! let partition = BPart::default().partition(&g, 4);
//! let q = metrics::quality(&g, &partition);
//! assert!(q.vertex_bias < 0.25 && q.edge_bias < 0.25);
//! ```

pub mod bpart;
pub mod chunk;
pub mod fennel;
pub mod gd;
pub mod hash;
pub mod ldg;
pub mod metrics;
pub mod partition;
pub mod partitioner;
pub mod pio;
pub mod stream;
mod streaming;
pub mod vcut;

pub use bpart::{BPart, BPartConfig};
pub use chunk::{ChunkE, ChunkV};
pub use fennel::Fennel;
pub use gd::GdPartitioner;
pub use hash::HashPartitioner;
pub use ldg::Ldg;
pub use partition::{PartId, Partition};
pub use partitioner::Partitioner;
pub use stream::StreamOrder;
pub use streaming::pipeline::{
    ooc_cut_ratio, stream_assign_ooc, OocConfig, OocOutcome, OocScheme, PipelineStats, StageStats,
};
pub use streaming::{ParallelConfig, StreamError, StreamStats};

/// Convenient glob import for examples and the harness.
pub mod prelude {
    pub use crate::bpart::{BPart, BPartConfig};
    pub use crate::chunk::{ChunkE, ChunkV};
    pub use crate::fennel::Fennel;
    pub use crate::gd::GdPartitioner;
    pub use crate::hash::HashPartitioner;
    pub use crate::ldg::Ldg;
    pub use crate::metrics;
    pub use crate::partition::{PartId, Partition};
    pub use crate::partitioner::Partitioner;
    pub use crate::stream::StreamOrder;
    pub use crate::streaming::{ParallelConfig, StreamStats};
}

//! # bpart-cluster — a BSP cluster simulator
//!
//! The paper evaluates BPart inside Gemini and KnightKing on an 8-machine
//! cluster. This crate is the testbed substitute: it models a cluster of
//! `k` machines executing iteration-based bulk-synchronous-parallel
//! computation over a partitioned graph (Fig. 1 of the paper).
//!
//! * [`Cluster`] — the machine set: the shared graph, the partition, and
//!   ownership lookup,
//! * [`cost::CostModel`] / [`cost::WorkUnits`] — converts counted work
//!   (walk steps, edges scanned, vertices updated, messages) into modelled
//!   time, calibrated so compute dominates as on the paper's 56 Gbps fabric,
//! * [`telemetry::Telemetry`] — per-iteration per-machine records plus the
//!   aggregates the paper reports (waiting-time ratio, total running time),
//!   folded by `bpart_obs::analysis::summarize`,
//! * [`exec::for_each_machine`] — runs per-machine closures over disjoint
//!   machine states, sequentially or on real threads (crossbeam scope);
//!   a panicking closure surfaces as a recoverable per-machine failure,
//! * [`fault::FaultPlan`] / [`fault::FaultState`] — deterministic fault
//!   injection (machine crashes, stragglers, lossy links) applied at the
//!   exchange barrier,
//! * [`bsp::run`] — the one superstep loop, for both engines and both
//!   backends: it owns checkpoint/rollback recovery and every superstep's
//!   accounting (read off per-destination counts: it never sees a
//!   message), and takes the superstep through the machines by a
//!   [`bsp::Transport`]. [`bsp::drive`] is the in-process one, which takes
//!   what a machine computes and how machines hand over what they staged
//!   from a [`bsp::Program`]; both engines' kernels stage a superstep's
//!   messages where their sender put them (the vertex kernel's send slots,
//!   the walk kernel's per-destination rows) and hand them over from there.
//!
//! Every engine built on this crate counts work in *units*, not wall-clock
//! seconds, so experiment output is deterministic and machine-independent;
//! the paper's metrics are all ratios between machines or schemes, which a
//! unit cost model reproduces faithfully (DESIGN.md §3).

pub mod bsp;
pub mod cost;
pub mod exec;
pub mod fault;
pub mod telemetry;

pub use cost::{CostModel, WorkUnits};
pub use fault::{FaultPlan, FaultState, LinkOverhead, MachineFailure, UnrecoverableFailure};
pub use telemetry::{IterationRecord, Telemetry};

use bpart_core::{PartId, Partition};
use bpart_graph::{CsrGraph, VertexId};
use std::sync::Arc;

/// Identifies one simulated machine (same space as partition part ids).
pub type MachineId = PartId;

/// A simulated cluster: `k` machines, each owning one partition part.
#[derive(Clone, Debug)]
pub struct Cluster {
    graph: Arc<CsrGraph>,
    partition: Arc<Partition>,
    members: Arc<Vec<Vec<VertexId>>>,
}

impl Cluster {
    /// Builds a cluster with one machine per partition part.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the graph.
    pub fn new(graph: Arc<CsrGraph>, partition: Arc<Partition>) -> Self {
        assert_eq!(
            graph.num_vertices(),
            partition.num_vertices(),
            "partition must cover the graph"
        );
        let members = Arc::new(partition.all_members());
        Cluster {
            graph,
            partition,
            members,
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.partition.num_parts()
    }

    /// The machine owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> MachineId {
        self.partition.part_of(v)
    }

    /// The shared graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The partition backing this cluster.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Vertices owned by machine `m`.
    pub fn local_vertices(&self, m: MachineId) -> &[VertexId] {
        &self.members[m as usize]
    }

    /// Per-machine vertex counts (`|V_i|`).
    pub fn vertex_counts(&self) -> &[u64] {
        self.partition.vertex_counts()
    }

    /// Per-machine edge counts (`|E_i|`, out-degree sums).
    pub fn edge_counts(&self) -> &[u64] {
        self.partition.edge_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_core::{ChunkV, Partitioner};
    use bpart_graph::generate;

    #[test]
    fn cluster_exposes_ownership() {
        let g = Arc::new(generate::ring(8));
        let p = Arc::new(ChunkV.partition(&g, 2));
        let c = Cluster::new(g.clone(), p);
        assert_eq!(c.num_machines(), 2);
        assert_eq!(c.owner(0), 0);
        assert_eq!(c.owner(7), 1);
        assert_eq!(c.local_vertices(0), &[0, 1, 2, 3]);
        assert_eq!(c.vertex_counts(), &[4, 4]);
        assert_eq!(c.edge_counts(), &[4, 4]);
        assert_eq!(c.graph().num_edges(), 8);
    }

    #[test]
    #[should_panic(expected = "cover the graph")]
    fn mismatched_partition_panics() {
        let g = Arc::new(generate::ring(8));
        let other = Arc::new(generate::ring(6));
        let p = Arc::new(ChunkV.partition(&other, 2));
        Cluster::new(g, p);
    }
}

//! # bpart-cluster — a BSP cluster simulator
//!
//! The paper evaluates BPart inside Gemini and KnightKing on an 8-machine
//! cluster. This crate is the testbed substitute: it models a cluster of
//! `k` machines executing iteration-based bulk-synchronous-parallel
//! computation over a partitioned graph (Fig. 1 of the paper).
//!
//! * [`Cluster`] — the machine set: the shared graph, the partition, and
//!   ownership lookup,
//! * [`arena::MessageArena`] — the walk kernel's reusable per-machine
//!   staging rows: they keep their high-water capacity across supersteps,
//!   so steady-state supersteps allocate nothing for messaging, and they
//!   are also the exchange — a delivery consumes them where they were
//!   staged, in ascending sender order, and hands them back drained,
//! * [`cost::CostModel`] / [`cost::WorkUnits`] — converts counted work
//!   (walk steps, edges scanned, vertices updated, messages) into modelled
//!   time, calibrated so compute dominates as on the paper's 56 Gbps fabric,
//! * [`telemetry::Telemetry`] — per-iteration per-machine records plus the
//!   aggregates the paper reports (waiting-time ratio, total running time),
//! * [`exec::for_each_machine`] — runs per-machine closures over disjoint
//!   machine states, sequentially or on real threads (crossbeam scope);
//!   a panicking closure surfaces as a recoverable per-machine failure,
//! * [`fault::FaultPlan`] / [`fault::FaultState`] — deterministic fault
//!   injection (machine crashes, stragglers, lossy links) applied at the
//!   exchange barrier,
//! * [`bsp::drive`] — the one superstep loop both engines run: it owns
//!   checkpoint/rollback recovery and every superstep's accounting (read
//!   off per-destination counts: it never sees a message), and takes what
//!   a machine computes and how machines hand over what they staged from a
//!   [`bsp::Program`].
//!
//! Every engine built on this crate counts work in *units*, not wall-clock
//! seconds, so experiment output is deterministic and machine-independent;
//! the paper's metrics are all ratios between machines or schemes, which a
//! unit cost model reproduces faithfully (DESIGN.md §3).

pub mod arena;
pub mod bsp;
pub mod cost;
pub mod exec;
pub mod fault;
pub mod telemetry;

pub use arena::MessageArena;
pub use cost::{CostModel, WorkUnits};
pub use fault::{FaultPlan, FaultState, LinkOverhead, MachineFailure, UnrecoverableFailure};
pub use telemetry::{IterationRecord, MachineWaiting, Telemetry, TelemetrySummary};

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

/// The exchange's tests. There is no router any more — [`bsp::drive`]
/// reads counts and the program moves the data — so these run the loop with
/// a scripted program; they keep the module and the names they have had
/// since a `Router` did the delivering, because each still pins the
/// behaviour its name says.
#[cfg(test)]
mod router {
    mod tests {
        use crate::bsp::{self, Machine, Program};
        use crate::{
            CostModel, FaultPlan, MachineId, MessageArena, Telemetry, UnrecoverableFailure,
            WorkUnits,
        };
        use bpart_obs::SpanGuard;

        /// Stages what the script says and records what it is delivered.
        struct Node {
            id: MachineId,
            arena: MessageArena<u32>,
            /// `(sender, payload)` in delivery order.
            seen: Vec<(MachineId, u32)>,
            lent: usize,
            returned: usize,
        }

        impl Machine for Node {
            type Msg = u32;
            type Snapshot = ();

            /// A self-message is allowed here, and counted.
            fn staged(&self) -> Vec<u64> {
                self.arena.staged_per_destination().collect()
            }
            fn snapshot(&self) {}
            fn restore(&mut self, _: &()) {}
            fn state_units(_: &()) -> u64 {
                0
            }
        }

        /// `sends[superstep]` lists `(from, to, payload)`.
        struct Script {
            sends: Vec<Vec<(MachineId, MachineId, u32)>>,
            at: usize,
        }

        impl Program for Script {
            type Machine = Node;
            type Computed = ();

            fn open(&mut self, superstep: usize, _: &[Node]) -> Option<SpanGuard> {
                self.at = superstep;
                (superstep < self.sends.len()).then(|| bpart_obs::span("cluster.superstep"))
            }
            fn compute(&self, node: &mut Node) {
                for &(from, to, payload) in &self.sends[self.at] {
                    if from == node.id {
                        node.arena.push(to, payload);
                    }
                }
            }
            fn computed(&mut self, out: Vec<()>, _: &mut SpanGuard) -> Vec<WorkUnits> {
                vec![WorkUnits::default(); out.len()]
            }
            /// Take, consume in ascending sender order, put back — what the
            /// walk engine's delivery does with its arenas.
            fn deliver(&mut self, _: usize, nodes: &mut [Node]) -> Vec<WorkUnits> {
                let mut rows: Vec<Vec<Vec<u32>>> = nodes
                    .iter_mut()
                    .map(|node| {
                        node.lent += 1;
                        node.arena.take_filled()
                    })
                    .collect();
                for (to, node) in nodes.iter_mut().enumerate() {
                    for (from, row) in rows.iter_mut().enumerate() {
                        node.seen
                            .extend(row[to].drain(..).map(|p| (from as MachineId, p)));
                    }
                }
                for (node, row) in nodes.iter_mut().zip(rows) {
                    node.returned += 1;
                    node.arena.put_drained(row);
                }
                vec![WorkUnits::default(); nodes.len()]
            }
        }

        fn nodes(k: usize) -> Vec<Node> {
            (0..k)
                .map(|id| Node {
                    id: id as MachineId,
                    arena: MessageArena::new(k),
                    seen: Vec::new(),
                    lent: 0,
                    returned: 0,
                })
                .collect()
        }

        fn run(
            nodes: &mut [Node],
            sends: Vec<Vec<(MachineId, MachineId, u32)>>,
            faults: FaultPlan,
        ) -> Result<Telemetry, UnrecoverableFailure> {
            let cfg = bsp::Config {
                faults,
                ..bsp::Config::default()
            };
            let mut script = Script { sends, at: 0 };
            bsp::drive(&cfg, &mut script, nodes).map(|(telemetry, _)| telemetry)
        }

        #[test]
        fn exchange_delivers_in_sender_order() {
            let mut nodes = nodes(3);
            // A self-message is allowed.
            let sends = vec![vec![(2, 0, 20), (1, 0, 10), (1, 0, 11), (0, 0, 0)]];
            let telemetry = run(&mut nodes, sends, FaultPlan::new()).unwrap();
            assert_eq!(nodes[0].seen, [(0, 0), (1, 10), (1, 11), (2, 20)]);
            assert!(nodes[1].seen.is_empty() && nodes[2].seen.is_empty());
            let record = &telemetry.records()[0];
            assert_eq!(record.sent, [1, 2, 1]);
            // Received is `[4, 0, 0]`: it shows in the communication charge.
            let cost = CostModel::default();
            let comm = [(1, 4), (2, 0), (1, 0)].map(|(s, r)| cost.comm_time(s, r));
            assert_eq!(record.comm, comm);
        }

        #[test]
        fn exchange_drains_the_buffers() {
            let mut nodes = nodes(2);
            let telemetry = run(&mut nodes, vec![vec![(0, 1, 1)], vec![]], FaultPlan::new());
            assert_eq!(telemetry.unwrap().records()[1].sent, [0, 0]);
            // Nothing of the first superstep was delivered again in the second.
            assert_eq!(nodes[1].seen, [(0, 1)]);
            assert!(nodes.iter().all(|n| n.arena.staged() == 0));
        }

        #[test]
        fn sent_totals_accumulate_across_supersteps() {
            let mut nodes = nodes(2);
            let sends = vec![vec![(0, 1, 1)], vec![(0, 1, 2), (1, 0, 3)]];
            let telemetry = run(&mut nodes, sends, FaultPlan::new()).unwrap();
            let totals = telemetry
                .records()
                .iter()
                .fold([0, 0], |acc, r| [acc[0] + r.sent[0], acc[1] + r.sent[1]]);
            assert_eq!(totals, [2, 1]);
            assert_eq!(telemetry.total_messages(), 3);
        }

        #[test]
        fn exchange_into_reuses_buffers_and_matches_exchange() {
            let mut nodes = nodes(3);
            let sends: Vec<Vec<_>> = (0..3)
                .map(|step| vec![(2, 0, 20 + step), (1, 0, 10 + step), (0, 2, 5 + step)])
                .collect();
            run(&mut nodes, sends, FaultPlan::new()).unwrap();
            // Every superstep delivered like the first ...
            assert_eq!(
                nodes[0].seen,
                [(1, 10), (2, 20), (1, 11), (2, 21), (1, 12), (2, 22)]
            );
            assert_eq!(nodes[2].seen, [(0, 5), (0, 6), (0, 7)]);
            // ... out of the buffers the first one grew: the rows came back
            // drained with their capacity.
            for node in &nodes {
                assert_eq!(node.arena.staged(), 0);
                assert!(node.arena.reserved() >= node.arena.high_water());
                assert_eq!(node.arena.high_water(), 1);
            }
        }

        #[test]
        fn take_and_put_rows_round_trip() {
            let mut nodes = nodes(2);
            run(
                &mut nodes,
                vec![vec![(0, 1, 9)], vec![], vec![]],
                FaultPlan::new(),
            )
            .unwrap();
            assert_eq!(nodes[1].seen, [(0, 9)]);
            // One delivery per superstep: lent once, handed back once.
            assert!(nodes.iter().all(|n| n.lent == 3 && n.returned == 3));
        }

        #[test]
        fn staged_matrix_counts_per_link() {
            // Link faults are charged per directed link, off the staged
            // counts: everything on 0 -> 1 is retransmitted, nothing else is.
            let mut nodes = nodes(3);
            let sends = vec![vec![(0, 1, 1), (0, 1, 2), (2, 0, 3), (1, 0, 4)]];
            let faults = FaultPlan::new().drop_link(0, 0, 0, 1, 1.0);
            let telemetry = run(&mut nodes, sends, faults).unwrap();
            let record = &telemetry.records()[0];
            assert_eq!(record.sent, [2 + 2, 1, 1]);
            assert_eq!(record.faults, 2);
            // The payloads still arrive exactly once.
            assert_eq!(nodes[1].seen, [(0, 1), (0, 2)]);
            assert_eq!(nodes[0].seen, [(1, 4), (2, 3)]);
        }
    }
}

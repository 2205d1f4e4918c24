//! Vertex-cut (edge) partitioning — the *other* partitioning family the
//! paper's related work surveys (§5): PowerGraph/PowerLyra-style systems
//! split the **edge set** and replicate the vertices that end up incident
//! to several parts.
//!
//! This module provides the category's quality measure (the replication
//! factor) and two streaming edge partitioners:
//!
//! * [`RandomEdge`] — hash each edge to a part; balanced but replicates
//!   heavily,
//! * [`Hdrf`] — High-Degree (are) Replicated First (Petroni et al.,
//!   CIKM '15), the state-of-the-art streaming vertex-cut the paper cites:
//!   prefer parts that already hold an endpoint, breaking ties toward
//!   replicating the *higher*-degree endpoint and toward smaller parts.
//!
//! The rest of the repository works in the edge-cut model (Gemini and
//! KnightKing both do), so these partitioners exist for comparison study
//! rather than engine execution.

use crate::partition::PartId;
use bpart_graph::splitmix::{mix64, GOLDEN_GAMMA};
use bpart_graph::{CsrGraph, VertexId};

/// An assignment of every *edge* to one of `k` parts, with the vertex
/// replica sets it implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgePartition {
    num_parts: usize,
    /// Part of each edge, aligned with `graph.edges()` order.
    edge_assignment: Vec<PartId>,
    /// Edges per part.
    edge_counts: Vec<u64>,
    /// Sorted part lists per vertex (its replicas).
    replicas: Vec<Vec<PartId>>,
}

impl EdgePartition {
    /// Builds from a per-edge assignment aligned with `graph.edges()`.
    pub fn from_assignment(
        graph: &CsrGraph,
        num_parts: usize,
        edge_assignment: Vec<PartId>,
    ) -> Self {
        assert!(num_parts > 0, "need at least one part");
        assert_eq!(
            edge_assignment.len(),
            graph.num_edges(),
            "one part per edge"
        );
        let mut edge_counts = vec![0u64; num_parts];
        let mut replicas: Vec<Vec<PartId>> = vec![Vec::new(); graph.num_vertices()];
        for ((u, v), &p) in graph.edges().zip(&edge_assignment) {
            assert!((p as usize) < num_parts, "part id {p} out of range");
            edge_counts[p as usize] += 1;
            for w in [u, v] {
                let set = &mut replicas[w as usize];
                if let Err(pos) = set.binary_search(&p) {
                    set.insert(pos, p);
                }
            }
        }
        EdgePartition {
            num_parts,
            edge_assignment,
            edge_counts,
            replicas,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Edges per part.
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// Parts holding a replica of `v` (empty for isolated vertices).
    pub fn replicas(&self, v: VertexId) -> &[PartId] {
        &self.replicas[v as usize]
    }

    /// The vertex-cut quality measure: mean replicas per non-isolated
    /// vertex (1.0 = no replication; `k` = fully replicated).
    pub fn replication_factor(&self) -> f64 {
        let (total, covered) = self
            .replicas
            .iter()
            .filter(|r| !r.is_empty())
            .fold((0usize, 0usize), |(t, c), r| (t + r.len(), c + 1));
        if covered == 0 {
            1.0
        } else {
            total as f64 / covered as f64
        }
    }

    /// The per-edge assignment, aligned with `graph.edges()` order.
    pub fn edge_assignment(&self) -> &[PartId] {
        &self.edge_assignment
    }
}

/// A streaming edge partitioner.
pub trait EdgePartitioner {
    /// Partitions the edge set of `graph` into `num_parts` parts.
    fn partition_edges(&self, graph: &CsrGraph, num_parts: usize) -> EdgePartition;
    /// Scheme name for tables.
    fn name(&self) -> &'static str;
}

/// Hash-based edge assignment (PowerGraph's default "random" vertex-cut).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomEdge {
    /// Hash seed.
    pub seed: u64,
}

impl EdgePartitioner for RandomEdge {
    fn partition_edges(&self, graph: &CsrGraph, num_parts: usize) -> EdgePartition {
        assert!(num_parts > 0, "need at least one part");
        let assignment: Vec<PartId> = graph
            .edges()
            .map(|(u, v)| {
                (mix64(((u as u64) << 32 | v as u64) ^ self.seed) % num_parts as u64) as PartId
            })
            .collect();
        EdgePartition::from_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "RandomEdge"
    }
}

/// The HDRF streaming vertex-cut partitioner.
///
/// Edges are streamed in a seeded random order, the arrival model the
/// HDRF paper assumes — a source-sorted stream (whole hub blocks at once)
/// is adversarial for every greedy vertex-cut.
#[derive(Clone, Copy, Debug)]
pub struct Hdrf {
    /// Balance weight λ (≥ 0); higher values trade replication for edge
    /// balance. The HDRF paper's default is 1.0.
    pub lambda: f64,
    /// Stream-shuffle seed.
    pub seed: u64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf {
            lambda: 1.0,
            seed: 0x4852_4446,
        }
    }
}

impl EdgePartitioner for Hdrf {
    fn partition_edges(&self, graph: &CsrGraph, num_parts: usize) -> EdgePartition {
        assert!(num_parts > 0, "need at least one part");
        let n = graph.num_vertices();
        let mut partial_degree = vec![0u64; n];
        let mut replicas: Vec<Vec<PartId>> = vec![Vec::new(); n];
        let mut sizes = vec![0u64; num_parts];
        let mut assignment = vec![PartId::MAX; graph.num_edges()];

        // Seeded Fisher-Yates over edge indices: the random-arrival stream.
        let mut order: Vec<u32> = (0..graph.num_edges() as u32).collect();
        let mut state = self.seed ^ GOLDEN_GAMMA;
        let mut next = move || {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let all_edges: Vec<(VertexId, VertexId)> = graph.edges().collect();

        for &edge_idx in &order {
            let (u, v) = all_edges[edge_idx as usize];
            partial_degree[u as usize] += 1;
            partial_degree[v as usize] += 1;
            let (du, dv) = (partial_degree[u as usize], partial_degree[v as usize]);
            // Normalized degrees: θ_u + θ_v = 1.
            let theta_u = du as f64 / (du + dv) as f64;
            let theta_v = 1.0 - theta_u;
            let max_size = sizes.iter().copied().max().unwrap_or(0) as f64;
            let min_size = sizes.iter().copied().min().unwrap_or(0) as f64;

            let g_score = |w: VertexId, theta: f64, p: PartId| -> f64 {
                if replicas[w as usize].binary_search(&p).is_ok() {
                    // Favour keeping the LOW-degree endpoint intact: the
                    // high-degree one is "replicated first".
                    1.0 + (1.0 - theta)
                } else {
                    0.0
                }
            };
            let mut best: Option<(f64, u64, PartId)> = None;
            for p in 0..num_parts as PartId {
                let c_rep = g_score(u, theta_u, p) + g_score(v, theta_v, p);
                let c_bal = self.lambda * (max_size - sizes[p as usize] as f64)
                    / (1.0 + max_size - min_size);
                let score = c_rep + c_bal;
                let size = sizes[p as usize];
                let better = match best {
                    None => true,
                    Some((bs, bsize, bp)) => {
                        score > bs || (score == bs && (size < bsize || (size == bsize && p < bp)))
                    }
                };
                if better {
                    best = Some((score, size, p));
                }
            }
            let (_, _, part) = best.expect("at least one part");
            assignment[edge_idx as usize] = part;
            sizes[part as usize] += 1;
            for w in [u, v] {
                let set = &mut replicas[w as usize];
                if let Err(pos) = set.binary_search(&part) {
                    set.insert(pos, part);
                }
            }
        }
        EdgePartition::from_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "HDRF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;

    #[test]
    fn edge_partition_bookkeeping() {
        let g = generate::ring(4); // 0->1->2->3->0
        let ep = EdgePartition::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        assert_eq!(ep.edge_counts(), &[2, 2]);
        // vertex 0: edge 0->1 in part 0, edge 3->0 in part 1 => replicas {0,1}
        assert_eq!(ep.replicas(0), &[0, 1]);
        assert_eq!(ep.replicas(1), &[0]);
        assert!((ep.replication_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_of_single_part_is_one() {
        let g = generate::complete(6);
        let ep = RandomEdge::default().partition_edges(&g, 1);
        assert_eq!(ep.replication_factor(), 1.0);
        assert_eq!(ep.num_parts(), 1);
    }

    #[test]
    fn hdrf_replicates_less_than_random() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let hdrf = Hdrf::default().partition_edges(&g, 8);
        let random = RandomEdge::default().partition_edges(&g, 8);
        assert!(
            hdrf.replication_factor() < random.replication_factor() * 0.8,
            "hdrf {} vs random {}",
            hdrf.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn hdrf_keeps_edges_balanced() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let ep = Hdrf::default().partition_edges(&g, 8);
        let bias = crate::metrics::bias(ep.edge_counts());
        assert!(bias < 0.2, "edge bias {bias}");
        assert_eq!(ep.edge_counts().iter().sum::<u64>(), g.num_edges() as u64);
    }

    #[test]
    fn hdrf_replicates_hubs_first() {
        // Star: the hub is the high-degree endpoint of every edge. With
        // enough balance pressure (λ = 2) the hub is forced to replicate
        // across parts while the degree-aware tie-breaking keeps the
        // low-degree spokes intact (one replica each).
        let g = generate::star(40);
        let hdrf = Hdrf {
            lambda: 2.0,
            ..Default::default()
        };
        let ep = hdrf.partition_edges(&g, 4);
        assert!(ep.replicas(0).len() > 1, "hub should replicate");
        let spoke_replicas: Vec<usize> = (1..41).map(|v| ep.replicas(v).len()).collect();
        let intact = spoke_replicas.iter().filter(|&&r| r == 1).count();
        assert!(intact >= 30, "most spokes stay intact: {intact}/40");
        assert!(crate::metrics::bias(ep.edge_counts()) < 0.5);
    }

    #[test]
    fn deterministic() {
        let g = generate::lj_like().generate_scaled(0.01);
        assert_eq!(
            Hdrf::default().partition_edges(&g, 4),
            Hdrf::default().partition_edges(&g, 4)
        );
        assert_eq!(
            RandomEdge::default().partition_edges(&g, 4),
            RandomEdge::default().partition_edges(&g, 4)
        );
    }

    #[test]
    #[should_panic(expected = "one part per edge")]
    fn wrong_length_assignment_panics() {
        let g = generate::ring(3);
        EdgePartition::from_assignment(&g, 2, vec![0]);
    }
}

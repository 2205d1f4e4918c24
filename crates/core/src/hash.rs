//! Hash partitioning (§2.2, Fig. 2c right): assign each vertex to
//! `hash(v) mod k`.
//!
//! Balanced in expectation in *both* dimensions (each part is a uniform
//! sample of vertices, so degree mass concentrates too), but destroys all
//! locality: the expected edge-cut ratio is `(k − 1) / k` — 87.5 % at
//! `k = 8`, exactly the paper's Table 3 row.

use crate::partition::{PartId, Partition};
use crate::partitioner::Partitioner;
use bpart_graph::splitmix::splitmix64;
use bpart_graph::CsrGraph;

/// Seeded hash partitioner.
#[derive(Clone, Copy, Debug)]
pub struct HashPartitioner {
    seed: u64,
}

impl HashPartitioner {
    /// Creates a hash partitioner with an explicit seed (different seeds
    /// give independent random assignments).
    pub fn new(seed: u64) -> Self {
        HashPartitioner { seed }
    }
}

impl Default for HashPartitioner {
    fn default() -> Self {
        HashPartitioner::new(0x5EED)
    }
}

impl Partitioner for HashPartitioner {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        assert!(num_parts > 0, "need at least one part");
        let assignment: Vec<PartId> = graph
            .vertices()
            .map(|v| (splitmix64(v as u64 ^ self.seed) % num_parts as u64) as PartId)
            .collect();
        Partition::from_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "Hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use bpart_graph::generate;

    #[test]
    fn covers_all_vertices_and_is_deterministic() {
        let g = generate::erdos_renyi(500, 3_000, 1);
        let a = HashPartitioner::new(7).partition(&g, 4);
        let b = HashPartitioner::new(7).partition(&g, 4);
        assert_eq!(a, b);
        a.validate(&g).unwrap();
    }

    #[test]
    fn different_seeds_differ() {
        let g = generate::erdos_renyi(500, 3_000, 1);
        let a = HashPartitioner::new(7).partition(&g, 4);
        let c = HashPartitioner::new(8).partition(&g, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn balances_both_dimensions_on_power_law_graph() {
        let g = generate::twitter_like().generate_scaled(0.05);
        let p = HashPartitioner::default().partition(&g, 8);
        assert!(metrics::bias(p.vertex_counts()) < 0.1);
        assert!(metrics::bias(p.edge_counts()) < 0.35);
    }

    #[test]
    fn edge_cut_is_close_to_k_minus_1_over_k() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let p = HashPartitioner::default().partition(&g, 8);
        let cut = metrics::edge_cut_ratio(&g, &p);
        assert!((cut - 0.875).abs() < 0.02, "cut = {cut}");
    }

    #[test]
    fn single_part_means_no_cut() {
        let g = generate::ring(16);
        let p = HashPartitioner::default().partition(&g, 1);
        assert_eq!(metrics::edge_cut_ratio(&g, &p), 0.0);
    }
}

//! The Fennel streaming partitioner (Tsourakakis et al., WSDM '14; §2.2 of
//! the BPart paper).
//!
//! Each streamed vertex is assigned to the part maximizing
//! `|V_i ∩ N(v)| − α·γ·|V_i|^(γ−1)`: the neighbor-affinity term minimizes
//! edge cuts, the penalty term balances the *vertex counts* — which is
//! exactly why Fennel leaves edge counts skewed on power-law graphs
//! (Limitation #1 in the paper). It is the paper's baseline as stated, with
//! nothing to set: one sequential pass in natural order, γ = 1.5, α =
//! `m·k^(γ−1)/n^γ` and a hard budget of 1.1 · n/k vertices per part.

use crate::partition::Partition;
use crate::partitioner::Partitioner;
use crate::streaming::{
    fennel_alpha, stream_assign, ParallelConfig, StreamConfig, StreamStats, FENNEL_LOAD, GAMMA,
};
use bpart_graph::{CsrGraph, VertexId};

/// The Fennel streaming partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fennel;

impl Partitioner for Fennel {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        self.partition_with_stats(graph, num_parts).0
    }

    fn partition_with_stats(&self, graph: &CsrGraph, num_parts: usize) -> (Partition, StreamStats) {
        assert!(num_parts > 0, "need at least one part");
        let n = graph.num_vertices();
        let m = graph.num_edges() as u64;
        if n == 0 {
            // Typed empty-stream guard: α is undefined over zero vertices
            // (fennel_alpha would report StreamError::EmptyStream), and the
            // empty partition is trivially correct.
            return (
                Partition::from_assignment(graph, num_parts, Vec::new()),
                StreamStats::default(),
            );
        }
        let order: Vec<VertexId> = graph.vertices().collect();
        let outcome = stream_assign(
            graph,
            &StreamConfig {
                num_parts,
                gamma: GAMMA,
                alpha: fennel_alpha(n, m, num_parts, GAMMA).expect("n > 0 checked above"),
                capacity: FENNEL_LOAD * n as f64 / num_parts as f64,
                order: &order,
                parallel: ParallelConfig::default(),
            },
            |_| 1.0,
        );
        (
            Partition::from_assignment(graph, num_parts, outcome.assignment),
            outcome.stats,
        )
    }

    fn name(&self) -> &'static str {
        "Fennel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use bpart_graph::generate;

    #[test]
    fn balances_vertices_within_load_factor() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let k = 8;
        let p = Fennel.partition(&g, k);
        p.validate(&g).unwrap();
        let cap = (1.1 * g.num_vertices() as f64 / k as f64).ceil() as u64 + 1;
        for &c in p.vertex_counts() {
            assert!(c <= cap, "{c} > {cap}");
        }
        assert!(metrics::bias(p.vertex_counts()) < 0.15);
    }

    #[test]
    fn edges_stay_imbalanced_on_power_law_graphs() {
        // The limitation BPart fixes: Fennel's edge counts are skewed.
        let g = generate::twitter_like().generate_scaled(0.1);
        let p = Fennel.partition(&g, 8);
        assert!(
            metrics::bias(p.edge_counts()) > 0.5,
            "edge bias = {}",
            metrics::bias(p.edge_counts())
        );
    }

    #[test]
    fn cuts_fewer_edges_than_hash() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let fennel_cut = metrics::edge_cut_ratio(&g, &Fennel.partition(&g, 8));
        let hash_cut = metrics::edge_cut_ratio(
            &g,
            &crate::hash::HashPartitioner::default().partition(&g, 8),
        );
        assert!(
            fennel_cut < hash_cut * 0.8,
            "fennel {fennel_cut} should beat hash {hash_cut}"
        );
    }

    #[test]
    fn deterministic() {
        let g = generate::lj_like().generate_scaled(0.01);
        let a = Fennel.partition(&g, 4);
        let b = Fennel.partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_short_circuits_the_undefined_alpha() {
        let g = bpart_graph::CsrGraph::from_edges(0, &[]);
        let p = Fennel.partition(&g, 4);
        assert_eq!(p.vertex_counts(), &[0, 0, 0, 0]);
        let (_, stats) = Fennel.partition_with_stats(&g, 4);
        assert_eq!(stats.vertices, 0);
    }

    #[test]
    fn single_part_trivial() {
        let g = generate::ring(10);
        let p = Fennel.partition(&g, 1);
        assert_eq!(p.vertex_counts(), &[10]);
        assert_eq!(metrics::edge_cut_ratio(&g, &p), 0.0);
    }

    #[test]
    fn k_larger_than_n() {
        let g = generate::ring(3);
        let p = Fennel.partition(&g, 8);
        p.validate(&g).unwrap();
    }
}

//! Phase 1 of BPart: weighted streaming over-split (§3.2).
//!
//! [`split_into_pieces`] streams a vertex subset into `pieces` pieces,
//! scoring against the weighted indicator of Eq. 1. [`WeightedStream`]
//! wraps the same pass as a standalone [`Partitioner`] — that is what
//! Fig. 8 plots (64 pieces, no combining) to show the inverse
//! proportionality the combining phase exploits.

use super::combine::Group;
use super::BPartConfig;
use crate::partition::Partition;
use crate::partitioner::Partitioner;
use crate::streaming::{
    fennel_alpha, stream_assign, StreamConfig, StreamStats, BPART_LOAD, GAMMA, UNASSIGNED,
};
use bpart_graph::{CsrGraph, VertexId};

/// Streams `subset` into `pieces` pieces using the weighted balance
/// indicator, returning per-piece member lists with cached tallies plus the
/// pass's throughput telemetry. An empty subset short-circuits (α would be
/// undefined — see [`crate::StreamError::EmptyStream`]) into empty groups.
pub(super) fn split_into_pieces(
    graph: &CsrGraph,
    subset: &[VertexId],
    pieces: usize,
    cfg: &BPartConfig,
) -> (Vec<Group>, StreamStats) {
    let n_sub = subset.len();
    if n_sub == 0 {
        let groups = (0..pieces).map(|_| Group::new(Vec::new(), 0)).collect();
        return (groups, StreamStats::default());
    }
    let m_sub: u64 = graph.degree_sum(subset.iter().copied());
    // Average degree of the streamed remainder keeps the indicator's total
    // mass equal to n_sub, so the Fennel α calibration carries over.
    let d_bar = (m_sub as f64 / n_sub as f64).max(f64::MIN_POSITIVE);
    let alpha = fennel_alpha(n_sub, m_sub, pieces, GAMMA).expect("subset is non-empty");
    let order = cfg.order.order_subset(graph, subset);
    let c = cfg.c;

    let outcome = stream_assign(
        graph,
        &StreamConfig {
            num_parts: pieces,
            gamma: GAMMA,
            alpha,
            capacity: BPART_LOAD * n_sub as f64 / pieces as f64,
            order: &order,
            parallel: cfg.parallel,
        },
        |v| c + (1.0 - c) * graph.out_degree(v) as f64 / d_bar,
    );

    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); pieces];
    for &v in subset {
        let p = outcome.assignment[v as usize];
        debug_assert_ne!(p, UNASSIGNED);
        members[p as usize].push(v);
    }
    let groups = members
        .into_iter()
        .enumerate()
        .map(|(p, vs)| {
            debug_assert_eq!(vs.len() as u64, outcome.vertex_counts[p]);
            Group::new(vs, outcome.edge_counts[p])
        })
        .collect();
    (groups, outcome.stats)
}

/// Phase 1 as a standalone partitioner (no combining): the weighted
/// streaming split of §3.2. Reported in harness tables as `BPart-P1`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedStream {
    config: BPartConfig,
}

impl WeightedStream {
    /// Weighted streaming with explicit settings (`c`, order, worker pool).
    pub fn new(config: BPartConfig) -> Self {
        WeightedStream { config }
    }
}

impl Partitioner for WeightedStream {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        self.partition_with_stats(graph, num_parts).0
    }

    fn partition_with_stats(&self, graph: &CsrGraph, num_parts: usize) -> (Partition, StreamStats) {
        assert!(num_parts > 0, "need at least one part");
        let all: Vec<VertexId> = graph.vertices().collect();
        let (groups, stats) = split_into_pieces(graph, &all, num_parts, &self.config);
        let mut assignment = vec![0; graph.num_vertices()];
        for (p, group) in groups.iter().enumerate() {
            for &v in &group.vertices {
                assignment[v as usize] = p as u32;
            }
        }
        (
            Partition::from_assignment(graph, num_parts, assignment),
            stats,
        )
    }

    fn name(&self) -> &'static str {
        "BPart-P1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::ParallelConfig;
    use bpart_graph::generate;

    fn pieces_of(
        graph: &CsrGraph,
        subset: &[VertexId],
        pieces: usize,
        cfg: &BPartConfig,
    ) -> Vec<Group> {
        split_into_pieces(graph, subset, pieces, cfg).0
    }

    #[test]
    fn pieces_partition_the_subset() {
        let g = generate::twitter_like().generate_scaled(0.01);
        let subset: Vec<VertexId> = g.vertices().collect();
        let groups = pieces_of(&g, &subset, 16, &BPartConfig::default());
        assert_eq!(groups.len(), 16);
        let total_v: u64 = groups.iter().map(|g| g.vertex_count).sum();
        let total_e: u64 = groups.iter().map(|g| g.edge_count).sum();
        assert_eq!(total_v as usize, g.num_vertices());
        assert_eq!(total_e as usize, g.num_edges());
    }

    #[test]
    fn weighted_indicator_is_near_equal_across_pieces() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let subset: Vec<VertexId> = g.vertices().collect();
        let cfg = BPartConfig::default();
        let groups = pieces_of(&g, &subset, 16, &cfg);
        let d_bar = g.average_degree();
        let ws: Vec<f64> = groups
            .iter()
            .map(|gr| 0.5 * gr.vertex_count as f64 + 0.5 * gr.edge_count as f64 / d_bar)
            .collect();
        let mean = ws.iter().sum::<f64>() / ws.len() as f64;
        let max = ws.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (max - mean) / mean < 0.2,
            "indicator spread too wide: {ws:?}"
        );
    }

    #[test]
    fn inverse_proportionality_emerges_on_skewed_graphs() {
        // Pieces with fewer vertices should carry more edges: the
        // correlation between |V_i| and |E_i| must be strongly negative
        // (Fig. 8 of the paper). The effect needs pieces large enough for
        // hub mass to dominate piece-level noise, so the piece count is
        // kept proportional to the reduced test scale.
        let g = generate::twitter_like().generate_scaled(0.2);
        let subset: Vec<VertexId> = g.vertices().collect();
        let groups = pieces_of(&g, &subset, 16, &BPartConfig::default());
        let vs: Vec<f64> = groups.iter().map(|g| g.vertex_count as f64).collect();
        let es: Vec<f64> = groups.iter().map(|g| g.edge_count as f64).collect();
        let corr = pearson(&vs, &es);
        assert!(
            corr < -0.5,
            "expected inverse proportionality, corr = {corr}"
        );
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|&x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|&y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
    }

    #[test]
    fn standalone_partitioner_validates() {
        let g = generate::lj_like().generate_scaled(0.01);
        let p = WeightedStream::default().partition(&g, 8);
        p.validate(&g).unwrap();
        assert_eq!(WeightedStream::default().name(), "BPart-P1");
    }

    #[test]
    fn empty_subset_yields_empty_groups() {
        let g = generate::ring(8);
        let (groups, stats) = split_into_pieces(&g, &[], 4, &BPartConfig::default());
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.vertex_count == 0));
        assert_eq!(stats.vertices, 0);
    }

    #[test]
    fn parallel_split_keeps_the_weighted_indicator_balanced() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let subset: Vec<VertexId> = g.vertices().collect();
        let cfg = BPartConfig {
            parallel: ParallelConfig {
                threads: 4,
                buffer_size: 512,
            },
            ..Default::default()
        };
        let (groups, stats) = split_into_pieces(&g, &subset, 16, &cfg);
        assert_eq!(stats.threads, 4);
        assert!(stats.buffers > 0);
        let d_bar = g.average_degree();
        let ws: Vec<f64> = groups
            .iter()
            .map(|gr| 0.5 * gr.vertex_count as f64 + 0.5 * gr.edge_count as f64 / d_bar)
            .collect();
        let mean = ws.iter().sum::<f64>() / ws.len() as f64;
        let max = ws.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (max - mean) / mean < 0.25,
            "parallel indicator spread too wide: {ws:?}"
        );
    }
}

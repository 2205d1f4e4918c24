//! LDG — Linear Deterministic Greedy streaming partitioning (Stanton &
//! Kliot, KDD '12), the earliest of the streaming heuristics the paper's
//! related work (§5) builds on.
//!
//! Each streamed vertex goes to the part maximizing
//! `|V_i ∩ N(v)| · (1 − |V_i|/C)`, where `C` is the per-part capacity —
//! a multiplicative penalty instead of Fennel's additive one. Like
//! Fennel, it balances only the vertex dimension; it is included as an
//! additional baseline for the ablation and comparison harnesses.

use crate::partition::{PartId, Partition};
use crate::partitioner::Partitioner;
use bpart_graph::CsrGraph;

/// Per-part capacity `C` as a multiple of `n/k`.
const LOAD_FACTOR: f64 = 1.1;

/// The LDG streaming partitioner: natural order, `C = 1.1 · n/k`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ldg;

impl Partitioner for Ldg {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        assert!(num_parts > 0, "need at least one part");
        let n = graph.num_vertices();
        let capacity = (LOAD_FACTOR * n as f64 / num_parts as f64).max(1.0);

        let mut assignment = vec![PartId::MAX; n];
        let mut sizes = vec![0u64; num_parts];
        let mut nbr_counts = vec![0u32; num_parts];
        let mut touched: Vec<PartId> = Vec::new();

        for v in graph.vertices() {
            for &w in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                let p = assignment[w as usize];
                if p != PartId::MAX {
                    if nbr_counts[p as usize] == 0 {
                        touched.push(p);
                    }
                    nbr_counts[p as usize] += 1;
                }
            }
            // Score every part: neighbor parts use the multiplicative
            // formula; parts with no neighbors score 0, so ties fall to
            // the emptiest part (LDG's stated tie-break).
            let mut best: Option<(f64, u64, PartId)> = None;
            for p in 0..num_parts as PartId {
                let size = sizes[p as usize];
                if (size as f64) >= capacity {
                    continue;
                }
                let slack = 1.0 - size as f64 / capacity;
                let score = nbr_counts[p as usize] as f64 * slack;
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
            // All parts at capacity (rounding corner): take the smallest.
            let part = best.map(|(_, _, p)| p).unwrap_or_else(|| {
                (0..num_parts as PartId)
                    .min_by_key(|&p| sizes[p as usize])
                    .unwrap()
            });
            assignment[v as usize] = part;
            sizes[part as usize] += 1;
            for &p in &touched {
                nbr_counts[p as usize] = 0;
            }
            touched.clear();
        }
        Partition::from_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "LDG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use bpart_graph::generate;

    #[test]
    fn balances_vertices_within_capacity() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let k = 8;
        let p = Ldg.partition(&g, k);
        p.validate(&g).unwrap();
        let cap = (1.1_f64 * g.num_vertices() as f64 / k as f64).ceil() as u64 + 1;
        for &c in p.vertex_counts() {
            assert!(c <= cap, "{c} > {cap}");
        }
        assert!(metrics::bias(p.vertex_counts()) < 0.15);
    }

    #[test]
    fn cuts_fewer_edges_than_hash() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let ldg = metrics::edge_cut_ratio(&g, &Ldg.partition(&g, 8));
        let hash = metrics::edge_cut_ratio(
            &g,
            &crate::hash::HashPartitioner::default().partition(&g, 8),
        );
        assert!(ldg < hash * 0.9, "ldg {ldg} vs hash {hash}");
    }

    #[test]
    fn leaves_edges_imbalanced_like_other_vertex_balancers() {
        let g = generate::twitter_like().generate_scaled(0.1);
        let p = Ldg.partition(&g, 8);
        assert!(
            metrics::bias(p.edge_counts()) > 0.5,
            "edge bias {}",
            metrics::bias(p.edge_counts())
        );
    }

    #[test]
    fn deterministic_and_covers_corners() {
        let g = generate::lj_like().generate_scaled(0.01);
        assert_eq!(Ldg.partition(&g, 4), Ldg.partition(&g, 4));
        let tiny = generate::ring(3);
        Ldg.partition(&tiny, 8).validate(&tiny).unwrap();
        let p = Ldg.partition(&tiny, 1);
        assert_eq!(p.vertex_counts(), &[3]);
    }
}

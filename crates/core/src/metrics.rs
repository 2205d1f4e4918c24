//! Partition quality metrics (§4.1 of the paper).
//!
//! * [`bias`] — `(max − mean) / mean`, the paper's primary balance measure
//!   (the slowest machine sets the iteration time, so only the maximum
//!   matters),
//! * [`jain_fairness`] — Jain's fairness index `(Σx)² / (n·Σx²)`,
//! * [`edge_cut_ratio`] — fraction of edges whose endpoints live in
//!   different parts,
//! * [`connectivity_matrix`] — edges between every pair of parts (§3.3's
//!   "are combined pieces still connected" check),
//! * [`quality`] — one-call summary used by the harness.

use crate::partition::Partition;
use bpart_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// `(max − mean) / mean` over a set of tallies. Zero for empty input or
/// all-zero tallies (a degenerate but balanced partition).
pub fn bias(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let max = *values.iter().max().unwrap() as f64;
    let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        (max - mean) / mean
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1 = perfectly balanced,
/// `1/n` = everything on one part. Returns 1.0 for empty or all-zero input.
pub fn jain_fairness(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().map(|&x| x as f64).sum();
    let sum_sq: f64 = values.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (values.len() as f64 * sum_sq)
    }
}

/// Fraction of directed edges `(u, v)` with `part(u) != part(v)`.
pub fn edge_cut_ratio(graph: &CsrGraph, partition: &Partition) -> f64 {
    let m = graph.num_edges();
    if m == 0 {
        return 0.0;
    }
    edge_cut_count(graph, partition) as f64 / m as f64
}

/// Number of directed edges crossing parts.
pub fn edge_cut_count(graph: &CsrGraph, partition: &Partition) -> u64 {
    let n = graph.num_vertices();
    (0..n)
        .into_par_iter()
        .map(|u| {
            let pu = partition.part_of(u as VertexId);
            graph
                .out_neighbors(u as VertexId)
                .iter()
                .filter(|&&v| partition.part_of(v) != pu)
                .count() as u64
        })
        .sum()
}

/// `k x k` matrix where entry `[i][j]` counts directed edges from part `i`
/// to part `j` (diagonal = internal edges).
pub fn connectivity_matrix(graph: &CsrGraph, partition: &Partition) -> Vec<Vec<u64>> {
    let k = partition.num_parts();
    let mut matrix = vec![vec![0u64; k]; k];
    for (u, v) in graph.edges() {
        matrix[partition.part_of(u) as usize][partition.part_of(v) as usize] += 1;
    }
    matrix
}

/// One-call quality summary for harness tables.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityReport {
    /// Bias of per-part vertex counts.
    pub vertex_bias: f64,
    /// Bias of per-part edge counts.
    pub edge_bias: f64,
    /// Jain fairness of per-part vertex counts.
    pub vertex_jain: f64,
    /// Jain fairness of per-part edge counts.
    pub edge_jain: f64,
    /// Edge-cut ratio.
    pub cut_ratio: f64,
}

/// Computes the full [`QualityReport`] for a partition.
pub fn quality(graph: &CsrGraph, partition: &Partition) -> QualityReport {
    QualityReport {
        vertex_bias: bias(partition.vertex_counts()),
        edge_bias: bias(partition.edge_counts()),
        vertex_jain: jain_fairness(partition.vertex_counts()),
        edge_jain: jain_fairness(partition.edge_counts()),
        cut_ratio: edge_cut_ratio(graph, partition),
    }
}

#[cfg(test)]
impl crate::chunk::ChunkV {
    /// Test-only alias to keep the metrics tests free of trait imports.
    fn partition_helper(&self, g: &CsrGraph, k: usize) -> Partition {
        use crate::partitioner::Partitioner;
        self.partition(g, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;

    #[test]
    fn bias_basics() {
        assert_eq!(bias(&[10, 10, 10]), 0.0);
        assert_eq!(bias(&[20, 10, 0]), 1.0); // mean 10, max 20
        assert_eq!(bias(&[]), 0.0);
        assert_eq!(bias(&[0, 0]), 0.0);
    }

    #[test]
    fn jain_basics() {
        assert_eq!(jain_fairness(&[5, 5, 5, 5]), 1.0);
        let one_sided = jain_fairness(&[12, 0, 0, 0]);
        assert!((one_sided - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0]), 1.0);
    }

    #[test]
    fn cut_ratio_on_a_ring_split_in_two() {
        let g = generate::ring(8);
        // halves: exactly 2 crossing edges (3->4 and 7->0)
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(edge_cut_count(&g, &p), 2);
        assert!((edge_cut_ratio(&g, &p) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn connectivity_matrix_counts_directions() {
        let g = generate::ring(4); // 0->1->2->3->0
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        let m = connectivity_matrix(&g, &p);
        assert_eq!(m[0][0], 1); // 0->1
        assert_eq!(m[0][1], 1); // 1->2
        assert_eq!(m[1][1], 1); // 2->3
        assert_eq!(m[1][0], 1); // 3->0
    }

    #[test]
    fn quality_report_is_consistent() {
        let g = generate::twitter_like().generate_scaled(0.01);
        let p = crate::chunk::ChunkV.partition_helper(&g, 4);
        let q = quality(&g, &p);
        assert!((q.vertex_bias - bias(p.vertex_counts())).abs() < 1e-12);
        assert!(q.cut_ratio > 0.0 && q.cut_ratio < 1.0);
        assert!(q.vertex_jain > 0.99);
    }
}

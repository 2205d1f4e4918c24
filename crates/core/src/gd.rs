//! GD — multi-dimensional balanced partitioning via projected gradient
//! descent (Avdiukhin, Pupyrev & Yaroslavtsev, VLDB '19), the only other
//! two-dimensionally balanced scheme the paper discusses (§5).
//!
//! The paper's characterization, which this implementation reproduces: GD
//! *can* balance both vertices and edges, but it is time-consuming and
//! only splits into a **power-of-two** number of parts (recursive
//! bisection).
//!
//! One bisection relaxes the ±1 assignment to `x ∈ [−1, 1]^n` and runs
//! projected gradient ascent on the agreement objective
//! `Σ_{(u,v)∈E} x_u·x_v` (maximizing agreement = minimizing expected
//! cut), projecting after every step onto the intersection of the box
//! with the two balance hyperplanes `Σ x_v = 0` (vertices) and
//! `Σ d_v·x_v = 0` (edges/degrees). Rounding sorts by `x` and sweeps a
//! window around the median for the split minimizing edge imbalance, so
//! both dimensions come out balanced.

use crate::partition::{PartId, Partition};
use crate::partitioner::Partitioner;
use bpart_graph::splitmix::{splitmix64, unit_f64};
use bpart_graph::{CsrGraph, VertexId};

/// Gradient iterations per bisection.
const ITERATIONS: usize = 40;
/// Gradient step size (scaled by 1/d̄ internally).
const LEARNING_RATE: f64 = 0.5;
/// Alternating-projection rounds per step.
const PROJECTION_ROUNDS: usize = 3;
/// Rounding sweep window around the vertex-median split, as a fraction of
/// the side size.
const SWEEP_WINDOW: f64 = 0.05;
/// Seed for the initial relaxation.
const SEED: u64 = 0x6D60;

/// The GD recursive-bisection partitioner (power-of-two part counts only).
#[derive(Clone, Copy, Debug, Default)]
pub struct GdPartitioner;

impl Partitioner for GdPartitioner {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        assert!(num_parts > 0, "need at least one part");
        assert!(
            num_parts.is_power_of_two(),
            "GD only supports power-of-two part counts (got {num_parts})"
        );
        let n = graph.num_vertices();
        let mut assignment = vec![0 as PartId; n];
        let all: Vec<VertexId> = graph.vertices().collect();
        bisect(graph, &all, 0, num_parts, &mut assignment);
        Partition::from_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "GD"
    }
}

/// Recursively bisects `side` into parts `[base, base + parts)`.
fn bisect(
    graph: &CsrGraph,
    side: &[VertexId],
    base: PartId,
    parts: usize,
    assignment: &mut [PartId],
) {
    if parts == 1 || side.len() <= 1 {
        for &v in side {
            assignment[v as usize] = base;
        }
        // Degenerate split with more parts than vertices: everything to
        // the first part; the rest stay empty.
        return;
    }
    let (left, right) = bisect_once(graph, side, base as u64);
    bisect(graph, &left, base, parts / 2, assignment);
    bisect(
        graph,
        &right,
        base + (parts / 2) as PartId,
        parts / 2,
        assignment,
    );
}

/// One projected-gradient bisection of `side`.
fn bisect_once(graph: &CsrGraph, side: &[VertexId], salt: u64) -> (Vec<VertexId>, Vec<VertexId>) {
    let n_all = graph.num_vertices();
    let m = side.len();
    // Local index over the side; MAX marks vertices outside it.
    let mut local = vec![u32::MAX; n_all];
    for (i, &v) in side.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let degrees: Vec<f64> = side.iter().map(|&v| graph.out_degree(v) as f64).collect();
    let deg_norm: f64 = degrees.iter().map(|d| d * d).sum::<f64>().max(1.0);
    let d_bar = (degrees.iter().sum::<f64>() / m as f64).max(1.0);

    // Deterministic small random init (SplitMix-based, seeded per side).
    let mut x: Vec<f64> = side
        .iter()
        .map(|&v| {
            unit_f64(splitmix64(SEED ^ salt.wrapping_mul(0x9e37_79b9) ^ v as u64)) * 0.2 - 0.1
        })
        .collect();
    project(&mut x, &degrees, deg_norm);

    let lr = LEARNING_RATE / d_bar;
    let mut grad = vec![0.0f64; m];
    for _ in 0..ITERATIONS {
        // Gradient of Σ x_u x_v over side-internal (undirected) edges.
        grad.iter_mut().for_each(|g| *g = 0.0);
        for (i, &u) in side.iter().enumerate() {
            for &w in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                let j = local[w as usize];
                if j != u32::MAX {
                    grad[i] += x[j as usize];
                }
            }
        }
        for (xi, gi) in x.iter_mut().zip(&grad) {
            *xi += lr * gi; // ascent on agreement
        }
        project(&mut x, &degrees, deg_norm);
    }

    // Rounding: sort by relaxed value, then sweep a window around the
    // vertex-median split for the cut point with the best edge balance.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_by(|&a, &b| {
        x[b as usize]
            .total_cmp(&x[a as usize])
            .then(side[a as usize].cmp(&side[b as usize]))
    });
    let total_deg: f64 = degrees.iter().sum();
    let half = m / 2;
    let window = ((m as f64 * SWEEP_WINDOW) as usize).max(1);
    let lo = half.saturating_sub(window);
    let hi = (half + window).min(m - 1).max(lo);
    let mut prefix = 0.0;
    let mut best_split = half;
    let mut best_dev = f64::INFINITY;
    for (count, &i) in order.iter().enumerate() {
        prefix += degrees[i as usize];
        let split = count + 1;
        if (lo..=hi).contains(&split) {
            let dev = (prefix - total_deg / 2.0).abs();
            if dev < best_dev {
                best_dev = dev;
                best_split = split;
            }
        }
        if split > hi {
            break;
        }
    }
    let left: Vec<VertexId> = order[..best_split]
        .iter()
        .map(|&i| side[i as usize])
        .collect();
    let right: Vec<VertexId> = order[best_split..]
        .iter()
        .map(|&i| side[i as usize])
        .collect();
    (left, right)
}

/// Alternating projection onto `{Σx = 0} ∩ {Σ d·x = 0} ∩ [−1, 1]^n`.
fn project(x: &mut [f64], degrees: &[f64], deg_norm: f64) {
    let n = x.len() as f64;
    for _ in 0..PROJECTION_ROUNDS {
        let mean: f64 = x.iter().sum::<f64>() / n;
        x.iter_mut().for_each(|v| *v -= mean);
        let dot: f64 = x.iter().zip(degrees).map(|(v, d)| v * d).sum();
        let scale = dot / deg_norm;
        for (v, d) in x.iter_mut().zip(degrees) {
            *v -= scale * d;
            *v = v.clamp(-1.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashPartitioner;
    use crate::metrics;
    use bpart_graph::generate;

    #[test]
    fn balances_both_dimensions_on_power_law_graphs() {
        let g = generate::twitter_like().generate_scaled(0.05);
        for k in [2usize, 4, 8] {
            let p = GdPartitioner.partition(&g, k);
            p.validate(&g).unwrap();
            let q = metrics::quality(&g, &p);
            assert!(q.vertex_bias < 0.2, "k={k} vertex bias {}", q.vertex_bias);
            assert!(q.edge_bias < 0.25, "k={k} edge bias {}", q.edge_bias);
        }
    }

    #[test]
    fn cut_beats_hash() {
        let g = generate::friendster_like().generate_scaled(0.02);
        let gd_cut = metrics::edge_cut_ratio(&g, &GdPartitioner.partition(&g, 4));
        let hash_cut = metrics::edge_cut_ratio(&g, &HashPartitioner::default().partition(&g, 4));
        assert!(gd_cut < hash_cut, "gd {gd_cut} vs hash {hash_cut}");
    }

    #[test]
    fn deterministic() {
        let g = generate::lj_like().generate_scaled(0.01);
        let a = GdPartitioner.partition(&g, 4);
        let b = GdPartitioner.partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn separates_two_cliques() {
        let mut edges = Vec::new();
        for base in [0u32, 8u32] {
            for a in 0..8 {
                for b in 0..8 {
                    if a != b {
                        edges.push((base + a, base + b));
                    }
                }
            }
        }
        edges.push((0, 8));
        let g = CsrGraph::from_edges(16, &edges);
        let p = GdPartitioner.partition(&g, 2);
        let first = p.part_of(0);
        assert!((1..8).all(|v| p.part_of(v) == first), "clique 1 split");
        assert!(
            (8..16).all(|v| p.part_of(v) != first),
            "clique 2 not separated"
        );
    }

    use bpart_graph::CsrGraph;

    #[test]
    fn tiny_sides_terminate() {
        let g = generate::ring(3);
        let p = GdPartitioner.partition(&g, 4);
        p.validate(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        let g = generate::ring(8);
        GdPartitioner.partition(&g, 3);
    }
}

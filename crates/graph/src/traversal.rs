//! Graph traversals: BFS and connected components.
//!
//! Used by the §3.3 connectivity experiment (are combined BPart pieces still
//! connected?) and as the single-machine reference implementation the
//! distributed engines are tested against.

use crate::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// BFS distances (in hops, over out-edges) from `source`; unreachable
/// vertices get `u32::MAX`.
pub fn bfs_distances(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.out_neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Weakly connected component labels (edges treated as undirected): each
/// vertex is labelled with the smallest vertex id in its component — the
/// same convention the distributed CC app converges to, so results compare
/// directly.
pub fn connected_components(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut label = vec![VertexId::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n as VertexId {
        if label[start as usize] != VertexId::MAX {
            continue;
        }
        label[start as usize] = start;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                if label[v as usize] == VertexId::MAX {
                    label[v as usize] = start;
                    queue.push_back(v);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn num_components(graph: &CsrGraph) -> usize {
        let mut distinct = connected_components(graph);
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len()
    }

    #[test]
    fn bfs_on_a_path() {
        let g = generate::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        // path is directed; nothing is reachable backwards from the last vertex
        let d4 = bfs_distances(&g, 4);
        assert_eq!(d4[4], 0);
        assert!(d4[..4].iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn components_of_disjoint_rings() {
        let mut edges = Vec::new();
        // ring 0-1-2, ring 3-4-5
        for &(a, b) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            edges.push((a, b));
        }
        let g = CsrGraph::from_edges(6, &edges);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3]);
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        // 0 -> 1 <- 2: weakly connected even though not strongly.
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        assert_eq!(num_components(&g), 3);
    }

    #[test]
    fn generated_graphs_are_mostly_connected() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let total = g.num_vertices();
        let labels = connected_components(&g);
        let mut counts = std::collections::HashMap::new();
        for l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        let largest = counts.values().copied().max().unwrap();
        assert!(
            largest as f64 > total as f64 * 0.5,
            "largest component {largest}/{total}"
        );
    }
}

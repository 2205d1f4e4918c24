//! node2vec (Grover & Leskovec, KDD '16): second-order biased walks with
//! KnightKing's rejection sampling.
//!
//! Given the previous vertex `t` and current vertex `v`, the unnormalized
//! probability of moving to `x ∈ N(v)` is
//!
//! ```text
//! w(x) = 1/p  if x == t        (return)
//!        1    if x ∈ N(t)      (stay close)
//!        1/q  otherwise        (explore)
//! ```
//!
//! Instead of materializing the distribution per (t, v) pair — quadratic
//! state — KnightKing samples a uniform candidate from `N(v)` and accepts
//! it with probability `w(x)/w_max`, so the expected trial count is the
//! rejection-sampling constant `w_max / E[w]`, independent of degree. A
//! trial probes `N(t)` (a binary search) only when its uniform draw falls
//! between the close and the far acceptance thresholds: below both it
//! accepts and above both it rejects whatever the probe would say
//! (KnightKing's lower-bound pre-acceptance), so walks are the ones a probe
//! on every trial takes.

use crate::walker::{WalkApp, Walker};
use bpart_graph::{CsrGraph, VertexId};

/// node2vec second-order walk.
#[derive(Clone, Copy, Debug)]
pub struct Node2vec {
    /// `w/w_max` of a return to the previous vertex (`1/p`).
    accept_return: f64,
    /// `w/w_max` of a candidate adjacent to the previous vertex (`1`).
    accept_close: f64,
    /// `w/w_max` of any other candidate (`1/q`).
    accept_far: f64,
    walk_length: u32,
}

impl Node2vec {
    /// node2vec with return parameter `p`, in-out parameter `q` and a
    /// fixed walk length.
    pub fn new(p: f64, q: f64, walk_length: u32) -> Self {
        assert!(p > 0.0 && q > 0.0, "p and q must be positive");
        let w_max = (1.0 / p).max(1.0).max(1.0 / q);
        Node2vec {
            accept_return: (1.0 / p) / w_max,
            accept_close: 1.0 / w_max,
            accept_far: (1.0 / q) / w_max,
            walk_length,
        }
    }
}

impl WalkApp for Node2vec {
    fn walk_length(&self) -> u32 {
        self.walk_length
    }

    fn next(&self, walker: &mut Walker, graph: &CsrGraph) -> Option<VertexId> {
        let nbrs = graph.out_neighbors(walker.current);
        if nbrs.is_empty() {
            return None;
        }
        // First step is first-order: uniform.
        let prev = walker.previous;
        if prev == VertexId::MAX {
            return Some(nbrs[walker.rng.next_bounded(nbrs.len() as u64) as usize]);
        }
        // A draw below both the close and the far threshold accepts, and
        // one at or above both rejects, whatever `N(prev)` holds.
        let below = self.accept_close.min(self.accept_far);
        let above = self.accept_close.max(self.accept_far);
        // Rejection sampling with a safety cap; the acceptance rate is at
        // least min(1/p, 1, 1/q) / w_max, so 64 trials virtually never
        // trip. Falling back to the last candidate keeps walks total.
        let mut candidate = nbrs[0];
        for _ in 0..64 {
            candidate = nbrs[walker.rng.next_bounded(nbrs.len() as u64) as usize];
            let u = walker.rng.next_f64();
            let accepted = if candidate == prev {
                u < self.accept_return
            } else if u < below || u >= above {
                u < below
            } else if graph.is_out_neighbor(prev, candidate) {
                u < self.accept_close
            } else {
                u < self.accept_far
            };
            if accepted {
                return Some(candidate);
            }
        }
        Some(candidate)
    }

    fn name(&self) -> &'static str {
        "node2vec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;
    use std::collections::HashMap;

    /// Empirical transition distribution from state (prev=0, current=1).
    fn empirical(graph: &CsrGraph, p: f64, q: f64, trials: u64) -> HashMap<VertexId, f64> {
        let app = Node2vec::new(p, q, 10);
        let mut counts: HashMap<VertexId, u64> = HashMap::new();
        for id in 0..trials {
            let mut w = Walker::new(id, 0, 99);
            w.advance(1); // prev = 0, current = 1
            let v = app.next(&mut w, graph).unwrap();
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(v, c)| (v, c as f64 / trials as f64))
            .collect()
    }

    #[test]
    fn transition_probabilities_match_the_biased_distribution() {
        // Square with a diagonal: N(1) = {0, 2, 3}; N(0) = {1, 2}.
        // From (prev=0, current=1): w(0)=1/p (return), w(2)=1 (in N(0)),
        // w(3)=1/q (explore).
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 0),
                (1, 2),
                (2, 1),
                (1, 3),
                (3, 1),
            ],
        );
        let (p, q) = (4.0, 0.25);
        let dist = empirical(&g, p, q, 60_000);
        let w = [1.0 / p, 1.0, 1.0 / q];
        let z: f64 = w.iter().sum();
        assert!((dist[&0] - w[0] / z).abs() < 0.02, "return: {}", dist[&0]);
        assert!((dist[&2] - w[1] / z).abs() < 0.02, "close: {}", dist[&2]);
        assert!((dist[&3] - w[2] / z).abs() < 0.02, "explore: {}", dist[&3]);
    }

    #[test]
    fn p_q_one_degenerates_to_uniform() {
        let g = generate::complete(6);
        let dist = empirical(&g, 1.0, 1.0, 60_000);
        for (&v, &prob) in &dist {
            assert!((prob - 0.2).abs() < 0.02, "vertex {v}: {prob}");
        }
    }

    #[test]
    fn first_step_is_uniform_first_order() {
        let g = generate::star(5);
        let app = Node2vec::new(0.25, 4.0, 3);
        let mut w = Walker::new(0, 0, 5);
        assert_eq!(w.previous, VertexId::MAX);
        let v = app.next(&mut w, &g).unwrap();
        assert!(g.is_out_neighbor(0, v));
    }

    #[test]
    fn dead_end_terminates() {
        let g = generate::path(2);
        let app = Node2vec::new(1.0, 1.0, 5);
        let mut w = Walker::new(0, 1, 1);
        assert_eq!(app.next(&mut w, &g), None);
    }

    use bpart_graph::CsrGraph;

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_params_panic() {
        Node2vec::new(0.0, 1.0, 5);
    }
}

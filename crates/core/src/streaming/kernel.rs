//! The one placement kernel of the streaming engine.
//!
//! A [`Pass`] owns everything a streaming pass mutates — the flat part
//! weights and cached penalties ([`FlatParts`]), the dense assignment, the
//! `|V_i|`/`|E_i|` tallies and the `k + 1` neighbour-tally slots — and
//! [`Pass::place`] is the crate's only tally → [`FlatScorer::choose`] →
//! commit → reset sequence; [`Pass::unplace`] is the only removal, which the
//! buffered barrier's intra-buffer restream round makes.
//! The resident pass, the shard loop and the buffered commit barrier are
//! loops that hand it `(v, out_deg, delta, neighbours)`.

use super::UNASSIGNED;
use crate::partition::PartId;
use bpart_graph::VertexId;

/// Flat per-partition balance state: the weights `W_i` and their cached
/// penalties `α·γ·W_i^(γ−1)` in two contiguous `f64` arrays sized to `k`,
/// plus the id of the lightest part. The penalty is a pure function of the
/// weight, so it is refreshed once per weight *update* (one or two per
/// streamed vertex) and the scoring loop never calls `powf`. The lightest
/// part is kept incrementally by [`set`](FlatParts::set): at most one
/// weight changes per update, so the `O(k)` argmin is paid only when the
/// part that grew *was* the lightest.
pub(super) struct FlatParts {
    weights: Vec<f64>,
    penalties: Vec<f64>,
    /// `(weight, id)` argmin over `weights` — what a full scan returns.
    lightest: PartId,
}

impl FlatParts {
    pub(super) fn new(weights: Vec<f64>, scorer: &FlatScorer) -> Self {
        let penalties = weights.iter().map(|&w| scorer.penalty(w)).collect();
        let mut parts = FlatParts {
            weights,
            penalties,
            lightest: 0,
        };
        parts.lightest = parts.scan_lightest();
        parts
    }

    /// Sets one part's weight, refreshes its cached penalty and repairs the
    /// cached lightest part: a lightest part that grew forces a rescan, one
    /// that shrank stays lightest, and any other part takes over only by
    /// undercutting the cached one in `(weight, id)` order.
    #[inline]
    fn set(&mut self, p: PartId, w: f64, scorer: &FlatScorer) {
        let old = std::mem::replace(&mut self.weights[p as usize], w);
        self.penalties[p as usize] = scorer.penalty(w);
        let lightest = self.lightest;
        if p == lightest {
            if w > old {
                self.lightest = self.scan_lightest();
            }
        } else {
            let lw = self.weights[lightest as usize];
            if w < lw || (w == lw && p < lightest) {
                self.lightest = p;
            }
        }
    }

    /// Adds an assignment's `delta` to one part.
    #[inline]
    pub(super) fn add(&mut self, p: PartId, delta: f64, scorer: &FlatScorer) {
        self.set(p, self.weights[p as usize] + delta, scorer);
    }

    /// Removes the `delta` of a vertex taken out of part `p`, clamped at
    /// zero: accumulated rounding error must not leave a drained part
    /// slightly negative — a negative weight would NaN-poison the balance
    /// penalty via `powf`.
    #[inline]
    pub(super) fn remove(&mut self, p: PartId, delta: f64, scorer: &FlatScorer) {
        self.set(p, (self.weights[p as usize] - delta).max(0.0), scorer);
    }

    /// Overwrites this state with a snapshot of another of the same `k`
    /// (reusable-scratch copy — no allocation).
    pub(super) fn copy_from(&mut self, other: &FlatParts) {
        self.weights.copy_from_slice(&other.weights);
        self.penalties.copy_from_slice(&other.penalties);
        self.lightest = other.lightest;
    }

    /// Argmin over the flat weight array, the smallest id winning ties (the
    /// order the lazy min-heap of the [`oracle`](super::oracle) produces).
    fn scan_lightest(&self) -> PartId {
        let mut best = 0usize;
        let mut best_w = self.weights[0];
        for (p, &w) in self.weights.iter().enumerate().skip(1) {
            if w < best_w {
                best = p;
                best_w = w;
            }
        }
        best as PartId
    }
}

/// The Fennel objective evaluated as one flat pass over all `k` parts.
///
/// Exactness: scoring every part is equivalent to the scalar scorer's
/// "neighbor parts + lightest part" candidate set. A part with no
/// neighbors of `v` scores the pure penalty `−α·γ·W^(γ−1)`; for `γ ≥ 1`
/// and `α ≥ 0` that is maximized at the minimum weight, and the
/// (weight, id) tie-break then selects exactly the part the lazy heap
/// would have nominated. Score arithmetic is kept bit-for-bit identical
/// to the scalar form (`(α·γ)·W^(γ−1)` — `a*b*c` associates left), so the
/// flat pass reproduces the [`oracle`](super::oracle) choice exactly.
#[derive(Clone, Copy)]
pub(super) struct FlatScorer {
    /// Fused penalty coefficient `α·γ`.
    coef: f64,
    /// Penalty exponent `γ−1`.
    exponent: f64,
    capacity: f64,
}

impl FlatScorer {
    pub(super) fn new(gamma: f64, alpha: f64, capacity: f64) -> Self {
        FlatScorer {
            coef: alpha * gamma,
            exponent: gamma - 1.0,
            capacity,
        }
    }

    /// Balance penalty of one part at weight `w`.
    #[inline]
    fn penalty(&self, w: f64) -> f64 {
        self.coef * w.powf(self.exponent)
    }

    /// Picks the winning part: one branch-predictable pass over the flat
    /// neighbor counts and cached penalties. Parts at capacity are masked
    /// to `−∞` unless they are the lightest part, which always remains a
    /// legal target — the same rule the scalar scorer applied per branch.
    /// Ties go to the higher score, then the lighter part, then the
    /// smaller id.
    pub(super) fn choose(&self, nbr_counts: &[u32], parts: &FlatParts) -> PartId {
        debug_assert_eq!(nbr_counts.len(), parts.weights.len());
        let lightest = parts.lightest;
        let mut best_p: PartId = 0;
        let mut best_s = f64::NEG_INFINITY;
        let mut best_w = f64::INFINITY;
        for (p, ((&nbr, &w), &pen)) in nbr_counts
            .iter()
            .zip(&parts.weights)
            .zip(&parts.penalties)
            .enumerate()
        {
            let p = p as PartId;
            let open = w < self.capacity || p == lightest;
            let score = if open {
                nbr as f64 - pen
            } else {
                f64::NEG_INFINITY
            };
            // Ids ascend with the loop, so on a full (score, weight) tie
            // the earlier — smaller — id is kept.
            if score > best_s || (score == best_s && w < best_w) {
                best_s = score;
                best_w = w;
                best_p = p;
            }
        }
        best_p
    }
}

/// The mutable state of one streaming pass and the kernel that advances it.
pub(super) struct Pass {
    pub(super) scorer: FlatScorer,
    pub(super) parts: FlatParts,
    /// Dense over all vertex ids; [`UNASSIGNED`] until placed.
    pub(super) assignment: Vec<PartId>,
    pub(super) vertex_counts: Vec<u64>,
    pub(super) edge_counts: Vec<u64>,
    /// Scratch neighbour tallies: one slot per part plus a trailing trash
    /// slot that absorbs unassigned neighbours ([`UNASSIGNED`] ≥ `k`, so
    /// `min(k)` routes it there). The per-neighbour tally is branchless —
    /// mid-stream the assigned/unassigned branch is a coin flip the
    /// predictor loses constantly — and the per-vertex reset is a
    /// `k+1`-word memset instead of touched-list bookkeeping.
    nbr_counts: Vec<u32>,
}

impl Pass {
    /// A pass over `num_vertices` unplaced vertices and `k` empty parts.
    pub(super) fn new(num_vertices: usize, k: usize, scorer: FlatScorer) -> Self {
        assert!(k > 0, "need at least one part");
        assert!(
            (k as u64) < UNASSIGNED as u64,
            "part count {k} overflows the PartId sentinel space"
        );
        Pass {
            scorer,
            parts: FlatParts::new(vec![0.0; k], &scorer),
            assignment: vec![UNASSIGNED; num_vertices],
            vertex_counts: vec![0; k],
            edge_counts: vec![0; k],
            nbr_counts: vec![0; k + 1],
        }
    }

    /// Places `v`: tallies its already-placed `neighbours` per part (in the
    /// order given — out- then in-neighbours everywhere), picks the winner,
    /// commits it and clears the tally slots. `v` must be unplaced.
    ///
    /// Never inlined: one call per vertex costs nothing beside its
    /// `O(deg + k)` body, and a function of its own gives the tally loop a
    /// register allocation no driver's surroundings can spill (inlined into
    /// the shard loop it reloaded both base pointers per neighbour).
    #[inline(never)]
    pub(super) fn place(
        &mut self,
        v: VertexId,
        out_deg: u64,
        delta: f64,
        neighbours: impl Iterator<Item = VertexId>,
    ) -> PartId {
        let trash = self.nbr_counts.len() - 1;
        // Plain slices, so the loop keeps both base pointers in registers.
        let (assignment, nbr_counts) = (&self.assignment[..], &mut self.nbr_counts[..]);
        neighbours.for_each(|w| {
            let p = assignment[w as usize] as usize;
            nbr_counts[p.min(trash)] += 1;
        });
        let part = self.scorer.choose(&self.nbr_counts[..trash], &self.parts);
        self.nbr_counts.fill(0);
        self.commit(v, part, out_deg, delta);
        part
    }

    /// Commits `v` to `part` without scoring — the second half of
    /// [`place`](Self::place), and how the buffered barrier accepts a
    /// worker's proposal.
    #[inline]
    pub(super) fn commit(&mut self, v: VertexId, part: PartId, out_deg: u64, delta: f64) {
        debug_assert_eq!(
            self.assignment[v as usize], UNASSIGNED,
            "vertex {v} placed twice"
        );
        self.assignment[v as usize] = part;
        self.vertex_counts[part as usize] += 1;
        self.edge_counts[part as usize] += out_deg;
        self.parts.add(part, delta, &self.scorer);
    }

    /// Takes a placed `v` back out of its part (the buffered restream round).
    #[inline]
    pub(super) fn unplace(&mut self, v: VertexId, out_deg: u64, delta: f64) {
        let old = std::mem::replace(&mut self.assignment[v as usize], UNASSIGNED);
        debug_assert_ne!(old, UNASSIGNED, "vertex {v} is not placed");
        self.vertex_counts[old as usize] -= 1;
        self.edge_counts[old as usize] -= out_deg;
        self.parts.remove(old, delta, &self.scorer);
    }

    /// Whether `part` may still take a vertex: below capacity, or the
    /// lightest part (always a legal target) — [`FlatScorer::choose`]'s
    /// mask, for a proposal scored against stale weights.
    pub(super) fn accepts(&self, part: PartId) -> bool {
        self.parts.weights[part as usize] < self.scorer.capacity || part == self.parts.lightest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After any interleaving of `add` / `remove` / `copy_from` the
        /// cached lightest part is the full scan's `(weight, id)` argmin.
        /// Deltas come from a four-value grid so equal weights, exact
        /// drains and removals clamped at zero are the common case.
        #[test]
        fn cached_lightest_part_equals_the_scan(
            k in 1usize..9,
            ops in prop::collection::vec((0u8..8, 0usize..64, 0usize..4), 0..200),
        ) {
            const DELTAS: [f64; 4] = [0.0, 0.5, 1.0, 2.5];
            let scorer = FlatScorer::new(1.5, 0.7, 4.0);
            let mut parts = FlatParts::new(vec![0.0; k], &scorer);
            let mut snapshot = FlatParts::new(vec![1.0; k], &scorer);
            for (op, p, d) in ops {
                let delta = DELTAS[d];
                match op {
                    0..=2 => parts.add((p % k) as PartId, delta, &scorer),
                    3 => parts.add(parts.lightest, delta, &scorer),
                    4 => parts.remove((p % k) as PartId, delta, &scorer),
                    5 => parts.remove(parts.lightest, delta, &scorer),
                    6 => snapshot.copy_from(&parts),
                    _ => parts.copy_from(&snapshot),
                }
                prop_assert_eq!(parts.lightest, parts.scan_lightest());
                prop_assert_eq!(snapshot.lightest, snapshot.scan_lightest());
                prop_assert!(parts.weights.iter().all(|&w| w >= 0.0));
            }
        }
    }
}

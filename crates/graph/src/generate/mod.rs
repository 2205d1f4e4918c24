//! Seeded synthetic graph generators.
//!
//! The paper evaluates on LiveJournal, Twitter and Friendster — multi-GB
//! public crawls we substitute with seeded synthetic graphs whose *shape*
//! (power-law degree skew, average degree, hub locality in the ID space)
//! drives every phenomenon the paper measures. See DESIGN.md §3 for the
//! substitution argument.
//!
//! All generators are deterministic given their seed.
//!
//! * [`chung_lu`] — power-law random graph with controllable exponent,
//!   average degree and maximum hub degree (used by the dataset presets),
//! * [`rmat`] — Kronecker-style recursive matrix generator,
//! * [`erdos_renyi`] — uniform `G(n, m)`,
//! * [`watts_strogatz`] — small-world ring lattice with rewiring,
//! * deterministic shapes — ring, star, path, grid, complete — for unit
//!   tests,
//! * presets — the [`lj_like`] / [`twitter_like`] / [`friendster_like`]
//!   stand-ins with paper-matched average degrees.

mod chung_lu;
mod deterministic;
mod edgeset;
mod erdos_renyi;
mod presets;
mod rmat;
mod watts_strogatz;

pub use chung_lu::{chung_lu, ChungLuConfig};
pub use deterministic::{complete, grid, path, ring, star};
pub use erdos_renyi::erdos_renyi;
pub use presets::{
    friendster_like, lj_like, parse_scale, preset_by_name, twitter_like, DatasetPreset, ALL_PRESETS,
};
pub use rmat::{rmat, RmatConfig};
pub use watts_strogatz::watts_strogatz;

/// The generators' bookkeeping as it was before the edge-set kernel: each
/// round normalized (tuple sort + dedup) and merged into the pool, the
/// exact subsample shuffling the edges and re-sorting them, and the graph
/// built by `from_edges`' per-list sorts. Retained as the differential-test
/// oracle: the kernel must reproduce it bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::{CsrGraph, Edge};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Deduplicates a batch of directed edges and drops self-loops.
    pub(crate) fn normalize(edges: &mut Vec<Edge>) {
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
    }

    /// Merges `batch` into `pool`, both sorted and duplicate-free: the edge
    /// set `normalize` would make of their concatenation.
    pub(crate) fn merge_sorted(pool: &mut Vec<Edge>, mut batch: Vec<Edge>) {
        if pool.is_empty() {
            *pool = batch;
            return;
        }
        batch.retain(|edge| pool.binary_search(edge).is_err());
        let (mut i, mut j) = (pool.len(), batch.len());
        let mut k = i + j;
        pool.resize(k, (0, 0));
        while j > 0 {
            k -= 1;
            if i > 0 && pool[i - 1] > batch[j - 1] {
                i -= 1;
                pool[k] = pool[i];
            } else {
                j -= 1;
                pool[k] = batch[j];
            }
        }
    }

    /// Keeps exactly `m` edges of a deduplicated pool by a seeded partial
    /// Fisher-Yates shuffle, then sorts them.
    pub(crate) fn sample_exactly(edges: &mut Vec<Edge>, m: usize, seed: u64) {
        if edges.len() <= m {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let len = edges.len();
        for i in 0..m {
            let j = rng.random_range(i..len);
            edges.swap(i, j);
        }
        edges.truncate(m);
        edges.sort_unstable();
    }

    /// The round loop every edge-drawing generator ran, over `draw`.
    pub(crate) fn draw_exactly(
        n: usize,
        m: usize,
        seed: u64,
        mut draw: impl FnMut() -> Edge,
    ) -> CsrGraph {
        let mut pool = Vec::new();
        while pool.len() < m {
            let deficit = m - pool.len();
            let mut batch: Vec<Edge> = (0..deficit + deficit / 7 + 8).map(|_| draw()).collect();
            normalize(&mut batch);
            merge_sorted(&mut pool, batch);
        }
        sample_exactly(&mut pool, m, seed);
        CsrGraph::from_edges_oracle(n, &pool)
    }
}

#[cfg(test)]
mod tests {
    use super::edgeset::tests::set_of;
    use super::oracle::{normalize, sample_exactly};
    use crate::{CsrGraph, Edge};

    #[test]
    fn normalize_drops_loops_and_duplicates() {
        let mut e = vec![(1, 1), (0, 1), (0, 1), (2, 0)];
        normalize(&mut e);
        assert_eq!(e, vec![(0, 1), (2, 0)]);
        let set = set_of(&[(1, 1), (0, 1), (0, 1), (2, 0)]);
        assert_eq!(set.into_csr(3, 2, 0), CsrGraph::from_edges(3, &e));
    }

    /// The kernel's subsample of `pool`, as a graph.
    fn kept(pool: &[Edge], m: usize, seed: u64) -> CsrGraph {
        set_of(pool).into_csr(101, m, seed)
    }

    #[test]
    fn sample_exactly_is_deterministic_and_sized() {
        let pool: Vec<Edge> = (0..100u32).map(|i| (i, i + 1)).collect();
        let mut a = pool.clone();
        let mut b = pool.clone();
        sample_exactly(&mut a, 10, 7);
        sample_exactly(&mut b, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let mut c = pool.clone();
        sample_exactly(&mut c, 10, 8);
        assert_ne!(a, c, "different seeds should pick different subsets");
        assert_eq!(kept(&pool, 10, 7), CsrGraph::from_edges(101, &a));
        assert_eq!(kept(&pool, 10, 8), CsrGraph::from_edges(101, &c));
    }

    #[test]
    fn sample_exactly_noop_when_pool_small() {
        let mut e = vec![(0, 1), (1, 2)];
        sample_exactly(&mut e, 10, 1);
        assert_eq!(e.len(), 2);
        assert_eq!(kept(&e, 10, 1).num_edges(), 2);
    }
}

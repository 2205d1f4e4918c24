//! The edge-set kernel under every generator that draws edges.
//!
//! An edge `(u, v)` is the key `u << 32 | v`, so keys sort as edges do,
//! and each key is sorted once. A round's draws are sorted and
//! deduplicated (a self-loop is dropped as it is drawn). A later round
//! keeps the keys the set lacks, found by a galloping scan, and the rounds
//! are merged once, at the end. The exact subsample replays its shuffle on
//! positions, not on edges; one pass over the merged keys skips the
//! dropped positions and writes the out-lists, and the in-lists take one
//! counting pass. Nothing here draws randomness but the subsample, so
//! every graph is the one `super::oracle`'s sort-every-round code makes.

use crate::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One round's draws, as keys.
pub(crate) struct Draws(pub(crate) Vec<u64>);

impl Draws {
    /// Records the edge `(u, v)`, unless it is a self-loop.
    #[inline]
    pub(crate) fn push(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.0.push((u as u64) << 32 | v as u64);
        }
    }
}

/// A set of distinct loop-free edges, one sorted run of keys per round,
/// each holding only keys no earlier round holds.
#[derive(Default)]
pub(crate) struct EdgeSet {
    rounds: Vec<Vec<u64>>,
}

impl EdgeSet {
    /// Number of distinct edges.
    pub(crate) fn len(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Adds a round's draws.
    pub(crate) fn add(&mut self, draws: Draws) {
        let mut batch = draws.0;
        batch.sort_unstable();
        batch.dedup();
        for held in &self.rounds {
            retain_absent(&mut batch, held);
        }
        self.rounds.push(batch);
    }

    /// The graph on `n` vertices (every endpoint must be below `n`) of
    /// exactly `m` of the edges, chosen by `seed`, or of all of them if
    /// there are no more than `m`.
    pub(crate) fn into_csr(self, n: usize, m: usize, seed: u64) -> CsrGraph {
        // Each round merges into the (larger) one before it.
        let mut keys = Vec::new();
        for mut round in self.rounds.into_iter().rev() {
            merge_disjoint(&mut round, &keys);
            keys = round;
        }
        let dropped = dropped(keys.len(), m, seed);
        let mut offsets = vec![0u64; n + 1];
        let mut targets = Vec::with_capacity(keys.len().min(m));
        for (p, &key) in keys.iter().enumerate() {
            if !dropped.get(p / 64).is_some_and(|w| w >> (p % 64) & 1 == 1) {
                offsets[(key >> 32) as usize + 1] += 1;
                targets.push(key as VertexId);
            }
        }
        drop((keys, dropped));
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        CsrGraph::from_sorted_csr(offsets, targets)
    }
}

/// Draws rounds until `m` distinct loop-free edges are pooled and builds
/// the graph on `n` vertices of exactly `m` of them, chosen by `seed`. A
/// round makes the deficit plus a seventh plus 8 draws, by `fill(count,
/// draws)`; `what` names the generator if 63 rounds fall short.
pub(crate) fn draw_exactly(
    n: usize,
    m: usize,
    seed: u64,
    what: &str,
    mut fill: impl FnMut(usize, &mut Draws),
) -> CsrGraph {
    let mut set = EdgeSet::default();
    let mut rounds = 0;
    while set.len() < m {
        let deficit = m - set.len();
        let count = deficit + deficit / 7 + 8;
        let mut draws = Draws(Vec::with_capacity(count));
        fill(count, &mut draws);
        set.add(draws);
        rounds += 1;
        assert!(
            rounds < 64,
            "{what} failed to reach {m} unique edges (got {})",
            set.len()
        );
    }
    set.into_csr(n, m, seed)
}

/// Panics unless `m` distinct loop-free edges fit on `n` vertices.
pub(crate) fn assert_capacity(n: usize, m: usize) {
    assert!(n > 0 || m == 0, "cannot place edges in an empty graph");
    assert!(
        (m as u128) <= (n as u128) * (n as u128).saturating_sub(1),
        "edge count {m} exceeds simple-graph capacity"
    );
}

/// The positions of a sorted set of `len` a seeded partial Fisher-Yates
/// shuffle drops when it keeps `m` (so truncation does not bias toward
/// low vertex ids), as a bitmap; empty when `len <= m`. Only the positions
/// left past `m` are wanted, so the swaps are replayed backwards from
/// them: before the swap of `i` and `j`, `j` held what `i` holds after it.
fn dropped(len: usize, m: usize, seed: u64) -> Vec<u64> {
    if len <= m {
        return Vec::new();
    }
    assert!(len <= 1 << 32, "{len} positions overflow a u32");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let swaps: Vec<u32> = (0..m).map(|i| rng.random_range(i..len) as u32).collect();
    let mut bits = vec![0u64; len.div_ceil(64)];
    let flip = |bits: &mut [u64], p: usize| bits[p / 64] ^= 1 << (p % 64);
    (m..len).for_each(|p| flip(&mut bits, p));
    for (i, &j) in swaps.iter().enumerate().rev() {
        if bits[j as usize / 64] >> (j % 64) & 1 == 1 {
            flip(&mut bits, j as usize);
            flip(&mut bits, i);
        }
    }
    bits
}

/// Drops from the sorted `batch` every key in the sorted `set`, galloping
/// right from where the last search ended: a binary search per key when
/// the batch is sparse, one linear scan when it is dense.
fn retain_absent(batch: &mut Vec<u64>, set: &[u64]) {
    let mut at = 0;
    batch.retain(|&key| {
        let (mut end, mut step) = (at, 1);
        while end < set.len() && set[end] < key {
            at = end + 1;
            end = at + step;
            step *= 2;
        }
        at += set[at..end.min(set.len())].partition_point(|&x| x < key);
        set.get(at) != Some(&key)
    });
}

/// Merges the sorted `from` into the sorted `into`, the two disjoint,
/// moving keys from the back down to where the first of `from` lands.
fn merge_disjoint(into: &mut Vec<u64>, from: &[u64]) {
    let (mut i, mut j) = (into.len(), from.len());
    into.resize(i + j, 0);
    let mut k = i + j;
    while j > 0 {
        k -= 1;
        if i > 0 && into[i - 1] > from[j - 1] {
            i -= 1;
            into[k] = into[i];
        } else {
            j -= 1;
            into[k] = from[j];
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::oracle;
    use super::*;
    use crate::Edge;
    use proptest::prelude::*;

    /// `batch`, drawn as one round.
    pub(crate) fn draws_of(batch: &[Edge]) -> Draws {
        let mut draws = Draws(Vec::with_capacity(batch.len()));
        batch.iter().for_each(|&(u, v)| draws.push(u, v));
        draws
    }

    /// The set of `batch`, drawn as one round.
    pub(crate) fn set_of(batch: &[Edge]) -> EdgeSet {
        let mut set = EdgeSet::default();
        set.add(draws_of(batch));
        set
    }

    /// `count` seeded draws over `0..n`, loops and duplicates included.
    fn random_batch(n: u32, count: usize, seed: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect()
    }

    /// All of `set`, as a graph on `n` vertices.
    fn all(set: EdgeSet, n: u32) -> CsrGraph {
        set.into_csr(n as usize, usize::MAX, 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_round_is_normalize(n in 1u32..40, count in 0usize..400, seed in 0u64..1_000) {
            let batch = random_batch(n, count, seed);
            let mut want = batch.clone();
            oracle::normalize(&mut want);
            prop_assert_eq!(all(set_of(&batch), n), CsrGraph::from_edges(n as usize, &want));
        }

        #[test]
        fn rounds_are_normalize_then_merge_sorted(
            n in 1u32..60,
            rounds in 1usize..8,
            count in 0usize..600,
            seed in 0u64..1_000,
        ) {
            let (mut set, mut want) = (EdgeSet::default(), Vec::new());
            for round in 0..rounds {
                // Rounds shrink, as a generator's do, and may overlap.
                let mut batch = random_batch(n, count >> round, seed * 8 + round as u64);
                set.add(draws_of(&batch));
                oracle::normalize(&mut batch);
                oracle::merge_sorted(&mut want, batch);
                prop_assert_eq!(set.len(), want.len(), "round {}", round);
            }
            prop_assert_eq!(all(set, n), CsrGraph::from_edges(n as usize, &want));
        }

        #[test]
        fn the_subsample_is_sample_exactly(
            len in 0usize..12_000,
            gap in 0usize..=10_000,
            over in 0usize..3,
            seed in 0u64..1_000,
        ) {
            // A set of `len` loop-free edges spread over sources and targets.
            let pool: Vec<Edge> = (0..len as u32).map(|i| (i / 7, 10_000 + i * 13 % 9_973)).collect();
            let mut want = pool.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(want.len(), len);
            // m below, at and above the set's size.
            let m = [len.saturating_sub(gap), len, len + gap][over];
            let got = set_of(&want).into_csr(20_000, m, seed);
            oracle::sample_exactly(&mut want, m, seed);
            prop_assert_eq!(got, CsrGraph::from_edges_oracle(20_000, &want));
        }

        #[test]
        fn draw_exactly_is_the_sort_every_round_loop(
            n in 1usize..40,
            fill in 0usize..=60,
            seed in 0u64..1_000,
        ) {
            // Up to 60 % of the capacity: dense requests take many rounds.
            let m = n * (n - 1) * fill / 100;
            let draw = |rng: &mut StdRng| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = draw_exactly(n, m, seed, "test", |count, draws| {
                for _ in 0..count {
                    let (u, v) = draw(&mut rng);
                    draws.push(u, v);
                }
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let want = oracle::draw_exactly(n, m, seed, || draw(&mut rng));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn no_edges_and_one_vertex() {
        let nothing = |_: usize, _: &mut Draws| unreachable!("no round is drawn for m = 0");
        for n in [0, 1, 5] {
            assert_eq!(
                draw_exactly(n, 0, 3, "test", nothing),
                CsrGraph::from_edges(n, &[])
            );
        }
        // On one vertex every draw is a self-loop.
        let set = set_of(&[(0, 0), (0, 0)]);
        assert_eq!(set.len(), 0);
        assert_eq!(all(set, 1), CsrGraph::from_edges(1, &[]));
        assert_eq!(
            set_of(&[(0, 1), (1, 0)]).into_csr(2, 0, 9),
            CsrGraph::from_edges(2, &[])
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn one_vertex_holds_no_edge() {
        assert_capacity(1, 1);
    }
}

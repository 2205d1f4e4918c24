//! Chung-Lu power-law random graphs.
//!
//! Vertices carry weights `w_i = (i + i0)^(-s)`; endpoints of each edge are
//! drawn independently proportional to the weights via an alias table, so
//! the expected degree of vertex `i` is proportional to `w_i` — a power law
//! with exponent `beta = 1 + 1/s` and hubs concentrated at the low end of
//! the ID space. That hub locality is what makes Chunk-V/Chunk-E imbalanced
//! in the paper (real crawls order hubs early too), so we preserve it by
//! default instead of shuffling ids.
//!
//! The offset `i0` is binary-searched so the largest expected degree lands
//! near `max_degree`, which keeps collision (multi-edge) rates low enough
//! that the deduplicated edge count converges to the target quickly.

use super::edgeset::{assert_capacity, draw_exactly};
use crate::alias::AliasTable;
use crate::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`chung_lu`].
#[derive(Clone, Debug)]
pub struct ChungLuConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges (after dedup, exact).
    pub edges: usize,
    /// Weight decay exponent `s`; degree power-law exponent is `1 + 1/s`.
    pub exponent_s: f64,
    /// Target expected degree of the largest hub.
    pub max_degree: f64,
    /// Probability that an edge's target is drawn *locally* (near the
    /// source id) instead of globally proportional to the weights.
    ///
    /// Real crawl orders place community members at nearby ids, which is
    /// what gives contiguous chunking its locality advantage over hashing
    /// and gives Fennel's neighbor-affinity term something to discover;
    /// pure Chung-Lu sampling has neither. `0.0` disables locality.
    pub locality: f64,
    /// Mean id-distance of local targets (exponential offset distribution,
    /// wrapped modulo `n`). Ignored when `locality == 0`.
    pub locality_window: usize,
    /// Probability that an edge's target is drawn uniformly from the
    /// source's *community* — a seeded random vertex group scattered across
    /// the id space.
    ///
    /// This is the structure edge-cut minimizers exploit on real graphs:
    /// Fennel's affinity term discovers scattered communities, while
    /// contiguous chunking cannot, reproducing the paper's Fennel ≪
    /// Chunk-V ≪ Hash cut ordering. `locality + community <= 1` required.
    pub community: f64,
    /// Number of communities (membership is a seeded hash of the vertex
    /// id, so communities are id-scattered). Ignored when
    /// `community == 0`.
    pub community_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ChungLuConfig {
    /// A reasonable default: mild skew, hubs capped at 5% of `n`.
    pub fn new(vertices: usize, edges: usize, seed: u64) -> Self {
        ChungLuConfig {
            vertices,
            edges,
            exponent_s: 0.75,
            max_degree: (vertices as f64 * 0.05).max(8.0),
            locality: 0.0,
            locality_window: (vertices / 200).max(4),
            community: 0.0,
            community_count: (vertices / 64).max(1),
            seed,
        }
    }
}

/// Generates a directed Chung-Lu power-law graph. Self-loops and duplicate
/// edges are removed; the result has exactly `config.edges` edges.
///
/// # Panics
///
/// Panics if the requested edge count exceeds `n * (n - 1)` (the simple
/// directed graph capacity) or if `vertices == 0` with `edges > 0`.
pub fn chung_lu(config: &ChungLuConfig) -> CsrGraph {
    let n = config.vertices;
    let m = config.edges;
    assert_capacity(n, m);
    if m == 0 {
        return CsrGraph::from_edges(n, &[]);
    }

    assert!(
        config.locality >= 0.0
            && config.community >= 0.0
            && config.locality + config.community <= 1.0,
        "locality + community must form a sub-probability"
    );
    let weights = build_weights(n, m, config.exponent_s, config.max_degree);
    let table = AliasTable::new(&weights);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let window = config.locality_window.max(1) as f64;

    // Scattered community membership: a seeded hash of the id, so members
    // of one community are spread across the whole id range.
    let communities: Vec<Vec<VertexId>> = if config.community > 0.0 {
        let count = config.community_count.max(1);
        let mut groups: Vec<Vec<VertexId>> = vec![Vec::new(); count];
        for v in 0..n as VertexId {
            groups[community_of(v, config.seed, count)].push(v);
        }
        groups
    } else {
        Vec::new()
    };

    // Sample in rounds: collisions and self-loops shrink each batch, so
    // each round oversamples the deficit by 15% until the deduplicated set
    // is full.
    draw_exactly(n, m, config.seed, "chung-lu", |count, draws| {
        for _ in 0..count {
            let u = table.sample(&mut rng) as VertexId;
            let r: f64 = rng.random();
            let v = if r < config.community {
                // Community target: uniform member of u's community.
                let members = &communities[community_of(u, config.seed, communities.len())];
                members[rng.random_range(0..members.len())]
            } else if r < config.community + config.locality {
                // Local target: signed exponential id offset, wrapped mod n.
                let r: f64 = rng.random();
                let off = (-window * (1.0 - r).ln()).floor() as i64 + 1;
                let off = if rng.random_bool(0.5) { off } else { -off };
                (u as i64 + off).rem_euclid(n as i64) as VertexId
            } else {
                table.sample(&mut rng) as VertexId
            };
            draws.push(u, v);
        }
    })
}

/// Seeded hash assigning vertex `v` to one of `count` communities.
#[inline]
fn community_of(v: VertexId, seed: u64, count: usize) -> usize {
    let mut x = v as u64 ^ seed.wrapping_mul(0x517c_c1b7_2722_0a95);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % count as u64) as usize
}

/// Builds the weight vector `w_i = (i + i0)^(-s)` with `i0` chosen so the
/// expected degree of vertex 0, `m * w_0 / sum(w)`, is close to `max_degree`.
fn build_weights(n: usize, m: usize, s: f64, max_degree: f64) -> Vec<f64> {
    assert!(s > 0.0, "exponent must be positive");
    let target = max_degree.clamp(1.0, n as f64);
    let expected_max = |i0: f64| -> f64 {
        let w0 = i0.powf(-s);
        let total: f64 = (0..n).map(|i| (i as f64 + i0).powf(-s)).sum();
        m as f64 * w0 / total
    };
    // Expected max degree decreases monotonically in i0; bracket then bisect.
    let (mut lo, mut hi) = (1e-3_f64, 1.0_f64);
    while expected_max(hi) > target && hi < n as f64 * 4.0 {
        hi *= 2.0;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            // Out of precision: no later step moves `0.5 * (lo + hi)` off it.
            break;
        }
        if expected_max(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i0 = 0.5 * (lo + hi);
    (0..n).map(|i| (i as f64 + i0).powf(-s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChungLuConfig {
        ChungLuConfig {
            exponent_s: 1.0,
            max_degree: 150.0,
            ..ChungLuConfig::new(2_000, 16_000, 42)
        }
    }

    #[test]
    fn exact_edge_count_no_loops_no_dups() {
        let g = chung_lu(&small());
        assert_eq!(g.num_vertices(), 2_000);
        assert_eq!(g.num_edges(), 16_000);
        for u in g.vertices() {
            let nbrs = g.out_neighbors(u);
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1], "duplicate edge from {u}");
            }
            assert!(!nbrs.contains(&u), "self loop at {u}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = chung_lu(&small());
        let b = chung_lu(&small());
        assert_eq!(a, b);
        let mut cfg = small();
        cfg.seed = 43;
        let c = chung_lu(&cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn hubs_live_at_low_ids() {
        let g = chung_lu(&small());
        let low: u64 = g.degree_sum(0..200u32);
        let high: u64 = g.degree_sum(1800..2000u32);
        assert!(
            low > high * 4,
            "low-id vertices should dominate degree mass: low={low}, high={high}"
        );
    }

    #[test]
    fn max_degree_is_roughly_controlled() {
        let g = chung_lu(&small());
        let max = g.max_out_degree() as f64;
        // collisions + randomness allow slack; it must be within a small
        // constant factor of the requested cap and far below n.
        assert!(max < 150.0 * 3.0, "max degree {max} too large");
        assert!(max > 150.0 / 4.0, "max degree {max} too small");
    }

    #[test]
    fn locality_concentrates_targets_near_sources() {
        let mut cfg = small();
        cfg.locality = 0.8;
        cfg.locality_window = 20;
        let g = chung_lu(&cfg);
        let n = g.num_vertices() as i64;
        let near = g
            .edges()
            .filter(|&(u, v)| {
                let d = (u as i64 - v as i64).rem_euclid(n);
                d.min(n - d) <= 100
            })
            .count() as f64
            / g.num_edges() as f64;
        assert!(near > 0.5, "local share {near} too small");
        // Without locality the same window catches only ~2x100/2000 = 10%
        // of targets plus the hub mass near id 0.
        let g0 = chung_lu(&small());
        let near0 = g0
            .edges()
            .filter(|&(u, v)| {
                let d = (u as i64 - v as i64).rem_euclid(n);
                d.min(n - d) <= 100
            })
            .count() as f64
            / g0.num_edges() as f64;
        assert!(
            near > near0 + 0.2,
            "locality should raise near share: {near} vs {near0}"
        );
    }

    #[test]
    fn merge_sorted_is_normalize_of_the_concatenation() {
        use super::super::edgeset::tests::{draws_of, set_of};
        use super::super::oracle::{merge_sorted, normalize};
        use crate::Edge;
        let cases: [(&[Edge], &[Edge]); 5] = [
            (&[], &[(0, 1), (2, 0)]),
            (&[(0, 1), (2, 0)], &[]),
            (&[(1, 2), (3, 4)], &[(0, 9), (1, 2), (2, 2), (5, 0)]),
            (&[(1, 2), (3, 4)], &[(1, 2), (3, 4)]),
            (&[(4, 0), (4, 1)], &[(0, 0), (1, 0)]),
        ];
        for (pool, batch) in cases {
            let mut want = [pool, batch].concat();
            want.sort_unstable();
            want.dedup();
            let mut got = pool.to_vec();
            merge_sorted(&mut got, batch.to_vec());
            assert_eq!(got, want, "{pool:?} + {batch:?}");
            // The kernel also drops the loops a real batch never holds.
            normalize(&mut want);
            let mut set = set_of(pool);
            set.add(draws_of(batch));
            assert_eq!(set.len(), want.len(), "{pool:?} + {batch:?}");
            assert_eq!(set.into_csr(10, 99, 0), CsrGraph::from_edges(10, &want));
        }
    }

    #[test]
    fn zero_edges_ok() {
        let g = chung_lu(&ChungLuConfig::new(10, 0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn default_config_runs() {
        let g = chung_lu(&ChungLuConfig::new(500, 2_000, 9));
        assert_eq!(g.num_edges(), 2_000);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_capacity_panics() {
        chung_lu(&ChungLuConfig::new(3, 10, 1));
    }

    /// Stopping once the midpoint repeats an endpoint lands on the offset
    /// all sixty bisection steps reach.
    #[test]
    fn weights_stop_bisecting_where_sixty_steps_end() {
        let sixty = |n: usize, m: usize, s: f64, max_degree: f64| {
            let target = max_degree.clamp(1.0, n as f64);
            let expected_max = |i0: f64| {
                let total: f64 = (0..n).map(|i| (i as f64 + i0).powf(-s)).sum();
                m as f64 * i0.powf(-s) / total
            };
            let (mut lo, mut hi) = (1e-3_f64, 1.0_f64);
            while expected_max(hi) > target && hi < n as f64 * 4.0 {
                hi *= 2.0;
            }
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                *(if expected_max(mid) > target {
                    &mut lo
                } else {
                    &mut hi
                }) = mid;
            }
            let i0 = 0.5 * (lo + hi);
            (0..n)
                .map(|i| (i as f64 + i0).powf(-s))
                .collect::<Vec<f64>>()
        };
        for (n, m, s, max_degree) in [
            (2_000, 71_440, 1.0, 140.0),
            (1_500, 44_985, 0.85, 52.5),
            (2_400, 131_688, 0.7, 48.0),
            (500, 2_000, 0.75, 25.0),
            (16, 100, 2.0, 1e9),
            (3, 2, 0.5, 0.1),
        ] {
            let (got, want) = (
                build_weights(n, m, s, max_degree),
                sixty(n, m, s, max_degree),
            );
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{n} {m} {s} {max_degree}");
        }
    }
}

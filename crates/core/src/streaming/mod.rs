//! Shared streaming-assignment engine behind Fennel and BPart's phase 1.
//!
//! Both schemes stream vertices and assign each to the part maximizing
//!
//! ```text
//! S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^(γ−1)
//! ```
//!
//! They differ only in the *balance weight* `W_i`: Fennel uses the vertex
//! count `|V_i|`, BPart the two-dimensional indicator
//! `c·|V_i| + (1−c)·|E_i|/d̄`. The engine abstracts that as a per-vertex
//! weight increment, so both weights sum to the number of streamed vertices
//! and share the same α calibration and capacity bound. Every pass starts
//! empty and streams each vertex of its order once; γ is 1.5 and the
//! budgets are [`FENNEL_LOAD`] and [`BPART_LOAD`] for every caller.
//!
//! Exactness note: for parts with no neighbors of `v` the score reduces to
//! the pure penalty, which (for `γ ≥ 1`, `α ≥ 0`) is maximized by the
//! minimum-weight part. The scorer exploits this with flat per-partition
//! state ([`kernel::FlatParts`]): weights, cached penalties, and neighbor
//! counts live in contiguous arrays sized to `k`, and each vertex is placed
//! by one branch-predictable argmax over `count − penalty` in which the
//! lightest part stays a legal target even at capacity. Because the penalty
//! is cached per part and refreshed only when a weight changes, the scoring
//! loop contains no `powf`; because at most one weight changes per placed
//! vertex, the lightest part is tracked across updates and rescanned only
//! when it was the part that grew. The pre-flat scalar implementation — a
//! lazy min-heap nominating the lightest part, `powf` per candidate — is
//! retained in [`oracle`] and differential proptests hold the two
//! bit-identical.
//!
//! ## One kernel, thin drivers
//!
//! [`kernel::Pass`] holds the state of a pass and its `place(v, out_deg,
//! delta, neighbours)` is the only tally → choose → commit → reset in the
//! crate. The resident pass below walks a [`CsrGraph`] in stream order,
//! [`pipeline::stream_assign_ooc`] walks mapped shards, and [`buffered`]
//! commits its workers' proposals through the same `Pass`.
//!
//! ## Execution modes
//!
//! With [`ParallelConfig::threads`] `== 1` the engine runs the exact
//! sequential pass (bit-for-bit identical to the historical behaviour, which
//! keeps the golden determinism tests valid); Fennel always does. With
//! `threads > 1`, which only [`BPartConfig::parallel`](crate::BPartConfig)
//! sets, it switches
//! to the *buffered* mode of [`buffered`]: the vertex order is cut into
//! buffers, each buffer is scored by a pool of scoped threads against a
//! snapshot of the part weights, and assignments commit at a per-buffer
//! barrier that reconciles the workers' weight deltas (and repairs any
//! capacity overshoot the stale snapshots allowed).

mod buffered;
mod kernel;
pub mod pipeline;

use crate::partition::PartId;
use bpart_graph::{CsrGraph, VertexId};
use kernel::{FlatScorer, Pass};
use std::fmt;
use std::time::Instant;

/// Sentinel for "not yet assigned" in dense assignment vectors.
pub(crate) const UNASSIGNED: PartId = PartId::MAX;

/// Fennel's penalty exponent γ, shared by every streaming scorer.
pub(crate) const GAMMA: f64 = 1.5;

/// Fennel's per-part budget, a multiple of `n/k` vertices.
pub(crate) const FENNEL_LOAD: f64 = 1.1;

/// BPart phase 1's per-piece budget, a multiple of the layer's mean
/// indicator weight.
pub(crate) const BPART_LOAD: f64 = 1.15;

/// Default vertices per synchronization window in buffered-parallel mode.
const DEFAULT_BUFFER_SIZE: usize = 4096;

/// Degree of parallelism for a streaming pass.
///
/// `threads == 1` selects the exact sequential path; `threads > 1` the
/// buffered mode, which scores `buffer_size` vertices per synchronization
/// window across `threads` scoped worker threads. Results are deterministic
/// for a fixed `(threads, buffer_size)` pair, and `buffer_size == 1`
/// reproduces the sequential assignment exactly regardless of `threads`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads scoring each buffer (1 = exact sequential pass).
    pub threads: usize,
    /// Vertices scored between two weight synchronizations.
    pub buffer_size: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            buffer_size: DEFAULT_BUFFER_SIZE,
        }
    }
}

impl ParallelConfig {
    /// Buffered mode with `threads` workers and the default buffer size.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::default()
        }
    }
}

/// Typed errors of the streaming engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// α = `m·k^(γ−1)/n^γ` is undefined over an empty stream (`n == 0`);
    /// scoring with the `inf`/NaN it would produce poisons every score.
    EmptyStream,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::EmptyStream => {
                write!(
                    f,
                    "streamed subset is empty: Fennel α = m·k^(γ−1)/n^γ is undefined"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Parameters of one streaming pass.
pub(crate) struct StreamConfig<'a> {
    /// Number of parts to open.
    pub num_parts: usize,
    /// Fennel exponent γ.
    pub gamma: f64,
    /// Fennel coefficient α (see [`fennel_alpha`]).
    pub alpha: f64,
    /// Hard cap on a part's weight; parts at or above it receive no further
    /// vertices unless every part is capped.
    pub capacity: f64,
    /// Vertices in visit order (may be a subset of the graph), each once.
    pub order: &'a [VertexId],
    /// Worker-pool shape (sequential by default).
    pub parallel: ParallelConfig,
}

/// One synchronization window of a buffered-parallel pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BufferRecord {
    /// 0-based buffer index within the pass.
    pub buffer: usize,
    /// Vertices scored in this buffer.
    pub vertices: usize,
    /// Wall time of the whole buffer (scoring + commit barrier).
    pub secs: f64,
    /// Time spent in the commit barrier reconciling weight deltas — the
    /// synchronization stall the buffer size trades against quality.
    pub sync_secs: f64,
}

/// Aggregate throughput telemetry of one or more streaming passes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Vertices streamed.
    pub vertices: usize,
    /// Out-edges carried by the streamed vertices — the work the score
    /// loop actually touches, and the unit the hot-path throughput gate
    /// watches (edges/s).
    pub edges: u64,
    /// Synchronization windows executed (0 on a sequential pass).
    pub buffers: usize,
    /// Total wall time.
    pub secs: f64,
    /// Total time stalled in commit barriers.
    pub sync_secs: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl StreamStats {
    /// Streaming throughput in vertices per second.
    pub fn vertices_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.vertices as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Folds another pass (or layer) into this aggregate.
    pub fn merge(&mut self, other: &StreamStats) {
        self.vertices += other.vertices;
        self.edges += other.edges;
        self.buffers += other.buffers;
        self.secs += other.secs;
        self.sync_secs += other.sync_secs;
        self.threads = self.threads.max(other.threads);
    }
}

/// Outcome of a streaming pass.
pub(crate) struct StreamOutcome {
    /// Dense assignment over *all* graph vertices; vertices outside the
    /// streamed subset keep [`UNASSIGNED`].
    pub assignment: Vec<PartId>,
    /// Per-part vertex counts.
    pub vertex_counts: Vec<u64>,
    /// Per-part out-degree sums.
    pub edge_counts: Vec<u64>,
    /// Per-buffer telemetry (empty on the sequential path).
    pub buffers: Vec<BufferRecord>,
    /// Aggregate throughput of this pass.
    pub stats: StreamStats,
}

/// The classic Fennel α: `m · k^(γ−1) / n^γ`, expressed over the streamed
/// subset (`n` vertices carrying `m` out-edges) and `k` parts.
///
/// Fails with [`StreamError::EmptyStream`] when `n == 0` — the exponent
/// would otherwise divide by zero and return `inf` (or NaN for `m == 0`),
/// silently poisoning every subsequent score. Callers short-circuit the
/// empty stream instead.
pub(crate) fn fennel_alpha(n: usize, m: u64, k: usize, gamma: f64) -> Result<f64, StreamError> {
    if n == 0 {
        return Err(StreamError::EmptyStream);
    }
    Ok(m as f64 * (k as f64).powf(gamma - 1.0) / (n as f64).powf(gamma))
}

/// The empty [`Pass`] a streaming pass starts from. Shared by the
/// sequential and buffered paths.
fn begin_pass(graph: &CsrGraph, config: &StreamConfig<'_>) -> Pass {
    let scorer = FlatScorer::new(config.gamma, config.alpha, config.capacity);
    Pass::new(graph.num_vertices(), config.num_parts, scorer)
}

/// Finishes a pass into its outcome; [`stream_assign`] fills in the stats.
fn finish_pass(pass: Pass, buffers: Vec<BufferRecord>) -> StreamOutcome {
    StreamOutcome {
        assignment: pass.assignment,
        vertex_counts: pass.vertex_counts,
        edge_counts: pass.edge_counts,
        buffers,
        stats: StreamStats::default(),
    }
}

/// Runs one streaming pass. `weight_delta(v)` is how much assigning `v`
/// grows its part's balance weight (`1.0` for Fennel; `c + (1−c)·d(v)/d̄`
/// for BPart). Dispatches on [`StreamConfig::parallel`]: the exact
/// sequential pass for one thread, the buffered-parallel pass otherwise.
pub(crate) fn stream_assign(
    graph: &CsrGraph,
    config: &StreamConfig<'_>,
    weight_delta: impl Fn(VertexId) -> f64 + Sync,
) -> StreamOutcome {
    use bpart_obs::metrics::counter;
    // Pass count for the `/progress` view (BPart runs one pass per layer;
    // this is the coarse partition-stage progress signal).
    // Counters are looked up by name: five lookups per pass are noise.
    counter("stream.passes").inc();

    let mut span = bpart_obs::span("stream.pass");
    let start = Instant::now();
    let mut outcome = if config.parallel.threads <= 1 {
        stream_assign_sequential(graph, config, &weight_delta)
    } else {
        buffered::stream_assign_buffered(graph, config, &weight_delta)
    };
    outcome.stats.vertices = config.order.len();
    outcome.stats.edges = config
        .order
        .iter()
        .map(|&v| graph.out_degree(v) as u64)
        .sum();
    outcome.stats.threads = config.parallel.threads.max(1);
    outcome.stats.buffers = outcome.buffers.len();
    outcome.stats.secs = start.elapsed().as_secs_f64();
    outcome.stats.sync_secs = outcome.buffers.iter().map(|b| b.sync_secs).sum();
    span.attr("vertices", outcome.stats.vertices);
    span.attr("threads", outcome.stats.threads);
    span.attr("buffers", outcome.stats.buffers);
    counter("stream.vertices").add(outcome.stats.vertices as u64);
    counter("stream.edges").add(outcome.stats.edges);
    counter("stream.pass_ns").add((outcome.stats.secs * 1e9) as u64);
    counter("stream.sync_ns").add((outcome.stats.sync_secs * 1e9) as u64);
    outcome
}

/// The exact sequential pass (historical behaviour, golden-test stable):
/// the kernel driven over the resident graph in stream order.
fn stream_assign_sequential(
    graph: &CsrGraph,
    config: &StreamConfig<'_>,
    weight_delta: &(impl Fn(VertexId) -> f64 + Sync),
) -> StreamOutcome {
    let mut pass = begin_pass(graph, config);
    // A pass in ascending order has placed nothing but vertices below `v`
    // when it reaches `v`, and adjacency lists are sorted: only a list's
    // prefix below `v` can be in a part, the rest would be tallied into the
    // trash slot.
    let only_below = config.order.windows(2).all(|w| w[0] < w[1]);
    for &v in config.order {
        let out_deg = graph.out_degree(v) as u64;
        let delta = weight_delta(v);
        // Undirected neighborhood, out- then in-neighbors; `place` folds
        // the chain, so each direction is its own plain slice loop.
        let (mut out, mut inn) = (graph.out_neighbors(v), graph.in_neighbors(v));
        if only_below {
            out = &out[..out.partition_point(|&w| w < v)];
            inn = &inn[..inn.partition_point(|&w| w < v)];
        }
        pass.place(v, out_deg, delta, out.iter().chain(inn).copied());
    }
    finish_pass(pass, Vec::new())
}

/// The pre-flat scalar implementation, retained as the
/// differential-test oracle: a lazy min-heap nominates the lightest part
/// and only "neighbor parts + min part" are scored, with `powf` evaluated
/// per candidate. The flat path must reproduce its choices bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Lazy min-tracker over part weights (push on update, pop stale
    /// entries on query). Weights are non-negative, so their IEEE bit
    /// patterns order identically to their values.
    struct MinWeight {
        heap: BinaryHeap<Reverse<(u64, PartId)>>,
    }

    impl MinWeight {
        fn new(weights: &[f64]) -> Self {
            let heap = weights
                .iter()
                .enumerate()
                .map(|(p, &w)| Reverse((w.to_bits(), p as PartId)))
                .collect();
            MinWeight { heap }
        }

        fn push(&mut self, part: PartId, weight: f64) {
            self.heap.push(Reverse((weight.to_bits(), part)));
        }

        fn min_part(&mut self, weights: &[f64]) -> PartId {
            while let Some(&Reverse((bits, p))) = self.heap.peek() {
                if weights[p as usize].to_bits() == bits {
                    return p;
                }
                self.heap.pop();
            }
            unreachable!("heap always holds one live entry per part");
        }
    }

    struct Scorer {
        alpha: f64,
        gamma: f64,
        capacity: f64,
    }

    impl Scorer {
        fn consider(
            &self,
            p: PartId,
            nbr: u32,
            weights: &[f64],
            min_part: PartId,
            best: &mut Option<(f64, f64, PartId)>,
        ) {
            let w = weights[p as usize];
            if w >= self.capacity && p != min_part {
                return;
            }
            let score = nbr as f64 - self.alpha * self.gamma * w.powf(self.gamma - 1.0);
            let better = match *best {
                None => true,
                Some((bs, bw, bp)) => {
                    score > bs || (score == bs && (w < bw || (w == bw && p < bp)))
                }
            };
            if better {
                *best = Some((score, w, p));
            }
        }

        fn choose(
            &self,
            touched: &[PartId],
            seen: &[u32],
            weights: &[f64],
            min_part: PartId,
        ) -> PartId {
            let mut best: Option<(f64, f64, PartId)> = None; // (score, weight, part)
            for &p in touched {
                self.consider(p, seen[p as usize], weights, min_part, &mut best);
            }
            self.consider(
                min_part,
                seen[min_part as usize],
                weights,
                min_part,
                &mut best,
            );
            let (_, _, part) = best.expect("at least the min-weight part is considered");
            part
        }
    }

    /// The historical sequential pass, byte-for-byte the pre-flat logic.
    pub(crate) fn stream_sequential(
        graph: &CsrGraph,
        config: &StreamConfig<'_>,
        weight_delta: &(impl Fn(VertexId) -> f64 + Sync),
    ) -> StreamOutcome {
        let k = config.num_parts;
        assert!(k > 0, "need at least one part");

        let mut assignment = vec![UNASSIGNED; graph.num_vertices()];
        let mut vertex_counts = vec![0u64; k];
        let mut edge_counts = vec![0u64; k];
        let mut weights = vec![0f64; k];
        let mut min_tracker = MinWeight::new(&weights);
        let scorer = Scorer {
            alpha: config.alpha,
            gamma: config.gamma,
            capacity: config.capacity,
        };

        let mut seen = vec![0u32; k];
        let mut touched: Vec<PartId> = Vec::new();

        for &v in config.order {
            for &w in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                let p = assignment[w as usize];
                if p != UNASSIGNED {
                    if seen[p as usize] == 0 {
                        touched.push(p);
                    }
                    seen[p as usize] += 1;
                }
            }

            let min_part = min_tracker.min_part(&weights);
            let part = scorer.choose(&touched, &seen, &weights, min_part);
            assignment[v as usize] = part;
            vertex_counts[part as usize] += 1;
            edge_counts[part as usize] += graph.out_degree(v) as u64;
            weights[part as usize] += weight_delta(v);
            min_tracker.push(part, weights[part as usize]);

            for &p in &touched {
                seen[p as usize] = 0;
            }
            touched.clear();
        }

        StreamOutcome {
            assignment,
            vertex_counts,
            edge_counts,
            buffers: Vec::new(),
            stats: StreamStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_graph::generate;

    fn run_fennel_like(graph: &CsrGraph, k: usize) -> StreamOutcome {
        let order: Vec<VertexId> = graph.vertices().collect();
        let gamma = 1.5;
        let alpha = fennel_alpha(graph.num_vertices(), graph.num_edges() as u64, k, gamma)
            .expect("non-empty graph");
        let config = StreamConfig {
            num_parts: k,
            gamma,
            alpha,
            capacity: 1.1 * graph.num_vertices() as f64 / k as f64,
            order: &order,
            parallel: ParallelConfig::default(),
        };
        stream_assign(graph, &config, |_| 1.0)
    }

    #[test]
    fn covers_all_streamed_vertices() {
        let g = generate::erdos_renyi(200, 1_000, 3);
        let out = run_fennel_like(&g, 4);
        assert!(out.assignment.iter().all(|&p| p != UNASSIGNED));
        assert_eq!(out.vertex_counts.iter().sum::<u64>(), 200);
        assert_eq!(out.edge_counts.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn capacity_bounds_part_sizes() {
        let g = generate::erdos_renyi(400, 2_000, 5);
        let out = run_fennel_like(&g, 4);
        let cap = (1.1_f64 * 400.0 / 4.0).ceil() as u64 + 1;
        for &c in &out.vertex_counts {
            assert!(c <= cap, "part size {c} exceeds capacity {cap}");
        }
    }

    #[test]
    fn clique_stays_together() {
        // A 6-clique plus 18 isolated vertices, k=4: the clique should land
        // in one part because neighbor affinity dominates.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in 0..6u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(24, &edges);
        let out = run_fennel_like(&g, 4);
        let first = out.assignment[0];
        assert!(
            (1..6).all(|v| out.assignment[v] == first),
            "clique split: {:?}",
            &out.assignment[..6]
        );
    }

    #[test]
    fn subset_stream_leaves_rest_unassigned() {
        let g = generate::ring(10);
        let order = vec![2, 3, 4];
        let config = StreamConfig {
            num_parts: 2,
            gamma: 1.5,
            alpha: fennel_alpha(3, 3, 2, 1.5).unwrap(),
            capacity: 2.0,
            order: &order,
            parallel: ParallelConfig::default(),
        };
        let out = stream_assign(&g, &config, |_| 1.0);
        assert_eq!(out.assignment[0], UNASSIGNED);
        assert_ne!(out.assignment[3], UNASSIGNED);
        assert_eq!(out.vertex_counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn weighted_delta_equalizes_weighted_indicator() {
        // BPart-style delta on a skewed graph: parts end with unequal vertex
        // counts but near-equal indicator (vertex count + edges/d̄)/2.
        let g = generate::twitter_like().generate_scaled(0.01);
        let n = g.num_vertices();
        let m = g.num_edges() as u64;
        let d_bar = g.average_degree();
        let k = 8;
        let order: Vec<VertexId> = g.vertices().collect();
        let config = StreamConfig {
            num_parts: k,
            gamma: 1.5,
            alpha: fennel_alpha(n, m, k, 1.5).unwrap(),
            capacity: 1.15 * n as f64 / k as f64,
            order: &order,
            parallel: ParallelConfig::default(),
        };
        let out = stream_assign(&g, &config, |v| 0.5 + 0.5 * g.out_degree(v) as f64 / d_bar);
        let weights: Vec<f64> = (0..k)
            .map(|p| 0.5 * out.vertex_counts[p] as f64 + 0.5 * out.edge_counts[p] as f64 / d_bar)
            .collect();
        let max = weights.iter().cloned().fold(f64::MIN, f64::max);
        let mean = weights.iter().sum::<f64>() / k as f64;
        assert!(
            (max - mean) / mean < 0.2,
            "weighted indicator should be near-balanced: {weights:?}"
        );
    }

    #[test]
    fn empty_stream_alpha_is_a_typed_error() {
        assert_eq!(fennel_alpha(0, 0, 4, 1.5), Err(StreamError::EmptyStream));
        assert_eq!(fennel_alpha(0, 10, 4, 1.5), Err(StreamError::EmptyStream));
        let msg = StreamError::EmptyStream.to_string();
        assert!(msg.contains("empty"), "{msg}");
        // Non-empty streams stay finite.
        let a = fennel_alpha(10, 20, 4, 1.5).unwrap();
        assert!(a.is_finite() && a > 0.0);
    }

    #[test]
    fn sequential_stats_report_throughput_without_buffers() {
        let g = generate::erdos_renyi(200, 1_000, 3);
        let out = run_fennel_like(&g, 4);
        assert_eq!(out.stats.vertices, 200);
        assert_eq!(out.stats.edges, 1_000);
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.stats.buffers, 0);
        assert!(out.buffers.is_empty());
        assert!(out.stats.secs >= 0.0);
        assert_eq!(out.stats.sync_secs, 0.0);
    }

    mod differential {
        use super::super::*;
        use bpart_graph::generate;
        use proptest::prelude::*;

        /// Holds the kernel to the scalar oracle on a pass in natural order
        /// and on a subset stream that is not ascending (odd vertices,
        /// descending), which tallies whole adjacency lists.
        fn assert_kernel_matches_oracle(
            g: &CsrGraph,
            config: StreamConfig<'_>,
            delta: &(impl Fn(VertexId) -> f64 + Sync),
        ) {
            let same = |config: &StreamConfig<'_>| {
                let flat = stream_assign_sequential(g, config, delta);
                let scalar = oracle::stream_sequential(g, config, delta);
                assert_eq!(flat.assignment, scalar.assignment);
                assert_eq!(flat.vertex_counts, scalar.vertex_counts);
                assert_eq!(flat.edge_counts, scalar.edge_counts);
            };
            same(&config);
            let n = g.num_vertices() as VertexId;
            let odd_descending: Vec<VertexId> = (0..n).rev().filter(|v| v % 2 == 1).collect();
            same(&StreamConfig {
                order: &odd_descending,
                ..config
            });
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The kernel is bit-identical to the scalar oracle across
            /// random graphs, part counts, and α/γ settings.
            #[test]
            fn flat_scorer_matches_scalar_oracle(
                seed in 0u64..10_000,
                k in 1usize..12,
                gamma in 1.0f64..2.5,
                alpha_scale in 0.1f64..8.0,
                load in 1.02f64..1.4,
            ) {
                let g = generate::erdos_renyi(120, 900, seed);
                let order: Vec<VertexId> = g.vertices().collect();
                let config = StreamConfig {
                    num_parts: k,
                    gamma,
                    alpha: fennel_alpha(120, 900, k, gamma).unwrap() * alpha_scale,
                    capacity: load * 120.0 / k as f64,
                    order: &order,
                    parallel: ParallelConfig::default(),
                };
                assert_kernel_matches_oracle(&g, config, &|_| 1.0);
            }

            /// Same differential contract under BPart's two-dimensional
            /// weight delta (fractional, degree-dependent weights).
            #[test]
            fn flat_scorer_matches_oracle_with_weighted_delta(
                seed in 0u64..10_000,
                k in 2usize..10,
                gamma in 1.0f64..2.0,
                c in 0.1f64..0.9,
            ) {
                let g = generate::erdos_renyi(150, 1_200, seed);
                let d_bar = g.average_degree();
                let order: Vec<VertexId> = g.vertices().collect();
                let config = StreamConfig {
                    num_parts: k,
                    gamma,
                    alpha: fennel_alpha(150, 1_200, k, gamma).unwrap(),
                    capacity: 1.1 * 150.0 / k as f64,
                    order: &order,
                    parallel: ParallelConfig::default(),
                };
                let delta = |v: VertexId| c + (1.0 - c) * g.out_degree(v) as f64 / d_bar;
                assert_kernel_matches_oracle(&g, config, &delta);
            }
        }
    }

    #[test]
    fn stream_stats_merge_accumulates() {
        let mut a = StreamStats {
            vertices: 100,
            edges: 600,
            buffers: 2,
            secs: 1.0,
            sync_secs: 0.25,
            threads: 2,
        };
        let b = StreamStats {
            vertices: 50,
            edges: 300,
            buffers: 1,
            secs: 0.5,
            sync_secs: 0.25,
            threads: 4,
        };
        a.merge(&b);
        assert_eq!(a.vertices, 150);
        assert_eq!(a.edges, 900);
        assert_eq!(a.buffers, 3);
        assert_eq!(a.threads, 4);
        assert!((a.vertices_per_sec() - 100.0).abs() < 1e-9);
    }
}

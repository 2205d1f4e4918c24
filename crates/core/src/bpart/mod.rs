//! **BPart** — the paper's two-phase, two-dimensional balanced partitioner
//! (§3).
//!
//! Phase 1 (*partitioning*, §3.2): stream the vertices Fennel-style into
//! *more* pieces than requested, scoring against the weighted balance
//! indicator `W_i = c·|V_i| + (1−c)·|E_i|/d̄` (Eq. 1). Driving all `W_i`
//! equal makes the per-piece vertex and edge distributions inversely
//! proportional: a piece with few vertices holds many edges.
//!
//! Phase 2 (*combining*, §3.3): sort the pieces by vertex count and join
//! the fewest-vertices piece with the most-vertices piece, halving the
//! piece count per round. Combined subgraphs within ε of the target in both
//! dimensions are frozen; the remainder is streamed again, into an empty
//! pass, at the next layer with twice the over-split (Fig. 9) until every
//! part is balanced or the layer budget runs out.
//!
//! ```
//! use bpart_core::{BPart, Partitioner, metrics};
//! use bpart_graph::generate;
//!
//! let g = generate::twitter_like().generate_scaled(0.02);
//! let p = BPart::default().partition(&g, 8);
//! let q = metrics::quality(&g, &p);
//! assert!(q.vertex_bias < 0.15, "vertices balanced");
//! assert!(q.edge_bias < 0.15, "edges balanced too");
//! ```

mod combine;
mod weighted;

pub use combine::{combine_round, Group};
pub use weighted::WeightedStream;

use crate::partition::{PartId, Partition};
use crate::partitioner::Partitioner;
use crate::stream::StreamOrder;
use crate::streaming::{ParallelConfig, StreamStats, UNASSIGNED};
use bpart_graph::{CsrGraph, VertexId};

/// The four settings the paper's evaluation varies — `c`, ε, the layer
/// budget and the stream order, which the `ablation` figure sweeps — plus
/// phase 1's worker pool. Phase 1 always streams with Fennel's γ = 1.5, the
/// classic α per layer and a per-piece budget of 1.15 × the layer's mean
/// indicator.
#[derive(Clone, Copy, Debug)]
pub struct BPartConfig {
    /// Weight of the vertex dimension in the balance indicator (Eq. 1);
    /// `c = 0` balances edges only, `c = 1` vertices only. Paper default: ½.
    pub c: f64,
    /// Relative tolerance ε for freezing a combined subgraph: both its
    /// vertex and its edge count must lie within `±ε` of the target.
    pub epsilon: f64,
    /// Maximum combination layers; layer `L` over-splits the remainder
    /// `2^L`-fold. The final layer freezes unconditionally.
    pub max_layers: u32,
    /// Vertex visit order for the streaming phase.
    pub order: StreamOrder,
    /// Worker-pool shape for the streaming phase: sequential by default,
    /// buffered-parallel when `threads > 1` (see [`ParallelConfig`]).
    pub parallel: ParallelConfig,
}

impl Default for BPartConfig {
    fn default() -> Self {
        BPartConfig {
            c: 0.5,
            epsilon: 0.1,
            max_layers: 4,
            order: StreamOrder::Natural,
            parallel: ParallelConfig::default(),
        }
    }
}

/// The BPart two-phase partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct BPart {
    config: BPartConfig,
}

/// Per-layer trace of a BPart run, for ablation studies and debugging.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTrace {
    /// 1-based layer number.
    pub layer: u32,
    /// Number of pieces the remainder was streamed into.
    pub pieces: usize,
    /// Number of combined subgraphs frozen at this layer.
    pub frozen: usize,
    /// How many of those were frozen by the layer budget alone: groups of
    /// the last layer that missed a balance threshold (or would have left a
    /// remainder that cannot average out) and were frozen anyway. Zero
    /// means the ε-balance of this layer's parts holds by threshold.
    pub forced: usize,
    /// Vertices still unassigned after this layer.
    pub remaining_vertices: usize,
    /// Throughput telemetry of this layer's streaming pass: vertices/sec,
    /// buffer count, and synchronization stalls (zero for layers that froze
    /// without streaming).
    pub stream: StreamStats,
}

impl BPart {
    /// BPart with explicit tunables.
    pub fn new(config: BPartConfig) -> Self {
        BPart { config }
    }

    /// Like [`Partitioner::partition`] but also returns the per-layer trace.
    pub fn partition_with_trace(
        &self,
        graph: &CsrGraph,
        num_parts: usize,
    ) -> (Partition, Vec<LayerTrace>) {
        assert!(num_parts > 0, "need at least one part");
        let cfg = &self.config;
        assert!((0.0..=1.0).contains(&cfg.c), "c must lie in [0, 1]");
        assert!(cfg.max_layers >= 1, "need at least one layer");

        let n = graph.num_vertices();
        let target_v = n as f64 / num_parts as f64;
        let target_e = graph.num_edges() as f64 / num_parts as f64;

        let mut assignment = vec![UNASSIGNED; n];
        let mut next_part: PartId = 0;
        let mut parts_left = num_parts;
        let mut remaining: Vec<VertexId> = graph.vertices().collect();
        let mut trace = Vec::new();

        use std::sync::OnceLock;
        static ROUNDS: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        static MISSES: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        static FORCED: OnceLock<&'static bpart_obs::metrics::Counter> = OnceLock::new();
        let rounds_counter =
            ROUNDS.get_or_init(|| bpart_obs::metrics::counter("combine.repartition_rounds"));
        let misses_counter =
            MISSES.get_or_init(|| bpart_obs::metrics::counter("combine.threshold_misses"));
        let forced_counter =
            FORCED.get_or_init(|| bpart_obs::metrics::counter("combine.forced_freezes"));

        for layer in 1..=cfg.max_layers {
            if parts_left == 0 {
                break;
            }
            if parts_left == 1 {
                // A single remaining part holds everything left by
                // construction; no split can improve it. It is within both
                // thresholds because the freeze before it passed `rest_ok`.
                freeze(&mut assignment, &remaining, next_part);
                remaining.clear();
                trace.push(LayerTrace {
                    layer,
                    pieces: 1,
                    frozen: 1,
                    forced: 0,
                    remaining_vertices: 0,
                    stream: StreamStats::default(),
                });
                break;
            }

            let mut layer_span = bpart_obs::span("combine.layer");
            let rounds = layer as usize;
            let pieces = parts_left << rounds;
            let (mut groups, stream_stats) =
                weighted::split_into_pieces(graph, &remaining, pieces, cfg);
            for _ in 0..rounds {
                groups = combine_round(groups);
            }
            rounds_counter.add(rounds as u64);
            debug_assert_eq!(groups.len(), parts_left);

            // Freeze the best-balanced groups first, and only while the
            // remainder can still average out to the global targets —
            // otherwise the forced final part would absorb all residual
            // imbalance.
            let deviation = |g: &Group| -> f64 {
                let dv = (g.vertex_count as f64 - target_v).abs() / target_v.max(1.0);
                let de = (g.edge_count as f64 - target_e).abs() / target_e.max(1.0);
                dv.max(de)
            };
            groups.sort_by(|a, b| deviation(a).total_cmp(&deviation(b)));
            let mut rem_v: f64 = groups.iter().map(|g| g.vertex_count as f64).sum();
            let mut rem_e: f64 = groups.iter().map(|g| g.edge_count as f64).sum();

            let last = layer == cfg.max_layers;
            let mut frozen_here = 0usize;
            let mut forced_here = 0usize;
            let mut new_remaining: Vec<VertexId> = Vec::new();
            for group in groups {
                let within = |value: f64, target: f64, eps: f64| {
                    target == 0.0 || (value - target).abs() <= eps * target
                };
                let self_ok = group.balanced(target_v, cfg.epsilon)
                    && group.edge_balanced(target_e, cfg.epsilon);
                let rest_ok = parts_left == 1 || {
                    let p = (parts_left - 1) as f64;
                    within(
                        (rem_v - group.vertex_count as f64) / p,
                        target_v,
                        cfg.epsilon,
                    ) && within((rem_e - group.edge_count as f64) / p, target_e, cfg.epsilon)
                };
                let balanced = self_ok && rest_ok;
                if last || balanced {
                    forced_here += usize::from(!balanced);
                    rem_v -= group.vertex_count as f64;
                    rem_e -= group.edge_count as f64;
                    freeze(&mut assignment, &group.vertices, next_part);
                    next_part += 1;
                    parts_left -= 1;
                    frozen_here += 1;
                } else {
                    misses_counter.inc();
                    new_remaining.extend_from_slice(&group.vertices);
                }
            }
            remaining = new_remaining;
            forced_counter.add(forced_here as u64);
            layer_span.attr("layer", layer);
            layer_span.attr("pieces", pieces);
            layer_span.attr("frozen", frozen_here);
            layer_span.attr("remaining", remaining.len());
            trace.push(LayerTrace {
                layer,
                pieces,
                frozen: frozen_here,
                forced: forced_here,
                remaining_vertices: remaining.len(),
                stream: stream_stats,
            });
        }

        debug_assert!(remaining.is_empty(), "final layer must freeze everything");
        // Unused part ids (k > n corner) stay empty; map any sentinel to
        // part 0 defensively (cannot happen for non-empty layers).
        for a in &mut assignment {
            if *a == UNASSIGNED {
                *a = 0;
            }
        }
        (
            Partition::from_assignment(graph, num_parts, assignment),
            trace,
        )
    }
}

fn freeze(assignment: &mut [PartId], vertices: &[VertexId], part: PartId) {
    for &v in vertices {
        assignment[v as usize] = part;
    }
}

impl Partitioner for BPart {
    fn partition(&self, graph: &CsrGraph, num_parts: usize) -> Partition {
        self.partition_with_trace(graph, num_parts).0
    }

    fn partition_with_stats(&self, graph: &CsrGraph, num_parts: usize) -> (Partition, StreamStats) {
        let (partition, trace) = self.partition_with_trace(graph, num_parts);
        let mut stats = StreamStats::default();
        for layer in &trace {
            stats.merge(&layer.stream);
        }
        (partition, stats)
    }

    fn name(&self) -> &'static str {
        "BPart"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use bpart_graph::generate;

    #[test]
    fn two_dimensional_balance_on_power_law_graph() {
        let g = generate::twitter_like().generate_scaled(0.02);
        for k in [4, 8, 16] {
            let p = BPart::default().partition(&g, k);
            p.validate(&g).unwrap();
            let q = metrics::quality(&g, &p);
            assert!(q.vertex_bias < 0.15, "k={k} vertex bias {}", q.vertex_bias);
            assert!(q.edge_bias < 0.15, "k={k} edge bias {}", q.edge_bias);
        }
    }

    #[test]
    fn beats_hash_on_edge_cuts() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let bpart_cut = metrics::edge_cut_ratio(&g, &BPart::default().partition(&g, 8));
        let hash_cut = metrics::edge_cut_ratio(
            &g,
            &crate::hash::HashPartitioner::default().partition(&g, 8),
        );
        assert!(bpart_cut < hash_cut, "bpart {bpart_cut} vs hash {hash_cut}");
    }

    #[test]
    fn deterministic() {
        let g = generate::lj_like().generate_scaled(0.01);
        assert_eq!(
            BPart::default().partition(&g, 8),
            BPart::default().partition(&g, 8)
        );
    }

    #[test]
    fn trace_shows_multi_layer_progress() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let (p, trace) = BPart::default().partition_with_trace(&g, 8);
        p.validate(&g).unwrap();
        assert!(!trace.is_empty());
        assert_eq!(trace.last().unwrap().remaining_vertices, 0);
        let frozen: usize = trace.iter().map(|t| t.frozen).sum();
        assert_eq!(frozen, 8);
        // layer 1 must over-split 2x
        assert_eq!(trace[0].pieces, 16);
    }

    #[test]
    fn trace_carries_layer_stream_telemetry() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let cfg = BPartConfig {
            parallel: crate::streaming::ParallelConfig {
                threads: 2,
                buffer_size: 256,
            },
            ..Default::default()
        };
        let (p, trace) = BPart::new(cfg).partition_with_trace(&g, 8);
        p.validate(&g).unwrap();
        let streamed: usize = trace.iter().map(|t| t.stream.vertices).sum();
        assert!(
            streamed >= g.num_vertices(),
            "every vertex is streamed at least once, got {streamed}"
        );
        assert!(trace.iter().any(|t| t.stream.buffers > 0));
        assert!(trace
            .iter()
            .filter(|t| t.stream.vertices > 0)
            .all(|t| t.stream.threads == 2));
    }

    #[test]
    fn parallel_bpart_preserves_two_dimensional_balance() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let cfg = BPartConfig {
            parallel: crate::streaming::ParallelConfig {
                threads: 4,
                buffer_size: 512,
            },
            ..Default::default()
        };
        let (p, stats) = BPart::new(cfg).partition_with_stats(&g, 8);
        p.validate(&g).unwrap();
        let q = metrics::quality(&g, &p);
        assert!(q.vertex_bias < 0.15, "vertex bias {}", q.vertex_bias);
        assert!(q.edge_bias < 0.15, "edge bias {}", q.edge_bias);
        assert_eq!(stats.threads, 4);
        assert!(stats.vertices >= g.num_vertices());
    }

    #[test]
    fn c_extremes_degenerate_to_one_dimensional_balance() {
        let g = generate::twitter_like().generate_scaled(0.02);
        let vertex_only = BPart::new(BPartConfig {
            c: 1.0,
            max_layers: 1,
            ..Default::default()
        });
        let p = vertex_only.partition(&g, 8);
        assert!(metrics::bias(p.vertex_counts()) < 0.2);
        let edge_only = BPart::new(BPartConfig {
            c: 0.0,
            max_layers: 1,
            ..Default::default()
        });
        let p = edge_only.partition(&g, 8);
        assert!(metrics::bias(p.edge_counts()) < 0.35);
    }

    #[test]
    fn single_part() {
        let g = generate::ring(12);
        let p = BPart::default().partition(&g, 1);
        assert_eq!(p.vertex_counts(), &[12]);
    }

    #[test]
    fn k_larger_than_n_is_covered() {
        let g = generate::ring(5);
        let p = BPart::default().partition(&g, 9);
        p.validate(&g).unwrap();
    }

    #[test]
    fn works_on_all_presets_small_scale() {
        for preset in bpart_graph::generate::ALL_PRESETS {
            let g = preset().generate_scaled(0.01);
            let p = BPart::default().partition(&g, 8);
            p.validate(&g).unwrap();
            let q = metrics::quality(&g, &p);
            assert!(
                q.vertex_bias < 0.2 && q.edge_bias < 0.2,
                "{}: v={} e={}",
                preset().name,
                q.vertex_bias,
                q.edge_bias
            );
        }
    }

    #[test]
    #[should_panic(expected = "c must lie in")]
    fn invalid_c_panics() {
        let g = generate::ring(4);
        BPart::new(BPartConfig {
            c: 1.5,
            ..Default::default()
        })
        .partition(&g, 2);
    }
}

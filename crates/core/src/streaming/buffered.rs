//! Buffered-parallel streaming (after Chhabra et al.'s buffered streaming
//! partitioning and Awadelkarim & Ugander's restreaming, adapted to the
//! vertex-stream engine).
//!
//! The vertex order is cut into buffers of `buffer_size`. For each buffer:
//!
//! 1. **Snapshot** — the part weights `W_i` are frozen for the buffer.
//! 2. **Score** — the buffer is split into `threads` contiguous chunks, one
//!    scoped worker thread per chunk. Each worker streams its chunk
//!    *sequentially* against the snapshot plus a private overlay of its own
//!    proposals, so intra-chunk affinity and balance drift are captured; the
//!    other chunks' decisions stay invisible until the barrier.
//! 3. **Commit barrier** — proposals are applied in buffer order, summing
//!    the per-worker weight deltas back into the global `W_i`. Because the
//!    workers scored against stale weights, a part may overshoot its
//!    capacity once the deltas are reconciled; such proposals are repaired
//!    by rescoring the vertex against the *current* weights with the exact
//!    sequential rule, so the capacity invariant of the sequential pass
//!    (`W_i < capacity` unless the part is the global minimum) also holds
//!    in parallel mode.
//! 4. **Intra-buffer restream** — the first commit places early buffer
//!    vertices blind (their neighbors in other chunks were still unassigned
//!    at scoring time), which costs edge-cut quality. The same worker pool
//!    therefore re-streams the buffer once against the committed
//!    assignment: each vertex is taken out of its part and re-scored with
//!    the full buffer context visible, then recommitted. This recovers
//!    near-sequential quality at one extra (parallel) scoring round — the
//!    restream pass of the buffered-streaming literature.
//!
//! Determinism: chunk boundaries, worker scoring, and commit order depend
//! only on `(order, threads, buffer_size)`, never on thread scheduling.
//! With `buffer_size == 1` each buffer holds one vertex, the snapshot is
//! never stale, the restream re-derives the identical choice, and the
//! result is bit-identical to the sequential pass.
//!
//! The vendored `rayon` stand-in executes sequentially, so the worker pool
//! is built directly on [`std::thread::scope`].

use super::kernel::{FlatParts, Pass};
use super::{begin_pass, finish_pass, BufferRecord, StreamConfig, StreamOutcome, UNASSIGNED};
use crate::partition::PartId;
use bpart_graph::{CsrGraph, VertexId};
use std::time::Instant;

/// Intra-buffer restream rounds after the initial commit (see module docs).
const REFINE_PASSES: usize = 1;

/// Sentinel marking "no chunk-local decision yet" in the dense proposal
/// overlay of [`ChunkScratch`]. Distinct from [`UNASSIGNED`], which the
/// overlay stores for vertices a restream round has taken out of their part.
const NOT_OVERLAID: PartId = PartId::MAX - 1;

/// Runs one buffered-parallel streaming pass. See the module docs for the
/// buffer/snapshot/commit/restream protocol. The committed state is one
/// [`Pass`]; workers only read it and propose.
pub(super) fn stream_assign_buffered(
    graph: &CsrGraph,
    config: &StreamConfig<'_>,
    weight_delta: &(impl Fn(VertexId) -> f64 + Sync),
) -> StreamOutcome {
    let k = config.num_parts;
    let threads = config.parallel.threads.max(1);
    let buffer_size = config.parallel.buffer_size.max(1);
    assert!(
        (k as u64) < NOT_OVERLAID as u64,
        "part count {k} overflows the PartId sentinel space"
    );

    let mut pass = begin_pass(graph, config);
    let shape = |v: VertexId| (graph.out_degree(v) as u64, weight_delta(v));
    // One reusable scratch per worker slot, shared across all buffers and
    // restream rounds of the pass — snapshot scoring allocates nothing per
    // chunk beyond its proposal vector.
    let mut scratches: Vec<ChunkScratch> = (0..threads)
        .map(|_| ChunkScratch::new(graph.num_vertices(), &pass))
        .collect();
    let mut records = Vec::with_capacity(config.order.len() / buffer_size + 1);

    let score_ns = bpart_obs::metrics::counter("stream.score_ns");
    let commit_ns = bpart_obs::metrics::counter("stream.commit_ns");
    // Live buffer progress for the `/progress` monitoring endpoint.
    let progress_gauge = bpart_obs::metrics::gauge("stream.progress_buffers");

    for (buffer_idx, buffer) in config.order.chunks(buffer_size).enumerate() {
        progress_gauge.set((buffer_idx + 1) as f64);
        let mut buffer_span = bpart_obs::span("stream.buffer");
        let buffer_start = Instant::now();
        let mut sync_secs = 0.0;

        let chunk_len = buffer.len().div_ceil(threads);
        let chunks: Vec<&[VertexId]> = buffer.chunks(chunk_len).collect();

        // Initial round places the buffer; restream rounds re-score it with
        // the committed buffer context visible (restream = true).
        for round in 0..=REFINE_PASSES {
            let restream = round > 0;
            let proposals: Vec<Vec<PartId>> = std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .zip(scratches.iter_mut())
                    .map(|(&chunk, scratch)| {
                        let pass = &pass;
                        s.spawn(move || {
                            score_chunk(graph, chunk, pass, weight_delta, restream, scratch)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("streaming worker panicked"))
                    .collect()
            });

            // Commit barrier: apply the proposals in buffer order. A
            // proposal whose part filled past its capacity behind the stale
            // snapshot is rescored against the live weights by the kernel.
            let sync_start = Instant::now();
            for (chunk, proposal) in chunks.iter().zip(&proposals) {
                for (&v, &p) in chunk.iter().zip(proposal) {
                    let (out_deg, delta) = shape(v);
                    if restream {
                        pass.unplace(v, out_deg, delta);
                    }
                    if pass.accepts(p) {
                        pass.commit(v, p, out_deg, delta);
                    } else {
                        let neighbours = graph.out_neighbors(v).iter().chain(graph.in_neighbors(v));
                        pass.place(v, out_deg, delta, neighbours.copied());
                    }
                }
            }
            sync_secs += sync_start.elapsed().as_secs_f64();
        }

        let secs = buffer_start.elapsed().as_secs_f64();
        buffer_span.attr("buffer", buffer_idx);
        buffer_span.attr("vertices", buffer.len());
        // score = everything outside the commit barrier (snapshot + workers).
        score_ns.add(((secs - sync_secs).max(0.0) * 1e9) as u64);
        commit_ns.add((sync_secs * 1e9) as u64);
        records.push(BufferRecord {
            buffer: buffer_idx,
            vertices: buffer.len(),
            secs,
            sync_secs,
        });
    }

    finish_pass(pass, records)
}

/// Reusable per-worker scratch for [`score_chunk`]: the private weight
/// snapshot, a dense proposal overlay, and the neighbor-tally slots. One
/// scratch is allocated per worker slot per pass and reused across every
/// buffer and restream round, so snapshot scoring does no per-call
/// allocation.
struct ChunkScratch {
    /// Private copy of the frozen part weights and penalties.
    parts: FlatParts,
    /// Dense per-vertex overlay of the chunk's own decisions; entries are
    /// restored to [`NOT_OVERLAID`] after every chunk, so reuse costs
    /// O(chunk), not O(n).
    overlay: Vec<PartId>,
    /// `k` part slots plus a trailing trash slot absorbing unassigned
    /// neighbors (branchless tally, as in the kernel).
    nbr_counts: Vec<u32>,
}

impl ChunkScratch {
    fn new(n: usize, pass: &Pass) -> Self {
        let k = pass.vertex_counts.len();
        ChunkScratch {
            parts: FlatParts::new(vec![0.0; k], &pass.scorer),
            overlay: vec![NOT_OVERLAID; n],
            nbr_counts: vec![0u32; k + 1],
        }
    }
}

/// Streams one chunk sequentially against the weight snapshot plus a private
/// overlay of the chunk's own proposals. In restream mode each vertex is
/// first taken out of its committed part (locally) so it re-scores itself
/// with the rest of the buffer visible. Pure w.r.t. shared state: the only
/// output is the proposal vector, applied later at the commit barrier — so
/// this keeps its own two-level tally and never touches [`Pass::place`].
fn score_chunk(
    graph: &CsrGraph,
    chunk: &[VertexId],
    pass: &Pass,
    weight_delta: &(impl Fn(VertexId) -> f64 + Sync),
    restream: bool,
    scratch: &mut ChunkScratch,
) -> Vec<PartId> {
    let base_assignment = &pass.assignment;
    let scorer = &pass.scorer;
    scratch.parts.copy_from(&pass.parts);
    let ChunkScratch {
        parts,
        overlay,
        nbr_counts,
    } = scratch;
    let trash = nbr_counts.len() - 1;
    let mut proposals = Vec::with_capacity(chunk.len());

    for &v in chunk {
        if restream {
            // Take the vertex out of its committed part before re-scoring,
            // mirroring the sequential restream rule chunk-locally. Each
            // vertex is visited once per call, so it is not overlaid yet.
            let old = base_assignment[v as usize];
            debug_assert_ne!(old, UNASSIGNED, "restream round on unplaced vertex");
            debug_assert_eq!(overlay[v as usize], NOT_OVERLAID);
            overlay[v as usize] = UNASSIGNED;
            parts.remove(old, weight_delta(v), scorer);
        }
        // Branchless two-level tally: resolve overlay-vs-base with a
        // select (both loads are unconditional and in-bounds) and absorb
        // unassigned neighbors into the trash slot.
        for &w in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
            let local = overlay[w as usize];
            let base = base_assignment[w as usize];
            let p = if local == NOT_OVERLAID { base } else { local } as usize;
            nbr_counts[p.min(trash)] += 1;
        }
        let part = scorer.choose(&nbr_counts[..trash], parts);
        nbr_counts.fill(0);
        proposals.push(part);
        overlay[v as usize] = part;
        parts.add(part, weight_delta(v), scorer);
    }

    // Restore the overlay sentinel so the next chunk borrowing this
    // scratch starts clean.
    for &v in chunk {
        overlay[v as usize] = NOT_OVERLAID;
    }
    proposals
}

#[cfg(test)]
mod tests {
    use super::super::{fennel_alpha, stream_assign, ParallelConfig, StreamConfig};
    use super::*;
    use bpart_graph::generate;

    fn config<'a>(
        graph: &CsrGraph,
        k: usize,
        order: &'a [VertexId],
        parallel: ParallelConfig,
    ) -> StreamConfig<'a> {
        StreamConfig {
            num_parts: k,
            gamma: 1.5,
            alpha: fennel_alpha(graph.num_vertices(), graph.num_edges() as u64, k, 1.5)
                .expect("non-empty graph"),
            capacity: 1.1 * graph.num_vertices() as f64 / k as f64,
            order,
            parallel,
        }
    }

    #[test]
    fn parallel_covers_all_vertices_and_respects_capacity() {
        let g = generate::erdos_renyi(500, 3_000, 7);
        let order: Vec<VertexId> = g.vertices().collect();
        for threads in [2, 3, 4] {
            let cfg = config(
                &g,
                4,
                &order,
                ParallelConfig {
                    threads,
                    buffer_size: 64,
                },
            );
            let out = stream_assign(&g, &cfg, |_| 1.0);
            assert!(out.assignment.iter().all(|&p| p != UNASSIGNED));
            assert_eq!(out.vertex_counts.iter().sum::<u64>(), 500);
            assert_eq!(out.edge_counts.iter().sum::<u64>(), 3_000);
            let cap = (1.1_f64 * 500.0 / 4.0).ceil() as u64 + 1;
            for &c in &out.vertex_counts {
                assert!(c <= cap, "threads={threads}: part size {c} > {cap}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_shape() {
        let g = generate::lj_like().generate_scaled(0.005);
        let order: Vec<VertexId> = g.vertices().collect();
        let shape = ParallelConfig {
            threads: 4,
            buffer_size: 128,
        };
        let a = stream_assign(&g, &config(&g, 8, &order, shape), |_| 1.0);
        let b = stream_assign(&g, &config(&g, 8, &order, shape), |_| 1.0);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn records_one_buffer_per_window() {
        let g = generate::erdos_renyi(300, 1_500, 11);
        let order: Vec<VertexId> = g.vertices().collect();
        let out = stream_assign(
            &g,
            &config(
                &g,
                4,
                &order,
                ParallelConfig {
                    threads: 2,
                    buffer_size: 100,
                },
            ),
            |_| 1.0,
        );
        assert_eq!(out.buffers.len(), 3);
        assert_eq!(out.stats.buffers, 3);
        assert_eq!(out.buffers.iter().map(|b| b.vertices).sum::<usize>(), 300);
        assert!(out.buffers.iter().all(|b| b.sync_secs <= b.secs));
        assert_eq!(out.stats.threads, 2);
        assert!(out.stats.secs > 0.0);
    }

    #[test]
    fn quality_stays_near_sequential_on_power_law_graph() {
        // The quality envelope the perf gate enforces in CI, checked here at
        // unit scale: buffered scoring must not blow up the edge cut. The
        // buffer is sized to ~6% of the stream, the same buffer/graph ratio
        // the gate runs at (DEFAULT_BUFFER_SIZE against benchmark-scale
        // graphs); a buffer spanning half the graph has no committed context
        // to score against and is outside the supported envelope.
        let g = generate::twitter_like().generate_scaled(0.02);
        let order: Vec<VertexId> = g.vertices().collect();
        let cut = |assignment: &[PartId]| {
            let cut_edges: usize = g
                .vertices()
                .map(|v| {
                    g.out_neighbors(v)
                        .iter()
                        .filter(|&&w| assignment[w as usize] != assignment[v as usize])
                        .count()
                })
                .sum();
            cut_edges as f64 / g.num_edges() as f64
        };
        let seq = stream_assign(
            &g,
            &config(&g, 8, &order, ParallelConfig::default()),
            |_| 1.0,
        );
        let par = stream_assign(
            &g,
            &config(
                &g,
                8,
                &order,
                ParallelConfig {
                    threads: 4,
                    buffer_size: 128,
                },
            ),
            |_| 1.0,
        );
        let (cs, cp) = (cut(&seq.assignment), cut(&par.assignment));
        assert!(
            cp <= cs * 1.05 + 0.01,
            "parallel cut {cp} degraded >5% vs sequential {cs}"
        );
    }
}

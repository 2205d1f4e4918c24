//! Out-of-core streaming: the placement kernel driven over mapped shards.
//!
//! The resident pass needs the whole graph in memory. This module replays
//! the *same* sequential pass from a shard directory
//! ([`crate::pio::ShardSet`]) as one loop on one thread:
//!
//! ```text
//! for each shard, in order:       open + map it            ("fetch")
//!   for each record, in order:    validate neighbour ids,
//!                                 Pass::place(v, out_deg, δ, neighbours)   ("commit")
//!   unmap
//! ```
//!
//! A record's little-endian neighbour ids are decoded straight out of the
//! mapping into the kernel's tally — nothing is copied, batched or handed
//! between threads. The mapping is read front to back, so the operating
//! system's read-ahead is what overlaps disk with scoring; page-ins are
//! therefore taken (and timed) inside the record loop, not in "fetch".
//!
//! ## Memory model
//!
//! Resident memory is `O(n + one shard)`, never `O(m)`: the [`Pass`] owns
//! the dense assignment (`4n` bytes) plus `O(k)` part state, and exactly one
//! shard is mapped at a time (the shard size chosen at
//! [`write_shards`](crate::pio::write_shards) time bounds that mapping).
//!
//! ## Oracle contract
//!
//! The loop reproduces the resident sequential pass bit for bit: shard
//! records store each vertex's full undirected neighborhood in tally order
//! (out-neighbors then in-neighbors), both passes place through the one
//! [`Pass::place`] in natural vertex order, and α, capacity, and weight
//! deltas are derived with the same expressions the in-memory partitioners
//! use. On a fixed seed, the out-of-core assignment equals the in-memory
//! one exactly — the in-memory path *is* the test oracle, not an
//! approximation target.

use super::kernel::{FlatScorer, Pass};
use super::{fennel_alpha, StreamStats, BPART_LOAD, FENNEL_LOAD, GAMMA};
use crate::partition::PartId;
use crate::pio::{PioError, ShardReader, ShardSet};
use bpart_graph::VertexId;
use std::time::Instant;

/// Which scoring scheme the out-of-core pass runs. Both reuse the exact
/// in-memory arithmetic; they differ only in balance weight and load
/// factor, mirroring [`Fennel`](crate::Fennel) (1.1, unit deltas) and
/// [`BPart-P1`](crate::bpart::WeightedStream) (1.15, two-dimensional
/// deltas).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OocScheme {
    /// Fennel: vertex-count balance weight.
    Fennel,
    /// BPart phase 1: weighted indicator `c·|V_i| + (1−c)·|E_i|/d̄`.
    BPartP1 {
        /// The indicator's vertex/edge mix (paper default 0.5).
        c: f64,
    },
}

/// What one out-of-core pass computes: `num_parts` parts under `scheme`.
#[derive(Clone, Copy, Debug)]
pub struct OocConfig {
    /// Number of parts to open.
    pub num_parts: usize,
    /// Scoring scheme.
    pub scheme: OocScheme,
}

impl OocConfig {
    /// A pass into `num_parts` parts under `scheme`.
    pub fn new(num_parts: usize, scheme: OocScheme) -> Self {
        OocConfig { num_parts, scheme }
    }
}

/// Where one side of the shard loop spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageStats {
    /// "fetch" (open, map and unmap each shard) or "commit" (the record
    /// loop: validation, placement, and the page-ins it triggers).
    pub name: &'static str,
    /// Shards processed.
    pub shards: u64,
    /// Vertex records processed.
    pub vertices: u64,
    /// Time spent in this side of the loop.
    pub busy_secs: f64,
    /// Always 0: one thread walks the shards, so nothing waits on a
    /// neighbour stage. Kept (with `recv_stalls`) for readers of the
    /// earlier threaded pipeline's telemetry.
    pub send_stalls: u64,
    /// Always 0, see `send_stalls`.
    pub recv_stalls: u64,
}

/// Telemetry of a whole out-of-core pass.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// fetch, commit — in loop order.
    pub stages: Vec<StageStats>,
}

impl PipelineStats {
    /// Looks a stage up by name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// Result of an out-of-core pass: the dense assignment plus the same
/// aggregates the in-memory engine reports, and the loop's telemetry.
#[derive(Debug)]
pub struct OocOutcome {
    /// Part per vertex, natural order.
    pub assignment: Vec<PartId>,
    /// Parts opened.
    pub num_parts: usize,
    /// Per-part vertex counts.
    pub vertex_counts: Vec<u64>,
    /// Per-part out-degree sums.
    pub edge_counts: Vec<u64>,
    /// Aggregate throughput (`buffers` = shards read, `sync_secs` = time
    /// outside the record loop).
    pub stats: StreamStats,
    /// fetch/commit split of the loop.
    pub pipeline: PipelineStats,
}

/// Runs one out-of-core streaming pass over `shards`.
///
/// See the module docs for the loop, memory model, and oracle contract.
/// Errors (truncated or corrupt shards, IO failures) abort the pass with
/// the originating [`PioError`].
pub fn stream_assign_ooc(shards: &ShardSet, config: &OocConfig) -> Result<OocOutcome, PioError> {
    let k = config.num_parts;
    assert!(k > 0, "need at least one part");
    let n = shards.num_vertices();
    let m = shards.num_edges();

    let mut span = bpart_obs::span("stream.ooc");
    span.attr("vertices", n);
    span.attr("shards", shards.num_shards());

    if n == 0 {
        return Ok(OocOutcome {
            assignment: Vec::new(),
            num_parts: k,
            vertex_counts: vec![0; k],
            edge_counts: vec![0; k],
            stats: StreamStats::default(),
            pipeline: PipelineStats::default(),
        });
    }

    // Scheme parameters — the exact expressions the in-memory partitioners
    // use, so the scores (and therefore the assignment) match bit for bit.
    let (load, d_bar) = match config.scheme {
        OocScheme::Fennel => (FENNEL_LOAD, 1.0),
        OocScheme::BPartP1 { .. } => (BPART_LOAD, (m as f64 / n as f64).max(f64::MIN_POSITIVE)),
    };
    let alpha = fennel_alpha(n, m, k, GAMMA).expect("n > 0 checked above");
    let scorer = FlatScorer::new(GAMMA, alpha, load * n as f64 / k as f64);
    let delta_of = |out_deg: u32| -> f64 {
        match config.scheme {
            OocScheme::Fennel => 1.0,
            OocScheme::BPartP1 { c } => c + (1.0 - c) * out_deg as f64 / d_bar,
        }
    };

    let start = Instant::now();
    let readers = (0..shards.num_shards()).map(|s| shards.open_shard(s));
    let (pass, pipeline) = place_shards(Pass::new(n, k, scorer), readers, delta_of)?;
    let secs = start.elapsed().as_secs_f64();
    Ok(OocOutcome {
        assignment: pass.assignment,
        num_parts: k,
        vertex_counts: pass.vertex_counts,
        edge_counts: pass.edge_counts,
        stats: StreamStats {
            vertices: n,
            edges: m,
            buffers: shards.num_shards(),
            secs,
            sync_secs: pipeline.stages[0].busy_secs,
            threads: 1,
        },
        pipeline,
    })
}

/// The shard loop: places every record of every reader, in order, through
/// `pass`, which must be fresh (nothing placed). Readers are opened lazily,
/// one at a time; the previous mapping is dropped before the next is
/// created. Fails with a typed error on a reader error, on a record that is
/// not the next unplaced vertex, on a neighbour id outside the pass, and
/// when the readers run out before the pass is full.
fn place_shards(
    mut pass: Pass,
    readers: impl Iterator<Item = Result<ShardReader, PioError>>,
    delta_of: impl Fn(u32) -> f64,
) -> Result<(Pass, PipelineStats), PioError> {
    let n = pass.assignment.len();
    let committed = bpart_obs::metrics::gauge("pipeline.committed_vertices");
    let mut commit_secs = 0.0;
    let mut shards = 0u64;
    let mut placed = 0usize;
    let last = n.saturating_sub(1) as VertexId;

    let start = Instant::now();
    for reader in readers {
        let mut reader = reader?;
        let opened = Instant::now();
        while let Some(rec) = reader.next_record()? {
            if rec.vertex as usize != placed || placed == n {
                return Err(PioError::Format(format!(
                    "stream gap: expected vertex {placed} of {n}, record is vertex {}",
                    rec.vertex
                )));
            }
            // Every neighbour id is validated in the pass that tallies them,
            // so a corrupt id can neither index out of bounds nor go
            // unreported — the pass it polluted is dropped. Only ids below
            // the record's own reach the kernel: records arrive in ascending
            // order into a fresh pass, so no other vertex is in a part yet.
            let mut bad = None;
            let v = rec.vertex;
            let neighbours = rec.nbrs().filter(|&w| {
                if w > last {
                    bad = Some(w);
                }
                w < v
            });
            let delta = delta_of(rec.out_deg);
            pass.place(rec.vertex, rec.out_deg as u64, delta, neighbours);
            if let Some(w) = bad {
                return Err(PioError::Format(format!(
                    "neighbor id {w} out of range (n = {n})"
                )));
            }
            placed += 1;
        }
        commit_secs += opened.elapsed().as_secs_f64();
        shards += 1;
        // Live progress for `/progress`, once per shard.
        committed.set(placed as f64);
    }
    if placed != n {
        return Err(PioError::Format(format!(
            "stream ended early: {placed} of {n} vertices committed"
        )));
    }
    // Whatever the loop did outside the record loops: open, map, unmap.
    let fetch_secs = (start.elapsed().as_secs_f64() - commit_secs).max(0.0);
    let stage = |name, busy_secs| StageStats {
        name,
        shards,
        vertices: placed as u64,
        busy_secs,
        send_stalls: 0,
        recv_stalls: 0,
    };
    let stages = vec![stage("fetch", fetch_secs), stage("commit", commit_secs)];
    Ok((pass, PipelineStats { stages }))
}

/// Computes the directed edge-cut ratio of `assignment` by re-streaming
/// the shards — the out-of-core analogue of
/// [`metrics::edge_cut_ratio`](crate::metrics::edge_cut_ratio), needing
/// `O(buffer)` memory instead of the resident graph. Only the first
/// `out_deg` stored neighbors of each record (the out-neighbors) are
/// counted, so every directed edge is counted exactly once.
pub fn ooc_cut_ratio(shards: &ShardSet, assignment: &[PartId]) -> Result<f64, PioError> {
    let m = shards.num_edges();
    if m == 0 {
        return Ok(0.0);
    }
    if assignment.len() != shards.num_vertices() {
        return Err(PioError::Format(format!(
            "assignment covers {} vertices, shards have {}",
            assignment.len(),
            shards.num_vertices()
        )));
    }
    let mut cut = 0u64;
    for s in 0..shards.num_shards() {
        let mut reader = shards.open_shard(s)?;
        while let Some(rec) = reader.next_record()? {
            let pv = assignment[rec.vertex as usize];
            for w in rec.nbrs().take(rec.out_deg as usize) {
                if assignment[w as usize] != pv {
                    cut += 1;
                }
            }
        }
    }
    Ok(cut as f64 / m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fennel::Fennel;
    use crate::metrics;
    use crate::partitioner::Partitioner;
    use crate::pio::{shard_file_name, write_shards, MANIFEST_NAME};
    use bpart_graph::generate;
    use std::path::PathBuf;

    fn temp_shards(name: &str, g: &bpart_graph::CsrGraph, target_bytes: u64) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bpart-pipeline-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_shards(g, &dir, target_bytes).unwrap();
        dir
    }

    fn fennel_ooc(dir: &std::path::Path, k: usize) -> Result<OocOutcome, PioError> {
        stream_assign_ooc(&ShardSet::open(dir)?, &OocConfig::new(k, OocScheme::Fennel))
    }

    /// Identity with the resident pass on the benchmark presets, for both
    /// schemes, is `tests/one_kernel.rs`; this pins that shard size is a
    /// memory knob only, and that the streamed cut is the resident metric.
    #[test]
    fn shard_size_never_changes_the_assignment() {
        let g = generate::erdos_renyi(600, 4_000, 21);
        let k = 5;
        let oracle = Fennel.partition(&g, k);
        for (name, bytes) in [("tiny", 1), ("small", 4 * 1024), ("one", u64::MAX)] {
            let dir = temp_shards(name, &g, bytes);
            let run = fennel_ooc(&dir, k).unwrap();
            assert_eq!(
                run.assignment,
                oracle.assignment(),
                "{name} shards diverged"
            );
            let streamed = ooc_cut_ratio(&ShardSet::open(&dir).unwrap(), &run.assignment).unwrap();
            assert!((streamed - metrics::edge_cut_ratio(&g, &oracle)).abs() < 1e-12);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn truncated_shard_aborts_the_pass_with_a_typed_error() {
        let g = generate::erdos_renyi(400, 3_000, 3);
        let dir = temp_shards("truncated", &g, u64::MAX);
        let path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        match fennel_ooc(&dir, 4) {
            Err(PioError::Truncated { .. }) => {}
            other => panic!("expected Truncated abort, got {:?}", other.map(|o| o.stats)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_neighbour_is_a_typed_error_not_an_index_panic() {
        let g = generate::erdos_renyi(50, 300, 5);
        let dir = temp_shards("bad-nbr", &g, u64::MAX);
        let path = dir.join(shard_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        // The last four bytes are the last record's last neighbour id.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&50u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match fennel_ooc(&dir, 4) {
            Err(PioError::Format(msg)) => assert!(msg.contains("neighbor id 50"), "{msg}"),
            other => panic!("expected Format error, got {:?}", other.map(|o| o.stats)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vertex_gap_and_short_stream_are_typed_errors() {
        let g = generate::erdos_renyi(300, 2_000, 9);
        let dir = temp_shards("gap", &g, 4 * 1024);
        let shards = ShardSet::open(&dir).unwrap();
        assert!(shards.num_shards() >= 3);
        let pass = || Pass::new(300, 4, FlatScorer::new(1.5, 0.1, 90.0));
        // Shard 1 skipped: shard 2's first record is not the next vertex.
        let skipping = [0, 2].into_iter().map(|s| shards.open_shard(s));
        match place_shards(pass(), skipping, |_| 1.0) {
            Err(PioError::Format(msg)) => assert!(msg.contains("stream gap"), "{msg}"),
            other => panic!("expected a gap error, got {:?}", other.map(|o| o.1)),
        }
        // A stream that stops after its first shard, and no shards at all.
        for count in [1, 0] {
            let short = (0..count).map(|s| shards.open_shard(s));
            match place_shards(pass(), short, |_| 1.0) {
                Err(PioError::Format(msg)) => assert!(msg.contains("ended early"), "{msg}"),
                other => panic!("expected an early end, got {:?}", other.map(|o| o.1)),
            }
        }
        // A pass smaller than the stream: the surplus record is a gap too.
        let small = Pass::new(10, 4, FlatScorer::new(1.5, 0.1, 90.0));
        let all = (0..shards.num_shards()).map(|s| shards.open_shard(s));
        assert!(matches!(
            place_shards(small, all, |_| 1.0),
            Err(PioError::Format(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_shard_sets_are_handled_without_panicking() {
        // n = 0: one empty shard, an empty outcome.
        let g = bpart_graph::CsrGraph::from_edges(0, &[]);
        let dir = temp_shards("empty", &g, 1024);
        let shards = ShardSet::open(&dir).unwrap();
        let ooc = stream_assign_ooc(&shards, &OocConfig::new(3, OocScheme::Fennel)).unwrap();
        assert!(ooc.assignment.is_empty());
        assert_eq!(ooc.vertex_counts, vec![0, 0, 0]);
        assert_eq!(ooc_cut_ratio(&shards, &ooc.assignment).unwrap(), 0.0);
        // A manifest that lists no shards for n > 0 is rejected on open.
        let mut manifest = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
        manifest[8..16].copy_from_slice(&7u64.to_le_bytes());
        manifest[24..28].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(dir.join(MANIFEST_NAME), &manifest).unwrap();
        assert!(matches!(ShardSet::open(&dir), Err(PioError::Format(_))));
        // And a directory without a manifest is an IO error.
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(matches!(ShardSet::open(&dir), Err(PioError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_report_the_stream_and_the_two_sides_of_the_loop() {
        let g = generate::erdos_renyi(500, 2_500, 9);
        let dir = temp_shards("stats", &g, 8 * 1024);
        let shards = ShardSet::open(&dir).unwrap();
        let ooc = stream_assign_ooc(&shards, &OocConfig::new(4, OocScheme::Fennel)).unwrap();
        assert_eq!(ooc.stats.vertices, 500);
        assert_eq!(ooc.stats.edges, 2_500);
        assert_eq!(ooc.stats.threads, 1);
        assert_eq!(ooc.stats.buffers, shards.num_shards());
        assert!(ooc.stats.secs > 0.0);
        assert!(ooc.stats.sync_secs <= ooc.stats.secs);
        let names: Vec<&str> = ooc.pipeline.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["fetch", "commit"]);
        for s in &ooc.pipeline.stages {
            assert_eq!(s.vertices, 500, "stage {}", s.name);
            assert_eq!(s.shards as usize, shards.num_shards(), "stage {}", s.name);
            assert_eq!(s.send_stalls + s.recv_stalls, 0, "stage {}", s.name);
        }
        assert!(ooc.pipeline.stage("map").is_none());
        // ooc_cut_ratio rejects a wrong-length assignment.
        assert!(ooc_cut_ratio(&shards, &ooc.assignment[1..]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

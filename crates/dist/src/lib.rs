//! Distributed BSP execution: real OS processes behind a [`Backend`]
//! switch.
//!
//! The thread-simulated engines in `bpart-engine` / `bpart-walker` are
//! the semantic oracle; this crate runs the *same* per-machine kernels
//! over a length-prefixed TCP frame protocol in a star topology (driver
//! in the middle, one worker process per BSP machine). The contract is
//! bit-identity: on a fixed [`JobSpec`], PageRank, connected components,
//! and random walks produce byte-for-byte the same results on both
//! backends — even when worker processes are `SIGKILL`ed mid-superstep
//! and recovered from checkpoints.
//!
//! Layer map:
//!
//! * [`frame`] — length-prefixed, checksummed wire frames;
//! * [`wire`] — payload primitive encoding (no serde);
//! * [`proto`] — typed driver/worker messages over frames;
//! * [`spec`] — the job description: a graph source every process can
//!   materialize, and the scheme the driver (alone) partitions by;
//! * [`transport`] — deadlines, backoff, the interval pumps;
//! * [`step`] — the engines' own per-machine kernels behind a
//!   [`step::Worker`] that speaks rows and snapshots as bytes;
//! * [`worker`] / [`driver`] — the two process roles.

pub mod driver;
pub mod error;
pub mod frame;
pub mod proto;
pub mod spec;
pub mod step;
pub mod transport;
pub mod wire;
pub mod worker;

pub use driver::{run_process, AppOutput, ProcessConfig, RecoveryStats};
pub use error::ClusterError;
pub use spec::{AppSpec, GraphSource, JobSpec};
pub use worker::{run_worker, WorkerConfig};

/// The walk engine's own merge of machine-local path logs.
pub use bpart_walker::kernel::paths_from_log;

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan, Telemetry};
use bpart_graph::VertexId;
use wire::{encode_all, Wire};

/// Configuration for the in-process (thread-simulated) backend — the
/// oracle the process backend is checked against.
#[derive(Clone, Debug, Default)]
pub struct ThreadsConfig {
    /// Sequential or one-thread-per-machine execution.
    pub mode: ExecMode,
    /// Simulated fault plan (crashes, link faults).
    pub faults: FaultPlan,
    /// Checkpoint interval override; defaults to the job spec's.
    pub checkpoint_every: Option<u32>,
}

/// Where a job runs: simulated machines in this process, or real
/// supervised worker processes.
#[derive(Debug)]
pub enum Backend {
    /// In-process simulation (`bpart-engine` / `bpart-walker`).
    Threads(ThreadsConfig),
    /// One OS process per machine, driven over TCP.
    Process(ProcessConfig),
}

/// Runs a job on the chosen backend and reports the result digest plus
/// recovery telemetry. The digest is computed the same way on both
/// backends, so equal digests mean bit-identical results.
pub fn run_job(spec: &JobSpec, backend: &Backend) -> Result<AppOutput, ClusterError> {
    match backend {
        Backend::Process(cfg) => driver::run_process(spec, cfg),
        Backend::Threads(cfg) => run_threads(spec, cfg),
    }
}

fn run_threads(spec: &JobSpec, cfg: &ThreadsConfig) -> Result<AppOutput, ClusterError> {
    use bpart_engine::apps::{ConnectedComponents, PageRank};
    use bpart_walker::apps::{DeepWalk, SimpleRandomWalk};
    let cluster = spec.build_cluster()?;
    let every = cfg
        .checkpoint_every
        .or(spec.checkpoint_every)
        .filter(|&e| e > 0)
        .map(|e| e as usize);
    match spec.app {
        AppSpec::PageRank { iters } => run_threads_iter(cluster, cfg, every, &PageRank::new(iters)),
        AppSpec::ConnectedComponents => run_threads_iter(cluster, cfg, every, &ConnectedComponents),
        AppSpec::DeepWalk {
            walk_len,
            seed,
            per_vertex,
        } => {
            let app = DeepWalk::new(walk_len);
            run_threads_walk(cluster, cfg, every, &app, seed, per_vertex)
        }
        AppSpec::SimpleWalk {
            walk_len,
            seed,
            per_vertex,
        } => {
            let app = SimpleRandomWalk::new(walk_len);
            run_threads_walk(cluster, cfg, every, &app, seed, per_vertex)
        }
    }
}

fn threads_output(digest: u64, supersteps: usize, telemetry: &Telemetry) -> AppOutput {
    AppOutput {
        digest,
        supersteps: supersteps as u64,
        recovery: threads_stats(telemetry),
    }
}

fn run_threads_iter<P: bpart_engine::VertexProgram>(
    cluster: Cluster,
    cfg: &ThreadsConfig,
    checkpoint_every: Option<usize>,
    program: &P,
) -> Result<AppOutput, ClusterError>
where
    P::Value: Wire,
{
    let mut engine = bpart_engine::IterationEngine::new(cluster, CostModel::default(), cfg.mode)
        .with_faults(cfg.faults.clone());
    if let Some(every) = checkpoint_every {
        engine = engine.with_checkpoint_every(every);
    }
    let run = engine
        .try_run(program)
        .map_err(|e| ClusterError::unrecoverable(e.to_string()))?;
    Ok(threads_output(
        digest_wire(&run.values),
        run.iterations,
        &run.telemetry,
    ))
}

fn run_threads_walk<A: bpart_walker::WalkApp>(
    cluster: Cluster,
    cfg: &ThreadsConfig,
    checkpoint_every: Option<usize>,
    app: &A,
    seed: u64,
    per_vertex: u32,
) -> Result<AppOutput, ClusterError> {
    let mut engine = bpart_walker::WalkEngine::new(cluster, CostModel::default(), cfg.mode)
        .with_faults(cfg.faults.clone())
        .with_recording();
    if let Some(every) = checkpoint_every {
        engine = engine.with_checkpoint_every(every);
    }
    let run = engine
        .try_run(app, &bpart_walker::WalkStarts::PerVertex(per_vertex), seed)
        .map_err(|e| ClusterError::unrecoverable(e.to_string()))?;
    let paths = run
        .paths
        .ok_or_else(|| ClusterError::unrecoverable("walk engine did not record paths"))?;
    Ok(threads_output(
        digest_paths(&paths),
        run.iterations,
        &run.telemetry,
    ))
}

/// Maps the simulated engines' telemetry onto the process backend's
/// recovery counters: link retries (fault-plan dropped + duplicated) and
/// replayed supersteps are defined identically on both sides, which is
/// what the drop-link parity fixture checks.
fn threads_stats(telemetry: &Telemetry) -> RecoveryStats {
    RecoveryStats {
        link_retries: telemetry.total_faults(),
        replayed_supersteps: telemetry.replayed_supersteps() as u64,
        ..RecoveryStats::default()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a over raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of a value sequence via its canonical wire encoding.
pub fn digest_wire<T: Wire>(items: &[T]) -> u64 {
    let mut buf = Vec::new();
    encode_all(items, &mut buf);
    digest_bytes(&buf)
}

/// Digest of recorded walk paths (length-prefixed per path, so path
/// boundaries are part of the identity).
pub fn digest_paths(paths: &[Vec<VertexId>]) -> u64 {
    let mut buf = Vec::with_capacity(paths.iter().map(|p| 4 + p.len() * 4).sum());
    for p in paths {
        buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
        for &v in p {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    digest_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let a = digest_wire(&[1u32, 2, 3]);
        let b = digest_wire(&[3u32, 2, 1]);
        assert_ne!(a, b);
        let p1 = digest_paths(&[vec![1, 2], vec![3]]);
        let p2 = digest_paths(&[vec![1], vec![2, 3]]);
        assert_ne!(p1, p2);
    }
}

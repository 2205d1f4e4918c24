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
//! * [`wire`] — the one payload codec: every value's `Wire` impl (no
//!   serde);
//! * [`proto`] — typed driver/worker messages over frames;
//! * [`spec`] — the job description: a graph source every process can
//!   materialize, and the scheme the driver (alone) partitions by;
//! * [`transport`] — frame reads and writes, backoff, the heartbeat;
//! * [`step`] — the engines' own per-machine kernels behind a
//!   [`step::Worker`] that speaks rows and snapshots as bytes;
//! * [`worker`] / [`driver`] — the two process roles; the driver is the
//!   process transport of `bpart_cluster::bsp::run`, the superstep loop the
//!   threads backend runs too, so recovery is decided in one place.

pub mod driver;
pub mod error;
pub mod frame;
pub mod proto;
pub mod spec;
pub mod step;
pub mod transport;
pub mod wire;
pub mod worker;

pub use driver::{run_process, ProcessConfig};
pub use error::ClusterError;
pub use spec::{AppSpec, GraphSource, JobSpec, Scheme, APP_NAMES, SCHEMES};
pub use worker::{run_worker, WorkerConfig};

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan, Telemetry};
use bpart_graph::VertexId;
use bpart_obs::analysis::Summary;
use wire::{encode_all, Wire};

/// Configuration for the in-process (thread-simulated) backend — the
/// oracle the process backend is checked against.
#[derive(Clone, Debug, Default)]
pub struct ThreadsConfig {
    /// Sequential or one-thread-per-machine execution.
    pub mode: ExecMode,
    /// Simulated crash plan.
    pub faults: FaultPlan,
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

/// What recovery had to do during a run. Both backends count alike: a
/// fault plan that kills one machine once reads one death and one recovery
/// whether the machine was a thread's state or a process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Machines lost: workers declared dead (heartbeat loss or RPC
    /// deadline), or simulated machines that crashed or panicked.
    pub worker_deaths: u64,
    /// Recovery rounds (epoch bumps; simulated rollbacks).
    pub recoveries: u64,
    /// Supersteps re-executed after rollbacks.
    pub replayed_supersteps: u64,
    /// Always 0: a fault plan has no link clause left to charge. Kept
    /// while the benchmark still reports `dist.link_retries` from it.
    pub link_retries: u64,
    /// Worker processes respawned (a simulated machine has none).
    pub respawns: u64,
}

/// What [`AppOutput::timing`] is measured in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeUnit {
    /// Cost-model units, from the simulated engines' telemetry.
    Modelled,
    /// Seconds the worker processes measured and reported to the driver.
    Seconds,
}

/// Totals only the simulated engines keep.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelledTotals {
    /// Messages the cost model charged (replayed supersteps included).
    pub messages: u64,
    /// Checkpoint restores plus replayed work, in cost-model units.
    pub recovery_time: f64,
    /// A walk app's `(walker steps, message walks)`.
    pub walk: Option<(u64, u64)>,
}

/// Outcome of a run, on either backend: what a report of it needs.
#[derive(Clone, Debug)]
pub struct AppOutput {
    /// FNV-1a digest over the canonical result encoding (global-order
    /// values for iteration apps, merged paths for walks) — the
    /// cross-backend bit-identity token.
    pub digest: u64,
    /// Logical supersteps executed (replays not double-counted).
    pub supersteps: u64,
    /// Recovery counters.
    pub recovery: RecoveryStats,
    /// The graph and the partition the job ran on (shared handles).
    pub cluster: Cluster,
    /// Per-machine compute and barrier waiting, in `time_unit`: the fold
    /// of every record the superstep loop kept, wasted and replayed
    /// supersteps included. It has no machines when no superstep ran.
    pub timing: Summary,
    /// The unit of `timing`.
    pub time_unit: TimeUnit,
    /// Present on the threads backend.
    pub modelled: Option<ModelledTotals>,
    /// Peak resident bytes of every machine's process, as each reported it
    /// when told to shut down. Empty where machines are not processes, and
    /// when federation collection was off.
    pub peak_rss_bytes: Vec<u64>,
}

impl AppOutput {
    /// A run of the superstep loop, mapped onto the one output the same way
    /// on both backends: every record it kept folded into `timing`, and the
    /// recovery counters read off them — a lost machine is a death, an
    /// abandoned superstep (or restore) a recovery round, and a re-executed
    /// superstep a replay. The records are in cost-model units exactly when a cost
    /// model ran, whose totals `modelled` is; `respawns` is the process
    /// transport's own count.
    pub(crate) fn of_loop(
        cluster: Cluster,
        digest: u64,
        supersteps: usize,
        telemetry: &Telemetry,
        modelled: Option<ModelledTotals>,
        respawns: u64,
    ) -> AppOutput {
        let recovery = RecoveryStats {
            worker_deaths: telemetry.crashes(),
            recoveries: telemetry.rollbacks(),
            replayed_supersteps: telemetry.replayed_supersteps() as u64,
            link_retries: 0,
            respawns,
        };
        AppOutput {
            digest,
            supersteps: supersteps as u64,
            recovery,
            cluster,
            timing: telemetry.summary(),
            time_unit: match modelled {
                Some(_) => TimeUnit::Modelled,
                None => TimeUnit::Seconds,
            },
            modelled,
            peak_rss_bytes: Vec::new(),
        }
    }
}

/// Runs a job on the chosen backend. The digest is computed the same way
/// on both backends, so equal digests mean bit-identical results. A fault
/// plan is refused when it names a machine the job does not have.
pub fn run_job(spec: &JobSpec, backend: &Backend) -> Result<AppOutput, ClusterError> {
    let faults = match backend {
        Backend::Process(cfg) => &cfg.faults,
        Backend::Threads(cfg) => &cfg.faults,
    };
    if let Some(m) = faults.max_machine().filter(|&m| m >= spec.parts) {
        let parts = spec.parts;
        return Err(ClusterError::unrecoverable(format!(
            "fault plan names machine m{m}, but the job has {parts} machines"
        )));
    }
    let out = match backend {
        Backend::Process(cfg) => driver::run_process(spec, cfg),
        Backend::Threads(cfg) => run_threads(spec, cfg),
    };
    publish_peak_rss();
    out
}

/// Gauges `part.vertices{suffix}`, `part.edges{suffix}` and
/// `part.slice_bytes{suffix}`: what a part holds, in the paper's two
/// dimensions and in bytes. A worker process holds one part and names no
/// suffix; the federated view labels it by worker.
pub(crate) fn publish_part(suffix: &str, vertices: u64, edges: u64, slice_bytes: usize) {
    let held = [
        ("vertices", vertices as f64),
        ("edges", edges as f64),
        ("slice_bytes", slice_bytes as f64),
    ];
    for (name, value) in held {
        bpart_obs::metrics::gauge(&format!("part.{name}{suffix}")).set(value);
    }
}

/// The same for every part of a partition that one process holds whole (the
/// threads backend, `bpart partition`), part `i` under the suffix `.m{i}`,
/// its slice being the out-lists a worker would be sent for it.
pub fn publish_parts(vertex_counts: &[u64], edge_counts: &[u64]) {
    for (m, (&vertices, &edges)) in vertex_counts.iter().zip(edge_counts).enumerate() {
        let slice = proto::slice_wire_len(vertices as usize, edges as usize, None);
        publish_part(&format!(".m{m}"), vertices, edges, slice);
    }
}

/// Gauge `proc.peak_rss_bytes`: this process's peak resident set so far.
pub fn publish_peak_rss() {
    if let Some(peak) = bpart_obs::rss::peak_rss_bytes() {
        bpart_obs::metrics::gauge("proc.peak_rss_bytes").set(peak as f64);
    }
}

fn run_threads(spec: &JobSpec, cfg: &ThreadsConfig) -> Result<AppOutput, ClusterError> {
    use bpart_engine::apps::{ConnectedComponents, PageRank};
    use bpart_walker::apps::DeepWalk;
    let cluster = spec.build_cluster()?;
    publish_parts(cluster.vertex_counts(), cluster.edge_counts());
    let every = spec.checkpoint_every.map(|e| e as usize);
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
    }
}

/// Maps a simulated run onto the one output, with the totals only a cost
/// model keeps.
fn threads_output(
    cluster: Cluster,
    digest: u64,
    supersteps: usize,
    telemetry: &Telemetry,
    walk: Option<(u64, u64)>,
) -> AppOutput {
    let modelled = ModelledTotals {
        messages: telemetry.total_messages(),
        recovery_time: telemetry.total_recovery_time(),
        walk,
    };
    AppOutput::of_loop(cluster, digest, supersteps, telemetry, Some(modelled), 0)
}

fn run_threads_iter<P: bpart_engine::VertexProgram>(
    cluster: Cluster,
    cfg: &ThreadsConfig,
    checkpoint_every: Option<usize>,
    program: &P,
) -> Result<AppOutput, ClusterError>
where
    P::Value: for<'a> Wire<'a>,
{
    let mut engine =
        bpart_engine::IterationEngine::new(cluster.clone(), CostModel::default(), cfg.mode)
            .with_faults(cfg.faults.clone());
    if let Some(every) = checkpoint_every {
        engine = engine.with_checkpoint_every(every);
    }
    let run = engine
        .try_run(program)
        .map_err(|e| ClusterError::unrecoverable(e.to_string()))?;
    Ok(threads_output(
        cluster,
        digest_wire(&run.values),
        run.iterations,
        &run.telemetry,
        None,
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
    let mut engine = bpart_walker::WalkEngine::new(cluster.clone(), CostModel::default(), cfg.mode)
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
        cluster,
        digest_paths(&paths),
        run.iterations,
        &run.telemetry,
        Some((run.total_steps, run.message_walks)),
    ))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a over `bytes`, continuing from state `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

/// Digest of a value sequence via its canonical wire encoding.
pub fn digest_wire<T: for<'a> Wire<'a>>(items: &[T]) -> u64 {
    let mut buf = Vec::new();
    encode_all(items, &mut buf);
    digest_bytes(&buf)
}

/// Digest of recorded walk paths (length-prefixed per path, so path
/// boundaries are part of the identity), read where they lie: a
/// [`PathTable`](bpart_walker::PathTable), or any list of paths.
pub fn digest_paths<P: AsRef<[VertexId]>>(paths: impl IntoIterator<Item = P>) -> u64 {
    paths.into_iter().fold(FNV_OFFSET, |h, path| {
        let path = path.as_ref();
        let h = fnv(h, &(path.len() as u32).to_le_bytes());
        path.iter().fold(h, |h, v| fnv(h, &v.to_le_bytes()))
    })
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

    fn threads_run(app: AppSpec, plan: &str) -> AppOutput {
        let spec = JobSpec {
            graph: GraphSource::ErdosRenyi {
                n: 90,
                m: 540,
                seed: 5,
            },
            scheme: "chunk-v".into(),
            parts: 3,
            app,
            checkpoint_every: Some(2),
        };
        let cfg = ThreadsConfig {
            faults: plan.parse().unwrap(),
            ..ThreadsConfig::default()
        };
        run_job(&spec, &Backend::Threads(cfg)).unwrap()
    }

    /// The process backend reports `1 deaths, 1 recoveries` for these plans
    /// (`cli/tests/process_run.rs`); so must the simulation.
    #[test]
    fn a_simulated_crash_is_a_death_and_a_recovery_not_a_link_retry() {
        let walk = AppSpec::DeepWalk {
            walk_len: 6,
            seed: 3,
            per_vertex: 1,
        };
        for app in [AppSpec::PageRank { iters: 6 }, walk] {
            let clean = threads_run(app.clone(), "");
            assert_eq!(clean.recovery, RecoveryStats::default());
            // A crash on a checkpointed superstep has nothing to replay;
            // one past it replays the superstep between.
            for (plan, replayed) in [("crash@2:m1", 0), ("crash@3:m1", 1)] {
                let out = threads_run(app.clone(), plan);
                let expected = RecoveryStats {
                    worker_deaths: 1,
                    recoveries: 1,
                    replayed_supersteps: replayed,
                    ..RecoveryStats::default()
                };
                assert_eq!(out.recovery, expected, "{app:?} under {plan}");
                assert_eq!(out.digest, clean.digest, "{app:?} under {plan}");
            }
        }
    }
}

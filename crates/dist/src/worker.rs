//! The supervised worker loop: one OS process playing one BSP machine.
//!
//! A worker is a frame-driven state machine. It connects to the driver
//! (with backoff) and is told its job at once, so it loads the graph while
//! the driver is still partitioning it; the `Placement` that follows says
//! which vertices are whose, and the worker builds its cluster from that —
//! it never resolves the job's scheme or runs a partitioner. Then it
//! reacts to driver frames: `StepBegin` runs the local compute phase and
//! ships outgoing rows, `Inbox` completes the superstep, `Restore` rolls
//! state back (or re-initializes) under a new epoch, `Finish` ships the
//! local result, `Shutdown` exits. A dedicated thread heartbeats the
//! whole time, so the driver can tell "dead" from "busy".
//!
//! Frames whose epoch is older than the worker's current epoch are
//! silently discarded — they were sent before a recovery the worker has
//! already joined.

use crate::error::ClusterError;
use crate::proto::{DriverMsg, WorkerMsg};
use crate::spec::{AppSpec, JobSpec};
use crate::step::{IterWorker, WalkWorker, Worker};
use crate::transport::{
    connect_with_backoff, heartbeat_pump, read_frame_blocking, Backoff, Pump, SharedWriter,
};
use bpart_cluster::Cluster;
use bpart_core::{PartId, Partition};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_graph::CsrGraph;
use bpart_obs::{federation, tracer};
use bpart_walker::apps::{DeepWalk, SimpleRandomWalk};
use bpart_walker::WalkApp;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the background flush ships an `ObsReport` outside the
/// superstep cadence. Low-rate by design: its job is to leave a final
/// snapshot behind if the worker is SIGKILLed mid-superstep, not to
/// stream metrics.
const OBS_FLUSH_INTERVAL: Duration = Duration::from_millis(200);

/// Worker process configuration (parsed from the command line).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Driver address (`host:port`).
    pub connect: String,
    /// Which BSP machine this process plays.
    pub worker_id: u32,
    /// Join key handed out by the driver.
    pub key: u64,
    /// Heartbeat interval.
    pub heartbeat: Duration,
}

/// The cluster a shipped placement describes over the graph this process
/// loaded. The placement is the driver's word on ownership, but it is
/// also bytes off a socket: one that does not fit the job or the graph is
/// refused before `Partition::from_assignment` could panic on it.
fn placed_cluster(
    spec: &JobSpec,
    graph: CsrGraph,
    parts: u32,
    assignment: Vec<PartId>,
) -> Result<Cluster, ClusterError> {
    if parts == 0 || parts != spec.parts {
        return Err(ClusterError::corrupt(format!(
            "placement over {parts} parts for a job of {}",
            spec.parts
        )));
    }
    if assignment.len() != graph.num_vertices() {
        return Err(ClusterError::corrupt(format!(
            "placement covers {} vertices, the graph has {}",
            assignment.len(),
            graph.num_vertices()
        )));
    }
    let partition = Partition::from_assignment(&graph, parts as usize, assignment);
    Ok(Cluster::new(Arc::new(graph), Arc::new(partition)))
}

/// Builds the app-specific half of the worker over its placed cluster.
fn build_app(spec: &JobSpec, cluster: Cluster, machine: usize) -> Box<dyn Worker> {
    let walk = |app: Box<dyn WalkApp>, seed: u64, per_vertex: u32| {
        Box::new(WalkWorker::new(
            app,
            cluster.clone(),
            machine,
            seed,
            per_vertex,
        ))
    };
    match spec.app {
        AppSpec::PageRank { iters } => {
            Box::new(IterWorker::new(PageRank::new(iters), cluster, machine))
        }
        AppSpec::ConnectedComponents => {
            Box::new(IterWorker::new(ConnectedComponents, cluster, machine))
        }
        AppSpec::DeepWalk {
            walk_len,
            seed,
            per_vertex,
        } => walk(Box::new(DeepWalk::new(walk_len)), seed, per_vertex),
        AppSpec::SimpleWalk {
            walk_len,
            seed,
            per_vertex,
        } => walk(Box::new(SimpleRandomWalk::new(walk_len)), seed, per_vertex),
    }
}

/// The first two frames of a worker's life: `Job`, then `Placement`. The
/// graph is loaded between them, while the driver — which sent `Job` the
/// moment this worker joined — loads and partitions its own copy.
fn receive_job(reader: &mut TcpStream) -> Result<Box<dyn Worker>, ClusterError> {
    let frame = read_frame_blocking(reader)?;
    let DriverMsg::Job { spec, machine } = DriverMsg::from_frame(&frame)? else {
        return Err(ClusterError::corrupt("expected Job as the first frame"));
    };
    let graph = spec.load_graph()?;
    let frame = read_frame_blocking(reader)?;
    let DriverMsg::Placement { parts, assignment } = DriverMsg::from_frame(&frame)? else {
        return Err(ClusterError::corrupt("expected Placement after Job"));
    };
    if machine >= parts {
        return Err(ClusterError::corrupt(format!(
            "job for machine {machine} of a {parts}-part placement"
        )));
    }
    let cluster = placed_cluster(&spec, graph, parts, assignment.into_owned())?;
    Ok(build_app(&spec, cluster, machine as usize))
}

/// Report position shared between the protocol loop and the flush
/// thread: the next sequence number and the span-ring watermark (spans
/// already shipped).
#[derive(Debug, Default)]
struct ObsPosition {
    seq: u64,
    span_watermark: u64,
}

/// Ships one `ObsReport` built from the current registry/ring state,
/// advancing the shared position. `step` is
/// `(superstep, compute_ns, comm_ns)`; `echo` is
/// `(driver sent_ns, worker recv_ns)` from the last observed
/// `StepBegin` (zeros = no clock sample).
fn send_obs_report(
    writer: &SharedWriter,
    position: &Mutex<ObsPosition>,
    epoch: u32,
    step: Option<(u64, u64, u64)>,
    echo: (u64, u64),
) -> Result<(), ClusterError> {
    let (seq, metrics, spans, profile) = {
        let mut pos = position.lock().unwrap_or_else(|e| e.into_inner());
        pos.seq += 1;
        (
            pos.seq,
            federation::MetricsSnapshot::capture().to_bytes(),
            federation::encode_span_delta(&mut pos.span_watermark),
            bpart_obs::profile::render_folded().into_bytes(),
        )
    };
    let (superstep, compute_ns, comm_ns) = step.unwrap_or((0, 0, 0));
    writer.send(&WorkerMsg::ObsReport {
        epoch,
        seq,
        superstep,
        has_step: step.is_some(),
        compute_ns,
        comm_ns,
        echo_ns: echo.0,
        recv_ns: echo.1,
        send_ns: tracer::now_ns(),
        metrics: &metrics,
        spans: &spans,
        profile: &profile,
    })
}

/// Background obs flush: ships a timer-driven `ObsReport` while
/// collection is enabled, so a worker that later gets SIGKILLed still
/// left its last snapshot on the driver.
fn obs_flush_pump(
    writer: SharedWriter,
    epoch: Arc<AtomicU32>,
    enabled: Arc<AtomicBool>,
    position: Arc<Mutex<ObsPosition>>,
    interval: Duration,
) -> Pump {
    Pump::start("obs-flush", interval, move || {
        if !enabled.load(Ordering::Relaxed) {
            return true;
        }
        // A failed send means the driver is gone; the protocol loop
        // will see it too.
        send_obs_report(
            &writer,
            &position,
            epoch.load(Ordering::Relaxed),
            None,
            (0, 0),
        )
        .is_ok()
    })
}

/// A superstep in flight on the worker: protocol state from `StepBegin`
/// plus the obs measurements the matching `Inbox` completes.
struct PendingStep {
    superstep: u64,
    agg: f64,
    checkpoint: bool,
    /// Compute-phase nanoseconds spent in `begin()` (the rest is added
    /// by `finish()` at Inbox time).
    compute_ns: u64,
    /// When the `StepData` send completed — the exchange wait starts
    /// here and ends when the `Inbox` arrives.
    sent_at: Instant,
    /// `(driver sent_ns, worker recv_ns)` clock echo for this step.
    echo: (u64, u64),
}

/// Runs the worker protocol loop to completion (a clean `Shutdown`) or a
/// terminal error.
pub fn run_worker(cfg: WorkerConfig) -> Result<(), ClusterError> {
    let stream = connect_with_backoff(
        &cfg.connect,
        10,
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            seed: cfg.worker_id as u64 + 1,
        },
        |_| {},
    )?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| ClusterError::from_io("clone stream", &e))?;
    let writer = SharedWriter::new(stream);

    writer.send(&WorkerMsg::Join {
        worker_id: cfg.worker_id,
        key: cfg.key,
    })?;

    let epoch = Arc::new(AtomicU32::new(0));
    let _pump = heartbeat_pump(writer.clone(), Arc::clone(&epoch), cfg.heartbeat);

    // Obs federation state: armed by the first `StepBegin` carrying
    // `obs: true` (the driver's collection flag propagates here), off
    // otherwise so no-obs runs ship nothing.
    let obs_enabled = Arc::new(AtomicBool::new(false));
    let obs_position = Arc::new(Mutex::new(ObsPosition::default()));
    let _obs_pump = obs_flush_pump(
        writer.clone(),
        Arc::clone(&epoch),
        Arc::clone(&obs_enabled),
        Arc::clone(&obs_position),
        OBS_FLUSH_INTERVAL,
    );

    let mut app = receive_job(&mut reader)?;
    writer.send(&WorkerMsg::Ready {
        epoch: epoch.load(Ordering::Relaxed),
        agg: app.ready_agg(),
    })?;

    // The superstep phase in flight — populated by StepBegin, consumed
    // by the matching Inbox (protocol state plus obs timings).
    let mut pending: Option<PendingStep> = None;
    // The `worker.superstep` span open for the pending step. Held
    // separately so dropping it (closing the span) is explicit before
    // the span delta is encoded.
    let mut step_span: Option<tracer::SpanGuard> = None;

    loop {
        let frame = read_frame_blocking(&mut reader)?;
        let current = epoch.load(Ordering::Relaxed);
        match DriverMsg::from_frame(&frame)? {
            DriverMsg::StepBegin {
                epoch: e,
                superstep,
                agg,
                checkpoint,
                sent_ns,
                obs,
            } => {
                if e != current {
                    continue; // stale: sent before a recovery we joined
                }
                let recv_ns = tracer::now_ns();
                if obs && !obs_enabled.load(Ordering::Relaxed) {
                    // Driver runs with obs on: arm local collection so
                    // snapshots and span deltas have content to ship.
                    bpart_obs::set_trace_enabled(true);
                    bpart_obs::profile::set_profile_enabled(true);
                    bpart_obs::profile::start_sampler(bpart_obs::profile::DEFAULT_SAMPLE_INTERVAL);
                    if std::env::var("BPART_TAIL_SAMPLE").as_deref() == Ok("1") {
                        bpart_obs::sampling::set_tail_sampling_enabled(true);
                    }
                    obs_enabled.store(true, Ordering::Relaxed);
                }
                let mut span = obs.then(|| {
                    let mut g = tracer::span("worker.superstep");
                    g.attr("superstep", superstep.to_string());
                    g.attr("epoch", e.to_string());
                    g
                });
                let compute_started = Instant::now();
                let rows = app.begin();
                let compute_ns = compute_started.elapsed().as_nanos() as u64;
                writer.send(&WorkerMsg::StepData {
                    epoch: e,
                    superstep,
                    rows,
                })?;
                if let Some(g) = &mut span {
                    g.attr("compute_ns", compute_ns.to_string());
                }
                step_span = span;
                pending = Some(PendingStep {
                    superstep,
                    agg,
                    checkpoint,
                    compute_ns,
                    sent_at: Instant::now(),
                    echo: (sent_ns, recv_ns),
                });
            }
            DriverMsg::Inbox {
                epoch: e,
                superstep,
                rows,
            } => {
                if e != current {
                    continue;
                }
                let Some(step) = pending.take() else {
                    return Err(ClusterError::corrupt("Inbox without StepBegin"));
                };
                if step.superstep != superstep {
                    return Err(ClusterError::corrupt(format!(
                        "Inbox superstep {superstep} does not match StepBegin {}",
                        step.superstep
                    )));
                }
                // Exchange wait: from StepData leaving to the inbox
                // arriving (driver-side shuffle + peer stragglers).
                let comm_ns = step.sent_at.elapsed().as_nanos() as u64;
                let finish_started = Instant::now();
                let (active, agg_out) = app.finish(&rows, superstep, step.agg)?;
                let compute_ns = step.compute_ns + finish_started.elapsed().as_nanos() as u64;
                let snapshot = step.checkpoint.then(|| app.snapshot());
                if obs_enabled.load(Ordering::Relaxed) {
                    if let Some(g) = &mut step_span {
                        g.attr("comm_ns", comm_ns.to_string());
                    }
                    // Close the span first so this step's own span is
                    // inside the delta shipped with its report.
                    step_span = None;
                    // Before StepDone on the same connection, so the
                    // driver absorbs the timings before the barrier
                    // completes and can stamp the superstep span.
                    send_obs_report(
                        &writer,
                        &obs_position,
                        e,
                        Some((superstep, compute_ns, comm_ns)),
                        step.echo,
                    )?;
                }
                writer.send(&WorkerMsg::StepDone {
                    epoch: e,
                    superstep,
                    active,
                    agg: agg_out,
                    snapshot: snapshot.as_deref(),
                })?;
            }
            DriverMsg::Restore {
                epoch: e,
                superstep: _,
                state,
            } => {
                // Recovery: adopt the new epoch unconditionally and
                // discard any half-finished superstep.
                pending = None;
                step_span = None;
                app.restore(state)?;
                epoch.store(e, Ordering::Relaxed);
                writer.send(&WorkerMsg::Ready {
                    epoch: e,
                    agg: app.ready_agg(),
                })?;
            }
            DriverMsg::Finish { epoch: e } => {
                if e != current {
                    continue;
                }
                writer.send(&WorkerMsg::Final {
                    epoch: e,
                    result: &app.final_result(),
                })?;
            }
            DriverMsg::Shutdown => return Ok(()),
            DriverMsg::Job { .. } | DriverMsg::Placement { .. } => {
                return Err(ClusterError::corrupt("a second Job or Placement frame"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GraphSource;
    use crate::transport::tests::{assert_stops_at_once, socket_pair};
    use crate::wire::decode_all;
    use bpart_core::{ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::VertexId;
    use std::borrow::Cow;
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;

    fn spec() -> JobSpec {
        JobSpec {
            graph: GraphSource::ErdosRenyi {
                n: 90,
                m: 400,
                seed: 3,
            },
            scheme: "hash".into(),
            parts: 3,
            app: AppSpec::ConnectedComponents,
            checkpoint_every: None,
        }
    }

    /// A real `run_worker` against a scripted driver: the job says `hash`,
    /// the placement is Chunk-V's, and the worker owns Chunk-V's vertices.
    /// CC's initial label of a vertex is its own id, so the `Final` of a
    /// run of no supersteps is the worker's vertex set itself.
    #[test]
    fn a_worker_owns_what_the_placement_says_not_what_the_scheme_would() {
        const MACHINE: u32 = 1;
        let spec = spec();
        let graph = spec.load_graph().unwrap();
        let chunk_v = ChunkV.partition(&graph, 3);
        let hash = HashPartitioner::default().partition(&graph, 3);
        assert_ne!(chunk_v.members(MACHINE), hash.members(MACHINE));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = WorkerConfig {
            connect: listener.local_addr().unwrap().to_string(),
            worker_id: MACHINE,
            key: 9,
            heartbeat: Duration::from_secs(10),
        };
        let worker = thread::spawn(move || run_worker(cfg));
        let (mut driver, _) = listener.accept().unwrap();
        let join = read_frame_blocking(&mut driver).unwrap();
        assert_eq!(
            WorkerMsg::from_frame(&join).unwrap(),
            WorkerMsg::Join {
                worker_id: MACHINE,
                key: 9
            }
        );
        for msg in [
            DriverMsg::Job {
                spec,
                machine: MACHINE,
            },
            DriverMsg::Placement {
                parts: 3,
                assignment: Cow::Borrowed(chunk_v.assignment()),
            },
            DriverMsg::Finish { epoch: 0 },
        ] {
            driver.write_all(&msg.to_frame().unwrap()).unwrap();
        }
        let ready = read_frame_blocking(&mut driver).unwrap();
        assert!(matches!(
            WorkerMsg::from_frame(&ready).unwrap(),
            WorkerMsg::Ready { epoch: 0, .. }
        ));
        let last = read_frame_blocking(&mut driver).unwrap();
        let WorkerMsg::Final { result, .. } = WorkerMsg::from_frame(&last).unwrap() else {
            panic!("expected Final");
        };
        assert_eq!(
            decode_all::<VertexId>(result).unwrap(),
            chunk_v.members(MACHINE)
        );
        driver
            .write_all(&DriverMsg::Shutdown.to_frame().unwrap())
            .unwrap();
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn a_placement_that_does_not_fit_the_job_or_the_graph_is_corrupt() {
        let spec = spec();
        let graph = || spec.load_graph().unwrap();
        for (parts, len) in [(3, 89), (3, 91), (2, 90), (0, 90)] {
            let err = placed_cluster(&spec, graph(), parts, vec![0; len]).unwrap_err();
            assert!(
                matches!(err, ClusterError::FrameCorrupt { .. }),
                "{parts} parts, {len} vertices: {err}"
            );
        }
        assert!(placed_cluster(&spec, graph(), 3, vec![2; 90]).is_ok());
    }

    #[test]
    fn obs_flush_pump_stops_mid_interval() {
        let (writer, _peer) = socket_pair();
        // Enabled, and ten seconds from its first report: only the stop
        // signal can end it.
        assert_stops_at_once(obs_flush_pump(
            writer,
            Arc::new(AtomicU32::new(0)),
            Arc::new(AtomicBool::new(true)),
            Arc::new(Mutex::new(ObsPosition::default())),
            Duration::from_secs(10),
        ));
    }
}

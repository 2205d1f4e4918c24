//! The supervised worker loop: one OS process playing one BSP machine.
//!
//! A worker is a frame-driven state machine. It connects to the driver
//! (with backoff), rebuilds its share of the job from the spec, then
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
    connect_with_backoff, read_frame_blocking, Backoff, HeartbeatPump, SharedWriter,
};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_obs::{federation, tracer};
use bpart_walker::apps::{DeepWalk, SimpleRandomWalk};
use bpart_walker::WalkApp;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
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

/// Builds the app-specific half of the worker, once, at `Job` time.
fn build_app(spec: &JobSpec, machine: usize) -> Result<Box<dyn Worker>, ClusterError> {
    let cluster = spec.build_cluster()?;
    let walk = |app: Box<dyn WalkApp>, seed: u64, per_vertex: u32| {
        Box::new(WalkWorker::new(
            app,
            cluster.clone(),
            machine,
            seed,
            per_vertex,
        ))
    };
    Ok(match spec.app {
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
    })
}

/// Report position shared between the protocol loop and the flush
/// thread: the next sequence number and the span-ring watermark (spans
/// already shipped).
#[derive(Debug, Default)]
struct ObsPosition {
    seq: u64,
    span_watermark: u64,
}

/// Builds one `ObsReport` from the current registry/ring state,
/// advancing the shared position. `step` is
/// `(superstep, compute_ns, comm_ns)`; `echo` is
/// `(driver sent_ns, worker recv_ns)` from the last observed
/// `StepBegin` (zeros = no clock sample).
fn build_obs_report(
    position: &Mutex<ObsPosition>,
    epoch: u32,
    step: Option<(u64, u64, u64)>,
    echo: (u64, u64),
) -> WorkerMsg {
    let mut pos = position.lock().unwrap_or_else(|e| e.into_inner());
    pos.seq += 1;
    let metrics = federation::MetricsSnapshot::capture().to_bytes();
    let spans = federation::encode_span_delta(&mut pos.span_watermark);
    let profile = bpart_obs::profile::render_folded().into_bytes();
    let (superstep, compute_ns, comm_ns) = step.unwrap_or((0, 0, 0));
    WorkerMsg::ObsReport {
        epoch,
        seq: pos.seq,
        superstep,
        has_step: step.is_some(),
        compute_ns,
        comm_ns,
        echo_ns: echo.0,
        recv_ns: echo.1,
        send_ns: tracer::now_ns(),
        metrics,
        spans,
        profile,
    }
}

/// Background obs flush: ships a timer-driven `ObsReport` while
/// collection is enabled, so a worker that later gets SIGKILLed still
/// left its last snapshot on the driver. Modeled on [`HeartbeatPump`];
/// stops (and joins) on drop.
struct ObsFlushPump {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsFlushPump {
    fn start(
        writer: SharedWriter,
        epoch: Arc<AtomicU32>,
        enabled: Arc<AtomicBool>,
        position: Arc<Mutex<ObsPosition>>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("obs-flush".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    thread::sleep(OBS_FLUSH_INTERVAL);
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if !enabled.load(Ordering::Relaxed) {
                        continue;
                    }
                    let msg =
                        build_obs_report(&position, epoch.load(Ordering::Relaxed), None, (0, 0));
                    let (kind, payload) = msg.to_frame();
                    if writer.send(kind, &payload).is_err() {
                        break; // driver gone; protocol loop will see it too
                    }
                }
            })
            .expect("spawn obs-flush thread");
        ObsFlushPump {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ObsFlushPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
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

    let send = |msg: &WorkerMsg| {
        let (kind, payload) = msg.to_frame();
        writer.send(kind, &payload)
    };
    send(&WorkerMsg::Join {
        worker_id: cfg.worker_id,
        key: cfg.key,
    })?;

    let epoch = Arc::new(AtomicU32::new(0));
    let _pump = HeartbeatPump::start(writer.clone(), Arc::clone(&epoch), cfg.heartbeat);

    // Obs federation state: armed by the first `StepBegin` carrying
    // `obs: true` (the driver's collection flag propagates here), off
    // otherwise so no-obs runs ship nothing.
    let obs_enabled = Arc::new(AtomicBool::new(false));
    let obs_position = Arc::new(Mutex::new(ObsPosition::default()));
    let _obs_pump = ObsFlushPump::start(
        writer.clone(),
        Arc::clone(&epoch),
        Arc::clone(&obs_enabled),
        Arc::clone(&obs_position),
    );

    // The job spec arrives first; everything local is rebuilt from it.
    let frame = read_frame_blocking(&mut reader)?;
    let DriverMsg::Job { spec, machine } = DriverMsg::from_frame(&frame)? else {
        return Err(ClusterError::corrupt("expected Job as the first frame"));
    };
    let mut app = build_app(&spec, machine as usize)?;
    send(&WorkerMsg::Ready {
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
                send(&WorkerMsg::StepData {
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
                    let report = build_obs_report(
                        &obs_position,
                        e,
                        Some((superstep, compute_ns, comm_ns)),
                        step.echo,
                    );
                    // Before StepDone on the same connection, so the
                    // driver absorbs the timings before the barrier
                    // completes and can stamp the superstep span.
                    send(&report)?;
                }
                send(&WorkerMsg::StepDone {
                    epoch: e,
                    superstep,
                    active,
                    agg: agg_out,
                    snapshot,
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
                app.restore(state.as_deref())?;
                epoch.store(e, Ordering::Relaxed);
                send(&WorkerMsg::Ready {
                    epoch: e,
                    agg: app.ready_agg(),
                })?;
            }
            DriverMsg::Finish { epoch: e } => {
                if e != current {
                    continue;
                }
                send(&WorkerMsg::Final {
                    epoch: e,
                    result: app.final_result(),
                })?;
            }
            DriverMsg::Shutdown => return Ok(()),
            DriverMsg::Job { .. } => {
                return Err(ClusterError::corrupt("unexpected second Job frame"));
            }
        }
    }
}

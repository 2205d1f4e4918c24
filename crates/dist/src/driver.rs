//! The driver: owns placement, superstep broadcast, barrier collection,
//! and worker supervision.
//!
//! ## Boot and teardown
//!
//! A job costs one graph load plus one partition, both here: the driver is
//! the only process that opens the job's graph source. It binds, spawns the
//! workers, takes their joins and sends each its `Job` *before* it loads
//! anything, so process start-up overlaps the load; then it partitions and
//! sends every worker its own `Placement` frame — who owns what, and the
//! adjacency of what that worker owns, encoded from the driver's graph
//! straight into the frame and dropped once sent (`run`). A worker holds
//! its part, not the graph. Teardown waits on events, not
//! on a clock: a worker that got `Shutdown` hangs up, its reader thread
//! reports the end of the stream, and the driver `wait()`s the child — one
//! deadline covers all workers, and whoever is still connected when it
//! passes is killed (`shutdown`).
//!
//! ## Supervision model
//!
//! Every worker connection gets a dedicated reader thread that stamps a
//! shared `last_seen` instant on *every* frame (heartbeats included) and
//! forwards protocol messages over one mpsc channel — all but the result
//! inside a `Final`, which the reader decodes into the job's [`Gather`]
//! while it arrives, 64 KiB at a time: the driver holds a result once, in
//! the order it is digested in, and never as a frame. A walk's paths are
//! there before its `Final`: every `StepData` brings the superstep's
//! triples, which the reader places once the frame passed its checksum.
//! The supervisor
//! (this module's single control thread) declares a worker dead only
//! when its `last_seen` is older than the heartbeat timeout — a closed
//! socket alone is not a verdict, so death detection is genuinely
//! heartbeat-based, not EOF-based. A worker that heartbeats but never
//! produces the awaited frame is declared dead when the per-RPC deadline
//! expires (it is wedged, which supervision treats the same way).
//!
//! ## Supersteps and recovery
//!
//! The superstep loop is not here: it is `bsp::run`, the loop the thread
//! backend runs too, and this module is its process transport
//! (`Supervised`). The loop decides when to checkpoint, which crash
//! fires, what a lost machine costs and where the run resumes; the
//! transport sends `StepBegin` (with the checkpoint flag), a `SIGKILL` for
//! each crash the loop fired, collects `StepData` — whose row-segment
//! counts, summed per sender and per receiver, are what the loop charges
//! for communication — sends each worker its `Inbox` and
//! collects `StepDone`, which brings the snapshot bytes the loop keeps and
//! the compute and exchange times the worker measured, the loop's record.
//!
//! To restore after a death the transport bumps the recovery *epoch*,
//! respawns the dead process (within `MAX_RESPAWNS`), sends it the job
//! spec and its slice again — encoded anew from the cluster the driver
//! keeps for the final gather, so no frame is retained for the occasion —
//! and sends `Restore` to every worker: either the snapshot bytes of the
//! loop's last checkpoint or `None` (re-initialize from the deterministic
//! initial state). Workers answer `Ready` under the new epoch; frames
//! stamped with an older epoch are discarded wherever they surface. The
//! path table of a walk rolls back with the run, truncated to the hops the
//! checkpoint had seen, and the run replays forward — bit-identically,
//! because every worker's state, RNG included, travels in the snapshot.

use crate::error::ClusterError;
use crate::frame::{self, Frame, PayloadReader};
use crate::proto::{kind, DriverMsg, Placement, RowSeg, WorkerMsg};
use crate::spec::{AppSpec, JobSpec};
use crate::step::WALK_FINAL_LEN;
use crate::transport::rpc_rtt_histogram;
use crate::wire::{path_triples, PATH_TRIPLE_LEN};
use crate::{digest_bytes, digest_paths, AppOutput};
use bpart_cluster::bsp::{self, Lost, Step, Stop, Traffic, Transport};
use bpart_cluster::{Cluster, FaultPlan, IterationRecord, MachineId};
use bpart_graph::{CsrGraph, VertexId};
use bpart_obs::{federation, tracer, SpanGuard};
use bpart_walker::{PathTable, WalkStarts};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Process-backend configuration.
#[derive(Clone, Debug)]
pub struct ProcessConfig {
    /// Worker process count; must equal the job's partition count.
    pub workers: usize,
    /// Command prefix that starts one worker (the driver appends
    /// `--connect/--worker-id/--key/--heartbeat-ms`).
    pub worker_cmd: Vec<String>,
    /// How often workers send heartbeats.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// Fault plan: each `crash@S:mM` clause becomes a real `SIGKILL` of
    /// worker `M` during superstep `S`.
    pub faults: FaultPlan,
}

impl ProcessConfig {
    /// Defaults for `workers` processes started by `worker_cmd`.
    pub fn new(workers: usize, worker_cmd: Vec<String>) -> Self {
        ProcessConfig {
            workers,
            worker_cmd,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(1500),
            faults: FaultPlan::default(),
        }
    }
}

/// What a reader thread saw on its connection.
struct Event {
    machine: usize,
    /// Which of the machine's connections this came from, so that what a
    /// dead incarnation's reader still had to say is not taken for its
    /// successor's.
    conn: u64,
    heard: Heard,
}

enum Heard {
    /// A frame that passed its checksum. A `Final` comes as its envelope —
    /// the epoch and an empty result: what it carried is in the [`Gather`].
    Frame(Frame),
    /// The stream ended (the worker hung up, died, or garbled a frame) —
    /// the reader's last word.
    Ended,
    /// A `Final` or a superstep's path triples the gather refused, or a
    /// `Final` that failed its checksum after it was placed: the result is
    /// unusable and the run over. Also the reader's last word.
    BadResult(ClusterError),
}

/// Where the workers' results land: the job's result in the order it is
/// digested in, filled by the reader threads while the results arrive.
#[derive(Default)]
struct Gather {
    /// `None` until `run` has a cluster: a result nobody asked for has
    /// nowhere to go.
    sink: Mutex<Option<Sink>>,
}

struct Sink {
    cluster: Cluster,
    gathered: Gathered,
    /// The recovery epoch whose path triples are taken: what a superstep
    /// abandoned by a rollback still had on the wire is not placed.
    epoch: u32,
}

enum Gathered {
    /// An iteration app's values in global vertex order and in wire form,
    /// `width` bytes each: the bytes `digest_wire` would encode them to.
    Values { width: usize, bytes: Vec<u8> },
    /// A walk app's paths.
    Paths(PathTable),
}

impl Gathered {
    fn new(app: &AppSpec, n: usize) -> Gathered {
        let values = |width: usize| Gathered::Values {
            width,
            bytes: vec![0; n * width],
        };
        match *app {
            // As `Wire` writes a rank and a component label.
            AppSpec::PageRank { .. } => values(std::mem::size_of::<f64>()),
            AppSpec::ConnectedComponents => values(std::mem::size_of::<VertexId>()),
            AppSpec::DeepWalk {
                walk_len,
                per_vertex,
                ..
            } => {
                let starts = WalkStarts::PerVertex(per_vertex);
                Gathered::Paths(PathTable::of_starts(&starts, n, walk_len))
            }
        }
    }
}

impl Gather {
    fn sink(&self) -> std::sync::MutexGuard<'_, Option<Sink>> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Places the path triples a worker sent with a superstep of `epoch`:
    /// `paths` as a verified `StepData` frame held them.
    fn place_paths(&self, epoch: u32, paths: &[u8]) -> Result<(), ClusterError> {
        if paths.is_empty() {
            return Ok(());
        }
        let mut sink = self.sink();
        let Some(Sink {
            gathered: Gathered::Paths(table),
            epoch: current,
            ..
        }) = sink.as_mut()
        else {
            return Err(ClusterError::corrupt("path triples nobody asked for"));
        };
        if epoch != *current {
            return Ok(()); // pre-recovery leftover
        }
        let whole = paths.len() - paths.len() % PATH_TRIPLE_LEN;
        frame::check_len("path triples", paths.len(), whole)?;
        path_triples(paths)
            .try_for_each(|(id, step, v)| table.place(id, step, v))
            .map_err(|e| ClusterError::corrupt(e.to_string()))
    }

    /// Enters recovery epoch `epoch`, resuming at `superstep`: a walk's
    /// paths lose the hops of every later superstep — the replay brings
    /// them again — and what still arrives under an older epoch is dropped.
    fn roll_back(&self, epoch: u32, superstep: u64) {
        if let Some(sink) = self.sink().as_mut() {
            sink.epoch = epoch;
            if let Gathered::Paths(table) = &mut sink.gathered {
                table.truncate(superstep as u32);
            }
        }
    }

    /// Decodes the `Final` that `payload` is into the sink, a piece at a
    /// time (pieces are cut at multiples of [`frame::CHUNK`], so none
    /// splits a value), and returns its epoch. What it placed is
    /// unverified until `payload.finish()` has passed.
    fn receive(
        &self,
        machine: usize,
        payload: &mut PayloadReader<impl Read>,
    ) -> Result<u32, ClusterError> {
        let epoch = payload.u32()?;
        let len = payload.u32()? as usize;
        let mut at = 0;
        loop {
            let piece = payload.piece(len - at)?;
            let mut sink = self.sink();
            let Sink {
                cluster, gathered, ..
            } = sink
                .as_mut()
                .ok_or_else(|| ClusterError::corrupt("a Final nobody asked for"))?;
            let members = cluster.local_vertices(machine as MachineId);
            // The one check of a result's length, ahead of its first byte
            // (and, for nothing, of every later piece): a value for each
            // of the machine's vertices, or a walk's two counters — its
            // paths came with the supersteps.
            let whole = match gathered {
                Gathered::Values { width, .. } => members.len() * *width,
                Gathered::Paths(_) => WALK_FINAL_LEN,
            };
            frame::check_len(format_args!("worker {machine} final"), len, whole)?;
            if let Gathered::Values { width, bytes } = gathered {
                let values = piece.chunks_exact(*width).zip(&members[at / *width..]);
                for (value, &v) in values {
                    bytes[v as usize * *width..][..*width].copy_from_slice(value);
                }
            }
            at += piece.len();
            if at == len {
                return Ok(epoch);
            }
        }
    }

    /// The digest of the gathered result. Called once every machine's
    /// `Final` has passed its checksum, and not before.
    fn digest(&self) -> Result<u64, ClusterError> {
        let sink = self.sink().take();
        match sink.map(|sink| sink.gathered) {
            Some(Gathered::Values { bytes, .. }) => Ok(digest_bytes(&bytes)),
            Some(Gathered::Paths(table)) => {
                let sealed = table.seal();
                sealed.map_err(|e| ClusterError::corrupt(e.to_string()))?;
                Ok(digest_paths(&table))
            }
            None => Err(ClusterError::unrecoverable("no result was gathered")),
        }
    }
}

/// One worker process slot.
struct Slot {
    child: Option<Child>,
    writer: Option<TcpStream>,
    /// Counts the connections registered for this machine.
    conn: u64,
    /// The current connection's reader reported the end of its stream:
    /// the worker hung up (it is exiting, or dead already).
    hung_up: bool,
    last_seen: Arc<Mutex<Instant>>,
    spare: Arc<Spare>,
}

/// Payload buffers of a machine's last `StepData` and `StepDone`, handed
/// back by the supervisor for the reader to read the next ones into: a
/// superstep's frame lands in pages the one before already faulted in.
struct Spare([Mutex<Vec<u8>>; 2]);

impl Spare {
    const KINDS: [u8; 2] = [kind::STEP_DATA, kind::STEP_DONE];

    /// Each buffer's first allocation is made here, by the supervisor, on
    /// purpose: an allocation grows in the heap it was made in, whichever
    /// thread grows it, so a job's largest buffers live and die in the
    /// supervisor's heap, which gives freed pages back, and not in the
    /// malloc arenas of that job's reader threads, which glibc keeps
    /// (results/history/experiments-pr01-42.md "Walkers, not history").
    fn new() -> Spare {
        Spare(Self::KINDS.map(|_| Mutex::new(Vec::with_capacity(frame::CHUNK))))
    }

    /// Leaves `buf` where the buffer for frames of `kind` is kept and
    /// returns what was there; a kind none is kept for gets `buf` back.
    fn swap(&self, kind: u8, buf: Vec<u8>) -> Vec<u8> {
        let Some(at) = Self::KINDS.iter().position(|&k| k == kind) else {
            return buf;
        };
        let mut kept = self.0[at].lock().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut kept, buf)
    }
}

/// What waiting on the workers comes to: the awaited frame of every
/// machine, in machine order, or the machines declared dead meanwhile.
type Collected = Result<Vec<Frame>, Stop<(), ClusterError>>;

/// The error a death past recovery ends the run with: the first machine
/// `lost` at `superstep`.
fn worker_dead(superstep: usize, stop: Stop<(), ClusterError>) -> ClusterError {
    match stop {
        Stop::Lost(lost) => ClusterError::WorkerDead {
            worker: lost.machines[0],
            superstep: superstep as u64,
        },
        Stop::Failed(e) => e,
    }
}

/// Views collected frames through `pick`. `collect` keeps a frame only if
/// its caller's filter took it, so a `None` here is a bug in this file.
fn views<'f, T>(
    frames: &'f [Frame],
    pick: impl Fn(WorkerMsg<'f>) -> Option<T>,
) -> Result<Vec<T>, ClusterError> {
    frames
        .iter()
        .map(|frame| Ok(pick(WorkerMsg::from_frame(frame)?).expect("collect filtered on this")))
        .collect()
}

fn ready_aggs(frames: &[Frame]) -> Result<Vec<f64>, ClusterError> {
    views(frames, |msg| match msg {
        WorkerMsg::Ready { agg, .. } => Some(agg),
        _ => None,
    })
}

fn is_ready(msg: &WorkerMsg<'_>) -> bool {
    matches!(msg, WorkerMsg::Ready { .. })
}

/// How long `shutdown` gives the workers to hang up before it kills them.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// A worker that heartbeats but sends no awaited frame for this long is dead.
const RPC_DEADLINE: Duration = Duration::from_secs(30);
/// For joins and `Ready`s, each of which follows a cluster build.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
/// Respawns allowed across a run.
const MAX_RESPAWNS: u64 = 3;

struct Driver {
    spec: JobSpec,
    cfg: ProcessConfig,
    addr: String,
    key: u64,
    acceptor_stop: Arc<AtomicBool>,
    slots: Vec<Slot>,
    events: Receiver<Event>,
    _events_tx: Sender<Event>,
    gather: Arc<Gather>,
    joins: Receiver<(u32, TcpStream)>,
    epoch: u32,
}

/// Runs `spec` on the process backend.
pub fn run_process(spec: &JobSpec, cfg: &ProcessConfig) -> Result<AppOutput, ClusterError> {
    if cfg.workers != spec.parts as usize {
        return Err(ClusterError::unrecoverable(format!(
            "worker count {} must equal partition count {}",
            cfg.workers, spec.parts
        )));
    }
    if cfg.worker_cmd.is_empty() {
        return Err(ClusterError::unrecoverable("empty worker command"));
    }
    // A scheme nobody knows is the caller's mistake: say so before a
    // process is spawned for it.
    spec.scheme()?;
    // So is a graph the job does not fit (more parts than vertices, a walk
    // whose paths cannot be held).
    let graph = spec.load_graph()?;
    let mut driver = Driver::start(spec.clone(), cfg.clone())?;
    let mut out = driver.run(graph);
    // Each worker's last report — what it held — comes with its goodbye.
    driver.shutdown();
    if let Ok(out) = &mut out {
        out.peak_rss_bytes = worker_peaks(cfg.workers);
    }
    out
}

/// Every worker's `proc.peak_rss_bytes`, if every worker reported one.
fn worker_peaks(workers: usize) -> Vec<u64> {
    let store = federation::global();
    let peak = |m| {
        let gauges = &store.workers.get(&(m as u32))?.snapshot.metrics.gauges;
        Some(*gauges.get("proc.peak_rss_bytes")? as u64)
    };
    let peaks: Option<Vec<u64>> = (0..workers).map(peak).collect();
    peaks.unwrap_or_default()
}

impl Driver {
    /// Binds, spawns the workers, takes their joins and hands each its
    /// `Job`. Nothing is partitioned here: `run` partitions while the
    /// worker processes finish starting up.
    fn start(spec: JobSpec, cfg: ProcessConfig) -> Result<Driver, ClusterError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ClusterError::from_io("bind driver socket", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::from_io("driver address", &e))?
            .to_string();
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .subsec_nanos() as u64;
        let key = (nanos << 32) | std::process::id() as u64;

        let (events_tx, events) = channel::<Event>();
        let (join_tx, joins) = channel::<(u32, TcpStream)>();
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        spawn_acceptor(listener, Arc::clone(&acceptor_stop), key, join_tx);

        let k = cfg.workers;
        let mut driver = Driver {
            spec,
            cfg,
            addr,
            key,
            acceptor_stop,
            slots: (0..k)
                .map(|_| Slot {
                    child: None,
                    writer: None,
                    conn: 0,
                    hung_up: false,
                    last_seen: Arc::new(Mutex::new(Instant::now())),
                    spare: Arc::new(Spare::new()),
                })
                .collect(),
            events,
            _events_tx: events_tx,
            gather: Arc::default(),
            joins,
            epoch: 0,
        };

        if federation::collection_enabled() {
            // The structured /healthz body, which counts the workers, only
            // replaces the plain "ok" on obs runs.
            federation::global().cluster_size = k;
        }

        for m in 0..k {
            driver.spawn_worker(m)?;
        }
        driver.wait_joins((0..k).collect())?;
        for m in 0..k {
            driver.send_job(m)?;
        }
        Ok(driver)
    }

    fn spawn_worker(&mut self, m: usize) -> Result<(), ClusterError> {
        let cmd = &self.cfg.worker_cmd;
        let child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .arg("--connect")
            .arg(&self.addr)
            .arg("--worker-id")
            .arg(m.to_string())
            .arg("--key")
            .arg(self.key.to_string())
            .arg("--heartbeat-ms")
            .arg(self.cfg.heartbeat_interval.as_millis().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| ClusterError::unrecoverable(format!("spawn worker {m}: {e}")))?;
        let slot = &mut self.slots[m];
        slot.child = Some(child);
        // A fresh child has no connection yet, so none that hung up.
        slot.writer = None;
        slot.hung_up = false;
        Ok(())
    }

    /// Waits until every machine in `expect` has joined, registering
    /// connections (and reader threads) as they arrive.
    fn wait_joins(&mut self, mut expect: Vec<usize>) -> Result<(), ClusterError> {
        let deadline = Instant::now() + SETUP_DEADLINE;
        while !expect.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout {
                    what: format!("join from workers {expect:?}"),
                });
            }
            match self
                .joins
                .recv_timeout(remaining.min(Duration::from_millis(100)))
            {
                Ok((worker_id, stream)) => {
                    let m = worker_id as usize;
                    if let Some(pos) = expect.iter().position(|&e| e == m) {
                        expect.swap_remove(pos);
                        self.register_conn(m, stream);
                    }
                    // A join for a machine we are not waiting on is a
                    // zombie from a previous incarnation; drop it.
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::unrecoverable("acceptor thread exited"));
                }
            }
        }
        Ok(())
    }

    fn register_conn(&mut self, m: usize, stream: TcpStream) {
        *self.slots[m]
            .last_seen
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Instant::now();
        let reader = stream.try_clone().ok();
        self.slots[m].writer = Some(stream);
        self.slots[m].conn += 1;
        self.slots[m].hung_up = false;
        if let Some(reader) = reader {
            spawn_reader(
                m,
                self.slots[m].conn,
                reader,
                self._events_tx.clone(),
                Arc::clone(&self.gather),
                Arc::clone(&self.slots[m].last_seen),
                Arc::clone(&self.slots[m].spare),
            );
        }
    }

    /// Best-effort write of one encoded frame; a broken pipe is not a
    /// verdict (the heartbeat supervisor will reach one).
    fn send_frame(&self, m: usize, frame: &[u8]) {
        if let Some(mut w) = self.slots[m].writer.as_ref() {
            let _ = w.write_all(frame);
        }
    }

    /// Encodes and sends; the error is the encoder's (a payload over
    /// `MAX_PAYLOAD`), never the socket's.
    fn send_to(&self, m: usize, msg: &DriverMsg<'_>) -> Result<(), ClusterError> {
        self.send_frame(m, &msg.to_frame()?);
        Ok(())
    }

    /// Encodes once, sends to every worker.
    fn broadcast(&self, msg: &DriverMsg<'_>) -> Result<(), ClusterError> {
        let frame = msg.to_frame()?;
        for m in 0..self.cfg.workers {
            self.send_frame(m, &frame);
        }
        Ok(())
    }

    fn send_job(&self, m: usize) -> Result<(), ClusterError> {
        self.send_to(
            m,
            &DriverMsg::Job {
                spec: self.spec.clone(),
                machine: m as u32,
            },
        )
    }

    /// Sends machine `m` its placement: the partition and its slice of the
    /// graph, written from `cluster` to the socket a piece at a time. Best
    /// effort like every send: only the encoder's error is returned.
    fn send_placement(&self, m: usize, cluster: &Cluster) -> Result<(), ClusterError> {
        let in_lists = self.spec.app.uses_in_edges();
        let Some(mut stream) = self.slots[m].writer.as_ref() else {
            return Ok(());
        };
        match Placement::of(cluster, m as MachineId, in_lists).write_to(&mut stream) {
            Err(ClusterError::ConnReset { .. } | ClusterError::Timeout { .. }) => Ok(()),
            sent => sent,
        }
    }

    /// Hands the payload buffers of a barrier's frames (machine order) back
    /// to the readers they came from.
    fn recycle(&self, frames: Vec<Frame>) {
        for (slot, frame) in self.slots.iter().zip(frames) {
            slot.spare.swap(frame.kind, frame.payload);
        }
    }

    fn elapsed_since_seen(&self, m: usize) -> Duration {
        self.slots[m]
            .last_seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .elapsed()
    }

    /// Waits until every machine has sent a frame `wanted` takes, and
    /// returns those frames. Heartbeats refresh liveness as a side effect
    /// of the reader threads; stale-epoch frames are discarded here. A
    /// frame that passed its checksum and still does not decode is not a
    /// fault to recover from: it fails the run as `FrameCorrupt`.
    fn collect(
        &mut self,
        what: &str,
        deadline: Duration,
        wanted: impl Fn(&WorkerMsg<'_>) -> bool,
    ) -> Collected {
        let k = self.cfg.workers;
        let deadline_at = Instant::now() + deadline;
        let mut out: Vec<Option<Frame>> = (0..k).map(|_| None).collect();
        let mut got = 0usize;
        loop {
            if got == k {
                return Ok(out.into_iter().map(|t| t.expect("collected")).collect());
            }
            // A wake-on-event wait: the timeout only bounds how stale the
            // liveness check below can get while nothing arrives.
            match self.events.recv_timeout(Duration::from_millis(25)) {
                Ok(Event {
                    machine,
                    conn,
                    heard: Heard::Frame(frame),
                }) => {
                    if conn != self.slots[machine].conn {
                        continue; // a replaced incarnation's leftovers
                    }
                    let msg = WorkerMsg::from_frame(&frame)?;
                    if matches!(msg, WorkerMsg::Heartbeat { .. }) {
                        continue;
                    }
                    if matches!(msg, WorkerMsg::ObsReport { .. }) {
                        // Out-of-band telemetry: absorbed before the
                        // stale-epoch drop (a pre-death report is still
                        // the freshest view of that worker) and never
                        // counted toward any barrier.
                        self.absorb_obs_report(machine, msg);
                        continue;
                    }
                    if msg_epoch(&msg).is_some_and(|e| e != self.epoch) {
                        continue; // pre-recovery leftover
                    }
                    if out[machine].is_none() && wanted(&msg) {
                        out[machine] = Some(frame);
                        got += 1;
                    }
                }
                // A connection error is noted but not sentenced: the
                // heartbeat check below is the only judge of death.
                Ok(Event {
                    machine,
                    conn,
                    heard: Heard::Ended,
                }) => self.note_hang_up(machine, conn),
                // Part of the result is not what a worker computed: no
                // recovery replays a gather.
                Ok(Event {
                    heard: Heard::BadResult(e),
                    ..
                }) => return Err(e.into()),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::unrecoverable("event channel closed").into());
                }
            }
            let dead: Vec<usize> = (0..k)
                .filter(|&m| {
                    out[m].is_none() && self.elapsed_since_seen(m) > self.cfg.heartbeat_timeout
                })
                .collect();
            if !dead.is_empty() {
                return Err(lost(dead));
            }
            if Instant::now() > deadline_at {
                // Still heartbeating but wedged: the per-RPC deadline
                // converts "no progress" into the same verdict.
                let dead: Vec<usize> = (0..k).filter(|&m| out[m].is_none()).collect();
                if dead.is_empty() {
                    let what = what.to_string();
                    return Err(ClusterError::Timeout { what }.into());
                }
                return Err(lost(dead));
            }
        }
    }

    /// Folds one worker `ObsReport` into the global federation store:
    /// NTP-style clock sample from the `StepBegin` echo, then the
    /// snapshot.
    fn absorb_obs_report(&mut self, machine: usize, msg: WorkerMsg<'_>) {
        let WorkerMsg::ObsReport {
            epoch,
            seq,
            echo_ns,
            recv_ns,
            send_ns,
            snapshot,
        } = msg
        else {
            return;
        };
        if !federation::collection_enabled() {
            return;
        }
        let t3 = tracer::now_ns();
        let mut store = federation::global();
        if echo_ns != 0 {
            // t0=echo_ns (driver send), t1=recv_ns (worker recv),
            // t2=send_ns (worker send), t3 (driver recv):
            // rtt = (t3-t0) - (t2-t1), offset = ((t1-t0)+(t2-t3))/2
            // with offset = worker clock - driver clock.
            let rtt = t3
                .saturating_sub(echo_ns)
                .saturating_sub(send_ns.saturating_sub(recv_ns));
            let offset = ((recv_ns as i128 - echo_ns as i128) + (send_ns as i128 - t3 as i128)) / 2;
            rpc_rtt_histogram().observe(rtt as f64);
            store.record_clock_sample(
                machine as u32,
                rtt,
                offset.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            );
        }
        store.absorb(machine as u32, epoch, seq, snapshot);
    }

    /// Respawns worker `m` and hands it what every worker was told at
    /// boot, in the same order: the newcomer owns, and holds, what its
    /// predecessor did.
    fn respawn(&mut self, m: usize, cluster: &Cluster) -> Result<(), ClusterError> {
        if let Some(mut child) = self.slots[m].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.spawn_worker(m)?;
        self.wait_joins(vec![m])?;
        self.send_job(m)?;
        self.send_placement(m, cluster)
    }

    fn run(&mut self, graph: CsrGraph) -> Result<AppOutput, ClusterError> {
        // The workers have had their `Job` since `start` and wait for
        // their slices; this is the one partitioner run of the whole job.
        let cluster = self.spec.cluster_on(graph)?;
        for m in 0..self.cfg.workers {
            self.send_placement(m, &cluster)?;
        }
        // Where the result gathers: a walk's paths from its first superstep
        // on, an iteration app's values once it is asked to finish.
        *self.gather.sink() = Some(Sink {
            gathered: Gathered::new(&self.spec.app, cluster.graph().num_vertices()),
            cluster: cluster.clone(),
            epoch: self.epoch,
        });

        // Initial `Ready`: aggregate parts (iteration) or queue lengths
        // (walks), computed from the deterministic initial state.
        let ready = self.collect("initial Ready", SETUP_DEADLINE, is_ready);
        let ready = ready_aggs(&ready.map_err(|stop| worker_dead(0, stop))?)?;
        let faults = self.cfg.faults.clone();
        let every = self.spec.checkpoint_every.map(|e| e as usize);
        let mut supervised = Supervised {
            driver: self,
            cluster: &cluster,
            superstep: 0,
            agg: 0.0,
            active: None,
            killed: Vec::new(),
            step_data: Vec::new(),
            snapshots: Vec::new(),
            comm: Vec::new(),
            respawns: 0,
        };
        supervised.ready(&ready);
        let (telemetry, supersteps) = bsp::run(&faults, every, &mut supervised)?;
        let respawns = supervised.respawns;

        // ---- gather final results -----------------------------------------
        // The reader threads decode each `Final` into the sink while it
        // arrives; what reaches `collect` is its envelope, sent only after
        // the frame passed its checksum.
        // The run is already past its last barrier; a death here cannot be
        // replayed into the gather, so it is terminal.
        self.broadcast(&DriverMsg::Finish { epoch: self.epoch })?;
        let is_final = |msg: &WorkerMsg<'_>| matches!(msg, WorkerMsg::Final { .. });
        let finals = self.collect("Final", RPC_DEADLINE, is_final);
        finals.map_err(|stop| worker_dead(supersteps, stop))?;

        // Every machine's result is in and verified: now it may be read.
        let digest = self.gather.digest()?;
        Ok(AppOutput::of_loop(
            cluster, digest, supersteps, &telemetry, None, respawns,
        ))
    }

    /// The reader of `machine`'s connection `conn` reported the end of its
    /// stream. Only the current connection's word counts.
    fn note_hang_up(&mut self, machine: usize, conn: u64) {
        let slot = &mut self.slots[machine];
        slot.hung_up |= conn == slot.conn;
    }

    /// Clean teardown: ask the workers to exit, wait for each to hang up —
    /// its reader thread reports the end of the stream — and reap them.
    /// Whoever is still connected when the one deadline passes is killed.
    fn shutdown(&mut self) {
        let _ = self.broadcast(&DriverMsg::Shutdown);
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while self.slots.iter().any(|s| s.writer.is_some() && !s.hung_up) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(remaining) {
                Ok(Event {
                    machine,
                    conn,
                    heard: Heard::Frame(frame),
                }) => {
                    // Heartbeats, late frames — and a worker's last report.
                    let current = conn == self.slots[machine].conn;
                    if let (true, Ok(msg)) = (current, WorkerMsg::from_frame(&frame)) {
                        self.absorb_obs_report(machine, msg);
                    }
                }
                Ok(Event { machine, conn, .. }) => self.note_hang_up(machine, conn),
                Err(_) => break,
            }
        }
        self.reap();
    }

    /// Waits for every child — a plain `wait` for one that hung up (it is
    /// on its way out), a kill first for any other — then wakes the
    /// acceptor so its thread ends with the run.
    fn reap(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                if !slot.hung_up {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
        self.acceptor_stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(&self.addr);
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The machines `dead` names, lost.
fn lost(dead: Vec<usize>) -> Stop<(), ClusterError> {
    Stop::lost(dead.into_iter().map(|m| m as MachineId).collect(), None, ())
}

/// `stop`, naming beside the workers whose heartbeats stopped every worker
/// the superstep `killed` and has not yet been blamed for: the driver knows
/// its own kills, however far apart their last heartbeats were.
fn blame(killed: &mut Vec<MachineId>, stop: Stop<(), ClusterError>) -> Stop<(), ClusterError> {
    let Stop::Lost(mut lost) = stop else {
        return stop;
    };
    lost.machines.append(killed);
    lost.machines.sort_unstable();
    lost.machines.dedup();
    Stop::Lost(lost)
}

/// The process transport of the superstep loop: its machines are the
/// worker processes. Where the simulator's records hold modelled units,
/// these hold the seconds the workers measured, which every `StepDone`
/// brings, and checkpoints and restores are charged nothing.
struct Supervised<'d> {
    driver: &'d mut Driver,
    cluster: &'d Cluster,
    /// The superstep running.
    superstep: usize,
    /// The workers the running superstep `SIGKILL`ed, until a loss names
    /// them.
    killed: Vec<MachineId>,
    /// The global aggregate the next superstep starts from.
    agg: f64,
    /// What the last barrier left active — walkers in flight (a walk app),
    /// vertices (an iteration app) — where the workers said.
    active: Option<u64>,
    /// The running superstep's `StepData` frames, between its barriers.
    step_data: Vec<Frame>,
    /// What the last `StepDone`s brought: each worker's snapshot bytes, and
    /// the exchange seconds it measured.
    snapshots: Vec<Option<Vec<u8>>>,
    comm: Vec<f64>,
    /// Workers respawned, against `MAX_RESPAWNS`.
    respawns: u64,
}

impl Supervised<'_> {
    /// Takes the workers' `Ready` aggregates: the global aggregate
    /// (iteration) or the walkers in flight (walk) of the state they are in.
    fn ready(&mut self, aggs: &[f64]) {
        self.agg = aggs.iter().sum();
        let walkers = aggs.iter().map(|&a| a as u64).sum();
        self.active = self.driver.spec.app.is_walk().then_some(walkers);
    }
}

impl Transport for Supervised<'_> {
    /// Each worker's snapshot bytes, in machine order.
    type Snapshot = Vec<Vec<u8>>;
    type Why = ();
    type Error = ClusterError;

    fn machines(&self) -> usize {
        self.driver.cfg.workers
    }

    fn open(&mut self, superstep: usize) -> Option<SpanGuard> {
        bpart_obs::metrics::gauge("dist.progress_superstep").set(superstep as f64);
        let capped =
            matches!(self.driver.spec.app, AppSpec::PageRank { iters } if superstep >= iters);
        if capped || self.active == Some(0) {
            return None;
        }
        self.superstep = superstep;
        // An exported trace nests each worker's `worker.superstep` of the
        // same epoch and superstep under this span.
        let mut span = tracer::span("cluster.superstep");
        span.attr("superstep", superstep);
        span.attr("epoch", self.driver.epoch);
        Some(span)
    }

    /// `StepBegin`, then a `SIGKILL` for each crash — mid-superstep, like
    /// the simulator's barrier crashes — then every `StepData`.
    fn compute(
        &mut self,
        superstep: usize,
        crashes: &[MachineId],
        checkpoint: bool,
        _span: &mut SpanGuard,
    ) -> Step<(Vec<f64>, Traffic), Self> {
        let d = &mut *self.driver;
        let (k, step) = (d.cfg.workers, superstep as u64);
        d.broadcast(&DriverMsg::StepBegin {
            epoch: d.epoch,
            superstep: step,
            agg: self.agg,
            checkpoint,
            sent_ns: tracer::now_ns(),
            obs: federation::collection_enabled(),
        })?;
        for &m in crashes {
            if let Some(child) = &mut d.slots[m as usize].child {
                let _ = child.kill();
            }
        }
        self.killed = crashes.to_vec();
        let step_data = d.collect(
            "StepData",
            RPC_DEADLINE,
            |msg| matches!(msg, WorkerMsg::StepData { superstep: s, .. } if *s == step),
        );
        self.step_data = step_data.map_err(|stop| blame(&mut self.killed, stop))?;
        let (mut sent, mut received) = (vec![0u64; k], vec![0u64; k]);
        for (from, row) in step_rows(&self.step_data, k)?.iter().enumerate() {
            for (to, seg) in row.iter().enumerate() {
                sent[from] += seg.count as u64;
                received[to] += seg.count as u64;
            }
        }
        Ok((vec![0.0; k], (sent, received)))
    }

    /// Every worker's `Inbox` — the row segments addressed to it, in sender
    /// order, each copied once from the `StepData` frame it arrived in —
    /// then every `StepDone`. Returns the compute seconds they brought.
    fn deliver(&mut self, superstep: usize) -> Step<Vec<f64>, Self> {
        let d = &mut *self.driver;
        let (k, step) = (d.cfg.workers, superstep as u64);
        let step_data = std::mem::take(&mut self.step_data);
        let rows = step_rows(&step_data, k)?;
        for to in 0..k {
            let rows = rows.iter().map(|row| row[to].clone()).collect();
            d.send_to(
                to,
                &DriverMsg::Inbox {
                    epoch: d.epoch,
                    superstep: step,
                    rows,
                },
            )?;
        }
        // The superstep's rows are on their way; the buffers they came in
        // take the next superstep's.
        drop(rows);
        d.recycle(step_data);

        let step_done = d.collect(
            "StepDone",
            RPC_DEADLINE,
            |msg| matches!(msg, WorkerMsg::StepDone { superstep: s, .. } if *s == step),
        );
        let step_done = step_done.map_err(|stop| blame(&mut self.killed, stop))?;
        let done = views(&step_done, |msg| match msg {
            WorkerMsg::StepDone {
                active,
                agg,
                compute_ns,
                comm_ns,
                snapshot,
                ..
            } => Some((active, agg, compute_ns, comm_ns, snapshot)),
            _ => None,
        })?;
        let seconds = |ns: u64| ns as f64 / 1e9;
        self.active = Some(done.iter().map(|&(active, ..)| active).sum());
        if !d.spec.app.is_walk() {
            self.agg = done.iter().map(|&(_, agg, ..)| agg).sum();
        }
        let compute = done.iter().map(|&(_, _, ns, ..)| seconds(ns)).collect();
        self.comm = done.iter().map(|&(.., ns, _)| seconds(ns)).collect();
        // A checkpoint outlives the frames it came in.
        self.snapshots = done
            .iter()
            .map(|(.., snap)| snap.map(<[u8]>::to_vec))
            .collect();
        d.recycle(step_done);
        if federation::collection_enabled() {
            let mut store = federation::global();
            (0..k as u32).for_each(|m| store.finished(m, step));
        }
        Ok(compute)
    }

    fn snapshot(&mut self) -> Result<(Self::Snapshot, Vec<f64>), ClusterError> {
        let mut states = Vec::with_capacity(self.snapshots.len());
        for (m, snap) in std::mem::take(&mut self.snapshots).into_iter().enumerate() {
            let omitted =
                || ClusterError::corrupt(format!("worker {m} omitted requested snapshot"));
            states.push(snap.ok_or_else(omitted)?);
        }
        bpart_obs::metrics::counter("dist.checkpoints").inc();
        Ok((states, vec![0.0; self.driver.cfg.workers]))
    }

    fn comm(&self, _sent: &[u64], _received: &[u64]) -> Vec<f64> {
        self.comm.clone()
    }

    /// Respawns each lost worker within the respawn budget, then sends
    /// `Restore` to every worker — survivors included, so the replay is
    /// globally consistent — and waits for their `Ready`.
    fn restore(
        &mut self,
        superstep: usize,
        snapshot: Option<&Self::Snapshot>,
        lost: &[MachineId],
    ) -> Step<f64, Self> {
        let d = &mut *self.driver;
        let obs = federation::collection_enabled();
        if obs {
            let mut store = federation::global();
            store.recovering = true;
            lost.iter().for_each(|&m| store.mark_dead(m));
        }
        d.epoch += 1;
        d.gather.roll_back(d.epoch, superstep as u64);
        for &m in lost {
            if self.respawns >= MAX_RESPAWNS {
                let (worker, superstep) = (m, self.superstep as u64);
                return Err(ClusterError::WorkerDead { worker, superstep }.into());
            }
            self.respawns += 1;
            bpart_obs::metrics::counter("dist.respawns").inc();
            d.respawn(m as usize, self.cluster)?;
        }
        for m in 0..d.cfg.workers {
            let state = snapshot.map(|s| &s[m][..]);
            let (epoch, superstep) = (d.epoch, superstep as u64);
            d.send_to(
                m,
                &DriverMsg::Restore {
                    epoch,
                    superstep,
                    state,
                },
            )?;
        }
        let ready = d.collect("Ready after restore", SETUP_DEADLINE, is_ready)?;
        if obs {
            federation::global().recovering = false;
        }
        self.ready(&ready_aggs(&ready)?);
        Ok(0.0)
    }

    /// Keeps the `dist.*` recovery counters live, each registered once a
    /// recovery makes it mean something.
    fn recorded(&mut self, record: &IterationRecord) {
        let counter = bpart_obs::metrics::counter;
        if record.crashed > 0 {
            counter("dist.worker_deaths").add(record.crashed);
            counter("dist.recoveries").inc();
        }
        if record.crashed > 0 || record.replay {
            counter("dist.replayed_supersteps").add(record.replay as u64);
        }
    }

    fn unrecoverable(&mut self, superstep: usize, lost: Lost<()>) -> ClusterError {
        worker_dead(superstep, Stop::Lost(lost))
    }
}

/// The row segments of a superstep's `StepData` frames, as they lie in
/// them: `k` per worker, or the frame is corrupt.
fn step_rows(frames: &[Frame], k: usize) -> Result<Vec<Vec<RowSeg<'_>>>, ClusterError> {
    let rows = views(frames, |msg| match msg {
        WorkerMsg::StepData { rows, .. } => Some(rows),
        _ => None,
    })?;
    if let Some((from, row)) = rows.iter().enumerate().find(|(_, row)| row.len() != k) {
        let n = row.len();
        let error = format!("worker {from} sent {n} row segments, expected {k}");
        return Err(ClusterError::corrupt(error));
    }
    Ok(rows)
}

fn msg_epoch(msg: &WorkerMsg<'_>) -> Option<u32> {
    match msg {
        WorkerMsg::Join { .. } => None,
        WorkerMsg::Ready { epoch, .. }
        | WorkerMsg::StepData { epoch, .. }
        | WorkerMsg::StepDone { epoch, .. }
        | WorkerMsg::Final { epoch, .. }
        | WorkerMsg::Heartbeat { epoch }
        | WorkerMsg::ObsReport { epoch, .. } => Some(*epoch),
    }
}

/// Accepts connections for the whole session; each one gets a short
/// helper thread that reads the `Join` frame (so a slow client cannot
/// stall the accept loop) and hands the authenticated stream over.
fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    key: u64,
    join_tx: Sender<(u32, TcpStream)>,
) {
    thread::Builder::new()
        .name("dist-acceptor".into())
        .spawn(move || loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let tx = join_tx.clone();
            thread::spawn(move || {
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                if let Ok(f) = frame::read_frame(&mut stream) {
                    if let Ok(WorkerMsg::Join {
                        worker_id,
                        key: got,
                    }) = WorkerMsg::from_frame(&f)
                    {
                        if got == key {
                            stream.set_read_timeout(None).ok();
                            stream.set_nodelay(true).ok();
                            let _ = tx.send((worker_id, stream));
                        }
                    }
                }
            });
        })
        .expect("spawn acceptor thread");
}

/// Per-connection reader: stamps liveness on every frame that passes its
/// checksum and forwards it. Exits on the first read error, reporting it
/// as its last event — the frozen `last_seen` then lets the heartbeat
/// supervisor reach the death verdict, and `shutdown` takes the same
/// event as the worker's goodbye.
fn spawn_reader(
    machine: usize,
    conn: u64,
    mut stream: TcpStream,
    tx: Sender<Event>,
    gather: Arc<Gather>,
    last_seen: Arc<Mutex<Instant>>,
    spare: Arc<Spare>,
) {
    // No deadline: a worker is silent for as long as it computes.
    stream.set_read_timeout(None).ok();
    thread::Builder::new()
        .name(format!("dist-reader-{machine}"))
        .spawn(move || loop {
            let heard = hear(&mut stream, machine, &gather, &spare);
            let ended = !matches!(heard, Heard::Frame(_));
            if !ended {
                *last_seen.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
            }
            let sent = tx.send(Event {
                machine,
                conn,
                heard,
            });
            if ended || sent.is_err() {
                return;
            }
        })
        .expect("spawn reader thread");
}

/// Reads the next frame of `machine`'s connection: whole, unless its header
/// says `Final` — the one frame as large as the job's result, which is
/// decoded into `gather` as it arrives and forwarded as its envelope. A
/// `StepData` is forwarded whole once the path triples it brought are in
/// `gather` too.
fn hear(stream: &mut TcpStream, machine: usize, gather: &Gather, spare: &Spare) -> Heard {
    let Ok(mut payload) = PayloadReader::open(stream) else {
        return Heard::Ended;
    };
    let result = if payload.kind() == kind::FINAL {
        gather.receive(machine, &mut payload).and_then(|epoch| {
            payload.finish()?;
            let envelope = WorkerMsg::Final { epoch, result: &[] }.to_frame()?;
            Ok(frame::decode(&envelope)?.0)
        })
    } else {
        let buf = spare.swap(payload.kind(), Vec::new());
        let Ok(frame) = payload.into_frame(buf) else {
            return Heard::Ended;
        };
        // What else the frame says, and whether it decodes at all, is the
        // supervisor's to find.
        match (frame.kind == kind::STEP_DATA).then(|| WorkerMsg::from_frame(&frame)) {
            Some(Ok(WorkerMsg::StepData { epoch, paths, .. })) => {
                gather.place_paths(epoch, paths).map(|()| frame)
            }
            _ => Ok(frame),
        }
    };
    match result {
        Ok(frame) => Heard::Frame(frame),
        // The connection's failure, not the result's.
        Err(ClusterError::ConnReset { .. } | ClusterError::Timeout { .. }) => Heard::Ended,
        Err(e) => Heard::BadResult(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GraphSource;
    use crate::wire::encode_all;

    fn cluster() -> Cluster {
        JobSpec {
            graph: GraphSource::ErdosRenyi {
                n: 4,
                m: 8,
                seed: 1,
            },
            scheme: "chunk-v".into(),
            parts: 2,
            app: AppSpec::ConnectedComponents,
            checkpoint_every: None,
        }
        .build_cluster()
        .unwrap()
    }

    /// A gather over `cluster()` for `app`, as `run` arms it.
    fn gather(app: &AppSpec, cluster: &Cluster) -> Gather {
        let sink = Sink {
            gathered: Gathered::new(app, cluster.graph().num_vertices()),
            cluster: cluster.clone(),
            epoch: 3,
        };
        Gather {
            sink: Mutex::new(Some(sink)),
        }
    }

    /// The digest of these `Final` results, one per worker, gathered as a
    /// reader thread gathers them: off a stream, and verified before the
    /// digest is taken.
    fn assemble_digest(gather: &Gather, finals: &[&[u8]]) -> Result<u64, ClusterError> {
        for (m, &result) in finals.iter().enumerate() {
            let sent = WorkerMsg::Final { epoch: 3, result }.to_frame()?;
            let mut payload = PayloadReader::open(&sent[..])?;
            assert_eq!(gather.receive(m, &mut payload)?, 3);
            payload.finish()?;
        }
        gather.digest()
    }

    const DEEPWALK: AppSpec = AppSpec::DeepWalk {
        walk_len: 2,
        seed: 0,
        per_vertex: 1,
    };

    type Triples<'a> = &'a [(u64, u32, VertexId)];

    fn encoded(triples: Triples<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_all(triples, &mut bytes);
        bytes
    }

    /// The digest of a length-2 DeepWalk from every one of the 4 vertices
    /// whose two workers sent these triples, a superstep's worth at a time,
    /// and then their counters.
    fn walk_digest(supersteps: &[[Triples<'_>; 2]]) -> Result<u64, ClusterError> {
        let gather = gather(&DEEPWALK, &cluster());
        for paths in supersteps.iter().flatten() {
            gather.place_paths(3, &encoded(paths))?;
        }
        assemble_digest(&gather, &[&[0; WALK_FINAL_LEN], &[0; WALK_FINAL_LEN]])
    }

    #[test]
    fn path_logs_merge_across_workers_in_any_order() {
        let digest = walk_digest(&[[&[(2, 1, 0), (0, 1, 2)], &[]], [&[], &[(0, 2, 1)]]]);
        let paths = [vec![0, 2, 1], vec![1], vec![2, 0], vec![3]];
        assert_eq!(digest, Ok(crate::digest_paths(&paths)));
    }

    #[test]
    fn path_logs_that_are_not_paths_are_corrupt_frames() {
        let corrupt = |result: Result<u64, ClusterError>| {
            let err = result.unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
            err.to_string()
        };
        // A walker that was never started (4 were).
        assert!(corrupt(walk_digest(&[[&[(4, 1, 0)], &[]]])).contains("walker 4"));
        // A step past the walk length.
        assert!(corrupt(walk_digest(&[[&[(0, 1, 0)], &[(0, 3, 1)]]])).contains("step 3"));
        // One `(walker, step)` from two workers — or the start, which is
        // the driver's to place.
        assert!(corrupt(walk_digest(&[[&[(1, 1, 1)], &[(1, 1, 2)]]])).contains("twice"));
        assert!(corrupt(walk_digest(&[[&[(1, 0, 1)], &[]]])).contains("twice"));
        // A path with a hole, found when the table is sealed.
        assert!(corrupt(walk_digest(&[[&[(1, 2, 1)], &[]]])).contains("step 2"));
        // Bytes that are not whole triples, and triples of an app that
        // records no paths.
        let walks = gather(&DEEPWALK, &cluster());
        corrupt(walks.place_paths(3, &[0; 17]).map(|()| 0));
        let ranks = gather(&AppSpec::PageRank { iters: 1 }, &cluster());
        let err = corrupt(ranks.place_paths(3, &encoded(&[(0, 1, 0)])).map(|()| 0));
        assert!(err.contains("nobody asked for"), "{err}");
        // A walk's `Final` is its two counters and nothing else.
        corrupt(assemble_digest(&walks, &[&[0; 17], &[0; 16]]));
        corrupt(assemble_digest(
            &walks,
            &[&encoded(&[(0, 1, 0), (0, 2, 1)]), &[0; 16]],
        ));
    }

    /// What a rollback leaves of a walk's paths: the hops up to the
    /// checkpoint's barrier, room for the replay to place the rest again,
    /// and no ear for the epoch it ended.
    #[test]
    fn a_rollback_truncates_the_paths_and_drops_what_the_old_epoch_still_sends() {
        let gather = gather(&DEEPWALK, &cluster());
        let first: Triples<'_> = &[(0, 1, 2), (1, 1, 3), (2, 1, 0), (3, 1, 1)];
        let second: Triples<'_> = &[(0, 2, 1), (1, 2, 0)];
        gather.place_paths(3, &encoded(first)).unwrap();
        gather.place_paths(3, &encoded(second)).unwrap();
        // Back to the barrier after the first superstep, under epoch 4.
        gather.roll_back(4, 1);
        gather.place_paths(3, &encoded(&[(2, 2, 3)])).unwrap();
        gather.place_paths(4, &encoded(second)).unwrap();
        let err = gather.place_paths(4, &encoded(first)).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        let paths = [vec![0, 2, 1], vec![1, 3, 0], vec![2, 0], vec![3, 1]];
        assert_eq!(gather.digest(), Ok(crate::digest_paths(&paths)));
    }

    #[test]
    fn a_final_of_the_wrong_length_is_a_corrupt_frame() {
        let ranks = gather(&AppSpec::PageRank { iters: 1 }, &cluster());
        let err = assemble_digest(&ranks, &[&[0; 8], &[0; 16]]).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
    }
}

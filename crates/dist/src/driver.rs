//! The driver: owns placement, superstep broadcast, barrier collection,
//! and worker supervision.
//!
//! ## Supervision model
//!
//! Every worker connection gets a dedicated reader thread that stamps a
//! shared `last_seen` instant on *every* frame (heartbeats included) and
//! forwards protocol messages over one mpsc channel. The supervisor
//! (this module's single control thread) declares a worker dead only
//! when its `last_seen` is older than the heartbeat timeout — a closed
//! socket alone is not a verdict, so death detection is genuinely
//! heartbeat-based, not EOF-based. A worker that heartbeats but never
//! produces the awaited frame is declared dead when the per-RPC deadline
//! expires (it is wedged, which supervision treats the same way).
//!
//! ## Recovery
//!
//! On death the driver bumps the recovery *epoch*, respawns the dead
//! process (within `max_respawns`), replays the job spec to it, and
//! sends `Restore` to every worker: either the snapshot bytes from the
//! last driver-held checkpoint or `None` (re-initialize from the
//! deterministic initial state). Workers answer `Ready` under the new
//! epoch; frames stamped with an older epoch are discarded wherever they
//! surface. The superstep counter rolls back to the checkpoint and the
//! run replays forward — bit-identically, because every worker's state,
//! RNG included, travels in the snapshot.

use crate::error::ClusterError;
use crate::frame;
use crate::proto::{DriverMsg, RowSeg, WorkerMsg};
use crate::spec::{AppSpec, JobSpec};
use crate::transport::{read_frame_blocking, rpc_rtt_histogram};
use crate::wire::decode_all;
use crate::{digest_wire, paths_from_log};
use bpart_cluster::{Cluster, FaultPlan, FaultState, MachineId};
use bpart_graph::VertexId;
use bpart_obs::{federation, tracer};
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
    /// Per-barrier deadline: a worker that heartbeats but produces no
    /// frame within this window is wedged and treated as dead.
    pub rpc_deadline: Duration,
    /// Deadline for joins, job rebuilds, and restores (graph generation
    /// happens under this one, so it is the generous deadline).
    pub setup_deadline: Duration,
    /// Total respawn budget across the run.
    pub max_respawns: u32,
    /// Fault plan: `crash@S:mM` clauses become real `SIGKILL`s of worker
    /// processes; link clauses drive retry accounting on the transport.
    pub faults: FaultPlan,
}

impl ProcessConfig {
    /// Config with test-friendly defaults for `workers` processes
    /// started by `worker_cmd`.
    pub fn new(workers: usize, worker_cmd: Vec<String>) -> Self {
        ProcessConfig {
            workers,
            worker_cmd,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(1500),
            rpc_deadline: Duration::from_secs(30),
            setup_deadline: Duration::from_secs(60),
            max_respawns: 3,
            faults: FaultPlan::default(),
        }
    }
}

/// What supervision had to do during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Workers declared dead (heartbeat loss or RPC deadline).
    pub worker_deaths: u64,
    /// Recovery rounds (epoch bumps).
    pub recoveries: u64,
    /// Supersteps re-executed after rollbacks.
    pub replayed_supersteps: u64,
    /// Link-level retransmissions/dedups charged by the fault plan.
    pub link_retries: u64,
    /// Worker processes respawned.
    pub respawns: u64,
}

/// Outcome of a distributed run.
#[derive(Clone, Debug)]
pub struct AppOutput {
    /// FNV-1a digest over the canonical result encoding (global-order
    /// values for iteration apps, merged paths for walks) — the
    /// cross-backend bit-identity token.
    pub digest: u64,
    /// Logical supersteps executed (replays not double-counted).
    pub supersteps: u64,
    /// Supervision counters.
    pub recovery: RecoveryStats,
}

/// Driver-held checkpoint: per-worker snapshot bytes and the superstep
/// they resume at. `states: None` is the implicit initial checkpoint
/// (workers re-initialize deterministically).
struct CheckpointStore {
    superstep: u64,
    states: Option<Vec<Vec<u8>>>,
}

struct Event {
    machine: usize,
    msg: Result<WorkerMsg, ClusterError>,
}

/// One worker process slot.
struct Slot {
    child: Option<Child>,
    writer: Option<TcpStream>,
    last_seen: Arc<Mutex<Instant>>,
}

enum Collected<T> {
    Done(Vec<T>),
    /// Machines declared dead while waiting.
    Dead(Vec<usize>),
}

struct Driver {
    spec: JobSpec,
    cfg: ProcessConfig,
    cluster: Cluster,
    addr: String,
    key: u64,
    listener: Arc<TcpListener>,
    acceptor_stop: Arc<AtomicBool>,
    slots: Vec<Slot>,
    events: Receiver<Event>,
    _events_tx: Sender<Event>,
    joins: Receiver<(u32, TcpStream)>,
    epoch: u32,
    stats: RecoveryStats,
    faults: FaultState,
    crash_fired: Vec<bool>,
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
    let mut driver = Driver::start(spec.clone(), cfg.clone())?;
    let out = driver.run();
    driver.shutdown();
    out
}

impl Driver {
    fn start(spec: JobSpec, cfg: ProcessConfig) -> Result<Driver, ClusterError> {
        let cluster = spec.build_cluster()?;
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
        let listener = Arc::new(listener);
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        spawn_acceptor(
            Arc::clone(&listener),
            Arc::clone(&acceptor_stop),
            key,
            join_tx,
        );

        let k = cfg.workers;
        let crash_fired = vec![false; cfg.faults.crash_schedule().len()];
        let mut driver = Driver {
            faults: FaultState::new(cfg.faults.clone()),
            spec,
            cfg,
            cluster,
            addr,
            key,
            listener,
            acceptor_stop,
            slots: (0..k)
                .map(|_| Slot {
                    child: None,
                    writer: None,
                    last_seen: Arc::new(Mutex::new(Instant::now())),
                })
                .collect(),
            events,
            _events_tx: events_tx,
            joins,
            epoch: 0,
            stats: RecoveryStats::default(),
            crash_fired,
        };

        if federation::collection_enabled() {
            // Prime the federated view: the cluster size gates
            // step_timings completeness, and the structured /healthz
            // body only replaces the plain "ok" on obs runs.
            let mut store = federation::global();
            store.cluster_size = k;
            store.health_enabled = true;
        }

        for m in 0..k {
            driver.spawn_worker(m)?;
        }
        driver.wait_joins((0..k).collect())?;
        for m in 0..k {
            driver.send_to(
                m,
                &DriverMsg::Job {
                    spec: driver.spec.clone(),
                    machine: m as u32,
                },
            );
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
        self.slots[m].child = Some(child);
        Ok(())
    }

    /// Waits until every machine in `expect` has joined, registering
    /// connections (and reader threads) as they arrive.
    fn wait_joins(&mut self, mut expect: Vec<usize>) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.cfg.setup_deadline;
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
        if let Some(reader) = reader {
            spawn_reader(
                m,
                reader,
                self._events_tx.clone(),
                Arc::clone(&self.slots[m].last_seen),
            );
        }
    }

    /// Best-effort frame send; a broken pipe is not a verdict (the
    /// heartbeat supervisor will reach one).
    fn send_to(&mut self, m: usize, msg: &DriverMsg) {
        let (kind, payload) = msg.to_frame();
        if let Some(w) = &mut self.slots[m].writer {
            let _ = frame::write_frame(w, kind, &payload);
        }
    }

    fn broadcast(&mut self, msg: &DriverMsg) {
        for m in 0..self.cfg.workers {
            self.send_to(m, msg);
        }
    }

    fn elapsed_since_seen(&self, m: usize) -> Duration {
        self.slots[m]
            .last_seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .elapsed()
    }

    /// Waits until `matcher` has produced a value for every machine.
    /// Heartbeats refresh liveness as a side effect of the reader
    /// threads; stale-epoch frames are discarded here.
    fn collect<T>(
        &mut self,
        what: &str,
        deadline: Duration,
        mut matcher: impl FnMut(WorkerMsg) -> Option<T>,
    ) -> Result<Collected<T>, ClusterError> {
        let k = self.cfg.workers;
        let deadline_at = Instant::now() + deadline;
        let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
        let mut got = 0usize;
        loop {
            if got == k {
                return Ok(Collected::Done(
                    out.into_iter().map(|t| t.expect("collected")).collect(),
                ));
            }
            match self.events.recv_timeout(Duration::from_millis(25)) {
                Ok(Event {
                    machine,
                    msg: Ok(msg),
                }) => {
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
                    if machine < k && out[machine].is_none() {
                        if let Some(t) = matcher(msg) {
                            out[machine] = Some(t);
                            got += 1;
                        }
                    }
                }
                // A connection error is noted but not sentenced: the
                // heartbeat check below is the only judge of death.
                Ok(Event { msg: Err(_), .. }) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::unrecoverable("event channel closed"));
                }
            }
            let dead: Vec<usize> = (0..k)
                .filter(|&m| {
                    out[m].is_none() && self.elapsed_since_seen(m) > self.cfg.heartbeat_timeout
                })
                .collect();
            if !dead.is_empty() {
                return Ok(Collected::Dead(dead));
            }
            if Instant::now() > deadline_at {
                // Still heartbeating but wedged: the per-RPC deadline
                // converts "no progress" into the same verdict.
                let dead: Vec<usize> = (0..k).filter(|&m| out[m].is_none()).collect();
                if dead.is_empty() {
                    return Err(ClusterError::Timeout {
                        what: what.to_string(),
                    });
                }
                return Ok(Collected::Dead(dead));
            }
        }
    }

    /// Folds one worker `ObsReport` into the global federation store:
    /// NTP-style clock sample from the `StepBegin` echo, then the
    /// snapshot/span/step-timing merge. Decode failures are logged and
    /// dropped — telemetry must never fail a run.
    fn absorb_obs_report(&mut self, machine: usize, msg: WorkerMsg) {
        let WorkerMsg::ObsReport {
            epoch,
            seq,
            superstep,
            has_step,
            compute_ns,
            comm_ns,
            echo_ns,
            recv_ns,
            send_ns,
            metrics,
            spans,
            profile,
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
        let step = has_step.then_some((
            superstep,
            federation::StepSample {
                epoch,
                compute_ns,
                comm_ns,
            },
        ));
        if let Err(e) = store.absorb_report(machine as u32, epoch, seq, step, &metrics, &spans) {
            eprintln!("bpart: dropped obs report from worker {machine}: {e}");
        }
        if let Err(e) = store.absorb_profile(machine as u32, epoch, seq, &profile) {
            eprintln!("bpart: dropped obs profile from worker {machine}: {e}");
        }
    }

    /// Kills, respawns, and restores after `dead` workers were declared
    /// dead at `superstep`. Returns the post-restore `Ready` aggregates
    /// (machine order). Loops if more workers die mid-recovery.
    fn recover(
        &mut self,
        mut dead: Vec<usize>,
        superstep: u64,
        ckpt: &CheckpointStore,
    ) -> Result<Vec<f64>, ClusterError> {
        self.stats.replayed_supersteps += superstep.saturating_sub(ckpt.superstep);
        bpart_obs::metrics::counter("dist.replayed_supersteps")
            .add(superstep.saturating_sub(ckpt.superstep));
        let obs = federation::collection_enabled();
        if obs {
            let mut store = federation::global();
            store.recovering = true;
            for &m in &dead {
                store.mark_dead(m as u32);
            }
        }
        loop {
            self.epoch += 1;
            self.stats.recoveries += 1;
            self.stats.worker_deaths += dead.len() as u64;
            bpart_obs::metrics::counter("dist.recoveries").inc();
            bpart_obs::metrics::counter("dist.worker_deaths").add(dead.len() as u64);
            for &m in &dead {
                if self.stats.respawns >= self.cfg.max_respawns as u64 {
                    return Err(ClusterError::WorkerDead {
                        worker: m as MachineId,
                        superstep,
                    });
                }
                self.stats.respawns += 1;
                bpart_obs::metrics::counter("dist.respawns").inc();
                if let Some(mut child) = self.slots[m].child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                self.slots[m].writer = None;
                self.spawn_worker(m)?;
                self.wait_joins(vec![m])?;
                self.send_to(
                    m,
                    &DriverMsg::Job {
                        spec: self.spec.clone(),
                        machine: m as u32,
                    },
                );
            }
            // Everyone — survivors included — rolls back to the same
            // barrier, so the replay is globally consistent.
            for m in 0..self.cfg.workers {
                let state = ckpt.states.as_ref().map(|s| s[m].clone());
                self.send_to(
                    m,
                    &DriverMsg::Restore {
                        epoch: self.epoch,
                        superstep: ckpt.superstep,
                        state,
                    },
                );
            }
            match self.collect(
                "Ready after restore",
                self.cfg.setup_deadline,
                |msg| match msg {
                    WorkerMsg::Ready { agg, .. } => Some(agg),
                    _ => None,
                },
            )? {
                Collected::Done(aggs) => {
                    if obs {
                        federation::global().recovering = false;
                    }
                    return Ok(aggs);
                }
                Collected::Dead(more) => {
                    if obs {
                        let mut store = federation::global();
                        for &m in &more {
                            store.mark_dead(m as u32);
                        }
                    }
                    dead = more;
                    continue;
                }
            }
        }
    }

    /// Fires scheduled chaos kills for `superstep`: a real `SIGKILL` to
    /// the worker process, delivered right after `StepBegin` went out —
    /// mid-superstep, like the threaded engine's barrier crashes.
    fn fire_chaos_kills(&mut self, superstep: u64) {
        let schedule = self.cfg.faults.crash_schedule();
        for (i, &(s, m)) in schedule.iter().enumerate() {
            if self.crash_fired[i] || s as u64 != superstep {
                continue;
            }
            self.crash_fired[i] = true;
            if let Some(child) = &mut self.slots[m as usize].child {
                let _ = child.kill();
            }
        }
    }

    fn run(&mut self) -> Result<AppOutput, ClusterError> {
        let k = self.cfg.workers;
        let is_walk = self.spec.app.is_walk();
        let max_supersteps: Option<u64> = match &self.spec.app {
            AppSpec::PageRank { iters } => Some(*iters as u64),
            _ => None,
        };

        // Initial `Ready`: aggregate parts (iteration) or queue lengths
        // (walks), computed from the deterministic initial state.
        let ready =
            match self.collect("initial Ready", self.cfg.setup_deadline, |msg| match msg {
                WorkerMsg::Ready { agg, .. } => Some(agg),
                _ => None,
            })? {
                Collected::Done(aggs) => aggs,
                Collected::Dead(dead) => {
                    return Err(ClusterError::WorkerDead {
                        worker: dead[0] as MachineId,
                        superstep: 0,
                    })
                }
            };
        let mut agg: f64 = ready.iter().sum();
        let mut walk_active: u64 = ready.iter().map(|&a| a as u64).sum();

        let mut ckpt = CheckpointStore {
            superstep: 0,
            states: None,
        };
        let mut superstep = 0u64;
        // Highest superstep completed so far — a step at or below it is
        // a post-rollback replay (stamped on its span for `analyze`).
        let mut high_water: Option<u64> = None;
        let progress = bpart_obs::metrics::gauge("dist.progress_superstep");

        'run: loop {
            if let Some(max) = max_supersteps {
                if superstep >= max {
                    break;
                }
            }
            if is_walk && walk_active == 0 {
                break;
            }
            progress.set(superstep as f64);

            let checkpoint_due = self
                .spec
                .checkpoint_every
                .is_some_and(|every| every > 0 && (superstep + 1) % every as u64 == 0);
            let obs = federation::collection_enabled();
            // One driver-side span per superstep; worker spans nest
            // under it via the span id noted in the federation store.
            let mut step_span = obs.then(|| {
                let mut g = tracer::span("cluster.superstep");
                g.attr("superstep", superstep.to_string());
                g.attr("epoch", self.epoch.to_string());
                if let Some(id) = g.id() {
                    federation::global().note_superstep_span(self.epoch, superstep, id);
                }
                g
            });
            self.broadcast(&DriverMsg::StepBegin {
                epoch: self.epoch,
                superstep,
                agg,
                checkpoint: checkpoint_due,
                sent_ns: tracer::now_ns(),
                obs,
            });
            self.fire_chaos_kills(superstep);

            // ---- barrier 1: everyone's outgoing rows ----------------------
            let step_superstep = superstep;
            let rows_matrix =
                match self.collect("StepData", self.cfg.rpc_deadline, move |msg| match msg {
                    WorkerMsg::StepData {
                        superstep: s, rows, ..
                    } if s == step_superstep => Some(rows),
                    _ => None,
                })? {
                    Collected::Done(rows) => rows,
                    Collected::Dead(dead) => {
                        let aggs = self.recover(dead, superstep, &ckpt)?;
                        agg = aggs.iter().sum();
                        walk_active = aggs.iter().map(|&a| a as u64).sum();
                        superstep = ckpt.superstep;
                        continue 'run;
                    }
                };
            let mut rows_matrix: Vec<Vec<RowSeg>> = rows_matrix;
            for (from, row) in rows_matrix.iter().enumerate() {
                if row.len() != k {
                    return Err(ClusterError::corrupt(format!(
                        "worker {from} sent {} row segments, expected {k}",
                        row.len()
                    )));
                }
            }

            // Link-fault accounting on the real transport: same per-link
            // staged counts as the threaded engine sees, same stateless
            // hash, so the retry counters agree bit-for-bit.
            if self.cfg.faults.has_link_faults() {
                let mut retries = 0u64;
                for (from, row) in rows_matrix.iter().enumerate() {
                    for (to, seg) in row.iter().enumerate() {
                        if seg.count == 0 {
                            continue;
                        }
                        let overhead = self.faults.link_overhead(
                            superstep as usize,
                            from as MachineId,
                            to as MachineId,
                            seg.count as u64,
                        );
                        retries += overhead.total();
                    }
                }
                self.stats.link_retries += retries;
                bpart_obs::metrics::counter("dist.link_retries").add(retries);
            }

            // ---- exchange: inbox[to] = segments in sender order -----------
            for to in 0..k {
                let rows: Vec<RowSeg> = rows_matrix
                    .iter_mut()
                    .map(|row| std::mem::take(&mut row[to]))
                    .collect();
                self.send_to(
                    to,
                    &DriverMsg::Inbox {
                        epoch: self.epoch,
                        superstep,
                        rows,
                    },
                );
            }

            // ---- barrier 2: superstep applied everywhere ------------------
            let done =
                match self.collect("StepDone", self.cfg.rpc_deadline, move |msg| match msg {
                    WorkerMsg::StepDone {
                        superstep: s,
                        active,
                        agg,
                        snapshot,
                        ..
                    } if s == step_superstep => Some((active, agg, snapshot)),
                    _ => None,
                })? {
                    Collected::Done(done) => done,
                    Collected::Dead(dead) => {
                        let aggs = self.recover(dead, superstep, &ckpt)?;
                        agg = aggs.iter().sum();
                        walk_active = aggs.iter().map(|&a| a as u64).sum();
                        superstep = ckpt.superstep;
                        continue 'run;
                    }
                };

            // Stamp the superstep span with the federated per-worker
            // timings (every worker's ObsReport arrived before its
            // StepDone, so the barrier completing means they are here).
            if let Some(g) = &mut step_span {
                let store = federation::global();
                if let Some((compute, comm)) = store.step_timings(superstep) {
                    // The straggler factor the `straggler` alert rule
                    // watches: slowest worker's compute vs the mean.
                    let mean = compute.iter().sum::<f64>() / compute.len() as f64;
                    let max = compute.iter().fold(0.0f64, |a, &b| a.max(b));
                    if mean > 0.0 {
                        bpart_obs::metrics::gauge("dist.straggler_factor").set(max / mean);
                    }
                    g.attr("compute", bpart_obs::analysis::join_timings(&compute));
                    g.attr("comm", bpart_obs::analysis::join_timings(&comm));
                }
                drop(store);
                if high_water.is_some_and(|h| superstep <= h) {
                    g.attr("replay", "true");
                    // Replayed supersteps are post-mortem gold: pin them
                    // past the tail sampler so the ring keeps full detail.
                    g.keep();
                }
            }
            drop(step_span);
            high_water = Some(high_water.map_or(superstep, |h| h.max(superstep)));

            let active_total: u64 = done.iter().map(|(a, _, _)| a).sum();
            if is_walk {
                walk_active = active_total;
            } else {
                agg = done.iter().map(|(_, a, _)| a).sum();
            }

            if checkpoint_due {
                let mut states = Vec::with_capacity(k);
                for (m, (_, _, snap)) in done.into_iter().enumerate() {
                    states.push(snap.ok_or_else(|| {
                        ClusterError::corrupt(format!("worker {m} omitted requested snapshot"))
                    })?);
                }
                ckpt = CheckpointStore {
                    superstep: superstep + 1,
                    states: Some(states),
                };
                bpart_obs::metrics::counter("dist.checkpoints").inc();
            }

            superstep += 1;
            if !is_walk && active_total == 0 {
                break;
            }
        }
        progress.set(superstep as f64);

        // ---- gather final results -----------------------------------------
        self.broadcast(&DriverMsg::Finish { epoch: self.epoch });
        let finals = match self.collect("Final", self.cfg.rpc_deadline, |msg| match msg {
            WorkerMsg::Final { result, .. } => Some(result),
            _ => None,
        })? {
            Collected::Done(finals) => finals,
            Collected::Dead(dead) => {
                // The run is already past its last barrier; a death here
                // cannot be replayed into the gather, so it is terminal.
                return Err(ClusterError::WorkerDead {
                    worker: dead[0] as MachineId,
                    superstep,
                });
            }
        };

        let digest = self.assemble_digest(finals)?;
        Ok(AppOutput {
            digest,
            supersteps: superstep,
            recovery: self.stats.clone(),
        })
    }

    /// Reassembles per-worker final payloads into the canonical global
    /// result and digests it.
    fn assemble_digest(&self, finals: Vec<Vec<u8>>) -> Result<u64, ClusterError> {
        let n = self.cluster.graph().num_vertices();
        match &self.spec.app {
            AppSpec::PageRank { .. } => {
                let values = self.gather_global::<f64>(finals, n)?;
                Ok(digest_wire(&values))
            }
            AppSpec::ConnectedComponents => {
                let values = self.gather_global::<VertexId>(finals, n)?;
                Ok(digest_wire(&values))
            }
            AppSpec::DeepWalk { per_vertex, .. } | AppSpec::SimpleWalk { per_vertex, .. } => {
                let mut log: Vec<(u64, u32, VertexId)> = Vec::new();
                for bytes in &finals {
                    log.extend(decode_all::<(u64, u32, VertexId)>(bytes)?);
                }
                let paths = paths_from_log(log, n * *per_vertex as usize);
                Ok(crate::digest_paths(&paths))
            }
        }
    }

    fn gather_global<T: crate::wire::Wire + Clone + Default>(
        &self,
        finals: Vec<Vec<u8>>,
        n: usize,
    ) -> Result<Vec<T>, ClusterError> {
        let mut values: Vec<T> = vec![T::default(); n];
        for (m, bytes) in finals.iter().enumerate() {
            let local: Vec<T> = decode_all(bytes)?;
            let members = self.cluster.local_vertices(m as u32);
            if local.len() != members.len() {
                return Err(ClusterError::corrupt(format!(
                    "worker {m} final length {} != {} members",
                    local.len(),
                    members.len()
                )));
            }
            for (li, &v) in members.iter().enumerate() {
                values[v as usize] = local[li].clone();
            }
        }
        Ok(values)
    }

    /// Clean teardown: ask workers to exit, then make sure they did.
    fn shutdown(&mut self) {
        self.broadcast(&DriverMsg::Shutdown);
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let mut exited = false;
                for _ in 0..20 {
                    if matches!(child.try_wait(), Ok(Some(_))) {
                        exited = true;
                        break;
                    }
                    thread::sleep(Duration::from_millis(25));
                }
                if !exited {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        // Wake the acceptor so its thread exits with the run.
        self.acceptor_stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(&self.addr);
        let _ = self.listener.local_addr();
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        self.acceptor_stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(&self.addr);
    }
}

fn msg_epoch(msg: &WorkerMsg) -> Option<u32> {
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
    listener: Arc<TcpListener>,
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

/// Per-connection reader: stamps liveness on every frame and forwards
/// decoded messages. Exits on the first read or decode error — the
/// frozen `last_seen` then lets the heartbeat supervisor reach the
/// death verdict.
fn spawn_reader(
    machine: usize,
    mut stream: TcpStream,
    tx: Sender<Event>,
    last_seen: Arc<Mutex<Instant>>,
) {
    thread::Builder::new()
        .name(format!("dist-reader-{machine}"))
        .spawn(move || loop {
            match read_frame_blocking(&mut stream) {
                Ok(frame) => {
                    *last_seen.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
                    match WorkerMsg::from_frame(&frame) {
                        Ok(msg) => {
                            if tx
                                .send(Event {
                                    machine,
                                    msg: Ok(msg),
                                })
                                .is_err()
                            {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Event {
                                machine,
                                msg: Err(e),
                            });
                            return;
                        }
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event {
                        machine,
                        msg: Err(e),
                    });
                    return;
                }
            }
        })
        .expect("spawn reader thread");
}

//! The supervised worker loop: one OS process playing one BSP machine.
//!
//! A worker is a frame-driven state machine. It connects to the driver
//! (with backoff) and is told its job at once; the `Placement` that follows
//! says which vertices are whose and carries the adjacency of the ones that
//! are this worker's, and the worker builds its cluster from that alone —
//! it never opens the job's graph source, resolves its scheme or runs a
//! partitioner, and holds no more of the graph than its part. Then it
//! reacts to driver frames: `StepBegin` runs the local compute phase and
//! ships outgoing rows (and a walk's path triples of the superstep),
//! `Inbox` completes the superstep — its `StepDone` brings the compute and
//! exchange nanoseconds the worker measured — `Restore` rolls
//! state back (or re-initializes) under a new epoch, `Finish` ships the
//! local result, `Shutdown` exits. A dedicated thread heartbeats the
//! whole time, so the driver can tell "dead" from "busy".
//!
//! Frames whose epoch is older than the worker's current epoch are
//! silently discarded — they were sent before a recovery the worker has
//! already joined.

use crate::error::ClusterError;
use crate::frame::{self, Frame};
use crate::proto::{kind, DriverMsg, Placement, WorkerMsg};
use crate::spec::{AppSpec, JobSpec};
use crate::step::{IterWorker, WalkWorker, Worker};
use crate::transport::{
    connect_with_backoff, heartbeat_pump, read_frame_blocking, Backoff, SharedWriter,
};
use crate::wire::Wire;
use bpart_cluster::Cluster;
use bpart_core::Partition;
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_obs::snapshot::Snapshot;
use bpart_obs::tracer;
use bpart_walker::apps::DeepWalk;
use bpart_walker::WalkApp;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker process configuration (parsed from the command line).
#[derive(Clone, Debug, PartialEq)]
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

impl WorkerConfig {
    /// Parses the flags the driver starts a worker with — `--connect ADDR
    /// --worker-id N --key K [--heartbeat-ms MS]`, 100 ms when not given,
    /// at least 1 — for every entry point a worker has (`bpart-workerd`,
    /// `bpart worker`).
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<WorkerConfig, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("bad {flag} {value:?}"))
        }
        let (mut connect, mut worker_id, mut key) = (None, None, None);
        let mut heartbeat_ms = 100u64;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--connect" => connect = Some(value),
                "--worker-id" => worker_id = Some(number(&flag, &value)?),
                "--key" => key = Some(number(&flag, &value)?),
                "--heartbeat-ms" => heartbeat_ms = number(&flag, &value)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(WorkerConfig {
            connect: connect.ok_or("missing --connect")?,
            worker_id: worker_id.ok_or("missing --worker-id")?,
            key: key.ok_or("missing --key")?,
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
        })
    }
}

/// The cluster of machine `machine` under a shipped placement: the driver's
/// partition over the graph of this machine's slice. The placement is the
/// driver's word on ownership, but it is also bytes off a socket, so what
/// does not fit the job, or does not fit itself, is refused here — before a
/// constructor could panic on it, and before a kernel could read a list
/// the slice does not have.
pub(crate) fn placed_cluster(
    spec: &JobSpec,
    machine: u32,
    placement: Placement<'_>,
) -> Result<Cluster, ClusterError> {
    let Placement {
        parts,
        assignment,
        vertex_counts,
        edge_counts,
        slice,
    } = placement;
    if parts == 0 || parts != spec.parts {
        return Err(ClusterError::corrupt(format!(
            "placement over {parts} parts for a job of {}",
            spec.parts
        )));
    }
    if machine >= parts {
        return Err(ClusterError::corrupt(format!(
            "job for machine {machine} of a {parts}-part placement"
        )));
    }
    if slice.in_lists != spec.app.uses_in_edges() {
        return Err(ClusterError::corrupt(format!(
            "slice {} in-lists for {}",
            if slice.in_lists { "with" } else { "without" },
            spec.app.name()
        )));
    }
    if slice.graph.num_vertices() != assignment.len() {
        return Err(ClusterError::corrupt(format!(
            "placement covers {} vertices, the slice spans {}",
            assignment.len(),
            slice.graph.num_vertices()
        )));
    }
    // The tallies are the driver's: this process could count the edges of
    // its own part only.
    let partition = Partition::from_tallies(
        parts as usize,
        assignment.into_owned(),
        vertex_counts.into_owned(),
        edge_counts.into_owned(),
    )
    .map_err(ClusterError::corrupt)?;
    let (owned, edges) = (
        partition.vertex_counts()[machine as usize],
        partition.edge_counts()[machine as usize],
    );
    if slice.members.len() as u64 != owned {
        return Err(ClusterError::corrupt(format!(
            "slice of {} members, machine {machine} owns {owned} vertices",
            slice.members.len()
        )));
    }
    if let Some(&v) = slice
        .members
        .iter()
        .find(|&&v| partition.part_of(v) != machine)
    {
        return Err(ClusterError::corrupt(format!(
            "slice for machine {machine} holds vertex {v} of machine {}",
            partition.part_of(v)
        )));
    }
    if slice.graph.num_edges() as u64 != edges {
        return Err(ClusterError::corrupt(format!(
            "slice of {} out-edges, machine {machine} owns {edges}",
            slice.graph.num_edges()
        )));
    }
    Ok(Cluster::new(
        Arc::new(slice.graph.into_owned()),
        Arc::new(partition),
    ))
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
    }
}

/// The first two frames of a worker's life: `Job`, then the `Placement`
/// that brings its slice of the graph. Nothing is read from anywhere else.
fn receive_job(reader: &mut TcpStream) -> Result<Box<dyn Worker>, ClusterError> {
    let frame = read_frame_blocking(reader)?;
    let DriverMsg::Job { spec, machine } = DriverMsg::from_frame(&frame)? else {
        return Err(ClusterError::corrupt("expected Job as the first frame"));
    };
    // Decoded as it arrives (still without a deadline: the driver is
    // loading and partitioning meanwhile).
    let placement = Placement::read_from(&mut *reader)?;
    let slice_bytes = placement.slice.wire_len();
    let cluster = placed_cluster(&spec, machine, placement)?;
    crate::publish_part(
        "",
        cluster.local_vertices(machine).len() as u64,
        cluster.graph().num_edges() as u64,
        slice_bytes,
    );
    bpart_obs::metrics::gauge("proc.graph_bytes").set(cluster.graph().adjacency_bytes() as f64);
    Ok(build_app(&spec, cluster, machine as usize))
}

/// Where this worker's `ObsReport`s stand: the last sequence number and
/// the tracer close-order cursor (spans before it are already shipped).
#[derive(Debug, Default)]
struct ObsPosition {
    seq: u64,
    span_cursor: u64,
}

impl ObsPosition {
    /// Ships one `ObsReport` — a snapshot of this process as of now —
    /// advancing the position.
    fn send(&mut self, writer: &SharedWriter, epoch: u32) -> Result<(), ClusterError> {
        self.seq += 1;
        writer.send(&WorkerMsg::ObsReport {
            epoch,
            seq: self.seq,
            snapshot: Snapshot::capture(&mut self.span_cursor),
        })
    }
}

/// A superstep in flight on the worker: protocol state from `StepBegin`
/// plus the measurements the matching `Inbox` completes.
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
    // `obs: true` (the driver's collection flag propagates here), `None`
    // otherwise so no-obs runs ship nothing. A report rides with every
    // `StepDone` and with the hang-up.
    let mut reports: Option<ObsPosition> = None;

    let mut app = receive_job(&mut reader)?;
    writer.send(&WorkerMsg::Ready {
        epoch: epoch.load(Ordering::Relaxed),
        agg: app.ready_agg(),
    })?;

    // The superstep phase in flight — populated by StepBegin, consumed
    // by the matching Inbox (protocol state plus timings).
    let mut pending: Option<PendingStep> = None;
    // The `worker.superstep` span open for the pending step. Held
    // separately so dropping it (closing the span) is explicit before
    // the span delta is encoded.
    let mut step_span: Option<tracer::SpanGuard> = None;

    // Every frame is read into the allocation of the one before it, and
    // every `StepData` is built in the allocation of the last.
    let mut frame = Frame::default();
    let mut step_data = Vec::new();
    loop {
        frame = frame::read_frame_into(&mut reader, frame.payload)?;
        let current = epoch.load(Ordering::Relaxed);
        match DriverMsg::from_frame(&frame)? {
            DriverMsg::StepBegin {
                epoch: e,
                superstep,
                agg,
                checkpoint,
                obs,
            } => {
                if e != current {
                    continue; // stale: sent before a recovery we joined
                }
                if obs && reports.is_none() {
                    // Driver runs with obs on: arm local collection so
                    // snapshots and span deltas have content to ship.
                    bpart_obs::set_trace_enabled(true);
                    reports = Some(ObsPosition::default());
                }
                let mut span = obs.then(|| {
                    let mut g = tracer::span("worker.superstep");
                    g.attr("superstep", superstep.to_string());
                    g.attr("epoch", e.to_string());
                    g
                });
                let compute_started = Instant::now();
                frame::build(&mut step_data, |out| {
                    (e, superstep).put(out);
                    app.begin_into(out);
                    kind::STEP_DATA
                })?;
                let compute_ns = compute_started.elapsed().as_nanos() as u64;
                writer.send_frame(&step_data)?;
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
                if let Some(reports) = &mut reports {
                    if let Some(g) = &mut step_span {
                        g.attr("comm_ns", comm_ns.to_string());
                    }
                    // Close the span first so this step's own span is
                    // among those shipped with its report.
                    step_span = None;
                    reports.send(&writer, e)?;
                }
                writer.send(&WorkerMsg::StepDone {
                    epoch: e,
                    superstep,
                    active,
                    agg: agg_out,
                    compute_ns,
                    comm_ns,
                    snapshot: snapshot.as_deref(),
                })?;
            }
            DriverMsg::Restore {
                epoch: e,
                superstep: _,
                state,
            } => {
                // Recovery: adopt the new epoch. A half-finished superstep's
                // span timed a wait for a death; it says so, under its epoch.
                pending = None;
                if let (Some(mut g), Some(reports)) = (step_span.take(), &mut reports) {
                    g.attr("abandoned", "true");
                    drop(g);
                    reports.send(&writer, current)?;
                }
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
                writer.send_final(e, |out| app.final_result(out))?;
            }
            DriverMsg::Shutdown => {
                if let Some(reports) = &mut reports {
                    crate::publish_peak_rss();
                    // The last word before hanging up: what this process
                    // held. The driver waits for the hang-up either way.
                    reports.send(&writer, current).ok();
                }
                return Ok(());
            }
            DriverMsg::Job { .. } => return Err(ClusterError::corrupt("a second Job frame")),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::GraphSource;
    use crate::wire::tests::decode_all;
    use bpart_core::{ChunkV, HashPartitioner, PartId, Partitioner};
    use bpart_graph::{generate, CsrGraph, VertexId};
    use proptest::prelude::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;

    /// A job whose graph source no process could open: whatever a worker
    /// runs on came in its placement.
    pub(crate) fn sourceless_spec(parts: u32, app: AppSpec) -> JobSpec {
        JobSpec {
            graph: GraphSource::File("/nonexistent/never-opened.bpgr".into()),
            scheme: "hash".into(),
            parts,
            app,
            checkpoint_every: None,
        }
    }

    /// Machine `machine`'s placement as its worker receives it.
    fn received(cluster: &Cluster, machine: u32, in_lists: bool) -> Placement<'static> {
        let mut sent = Vec::new();
        let placement = Placement::of(cluster, machine, in_lists);
        placement.write_to(&mut sent).unwrap();
        Placement::read_from(&sent[..]).unwrap()
    }

    /// `cluster` as each of its machines holds it under `spec`: its slice,
    /// off the wire.
    pub(crate) fn slice_clusters(spec: &JobSpec, cluster: &Cluster) -> Vec<Cluster> {
        (0..cluster.num_machines() as u32)
            .map(|m| {
                let placement = received(cluster, m, spec.app.uses_in_edges());
                placed_cluster(spec, m, placement).unwrap()
            })
            .collect()
    }

    /// Most vertices [`raw_cluster`] makes a graph of.
    pub(crate) const RAW_MAX_N: usize = 40;

    /// The cluster a property test's raw draws describe: `n` vertices, one
    /// of `k` ∈ {1, 2, 3, 8} parts for each (some parts stay empty), and
    /// `edges` folded into the id space — self-loops, duplicate edges and
    /// isolated vertices included. Draw `n` below [`RAW_MAX_N`], `pick`
    /// below 4 and `RAW_MAX_N` `parts`.
    pub(crate) fn raw_cluster(
        n: usize,
        pick: usize,
        edges: &[(u32, u32)],
        parts: &[u32],
    ) -> Cluster {
        let k = [1, 2, 3, 8][pick];
        let fold = |v: u32| v % n.max(1) as u32;
        let edges: Vec<_> = edges.iter().map(|&(u, v)| (fold(u), fold(v))).collect();
        let graph = CsrGraph::from_edges(n, if n == 0 { &[] } else { &edges });
        let assignment = parts[..n].iter().map(|p| p % k).collect();
        let partition = Partition::from_assignment(&graph, k as usize, assignment);
        Cluster::new(Arc::new(graph), Arc::new(partition))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Each slice is exactly its members' lists; together the slices
        /// are the graph; and every one of them carries the driver's
        /// tallies for all parts, not what it could count itself.
        #[test]
        fn slices_partition_the_graph(
            n in 0..RAW_MAX_N,
            pick in 0usize..4,
            edges in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..120),
            parts in prop::collection::vec(0u32..8, RAW_MAX_N),
            in_lists in 0u8..2,
        ) {
            let cluster = raw_cluster(n, pick, &edges, &parts);
            let in_lists = in_lists == 1;
            let app = if in_lists {
                AppSpec::ConnectedComponents
            } else {
                AppSpec::PageRank { iters: 1 }
            };
            let spec = sourceless_spec(cluster.num_machines() as u32, app);
            let graph = cluster.graph();
            let slices = slice_clusters(&spec, &cluster);
            let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
            for (m, slice) in slices.iter().enumerate() {
                prop_assert_eq!(slice.partition(), cluster.partition());
                prop_assert_eq!(slice.graph().num_vertices(), graph.num_vertices());
                prop_assert_eq!(slice.graph().num_edges() as u64, cluster.edge_counts()[m]);
                for v in graph.vertices() {
                    let mine = cluster.owner(v) as usize == m;
                    let (out, inn) = (slice.graph().out_neighbors(v), slice.graph().in_neighbors(v));
                    prop_assert_eq!(out, if mine { graph.out_neighbors(v) } else { &[] });
                    prop_assert_eq!(inn, if mine && in_lists { graph.in_neighbors(v) } else { &[] });
                }
                edges.extend(slice.graph().edges());
            }
            edges.sort_unstable();
            prop_assert_eq!(edges, graph.edges().collect::<Vec<_>>());
        }
    }

    /// A real `run_worker` against a scripted driver. The job names a graph
    /// file that does not exist and says `hash`; the placement is Chunk-V's
    /// over a graph only the driver side of this test ever had. The worker
    /// completes, owning Chunk-V's vertices: CC's initial label of a vertex
    /// is its own id, so the `Final` of a run of no supersteps is the
    /// worker's vertex set itself.
    #[test]
    fn a_worker_opens_no_graph_source_and_owns_what_the_placement_says() {
        const MACHINE: u32 = 1;
        let spec = sourceless_spec(3, AppSpec::ConnectedComponents);
        assert!(spec.graph.load().is_err());
        let graph = Arc::new(generate::erdos_renyi(90, 400, 3));
        let chunk_v = Arc::new(ChunkV.partition(&graph, 3));
        let hash = HashPartitioner::default().partition(&graph, 3);
        assert_ne!(chunk_v.members(MACHINE), hash.members(MACHINE));
        let cluster = Cluster::new(graph, chunk_v.clone());

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
        let job = DriverMsg::Job {
            spec,
            machine: MACHINE,
        };
        driver.write_all(&job.to_frame().unwrap()).unwrap();
        let placement = Placement::of(&cluster, MACHINE, true);
        placement.write_to(&mut driver).unwrap();
        let finish = DriverMsg::Finish { epoch: 0 };
        driver.write_all(&finish.to_frame().unwrap()).unwrap();
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

    /// Machine 1 of 3 over `erdos_renyi(90, 400, 3)` under Chunk-V, with a
    /// placement bent by `bend` before the worker sees it.
    fn bent(app: AppSpec, bend: impl FnOnce(&mut Placement<'_>)) -> Result<Cluster, ClusterError> {
        let spec = sourceless_spec(3, app);
        let graph = Arc::new(generate::erdos_renyi(90, 400, 3));
        let partition = Arc::new(ChunkV.partition(&graph, 3));
        let mut placement = received(&Cluster::new(graph, partition), 1, spec.app.uses_in_edges());
        bend(&mut placement);
        placed_cluster(&spec, 1, placement)
    }

    fn corrupt(bend: impl FnOnce(&mut Placement<'_>)) -> String {
        let err = bent(AppSpec::ConnectedComponents, bend).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
        err.to_string()
    }

    /// Moves vertex `v` to `part` and keeps the vertex tallies true, so
    /// that only the slice is left disagreeing with the assignment.
    fn reassign(placement: &mut Placement<'_>, v: usize, part: PartId) {
        let from = std::mem::replace(&mut placement.assignment.to_mut()[v], part);
        let counts = placement.vertex_counts.to_mut();
        counts[from as usize] -= 1;
        counts[part as usize] += 1;
    }

    #[test]
    fn a_placement_that_does_not_fit_the_job_is_corrupt() {
        assert!(bent(AppSpec::ConnectedComponents, |_| {}).is_ok());
        assert!(corrupt(|p| p.parts = 2).contains("2 parts for a job of 3"));
        assert!(corrupt(|p| p.parts = 0).contains("0 parts"));
        // PageRank does not read in-lists, CC does.
        assert!(corrupt(|p| p.slice.in_lists = false).contains("without in-lists for cc"));
        let err = bent(AppSpec::PageRank { iters: 1 }, |p| p.slice.in_lists = true).unwrap_err();
        assert!(
            err.to_string().contains("with in-lists for pagerank"),
            "{err}"
        );
        // A machine the placement has no part for.
        let spec = sourceless_spec(3, AppSpec::ConnectedComponents);
        let graph = Arc::new(generate::erdos_renyi(90, 400, 3));
        let cluster = Cluster::new(graph.clone(), Arc::new(ChunkV.partition(&graph, 3)));
        let err = placed_cluster(&spec, 3, received(&cluster, 1, true)).unwrap_err();
        assert!(err.to_string().contains("machine 3 of a 3-part"), "{err}");
    }

    #[test]
    fn a_slice_that_is_not_the_machines_share_is_corrupt() {
        // Chunk-V: machine 1 owns vertices 30..60.
        // One vertex more assigned to the machine than its slice brings.
        assert!(corrupt(|p| reassign(p, 0, 1)).contains("slice of 30 members, machine 1 owns 31"));
        // As many, but one of them is another machine's.
        let err = corrupt(|p| {
            reassign(p, 0, 1);
            reassign(p, 45, 0);
        });
        assert!(err.contains("holds vertex 45 of machine 0"), "{err}");
        // The slice's edges are not what the driver counted for the part.
        let err = corrupt(|p| p.edge_counts.to_mut()[1] += 1);
        assert!(err.contains("out-edges, machine 1 owns"), "{err}");
        // Tallies that are not the assignment's, or not one per part.
        assert!(corrupt(|p| p.vertex_counts.to_mut()[0] += 1).contains("vertex tallies"));
        assert!(corrupt(|p| p.edge_counts.to_mut().truncate(2)).contains("2 edge tallies"));
        // An assignment for another graph.
        let err = corrupt(|p| {
            p.assignment.to_mut().push(0);
            p.vertex_counts.to_mut()[0] += 1;
        });
        assert!(
            err.contains("covers 91 vertices, the slice spans 90"),
            "{err}"
        );
    }
}

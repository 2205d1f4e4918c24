//! Driver ↔ worker protocol messages.
//!
//! Star topology: workers never talk to each other, all superstep data
//! routes through the driver. Every message carries the recovery *epoch*
//! — incremented each time the driver restores from a checkpoint — so
//! frames from before a recovery (a `StepDone` that raced the death
//! verdict, say) are recognized as stale and dropped instead of being
//! mistaken for progress in the replayed superstep.
//!
//! ```text
//! kind  direction        message
//! 1     worker -> driver Join      { worker_id, key }
//! 2     driver -> worker Job       { spec, machine }
//! 14    driver -> worker Placement { parts, assignment[n], vertex_counts[k], edge_counts[k], slice }
//! 3     worker -> driver Ready     { epoch, agg }
//! 4     driver -> worker StepBegin { epoch, superstep, agg, checkpoint }
//! 5     worker -> driver StepData  { epoch, superstep, rows[k], paths }
//! 6     driver -> worker Inbox     { epoch, superstep, rows[k] }
//! 7     worker -> driver StepDone  { epoch, superstep, active, agg, snapshot? }
//! 8     driver -> worker Restore   { epoch, superstep, state? }
//! 9     driver -> worker Finish    { epoch }
//! 10    worker -> driver Final     { epoch, result }
//! 11    worker -> driver Heartbeat { epoch }
//! 12    driver -> worker Shutdown  { }
//! 13    worker -> driver ObsReport { epoch, seq, step?, clock echoes, snapshot }
//! ```
//!
//! `Job` goes out the moment a worker joins; `Placement` follows once the
//! driver has loaded and partitioned the graph, with the vertex → machine
//! map, the per-part tallies and the worker's [`Slice`] — the adjacency of
//! the vertices it owns, which is all of the graph it will ever hold. The
//! worker answers it with `Ready`. A worker never opens a graph source and
//! never partitions anything.
//!
//! A message is one value on both sides of the wire. The sender's
//! [`to_frame`](WorkerMsg::to_frame) writes header and payload into one
//! buffer; the receiver's [`from_frame`](WorkerMsg::from_frame) borrows
//! every byte string from the frame it was read into, so row segments and
//! snapshots are not copied to be looked at. The two payloads that are as
//! large as what they carry are never a buffer at either end: a
//! `Placement` leaves the driver's graph through
//! [`Placement::write_to`] and a `Final` leaves the worker's state through
//! [`write_final`], both [`frame::CHUNK`] bytes at a time; the worker
//! decodes its `Placement` while it arrives ([`Placement::read_from`]), and
//! the driver's reader threads do the same with every `Final`.
//!
//! `StepBegin` additionally carries the driver's send timestamp and an
//! obs-collection flag; `ObsReport` echoes the timestamp back along with
//! the worker's receive/send clocks, which is what lets the driver run
//! its NTP-style clock-offset estimate. The report itself is one
//! `bpart_obs::snapshot::Snapshot` — the worker as it would describe
//! itself on its own `/metrics`, `/spans` and `/profile` — encoded here
//! like every other payload, so a corrupt one is a
//! [`ClusterError::FrameCorrupt`] like any other.

use crate::error::ClusterError;
use crate::frame::{self, Frame, PayloadReader, PayloadWriter};
use crate::spec::JobSpec;
use crate::wire::{put_bytes, put_f64, put_str, put_u32, put_u64, Reader};
use bpart_cluster::{Cluster, MachineId};
use bpart_core::PartId;
use bpart_graph::{CsrGraph, OwnedLists, VertexId};
use bpart_obs::alerts::{AlertStatus, Phase};
use bpart_obs::snapshot::{HistogramValue, Metrics, Snapshot, Span};
use std::borrow::Cow;
use std::io::{Read, Write};

/// Frame kinds (the `kind` byte of every frame).
pub mod kind {
    /// Worker announces itself after connecting.
    pub const JOIN: u8 = 1;
    /// Driver ships the job spec and machine assignment.
    pub const JOB: u8 = 2;
    /// Driver ships the partition it computed and the worker's slice.
    pub const PLACEMENT: u8 = 14;
    /// Worker finished (re)building local state.
    pub const READY: u8 = 3;
    /// Driver starts a superstep.
    pub const STEP_BEGIN: u8 = 4;
    /// Worker's outgoing rows for the superstep.
    pub const STEP_DATA: u8 = 5;
    /// Driver's concatenated inbox for the worker.
    pub const INBOX: u8 = 6;
    /// Worker applied the superstep.
    pub const STEP_DONE: u8 = 7;
    /// Driver rolls the worker back to a checkpoint.
    pub const RESTORE: u8 = 8;
    /// Driver asks for the final local result.
    pub const FINISH: u8 = 9;
    /// Worker's final local result.
    pub const FINAL: u8 = 10;
    /// Worker liveness signal.
    pub const HEARTBEAT: u8 = 11;
    /// Driver tells the worker to exit cleanly.
    pub const SHUTDOWN: u8 = 12;
    /// Worker ships a snapshot of itself (plus superstep timings and
    /// clock echoes) to the driver's federation store.
    pub const OBS_REPORT: u8 = 13;
}

/// One destination's worth of outgoing messages: the element count plus
/// their back-to-back wire encoding. The count travels separately so the
/// driver can do link-fault accounting without decoding app payloads.
/// Owned where a worker encoded it, borrowed from the frame where it was
/// received — the driver forwards segments without looking inside.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowSeg<'a> {
    /// Number of messages encoded in `data`.
    pub count: u32,
    /// Back-to-back `Wire` encodings.
    pub data: Cow<'a, [u8]>,
}

/// Bytes `put_rows` writes.
fn rows_len(rows: &[RowSeg<'_>]) -> usize {
    4 + rows.iter().map(|seg| 8 + seg.data.len()).sum::<usize>()
}

fn put_rows(out: &mut Vec<u8>, rows: &[RowSeg<'_>]) {
    // Room for all of it up front, so no segment is moved again by a later
    // one's growth.
    out.reserve(rows_len(rows));
    put_u32(out, rows.len() as u32);
    for seg in rows {
        put_u32(out, seg.count);
        put_bytes(out, &seg.data);
    }
}

/// The segment count comes off the wire, so nothing is reserved for it.
fn read_rows<'a>(r: &mut Reader<'a>) -> Result<Vec<RowSeg<'a>>, ClusterError> {
    (0..r.u32()?)
        .map(|_| {
            Ok(RowSeg {
                count: r.u32()?,
                data: Cow::Borrowed(r.bytes()?),
            })
        })
        .collect()
}

fn put_opt_bytes(out: &mut Vec<u8>, v: Option<&[u8]>) {
    match v {
        Some(b) => {
            out.push(1);
            put_bytes(out, b);
        }
        None => out.push(0),
    }
}

fn read_opt_bytes<'a>(r: &mut Reader<'a>) -> Result<Option<&'a [u8]>, ClusterError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.bytes()?),
    })
}

/// One machine's share of the graph: the vertices it owns and their
/// adjacency lists.
///
/// ```text
/// u32 count, count × u32   members, ascending
/// lists                    the members' out-lists
/// u8                       1: their in-lists follow
/// lists                    the members' in-lists
///
/// lists := count × u32     list length per member
///          u64 total       (= the sum of the lengths)
///          total × u32     the lists, back to back; each sorted
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Slice<'a> {
    /// The vertices the machine owns, ascending.
    pub members: Cow<'a, [VertexId]>,
    /// A graph over the global id space that has the members' lists: the
    /// whole graph where the driver encodes from it; where a worker decoded
    /// it, the graph of the slice itself
    /// ([`CsrGraph::from_owned_lists`]) — the only graph a worker holds.
    pub graph: Cow<'a, CsrGraph>,
    /// Whether the in-lists travel too (the job's program signals along
    /// in-edges).
    pub in_lists: bool,
}

/// Bytes on the wire of a slice of `members` vertices with `out_edges`
/// out-list entries (and `in_edges` in-list entries, when those travel),
/// which is also what its adjacency costs a worker to hold: four bytes per
/// member, per list and per edge end.
pub fn slice_wire_len(members: usize, out_edges: usize, in_edges: Option<usize>) -> usize {
    // Lengths, the `u64` total, targets.
    let lists = |edges: usize| 4 * members + 8 + 4 * edges;
    4 + 4 * members + lists(out_edges) + 1 + in_edges.map_or(0, lists)
}

impl Slice<'_> {
    /// Bytes of this slice on the wire ([`slice_wire_len`]).
    pub fn wire_len(&self) -> usize {
        let graph = &*self.graph;
        let edges = |degree: fn(&CsrGraph, VertexId) -> usize| {
            self.members
                .iter()
                .map(|&v| degree(graph, v))
                .sum::<usize>()
        };
        slice_wire_len(
            self.members.len(),
            edges(CsrGraph::out_degree),
            self.in_lists.then(|| edges(CsrGraph::in_degree)),
        )
    }

    fn encode(&self, out: &mut PayloadWriter<'_>) -> Result<(), ClusterError> {
        let graph = &*self.graph;
        out.u32(self.members.len() as u32)?;
        out.u32s(&self.members)?;
        put_lists(out, &self.members, |v| graph.out_neighbors(v))?;
        out.bytes(&[self.in_lists as u8])?;
        if self.in_lists {
            put_lists(out, &self.members, |v| graph.in_neighbors(v))?;
        }
        Ok(())
    }

    /// Decodes a slice of a graph of `n` vertices. What the lists must
    /// satisfy to be a graph at all is [`CsrGraph::from_owned_lists`]'s to
    /// check; whether it is the slice this worker was promised is the
    /// worker's.
    fn decode(r: &mut PayloadReader<impl Read>, n: usize) -> Result<Slice<'static>, ClusterError> {
        let count = r.u32()? as usize;
        let members = r.u32s(count)?;
        let out = read_lists(r, count)?;
        let inn = match r.u8()? {
            0 => None,
            _ => Some(read_lists(r, count)?),
        };
        let in_lists = inn.is_some();
        let graph =
            CsrGraph::from_owned_lists(n, &members, out, inn).map_err(ClusterError::corrupt)?;
        Ok(Slice {
            members: Cow::Owned(members),
            graph: Cow::Owned(graph),
            in_lists,
        })
    }
}

fn put_lists<'g>(
    out: &mut PayloadWriter<'_>,
    members: &[VertexId],
    list: impl Fn(VertexId) -> &'g [VertexId],
) -> Result<(), ClusterError> {
    let mut total = 0u64;
    for &v in members {
        let len = list(v).len();
        out.u32(len as u32)?;
        total += len as u64;
    }
    out.bytes(&total.to_le_bytes())?;
    members.iter().try_for_each(|&v| out.u32s(list(v)))
}

/// Both counts come off the wire; `PayloadReader::u32s` holds them against
/// what the payload has left before it allocates.
fn read_lists(
    r: &mut PayloadReader<impl Read>,
    members: usize,
) -> Result<OwnedLists, ClusterError> {
    let degrees = r.u32s(members)?;
    let total = usize::try_from(r.u64()?)
        .map_err(|_| ClusterError::corrupt("list section longer than memory"))?;
    Ok(OwnedLists {
        degrees,
        targets: r.u32s(total)?,
    })
}

/// What the driver tells a worker about the partition: who owns every
/// vertex, what every part weighs, and the worker's own slice. The worker
/// builds its cluster from this and from nothing else, so every process
/// agrees on ownership whatever partitioner produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement<'a> {
    /// Number of parts (= machines).
    pub parts: u32,
    /// Part of every vertex, in vertex order; each `< parts`.
    pub assignment: Cow<'a, [PartId]>,
    /// `|V_i|` per part.
    pub vertex_counts: Cow<'a, [u64]>,
    /// `|E_i|` (out-degree sums) per part, as the driver counted them on
    /// the whole graph: a worker could count its own part's only.
    pub edge_counts: Cow<'a, [u64]>,
    /// The receiving worker's share of the graph.
    pub slice: Slice<'a>,
}

impl Placement<'static> {
    /// Reads the next frame on `stream`, which must be a `Placement`, as it
    /// arrives: each array is filled off the wire, so a worker never holds
    /// its slice twice — once as a frame and once as a graph — and has
    /// nothing of that size to free before its app starts allocating.
    /// Nothing is returned before the frame's checksum has been verified.
    pub fn read_from(stream: impl Read) -> Result<Self, ClusterError> {
        let mut r = PayloadReader::open(stream)?;
        if r.kind() != kind::PLACEMENT {
            return Err(ClusterError::corrupt(format!(
                "expected a Placement frame, got kind {}",
                r.kind()
            )));
        }
        let placement = Placement::decode(&mut r)?;
        r.finish()?;
        Ok(placement)
    }

    fn decode(r: &mut PayloadReader<impl Read>) -> Result<Self, ClusterError> {
        let parts = r.u32()?;
        let n = r.u32()? as usize;
        let assignment: Vec<PartId> = r.u32s(n)?;
        if let Some(v) = assignment.iter().position(|&p| p >= parts) {
            return Err(ClusterError::corrupt(format!(
                "placement puts vertex {v} on part {} of {parts}",
                assignment[v]
            )));
        }
        Ok(Placement {
            parts,
            assignment: Cow::Owned(assignment),
            vertex_counts: Cow::Owned(r.u64s(parts as usize)?),
            edge_counts: Cow::Owned(r.u64s(parts as usize)?),
            slice: Slice::decode(r, n)?,
        })
    }
}

impl<'a> Placement<'a> {
    /// Writes this placement's frame to `out` in pieces: from a borrowed
    /// one ([`of`](Self::of)), the driver's graph is the only copy of the
    /// slice on the sending side.
    pub fn write_to(&self, out: &mut dyn Write) -> Result<(), ClusterError> {
        let len = 8
            + 4 * self.assignment.len()
            + 8 * (self.vertex_counts.len() + self.edge_counts.len())
            + self.slice.wire_len();
        frame::write_streamed(out, kind::PLACEMENT, len, |out| {
            out.u32(self.parts)?;
            out.u32(self.assignment.len() as u32)?;
            out.u32s(&self.assignment)?;
            let mut tallies = self.vertex_counts.iter().chain(self.edge_counts.iter());
            tallies.try_for_each(|c| out.bytes(&c.to_le_bytes()))?;
            self.slice.encode(out)
        })
    }

    /// Machine `machine`'s placement under `cluster`, borrowing all of it.
    pub fn of(cluster: &'a Cluster, machine: MachineId, in_lists: bool) -> Self {
        Placement {
            parts: cluster.num_machines() as u32,
            assignment: Cow::Borrowed(cluster.partition().assignment()),
            vertex_counts: Cow::Borrowed(cluster.vertex_counts()),
            edge_counts: Cow::Borrowed(cluster.edge_counts()),
            slice: Slice {
                members: Cow::Borrowed(cluster.local_vertices(machine)),
                graph: Cow::Borrowed(cluster.graph()),
                in_lists,
            },
        }
    }
}

/// Reads a counted list. The count comes off the wire, so nothing is
/// reserved for it: a list that claims more than the payload holds ends
/// at the underrun.
fn read_list<T>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, ClusterError>,
) -> Result<Vec<T>, ClusterError> {
    (0..r.u32()?).map(|_| item(r)).collect()
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(v.is_some() as u8);
    put_u64(out, v.unwrap_or(0));
}

fn read_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, ClusterError> {
    let (tag, v) = (r.u8()?, r.u64()?);
    match tag {
        0 => Ok(None),
        1 => Ok(Some(v)),
        t => Err(ClusterError::corrupt(format!("option tag {t}"))),
    }
}

/// A worker's snapshot of itself: metrics by kind, spans, folded profile,
/// alert states — every list counted, every string length-prefixed.
fn put_snapshot(out: &mut Vec<u8>, snapshot: &Snapshot) {
    let Metrics {
        counters,
        gauges,
        histograms,
    } = &snapshot.metrics;
    put_u32(out, counters.len() as u32);
    for (name, v) in counters {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u32(out, gauges.len() as u32);
    for (name, v) in gauges {
        put_str(out, name);
        put_f64(out, *v);
    }
    put_u32(out, histograms.len() as u32);
    for (name, h) in histograms {
        put_str(out, name);
        put_u32(out, h.bounds.len() as u32);
        h.bounds.iter().for_each(|&b| put_f64(out, b));
        put_u32(out, h.buckets.len() as u32);
        h.buckets.iter().for_each(|&b| put_u64(out, b));
        put_u64(out, h.count);
        put_f64(out, h.sum);
    }
    put_u32(out, snapshot.spans.len() as u32);
    for s in &snapshot.spans {
        put_u64(out, s.id);
        put_opt_u64(out, s.parent);
        put_str(out, &s.name);
        put_u64(out, s.thread);
        put_u64(out, s.start_ns);
        put_u64(out, s.dur_ns);
        put_u32(out, s.attrs.len() as u32);
        for (k, v) in &s.attrs {
            put_str(out, k);
            put_str(out, v);
        }
    }
    put_u32(out, snapshot.profile.len() as u32);
    for (stack, count) in &snapshot.profile {
        put_str(out, stack);
        put_u64(out, *count);
    }
    put_u32(out, snapshot.alerts.len() as u32);
    for a in &snapshot.alerts {
        put_str(out, &a.name);
        out.push(match a.phase {
            Phase::Ok => 0,
            Phase::Pending => 1,
            Phase::Firing => 2,
        });
        put_opt_u64(out, a.value.map(f64::to_bits));
        put_str(out, &a.condition);
        put_u64(out, a.fired_at_ns);
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, ClusterError> {
    let counters = read_list(r, |r| Ok((r.str()?, r.u64()?)))?;
    let gauges = read_list(r, |r| Ok((r.str()?, r.f64()?)))?;
    let histograms = read_list(r, |r| {
        let name = r.str()?;
        let h = HistogramValue {
            bounds: read_list(r, |r| r.f64())?,
            buckets: read_list(r, |r| r.u64())?,
            count: r.u64()?,
            sum: r.f64()?,
        };
        if h.buckets.len() != h.bounds.len() + 1 {
            return Err(ClusterError::corrupt(format!(
                "histogram {name:?}: {} buckets for {} bounds",
                h.buckets.len(),
                h.bounds.len()
            )));
        }
        Ok((name, h))
    })?;
    let spans = read_list(r, |r| {
        Ok(Span {
            id: r.u64()?,
            parent: read_opt_u64(r)?,
            name: r.str()?,
            thread: r.u64()?,
            start_ns: r.u64()?,
            dur_ns: r.u64()?,
            attrs: read_list(r, |r| Ok((r.str()?, r.str()?)))?,
        })
    })?;
    let profile = read_list(r, |r| Ok((r.str()?, r.u64()?)))?;
    let alerts = read_list(r, |r| {
        Ok(AlertStatus {
            name: r.str()?,
            phase: match r.u8()? {
                0 => Phase::Ok,
                1 => Phase::Pending,
                2 => Phase::Firing,
                p => return Err(ClusterError::corrupt(format!("alert phase {p}"))),
            },
            value: read_opt_u64(r)?.map(f64::from_bits),
            condition: r.str()?,
            fired_at_ns: r.u64()?,
        })
    })?;
    Ok(Snapshot {
        metrics: Metrics {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        },
        spans,
        profile,
        alerts,
    })
}

/// Messages the driver sends to a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverMsg<'a> {
    /// Job spec plus the worker's machine assignment. Sent at join, ahead
    /// of the placement.
    Job {
        /// The job: where the graph is and what to run on it.
        spec: JobSpec,
        /// Which BSP machine this worker plays.
        machine: u32,
    },
    /// Begin a superstep: aggregate from the previous barrier, plus
    /// whether the worker must attach a snapshot to its `StepDone`.
    StepBegin {
        /// Recovery epoch.
        epoch: u32,
        /// Superstep index.
        superstep: u64,
        /// Global aggregate entering this superstep.
        agg: f64,
        /// Attach a state snapshot to `StepDone`.
        checkpoint: bool,
        /// Driver clock (`tracer::now_ns`) at send; the worker echoes it
        /// in `ObsReport` for clock-offset estimation.
        sent_ns: u64,
        /// Whether obs federation collection is on: workers only enable
        /// tracing and ship `ObsReport`s when asked, so a no-obs run
        /// pays no federation overhead.
        obs: bool,
    },
    /// The worker's concatenated inbox for the superstep.
    Inbox {
        /// Recovery epoch.
        epoch: u32,
        /// Superstep index.
        superstep: u64,
        /// One segment per sender, in machine order; the worker's own
        /// row arrives empty (it kept it locally).
        rows: Vec<RowSeg<'a>>,
    },
    /// Roll back to `superstep` with the given state (`None`: re-init
    /// from the deterministic initial state).
    Restore {
        /// New (incremented) recovery epoch.
        epoch: u32,
        /// Superstep to resume from.
        superstep: u64,
        /// Snapshot bytes, or `None` for the initial state.
        state: Option<&'a [u8]>,
    },
    /// The run is complete; send `Final`.
    Finish {
        /// Recovery epoch.
        epoch: u32,
    },
    /// Exit cleanly.
    Shutdown,
}

/// Messages a worker sends to the driver.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg<'a> {
    /// First frame after connecting: who am I, and the shared secret.
    Join {
        /// Worker id (machine id) assigned on the command line.
        worker_id: u32,
        /// Join key; rejects strays connecting to the wrong driver.
        key: u64,
    },
    /// Local state (re)built; carries the worker's initial aggregate
    /// contribution.
    Ready {
        /// Recovery epoch the worker is now in.
        epoch: u32,
        /// Local aggregate of the (restored) state.
        agg: f64,
    },
    /// Outgoing rows, one segment per destination machine; the worker's
    /// own segment is empty (kept locally to preserve combine order).
    StepData {
        /// Recovery epoch.
        epoch: u32,
        /// Superstep index.
        superstep: u64,
        /// One segment per destination, in machine order.
        rows: Vec<RowSeg<'a>>,
        /// A walk's `(walker, step, vertex)` triples of this superstep,
        /// back to back ([`PATH_TRIPLE_LEN`](crate::wire::PATH_TRIPLE_LEN)
        /// bytes each): a worker keeps none. Empty for an iteration app.
        paths: &'a [u8],
    },
    /// Superstep applied.
    StepDone {
        /// Recovery epoch.
        epoch: u32,
        /// Superstep index.
        superstep: u64,
        /// Local activity signal (votes-to-halt when the sum over
        /// workers is zero).
        active: u64,
        /// Local aggregate contribution for the next superstep.
        agg: f64,
        /// State snapshot, present when `StepBegin` asked for one.
        snapshot: Option<&'a [u8]>,
    },
    /// Final local result bytes.
    Final {
        /// Recovery epoch.
        epoch: u32,
        /// App-specific encoding of the local result.
        result: &'a [u8],
    },
    /// Liveness signal, sent on an interval by a dedicated thread.
    Heartbeat {
        /// Recovery epoch.
        epoch: u32,
    },
    /// The worker's snapshot of itself, (optionally) one superstep's
    /// compute/exchange timings, and the clock echoes for offset
    /// estimation. Sent after each applied
    /// superstep (before `StepDone`, so the driver absorbs the timings
    /// ahead of the barrier) and on a low-rate timer so a SIGKILLed
    /// worker still leaves its last snapshot behind.
    ObsReport {
        /// Recovery epoch.
        epoch: u32,
        /// Per-worker report sequence number (restarts on respawn; the
        /// bumped epoch keeps `(epoch, seq)` monotonic).
        seq: u64,
        /// Superstep the timing sample belongs to (when `has_step`).
        superstep: u64,
        /// Whether this report carries a superstep timing sample.
        has_step: bool,
        /// Computation-phase nanoseconds for `superstep`.
        compute_ns: u64,
        /// Exchange-phase (StepData send → Inbox arrival) nanoseconds.
        comm_ns: u64,
        /// Echo of the driver's `StepBegin.sent_ns` (0 = no sample).
        echo_ns: u64,
        /// Worker clock at `StepBegin` receipt.
        recv_ns: u64,
        /// Worker clock at report send.
        send_ns: u64,
        /// The worker now; its spans are those closed since its
        /// previous report.
        snapshot: Snapshot,
    },
}

impl<'a> DriverMsg<'a> {
    /// The complete frame, header included, ready for one socket write.
    /// Fails only when the payload outgrows [`frame::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ClusterError> {
        let mut out = frame::begin();
        let kind = match self {
            DriverMsg::Job { spec, machine } => {
                put_u32(&mut out, *machine);
                put_bytes(&mut out, &spec.encode());
                kind::JOB
            }
            DriverMsg::StepBegin {
                epoch,
                superstep,
                agg,
                checkpoint,
                sent_ns,
                obs,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                put_f64(&mut out, *agg);
                out.push(*checkpoint as u8);
                put_u64(&mut out, *sent_ns);
                out.push(*obs as u8);
                kind::STEP_BEGIN
            }
            DriverMsg::Inbox {
                epoch,
                superstep,
                rows,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                put_rows(&mut out, rows);
                kind::INBOX
            }
            DriverMsg::Restore {
                epoch,
                superstep,
                state,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                put_opt_bytes(&mut out, *state);
                kind::RESTORE
            }
            DriverMsg::Finish { epoch } => {
                put_u32(&mut out, *epoch);
                kind::FINISH
            }
            DriverMsg::Shutdown => kind::SHUTDOWN,
        };
        frame::seal(kind, out)
    }

    /// Decodes a driver frame, borrowing its byte strings.
    pub fn from_frame(frame: &'a Frame) -> Result<Self, ClusterError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::JOB => {
                let machine = r.u32()?;
                let spec = JobSpec::decode(r.bytes()?)?;
                DriverMsg::Job { spec, machine }
            }
            kind::STEP_BEGIN => DriverMsg::StepBegin {
                epoch: r.u32()?,
                superstep: r.u64()?,
                agg: r.f64()?,
                checkpoint: r.u8()? != 0,
                sent_ns: r.u64()?,
                obs: r.u8()? != 0,
            },
            kind::INBOX => DriverMsg::Inbox {
                epoch: r.u32()?,
                superstep: r.u64()?,
                rows: read_rows(&mut r)?,
            },
            kind::RESTORE => DriverMsg::Restore {
                epoch: r.u32()?,
                superstep: r.u64()?,
                state: read_opt_bytes(&mut r)?,
            },
            kind::FINISH => DriverMsg::Finish { epoch: r.u32()? },
            kind::SHUTDOWN => DriverMsg::Shutdown,
            k => {
                return Err(ClusterError::corrupt(format!(
                    "unexpected driver frame kind {k}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ClusterError::corrupt("trailing bytes in driver frame"));
        }
        Ok(msg)
    }
}

/// Writes to `out` the [`Final`](WorkerMsg::Final) frame of a result of
/// `result_len` bytes that `result` hands over in pieces — what
/// `Final { epoch, result }.to_frame()` builds, without a sender ever
/// holding its result a second time as bytes.
pub fn write_final(
    out: &mut dyn Write,
    epoch: u32,
    result_len: usize,
    result: impl Fn(&mut PayloadWriter<'_>) -> Result<(), ClusterError>,
) -> Result<(), ClusterError> {
    let prefix = u32::try_from(result_len)
        .map_err(|_| ClusterError::unrecoverable("final result does not fit a length prefix"))?;
    frame::write_streamed(out, kind::FINAL, 8 + result_len, |out| {
        out.u32(epoch)?;
        out.u32(prefix)?;
        result(out)
    })
}

impl<'a> WorkerMsg<'a> {
    /// The complete frame, header included, ready for one socket write.
    /// Fails only when the payload outgrows [`frame::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ClusterError> {
        let mut out = frame::begin();
        let kind = match self {
            WorkerMsg::Join { worker_id, key } => {
                put_u32(&mut out, *worker_id);
                put_u64(&mut out, *key);
                kind::JOIN
            }
            WorkerMsg::Ready { epoch, agg } => {
                put_u32(&mut out, *epoch);
                put_f64(&mut out, *agg);
                kind::READY
            }
            WorkerMsg::StepData {
                epoch,
                superstep,
                rows,
                paths,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                out.reserve(rows_len(rows) + 4 + paths.len());
                put_rows(&mut out, rows);
                put_bytes(&mut out, paths);
                kind::STEP_DATA
            }
            WorkerMsg::StepDone {
                epoch,
                superstep,
                active,
                agg,
                snapshot,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                put_u64(&mut out, *active);
                put_f64(&mut out, *agg);
                put_opt_bytes(&mut out, *snapshot);
                kind::STEP_DONE
            }
            WorkerMsg::Final { epoch, result } => {
                put_u32(&mut out, *epoch);
                put_bytes(&mut out, result);
                kind::FINAL
            }
            WorkerMsg::Heartbeat { epoch } => {
                put_u32(&mut out, *epoch);
                kind::HEARTBEAT
            }
            WorkerMsg::ObsReport {
                epoch,
                seq,
                superstep,
                has_step,
                compute_ns,
                comm_ns,
                echo_ns,
                recv_ns,
                send_ns,
                snapshot,
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *superstep);
                out.push(*has_step as u8);
                put_u64(&mut out, *compute_ns);
                put_u64(&mut out, *comm_ns);
                put_u64(&mut out, *echo_ns);
                put_u64(&mut out, *recv_ns);
                put_u64(&mut out, *send_ns);
                put_snapshot(&mut out, snapshot);
                kind::OBS_REPORT
            }
        };
        frame::seal(kind, out)
    }

    /// Decodes a worker frame, borrowing its byte strings.
    pub fn from_frame(frame: &'a Frame) -> Result<Self, ClusterError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::JOIN => WorkerMsg::Join {
                worker_id: r.u32()?,
                key: r.u64()?,
            },
            kind::READY => WorkerMsg::Ready {
                epoch: r.u32()?,
                agg: r.f64()?,
            },
            kind::STEP_DATA => WorkerMsg::StepData {
                epoch: r.u32()?,
                superstep: r.u64()?,
                rows: read_rows(&mut r)?,
                paths: r.bytes()?,
            },
            kind::STEP_DONE => WorkerMsg::StepDone {
                epoch: r.u32()?,
                superstep: r.u64()?,
                active: r.u64()?,
                agg: r.f64()?,
                snapshot: read_opt_bytes(&mut r)?,
            },
            kind::FINAL => WorkerMsg::Final {
                epoch: r.u32()?,
                result: r.bytes()?,
            },
            kind::HEARTBEAT => WorkerMsg::Heartbeat { epoch: r.u32()? },
            kind::OBS_REPORT => WorkerMsg::ObsReport {
                epoch: r.u32()?,
                seq: r.u64()?,
                superstep: r.u64()?,
                has_step: r.u8()? != 0,
                compute_ns: r.u64()?,
                comm_ns: r.u64()?,
                echo_ns: r.u64()?,
                recv_ns: r.u64()?,
                send_ns: r.u64()?,
                snapshot: read_snapshot(&mut r)?,
            },
            k => {
                return Err(ClusterError::corrupt(format!(
                    "unexpected worker frame kind {k}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ClusterError::corrupt("trailing bytes in worker frame"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpec, GraphSource};
    use bpart_core::Partition;
    use std::sync::Arc;

    /// A sent frame as its receiver holds it.
    fn received(bytes: &[u8]) -> Frame {
        let (frame, used) = frame::decode(bytes).unwrap();
        assert_eq!(used, bytes.len());
        frame
    }

    fn round_trip_driver(msg: DriverMsg<'_>) {
        let frame = received(&msg.to_frame().unwrap());
        assert_eq!(DriverMsg::from_frame(&frame).unwrap(), msg);
    }

    fn round_trip_worker(msg: WorkerMsg<'_>) {
        let frame = received(&msg.to_frame().unwrap());
        assert_eq!(WorkerMsg::from_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn driver_messages_round_trip() {
        round_trip_driver(DriverMsg::Job {
            spec: JobSpec {
                graph: GraphSource::ErdosRenyi {
                    n: 10,
                    m: 20,
                    seed: 1,
                },
                scheme: "hash".into(),
                parts: 2,
                app: AppSpec::PageRank { iters: 3 },
                checkpoint_every: Some(2),
            },
            machine: 1,
        });
        round_trip_driver(DriverMsg::StepBegin {
            epoch: 1,
            superstep: 42,
            agg: 0.125,
            checkpoint: true,
            sent_ns: 123_456_789,
            obs: true,
        });
        round_trip_driver(DriverMsg::StepBegin {
            epoch: 0,
            superstep: 0,
            agg: 0.0,
            checkpoint: false,
            sent_ns: 0,
            obs: false,
        });
        round_trip_driver(DriverMsg::Inbox {
            epoch: 0,
            superstep: 7,
            rows: vec![
                RowSeg::default(),
                RowSeg {
                    count: 2,
                    data: Cow::Borrowed(&[1, 2, 3, 4]),
                },
            ],
        });
        round_trip_driver(DriverMsg::Restore {
            epoch: 2,
            superstep: 4,
            state: Some(&[9, 9]),
        });
        round_trip_driver(DriverMsg::Restore {
            epoch: 3,
            superstep: 0,
            state: None,
        });
        round_trip_driver(DriverMsg::Finish { epoch: 2 });
        round_trip_driver(DriverMsg::Shutdown);
    }

    #[test]
    fn worker_messages_round_trip() {
        round_trip_worker(WorkerMsg::Join {
            worker_id: 3,
            key: 0xdead_beef,
        });
        round_trip_worker(WorkerMsg::Ready {
            epoch: 0,
            agg: -1.5,
        });
        round_trip_worker(WorkerMsg::StepData {
            epoch: 1,
            superstep: 9,
            rows: vec![RowSeg {
                count: 1,
                data: Cow::Owned(vec![0xff; 12]),
            }],
            paths: &[],
        });
        round_trip_worker(WorkerMsg::StepData {
            epoch: 1,
            superstep: 9,
            rows: vec![RowSeg::default(); 2],
            paths: &[7; 32],
        });
        round_trip_worker(WorkerMsg::StepDone {
            epoch: 1,
            superstep: 9,
            active: 1,
            agg: 0.25,
            snapshot: Some(&[1, 2, 3]),
        });
        round_trip_worker(WorkerMsg::Final {
            epoch: 1,
            result: &[4, 5],
        });
        round_trip_worker(WorkerMsg::Heartbeat { epoch: 2 });
        round_trip_worker(obs_report());
        round_trip_worker(WorkerMsg::ObsReport {
            epoch: 0,
            seq: 1,
            superstep: 0,
            has_step: false,
            compute_ns: 0,
            comm_ns: 0,
            echo_ns: 0,
            recv_ns: 0,
            send_ns: 0,
            snapshot: Snapshot::default(),
        });
    }

    /// An `ObsReport` with something in every field of its snapshot: all
    /// three metric kinds, a root and a child span with attributes, a
    /// profile, and alerts in each phase with and without a value.
    pub(crate) fn obs_report() -> WorkerMsg<'static> {
        let mut metrics = Metrics::default();
        metrics.counters.insert("dist.frames".into(), 7);
        metrics.gauges.insert("part.edges".into(), -0.0);
        metrics.gauges.insert("tiny".into(), f64::MIN_POSITIVE);
        metrics.histograms.insert(
            "dist.frame_bytes".into(),
            HistogramValue {
                bounds: vec![64.0, 4096.0],
                buckets: vec![4, 1, 0],
                count: 5,
                sum: 700.0,
            },
        );
        let span = |id, parent, name: &str, attrs: &[(&str, &str)]| Span {
            id,
            parent,
            name: name.into(),
            thread: 3,
            start_ns: 1000 * id,
            dur_ns: 10,
            attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        };
        let alert = |name: &str, phase, value| AlertStatus {
            name: name.into(),
            phase,
            value,
            condition: format!("{name} > 0"),
            fired_at_ns: 9,
        };
        WorkerMsg::ObsReport {
            epoch: 1,
            seq: 12,
            superstep: 6,
            has_step: true,
            compute_ns: 42_000_000,
            comm_ns: 9_000_000,
            echo_ns: 111,
            recv_ns: 222,
            send_ns: 333,
            snapshot: Snapshot {
                metrics,
                spans: vec![
                    span(
                        4,
                        None,
                        "worker.superstep",
                        &[("superstep", "6"), ("é", "\"")],
                    ),
                    span(5, Some(4), "worker.compute", &[]),
                ],
                profile: vec![("dist.superstep;dist.compute".into(), 7)],
                alerts: vec![
                    alert("a", Phase::Ok, None),
                    alert("b", Phase::Pending, Some(0.5)),
                    alert("c", Phase::Firing, Some(f64::INFINITY)),
                ],
            },
        }
    }

    #[test]
    fn an_obs_report_cut_or_claiming_too_much_is_corrupt() {
        let bytes = obs_report().to_frame().unwrap();
        let payload = &bytes[frame::HEADER_LEN..];
        let corrupt = |payload: &[u8]| {
            let frame = received(&frame::encode(kind::OBS_REPORT, payload).unwrap());
            match WorkerMsg::from_frame(&frame) {
                Err(ClusterError::FrameCorrupt { .. }) => {}
                other => panic!("{} bytes decoded as {other:?}", payload.len()),
            }
        };
        // Every proper prefix underruns somewhere; trailing bytes are
        // refused, not ignored.
        for keep in 0..payload.len() {
            corrupt(&payload[..keep]);
        }
        corrupt(&[payload, &[0]].concat());
        // The fixed fields end at byte 61; the counter count follows. A
        // count the payload cannot hold ends at the underrun, with nothing
        // reserved for it.
        let mut greedy = payload.to_vec();
        greedy[61..65].copy_from_slice(&u32::MAX.to_le_bytes());
        corrupt(&greedy);
    }

    #[test]
    fn an_obs_report_with_a_bad_tag_or_shape_is_corrupt() {
        let decode = |msg: &WorkerMsg<'_>, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = msg.to_frame().unwrap();
            let mut payload = bytes.split_off(frame::HEADER_LEN);
            edit(&mut payload);
            let frame = received(&frame::encode(kind::OBS_REPORT, &payload).unwrap());
            WorkerMsg::from_frame(&frame).map(|_| ())
        };
        let report = |snapshot| WorkerMsg::ObsReport {
            epoch: 0,
            seq: 0,
            superstep: 0,
            has_step: false,
            compute_ns: 0,
            comm_ns: 0,
            echo_ns: 0,
            recv_ns: 0,
            send_ns: 0,
            snapshot,
        };
        let is_corrupt =
            |r: Result<(), ClusterError>| matches!(r, Err(ClusterError::FrameCorrupt { .. }));

        // One root span: its parent tag is the byte after the three empty
        // metric lists, the span count and the id.
        let one_span = report(Snapshot {
            spans: vec![Span {
                id: 1,
                parent: None,
                name: "s".into(),
                thread: 0,
                start_ns: 0,
                dur_ns: 0,
                attrs: vec![],
            }],
            ..Snapshot::default()
        });
        let tag_at = 61 + 4 * 4 + 8;
        assert!(decode(&one_span, &|_| {}).is_ok());
        assert!(is_corrupt(decode(&one_span, &|p| p[tag_at] = 2)));

        // One alert: its phase byte follows the five empty lists' counts,
        // the alert count and the one-letter name.
        let one_alert = report(Snapshot {
            alerts: vec![AlertStatus {
                name: "a".into(),
                phase: Phase::Ok,
                value: None,
                condition: String::new(),
                fired_at_ns: 0,
            }],
            ..Snapshot::default()
        });
        let phase_at = 61 + 6 * 4 + 4 + 1;
        assert!(decode(&one_alert, &|_| {}).is_ok());
        assert!(is_corrupt(decode(&one_alert, &|p| p[phase_at] = 3)));

        // A histogram needs one bucket more than it has bounds.
        let mut lopsided = Snapshot::default();
        lopsided.metrics.histograms.insert(
            "h".into(),
            HistogramValue {
                bounds: vec![1.0],
                buckets: vec![1],
                count: 1,
                sum: 1.0,
            },
        );
        assert!(is_corrupt(decode(&report(lopsided), &|_| {})));

        // A name that is not UTF-8.
        let mut named = Snapshot::default();
        named.metrics.counters.insert("ab".into(), 1);
        let name_at = 61 + 4 + 4;
        assert!(is_corrupt(decode(&report(named), &|p| p[name_at] = 0xff)));
    }

    #[test]
    fn received_row_segments_borrow_the_frame() {
        let sent = WorkerMsg::StepData {
            epoch: 0,
            superstep: 1,
            rows: vec![RowSeg {
                count: 3,
                data: Cow::Owned(vec![7; 36]),
            }],
            paths: &[9; 16],
        };
        let frame = received(&sent.to_frame().unwrap());
        let WorkerMsg::StepData { rows, paths, .. } = WorkerMsg::from_frame(&frame).unwrap() else {
            panic!("not StepData");
        };
        let Cow::Borrowed(data) = rows[0].data else {
            panic!("segment was copied out of the frame");
        };
        assert!(frame.payload.as_ptr_range().contains(&data.as_ptr()));
        assert!(frame.payload.as_ptr_range().contains(&paths.as_ptr()));
    }

    /// Five vertices on three machines (machine 2 owns nothing), with a
    /// self-loop, a duplicate edge and an isolated vertex.
    fn cluster() -> Cluster {
        let graph = CsrGraph::from_edges(5, &[(0, 1), (1, 1), (1, 3), (1, 3), (3, 0), (4, 1)]);
        let partition = Partition::from_assignment(&graph, 3, vec![0, 1, 0, 1, 0]);
        Cluster::new(Arc::new(graph), Arc::new(partition))
    }

    /// A `Placement` payload from its parts, written field by field as the
    /// module docs lay it out, so a test can put anything in any of them.
    struct RawPlacement {
        parts: u32,
        assignment: Vec<u32>,
        vertex_counts: Vec<u64>,
        edge_counts: Vec<u64>,
        members: Vec<u32>,
        /// `(lengths, stated total, targets)`.
        out: (Vec<u32>, u64, Vec<u32>),
        inn: Option<(Vec<u32>, u64, Vec<u32>)>,
    }

    impl RawPlacement {
        /// Machine 1 of [`cluster`]: vertices 1 and 3, in-lists included.
        fn honest() -> Self {
            RawPlacement {
                parts: 3,
                assignment: vec![0, 1, 0, 1, 0],
                vertex_counts: vec![3, 2, 0],
                edge_counts: vec![2, 4, 0],
                members: vec![1, 3],
                out: (vec![3, 1], 4, vec![1, 3, 3, 0]),
                inn: Some((vec![3, 2], 5, vec![0, 1, 4, 1, 1])),
            }
        }

        /// The frame on the wire.
        fn bytes(&self) -> Vec<u8> {
            let mut payload = Vec::new();
            put_u32(&mut payload, self.parts);
            put_u32(&mut payload, self.assignment.len() as u32);
            self.assignment
                .iter()
                .for_each(|&p| put_u32(&mut payload, p));
            let tallies = self.vertex_counts.iter().chain(&self.edge_counts);
            tallies.for_each(|&c| put_u64(&mut payload, c));
            put_u32(&mut payload, self.members.len() as u32);
            self.members.iter().for_each(|&v| put_u32(&mut payload, v));
            let lists =
                |payload: &mut Vec<u8>, (lens, total, targets): &(Vec<u32>, u64, Vec<u32>)| {
                    lens.iter().for_each(|&len| put_u32(payload, len));
                    put_u64(payload, *total);
                    targets.iter().for_each(|&t| put_u32(payload, t));
                };
            lists(&mut payload, &self.out);
            payload.push(self.inn.is_some() as u8);
            if let Some(inn) = &self.inn {
                lists(&mut payload, inn);
            }
            frame::encode(kind::PLACEMENT, &payload).unwrap()
        }

        fn corrupt(&self) -> String {
            let err = Placement::read_from(&self.bytes()[..]).unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
            err.to_string()
        }
    }

    /// The frame `write_to` sends.
    fn sent(placement: &Placement<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        placement.write_to(&mut bytes).unwrap();
        bytes
    }

    /// The driver encodes a machine's slice from the whole graph; what the
    /// worker decodes is a graph of that slice alone, and encodes to the
    /// same bytes.
    #[test]
    fn a_placement_carries_the_members_lists_and_round_trips() {
        let cluster = cluster();
        let bytes = sent(&Placement::of(&cluster, 1, true));
        assert_eq!(bytes, RawPlacement::honest().bytes());
        let placement = Placement::read_from(&bytes[..]).unwrap();
        assert_eq!(placement.parts, 3);
        assert_eq!(placement.assignment, cluster.partition().assignment());
        assert_eq!(placement.vertex_counts, cluster.vertex_counts());
        assert_eq!(placement.edge_counts, cluster.edge_counts());
        let Slice {
            members,
            graph,
            in_lists: true,
        } = &placement.slice
        else {
            panic!("in-lists were sent");
        };
        assert_eq!(&members[..], [1, 3]);
        assert_eq!(graph.num_vertices(), 5);
        assert_eq!(graph.out_neighbors(1), [1, 3, 3]);
        assert_eq!(graph.in_neighbors(1), [0, 1, 4]);
        assert_eq!(graph.in_neighbors(3), [1, 1]);
        assert_eq!(graph.num_edges(), 4);
        assert!(graph.out_neighbors(0).is_empty() && graph.in_neighbors(0).is_empty());
        assert_eq!(
            placement.slice.wire_len(),
            4 + 8 + (8 + 8 + 16) + 1 + (8 + 8 + 20)
        );
        assert_eq!(sent(&placement), bytes);

        // No in-lists asked for, none sent; a machine that owns nothing
        // gets a slice of nothing.
        let bytes = sent(&Placement::of(&cluster, 2, false));
        let placement = Placement::read_from(&bytes[..]).unwrap();
        assert!(placement.slice.members.is_empty() && !placement.slice.in_lists);
        assert_eq!(placement.slice.graph.num_vertices(), 5);
        assert_eq!(placement.slice.graph.num_edges(), 0);
        assert_eq!(placement.slice.wire_len(), 4 + 8 + 1);
    }

    /// A worker reads its placement off the stream, and nothing but a
    /// whole, intact `Placement` frame will do.
    #[test]
    fn a_placement_is_read_as_it_arrives() {
        let bytes = sent(&Placement::of(&cluster(), 1, true));
        let mut stream = &bytes[..];
        Placement::read_from(&mut stream).unwrap();
        assert!(stream.is_empty());

        let corrupt = |bytes: &[u8]| {
            let err = Placement::read_from(bytes).unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
            err.to_string()
        };
        // An edge tally decodes whatever it says: only the checksum knows.
        let mut flipped = bytes.clone();
        flipped[frame::HEADER_LEN + 8 + 20 + 24] ^= 1;
        assert!(corrupt(&flipped).contains("checksum"));
        let other = DriverMsg::Finish { epoch: 0 }.to_frame().unwrap();
        assert!(corrupt(&other).contains("expected a Placement frame"));
        let err = Placement::read_from(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, ClusterError::ConnReset { .. }), "{err}");
        // And a worker's loop takes no second one for a message.
        assert!(DriverMsg::from_frame(&received(&bytes)).is_err());
    }

    /// A placement naming a part that does not exist never becomes a
    /// message (whether it fits the job is the worker's to check).
    #[test]
    fn placement_with_a_part_out_of_range_is_corrupt() {
        let mut raw = RawPlacement::honest();
        raw.assignment[2] = 3;
        assert!(raw.corrupt().contains("vertex 2 on part 3 of 3"));
    }

    /// Every count in a placement is backed by bytes before anything is
    /// allocated for it.
    #[test]
    fn placement_claiming_more_than_it_carries_is_corrupt() {
        // Vertices.
        let mut payload = Vec::new();
        put_u32(&mut payload, 2);
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0; 8]);
        let bytes = frame::encode(kind::PLACEMENT, &payload).unwrap();
        let err = Placement::read_from(&bytes[..]).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
        // Parts (the tallies), members, list targets.
        let mut raw = RawPlacement::honest();
        raw.parts = u32::MAX;
        assert!(raw.corrupt().contains("underrun"));
        let mut raw = RawPlacement::honest();
        raw.members.truncate(1);
        raw.corrupt();
        let mut raw = RawPlacement::honest();
        raw.inn.as_mut().unwrap().1 = u64::MAX;
        raw.corrupt();
        let mut raw = RawPlacement::honest();
        raw.inn.as_mut().unwrap().1 = 1 << 40;
        assert!(raw.corrupt().contains("underrun"));
    }

    /// List lengths that do not sum to the targets sent.
    #[test]
    fn slice_lists_that_do_not_add_up_are_corrupt() {
        let mut raw = RawPlacement::honest();
        raw.out.0[0] = 2;
        assert!(raw
            .corrupt()
            .contains("out-list lengths sum to 3, 4 targets"));
        let mut raw = RawPlacement::honest();
        raw.inn.as_mut().unwrap().0[1] = 3;
        assert!(raw
            .corrupt()
            .contains("in-list lengths sum to 6, 5 targets"));
        // A stated total short of the targets leaves bytes behind.
        let mut raw = RawPlacement::honest();
        (raw.out.1, raw.inn) = (3, None);
        assert!(raw
            .corrupt()
            .contains("out-list lengths sum to 4, 3 targets"));
    }

    #[test]
    fn slice_target_out_of_range_is_corrupt() {
        let mut raw = RawPlacement::honest();
        raw.out.2[3] = 5;
        assert!(raw
            .corrupt()
            .contains("target 5 out of range for 5 vertices"));
    }

    #[test]
    fn slice_list_out_of_order_is_corrupt() {
        let mut raw = RawPlacement::honest();
        raw.out.2[..3].copy_from_slice(&[3, 1, 3]);
        assert!(raw.corrupt().contains("out-list of vertex 1 is not sorted"));
    }

    #[test]
    fn slice_members_out_of_order_or_range_are_corrupt() {
        let mut raw = RawPlacement::honest();
        raw.members = vec![3, 1];
        assert!(raw.corrupt().contains("ascending"));
        let mut raw = RawPlacement::honest();
        raw.members = vec![1, 5];
        assert!(raw.corrupt().contains("member 5 out of range"));
    }

    /// `write_final` is `Final`'s encoder too: same bytes, no result held
    /// as a buffer — and a result that is not the length it was announced
    /// with never reaches the wire.
    #[test]
    fn a_final_written_in_place_is_the_final_message() {
        let result: Vec<u8> = (0..=40).collect();
        let pieces = |out: &mut PayloadWriter<'_>| result.chunks(7).try_for_each(|p| out.bytes(p));
        let mut built = Vec::new();
        write_final(&mut built, 7, result.len(), pieces).unwrap();
        let sent = WorkerMsg::Final {
            epoch: 7,
            result: &result,
        };
        assert_eq!(built, sent.to_frame().unwrap());
        assert_eq!(WorkerMsg::from_frame(&received(&built)).unwrap(), sent);
        let mut empty = Vec::new();
        write_final(&mut empty, 0, 0, |_| Ok(())).unwrap();
        assert_eq!(
            WorkerMsg::from_frame(&received(&empty)).unwrap(),
            WorkerMsg::Final {
                epoch: 0,
                result: &[]
            }
        );
        for announced in [result.len() - 1, result.len() + 1] {
            let mut wire = Vec::new();
            let err = write_final(&mut wire, 7, announced, pieces).unwrap_err();
            assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
            assert!(wire.is_empty());
        }
    }

    #[test]
    fn wrong_direction_is_rejected() {
        let frame = received(&WorkerMsg::Heartbeat { epoch: 0 }.to_frame().unwrap());
        assert!(DriverMsg::from_frame(&frame).is_err());
        let frame = received(&DriverMsg::Shutdown.to_frame().unwrap());
        assert!(WorkerMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = received(&WorkerMsg::Heartbeat { epoch: 0 }.to_frame().unwrap());
        frame.payload.push(0);
        assert!(WorkerMsg::from_frame(&frame).is_err());
    }
}

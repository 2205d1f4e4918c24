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
//! 13    worker -> driver ObsReport { epoch, seq, snapshot }
//! ```
//!
//! `Job` goes out the moment a worker joins; `Placement` follows once the
//! driver has loaded and partitioned the graph, with the vertex → machine
//! map, the per-part tallies and the worker's [`Slice`] — the adjacency of
//! the vertices it owns, which is all of the graph it will ever hold. The
//! worker answers it with `Ready`. A worker never opens a graph source and
//! never partitions anything.
//!
//! A message is one value on both sides of the wire, and each arm of it is
//! its fields in order, each a [`Wire`] value: the sender's
//! [`to_frame`](WorkerMsg::to_frame) puts them into one buffer of the
//! length the byte counter found; the receiver's
//! [`from_frame`](WorkerMsg::from_frame) reads them back, borrowing every
//! byte string from the frame it was read into, so row segments and
//! snapshots are not copied to be looked at. The two payloads that are as
//! large as what they carry are never a buffer at either end: a
//! `Placement` leaves the driver's graph through
//! [`Placement::write_to`] and a `Final` leaves the worker's state through
//! [`write_final`], both [`frame::CHUNK`] bytes at a time through the same
//! `put`; the worker decodes its `Placement` while it arrives
//! ([`Placement::read_from`]), and the driver's reader threads do the same
//! with every `Final`.
//!
//! `StepBegin` additionally carries an obs-collection flag. An `ObsReport`
//! is one `bpart_obs::snapshot::Snapshot` — the worker as it would describe
//! itself on its own `/metrics`, `/spans` and `/profile` — encoded here
//! like every other payload, so a corrupt one is a
//! [`ClusterError::FrameCorrupt`] like any other.

use crate::error::ClusterError;
use crate::frame::{self, Frame, PayloadReader};
use crate::spec::JobSpec;
use crate::wire::{self, encode_all, Reader, Sink, Wire};
use bpart_cluster::{Cluster, MachineId};
use bpart_core::PartId;
use bpart_graph::{CsrGraph, OwnedLists, VertexId};
use bpart_obs::snapshot::{Metrics, Snapshot, Span};
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
    /// Worker ships a snapshot of itself to the driver's federation store.
    pub const OBS_REPORT: u8 = 13;
}

/// One destination's worth of outgoing messages: the element count plus
/// their back-to-back wire encoding. The count travels separately so the
/// driver can charge communication without decoding app payloads.
/// Owned where a worker encoded it, borrowed from the frame where it was
/// received — the driver forwards segments without looking inside.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowSeg<'a> {
    /// Number of messages encoded in `data`.
    pub count: u32,
    /// Back-to-back `Wire` encodings.
    pub data: Cow<'a, [u8]>,
}

/// The count, then the data as a byte string.
impl<'a> Wire<'a> for RowSeg<'a> {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.count.put(out);
        (&*self.data).put(out);
    }
    fn read(r: &mut Reader<'a>) -> Result<Self, ClusterError> {
        Ok(RowSeg {
            count: r.read()?,
            data: Cow::Borrowed(r.read()?),
        })
    }
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
/// member, per list and per edge end. The gauge of a process that holds
/// the counts and no slice; one that holds the slice counts its bytes
/// ([`Slice::wire_len`]).
pub fn slice_wire_len(members: usize, out_edges: usize, in_edges: Option<usize>) -> usize {
    // Lengths, the `u64` total, targets.
    let lists = |edges: usize| 4 * members + 8 + 4 * edges;
    4 + 4 * members + lists(out_edges) + 1 + in_edges.map_or(0, lists)
}

impl Slice<'_> {
    /// Bytes of this slice on the wire.
    pub fn wire_len(&self) -> usize {
        wire::len(|n| self.put(n))
    }

    fn put(&self, out: &mut impl Sink) {
        let graph = &*self.graph;
        (self.members.len() as u32).put(out);
        out.u32s(&self.members);
        put_lists(out, &self.members, |v| graph.out_neighbors(v));
        self.in_lists.put(out);
        if self.in_lists {
            put_lists(out, &self.members, |v| graph.in_neighbors(v));
        }
    }

    /// Decodes a slice of a graph of `n` vertices. What the lists must
    /// satisfy to be a graph at all is [`CsrGraph::from_owned_lists`]'s to
    /// check; whether it is the slice this worker was promised is the
    /// worker's.
    fn decode(r: &mut PayloadReader<impl Read>, n: usize) -> Result<Slice<'static>, ClusterError> {
        let count = r.u32()? as usize;
        let members = r.u32s(count)?;
        let out = decode_lists(r, count)?;
        let in_lists = wire::flag(r.u8()?)?;
        let inn = in_lists.then(|| decode_lists(r, count)).transpose()?;
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
    out: &mut impl Sink,
    members: &[VertexId],
    list: impl Fn(VertexId) -> &'g [VertexId],
) {
    let mut total = 0u64;
    for &v in members {
        let len = list(v).len();
        (len as u32).put(out);
        total += len as u64;
    }
    total.put(out);
    members.iter().for_each(|&v| out.u32s(list(v)));
}

/// Both counts come off the wire; `PayloadReader::u32s` holds them against
/// what the payload has left before it allocates.
fn decode_lists(
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
        frame::write_streamed(out, kind::PLACEMENT, |out| {
            self.parts.put(out);
            (self.assignment.len() as u32).put(out);
            out.u32s(&self.assignment);
            encode_all(&self.vertex_counts, out);
            encode_all(&self.edge_counts, out);
            self.slice.put(out);
        })
        .map(drop)
    }

    /// Machine `machine`'s placement under `cluster`, borrowing all of it.
    /// Panics if `in_lists` asks for the lists of a graph that holds none.
    pub fn of(cluster: &'a Cluster, machine: MachineId, in_lists: bool) -> Self {
        assert!(
            !in_lists || cluster.graph().has_in_lists(),
            "machine {machine}'s placement is to carry in-lists for an app that signals \
             along in-edges, but the graph holds out-lists only"
        );
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

/// A span. Its parent is the one optional field that writes a `u64` behind
/// its flag either way: `0` for a root.
impl Wire<'_> for Span {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.id.put(out);
        (self.parent.is_some(), self.parent.unwrap_or(0)).put(out);
        self.name.put(out);
        (self.thread, self.start_ns, self.dur_ns).put(out);
        self.attrs.put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        let id = r.read()?;
        let (child, parent): (bool, u64) = r.read()?;
        Ok(Span {
            id,
            parent: child.then_some(parent),
            name: r.read()?,
            thread: r.read()?,
            start_ns: r.read()?,
            dur_ns: r.read()?,
            attrs: r.read()?,
        })
    }
}

/// A worker's snapshot of itself: metrics by kind, then spans.
impl Wire<'_> for Snapshot {
    fn put(&self, out: &mut (impl Sink + ?Sized)) {
        self.metrics.counters.put(out);
        self.metrics.gauges.put(out);
        self.spans.put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(Snapshot {
            metrics: Metrics {
                counters: r.read()?,
                gauges: r.read()?,
            },
            spans: r.read()?,
        })
    }
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
        /// Computation-phase nanoseconds: `begin` plus `finish`.
        compute_ns: u64,
        /// Exchange-phase nanoseconds: from `StepData` sent to `Inbox`
        /// arrived.
        comm_ns: u64,
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
    /// The worker's snapshot of itself. Sent after each applied superstep
    /// (before `StepDone`), after an abandoned one and before hanging up,
    /// so a SIGKILLed worker leaves the snapshot of its last finished
    /// superstep behind.
    ObsReport {
        /// Recovery epoch.
        epoch: u32,
        /// Per-worker report sequence number (restarts on respawn; the
        /// bumped epoch keeps `(epoch, seq)` monotonic).
        seq: u64,
        /// The worker now; its spans are those closed since its
        /// previous report.
        snapshot: Snapshot,
    },
}

impl<'a> DriverMsg<'a> {
    /// The complete frame, header included, ready for one socket write.
    /// Fails only when the payload outgrows [`frame::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ClusterError> {
        let mut out = Vec::with_capacity(frame::HEADER_LEN + wire::len(|n| self.put(n)));
        frame::build(&mut out, |out| self.put(out))?;
        Ok(out)
    }

    /// Puts the payload; returns the frame's kind.
    fn put(&self, out: &mut impl Sink) -> u8 {
        match self {
            DriverMsg::Job { spec, machine } => {
                machine.put(out);
                spec.put(out);
                kind::JOB
            }
            DriverMsg::StepBegin {
                epoch,
                superstep,
                agg,
                checkpoint,
                obs,
            } => {
                (*epoch, *superstep, *agg).put(out);
                (*checkpoint, *obs).put(out);
                kind::STEP_BEGIN
            }
            DriverMsg::Inbox {
                epoch,
                superstep,
                rows,
            } => {
                (*epoch, *superstep).put(out);
                rows.put(out);
                kind::INBOX
            }
            DriverMsg::Restore {
                epoch,
                superstep,
                state,
            } => {
                (*epoch, *superstep, *state).put(out);
                kind::RESTORE
            }
            DriverMsg::Finish { epoch } => {
                epoch.put(out);
                kind::FINISH
            }
            DriverMsg::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Decodes a driver frame, borrowing its byte strings.
    pub fn from_frame(frame: &'a Frame) -> Result<Self, ClusterError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::JOB => DriverMsg::Job {
                machine: r.read()?,
                spec: r.read()?,
            },
            kind::STEP_BEGIN => DriverMsg::StepBegin {
                epoch: r.read()?,
                superstep: r.read()?,
                agg: r.read()?,
                checkpoint: r.read()?,
                obs: r.read()?,
            },
            kind::INBOX => DriverMsg::Inbox {
                epoch: r.read()?,
                superstep: r.read()?,
                rows: r.read()?,
            },
            kind::RESTORE => DriverMsg::Restore {
                epoch: r.read()?,
                superstep: r.read()?,
                state: r.read()?,
            },
            kind::FINISH => DriverMsg::Finish { epoch: r.read()? },
            kind::SHUTDOWN => DriverMsg::Shutdown,
            k => {
                return Err(ClusterError::corrupt(format!(
                    "unexpected driver frame kind {k}"
                )))
            }
        };
        r.end("driver frame")?;
        Ok(msg)
    }
}

/// Writes to `out` the [`Final`](WorkerMsg::Final) frame of the result that
/// `result` writes in pieces — what `Final { epoch, result }.to_frame()`
/// builds, without a sender ever holding its result a second time as
/// bytes. `result` runs three times: to count it, to sum it, to send it.
/// Returns the payload's length.
pub fn write_final(
    out: &mut dyn Write,
    epoch: u32,
    result: impl Fn(&mut dyn Sink),
) -> Result<usize, ClusterError> {
    let len = u32::try_from(wire::len(|n| result(n)))
        .map_err(|_| ClusterError::unrecoverable("final result does not fit a length prefix"))?;
    frame::write_streamed(out, kind::FINAL, |out| {
        (epoch, len).put(out);
        result(out);
    })
}

impl<'a> WorkerMsg<'a> {
    /// The complete frame, header included, ready for one socket write.
    /// Fails only when the payload outgrows [`frame::MAX_PAYLOAD`].
    pub fn to_frame(&self) -> Result<Vec<u8>, ClusterError> {
        let mut out = Vec::with_capacity(frame::HEADER_LEN + wire::len(|n| self.put(n)));
        frame::build(&mut out, |out| self.put(out))?;
        Ok(out)
    }

    /// Puts the payload; returns the frame's kind.
    fn put(&self, out: &mut impl Sink) -> u8 {
        match self {
            WorkerMsg::Join { worker_id, key } => {
                (*worker_id, *key).put(out);
                kind::JOIN
            }
            WorkerMsg::Ready { epoch, agg } => {
                (*epoch, *agg).put(out);
                kind::READY
            }
            WorkerMsg::StepData {
                epoch,
                superstep,
                rows,
                paths,
            } => {
                (*epoch, *superstep).put(out);
                rows.put(out);
                paths.put(out);
                kind::STEP_DATA
            }
            WorkerMsg::StepDone {
                epoch,
                superstep,
                active,
                agg,
                compute_ns,
                comm_ns,
                snapshot,
            } => {
                (*epoch, *superstep, *active).put(out);
                (*agg, *compute_ns, *comm_ns).put(out);
                snapshot.put(out);
                kind::STEP_DONE
            }
            WorkerMsg::Final { epoch, result } => {
                (*epoch, *result).put(out);
                kind::FINAL
            }
            WorkerMsg::Heartbeat { epoch } => {
                epoch.put(out);
                kind::HEARTBEAT
            }
            WorkerMsg::ObsReport {
                epoch,
                seq,
                snapshot,
            } => {
                (*epoch, *seq).put(out);
                snapshot.put(out);
                kind::OBS_REPORT
            }
        }
    }

    /// Decodes a worker frame, borrowing its byte strings.
    pub fn from_frame(frame: &'a Frame) -> Result<Self, ClusterError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::JOIN => WorkerMsg::Join {
                worker_id: r.read()?,
                key: r.read()?,
            },
            kind::READY => WorkerMsg::Ready {
                epoch: r.read()?,
                agg: r.read()?,
            },
            kind::STEP_DATA => WorkerMsg::StepData {
                epoch: r.read()?,
                superstep: r.read()?,
                rows: r.read()?,
                paths: r.read()?,
            },
            kind::STEP_DONE => WorkerMsg::StepDone {
                epoch: r.read()?,
                superstep: r.read()?,
                active: r.read()?,
                agg: r.read()?,
                compute_ns: r.read()?,
                comm_ns: r.read()?,
                snapshot: r.read()?,
            },
            kind::FINAL => WorkerMsg::Final {
                epoch: r.read()?,
                result: r.read()?,
            },
            kind::HEARTBEAT => WorkerMsg::Heartbeat { epoch: r.read()? },
            kind::OBS_REPORT => WorkerMsg::ObsReport {
                epoch: r.read()?,
                seq: r.read()?,
                snapshot: r.read()?,
            },
            k => {
                return Err(ClusterError::corrupt(format!(
                    "unexpected worker frame kind {k}"
                )))
            }
        };
        r.end("worker frame")?;
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
            obs: true,
        });
        round_trip_driver(DriverMsg::StepBegin {
            epoch: 0,
            superstep: 0,
            agg: 0.0,
            checkpoint: false,
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
            compute_ns: 42_000_000,
            comm_ns: 9_000_000,
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
            snapshot: Snapshot::default(),
        });
    }

    /// An `ObsReport` with something in every field of its snapshot: both
    /// metric kinds, and a root and a child span with attributes.
    pub(crate) fn obs_report() -> WorkerMsg<'static> {
        let mut metrics = Metrics::default();
        metrics.counters.insert("dist.frames".into(), 7);
        metrics.gauges.insert("part.edges".into(), -0.0);
        metrics.gauges.insert("tiny".into(), f64::MIN_POSITIVE);
        let span = |id, parent, name: &str, attrs: &[(&str, &str)]| Span {
            id,
            parent,
            name: name.into(),
            thread: 3,
            start_ns: 1000 * id,
            dur_ns: 10,
            attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        };
        WorkerMsg::ObsReport {
            epoch: 1,
            seq: 12,
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
            },
        }
    }

    /// The fixture's frame, pinned beside `tests/wire_layout.rs`'s table:
    /// its length and FNV-1a 64 digest.
    #[test]
    fn the_obs_report_fixture_is_pinned() {
        let bytes = obs_report().to_frame().unwrap();
        let pin = (255, 0x4e76_e284_a4ff_49d3);
        assert_eq!((bytes.len(), crate::digest_bytes(&bytes)), pin);
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
        // The fixed fields end at byte 12; the counter count follows. A
        // count the payload cannot hold ends at the underrun, with nothing
        // reserved for it.
        let mut greedy = payload.to_vec();
        greedy[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
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
            snapshot,
        };
        let is_corrupt =
            |r: Result<(), ClusterError>| matches!(r, Err(ClusterError::FrameCorrupt { .. }));

        // One root span: its parent tag is the byte after the two empty
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
        let tag_at = 12 + 3 * 4 + 8;
        assert!(decode(&one_span, &|_| {}).is_ok());
        assert!(is_corrupt(decode(&one_span, &|p| p[tag_at] = 2)));

        // A name that is not UTF-8.
        let mut named = Snapshot::default();
        named.metrics.counters.insert("ab".into(), 1);
        let name_at = 12 + 4 + 4;
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
            (self.parts, self.assignment.clone()).put(&mut payload);
            encode_all(&self.vertex_counts, &mut payload);
            encode_all(&self.edge_counts, &mut payload);
            self.members.put(&mut payload);
            let lists =
                |payload: &mut Vec<u8>, (lens, total, targets): &(Vec<u32>, u64, Vec<u32>)| {
                    encode_all(lens, payload);
                    total.put(payload);
                    encode_all(targets, payload);
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
        // The gauge's formula is what `write_to` sends: the frame is the
        // header, the assignment, the tallies and the slice.
        let beside_slice = frame::HEADER_LEN + 8 + 4 * 5 + 16 * 3;
        assert_eq!(bytes.len(), beside_slice + slice_wire_len(2, 4, Some(5)));
        let out_only = sent(&Placement::of(&cluster, 1, false));
        assert_eq!(out_only.len(), beside_slice + slice_wire_len(2, 4, None));

        // No in-lists asked for, none sent; a machine that owns nothing
        // gets a slice of nothing.
        let bytes = sent(&Placement::of(&cluster, 2, false));
        let placement = Placement::read_from(&bytes[..]).unwrap();
        assert!(placement.slice.members.is_empty() && !placement.slice.in_lists);
        assert_eq!(placement.slice.graph.num_vertices(), 5);
        assert_eq!(placement.slice.graph.num_edges(), 0);
        assert_eq!(placement.slice.wire_len(), 4 + 8 + 1);
        assert_eq!(bytes.len(), beside_slice + slice_wire_len(0, 0, None));
    }

    /// A driver whose app reads out-lists only has shed the in-lists: a
    /// placement asking for them is refused, not sent empty.
    #[test]
    #[should_panic(
        expected = "machine 1's placement is to carry in-lists for an app that \
                               signals along in-edges, but the graph holds out-lists only"
    )]
    fn a_placement_refuses_in_lists_of_a_graph_without_them() {
        let full = cluster();
        let mut graph = full.graph().clone();
        graph.shed_in_lists();
        let shed = Cluster::new(Arc::new(graph), Arc::new(full.partition().clone()));
        let out_only = sent(&Placement::of(&shed, 1, false));
        assert_eq!(out_only, sent(&Placement::of(&full, 1, false)));
        Placement::of(&shed, 1, true);
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
        (2u32, u32::MAX).put(&mut payload);
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
    /// as a buffer, and the length prefix the one its pieces add up to.
    #[test]
    fn a_final_written_in_place_is_the_final_message() {
        let result: Vec<u8> = (0..=40).collect();
        let pieces = |out: &mut dyn Sink| result.chunks(7).for_each(|p| out.bytes(p));
        let mut built = Vec::new();
        let len = write_final(&mut built, 7, pieces).unwrap();
        assert_eq!(len, 8 + result.len());
        let sent = WorkerMsg::Final {
            epoch: 7,
            result: &result,
        };
        assert_eq!(built, sent.to_frame().unwrap());
        assert_eq!(WorkerMsg::from_frame(&received(&built)).unwrap(), sent);
        let mut empty = Vec::new();
        write_final(&mut empty, 0, |_| {}).unwrap();
        assert_eq!(
            WorkerMsg::from_frame(&received(&empty)).unwrap(),
            WorkerMsg::Final {
                epoch: 0,
                result: &[]
            }
        );
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

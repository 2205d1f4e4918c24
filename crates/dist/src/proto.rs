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
//! 14    driver -> worker Placement { parts, assignment[n] }
//! 3     worker -> driver Ready     { epoch, agg }
//! 4     driver -> worker StepBegin { epoch, superstep, agg, checkpoint }
//! 5     worker -> driver StepData  { epoch, superstep, rows[k] }
//! 6     driver -> worker Inbox     { epoch, superstep, rows[k] }
//! 7     worker -> driver StepDone  { epoch, superstep, active, agg, snapshot? }
//! 8     driver -> worker Restore   { epoch, superstep, state? }
//! 9     driver -> worker Finish    { epoch }
//! 10    worker -> driver Final     { epoch, result }
//! 11    worker -> driver Heartbeat { epoch }
//! 12    driver -> worker Shutdown  { }
//! 13    worker -> driver ObsReport { epoch, seq, step?, clock echoes, metrics, spans, profile }
//! ```
//!
//! `Job` goes out the moment a worker joins, so the worker loads the graph
//! while the driver loads and partitions it; `Placement` follows with the
//! driver's vertex → machine map, and the worker answers it with `Ready`.
//! A worker never partitions anything.
//!
//! A message is one value on both sides of the wire. The sender's
//! [`to_frame`](WorkerMsg::to_frame) writes header and payload into one
//! buffer; the receiver's [`from_frame`](WorkerMsg::from_frame) borrows
//! every byte string from the frame it was read into, so row segments,
//! snapshots and results are not copied to be looked at.
//!
//! `StepBegin` additionally carries the driver's send timestamp and an
//! obs-collection flag; `ObsReport` echoes the timestamp back along with
//! the worker's receive/send clocks, which is what lets the driver run
//! its NTP-style clock-offset estimate. The metrics/span payloads inside
//! `ObsReport` are opaque byte blobs owned by `bpart_obs::federation` —
//! the dist proto only ferries them.

use crate::error::ClusterError;
use crate::frame::{self, Frame};
use crate::spec::JobSpec;
use crate::wire::{put_bytes, put_f64, put_u32, put_u64, Reader};
use bpart_core::PartId;
use std::borrow::Cow;

/// Frame kinds (the `kind` byte of every frame).
pub mod kind {
    /// Worker announces itself after connecting.
    pub const JOIN: u8 = 1;
    /// Driver ships the job spec and machine assignment.
    pub const JOB: u8 = 2;
    /// Driver ships the partition it computed.
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
    /// Worker ships an observability snapshot (metrics + span delta +
    /// superstep timings) to the driver's federation store.
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

fn put_rows(out: &mut Vec<u8>, rows: &[RowSeg<'_>]) {
    // Room for all of it up front, so no segment is moved again by a later
    // one's growth.
    out.reserve(4 + rows.iter().map(|seg| 8 + seg.data.len()).sum::<usize>());
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

/// Messages the driver sends to a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverMsg<'a> {
    /// Job spec plus the worker's machine assignment. Sent at join, ahead
    /// of the placement, so the worker loads the graph meanwhile.
    Job {
        /// The job: where the graph is and what to run on it.
        spec: JobSpec,
        /// Which BSP machine this worker plays.
        machine: u32,
    },
    /// The partition the driver computed. The worker builds its cluster
    /// from this and from nothing else, so every process agrees on
    /// ownership whatever partitioner produced it.
    Placement {
        /// Number of parts (= machines).
        parts: u32,
        /// Part of every vertex, in vertex order; each `< parts`.
        assignment: Cow<'a, [PartId]>,
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
    /// Observability snapshot: metrics registry + span-ring delta +
    /// (optionally) one superstep's compute/exchange timings, plus the
    /// clock echoes for offset estimation. Sent after each applied
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
        /// `bpart_obs::federation::MetricsSnapshot` bytes (opaque here).
        metrics: &'a [u8],
        /// `bpart_obs::federation::encode_spans` bytes (opaque here).
        spans: &'a [u8],
        /// Folded-stack profile text from the worker's continuous
        /// profiler (UTF-8; empty when profiling is off). Opaque here —
        /// validated and joined by `bpart_obs::federation`.
        profile: &'a [u8],
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
            DriverMsg::Placement { parts, assignment } => {
                put_u32(&mut out, *parts);
                put_u32(&mut out, assignment.len() as u32);
                out.extend(assignment.iter().flat_map(|p| p.to_le_bytes()));
                kind::PLACEMENT
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
            kind::PLACEMENT => {
                let parts = r.u32()?;
                let n = r.u32()? as usize;
                // Sliced out of the payload before anything is allocated:
                // a length the frame cannot back is an underrun.
                let bytes = r.take(n.checked_mul(4).ok_or_else(|| {
                    ClusterError::corrupt(format!("placement of {n} vertices overflows"))
                })?)?;
                let assignment: Vec<PartId> = bytes
                    .chunks_exact(4)
                    .map(|b| PartId::from_le_bytes(b.try_into().expect("4-byte chunk")))
                    .collect();
                if let Some(v) = assignment.iter().position(|&p| p >= parts) {
                    return Err(ClusterError::corrupt(format!(
                        "placement puts vertex {v} on part {} of {parts}",
                        assignment[v]
                    )));
                }
                DriverMsg::Placement {
                    parts,
                    assignment: Cow::Owned(assignment),
                }
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
            } => {
                put_u32(&mut out, *epoch);
                put_u64(&mut out, *superstep);
                put_rows(&mut out, rows);
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
                metrics,
                spans,
                profile,
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
                put_bytes(&mut out, metrics);
                put_bytes(&mut out, spans);
                put_bytes(&mut out, profile);
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
                metrics: r.bytes()?,
                spans: r.bytes()?,
                profile: r.bytes()?,
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
        round_trip_driver(DriverMsg::Placement {
            parts: 3,
            assignment: Cow::Borrowed(&[0, 2, 1, 1, 0]),
        });
        round_trip_driver(DriverMsg::Placement {
            parts: 1,
            assignment: Cow::Borrowed(&[]),
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
        round_trip_worker(WorkerMsg::ObsReport {
            epoch: 1,
            seq: 12,
            superstep: 6,
            has_step: true,
            compute_ns: 42_000_000,
            comm_ns: 9_000_000,
            echo_ns: 111,
            recv_ns: 222,
            send_ns: 333,
            metrics: &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            spans: &[1, 0, 0, 0, 0],
            profile: b"dist.superstep;dist.compute 7\n",
        });
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
            metrics: &[],
            spans: &[],
            profile: &[],
        });
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
        };
        let frame = received(&sent.to_frame().unwrap());
        let WorkerMsg::StepData { rows, .. } = WorkerMsg::from_frame(&frame).unwrap() else {
            panic!("not StepData");
        };
        let Cow::Borrowed(data) = rows[0].data else {
            panic!("segment was copied out of the frame");
        };
        assert!(frame.payload.as_ptr_range().contains(&data.as_ptr()));
    }

    /// A placement naming a part that does not exist never becomes a
    /// message (one of the wrong length is the worker's to catch: only it
    /// knows `n`).
    #[test]
    fn placement_with_a_part_out_of_range_is_corrupt() {
        let frame = received(
            &DriverMsg::Placement {
                parts: 2,
                assignment: Cow::Borrowed(&[0, 1, 2, 0]),
            }
            .to_frame()
            .unwrap(),
        );
        let err = DriverMsg::from_frame(&frame).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("vertex 2 on part 2 of 2"), "{err}");
    }

    /// A vertex count the payload cannot back is an underrun, not an
    /// allocation.
    #[test]
    fn placement_claiming_more_vertices_than_it_carries_is_corrupt() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 2);
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0; 8]);
        let frame = Frame {
            kind: kind::PLACEMENT,
            payload,
        };
        let err = DriverMsg::from_frame(&frame).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
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

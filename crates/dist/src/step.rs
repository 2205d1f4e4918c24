//! Worker-local BSP step logic.
//!
//! Neither superstep is implemented here. [`IterWorker`] holds the
//! iteration engine's kernel ([`MachineStep`]) and [`WalkWorker`] the walk
//! engine's ([`WalkStep`]) — the very kernels the thread backend runs —
//! and both add only what a process boundary needs: what a kernel holds
//! for each destination encoded once, into the frame it leaves in, on the
//! way out, segments read item by item into the kernel, in sender order —
//! each vertex a segment or a snapshot names checked to be this machine's
//! before a kernel indexes by it — a walk superstep's path triples as
//! bytes, and snapshots and results as bytes, every value through its
//! [`Wire`] impl. Bit-identity with the thread backend therefore holds by
//! construction for every app. [`Worker`] is what the protocol loop
//! (`worker.rs`) sees of either.

use crate::error::ClusterError;
use crate::proto::RowSeg;
use crate::wire::{self, encode_all, Reader, Sink, Wire, PATH_TRIPLE_LEN};
use bpart_cluster::bsp::Machine;
use bpart_cluster::{Cluster, MachineId};
use bpart_engine::kernel::Snapshot;
use bpart_engine::{MachineStep, VertexProgram};
use bpart_graph::VertexId;
use bpart_walker::{kernel, WalkApp, WalkStarts, WalkStep, Walker};

/// One machine's share of a job, as the worker's protocol loop drives it.
pub trait Worker {
    /// The `Ready` aggregate: iteration apps report their local aggregate
    /// sum, walk apps their queued-walker count.
    fn ready_agg(&self) -> f64;

    /// Local compute phase: scatter (iteration) or one step of every
    /// queued walker (walks). Puts `StepData`'s rows into `out`, one
    /// segment per destination machine, the self slot empty (what a machine
    /// keeps for itself never crosses the wire); then its paths: of a walk,
    /// the triples of the steps just taken — a worker keeps no history.
    fn begin_into(&mut self, out: &mut Vec<u8>);

    /// [`begin_into`](Self::begin_into) as values: owned rows, and paths.
    fn begin(&mut self) -> (Vec<RowSeg<'static>>, Vec<u8>) {
        let mut bytes = Vec::new();
        self.begin_into(&mut bytes);
        let (rows, paths): (Vec<RowSeg>, &[u8]) = Reader::new(&bytes).read().expect("StepData");
        let own = |seg: RowSeg| RowSeg {
            count: seg.count,
            data: seg.data.into_owned().into(),
        };
        (rows.into_iter().map(own).collect(), paths.to_vec())
    }

    /// Completes the superstep with the driver's inbox (sender-order
    /// segments, own slot empty; read where the `Inbox` frame holds them). Returns `(active, agg)` for `StepDone`:
    /// iteration apps report votes-to-continue and the next superstep's
    /// aggregate; walk apps their new queue length and `0.0`.
    fn finish(
        &mut self,
        inbox: &[RowSeg<'_>],
        superstep: u64,
        aggregate: f64,
    ) -> Result<(u64, f64), ClusterError>;

    /// Serializes the state a driver-held checkpoint keeps.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores from a snapshot (`None`: the deterministic initial
    /// state); the kernel drops any partial-superstep scratch.
    fn restore(&mut self, state: Option<&[u8]>) -> Result<(), ClusterError>;

    /// Writes the local result, from the state it is held in: a worker has
    /// no second copy of it as bytes. `write_final` calls it to count the
    /// result, then to send it.
    fn final_result(&self, out: &mut dyn Sink);
}

/// Gives `out` room for rows of `staged` messages of `item` bytes per
/// destination and for the paths' length; puts the row count.
fn start_rows(out: &mut Vec<u8>, staged: &[u64], item: usize) {
    out.reserve_exact(8 + staged.iter().map(|&c| 8 + c as usize * item).sum::<usize>());
    (staged.len() as u32).put(out);
}

/// Puts one row segment as its items are produced: count and byte length
/// are filled in ahead of them once known.
fn put_seg<T: for<'a> Wire<'a>>(out: &mut Vec<u8>, items: impl IntoIterator<Item = T>) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    let count = items.into_iter().map(|item| item.put(out)).count() as u64;
    let count_then_len = count | ((out.len() - at - 8) as u64) << 32;
    out[at..at + 8].copy_from_slice(&count_then_len.to_le_bytes());
}

/// One machine's share of an iteration-engine computation
/// (PageRank-style vertex programs): the engine's kernel plus the wire
/// encoding of its rows and snapshots.
pub struct IterWorker<P: VertexProgram> {
    program: P,
    step: MachineStep<P>,
}

impl<P: VertexProgram> IterWorker<P> {
    /// Fresh worker for `machine`, initialized from the program's
    /// deterministic initial state.
    pub fn new(program: P, cluster: Cluster, machine: usize) -> Self {
        let step = MachineStep::new(&program, &cluster, machine as u32);
        IterWorker { program, step }
    }
}

impl<P: VertexProgram> Worker for IterWorker<P>
where
    P::Value: for<'a> Wire<'a>,
    P::Accum: for<'a> Wire<'a>,
{
    fn ready_agg(&self) -> f64 {
        self.step.aggregate(&self.program)
    }

    /// Every destination's segment is encoded straight out of the kernel's
    /// send slots. One nothing is staged for stays empty: the machine's own
    /// too — what it addressed to itself waits in the slots for `finish`.
    fn begin_into(&mut self, out: &mut Vec<u8>) {
        self.step.scatter(&self.program);
        let staged = self.step.staged();
        let item = wire::len(|n| (0 as VertexId, self.program.identity()).put(n));
        start_rows(out, &staged, item);
        for (to, count) in (0..).zip(staged) {
            let held = (count > 0).then(|| self.step.outgoing(to));
            put_seg(out, held.into_iter().flatten());
        }
        0u32.put(out);
    }

    fn finish(
        &mut self,
        inbox: &[RowSeg<'_>],
        superstep: u64,
        aggregate: f64,
    ) -> Result<(u64, f64), ClusterError> {
        // Folded item by item from the frame's bytes; what went in before
        // an error surfaced is scratch a restore clears.
        for seg in inbox {
            let mut r = Reader::new(&seg.data);
            for _ in 0..seg.count {
                let (v, a): (VertexId, P::Accum) = r.read()?;
                // The inbox is indexed by where `v` lies on this machine.
                if !self.step.owns(v) {
                    let foreign = format!("row segment targets vertex {v}, not this machine's");
                    return Err(ClusterError::corrupt(foreign));
                }
                self.step.fold(&self.program, [(v, a)]);
            }
            r.end("row segment")?;
        }
        let applied = self
            .step
            .apply(&self.program, superstep as usize, aggregate);
        Ok((applied.any_active as u64, self.ready_agg()))
    }

    /// `(values, active)`, owner-local order.
    fn snapshot(&self) -> Vec<u8> {
        let values = self.step.values();
        let mut out = Vec::new();
        (values.len() as u32).put(&mut out);
        encode_all(values, &mut out);
        encode_all(self.step.active(), &mut out);
        out
    }

    fn restore(&mut self, state: Option<&[u8]>) -> Result<(), ClusterError> {
        let Some(bytes) = state else {
            self.step.reset(&self.program);
            return Ok(());
        };
        let mut r = Reader::new(bytes);
        let len = r.read::<u32>()? as usize;
        if len != self.step.values().len() {
            return Err(ClusterError::corrupt("snapshot length mismatch"));
        }
        let snapshot = Snapshot {
            values: r.read_n(len)?,
            active: r.read_n(len)?,
        };
        r.end("snapshot")?;
        self.step.restore(&snapshot);
        Ok(())
    }

    /// Final local values (owner-local order).
    fn final_result(&self, out: &mut dyn Sink) {
        encode_all(self.step.values(), out);
    }
}

/// Bytes of a walk worker's `Final` result: its two `u64` counters.
pub const WALK_FINAL_LEN: usize = 16;

/// One machine's share of a walk-engine computation: the walk engine's
/// kernel (recording on) plus the wire encoding of its rows, triples and
/// snapshots.
pub struct WalkWorker {
    app: Box<dyn WalkApp>,
    step: WalkStep,
    starts: WalkStarts,
    seed: u64,
    /// Who owns what, for the walkers that arrive.
    cluster: Cluster,
    machine: MachineId,
}

impl WalkWorker {
    /// Fresh worker for `machine`, seeded with the walkers it owns of
    /// `per_vertex` walks from every vertex.
    pub fn new(
        app: Box<dyn WalkApp>,
        cluster: Cluster,
        machine: usize,
        seed: u64,
        per_vertex: u32,
    ) -> Self {
        let starts = WalkStarts::PerVertex(per_vertex);
        let machine = machine as MachineId;
        let mut step = WalkStep::new(&cluster, machine, true);
        step.reset(&starts, seed);
        WalkWorker {
            app,
            step,
            starts,
            seed,
            cluster,
            machine,
        }
    }

    /// `w`, which must stand on a vertex this machine owns: the kernel
    /// steps a walker from its vertex's list, which the slice has for this
    /// machine's vertices only.
    fn owned(&self, w: Walker) -> Result<Walker, ClusterError> {
        let assignment = self.cluster.partition().assignment();
        if assignment.get(w.current as usize) == Some(&self.machine) {
            return Ok(w);
        }
        let (id, v) = (w.id, w.current);
        let foreign = format!("walker {id} stands on vertex {v}, not this machine's");
        Err(ClusterError::corrupt(foreign))
    }
}

impl Worker for WalkWorker {
    fn ready_agg(&self) -> f64 {
        self.step.queue_len() as f64
    }

    fn begin_into(&mut self, out: &mut Vec<u8>) {
        self.step.step(&*self.app);
        let staged = self.step.staged();
        start_rows(out, &staged, wire::len(|n| Walker::new(0, 0, 0).put(n)));
        for (to, count) in (0..).zip(staged) {
            let held = (count > 0).then(|| self.step.outgoing(to));
            put_seg(out, held.into_iter().flatten());
        }
        let triples = self.step.take_triples();
        out.reserve_exact(4 + triples.len() * PATH_TRIPLE_LEN);
        ((triples.len() * PATH_TRIPLE_LEN) as u32).put(out);
        triples.for_each(|triple| triple.put(out));
    }

    fn finish(&mut self, inbox: &[RowSeg<'_>], _: u64, _: f64) -> Result<(u64, f64), ClusterError> {
        for seg in inbox {
            let mut r = Reader::new(&seg.data);
            for _ in 0..seg.count {
                let w = self.owned(r.read()?)?;
                self.step.absorb([w]);
            }
            r.end("row segment")?;
        }
        Ok((self.step.queue_len() as u64, 0.0))
    }

    /// `(queue, steps, sent)`.
    fn snapshot(&self) -> Vec<u8> {
        let state = self.step.state();
        let mut out = Vec::new();
        state.queue.put(&mut out);
        (state.steps, state.sent).put(&mut out);
        out
    }

    fn restore(&mut self, state: Option<&[u8]>) -> Result<(), ClusterError> {
        let Some(bytes) = state else {
            self.step.reset(&self.starts, self.seed);
            return Ok(());
        };
        let mut r = Reader::new(bytes);
        let queue: Vec<Walker> = r.read()?;
        queue.iter().try_for_each(|&w| self.owned(w).map(drop))?;
        let snapshot = kernel::Snapshot {
            queue,
            steps: r.read()?,
            sent: r.read()?,
        };
        r.end("walk snapshot")?;
        self.step.restore(&snapshot);
        Ok(())
    }

    /// The steps this machine executed and the walkers it sent: the paths
    /// left with every superstep.
    fn final_result(&self, out: &mut dyn Sink) {
        let state = self.step.state();
        (state.steps, state.sent).put(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_LEN;
    use crate::proto::{kind, write_final, WorkerMsg};
    use crate::spec::AppSpec;
    use crate::wire::path_triples;
    use crate::worker::tests::{raw_cluster, slice_clusters, sourceless_spec, RAW_MAX_N};
    use bpart_core::{ChunkV, Partitioner};
    use bpart_engine::apps::{ConnectedComponents, DistFrom, PageRank, Sssp};
    use bpart_graph::{generate, VertexId};
    use bpart_walker::apps::DeepWalk;
    use bpart_walker::PathTable;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn cluster(k: usize) -> Cluster {
        let graph = Arc::new(generate::erdos_renyi(40, 160, 7));
        let partition = Arc::new(ChunkV.partition(&graph, k));
        Cluster::new(graph, partition)
    }

    /// The result as the driver receives it: the `Final` frame's payload
    /// behind the epoch and the length prefix.
    fn final_of(w: &impl Worker) -> Vec<u8> {
        let mut frame = Vec::new();
        write_final(&mut frame, 0, |out| w.final_result(out)).unwrap();
        frame.split_off(HEADER_LEN + 8)
    }

    #[test]
    fn iter_snapshot_round_trips() {
        let c = cluster(3);
        let mut w = IterWorker::new(PageRank::new(5), c, 1);
        let (rows, paths) = w.begin();
        assert!(paths.is_empty());
        assert_eq!(rows.len(), 3);
        // Self slot must be empty on the wire.
        assert_eq!(rows[1].count, 0);
        let snap = w.snapshot();
        let before = final_of(&w);
        w.restore(Some(&snap)).unwrap();
        assert_eq!(final_of(&w), before);
        // Restoring the initial state resets values.
        let mut w2 = IterWorker::new(PageRank::new(5), cluster(3), 1);
        w2.restore(None).unwrap();
        assert_eq!(final_of(&w2), before);
    }

    /// A result written in pieces is the result encoded whole, behind the
    /// length its pieces were counted to — for fixed-width values, for
    /// SSSP's heap-owning ones, and for a walk's two counters, which is all
    /// of a walk that is left on its worker.
    #[test]
    fn final_result_writes_the_length_it_announced() {
        fn check<T: for<'a> Wire<'a>>(w: &impl Worker, state: &[T]) {
            let mut whole = Vec::new();
            encode_all(state, &mut whole);
            assert!(!whole.is_empty());
            let mut frame = Vec::new();
            write_final(&mut frame, 0, |out| w.final_result(out)).unwrap();
            let announced = &frame[HEADER_LEN + 4..HEADER_LEN + 8];
            assert_eq!(announced, (whole.len() as u32).to_le_bytes());
            assert_eq!(final_of(w), whole);
        }
        let mut w = IterWorker::new(PageRank::new(5), cluster(3), 1);
        w.begin();
        check(&w, w.step.values());
        let w = IterWorker::new(Sssp::new(0), cluster(3), 0);
        check(&w, w.step.values());
        let mut w = WalkWorker::new(Box::new(DeepWalk::new(4)), cluster(2), 0, 11, 40);
        let queued = w.step.queue_len();
        let (_, paths) = w.begin();
        // At most one triple per queued walker (a dead end leaves none),
        // and they left with the superstep.
        assert!(!paths.is_empty() && paths.len() <= queued * PATH_TRIPLE_LEN);
        assert_eq!(paths.len() % PATH_TRIPLE_LEN, 0);
        assert_eq!(w.step.take_triples().len(), 0);
        let state = w.step.state();
        assert_eq!(state.steps, queued as u64);
        check(&w, &[state.steps, state.sent]);
    }

    /// A walk checkpoint is the queue and the two counters: 32 bytes per
    /// walker behind their count, 16 bytes of counters, and no history
    /// however far the walk has come.
    #[test]
    fn a_walk_snapshot_is_its_queue_and_two_counters() {
        let mut w = WalkWorker::new(Box::new(DeepWalk::new(9)), cluster(1), 0, 11, 3);
        for _ in 0..5 {
            w.begin();
            assert!(w.step.queue_len() > 0);
            assert_eq!(w.snapshot().len(), 4 + 32 * w.step.queue_len() + 16);
        }
    }

    impl Wire<'_> for DistFrom {
        fn put(&self, out: &mut (impl Sink + ?Sized)) {
            (self.from, self.dist).put(out);
        }
        fn read(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
            let (from, dist) = r.read()?;
            Ok(DistFrom { from, dist })
        }
    }

    /// Everything a lock-step run put on the wire, in order, and what the
    /// driver made of it.
    #[derive(Debug, Default, PartialEq)]
    struct Transcript {
        /// Each compute phase's rows, `rows[from][to]`.
        rows: Vec<Vec<Vec<RowSeg<'static>>>>,
        /// Each compute phase's path triples, `paths[from]`.
        paths: Vec<Vec<Vec<u8>>>,
        /// Every worker's snapshot at every checkpoint.
        snapshots: Vec<Vec<u8>>,
        /// The `Final` payloads.
        finals: Vec<Vec<u8>>,
        /// A walk's paths: every superstep's triples placed as they came,
        /// the abandoned ones truncated away.
        table: Option<PathTable>,
    }

    /// Runs `k` workers in lock-step in this process, as the driver would
    /// (`cap`: its superstep cap; `walk`: the started table of a walk,
    /// whose run ends on empty queues rather than on votes), checkpointing
    /// every 2 supersteps. With `crash_at`, that superstep is abandoned
    /// after every worker ran its compute phase — so its triples are in the
    /// table — and worker 0 already finished on all but the last of
    /// its inbox segments — retained self rows, wrongly applied values, a
    /// half-absorbed queue are what survivors hold when `Restore` arrives —
    /// and the run replays from the last checkpoint.
    fn run_in_process<W: Worker>(
        k: usize,
        make: impl Fn(usize) -> W,
        end: (Option<usize>, Option<PathTable>),
        crash_at: Option<usize>,
    ) -> Transcript {
        run_workers((0..k).map(make).collect(), end, crash_at)
    }

    /// `w`'s compute phase as the worker loop sends it — built in place in
    /// `frame`, which holds an earlier superstep's — checked to be the
    /// `StepData` message's frame byte for byte, and read back.
    fn begin_in_place(
        w: &mut impl Worker,
        frame: &mut Vec<u8>,
        superstep: usize,
    ) -> (Vec<RowSeg<'static>>, Vec<u8>) {
        let superstep = superstep as u64;
        crate::frame::build(frame, |out| {
            (3u32, superstep).put(out);
            w.begin_into(out);
            kind::STEP_DATA
        })
        .unwrap();
        let (sent, len) = crate::frame::decode(frame).unwrap();
        assert_eq!(len, frame.len());
        let WorkerMsg::StepData {
            epoch: 3,
            rows,
            paths,
            ..
        } = WorkerMsg::from_frame(&sent).unwrap()
        else {
            panic!("not the StepData of epoch 3");
        };
        let msg = WorkerMsg::StepData {
            epoch: 3,
            superstep,
            rows: rows.clone(),
            paths,
        };
        assert_eq!(&msg.to_frame().unwrap(), frame);
        let own = |seg: RowSeg| RowSeg {
            count: seg.count,
            data: seg.data.into_owned().into(),
        };
        (rows.into_iter().map(own).collect(), paths.to_vec())
    }

    /// [`run_in_process`] over workers the caller made, from the state they
    /// are in.
    fn run_workers<W: Worker>(
        mut workers: Vec<W>,
        (cap, walk): (Option<usize>, Option<PathTable>),
        mut crash_at: Option<usize>,
    ) -> Transcript {
        let k = workers.len();
        let mut checkpoint: (usize, Vec<Option<Vec<u8>>>) = (0, vec![None; k]);
        let mut superstep = 0;
        let mut transcript = Transcript::default();
        let mut table = walk;
        let walk = table.is_some();
        let mut frames = vec![Vec::new(); k];
        loop {
            // The aggregate of an iteration app, the queued walkers of a walk.
            let ready: f64 = workers.iter().map(|w| w.ready_agg()).sum();
            if walk && ready == 0.0 {
                break;
            }
            let (rows, paths): (Vec<Vec<RowSeg<'_>>>, Vec<Vec<u8>>) = (workers.iter_mut())
                .zip(&mut frames)
                .map(|(w, frame)| begin_in_place(w, frame, superstep))
                .unzip();
            for (id, step, v) in paths.iter().flat_map(|paths| path_triples(paths)) {
                let table = table.as_mut().expect("only a walk has paths");
                assert_eq!(step as usize, superstep + 1);
                table.place(id, step, v).unwrap();
            }
            transcript.rows.push(rows.clone());
            transcript.paths.push(paths);
            let inbox =
                |to: usize| -> Vec<RowSeg<'_>> { rows.iter().map(|r| r[to].clone()).collect() };
            if crash_at == Some(superstep) {
                crash_at = None;
                // A walk must leave worker 0 with one sender's migrants
                // queued and the other's undelivered.
                assert!(!walk || inbox(0)[1..].iter().all(|seg| seg.count > 0));
                workers[0]
                    .finish(&inbox(0)[..k - 1], superstep as u64, ready)
                    .unwrap();
                for (w, state) in workers.iter_mut().zip(&checkpoint.1) {
                    w.restore(state.as_deref()).unwrap();
                }
                superstep = checkpoint.0;
                if let Some(table) = &mut table {
                    table.truncate(superstep as u32);
                }
                continue;
            }
            let mut active = 0;
            for (to, w) in workers.iter_mut().enumerate() {
                active += w.finish(&inbox(to), superstep as u64, ready).unwrap().0;
            }
            superstep += 1;
            if superstep % 2 == 0 {
                let states: Vec<Vec<u8>> = workers.iter().map(|w| w.snapshot()).collect();
                transcript.snapshots.extend(states.iter().cloned());
                checkpoint = (superstep, states.into_iter().map(Some).collect());
            }
            if cap.is_some_and(|max| superstep >= max) || (!walk && active == 0) {
                break;
            }
        }
        assert_eq!(crash_at, None, "the run ended before the crash superstep");
        transcript.finals = workers.iter().map(final_of).collect();
        if let Some(table) = &table {
            table.seal().unwrap();
        }
        transcript.table = table;
        transcript
    }

    /// A `crash@s` replay ends bit-equal to the fault-free run, from the
    /// initial state (s = 1) and from a snapshot (s = 3), for plain `f64`
    /// slots, for SSSP's heap-owning ones, and for walker queues — whose
    /// counters come back to the fault-free totals and whose paths, placed
    /// superstep by superstep and truncated at the rollback, to the
    /// fault-free table.
    #[test]
    fn replay_after_a_mid_superstep_restore_is_bit_equal() {
        type End = (Option<usize>, Option<PathTable>);
        fn check<W: Worker>(make: impl Fn(usize) -> W + Copy, end: End) {
            let clean = run_in_process(3, make, end.clone(), None);
            assert!(clean.finals.iter().all(|result| !result.is_empty()));
            for crash_at in [1, 3] {
                let crashed = run_in_process(3, make, end.clone(), Some(crash_at));
                assert_eq!(crashed.finals, clean.finals);
                assert_eq!(crashed.table, clean.table);
                assert!(crashed.paths.len() > clean.paths.len());
            }
        }
        check(
            |m| IterWorker::new(PageRank::new(5), cluster(3), m),
            (Some(5), None),
        );
        check(
            |m| IterWorker::new(Sssp::new(0), cluster(3), m),
            (None, None),
        );
        let walk =
            |app: fn() -> Box<dyn WalkApp>| move |m| WalkWorker::new(app(), cluster(3), m, 11, 2);
        let started = PathTable::of_starts(&WalkStarts::PerVertex(2), 40, 6);
        let end = (None, Some(started));
        check(walk(|| Box::new(DeepWalk::new(6))), end.clone());
        check(walk(|| Box::new(DeepWalk::new(6))), end);
    }

    type Spoil<'a> = &'a dyn Fn(&mut RowSeg<'_>);

    /// Runs three workers of `make` one superstep, spoils sender 2's
    /// segment (of `item`-byte items) for machine 0 in each `hostile` way,
    /// and has machine 0 finish on it: a `FrameCorrupt` every time, and a
    /// restore then replays to the clean run's results.
    fn refused<W: Worker>(
        make: impl Fn(usize) -> W,
        end: impl Fn() -> (Option<usize>, Option<PathTable>),
        item: usize,
        hostile: &[(&str, Spoil<'_>)],
    ) {
        let clean = run_in_process(3, &make, end(), None);
        for (what, spoil) in hostile {
            let mut workers: Vec<_> = (0..3).map(&make).collect();
            let ready: f64 = workers.iter().map(|w| w.ready_agg()).sum();
            let rows: Vec<_> = workers.iter_mut().map(|w| w.begin().0).collect();
            let mut inbox: Vec<RowSeg<'_>> = rows.iter().map(|r| r[0].clone()).collect();
            // Sender 1's segment is taken whole, and all of sender 2's
            // before its last item.
            assert!(inbox[1].count > 0 && inbox[2].count > 1, "{what}");
            assert_eq!(inbox[2].data.len(), inbox[2].count as usize * item);
            spoil(&mut inbox[2]);
            let err = workers[0].finish(&inbox, 0, ready).unwrap_err();
            assert!(
                matches!(err, ClusterError::FrameCorrupt { .. }),
                "{what}: {err}"
            );
            for w in &mut workers {
                w.restore(None).unwrap();
            }
            let replayed = run_workers(workers, end(), None);
            assert_eq!(replayed.finals, clean.finals, "{what}");
            assert_eq!(replayed.table, clean.table, "{what}");
        }
    }

    /// Writes `v` at `at` bytes into the last `item` of `seg`.
    fn plant(seg: &mut RowSeg<'_>, item: usize, at: usize, v: VertexId) {
        let at = seg.data.len() - item + at;
        seg.data.to_mut()[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// A segment off the wire is taken item by item, so what is wrong with
    /// it surfaces after part of it is in: a count that disagrees with the
    /// payload either way, an item cut short, and — a kernel indexing by
    /// where a vertex lies on *this* machine, and stepping a walker from
    /// its vertex's list, which a slice holds for this machine's vertices
    /// only — a vertex past the graph or one another machine owns, as a
    /// message's target or as where a walker stands, are each a
    /// `FrameCorrupt`; what was taken is scratch, and a restore replays to
    /// the clean result. A walk snapshot is held to the same.
    #[test]
    fn hostile_segments_are_corrupt_and_a_restore_forgets_them() {
        const ITEM: usize = 4 + 8;
        let elsewhere = cluster(3).local_vertices(1)[0];
        let pagerank = |m| IterWorker::new(PageRank::new(5), cluster(3), m);
        let target = |v| move |seg: &mut RowSeg<'_>| plant(seg, ITEM, 0, v);
        refused(
            pagerank,
            || (Some(5), None),
            ITEM,
            &[
                ("count above the payload", &|seg| seg.count += 1),
                ("count below the payload", &|seg| seg.count -= 1),
                ("cut mid-item", &|seg| {
                    let whole = seg.data.len();
                    seg.data.to_mut().truncate(whole - 3);
                }),
                ("target past the graph", &target(40)),
                ("target no vertex has", &target(VertexId::MAX)),
                ("target another machine owns", &target(elsewhere)),
            ],
        );

        const WALKER: usize = 32;
        let walk = |m| WalkWorker::new(Box::new(DeepWalk::new(6)), cluster(3), m, 11, 2);
        let started = || {
            (
                None,
                Some(PathTable::of_starts(&WalkStarts::PerVertex(2), 40, 6)),
            )
        };
        // A walker's vertex follows its id and its source.
        let standing = |v| move |seg: &mut RowSeg<'_>| plant(seg, WALKER, 12, v);
        refused(
            walk,
            started,
            WALKER,
            &[
                ("count above the payload", &|seg| seg.count += 1),
                ("count below the payload", &|seg| seg.count -= 1),
                ("walker past the graph", &standing(40)),
                ("walker on another machine's vertex", &standing(elsewhere)),
            ],
        );
        let mut workers: Vec<_> = (0..2).map(walk).collect();
        let theirs = workers[1].snapshot();
        let err = workers[0].restore(Some(&theirs)).unwrap_err();
        assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Workers that hold only their slice — the cluster `run_worker`
        /// builds from its `Placement` frame — put the same bytes on the
        /// wire as workers over the whole graph: every row, every snapshot,
        /// every final. PageRank reads out-lists, out-degrees and the
        /// dangling-mass aggregate; CC the in-lists too; DeepWalk seeds and
        /// steps walkers.
        #[test]
        fn workers_over_slices_are_byte_equal_to_workers_over_the_graph(
            n in 0..RAW_MAX_N,
            pick in 0usize..4,
            edges in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..120),
            parts in prop::collection::vec(0u32..8, RAW_MAX_N),
            seed in 0..u64::MAX,
        ) {
            let full = raw_cluster(n, pick, &edges, &parts);
            let k = full.num_machines();
            let sliced = |app: AppSpec| slice_clusters(&sourceless_spec(k as u32, app), &full);

            let slices = sliced(AppSpec::PageRank { iters: 4 });
            let end = || (Some(4), None);
            let pagerank = |c: &Cluster, m| IterWorker::new(PageRank::new(4), c.clone(), m);
            prop_assert!(
                run_in_process(k, |m| pagerank(&slices[m], m), end(), None)
                    == run_in_process(k, |m| pagerank(&full, m), end(), None),
                "pagerank transcripts differ"
            );

            let slices = sliced(AppSpec::ConnectedComponents);
            let end = || (None, None);
            let cc = |c: &Cluster, m| IterWorker::new(ConnectedComponents, c.clone(), m);
            prop_assert!(
                run_in_process(k, |m| cc(&slices[m], m), end(), None)
                    == run_in_process(k, |m| cc(&full, m), end(), None),
                "cc transcripts differ"
            );

            let slices = sliced(AppSpec::DeepWalk { walk_len: 5, seed, per_vertex: 2 });
            let end = || (None, Some(PathTable::of_starts(&WalkStarts::PerVertex(2), n, 5)));
            let deepwalk =
                |c: &Cluster, m| WalkWorker::new(Box::new(DeepWalk::new(5)), c.clone(), m, seed, 2);
            let over_slices = run_in_process(k, |m| deepwalk(&slices[m], m), end(), None);
            prop_assert!(
                over_slices == run_in_process(k, |m| deepwalk(&full, m), end(), None),
                "deepwalk transcripts differ"
            );
            // Every hop a worker reported left its machine with the
            // superstep that took it.
            let hops: usize = over_slices.table.iter().flatten().map(|path| path.len()).sum();
            let shipped: usize = over_slices.paths.iter().flatten().map(Vec::len).sum();
            prop_assert_eq!((hops - 2 * n) * PATH_TRIPLE_LEN, shipped);
        }
    }

    #[test]
    fn iter_snapshot_rejects_wrong_length() {
        let mut w = IterWorker::new(PageRank::new(5), cluster(3), 0);
        let mut bad = Vec::new();
        3u32.put(&mut bad);
        assert!(w.restore(Some(&bad)).is_err());
    }

    #[test]
    fn walk_worker_seeds_in_global_id_order() {
        let app = || Box::new(DeepWalk::new(4));
        let w = WalkWorker::new(app(), cluster(2), 0, 11, 2);
        let ids: Vec<u64> = w
            .step
            .state()
            .queue
            .iter()
            .map(|walker| walker.id)
            .collect();
        assert!(!ids.is_empty());
        assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:?}");
        let snap = w.snapshot();
        let mut w2 = WalkWorker::new(app(), cluster(2), 0, 11, 2);
        w2.restore(Some(&snap)).unwrap();
        assert_eq!(final_of(&w2), final_of(&w));
        assert_eq!(w2.ready_agg(), w.ready_agg());
    }
}

//! Worker-local BSP step logic.
//!
//! The vertex-program step is not implemented here: [`IterWorker`] holds
//! the engine's own kernel ([`MachineStep`], the one the thread backend
//! runs) and adds only what a process boundary needs — rows encoded into
//! [`RowSeg`]s on the way out and decoded in sender order on the way in,
//! and snapshots as bytes. Bit-identity with the thread backend therefore
//! holds by construction for iteration apps. [`WalkWorker`] still mirrors
//! the walk engine's step by hand, so any deviation in its order shows up
//! as a digest mismatch in the cross-backend tests.

use crate::error::ClusterError;
use crate::proto::RowSeg;
use crate::wire::{decode_all, encode_all, put_u32, put_u64, Reader, Wire};
use bpart_cluster::Cluster;
use bpart_engine::kernel::Snapshot;
use bpart_engine::{MachineStep, VertexProgram};
use bpart_graph::VertexId;
use bpart_walker::{WalkApp, Walker};

/// One machine's share of an iteration-engine computation
/// (PageRank-style vertex programs): the engine's kernel plus the wire
/// encoding of its rows and snapshots.
pub struct IterWorker<P: VertexProgram> {
    program: P,
    step: MachineStep<P>,
}

impl<P: VertexProgram> IterWorker<P>
where
    P::Value: Wire,
    P::Accum: Wire,
{
    /// Fresh worker for `machine`, initialized from the program's
    /// deterministic initial state.
    pub fn new(program: P, cluster: Cluster, machine: usize) -> Self {
        let step = MachineStep::new(&program, &cluster, machine as u32);
        IterWorker { program, step }
    }

    /// This machine's contribution to the global aggregate.
    pub fn local_aggregate(&self) -> f64 {
        self.step.aggregate(&self.program)
    }

    /// Scatter phase: produces one encoded row per destination machine.
    /// The self row stays inside the kernel (it never crosses the wire)
    /// and its slot in the result is an empty segment.
    pub fn scatter(&mut self) -> Vec<RowSeg> {
        self.step.scatter(&self.program);
        let mut rows = self.step.take_rows();
        let segs = rows.iter().map(|row| encode_row(row)).collect();
        rows.iter_mut().for_each(Vec::clear);
        self.step.return_rows(rows);
        segs
    }

    /// Exchange + apply: folds the driver's inbox (sender-order segments,
    /// own slot empty), then applies. Returns whether any local vertex
    /// stays active.
    pub fn apply(
        &mut self,
        inbox: &[RowSeg],
        superstep: u64,
        aggregate: f64,
    ) -> Result<bool, ClusterError> {
        for seg in inbox {
            self.step.fold(&self.program, decode_row::<P::Accum>(seg)?);
        }
        let applied = self
            .step
            .apply(&self.program, superstep as usize, aggregate);
        Ok(applied.any_active)
    }

    /// Serializes `(values, active)` for a driver-held checkpoint.
    pub fn snapshot(&self) -> Vec<u8> {
        let values = self.step.values();
        let mut out = Vec::new();
        put_u32(&mut out, values.len() as u32);
        encode_all(values, &mut out);
        out.extend(self.step.active().iter().map(|&a| a as u8));
        out
    }

    /// Restores from a snapshot (`None`: the deterministic initial
    /// state); the kernel drops any partial-superstep scratch.
    pub fn restore(&mut self, state: Option<&[u8]>) -> Result<(), ClusterError> {
        let Some(bytes) = state else {
            self.step.reset(&self.program);
            return Ok(());
        };
        let mut r = Reader::new(bytes);
        let len = r.u32()? as usize;
        if len != self.step.values().len() {
            return Err(ClusterError::corrupt("snapshot length mismatch"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(P::Value::decode(&mut r)?);
        }
        let mut active = Vec::with_capacity(len);
        for _ in 0..len {
            active.push(r.u8()? != 0);
        }
        if !r.is_empty() {
            return Err(ClusterError::corrupt("trailing bytes in snapshot"));
        }
        self.step.restore(&Snapshot { values, active });
        Ok(())
    }

    /// Final local values (owner-local order) for the `Final` frame.
    pub fn final_result(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_all(self.step.values(), &mut out);
        out
    }
}

fn encode_row<T: Wire>(row: &[(VertexId, T)]) -> RowSeg
where
    (VertexId, T): Wire,
{
    let mut data = Vec::new();
    encode_all(row, &mut data);
    RowSeg {
        count: row.len() as u32,
        data,
    }
}

fn decode_row<T: Wire>(seg: &RowSeg) -> Result<Vec<(VertexId, T)>, ClusterError>
where
    (VertexId, T): Wire,
{
    let items: Vec<(VertexId, T)> = decode_all(&seg.data)?;
    if items.len() != seg.count as usize {
        return Err(ClusterError::corrupt(format!(
            "row segment count {} does not match payload ({})",
            seg.count,
            items.len()
        )));
    }
    Ok(items)
}

/// One machine's share of a walk-engine computation.
pub struct WalkWorker {
    app: Box<dyn WalkApp>,
    cluster: Cluster,
    machine: usize,
    queue: Vec<Walker>,
    path_log: Vec<(u64, u32, VertexId)>,
    kept: Vec<Walker>,
    seed: u64,
    per_vertex: u32,
}

impl WalkWorker {
    /// Fresh worker: seeds the walkers this machine owns, in global
    /// walker-id order (engine seeding order).
    pub fn new(
        app: Box<dyn WalkApp>,
        cluster: Cluster,
        machine: usize,
        seed: u64,
        per_vertex: u32,
    ) -> Self {
        let mut worker = WalkWorker {
            app,
            cluster,
            machine,
            queue: Vec::new(),
            path_log: Vec::new(),
            kept: Vec::new(),
            seed,
            per_vertex,
        };
        worker.reinit();
        worker
    }

    fn reinit(&mut self) {
        self.queue.clear();
        self.path_log.clear();
        let graph = self.cluster.graph();
        let n = graph.num_vertices() as u64;
        for copy in 0..self.per_vertex as u64 {
            for v in graph.vertices() {
                if self.cluster.owner(v) as usize != self.machine {
                    continue;
                }
                let id = copy * n + v as u64;
                let walker = Walker::new(id, v, self.seed);
                self.path_log.push((id, 0, v));
                self.queue.push(walker);
            }
        }
    }

    /// Walkers waiting locally (the worker's `active` signal).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// One synchronous step of every queued walker. Returns the number of
    /// steps executed plus the encoded migration rows (self slot empty —
    /// surviving local walkers go straight back on the queue).
    pub fn step(&mut self) -> (u64, Vec<RowSeg>) {
        let k = self.cluster.num_machines();
        let m = self.machine as u32;
        let max_steps = self.app.walk_length();
        let mut rows: Vec<Vec<Walker>> = (0..k).map(|_| Vec::new()).collect();
        let mut steps = 0u64;
        let graph = self.cluster.graph();
        for mut walker in self.queue.drain(..) {
            let next = self.app.next(&mut walker, graph);
            steps += 1;
            let Some(next) = next else {
                continue;
            };
            walker.advance(next);
            self.path_log.push((walker.id, walker.step, next));
            if walker.step >= max_steps {
                continue;
            }
            let dest = self.cluster.owner(next);
            if dest == m {
                self.kept.push(walker);
            } else {
                rows[dest as usize].push(walker);
            }
        }
        std::mem::swap(&mut self.queue, &mut self.kept);
        let rows = rows
            .into_iter()
            .map(|row| {
                let mut data = Vec::new();
                encode_all(&row, &mut data);
                RowSeg {
                    count: row.len() as u32,
                    data,
                }
            })
            .collect();
        (steps, rows)
    }

    /// Appends exchanged walkers (sender-order segments) to the queue.
    pub fn absorb(&mut self, inbox: &[RowSeg]) -> Result<(), ClusterError> {
        for seg in inbox {
            let walkers: Vec<Walker> = decode_all(&seg.data)?;
            if walkers.len() != seg.count as usize {
                return Err(ClusterError::corrupt("walker segment count mismatch"));
            }
            self.queue.extend(walkers);
        }
        Ok(())
    }

    /// Serializes `(queue, path_log)` for a driver-held checkpoint.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.queue.len() as u32);
        encode_all(&self.queue, &mut out);
        put_u64(&mut out, self.path_log.len() as u64);
        encode_all(&self.path_log, &mut out);
        out
    }

    /// Restores from a snapshot (`None`: re-seed from the starts),
    /// dropping any partial-superstep scratch.
    pub fn restore(&mut self, state: Option<&[u8]>) -> Result<(), ClusterError> {
        self.kept.clear();
        match state {
            None => self.reinit(),
            Some(bytes) => {
                let mut r = Reader::new(bytes);
                let qlen = r.u32()? as usize;
                let mut queue = Vec::with_capacity(qlen);
                for _ in 0..qlen {
                    queue.push(Walker::decode(&mut r)?);
                }
                let plen = r.u64()? as usize;
                let mut path_log = Vec::with_capacity(plen);
                for _ in 0..plen {
                    path_log.push(<(u64, u32, VertexId)>::decode(&mut r)?);
                }
                if !r.is_empty() {
                    return Err(ClusterError::corrupt("trailing bytes in walk snapshot"));
                }
                self.queue = queue;
                self.path_log = path_log;
            }
        }
        Ok(())
    }

    /// Final local path log for the `Final` frame.
    pub fn final_result(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_all(&self.path_log, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpart_core::{ChunkV, Partitioner};
    use bpart_engine::apps::{DistFrom, PageRank, Sssp};
    use bpart_graph::generate;
    use std::sync::Arc;

    fn cluster(k: usize) -> Cluster {
        let graph = Arc::new(generate::erdos_renyi(40, 160, 7));
        let partition = Arc::new(ChunkV.partition(&graph, k));
        Cluster::new(graph, partition)
    }

    #[test]
    fn iter_snapshot_round_trips() {
        let c = cluster(3);
        let mut w = IterWorker::new(PageRank::new(5), c, 1);
        let rows = w.scatter();
        assert_eq!(rows.len(), 3);
        // Self slot must be empty on the wire.
        assert_eq!(rows[1].count, 0);
        let snap = w.snapshot();
        let before = w.final_result();
        w.restore(Some(&snap)).unwrap();
        assert_eq!(w.final_result(), before);
        // Restoring the initial state resets values.
        let mut w2 = IterWorker::new(PageRank::new(5), cluster(3), 1);
        w2.restore(None).unwrap();
        assert_eq!(w2.final_result(), before);
    }

    impl Wire for Vec<DistFrom> {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u32(out, self.len() as u32);
            for d in self {
                put_u32(out, d.from);
                put_u64(out, d.dist);
            }
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, ClusterError> {
            (0..r.u32()?)
                .map(|_| {
                    Ok(DistFrom {
                        from: r.u32()?,
                        dist: r.u64()?,
                    })
                })
                .collect()
        }
    }

    /// Runs three workers in lock-step in this process, as the driver
    /// would, checkpointing every 2 supersteps. With `crash_at`, that
    /// superstep is abandoned after every worker scattered and worker 0
    /// already folded its inbox — occupied slots and retained self rows
    /// are what a survivor holds when `Restore` arrives — and the run
    /// replays from the last checkpoint. Returns the `Final` payloads.
    fn run_in_process<P>(make: impl Fn() -> P, mut crash_at: Option<usize>) -> Vec<Vec<u8>>
    where
        P: VertexProgram,
        P::Value: Wire,
        P::Accum: Wire,
    {
        let mut workers: Vec<IterWorker<P>> = (0..3)
            .map(|m| IterWorker::new(make(), cluster(3), m))
            .collect();
        let mut checkpoint: (usize, Vec<Option<Vec<u8>>>) = (0, vec![None; 3]);
        let mut superstep = 0;
        loop {
            let aggregate: f64 = workers.iter().map(|w| w.local_aggregate()).sum();
            let rows: Vec<Vec<RowSeg>> = workers.iter_mut().map(|w| w.scatter()).collect();
            let inbox = |to: usize| -> Vec<RowSeg> { rows.iter().map(|r| r[to].clone()).collect() };
            if crash_at == Some(superstep) {
                crash_at = None;
                let w = &mut workers[0];
                for seg in inbox(0) {
                    w.step.fold(&w.program, decode_row(&seg).unwrap());
                }
                for (w, state) in workers.iter_mut().zip(&checkpoint.1) {
                    w.restore(state.as_deref()).unwrap();
                }
                superstep = checkpoint.0;
                continue;
            }
            let mut any_active = false;
            for (to, w) in workers.iter_mut().enumerate() {
                any_active |= w.apply(&inbox(to), superstep as u64, aggregate).unwrap();
            }
            superstep += 1;
            if superstep % 2 == 0 {
                let states = workers.iter().map(|w| Some(w.snapshot())).collect();
                checkpoint = (superstep, states);
            }
            let capped = make().max_iterations().is_some_and(|max| superstep >= max);
            if capped || !any_active {
                break;
            }
        }
        assert_eq!(crash_at, None, "the run ended before the crash superstep");
        workers.iter().map(|w| w.final_result()).collect()
    }

    /// A `crash@s` replay ends bit-equal to the fault-free run, from the
    /// initial state (s = 1) and from a snapshot (s = 3), for plain `f64`
    /// slots and for SSSP's heap-owning ones.
    #[test]
    fn replay_after_a_mid_superstep_restore_is_bit_equal() {
        let clean = run_in_process(|| PageRank::new(5), None);
        let sssp = run_in_process(|| Sssp::new(0), None);
        for crash_at in [1, 3] {
            assert_eq!(run_in_process(|| PageRank::new(5), Some(crash_at)), clean);
            assert_eq!(run_in_process(|| Sssp::new(0), Some(crash_at)), sssp);
        }
    }

    #[test]
    fn iter_snapshot_rejects_wrong_length() {
        let mut w = IterWorker::new(PageRank::new(5), cluster(3), 0);
        let mut bad = Vec::new();
        put_u32(&mut bad, 3);
        assert!(w.restore(Some(&bad)).is_err());
    }

    #[test]
    fn walk_worker_seeds_in_global_id_order() {
        let c = cluster(2);
        let app = bpart_walker::apps::SimpleRandomWalk::new(4);
        let w = WalkWorker::new(Box::new(app), c, 0, 11, 2);
        let mut prev = None;
        for walker in &w.queue {
            if let Some(p) = prev {
                assert!(walker.id > p, "ids must be strictly increasing");
            }
            prev = Some(walker.id);
        }
        assert!(w.queue_len() > 0);
        let snap = w.snapshot();
        let mut w2 = WalkWorker::new(
            Box::new(bpart_walker::apps::SimpleRandomWalk::new(4)),
            cluster(2),
            0,
            11,
            2,
        );
        w2.restore(Some(&snap)).unwrap();
        assert_eq!(w2.final_result(), w.final_result());
        assert_eq!(w2.queue_len(), w.queue_len());
    }
}

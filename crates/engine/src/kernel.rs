//! The per-machine vertex-program superstep kernel.
//!
//! [`MachineStep`] is one machine's share of a superstep — aggregate,
//! scatter, drain to per-destination rows, inbox fold, apply, scratch
//! clear, snapshot/restore — and the only implementation of it: the
//! thread backend ([`IterationEngine`](crate::IterationEngine)) folds the
//! rows where the senders staged them, the process backend
//! (`bpart_dist::step::IterWorker`) encodes them into frames. Both call
//! the same methods in the same order, so their results are bit-identical
//! by construction.
//!
//! # Layout
//!
//! Combined signals live in a dense scratch indexed by *global* vertex
//! id: `slots[v]` is a plain `size_of::<Accum>()`-byte slot and bit `v`
//! of the `present` bitmap says whether it is occupied. A vacant slot
//! holds `Accum::default()`, which is never combined or delivered.
//!
//! # Ordering invariant
//!
//! Floating-point folds are order-sensitive, so three orders are fixed:
//!
//! 1. **Ascending-target drain.** The bitmap is drained word by word,
//!    lowest set bit first, so every per-destination row (and the apply
//!    order of signal-driven programs) is in ascending target id.
//! 2. **Sender-order fold.** The caller folds the exchanged rows in
//!    ascending sender order via [`MachineStep::fold`].
//! 3. **Self row last.** The row a machine addressed to itself never
//!    leaves the kernel; [`MachineStep::apply`] folds it after
//!    everything the caller folded.

use crate::program::{ProgramContext, VertexProgram};
use bpart_cluster::bsp::Machine;
use bpart_cluster::{Cluster, MachineId, MessageArena, WorkUnits};
use bpart_graph::VertexId;
use std::sync::Arc;

/// One machine's outgoing rows: `rows[to]` holds the combined updates
/// staged for machine `to`, in ascending target order.
pub type Rows<A> = Vec<Vec<(VertexId, A)>>;

/// What one machine's scatter phase counted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScatterOutcome {
    /// Raw (uncombined) cross-machine edge updates per destination — the
    /// payload a Pregel-style system would ship, which the cost model
    /// charges under per-edge accounting (the paper's §4.5 attribution).
    pub raw: Vec<u64>,
    /// Edges scanned.
    pub work: WorkUnits,
}

/// What one machine's apply phase counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Vertices updated.
    pub work: WorkUnits,
    /// Whether any local vertex is active in the next superstep.
    pub any_active: bool,
}

/// One machine's state at a superstep boundary (owner-local order).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<V> {
    /// Local vertex values.
    pub values: Vec<V>,
    /// Local activity flags.
    pub active: Vec<bool>,
}

/// One machine's share of a vertex-program computation.
pub struct MachineStep<P: VertexProgram> {
    cluster: Cluster,
    machine: MachineId,
    /// Global id -> owner-local index.
    local_of: Arc<[u32]>,
    values: Vec<P::Value>,
    active: Vec<bool>,
    /// Dense accumulator slots, indexed by global id (scratch).
    slots: Vec<P::Accum>,
    /// Bit `v` set: `slots[v]` is occupied (scratch).
    present: Vec<u64>,
    /// Arena-staged combined updates (buffers persist across supersteps).
    outbox: MessageArena<(VertexId, P::Accum)>,
    /// The self-addressed row of the last scatter, folded by `apply`.
    self_row: Vec<(VertexId, P::Accum)>,
}

/// Calls `f(v)` for every set bit in ascending `v`, clearing the bitmap.
#[inline]
fn drain_bits(present: &mut [u64], mut f: impl FnMut(usize)) {
    for (wi, word) in present.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            f(wi << 6 | bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Folds `a` into the slot of target `v`, marking it on first touch.
#[inline]
fn accumulate<P: VertexProgram>(
    program: &P,
    slots: &mut [P::Accum],
    present: &mut [u64],
    v: VertexId,
    a: P::Accum,
) {
    let v = v as usize;
    let bit = 1u64 << (v & 63);
    let word = &mut present[v >> 6];
    if *word & bit == 0 {
        *word |= bit;
        slots[v] = a;
    } else {
        program.combine(&mut slots[v], a);
    }
}

impl<P: VertexProgram> MachineStep<P> {
    /// The kernel for `machine`, in the program's initial state.
    pub fn new(program: &P, cluster: &Cluster, machine: MachineId) -> Self {
        Self::with_index(program, cluster, machine, local_index(cluster))
    }

    /// One kernel per machine of `cluster`, sharing the local index.
    pub fn for_cluster(program: &P, cluster: &Cluster) -> Vec<Self> {
        let local_of = local_index(cluster);
        (0..cluster.num_machines())
            .map(|m| Self::with_index(program, cluster, m as MachineId, local_of.clone()))
            .collect()
    }

    fn with_index(
        program: &P,
        cluster: &Cluster,
        machine: MachineId,
        local_of: Arc<[u32]>,
    ) -> Self {
        let n = cluster.graph().num_vertices();
        let mut step = MachineStep {
            cluster: cluster.clone(),
            machine,
            local_of,
            values: Vec::new(),
            active: Vec::new(),
            slots: std::iter::repeat_with(P::Accum::default).take(n).collect(),
            present: vec![0; n.div_ceil(64)],
            outbox: MessageArena::new(cluster.num_machines()),
            self_row: Vec::new(),
        };
        step.reset(program);
        step
    }

    /// Local vertex values, in owner-local order.
    pub fn values(&self) -> &[P::Value] {
        &self.values
    }

    /// Local activity flags, in owner-local order.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// This machine's contribution to the global aggregate, summed in
    /// member order.
    pub fn aggregate(&self, program: &P) -> f64 {
        let graph = self.cluster.graph();
        self.cluster
            .local_vertices(self.machine)
            .iter()
            .zip(&self.values)
            .map(|(&v, val)| program.aggregate(v, val, graph))
            .sum::<f64>()
    }

    /// Scatter phase: signals every active vertex's neighbours, combining
    /// per target, then drains the combined updates into per-destination
    /// rows in ascending target order (see [`Machine::take_rows`]).
    pub fn scatter(&mut self, program: &P) -> ScatterOutcome {
        let MachineStep {
            cluster,
            machine,
            values,
            active,
            slots,
            present,
            outbox,
            ..
        } = self;
        debug_assert_eq!(outbox.staged(), 0);
        let graph = cluster.graph();
        let owner = cluster.partition().assignment();
        let use_in_edges = program.use_in_edges();
        let mut work = WorkUnits::default();
        // Counted for every edge, local ones included: the self entry is
        // zeroed once below instead of branching per edge.
        let mut raw = vec![0u64; cluster.num_machines()];
        for (li, &u) in cluster.local_vertices(*machine).iter().enumerate() {
            if !active[li] {
                continue;
            }
            let Some(signal) = program.scatter(u, &values[li], graph) else {
                continue;
            };
            let out = graph.out_neighbors(u);
            work.edges_scanned += out.len() as u64;
            for &v in out {
                raw[owner[v as usize] as usize] += 1;
                accumulate(program, slots, present, v, signal.clone());
            }
            if use_in_edges {
                let inn = graph.in_neighbors(u);
                work.edges_scanned += inn.len() as u64;
                for &v in inn {
                    raw[owner[v as usize] as usize] += 1;
                    accumulate(program, slots, present, v, signal.clone());
                }
            }
        }
        raw[*machine as usize] = 0;
        drain_bits(present, |v| {
            outbox.push(owner[v], (v as VertexId, std::mem::take(&mut slots[v])));
        });
        ScatterOutcome { raw, work }
    }

    /// Folds one sender's delivered row into the accumulator. Call once
    /// per sender, in ascending sender order.
    pub fn fold(&mut self, program: &P, row: impl IntoIterator<Item = (VertexId, P::Accum)>) {
        for (v, a) in row {
            accumulate(program, &mut self.slots, &mut self.present, v, a);
        }
    }

    /// Apply phase: folds the retained self row (last), then applies the
    /// combined signals — to every local vertex in member order for
    /// [`apply_to_all`](VertexProgram::apply_to_all) programs, otherwise
    /// to the signalled vertices in ascending id. `aggregate` is the
    /// global aggregate over the values this superstep started from.
    pub fn apply(&mut self, program: &P, superstep: usize, aggregate: f64) -> ApplyOutcome {
        let MachineStep {
            cluster,
            machine,
            local_of,
            values,
            active,
            slots,
            present,
            self_row,
            ..
        } = self;
        for (v, a) in self_row.drain(..) {
            accumulate(program, slots, present, v, a);
        }
        let graph = cluster.graph();
        let ctx = ProgramContext {
            iteration: superstep,
            num_vertices: graph.num_vertices(),
            aggregate,
        };
        let mut work = WorkUnits::default();
        let mut any_active = false;
        if program.apply_to_all() {
            for (li, &v) in cluster.local_vertices(*machine).iter().enumerate() {
                let occupied = (present[v as usize >> 6] >> (v & 63)) & 1 != 0;
                let incoming = occupied.then(|| std::mem::take(&mut slots[v as usize]));
                let stays = program.apply(v, &mut values[li], incoming, &ctx, graph);
                active[li] = stays;
                any_active |= stays;
                work.vertices_updated += 1;
            }
            present.fill(0);
        } else {
            // Only signalled vertices update; everyone else goes (or
            // stays) inactive.
            active.fill(false);
            drain_bits(present, |v| {
                let li = local_of[v] as usize;
                let incoming = Some(std::mem::take(&mut slots[v]));
                let stays = program.apply(v as VertexId, &mut values[li], incoming, &ctx, graph);
                active[li] = stays;
                any_active |= stays;
                work.vertices_updated += 1;
            });
        }
        ApplyOutcome { work, any_active }
    }

    /// Rolls back to the program's deterministic initial state.
    pub fn reset(&mut self, program: &P) {
        self.clear_scratch();
        let graph = self.cluster.graph();
        let members = self.cluster.local_vertices(self.machine);
        self.values = members.iter().map(|&v| program.init(v, graph)).collect();
        self.active = members
            .iter()
            .map(|&v| program.initially_active(v, graph))
            .collect();
    }

    /// Vacates every occupied slot (dropping what it owned), zeroes the
    /// bitmap, and discards staged rows, keeping buffer capacity.
    fn clear_scratch(&mut self) {
        let slots = &mut self.slots;
        drain_bits(&mut self.present, |v| slots[v] = P::Accum::default());
        self.outbox.reset();
        self.self_row.clear();
    }
}

/// The loop-facing half of the kernel: rows out and back, checkpoints.
impl<P: VertexProgram> Machine for MachineStep<P> {
    type Msg = (VertexId, P::Accum);
    type Snapshot = Snapshot<P::Value>;

    /// The self-addressed row stays inside (it is no network message),
    /// so its slot in the result is empty.
    fn take_rows(&mut self) -> Rows<P::Accum> {
        let mut rows = self.outbox.take_filled();
        debug_assert!(self.self_row.is_empty());
        std::mem::swap(&mut rows[self.machine as usize], &mut self.self_row);
        rows
    }

    fn return_rows(&mut self, rows: Rows<P::Accum>) {
        self.outbox.put_drained(rows);
    }

    fn snapshot(&self) -> Snapshot<P::Value> {
        Snapshot {
            values: self.values.clone(),
            active: self.active.clone(),
        }
    }

    /// # Panics
    ///
    /// Panics if the snapshot is not of this machine's vertex count.
    fn restore(&mut self, snapshot: &Snapshot<P::Value>) {
        let local = self.cluster.local_vertices(self.machine).len();
        assert_eq!(snapshot.values.len(), local, "snapshot length mismatch");
        assert_eq!(snapshot.active.len(), local, "snapshot length mismatch");
        self.clear_scratch();
        self.values.clone_from(&snapshot.values);
        self.active.clone_from(&snapshot.active);
    }

    /// One unit per vertex value.
    fn state_units(snapshot: &Snapshot<P::Value>) -> u64 {
        snapshot.values.len() as u64
    }
}

/// Global id -> owner-local index, for every machine of `cluster`.
fn local_index(cluster: &Cluster) -> Arc<[u32]> {
    let mut local_of = vec![0u32; cluster.graph().num_vertices()];
    for m in 0..cluster.num_machines() {
        for (li, &v) in cluster.local_vertices(m as MachineId).iter().enumerate() {
            local_of[v as usize] = li as u32;
        }
    }
    local_of.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{PageRank, Sssp};
    use crate::IterationEngine;
    use bpart_cluster::exec::ExecMode;
    use bpart_cluster::{CostModel, FaultPlan};
    use bpart_core::{ChunkV, Partitioner};
    use bpart_graph::{generate, CsrGraph};
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `inner`, except that the `nth` scatter of `vertex` panics (once).
    struct PanicOnce<P> {
        inner: P,
        vertex: VertexId,
        nth: usize,
        calls: AtomicUsize,
    }

    impl<P> PanicOnce<P> {
        fn new(inner: P, vertex: VertexId, nth: usize) -> Self {
            PanicOnce {
                inner,
                vertex,
                nth,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl<P: VertexProgram> VertexProgram for PanicOnce<P> {
        type Value = P::Value;
        type Accum = P::Accum;
        fn init(&self, v: VertexId, g: &CsrGraph) -> P::Value {
            self.inner.init(v, g)
        }
        fn initially_active(&self, v: VertexId, g: &CsrGraph) -> bool {
            self.inner.initially_active(v, g)
        }
        fn scatter(&self, u: VertexId, value: &P::Value, g: &CsrGraph) -> Option<P::Accum> {
            if u == self.vertex && self.calls.fetch_add(1, Ordering::Relaxed) == self.nth {
                panic!("injected scatter fault at vertex {u}");
            }
            self.inner.scatter(u, value, g)
        }
        fn combine(&self, a: &mut P::Accum, b: P::Accum) {
            self.inner.combine(a, b)
        }
        fn apply(
            &self,
            v: VertexId,
            value: &mut P::Value,
            incoming: Option<P::Accum>,
            ctx: &ProgramContext,
            g: &CsrGraph,
        ) -> bool {
            self.inner.apply(v, value, incoming, ctx, g)
        }
        fn apply_to_all(&self) -> bool {
            self.inner.apply_to_all()
        }
        fn use_in_edges(&self) -> bool {
            self.inner.use_in_edges()
        }
        fn aggregate(&self, v: VertexId, value: &P::Value, g: &CsrGraph) -> f64 {
            self.inner.aggregate(v, value, g)
        }
        fn max_iterations(&self) -> Option<usize> {
            self.inner.max_iterations()
        }
    }

    fn cluster() -> Cluster {
        let graph = Arc::new(generate::erdos_renyi(120, 800, 3));
        let partition = Arc::new(ChunkV.partition(&graph, 3));
        Cluster::new(graph, partition)
    }

    /// The last of the out-neighbours of `source` that share a machine
    /// with another one. Both first scatter in superstep 1 of a traversal
    /// from `source`, the returned one after its machine-mate.
    fn second_frontier_vertex(cluster: &Cluster, source: VertexId) -> VertexId {
        let frontier = cluster.graph().out_neighbors(source);
        let mate = |&v: &VertexId| {
            frontier
                .iter()
                .any(|&w| w < v && w != source && cluster.owner(w) == cluster.owner(v))
        };
        *frontier
            .iter()
            .rev()
            .find(|v| **v != source && mate(v))
            .expect("two frontier vertices on one machine")
    }

    /// One fault-free superstep over all machines, in the callers' order.
    fn superstep<P: VertexProgram>(steps: &mut [MachineStep<P>], program: &P, superstep: usize) {
        let aggregate: f64 = steps.iter().map(|s| s.aggregate(program)).sum();
        let mut rows: Vec<Rows<P::Accum>> = steps
            .iter_mut()
            .map(|s| {
                s.scatter(program);
                s.take_rows()
            })
            .collect();
        for (to, step) in steps.iter_mut().enumerate() {
            for row in rows.iter_mut() {
                step.fold(program, row[to].drain(..));
            }
        }
        for (step, row) in steps.iter_mut().zip(rows) {
            step.return_rows(row);
            step.apply(program, superstep, aggregate);
        }
    }

    /// A panic inside `scatter` of superstep `at` leaves bitmap words set
    /// and slots occupied; `restore` clears both, and the replayed scatter
    /// stages exactly what an undisturbed kernel stages.
    fn assert_restore_clears_a_torn_scatter<P>(inner: P, vertex: VertexId, at: usize)
    where
        P: VertexProgram + Clone,
        P::Accum: PartialEq + Debug,
    {
        let cluster = cluster();
        let machine = cluster.owner(vertex) as usize;
        let faulty = PanicOnce::new(inner.clone(), vertex, 0);
        let mut torn = MachineStep::for_cluster(&faulty, &cluster);
        let mut calm = MachineStep::for_cluster(&inner, &cluster);
        for s in 0..at {
            superstep(&mut torn, &faulty, s);
            superstep(&mut calm, &inner, s);
        }
        let torn = &mut torn[machine];
        let calm = &mut calm[machine];
        let before = torn.snapshot();

        let panicked = catch_unwind(AssertUnwindSafe(|| torn.scatter(&faulty)));
        assert!(panicked.is_err());
        assert!(
            torn.present.iter().any(|&w| w != 0),
            "the fault must land mid-scatter, after some target was touched"
        );

        torn.restore(&before);
        assert!(torn.present.iter().all(|&w| w == 0));
        assert!(torn.slots.iter().all(|a| *a == P::Accum::default()));
        assert_eq!(torn.outbox.staged(), 0);
        assert!(torn.self_row.is_empty());

        assert_eq!(torn.scatter(&faulty), calm.scatter(&inner));
        assert_eq!(torn.take_rows(), calm.take_rows());
        assert_eq!(torn.self_row, calm.self_row);
    }

    #[test]
    fn restore_clears_a_torn_scatter_of_plain_slots() {
        // All vertices are active: machine 1's 20th member comes after 19
        // others have scattered.
        let vertex = cluster().local_vertices(1)[20];
        assert_restore_clears_a_torn_scatter(PageRank::new(4), vertex, 0);
    }

    #[test]
    fn restore_clears_a_torn_scatter_of_heap_owning_slots() {
        let vertex = second_frontier_vertex(&cluster(), 0);
        assert_restore_clears_a_torn_scatter(Sssp::new(0), vertex, 1);
    }

    /// Through the engine: a scatter that panics once mid-way, and an
    /// injected `crash@s:m`, both end bit-equal to the fault-free run.
    fn assert_engine_recovers<P>(inner: P, vertex: VertexId, nth: usize, crash_at: usize)
    where
        P: VertexProgram + Clone,
        P::Value: PartialEq + Debug,
    {
        let cluster = cluster();
        let engine = |mode| IterationEngine::new(cluster.clone(), CostModel::default(), mode);
        let clean = engine(ExecMode::Sequential).run(&inner);
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            for every in [None, Some(2)] {
                let with_checkpoints = |e: IterationEngine| match every {
                    Some(every) => e.with_checkpoint_every(every),
                    None => e,
                };
                let panicked =
                    with_checkpoints(engine(mode)).run(&PanicOnce::new(inner.clone(), vertex, nth));
                assert_eq!(panicked.values, clean.values, "{mode:?} {every:?}");
                assert_eq!(panicked.iterations, clean.iterations);
                assert_eq!(panicked.telemetry.total_faults(), 1);

                let plan = FaultPlan::new().crash(crash_at, cluster.owner(vertex));
                let crashed = with_checkpoints(engine(mode).with_faults(plan)).run(&inner);
                assert_eq!(crashed.values, clean.values, "{mode:?} {every:?}");
                assert_eq!(crashed.iterations, clean.iterations);
                assert_eq!(crashed.telemetry.total_faults(), 1);
            }
        }
    }

    #[test]
    fn engine_recovers_bit_equal_with_plain_slots() {
        let vertex = cluster().local_vertices(1)[20];
        assert_engine_recovers(PageRank::new(6), vertex, 3, 3);
    }

    #[test]
    fn engine_recovers_bit_equal_with_heap_owning_slots() {
        let vertex = second_frontier_vertex(&cluster(), 0);
        assert_engine_recovers(Sssp::new(0), vertex, 0, 1);
    }
}

//! The per-machine vertex-program superstep kernel.
//!
//! [`MachineStep`] is one machine's share of a superstep — aggregate,
//! scatter, the views other machines read it through, inbox fold, apply,
//! scratch clear, snapshot/restore — and the only implementation of it:
//! the thread backend ([`IterationEngine`](crate::IterationEngine)) folds
//! a sender's view straight into the receiver, the process backend
//! (`bpart_dist::step::IterWorker`) encodes it into a frame and folds from
//! the frame's bytes. Both call the same methods in the same order, so
//! their results are bit-identical by construction.
//!
//! # Layout
//!
//! What a machine *sends* is combined in a dense scratch indexed by
//! *global* vertex id: `slots[v]`, a plain `size_of::<Accum>()`-byte slot,
//! occupied iff bit `v` of `present` is set. The slots are the messages,
//! never copied into rows: [`MachineStep::outgoing`] reads the occupied
//! slots one destination owns (`present & owned[to]`, a word at a time),
//! vacating them. What a machine *receives* is combined in an inbox
//! indexed by *owner-local* id (`inbox[li]`, bit `li` of `arrived`), so a
//! fold never disturbs the machine's own send slots. A vacant slot of
//! either holds the program's [`identity`](VertexProgram::identity), so a
//! fold sets the slot's bit and `combine`s, with no first-touch branch.
//!
//! # Cached counts
//!
//! How many raw edge updates a superstep sends each machine depends only
//! on which vertices signal: the partition fixes the rest. So each kernel
//! keeps the `k` counts of its first superstep in which every local vertex
//! with edges signalled, and a later superstep counts the smaller side:
//! with the cache and at least half the local vertices active, it
//! subtracts the edges of the vertices that sent nothing from the cached
//! counts (an all-active superstep of PageRank subtracts nothing);
//! otherwise it counts the signalled edges directly. The cache depends on
//! the partition (and the program's edge direction) alone, so it survives
//! [`reset`](MachineStep::reset) and [`restore`](Machine::restore).
//!
//! # Ordering invariant
//!
//! Floating-point folds are order-sensitive, so three orders are fixed:
//!
//! 1. **Ascending-target views.** A view walks the bitmap word by word,
//!    lowest set bit first, so what one machine sends another (and the
//!    apply order of signal-driven programs: local ids ascend with global
//!    ones) is in ascending target id.
//! 2. **Sender-order fold.** The caller folds the other machines' views in
//!    ascending sender order via [`MachineStep::fold`].
//! 3. **Own view last.** What a machine addressed to itself stays in its
//!    send slots; [`MachineStep::apply`] folds that view after the others.

use crate::program::{ProgramContext, VertexProgram};
use bpart_cluster::bsp::Machine;
use bpart_cluster::{Cluster, MachineId, WorkUnits};
use bpart_graph::{CsrGraph, VertexId};
use std::sync::Arc;

/// What one machine's scatter phase counted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScatterOutcome {
    /// Raw (uncombined) cross-machine edge updates per destination — the
    /// payload a Pregel-style system would ship, and what the cost model
    /// charges the communication phase for (the paper's §4.5 attribution).
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
    /// Per machine, the bitmap of the global ids it owns.
    owned: Arc<[Vec<u64>]>,
    values: Vec<P::Value>,
    active: Vec<bool>,
    /// What a vacant slot holds: the program's identity of `combine`.
    vacant: P::Accum,
    /// The first fully signalled superstep's raw edge updates per
    /// destination, the machine's own included.
    counts: Option<Vec<u64>>,
    /// Send slots, indexed by global id (scratch).
    slots: Vec<P::Accum>,
    /// Bit `v` set: `slots[v]` is occupied (scratch).
    present: Vec<u64>,
    /// Receive slots, indexed by owner-local id (scratch).
    inbox: Vec<P::Accum>,
    /// Bit `li` set: `inbox[li]` is occupied (scratch).
    arrived: Vec<u64>,
}

/// The lists `u` signals along: its out-neighbours, then its in-neighbours
/// when the program uses them.
#[inline]
fn targets(graph: &CsrGraph, u: VertexId, in_edges: bool) -> [&[VertexId]; 2] {
    let inn = if in_edges { graph.in_neighbors(u) } else { &[] };
    [graph.out_neighbors(u), inn]
}

/// The occupied slots whose bit is in `mask`, in ascending index, each
/// vacated (reset to `vacant`) as it is yielded.
#[inline]
fn drain_masked<'a, A: Clone>(
    slots: &'a mut [A],
    occupied: &'a mut [u64],
    mask: &'a [u64],
    vacant: &'a A,
) -> impl Iterator<Item = (VertexId, A)> + 'a {
    let (mut next_word, mut bits) = (0, 0u64);
    std::iter::from_fn(move || {
        while bits == 0 {
            bits = *occupied.get(next_word)? & mask[next_word];
            next_word += 1;
        }
        let lowest = bits & bits.wrapping_neg();
        bits ^= lowest;
        occupied[next_word - 1] ^= lowest;
        let i = (next_word - 1) << 6 | lowest.trailing_zeros() as usize;
        Some((
            i as VertexId,
            std::mem::replace(&mut slots[i], vacant.clone()),
        ))
    })
}

/// Calls `f(i)` for every set bit in ascending `i`, clearing the bitmap.
#[inline]
fn drain_bits(bitmap: &mut [u64], mut f: impl FnMut(usize)) {
    for (wi, word) in bitmap.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            f(wi << 6 | bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Folds `a` into slot `i` and marks it in `occupied`: vacant slots hold
/// the identity, so that is `combine` alone.
#[inline]
fn accumulate<P: VertexProgram>(
    program: &P,
    slots: &mut [P::Accum],
    occupied: &mut [u64],
    i: usize,
    a: P::Accum,
) {
    occupied[i >> 6] |= 1 << (i & 63);
    program.combine(&mut slots[i], a);
}

impl<P: VertexProgram> MachineStep<P> {
    /// The kernel for `machine`, in the program's initial state.
    pub fn new(program: &P, cluster: &Cluster, machine: MachineId) -> Self {
        Self::with_index(program, cluster, machine, index(cluster))
    }

    /// One kernel per machine of `cluster`, sharing the index.
    pub fn for_cluster(program: &P, cluster: &Cluster) -> Vec<Self> {
        let shared = index(cluster);
        (0..cluster.num_machines())
            .map(|m| Self::with_index(program, cluster, m as MachineId, shared.clone()))
            .collect()
    }

    fn with_index(program: &P, cluster: &Cluster, machine: MachineId, index: Index) -> Self {
        let (local_of, owned) = index;
        let (n, local) = (local_of.len(), cluster.local_vertices(machine).len());
        let vacant = program.identity();
        let mut step = MachineStep {
            cluster: cluster.clone(),
            machine,
            local_of,
            owned,
            values: Vec::new(),
            active: Vec::new(),
            counts: None,
            slots: vec![vacant.clone(); n],
            present: vec![0; n.div_ceil(64)],
            inbox: vec![vacant.clone(); local],
            arrived: vec![0; local.div_ceil(64)],
            vacant,
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

    /// The local vertex values, in owner-local order; the scratch goes
    /// with the kernel.
    pub fn into_values(self) -> Vec<P::Value> {
        self.values
    }

    /// Whether this machine owns `v`: what [`fold`](Self::fold) requires.
    pub fn owns(&self, v: VertexId) -> bool {
        self.cluster.partition().assignment().get(v as usize) == Some(&self.machine)
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
    /// per target into the send slots — where the combined updates stay
    /// until [`outgoing`](Self::outgoing) reads them. The counts come from
    /// the smaller side (the module doc's "Cached counts"); which side
    /// changes no bit of the outcome.
    pub fn scatter(&mut self, program: &P) -> ScatterOutcome {
        debug_assert!(self.present.iter().all(|&word| word == 0));
        let MachineStep {
            cluster,
            machine,
            values,
            active,
            counts,
            slots,
            present,
            ..
        } = self;
        let graph = cluster.graph();
        let owner = cluster.partition().assignment();
        let in_edges = program.use_in_edges();
        let live = active.iter().filter(|&&a| a).count();
        // Subtracting reads the edges of the vertices that send nothing,
        // counting those of the vertices that send.
        let cached = counts.as_ref().filter(|_| 2 * live >= active.len());
        let count = cached.is_none();
        let mut raw = match cached {
            Some(cached) => cached.clone(),
            None => vec![0; cluster.num_machines()],
        };
        let mut work = WorkUnits::default();
        let mut all_signalled = true;
        for (li, &u) in cluster.local_vertices(*machine).iter().enumerate() {
            let signal = match active[li] {
                true => program.scatter(u, &values[li], graph),
                false => None,
            };
            let Some(signal) = signal else {
                // Its edges matter to a subtracted count, and to the
                // cache while it is still to fill.
                if count && counts.is_some() {
                    continue;
                }
                let lists = targets(graph, u, in_edges);
                all_signalled &= lists.iter().all(|list| list.is_empty());
                if !count {
                    for &v in lists.iter().copied().flatten() {
                        raw[owner[v as usize] as usize] -= 1;
                    }
                }
                continue;
            };
            for list in targets(graph, u, in_edges) {
                work.edges_scanned += list.len() as u64;
                for &v in list {
                    let v = v as usize;
                    if count {
                        raw[owner[v] as usize] += 1;
                    }
                    accumulate(program, slots, present, v, signal.clone());
                }
            }
        }
        if all_signalled && counts.is_none() {
            *counts = Some(raw.clone());
        }
        raw[*machine as usize] = 0;
        ScatterOutcome { raw, work }
    }

    /// The combined updates this machine holds for the vertices `to` owns,
    /// in ascending target id, vacated as they are read.
    pub fn outgoing(&mut self, to: MachineId) -> impl Iterator<Item = (VertexId, P::Accum)> + '_ {
        let MachineStep {
            owned,
            vacant,
            slots,
            present,
            ..
        } = self;
        drain_masked(slots, present, &owned[to as usize], vacant)
    }

    /// Folds what one sender holds for this machine into the inbox. Call
    /// once per other machine, in ascending sender order, with targets this
    /// machine [`owns`](Self::owns).
    pub fn fold(&mut self, program: &P, row: impl IntoIterator<Item = (VertexId, P::Accum)>) {
        let MachineStep {
            local_of,
            inbox,
            arrived,
            ..
        } = self;
        for (v, a) in row {
            let li = local_of[v as usize] as usize;
            accumulate(program, inbox, arrived, li, a);
        }
    }

    /// Apply phase: folds this machine's own view (last), then applies the
    /// inbox — to every local vertex in member order for
    /// [`apply_to_all`](VertexProgram::apply_to_all) programs, otherwise
    /// to the signalled vertices in ascending id. `aggregate` is the
    /// global aggregate over the values this superstep started from.
    pub fn apply(&mut self, program: &P, superstep: usize, aggregate: f64) -> ApplyOutcome {
        let MachineStep {
            cluster,
            machine,
            local_of,
            owned,
            values,
            active,
            vacant,
            slots,
            present,
            inbox,
            arrived,
            ..
        } = self;
        for (v, a) in drain_masked(slots, present, &owned[*machine as usize], vacant) {
            let li = local_of[v as usize] as usize;
            accumulate(program, inbox, arrived, li, a);
        }
        let graph = cluster.graph();
        let members = cluster.local_vertices(*machine);
        let ctx = ProgramContext {
            iteration: superstep,
            num_vertices: graph.num_vertices(),
            aggregate,
        };
        let mut work = WorkUnits::default();
        let mut any_active = false;
        let mut apply = |active: &mut [bool], li: usize, incoming: Option<P::Accum>| {
            let stays = program.apply(members[li], &mut values[li], incoming, &ctx, graph);
            active[li] = stays;
            any_active |= stays;
            work.vertices_updated += 1;
        };
        if program.apply_to_all() {
            for (li, slot) in inbox.iter_mut().enumerate() {
                let occupied = (arrived[li >> 6] >> (li & 63)) & 1 != 0;
                apply(
                    active,
                    li,
                    occupied.then(|| std::mem::replace(slot, vacant.clone())),
                );
            }
            arrived.fill(0);
        } else {
            // Only signalled vertices update; everyone else goes (or
            // stays) inactive.
            active.fill(false);
            drain_bits(arrived, |li| {
                apply(
                    active,
                    li,
                    Some(std::mem::replace(&mut inbox[li], vacant.clone())),
                )
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

    /// Vacates every occupied send slot and every occupied inbox slot
    /// (dropping what they owned) and zeroes both bitmaps.
    fn clear_scratch(&mut self) {
        let MachineStep {
            vacant,
            slots,
            present,
            inbox,
            arrived,
            ..
        } = self;
        drain_bits(present, |v| slots[v] = vacant.clone());
        drain_bits(arrived, |li| inbox[li] = vacant.clone());
    }
}

/// The loop-facing half of the kernel: staged counts, checkpoints.
impl<P: VertexProgram> Machine for MachineStep<P> {
    type Snapshot = Snapshot<P::Value>;

    /// One message per occupied send slot another machine owns.
    fn staged(&self) -> Vec<u64> {
        let ones = |(p, o): (&u64, &u64)| (p & o).count_ones() as u64;
        let held = |owned: &Vec<u64>| self.present.iter().zip(owned).map(ones).sum();
        let mut counts: Vec<u64> = self.owned.iter().map(held).collect();
        counts[self.machine as usize] = 0;
        counts
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
    fn units(&self) -> u64 {
        self.values.len() as u64
    }
}

/// What the kernels of one cluster share: global id -> owner-local index,
/// and per machine the bitmap of the global ids it owns.
type Index = (Arc<[u32]>, Arc<[Vec<u64>]>);

fn index(cluster: &Cluster) -> Index {
    let n = cluster.graph().num_vertices();
    let mut local_of = vec![0u32; n];
    let mut owned = vec![vec![0u64; n.div_ceil(64)]; cluster.num_machines()];
    for (m, bitmap) in owned.iter_mut().enumerate() {
        for (li, &v) in cluster.local_vertices(m as MachineId).iter().enumerate() {
            local_of[v as usize] = li as u32;
            bitmap[v as usize >> 6] |= 1 << (v & 63);
        }
    }
    (local_of.into(), owned.into())
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
        fn identity(&self) -> P::Accum {
            self.inner.identity()
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

    /// Folds into `steps[to]` what every other machine holds for it, in
    /// ascending sender order, as the callers do.
    fn fold_others<P: VertexProgram>(steps: &mut [MachineStep<P>], program: &P, to: usize) {
        let (before, rest) = steps.split_at_mut(to);
        let (receiver, after) = rest.split_first_mut().unwrap();
        for sender in before.iter_mut().chain(after) {
            receiver.fold(program, sender.outgoing(to as MachineId));
        }
    }

    /// One fault-free superstep over all machines, in the callers' order.
    fn superstep<P: VertexProgram>(steps: &mut [MachineStep<P>], program: &P, superstep: usize) {
        let aggregate: f64 = steps.iter().map(|s| s.aggregate(program)).sum();
        for step in steps.iter_mut() {
            step.scatter(program);
        }
        for to in 0..steps.len() {
            fold_others(steps, program, to);
            steps[to].apply(program, superstep, aggregate);
        }
    }

    /// The per-destination counts the loop reads.
    fn staged<P: VertexProgram>(step: &MachineStep<P>) -> Vec<u64> {
        Machine::staged(step)
    }

    /// A panic inside `scatter` of superstep `at` (the `nth` scatter of
    /// `vertex`) leaves send slots written and bitmap words set, here on
    /// top of an inbox the other machines' views were already folded into;
    /// `restore` clears all four — every slot and inbox slot back to the
    /// vacant value, both bitmaps zero — and the replayed scatter holds
    /// exactly what an undisturbed kernel holds, and what a fresh kernel
    /// restored to the same state holds, for every destination.
    fn assert_restore_clears_a_torn_scatter<P>(inner: P, vertex: VertexId, at: usize, nth: usize)
    where
        P: VertexProgram + Clone,
        P::Accum: PartialEq + Debug,
    {
        let cluster = cluster();
        let machine = cluster.owner(vertex) as usize;
        let faulty = PanicOnce::new(inner.clone(), vertex, nth);
        let mut torn = MachineStep::for_cluster(&faulty, &cluster);
        let mut calm = MachineStep::for_cluster(&inner, &cluster);
        for s in 0..at {
            superstep(&mut torn, &faulty, s);
            superstep(&mut calm, &inner, s);
        }
        let before = torn[machine].snapshot();

        for step in torn
            .iter_mut()
            .filter(|step| step.machine as usize != machine)
        {
            step.scatter(&faulty);
        }
        fold_others(&mut torn, &faulty, machine);
        let torn = &mut torn[machine];
        assert!(torn.arrived.iter().any(|&w| w != 0));
        let panicked = catch_unwind(AssertUnwindSafe(|| torn.scatter(&faulty)));
        assert!(panicked.is_err());
        assert!(
            torn.slots.iter().any(|a| *a != torn.vacant),
            "the fault must land mid-scatter, after some slot was written"
        );

        torn.restore(&before);
        assert!(torn.present.iter().all(|&w| w == 0));
        assert!(torn.slots.iter().all(|a| *a == torn.vacant));
        assert!(torn.arrived.iter().all(|&w| w == 0));
        assert!(torn.inbox.iter().all(|a| *a == torn.vacant));
        assert!(staged(torn).iter().all(|&count| count == 0));

        let mut fresh = MachineStep::new(&inner, &cluster, machine as MachineId);
        fresh.restore(&before);
        let calm = &mut calm[machine];
        let scattered = torn.scatter(&faulty);
        assert_eq!(scattered, calm.scatter(&inner));
        assert_eq!(scattered, fresh.scatter(&inner));
        assert_eq!(staged(torn), staged(calm));
        assert_eq!(staged(torn), staged(&fresh));
        for to in 0..cluster.num_machines() as MachineId {
            let held: Vec<_> = torn.outgoing(to).collect();
            assert!(held.windows(2).all(|pair| pair[0].0 < pair[1].0));
            assert_eq!(held, calm.outgoing(to).collect::<Vec<_>>(), "for {to}");
            assert_eq!(held, fresh.outgoing(to).collect::<Vec<_>>(), "for {to}");
        }
        assert_eq!(staged(torn), vec![0; cluster.num_machines()]);
    }

    #[test]
    fn restore_clears_a_torn_scatter_of_plain_slots() {
        // All vertices are active: machine 1's 20th member comes after 19
        // others have scattered.
        let vertex = cluster().local_vertices(1)[20];
        assert_restore_clears_a_torn_scatter(PageRank::new(4), vertex, 0, 0);
    }

    #[test]
    fn restore_clears_a_torn_scatter_after_the_counts_are_cached() {
        // Superstep 0 fills the count cache: the panic tears superstep 2,
        // which reports the cached counts.
        let vertex = cluster().local_vertices(1)[20];
        assert_restore_clears_a_torn_scatter(PageRank::new(4), vertex, 2, 2);
    }

    #[test]
    fn restore_clears_a_torn_scatter_of_heap_owning_slots() {
        let vertex = second_frontier_vertex(&cluster(), 0);
        assert_restore_clears_a_torn_scatter(Sssp::new(0), vertex, 1, 0);
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
                assert_eq!(panicked.telemetry.crashes(), 1);

                let plan = FaultPlan::new().crash(crash_at, cluster.owner(vertex));
                let crashed = with_checkpoints(engine(mode).with_faults(plan)).run(&inner);
                assert_eq!(crashed.values, clean.values, "{mode:?} {every:?}");
                assert_eq!(crashed.iterations, clean.iterations);
                assert_eq!(crashed.telemetry.crashes(), 1);
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

//! Test-only oracle for the superstep kernel.
//!
//! [`SortStep`] is the step as it was written before the kernel: an
//! `Option` per accumulator slot, a `touched` list sorted before every
//! drain into per-destination rows — the only place a row survives — and a
//! per-edge `owner(v) != m` branch. The differential tests drive it and
//! [`MachineStep`] through the same minimal BSP loop and demand equal bits
//! everywhere the two can be observed: what each machine hands each other
//! one (content *and* order), the staged counts, per-superstep records,
//! final values. The programs are chosen so that every way the kernel's
//! scatter counts runs (its module doc, "Cached counts"): PageRank's
//! cached counts, [`Flicker`]'s silent-but-active vertices, subtracted and
//! direct counts, and SSSP's heap-owning slots.

use crate::apps::{Bfs, ConnectedComponents, DistFrom, PageRank, Sssp};
use crate::engine::IterationEngine;
use crate::kernel::{ApplyOutcome, MachineStep, ScatterOutcome};
use crate::program::{ProgramContext, VertexProgram};
use bpart_cluster::bsp::Machine;
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, IterationRecord, MachineId, WorkUnits};
use bpart_core::Partition;
use bpart_graph::splitmix::mix64;
use bpart_graph::{CsrGraph, VertexId};
use proptest::prelude::*;
use std::sync::Arc;

/// One machine's outgoing rows: `rows[to]` holds the combined updates
/// staged for machine `to`, in ascending target order.
type Rows<A> = Vec<Vec<(VertexId, A)>>;

/// The sort-based step the kernel replaced.
struct SortStep<P: VertexProgram> {
    cluster: Cluster,
    machine: MachineId,
    local_of: Vec<u32>,
    values: Vec<P::Value>,
    active: Vec<bool>,
    acc: Vec<Option<P::Accum>>,
    touched: Vec<VertexId>,
    /// The own row stays until `apply` folds it, last.
    rows: Rows<P::Accum>,
}

impl<P: VertexProgram> SortStep<P> {
    fn new(program: &P, cluster: &Cluster, machine: MachineId) -> Self {
        let graph = cluster.graph();
        let members = cluster.local_vertices(machine);
        let mut local_of = vec![0u32; graph.num_vertices()];
        for (li, &v) in members.iter().enumerate() {
            local_of[v as usize] = li as u32;
        }
        SortStep {
            cluster: cluster.clone(),
            machine,
            local_of,
            values: members.iter().map(|&v| program.init(v, graph)).collect(),
            active: members
                .iter()
                .map(|&v| program.initially_active(v, graph))
                .collect(),
            acc: vec![None; graph.num_vertices()],
            touched: Vec::new(),
            rows: vec![Vec::new(); cluster.num_machines()],
        }
    }

    fn accumulate(&mut self, program: &P, v: VertexId, a: P::Accum) {
        match &mut self.acc[v as usize] {
            Some(existing) => program.combine(existing, a),
            slot @ None => {
                *slot = Some(a);
                self.touched.push(v);
            }
        }
    }
}

/// The surface the BSP loop below drives; both steps have it.
trait Step<P: VertexProgram> {
    fn aggregate(&self, program: &P) -> f64;
    fn scatter(&mut self, program: &P) -> ScatterOutcome;
    /// Message counts for each of the `k` destinations, the own entry 0.
    fn staged(&self, k: usize) -> Vec<u64>;
    /// What it holds for `to`, in the order it hands it over.
    fn outgoing(&mut self, to: MachineId) -> Vec<(VertexId, P::Accum)>;
    fn fold(&mut self, program: &P, row: Vec<(VertexId, P::Accum)>);
    fn apply(&mut self, program: &P, superstep: usize, aggregate: f64) -> ApplyOutcome;
    fn values(&self) -> &[P::Value];
}

impl<P: VertexProgram> Step<P> for MachineStep<P> {
    fn aggregate(&self, program: &P) -> f64 {
        MachineStep::aggregate(self, program)
    }
    fn scatter(&mut self, program: &P) -> ScatterOutcome {
        MachineStep::scatter(self, program)
    }
    fn staged(&self, k: usize) -> Vec<u64> {
        let counts = Machine::staged(self);
        assert_eq!(counts.len(), k);
        counts
    }
    fn outgoing(&mut self, to: MachineId) -> Vec<(VertexId, P::Accum)> {
        MachineStep::outgoing(self, to).collect()
    }
    fn fold(&mut self, program: &P, row: Vec<(VertexId, P::Accum)>) {
        MachineStep::fold(self, program, row)
    }
    fn apply(&mut self, program: &P, superstep: usize, aggregate: f64) -> ApplyOutcome {
        MachineStep::apply(self, program, superstep, aggregate)
    }
    fn values(&self) -> &[P::Value] {
        MachineStep::values(self)
    }
}

impl<P: VertexProgram> Step<P> for SortStep<P> {
    fn aggregate(&self, program: &P) -> f64 {
        let graph = self.cluster.graph();
        self.cluster
            .local_vertices(self.machine)
            .iter()
            .zip(&self.values)
            .map(|(&v, val)| program.aggregate(v, val, graph))
            .sum::<f64>()
    }

    fn scatter(&mut self, program: &P) -> ScatterOutcome {
        let cluster = self.cluster.clone();
        let graph = cluster.graph();
        let m = self.machine;
        let mut work = WorkUnits::default();
        let mut raw = vec![0u64; cluster.num_machines()];
        for (li, &u) in cluster.local_vertices(m).iter().enumerate() {
            if !self.active[li] {
                continue;
            }
            let Some(signal) = program.scatter(u, &self.values[li], graph) else {
                continue;
            };
            let mut edges = vec![graph.out_neighbors(u)];
            if program.use_in_edges() {
                edges.push(graph.in_neighbors(u));
            }
            for list in edges {
                work.edges_scanned += list.len() as u64;
                for &v in list {
                    let dest = cluster.owner(v);
                    if dest != m {
                        raw[dest as usize] += 1;
                    }
                    self.accumulate(program, v, signal.clone());
                }
            }
        }
        self.touched.sort_unstable();
        for &v in &self.touched {
            let acc = self.acc[v as usize]
                .take()
                .expect("touched implies accumulated");
            self.rows[cluster.owner(v) as usize].push((v, acc));
        }
        self.touched.clear();
        ScatterOutcome { raw, work }
    }

    fn staged(&self, k: usize) -> Vec<u64> {
        assert_eq!(self.rows.len(), k);
        let mut counts: Vec<u64> = self.rows.iter().map(|row| row.len() as u64).collect();
        counts[self.machine as usize] = 0;
        counts
    }

    fn outgoing(&mut self, to: MachineId) -> Vec<(VertexId, P::Accum)> {
        std::mem::take(&mut self.rows[to as usize])
    }

    fn fold(&mut self, program: &P, row: Vec<(VertexId, P::Accum)>) {
        for (v, a) in row {
            self.accumulate(program, v, a);
        }
    }

    fn apply(&mut self, program: &P, superstep: usize, aggregate: f64) -> ApplyOutcome {
        for (v, a) in self.outgoing(self.machine) {
            self.accumulate(program, v, a);
        }
        let cluster = self.cluster.clone();
        let graph = cluster.graph();
        let ctx = ProgramContext {
            iteration: superstep,
            num_vertices: graph.num_vertices(),
            aggregate,
        };
        let mut work = WorkUnits::default();
        let mut any_active = false;
        let targets: Vec<(usize, VertexId)> = if program.apply_to_all() {
            let members = cluster.local_vertices(self.machine);
            members.iter().copied().enumerate().collect()
        } else {
            self.active.iter_mut().for_each(|a| *a = false);
            self.touched.sort_unstable();
            let local_of = &self.local_of;
            self.touched
                .iter()
                .map(|&v| (local_of[v as usize] as usize, v))
                .collect()
        };
        for (li, v) in targets {
            let incoming = self.acc[v as usize].take();
            let stays = program.apply(v, &mut self.values[li], incoming, &ctx, graph);
            self.active[li] = stays;
            any_active |= stays;
            work.vertices_updated += 1;
        }
        self.touched.clear();
        ApplyOutcome { work, any_active }
    }

    fn values(&self) -> &[P::Value] {
        &self.values
    }
}

/// A program whose activity and silence are seeded draws per vertex and
/// superstep, carrying a wrapping sum. `Silent`: every vertex stays
/// active, but at odd supersteps about one in eight sends nothing, so an
/// all-active superstep must subtract the edges of active vertices from
/// the cached counts too. `Hover`: every vertex is active at superstep 1
/// (which fills the cache, if 0 did not), and otherwise 6 to 10 in 16 of
/// them, so the frontier hovers around half and both the subtracted and
/// the direct count run; superstep 0, often over half live with nothing
/// cached yet, must count directly.
#[derive(Clone, Copy, Debug)]
enum Flicker {
    Silent(u64),
    Hover(u64),
}

impl Flicker {
    fn draw(seed: u64, v: VertexId, superstep: usize) -> u64 {
        mix64(seed ^ mix64((superstep as u64) << 32 | v as u64))
    }

    fn active(&self, v: VertexId, superstep: usize) -> bool {
        match *self {
            Flicker::Silent(_) => true,
            Flicker::Hover(_) if superstep == 1 => true,
            Flicker::Hover(seed) => {
                let share = 6 + mix64(seed ^ superstep as u64) % 5;
                Self::draw(seed, v, superstep) % 16 < share
            }
        }
    }
}

impl VertexProgram for Flicker {
    type Value = u64;
    type Accum = u64;
    fn init(&self, v: VertexId, _: &CsrGraph) -> u64 {
        mix64(v as u64) & !1
    }
    fn initially_active(&self, v: VertexId, _: &CsrGraph) -> bool {
        self.active(v, 0)
    }
    fn scatter(&self, u: VertexId, value: &u64, _: &CsrGraph) -> Option<u64> {
        let silent = match *self {
            Flicker::Silent(seed) => *value % 2 == 1 && Self::draw(seed, u, 0) % 8 == 0,
            Flicker::Hover(_) => false,
        };
        (!silent).then_some(*value >> 3)
    }
    fn combine(&self, a: &mut u64, b: u64) {
        *a = a.wrapping_add(b);
    }
    fn identity(&self) -> u64 {
        0
    }
    fn apply(
        &self,
        v: VertexId,
        value: &mut u64,
        incoming: Option<u64>,
        ctx: &ProgramContext,
        _: &CsrGraph,
    ) -> bool {
        // Odd values at odd supersteps only: `Silent`'s silence keys on it.
        let mixed = mix64(value.wrapping_add(incoming.map_or(1, |s| s.wrapping_mul(3))));
        *value = mixed & !1 | (ctx.iteration % 2 == 0) as u64;
        self.active(v, ctx.iteration + 1)
    }
    fn apply_to_all(&self) -> bool {
        true
    }
    fn max_iterations(&self) -> Option<usize> {
        Some(7)
    }
}

/// Everything observable about a run of the BSP loop.
struct Trace<P: VertexProgram> {
    /// `rows[superstep][from][to]`, self slots empty.
    rows: Vec<Vec<Rows<P::Accum>>>,
    /// `staged[superstep][from][to]`.
    staged: Vec<Vec<Vec<u64>>>,
    /// `(compute, comm, sent)` per superstep.
    records: Vec<(Vec<f64>, Vec<f64>, Vec<u64>)>,
    /// Final values, indexed by global vertex id.
    values: Vec<Option<P::Value>>,
}

/// The fault-free BSP loop of `IterationEngine::try_run`, reduced to what
/// decides values and records.
fn drive<P: VertexProgram, S: Step<P>>(
    mut steps: Vec<S>,
    program: &P,
    cluster: &Cluster,
) -> Trace<P> {
    let cost = CostModel::default();
    let k = cluster.num_machines();
    let mut trace = Trace {
        rows: Vec::new(),
        staged: Vec::new(),
        records: Vec::new(),
        values: vec![None; cluster.graph().num_vertices()],
    };
    for superstep in 0.. {
        if program.max_iterations().is_some_and(|max| superstep >= max) {
            break;
        }
        let aggregate: f64 = steps.iter().map(|s| s.aggregate(program)).sum();
        let scattered: Vec<ScatterOutcome> = steps.iter_mut().map(|s| s.scatter(program)).collect();
        let mut compute: Vec<f64> = scattered
            .iter()
            .map(|out| cost.compute_time(&out.work))
            .collect();
        let staged: Vec<Vec<u64>> = steps.iter().map(|s| s.staged(k)).collect();
        // The own view stays inside until `apply`.
        let mut rows: Vec<Rows<P::Accum>> = vec![vec![Vec::new(); k]; k];
        for (from, to) in (0..k).flat_map(|from| (0..k).map(move |to| (from, to))) {
            if from != to {
                rows[from][to] = steps[from].outgoing(to as MachineId);
            }
        }
        trace.rows.push(rows.clone());
        // Charged per raw edge update, whatever combining delivered.
        let (mut sent, mut received) = (vec![0u64; k], vec![0u64; k]);
        for from in 0..k {
            for to in 0..k {
                let count = scattered[from].raw[to];
                assert_eq!(staged[from][to], rows[from][to].len() as u64);
                sent[from] += count;
                received[to] += count;
            }
        }
        let mut any_active = false;
        for to in 0..k {
            for row in rows.iter_mut() {
                steps[to].fold(program, std::mem::take(&mut row[to]));
            }
        }
        trace.staged.push(staged);
        for (m, step) in steps.iter_mut().enumerate() {
            let applied = step.apply(program, superstep, aggregate);
            compute[m] += cost.compute_time(&applied.work);
            any_active |= applied.any_active;
        }
        let comm_time = (0..k)
            .map(|m| cost.comm_time(sent[m], received[m]))
            .collect();
        trace.records.push((compute, comm_time, sent));
        if !any_active {
            break;
        }
    }
    for (m, step) in steps.iter().enumerate() {
        let members = cluster.local_vertices(m as MachineId);
        for (&v, value) in members.iter().zip(step.values()) {
            trace.values[v as usize] = Some(value.clone());
        }
    }
    trace
}

/// Exact comparison: floats by bit pattern.
trait Bits {
    fn bits(&self) -> Vec<u64>;
}
impl Bits for f64 {
    fn bits(&self) -> Vec<u64> {
        vec![self.to_bits()]
    }
}
impl Bits for u32 {
    fn bits(&self) -> Vec<u64> {
        vec![*self as u64]
    }
}
impl Bits for u64 {
    fn bits(&self) -> Vec<u64> {
        vec![*self]
    }
}
impl Bits for Vec<DistFrom> {
    fn bits(&self) -> Vec<u64> {
        self.iter().flat_map(|d| [d.from as u64, d.dist]).collect()
    }
}
impl<T: Bits> Bits for Option<T> {
    fn bits(&self) -> Vec<u64> {
        self.as_ref().map_or(vec![u64::MAX], Bits::bits)
    }
}
impl<T: Bits> Bits for [T] {
    fn bits(&self) -> Vec<u64> {
        self.iter().flat_map(Bits::bits).collect()
    }
}

fn row_bits<A: Bits>(row: &[(VertexId, A)]) -> Vec<u64> {
    row.iter()
        .flat_map(|(v, a)| std::iter::once(*v as u64).chain(a.bits()))
        .collect()
}

/// Kernel, oracle and engine agree on `program` over `cluster`.
fn assert_agree<P>(program: &P, cluster: &Cluster) -> Result<(), String>
where
    P: VertexProgram,
    P::Value: Bits,
    P::Accum: Bits,
{
    let k = cluster.num_machines() as MachineId;
    let kernel = drive(MachineStep::for_cluster(program, cluster), program, cluster);
    let oracle = drive(
        (0..k).map(|m| SortStep::new(program, cluster, m)).collect(),
        program,
        cluster,
    );
    let check = |what: &str, ok: bool| ok.then_some(()).ok_or(format!("{what} differ"));

    check("superstep counts", kernel.rows.len() == oracle.rows.len())?;
    for (s, (a, b)) in kernel.rows.iter().zip(&oracle.rows).enumerate() {
        for (from, (a, b)) in a.iter().zip(b).enumerate() {
            for (to, (a, b)) in a.iter().zip(b).enumerate() {
                let what = format!("rows of superstep {s}, {from} -> {to}");
                check(&what, row_bits(a) == row_bits(b))?;
            }
        }
    }
    check("staged counts", kernel.staged == oracle.staged)?;
    check("values", kernel.values.bits() == oracle.values.bits())?;

    let records = |t: &Trace<P>| -> Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> {
        t.records
            .iter()
            .map(|(compute, comm, sent)| (compute.bits(), comm.bits(), sent.clone()))
            .collect()
    };
    check("kernel records", records(&kernel) == records(&oracle))?;

    for mode in [ExecMode::Sequential, ExecMode::Threaded] {
        let run = IterationEngine::new(cluster.clone(), CostModel::default(), mode).run(program);
        let engine_values: Vec<_> = run.values.into_iter().map(Some).collect();
        check(
            "engine values",
            engine_values.bits() == oracle.values.bits(),
        )?;
        let engine_records: Vec<_> = run
            .telemetry
            .records()
            .iter()
            .map(|r: &IterationRecord| (r.compute.bits(), r.comm.bits(), r.sent.clone()))
            .collect();
        check("engine records", engine_records == records(&oracle))?;
    }
    Ok(())
}

/// Vertex counts around the bitmap's word boundary, then a few larger.
const SIZES: [usize; 8] = [0, 1, 2, 63, 64, 65, 130, 200];
const PARTS: [usize; 5] = [1, 2, 3, 8, 64];

/// A graph with self-loops, duplicate edges and isolated vertices, and a
/// partition that may leave parts empty.
fn random_cluster(n: usize, k: usize, density: u64, rng: &mut impl FnMut() -> u64) -> Cluster {
    let mut edges = Vec::new();
    if n > 0 {
        // The upper quarter of the id range stays isolated.
        let connected = (n - n / 4).max(1) as u64;
        for _ in 0..n as u64 * density {
            let u = (rng() % connected) as VertexId;
            let v = match rng() % 8 {
                0 => u,
                _ => (rng() % connected) as VertexId,
            };
            edges.push((u, v));
            if rng() % 8 == 0 {
                edges.push((u, v));
            }
        }
    }
    let graph = Arc::new(CsrGraph::from_edges(n, &edges));
    // Drawing from a random-length prefix of the parts leaves the rest
    // empty.
    let used = 1 + rng() % k as u64;
    let assignment = (0..n).map(|_| (rng() % used) as u32).collect();
    let partition = Arc::new(Partition::from_assignment(&graph, k, assignment));
    Cluster::new(graph, partition)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    #[test]
    fn kernel_matches_the_sort_based_oracle(
        size in 0usize..SIZES.len(),
        parts in 0usize..PARTS.len(),
        density in 0u64..6,
        app in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let cluster = random_cluster(SIZES[size], PARTS[parts], density, &mut rng);
        let agreed = match app {
            0 => assert_agree(&PageRank::new(6), &cluster),
            1 => assert_agree(&ConnectedComponents, &cluster),
            2 => assert_agree(&Bfs::new(0), &cluster),
            3 => assert_agree(&Sssp::new(0), &cluster),
            4 => assert_agree(&Flicker::Silent(seed), &cluster),
            _ => assert_agree(&Flicker::Hover(seed), &cluster),
        };
        prop_assert!(agreed.is_ok(), "{:?}", agreed);
    }
}

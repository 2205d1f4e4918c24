//! The BSP iteration engine.
//!
//! [`IterationEngine`] is a builder, a gather, and [`Iterate`]: the
//! vertex-program half of a superstep (aggregate + scatter, then every
//! machine folding the others' send slots into its inbox + apply, on
//! [`MachineStep`] kernels). The superstep loop itself —
//! fault injection, checkpoint rollback and replay, telemetry — is
//! [`bpart_cluster::bsp::run`], run in process by `bsp::drive` and shared
//! with the walk engine and the process backend. Crashes
//! roll back to the last checkpoint and replay deterministically, so
//! final values are bitwise-identical to a fault-free run; only the
//! telemetry (wasted work, recovery time, replayed supersteps) shows the
//! damage. Before the first checkpoint there is nothing to roll back to:
//! `Iterate` re-derives every machine's initial values from the program
//! ([`MachineStep::reset`]) instead of keeping a copy of them.
//!
//! The result is gathered by consuming the kernels, one at a time, so the
//! `n`-value array is never built beside every machine's send slots.

use crate::kernel::{MachineStep, ScatterOutcome};
use crate::program::VertexProgram;
use bpart_cluster::bsp;
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{
    Cluster, CostModel, FaultPlan, MachineId, Telemetry, UnrecoverableFailure, WorkUnits,
};
use bpart_core::Partition;
use bpart_graph::CsrGraph;
use bpart_obs::SpanGuard;
use std::sync::Arc;

/// Outcome of an engine run.
#[derive(Debug)]
pub struct EngineRun<V> {
    /// Final per-vertex values, indexed by global vertex id.
    pub values: Vec<V>,
    /// Per-iteration, per-machine execution records.
    pub telemetry: Telemetry,
    /// Number of (logical) iterations executed; replayed supersteps are
    /// not double-counted here — they appear in the telemetry instead.
    pub iterations: usize,
}

/// A Gemini-like iteration engine bound to one cluster.
pub struct IterationEngine {
    cluster: Cluster,
    cfg: bsp::Config,
}

/// One vertex program's run, as the superstep loop sees it.
struct Iterate<'a, P> {
    program: &'a P,
    /// Global aggregate over the values this superstep started from
    /// (e.g. PageRank's dangling mass).
    aggregate: f64,
    /// Raw (uncombined) update totals per machine, `(sent, received)`: what
    /// the communication phase is charged for.
    raw: (Vec<u64>, Vec<u64>),
    /// Whether the last completed superstep left any vertex active.
    any_active: bool,
}

impl<P: VertexProgram> bsp::Program for Iterate<'_, P> {
    type Machine = MachineStep<P>;
    type Computed = (f64, ScatterOutcome);

    fn open(&mut self, superstep: usize, _: &[MachineStep<P>]) -> Option<SpanGuard> {
        // Quiescence: once no vertex is active, no future superstep can
        // change any state — stop regardless of the iteration cap (which
        // is only an upper bound).
        let capped = self
            .program
            .max_iterations()
            .is_some_and(|max| superstep >= max);
        if capped || !self.any_active {
            return None;
        }
        // Live progress for the `/progress` monitoring endpoint.
        bpart_obs::metrics::gauge("cluster.progress_superstep").set(superstep as f64);
        let mut span = bpart_obs::span("cluster.superstep");
        span.attr("superstep", superstep);
        Some(span)
    }

    fn compute(&self, s: &mut MachineStep<P>) -> (f64, ScatterOutcome) {
        (s.aggregate(self.program), s.scatter(self.program))
    }

    fn computed(&mut self, out: Vec<(f64, ScatterOutcome)>, _: &mut SpanGuard) -> Vec<WorkUnits> {
        self.aggregate = out.iter().map(|(part, _)| *part).sum();
        let (sent, received) = &mut self.raw;
        sent.fill(0);
        received.fill(0);
        for (from, (_, scattered)) in out.iter().enumerate() {
            for (to, &count) in scattered.raw.iter().enumerate() {
                sent[from] += count;
                received[to] += count;
            }
        }
        out.into_iter()
            .map(|(_, scattered)| scattered.work)
            .collect()
    }

    fn deliver(&mut self, superstep: usize, steps: &mut [MachineStep<P>]) -> Vec<WorkUnits> {
        self.any_active = false;
        // Sequential over machines: each folds what the others hold for it
        // straight out of their send slots.
        (0..steps.len())
            .map(|to| {
                let (before, rest) = steps.split_at_mut(to);
                let (receiver, after) = rest.split_first_mut().expect("to < k");
                // Ascending sender; the kernel folds its own view after them.
                for sender in before.iter_mut().chain(after) {
                    receiver.fold(self.program, sender.outgoing(to as MachineId));
                }
                let applied = receiver.apply(self.program, superstep, self.aggregate);
                self.any_active |= applied.any_active;
                applied.work
            })
            .collect()
    }

    /// Re-derives every machine's initial values and activity from the
    /// program.
    fn reset(&self, steps: &mut [MachineStep<P>]) {
        for step in steps {
            step.reset(self.program);
        }
    }

    /// Messages are delivered combined (sender-side combining, as in
    /// Gemini), but charged one unit per raw remote edge update — the
    /// payload a Pregel-style system ships, under which communication is
    /// proportional to the edge cut (the paper's §4.5 attribution).
    fn traffic(&self, _sent: &[u64], _received: &[u64]) -> (Vec<u64>, Vec<u64>) {
        self.raw.clone()
    }
}

impl IterationEngine {
    /// Engine over `cluster` with an explicit cost model and execution mode.
    pub fn new(cluster: Cluster, cost: CostModel, mode: ExecMode) -> Self {
        IterationEngine {
            cluster,
            cfg: bsp::Config {
                cost,
                mode,
                ..bsp::Config::default()
            },
        }
    }

    /// Injects faults from `plan` during the run (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Checkpoints machine state every `every` supersteps (0: never).
    /// Without this, recovery replays from the initial state.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.cfg.checkpoint_every = Some(every);
        self
    }

    /// Engine with default cost model and sequential execution.
    pub fn default_for(graph: Arc<CsrGraph>, partition: Arc<Partition>) -> Self {
        IterationEngine::new(
            Cluster::new(graph, partition),
            CostModel::default(),
            ExecMode::default(),
        )
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs `program` to completion; panics (re-raising the original
    /// payload) on an unrecoverable machine failure. See
    /// [`try_run`](IterationEngine::try_run) for the fallible form.
    pub fn run<P: VertexProgram>(&self, program: &P) -> EngineRun<P::Value> {
        self.try_run(program).unwrap_or_else(|e| e.raise())
    }

    /// Runs `program` to completion and returns values plus telemetry,
    /// surviving injected faults via checkpoint rollback and replay.
    ///
    /// Returns `Err` only when recovery cannot make progress: a machine
    /// fails (panics) at the same superstep on the replay attempt too,
    /// which a deterministic program would repeat forever.
    pub fn try_run<P: VertexProgram>(
        &self,
        program: &P,
    ) -> Result<EngineRun<P::Value>, UnrecoverableFailure> {
        assert!(
            !program.use_in_edges() || self.cluster.graph().has_in_lists(),
            "{} signals along in-edges, but the graph holds out-lists only",
            std::any::type_name::<P>()
        );
        let k = self.cluster.num_machines();
        let mut steps = MachineStep::for_cluster(program, &self.cluster);
        let mut iterate = Iterate {
            program,
            aggregate: 0.0,
            raw: (vec![0; k], vec![0; k]),
            any_active: true,
        };
        let (telemetry, iterations) = bsp::drive(&self.cfg, &mut iterate, &mut steps)?;

        // Gather values back to global order, one kernel at a time, each
        // dropped (its send slots with it) before its values are placed:
        // the first value fills the array, then every vertex's own
        // overwrites it. The last machine goes first: its kernel was
        // allocated last, and freeing the kernels in that order leaves the
        // process's peak resident set lowest (EXPERIMENTS.md, "Every walker
        // held once").
        let n = self.cluster.graph().num_vertices();
        debug_assert_eq!(steps.iter().map(|s| s.values().len()).sum::<usize>(), n);
        let mut values: Vec<P::Value> = Vec::new();
        while let Some(s) = steps.pop() {
            let local = s.into_values();
            if values.is_empty() && !local.is_empty() {
                values = vec![local[0].clone(); n];
            }
            let m = steps.len() as MachineId;
            for (&v, value) in self.cluster.local_vertices(m).iter().zip(local) {
                values[v as usize] = value;
            }
        }
        Ok(EngineRun {
            values,
            telemetry,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramContext;
    use bpart_core::{ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::{generate, VertexId};

    /// Toy program: every vertex starts at 1 and pushes its value forward;
    /// each vertex becomes the sum of its in-signals for one iteration.
    struct PushOnce;
    impl VertexProgram for PushOnce {
        type Value = u64;
        type Accum = u64;
        fn init(&self, _v: VertexId, _g: &CsrGraph) -> u64 {
            1
        }
        fn initially_active(&self, _v: VertexId, _g: &CsrGraph) -> bool {
            true
        }
        fn scatter(&self, _u: VertexId, value: &u64, _g: &CsrGraph) -> Option<u64> {
            Some(*value)
        }
        fn combine(&self, a: &mut u64, b: u64) {
            *a += b;
        }
        fn identity(&self) -> u64 {
            0
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut u64,
            incoming: Option<u64>,
            _ctx: &ProgramContext,
            _g: &CsrGraph,
        ) -> bool {
            if let Some(sum) = incoming {
                *value = sum;
            }
            false
        }
        fn max_iterations(&self) -> Option<usize> {
            Some(1)
        }
    }

    /// PushOnce, but runs for a configurable number of iterations so
    /// crash/checkpoint schedules have room to fire.
    struct PushMany(usize);
    impl VertexProgram for PushMany {
        type Value = u64;
        type Accum = u64;
        fn init(&self, _v: VertexId, _g: &CsrGraph) -> u64 {
            1
        }
        fn initially_active(&self, _v: VertexId, _g: &CsrGraph) -> bool {
            true
        }
        fn scatter(&self, _u: VertexId, value: &u64, _g: &CsrGraph) -> Option<u64> {
            Some(*value)
        }
        fn combine(&self, a: &mut u64, b: u64) {
            *a += b;
        }
        fn identity(&self) -> u64 {
            0
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut u64,
            incoming: Option<u64>,
            ctx: &ProgramContext,
            _g: &CsrGraph,
        ) -> bool {
            if let Some(sum) = incoming {
                *value = value.wrapping_add(sum);
            }
            ctx.iteration + 1 < self.0
        }
        fn max_iterations(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    /// CC signals along in-edges: a graph that shed them is refused by
    /// name, not scattered over as if every in-list were empty. PageRank
    /// runs on it.
    #[test]
    #[should_panic(
        expected = "ConnectedComponents signals along in-edges, but the graph holds \
                               out-lists only"
    )]
    fn a_program_that_reads_in_edges_refuses_a_graph_without_them() {
        let mut graph = generate::star(4);
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        graph.shed_in_lists();
        let graph = Arc::new(graph);
        let engine = IterationEngine::default_for(graph, partition);
        engine.run(&crate::apps::PageRank::new(2));
        engine.run(&crate::apps::ConnectedComponents);
    }

    #[test]
    fn push_once_counts_in_degree() {
        let graph = Arc::new(generate::star(4)); // hub 0 <-> 4 spokes
        let partition = Arc::new(ChunkV.partition(&graph, 2));
        let engine = IterationEngine::default_for(graph.clone(), partition);
        let run = engine.run(&PushOnce);
        assert_eq!(run.iterations, 1);
        // hub receives 4 signals of value 1; spokes receive 1 each
        assert_eq!(run.values[0], 4);
        for v in 1..5 {
            assert_eq!(run.values[v], 1);
        }
    }

    #[test]
    fn results_are_partition_invariant() {
        let graph = Arc::new(generate::erdos_renyi(200, 1_200, 5));
        let a = IterationEngine::default_for(graph.clone(), Arc::new(ChunkV.partition(&graph, 4)))
            .run(&PushOnce);
        let b = IterationEngine::default_for(
            graph.clone(),
            Arc::new(HashPartitioner::default().partition(&graph, 4)),
        )
        .run(&PushOnce);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn telemetry_records_each_iteration() {
        let graph = Arc::new(generate::ring(16));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let engine = IterationEngine::default_for(graph, partition);
        let run = engine.run(&PushOnce);
        assert_eq!(run.telemetry.num_iterations(), 1);
        let records = run.telemetry.records();
        // On a ring split into contiguous chunks, only chunk-boundary
        // signals cross machines: 4 cut edges = 4 messages.
        assert_eq!(records[0].sent.iter().sum::<u64>(), 4);
    }

    fn faulted_engine(
        graph: &Arc<CsrGraph>,
        k: usize,
        plan: FaultPlan,
        checkpoint_every: Option<usize>,
    ) -> IterationEngine {
        let partition = Arc::new(ChunkV.partition(graph, k));
        let mut e = IterationEngine::default_for(graph.clone(), partition).with_faults(plan);
        if let Some(every) = checkpoint_every {
            e = e.with_checkpoint_every(every);
        }
        e
    }

    #[test]
    fn crash_recovery_reproduces_fault_free_values() {
        let graph = Arc::new(generate::erdos_renyi(120, 800, 3));
        let clean = faulted_engine(&graph, 4, FaultPlan::new(), None).run(&PushMany(6));
        for checkpoint_every in [None, Some(2), Some(4)] {
            let plan = FaultPlan::new().crash(3, 1);
            let faulted = faulted_engine(&graph, 4, plan, checkpoint_every).run(&PushMany(6));
            assert_eq!(clean.values, faulted.values, "ckpt {checkpoint_every:?}");
            assert_eq!(clean.iterations, faulted.iterations);
            assert_eq!(faulted.telemetry.total_faults(), 1);
            assert!(
                faulted.telemetry.replayed_supersteps() > 0,
                "rollback past completed supersteps must show as replays"
            );
            assert!(faulted.telemetry.total_recovery_time() > 0.0);
            assert!(faulted.telemetry.total_time() > clean.telemetry.total_time());
        }
    }

    #[test]
    fn checkpoint_interval_bounds_replay_distance() {
        let graph = Arc::new(generate::erdos_renyi(80, 500, 4));
        let crash_at = 5usize;
        for (every, expected_replays) in [(None, 5), (Some(1), 0), (Some(2), 1), (Some(4), 1)] {
            let run = faulted_engine(&graph, 4, FaultPlan::new().crash(crash_at, 0), every)
                .run(&PushMany(6));
            // Rollback lands on the last checkpoint at or below the crash
            // superstep; everything between is re-executed as a replay.
            assert_eq!(
                run.telemetry.replayed_supersteps(),
                expected_replays,
                "every={every:?}"
            );
        }
    }

    #[test]
    fn multiple_crashes_and_exec_modes_agree() {
        let graph = Arc::new(generate::erdos_renyi(100, 700, 8));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let plan = FaultPlan::new().crash(1, 0).crash(3, 2).crash(3, 3);
        let clean =
            IterationEngine::default_for(graph.clone(), partition.clone()).run(&PushMany(5));
        let seq = IterationEngine::new(
            Cluster::new(graph.clone(), partition.clone()),
            CostModel::default(),
            ExecMode::Sequential,
        )
        .with_faults(plan.clone())
        .with_checkpoint_every(2)
        .run(&PushMany(5));
        let thr = IterationEngine::new(
            Cluster::new(graph.clone(), partition),
            CostModel::default(),
            ExecMode::Threaded,
        )
        .with_faults(plan)
        .with_checkpoint_every(2)
        .run(&PushMany(5));
        assert_eq!(clean.values, seq.values);
        assert_eq!(seq.values, thr.values);
        assert_eq!(seq.telemetry.total_faults(), 3);
        assert_eq!(thr.telemetry.total_faults(), 3);
        assert_eq!(
            seq.telemetry.replayed_supersteps(),
            thr.telemetry.replayed_supersteps()
        );
        assert_eq!(seq.telemetry.total_time(), thr.telemetry.total_time());
    }

    #[test]
    fn stragglers_slow_the_clock_but_not_the_answer() {
        let graph = Arc::new(generate::erdos_renyi(100, 600, 2));
        let clean = faulted_engine(&graph, 4, FaultPlan::new(), None).run(&PushMany(4));
        let slow = faulted_engine(&graph, 4, FaultPlan::new().straggler(0, 9, 2, 8.0), None)
            .run(&PushMany(4));
        assert_eq!(clean.values, slow.values);
        assert_eq!(slow.telemetry.total_faults(), 0);
        assert!(slow.telemetry.total_time() > clean.telemetry.total_time());
        assert!(slow.telemetry.waiting_ratio() > clean.telemetry.waiting_ratio());
    }

    #[test]
    fn link_faults_charge_retransmissions_without_changing_values() {
        let graph = Arc::new(generate::complete(32));
        let clean = faulted_engine(&graph, 4, FaultPlan::new(), None).run(&PushMany(3));
        let lossy = faulted_engine(
            &graph,
            4,
            FaultPlan::new()
                .with_seed(5)
                .drop_link(0, 9, 0, 1, 0.5)
                .duplicate_link(0, 9, 2, 3, 0.5),
            None,
        )
        .run(&PushMany(3));
        assert_eq!(clean.values, lossy.values);
        assert!(lossy.telemetry.total_faults() > 0);
        assert!(lossy.telemetry.total_messages() > clean.telemetry.total_messages());
        assert!(lossy.telemetry.total_time() > clean.telemetry.total_time());
    }

    #[test]
    fn fault_free_runs_are_unchanged_by_the_fault_machinery() {
        let graph = Arc::new(generate::erdos_renyi(90, 500, 6));
        let a = faulted_engine(&graph, 3, FaultPlan::new(), None).run(&PushMany(4));
        let b = faulted_engine(&graph, 3, FaultPlan::new().crash(100, 0), None).run(&PushMany(4));
        // A crash scheduled past the end of the run never fires.
        assert_eq!(a.values, b.values);
        assert_eq!(a.telemetry.total_time(), b.telemetry.total_time());
        assert_eq!(b.telemetry.total_faults(), 0);
        assert_eq!(b.telemetry.replayed_supersteps(), 0);
    }

    /// A program whose scatter panics on one machine's vertex range at a
    /// chosen iteration — once, or persistently.
    struct PanicAt {
        vertex: VertexId,
        iterations: usize,
    }
    impl VertexProgram for PanicAt {
        type Value = u64;
        type Accum = u64;
        fn init(&self, _v: VertexId, _g: &CsrGraph) -> u64 {
            1
        }
        fn initially_active(&self, _v: VertexId, _g: &CsrGraph) -> bool {
            true
        }
        fn scatter(&self, u: VertexId, value: &u64, _g: &CsrGraph) -> Option<u64> {
            if u == self.vertex {
                panic!("scatter bug on vertex {u}");
            }
            Some(*value)
        }
        fn combine(&self, a: &mut u64, b: u64) {
            *a += b;
        }
        fn identity(&self) -> u64 {
            0
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut u64,
            incoming: Option<u64>,
            _ctx: &ProgramContext,
            _g: &CsrGraph,
        ) -> bool {
            if let Some(sum) = incoming {
                *value += sum;
            }
            true
        }
        fn max_iterations(&self) -> Option<usize> {
            Some(self.iterations)
        }
    }

    #[test]
    fn deterministic_panic_surfaces_as_unrecoverable_failure() {
        let graph = Arc::new(generate::ring(12));
        let partition = Arc::new(ChunkV.partition(&graph, 3));
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let engine = IterationEngine::new(
                Cluster::new(graph.clone(), partition.clone()),
                CostModel::default(),
                mode,
            );
            let err = engine
                .try_run(&PanicAt {
                    vertex: 7,
                    iterations: 3,
                })
                .unwrap_err();
            // Vertex 7 lives on machine 1 (ChunkV over 12 vertices / 3).
            assert_eq!(err.machine, 1);
            assert_eq!(err.superstep, 0);
            assert_eq!(err.failure.panic_message(), Some("scatter bug on vertex 7"));
        }
    }
}

//! The BSP iteration driver.
//!
//! Fault tolerance: the engine can run under a [`FaultPlan`] (injected
//! machine crashes, stragglers, lossy links) with superstep
//! checkpointing. Crashes trigger rollback to the last checkpoint and
//! deterministic replay, so final values are bitwise-identical to a
//! fault-free run — only the telemetry (wasted work, recovery time,
//! replayed supersteps) shows the damage. The initial state acts as an
//! implicit checkpoint, so recovery works even with checkpointing
//! disabled (at the price of replaying from superstep zero).

use crate::kernel::{MachineStep, Rows, ScatterOutcome, Snapshot};
use crate::program::VertexProgram;
use bpart_cluster::exec::{collect_results, for_each_machine, ExecMode};
use bpart_cluster::MachineId;
use bpart_cluster::{
    Cluster, CostModel, Exchange, FaultPlan, FaultState, IterationRecord, MachineFailure, Router,
    Telemetry, UnrecoverableFailure,
};
use bpart_core::Partition;
use bpart_graph::{CsrGraph, VertexId};
use std::collections::HashMap;
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

/// How the communication phase is charged.
///
/// Messages are always *delivered* combined (sender-side combining, as in
/// Gemini); the accounting choice decides what the cost model sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommAccounting {
    /// Charge one unit per raw remote edge update — the payload a
    /// Pregel/Giraph-style system ships, and the model under which
    /// communication is proportional to edge cuts (the paper's §4.5
    /// attribution). The default.
    #[default]
    PerEdgeUpdate,
    /// Charge one unit per combined (machine, target) message — Gemini's
    /// mirror-update volume. Blunts cut differences on dense apps.
    Combined,
}

/// A Gemini-like iteration engine bound to one cluster.
pub struct IterationEngine {
    cluster: Cluster,
    cost: CostModel,
    mode: ExecMode,
    comm: CommAccounting,
    faults: FaultPlan,
    checkpoint_every: Option<usize>,
}

/// A globally consistent snapshot taken at a superstep boundary.
struct Checkpoint<V> {
    /// The next superstep to run after restoring this snapshot.
    superstep: usize,
    /// One snapshot per machine.
    machines: Vec<Snapshot<V>>,
}

fn snapshot<P: VertexProgram>(steps: &[MachineStep<P>]) -> Vec<Snapshot<P::Value>> {
    steps.iter().map(MachineStep::snapshot).collect()
}

/// Restores every machine to `checkpoint`; the kernel also clears the
/// scratch a partially executed (or panicked) superstep left behind.
fn rollback<P: VertexProgram>(steps: &mut [MachineStep<P>], checkpoint: &Checkpoint<P::Value>) {
    for (s, snapshot) in steps.iter_mut().zip(&checkpoint.machines) {
        s.restore(snapshot);
    }
}

impl IterationEngine {
    /// Engine over `cluster` with an explicit cost model and execution mode.
    pub fn new(cluster: Cluster, cost: CostModel, mode: ExecMode) -> Self {
        IterationEngine {
            cluster,
            cost,
            mode,
            comm: CommAccounting::default(),
            faults: FaultPlan::default(),
            checkpoint_every: None,
        }
    }

    /// Selects the communication accounting (see [`CommAccounting`]).
    pub fn with_comm_accounting(mut self, comm: CommAccounting) -> Self {
        self.comm = comm;
        self
    }

    /// Injects faults from `plan` during the run (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Checkpoints machine state every `every` supersteps (`every` must be
    /// positive). Without this, recovery replays from the initial state.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
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
        match self.try_run(program) {
            Ok(run) => run,
            Err(UnrecoverableFailure {
                failure: MachineFailure::Panic(payload),
                ..
            }) => std::panic::resume_unwind(payload),
            Err(e) => panic!("{e}"),
        }
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
        let graph = self.cluster.graph();
        let n = graph.num_vertices();
        let k = self.cluster.num_machines();

        let mut steps = MachineStep::for_cluster(program, &self.cluster);

        let telemetry = Telemetry::new();
        let mut faults = FaultState::new(self.faults.clone());
        // The initial state is an implicit (free) checkpoint: recovery is
        // always possible, even with checkpointing disabled.
        let mut checkpoint = Checkpoint {
            superstep: 0,
            machines: snapshot(&steps),
        };
        // `superstep` is the logical superstep being computed; it moves
        // backwards on rollback. `high_water` marks how far the run has
        // ever progressed, so replays can be flagged in telemetry.
        let mut superstep = 0usize;
        let mut high_water = 0usize;
        let mut failures_at: HashMap<usize, u32> = HashMap::new();

        // Shared recovery path for machine failures (panics): charge the
        // restore, record the aborted superstep, roll back — or give up if
        // this superstep already failed once before (deterministic replay
        // would fail forever).
        macro_rules! recover_or_bail {
            ($machine:expr, $failure:expr, $compute:expr, $replaying:expr) => {{
                let attempts = failures_at.entry(superstep).or_insert(0);
                *attempts += 1;
                if *attempts >= 2 {
                    return Err(UnrecoverableFailure {
                        superstep,
                        machine: $machine,
                        failure: $failure,
                    });
                }
                let recovery = restore_time(&self.cost, &checkpoint);
                telemetry.record(IterationRecord {
                    compute: $compute,
                    comm: vec![0.0; k],
                    sent: vec![0; k],
                    faults: 1,
                    replay: $replaying,
                    recovery,
                });
                bpart_obs::metrics::counter("cluster.recoveries").inc();
                rollback(&mut steps, &checkpoint);
                superstep = checkpoint.superstep;
                continue;
            }};
        }

        use std::sync::OnceLock;
        static PROGRESS: OnceLock<&'static bpart_obs::metrics::Gauge> = OnceLock::new();
        // Live progress for the `/progress` monitoring endpoint: which
        // superstep the engine is currently executing.
        let progress_gauge =
            PROGRESS.get_or_init(|| bpart_obs::metrics::gauge("cluster.progress_superstep"));

        // Persistent messaging buffers: the router and the exchange keep
        // their high-water capacity across supersteps, complementing the
        // per-machine arenas inside the kernels.
        let mut router: Router<(VertexId, P::Accum)> = Router::new(k);
        let mut ex: Exchange<(VertexId, P::Accum)> = Exchange::default();

        loop {
            if let Some(max) = program.max_iterations() {
                if superstep >= max {
                    break;
                }
            }
            let replaying = superstep < high_water;
            progress_gauge.set(superstep as f64);
            let mut step_span = bpart_obs::span("cluster.superstep");
            step_span.attr("superstep", superstep);
            step_span.attr("replay", replaying);
            if replaying {
                // Replayed supersteps are what post-mortems read: pin
                // them past the tail sampler's downsampling.
                step_span.keep();
            }

            // Global aggregate over current values (e.g. PR dangling mass).
            let agg_results = for_each_machine(self.mode, &mut steps, |_, s| s.aggregate(program));
            let aggregate: f64 = match collect_results(agg_results) {
                Ok(parts) => parts.into_iter().sum(),
                Err((machine, failure)) => {
                    recover_or_bail!(machine, failure, vec![0.0; k], replaying)
                }
            };

            // ---- scatter phase -------------------------------------------------
            let scatter_results =
                for_each_machine(self.mode, &mut steps, |_, s| s.scatter(program));
            let scatter_out: Vec<ScatterOutcome> = match collect_results(scatter_results) {
                Ok(out) => out,
                Err((machine, failure)) => {
                    recover_or_bail!(machine, failure, vec![0.0; k], replaying)
                }
            };

            let mut compute: Vec<f64> = scatter_out
                .iter()
                .map(|out| self.cost.compute_time(&out.work))
                .collect();
            // Raw update totals per machine (sent / received).
            let mut raw_sent = vec![0u64; k];
            let mut raw_received = vec![0u64; k];
            for (from, out) in scatter_out.iter().enumerate() {
                for (to, &count) in out.raw.iter().enumerate() {
                    raw_sent[from] += count;
                    raw_received[to] += count;
                }
            }

            // ---- the exchange barrier: injected crashes fire here --------------
            let crashed = faults.take_crashes(superstep);
            if !crashed.is_empty() {
                // The computation phase ran and is wasted; the exchange
                // never completes, so no communication is charged.
                for (m, c) in compute.iter_mut().enumerate() {
                    *c *= faults.compute_factor(superstep, m as MachineId);
                }
                // The wasted compute still counts toward waiting (the
                // exchange never completes, so comm defaults to zeros in
                // the analyzer — matching the record below).
                step_span.attr("compute", bpart_obs::analysis::join_timings(&compute));
                let recovery = restore_time(&self.cost, &checkpoint);
                telemetry.record(IterationRecord {
                    compute,
                    comm: vec![0.0; k],
                    sent: vec![0; k],
                    faults: crashed.len() as u64,
                    replay: replaying,
                    recovery,
                });
                bpart_obs::metrics::counter("cluster.recoveries").inc();
                rollback(&mut steps, &checkpoint);
                superstep = checkpoint.superstep;
                continue;
            }

            // ---- exchange ------------------------------------------------------
            // Self-addressed updates are not network messages: each
            // kernel keeps its own and hands out an empty slot for it.
            let rows: Vec<Rows<P::Accum>> = steps.iter_mut().map(|s| s.take_rows()).collect();
            // A malformed hand-back is a deterministic structural bug, so
            // replay cannot fix it: fail the run, not the process.
            if let Err(e) = router.put_rows(rows) {
                let machine = match e {
                    bpart_cluster::RouterError::DestArity { sender, .. } => sender,
                    bpart_cluster::RouterError::SenderArity { .. } => 0,
                };
                return Err(UnrecoverableFailure {
                    superstep,
                    machine,
                    failure: MachineFailure::Panic(Box::new(e.to_string())),
                });
            }

            // Link faults act on the wire payload (the combined messages
            // actually staged): drops cost the sender a retransmission,
            // duplicates cost the receiver a discarded copy. Payloads
            // still arrive exactly once, so values are unaffected.
            let mut drop_extra_sent = vec![0u64; k];
            let mut dup_extra_received = vec![0u64; k];
            let mut link_events = 0u64;
            if !self.faults.is_empty() {
                let staged = router.staged_matrix();
                for (from, row) in staged.iter().enumerate() {
                    for (to, &count) in row.iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        let overhead = faults.link_overhead(
                            superstep,
                            from as MachineId,
                            to as MachineId,
                            count,
                        );
                        drop_extra_sent[from] += overhead.dropped;
                        dup_extra_received[to] += overhead.duplicated;
                        link_events += overhead.total();
                    }
                }
            }

            router.exchange_into(&mut ex);
            // Hand the drained rows back to their arenas for reuse.
            for (s, row) in steps.iter_mut().zip(router.take_rows()) {
                s.return_rows(row);
            }

            // ---- apply phase ----------------------------------------------
            let mut any_active_next = false;
            // Sequential over machines for inbox handoff; the per-machine
            // apply loops are the heavy part and stay identical in both
            // exec modes. Inboxes are drained (not consumed) so the
            // exchange buffers carry their capacity into the next round.
            for (m, s) in steps.iter_mut().enumerate() {
                // The inbox is already in sender order; the kernel folds
                // its own self row after it.
                s.fold(program, ex.inboxes[m].drain(..));
                let applied = s.apply(program, superstep, aggregate);
                compute[m] += self.cost.compute_time(&applied.work);
                any_active_next |= applied.any_active;
            }

            // ---- checkpoint -----------------------------------------------
            if let Some(every) = self.checkpoint_every {
                if (superstep + 1) % every == 0 {
                    let _ckpt_span = bpart_obs::span("cluster.checkpoint");
                    checkpoint = Checkpoint {
                        superstep: superstep + 1,
                        machines: snapshot(&steps),
                    };
                    for (m, s) in steps.iter().enumerate() {
                        compute[m] += self.cost.checkpoint_time(s.values().len() as u64);
                    }
                    bpart_obs::metrics::counter("cluster.checkpoints").inc();
                }
            }

            // ---- telemetry ------------------------------------------------
            for (m, c) in compute.iter_mut().enumerate() {
                *c *= faults.compute_factor(superstep, m as MachineId);
            }
            let (mut sent_counts, mut recv_counts) = match self.comm {
                CommAccounting::PerEdgeUpdate => (raw_sent.clone(), raw_received.clone()),
                CommAccounting::Combined => (ex.sent.clone(), ex.received.clone()),
            };
            for m in 0..k {
                sent_counts[m] += drop_extra_sent[m];
                recv_counts[m] += dup_extra_received[m];
            }
            let comm: Vec<f64> = (0..k)
                .map(|m| self.cost.comm_time(sent_counts[m], recv_counts[m]))
                .collect();
            // Per-machine timings on the span (shortest round-trip f64
            // formatting), so the critical-path analyzer reconstructs the
            // same numbers `Telemetry::summary()` reports, bit-exactly.
            step_span.attr("compute", bpart_obs::analysis::join_timings(&compute));
            step_span.attr("comm", bpart_obs::analysis::join_timings(&comm));
            telemetry.record(IterationRecord {
                compute,
                comm,
                sent: sent_counts,
                faults: link_events,
                replay: replaying,
                recovery: 0.0,
            });

            superstep += 1;
            high_water = high_water.max(superstep);
            // Quiescence: once no vertex is active, no future superstep
            // can change any state — stop regardless of the iteration
            // cap (which is only an upper bound).
            if !any_active_next {
                break;
            }
        }

        // Gather values back to global order.
        let mut values: Vec<Option<P::Value>> = vec![None; n];
        for (m, s) in steps.iter().enumerate() {
            for (&v, value) in self.cluster.local_vertices(m as u32).iter().zip(s.values()) {
                values[v as usize] = Some(value.clone());
            }
        }
        Ok(EngineRun {
            values: values
                .into_iter()
                .map(|v| v.expect("every vertex owned"))
                .collect(),
            telemetry,
            iterations: superstep,
        })
    }
}

/// Modelled time to restore every machine from `checkpoint` (machines
/// restore in parallel, so the stall is the slowest restore).
fn restore_time<V>(cost: &CostModel, checkpoint: &Checkpoint<V>) -> f64 {
    checkpoint
        .machines
        .iter()
        .map(|snapshot| cost.checkpoint_time(snapshot.values.len() as u64))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramContext;
    use bpart_core::{ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::generate;

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

    #[test]
    fn combined_accounting_charges_less_than_per_edge() {
        // Many sources per remote target: combining collapses them, so the
        // Combined accounting must report (weakly) fewer messages and the
        // values must be identical either way.
        let graph = Arc::new(generate::complete(24));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let per_edge =
            IterationEngine::default_for(graph.clone(), partition.clone()).run(&PushOnce);
        let combined = IterationEngine::default_for(graph.clone(), partition)
            .with_comm_accounting(CommAccounting::Combined)
            .run(&PushOnce);
        assert_eq!(per_edge.values, combined.values);
        let raw = per_edge.telemetry.total_messages();
        let merged = combined.telemetry.total_messages();
        assert!(merged < raw, "combined {merged} should be below raw {raw}");
        // complete graph on 4 machines: every vertex signals 18 remote
        // targets; combined messages = (machine, target) pairs = 3 * 24 per
        // direction pattern
        // every vertex signals its 18 remote neighbors: 24 x 18 raw updates
        assert_eq!(raw, 24 * 18);
        // combined: each of the 4 machines sends one update per remote
        // target = 18 messages
        assert_eq!(merged, 4 * 18);
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

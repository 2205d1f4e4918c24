//! The distributed walk engine.
//!
//! One superstep = one step of every active walker (KnightKing's
//! synchronous stepping). A walker whose new vertex belongs to another
//! machine is transmitted at the barrier — the "message walks" the paper
//! counts in Fig. 5b.
//!
//! [`WalkEngine`] is a builder, walker seeding, a path table, and
//! [`Walk`]: the walk half of a superstep (step every queue, absorb every
//! inbox, place the superstep's triples, on [`WalkStep`] kernels). The
//! superstep loop itself — fault injection, checkpoint rollback and replay,
//! telemetry — is [`bpart_cluster::bsp::run`], run in process by
//! `bsp::drive` and shared with the iteration engine and the process
//! backend. Each walker carries its own RNG and the step counters live in the
//! checkpointed kernel state, so replays reproduce the exact trajectories
//! and totals of a fault-free run; only telemetry shows the recovery work.
//! A loss before the first checkpoint re-seeds every machine from the
//! starts and the seed in one pass (`WalkStep::reset_all`, as seeding
//! does), so a run holds its walkers once, in the queues, plus whatever
//! is in flight between machines — never a copy for recovery.

use crate::kernel::{PathTable, WalkStep};
use crate::walker::WalkApp;
use bpart_cluster::bsp;
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{
    Cluster, CostModel, FaultPlan, MachineId, Telemetry, UnrecoverableFailure, WorkUnits,
};
use bpart_core::Partition;
use bpart_graph::{CsrGraph, VertexId};
use bpart_obs::metrics;
use bpart_obs::SpanGuard;
use std::sync::Arc;

/// Where walks start.
#[derive(Clone, Debug)]
pub enum WalkStarts {
    /// `c` walkers from every vertex (the paper starts `5|V|` walks for
    /// the load experiments and `|V|` for the applications).
    PerVertex(u32),
    /// Explicit start vertices, one walker each.
    Explicit(Vec<VertexId>),
}

impl WalkStarts {
    /// Number of walkers started on a graph of `n` vertices.
    pub fn count(&self, n: usize) -> u64 {
        match self {
            WalkStarts::PerVertex(c) => n as u64 * *c as u64,
            WalkStarts::Explicit(list) => list.len() as u64,
        }
    }

    /// Every walker's `(id, start vertex)` on a graph of `n` vertices, in
    /// id order — the one definition of walker numbering: copy `c` of
    /// vertex `v` is walker `c·n + v`, explicit starts are numbered by
    /// position.
    pub fn walkers(&self, n: usize) -> impl Iterator<Item = (u64, VertexId)> + '_ {
        (0..self.count(n)).map(move |id| match self {
            WalkStarts::PerVertex(_) => (id, (id % n as u64) as VertexId),
            WalkStarts::Explicit(list) => (id, list[id as usize]),
        })
    }
}

/// Outcome of a walk run.
#[derive(Debug)]
pub struct WalkRun {
    /// Per-iteration, per-machine records (compute = steps executed).
    pub telemetry: Telemetry,
    /// Total walker steps executed across all machines (logical: wasted
    /// and replayed steps count once — see the telemetry for those).
    pub total_steps: u64,
    /// Total walkers transmitted between machines (the paper's "message
    /// walks").
    pub message_walks: u64,
    /// Number of (logical) supersteps executed.
    pub iterations: usize,
    /// Recorded walk paths (walker id -> visited vertices, including the
    /// start), present when the engine was built with recording on.
    pub paths: Option<PathTable>,
}

/// A KnightKing-like walk engine bound to one cluster.
pub struct WalkEngine {
    cluster: Cluster,
    record_paths: bool,
    cfg: bsp::Config,
}

/// One walk app's run, as the superstep loop sees it.
pub(crate) struct Walk<'a, A: ?Sized> {
    pub(crate) app: &'a A,
    /// Where every superstep's triples go, when recording.
    pub(crate) paths: Option<PathTable>,
    /// Where the walks start, and their seed: the initial state a loss
    /// before the first checkpoint re-derives.
    pub(crate) starts: &'a WalkStarts,
    pub(crate) seed: u64,
}

impl<A: WalkApp + ?Sized> bsp::Program for Walk<'_, A> {
    type Machine = WalkStep;
    type Computed = WorkUnits;

    fn open(&mut self, superstep: usize, steps: &[WalkStep]) -> Option<SpanGuard> {
        let active: usize = steps.iter().map(WalkStep::queue_len).sum();
        if active == 0 {
            return None;
        }
        // Live progress for the `/progress` monitoring endpoint: current
        // superstep and how many walkers are still in flight.
        metrics::gauge("walker.progress_superstep").set(superstep as f64);
        metrics::gauge("walker.progress_active").set(active as f64);
        let mut span = bpart_obs::span("walker.superstep");
        span.attr("superstep", superstep);
        span.attr("active", active);
        Some(span)
    }

    fn compute(&self, s: &mut WalkStep) -> WorkUnits {
        s.step(self.app)
    }

    fn computed(&mut self, out: Vec<WorkUnits>, span: &mut SpanGuard) -> Vec<WorkUnits> {
        let steps: u64 = out.iter().map(|w| w.steps).sum();
        span.attr("steps", steps);
        metrics::counter("walk.steps").add(steps);
        // Per-machine steps in one superstep block: the load-skew signal of
        // the paper's Fig. 4, bucketed in powers of ~4.
        let per_block = metrics::histogram(
            "walk.steps_per_block",
            &[16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0],
        );
        for w in &out {
            per_block.observe(w.steps as f64);
        }
        out
    }

    /// Sequential over machines: each absorbs what the others staged for
    /// it straight out of their rows, then hands its triples to the table.
    fn deliver(&mut self, _superstep: usize, steps: &mut [WalkStep]) -> Vec<WorkUnits> {
        for to in 0..steps.len() {
            let (before, rest) = steps.split_at_mut(to);
            let (receiver, after) = rest.split_first_mut().expect("to < k");
            // Ascending sender; the receiver's own row is empty.
            for sender in before.iter_mut().chain(after) {
                receiver.absorb(sender.outgoing(to as MachineId));
            }
            if let Some(paths) = &mut self.paths {
                receiver
                    .take_triples()
                    .try_for_each(|(id, step, v)| paths.place(id, step, v))
                    .expect("the kernels report every step of every walker once");
            }
        }
        vec![WorkUnits::default(); steps.len()]
    }

    fn reset(&self, steps: &mut [WalkStep]) {
        WalkStep::reset_all(steps, self.starts, self.seed);
    }

    fn rolled_back(&mut self, superstep: usize) {
        if let Some(paths) = &mut self.paths {
            paths.truncate(superstep as u32);
        }
    }
}

impl WalkEngine {
    /// Engine with explicit cost model and execution mode.
    pub fn new(cluster: Cluster, cost: CostModel, mode: ExecMode) -> Self {
        WalkEngine {
            cluster,
            record_paths: false,
            cfg: bsp::Config {
                cost,
                mode,
                ..bsp::Config::default()
            },
        }
    }

    /// Engine with default cost model, sequential execution, no recording.
    pub fn default_for(graph: Arc<CsrGraph>, partition: Arc<Partition>) -> Self {
        WalkEngine::new(
            Cluster::new(graph, partition),
            CostModel::default(),
            ExecMode::default(),
        )
    }

    /// Enables walk-path recording (DeepWalk / node2vec corpus output).
    pub fn with_recording(mut self) -> Self {
        self.record_paths = true;
        self
    }

    /// Injects faults from `plan` during the run (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Checkpoints in-flight walker state every `every` supersteps (0:
    /// never). Without this, recovery replays the whole walk from its
    /// starts.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.cfg.checkpoint_every = Some(every);
        self
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs `app` from the given starts under `seed`; panics (re-raising
    /// the original payload) on an unrecoverable machine failure. See
    /// [`try_run`](WalkEngine::try_run) for the fallible form.
    pub fn run<A: WalkApp + ?Sized>(&self, app: &A, starts: &WalkStarts, seed: u64) -> WalkRun {
        self.try_run(app, starts, seed)
            .unwrap_or_else(|e| e.raise())
    }

    /// Runs `app` from the given starts under `seed`, surviving injected
    /// faults via checkpoint rollback and replay.
    ///
    /// Returns `Err` only when recovery cannot make progress (a machine
    /// panics at the same superstep on the replay attempt too).
    pub fn try_run<A: WalkApp + ?Sized>(
        &self,
        app: &A,
        starts: &WalkStarts,
        seed: u64,
    ) -> Result<WalkRun, UnrecoverableFailure> {
        let mut steps = WalkStep::for_cluster(&self.cluster, starts, seed, self.record_paths);
        let n = self.cluster.graph().num_vertices();
        let paths = self
            .record_paths
            .then(|| PathTable::of_starts(starts, n, app.walk_length()));
        let mut walk = Walk {
            app,
            paths,
            starts,
            seed,
        };
        let (telemetry, iterations) = bsp::drive(&self.cfg, &mut walk, &mut steps)?;

        let mut run = WalkRun {
            telemetry,
            total_steps: 0,
            message_walks: 0,
            iterations,
            paths: walk.paths,
        };
        for state in steps.iter().map(WalkStep::state) {
            run.total_steps += state.steps;
            run.message_walks += state.sent;
        }
        if let Some(paths) = &run.paths {
            paths.seal().expect("a path has every step up to its last");
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::DeepWalk;
    use bpart_core::{ChunkE, ChunkV, HashPartitioner, Partitioner};
    use bpart_graph::generate;

    fn engine(graph: &Arc<CsrGraph>, p: impl Partitioner, k: usize) -> WalkEngine {
        WalkEngine::default_for(graph.clone(), Arc::new(p.partition(graph, k)))
    }

    #[test]
    fn fixed_length_walks_take_exactly_len_iterations() {
        let graph = Arc::new(generate::complete(20));
        let run = engine(&graph, ChunkV, 4).run(&DeepWalk::new(4), &WalkStarts::PerVertex(2), 7);
        assert_eq!(run.iterations, 4);
        assert_eq!(run.total_steps, 20 * 2 * 4);
    }

    #[test]
    fn paths_are_partition_invariant() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let starts = WalkStarts::PerVertex(1);
        let a = engine(&graph, ChunkV, 4)
            .with_recording()
            .run(&DeepWalk::new(6), &starts, 11);
        let b = engine(&graph, HashPartitioner::default(), 4)
            .with_recording()
            .run(&DeepWalk::new(6), &starts, 11);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.total_steps, b.total_steps);
    }

    #[test]
    fn message_walks_count_cross_partition_moves() {
        // Ring split in two halves: a walker crosses the boundary exactly
        // when moving 3->4 or 7->0.
        let graph = Arc::new(generate::ring(8));
        let run =
            engine(&graph, ChunkV, 2).run(&DeepWalk::new(8), &WalkStarts::Explicit(vec![0]), 3);
        // the walk visits 8 consecutive vertices; it crosses machines at
        // 3->4 (transmitted) and at 7->0 — but the latter is its final
        // step, so the finished walker is never sent
        assert_eq!(run.message_walks, 1);
        assert_eq!(run.total_steps, 8);
    }

    #[test]
    fn single_machine_sends_nothing() {
        let graph = Arc::new(generate::complete(12));
        let run = engine(&graph, ChunkE, 1).run(&DeepWalk::new(5), &WalkStarts::PerVertex(3), 9);
        assert_eq!(run.message_walks, 0);
        assert_eq!(run.telemetry.total_messages(), 0);
    }

    #[test]
    fn recorded_paths_have_full_length() {
        let graph = Arc::new(generate::complete(10));
        let run = engine(&graph, ChunkV, 2).with_recording().run(
            &DeepWalk::new(5),
            &WalkStarts::PerVertex(1),
            1,
        );
        let paths = run.paths.unwrap();
        assert_eq!(paths.len(), 10);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.len(), 6, "walker {i}: start + 5 steps");
            assert_eq!(p[0], i as VertexId);
        }
    }

    #[test]
    fn dead_ends_terminate_early() {
        let graph = Arc::new(generate::path(3)); // 0->1->2, 2 is a sink
        let run = engine(&graph, ChunkV, 2).with_recording().run(
            &DeepWalk::new(10),
            &WalkStarts::Explicit(vec![0]),
            5,
        );
        let paths = run.paths.unwrap();
        assert_eq!(paths[0], vec![0, 1, 2]);
        // steps: 0->1, 1->2, and one final dead-end attempt at 2
        assert_eq!(run.total_steps, 3);
    }

    /// A walk of length 0 is over where it starts: no walker takes a step,
    /// so every path is its start vertex and nothing is counted or sent.
    #[test]
    fn a_walk_of_length_zero_is_its_start() {
        let graph = Arc::new(generate::complete(12));
        let run = engine(&graph, ChunkV, 3).with_recording().run(
            &DeepWalk::new(0),
            &WalkStarts::PerVertex(2),
            4,
        );
        assert_eq!((run.total_steps, run.message_walks), (0, 0));
        let paths = run.paths.unwrap();
        let starts: Vec<[VertexId; 1]> = (0..24).map(|id| [id % 12]).collect();
        assert!(paths.iter().eq(starts.iter().map(|p| &p[..])), "{paths:?}");
    }

    #[test]
    fn telemetry_load_matches_edge_mass_distribution() {
        // On a skewed graph with Chunk-V, the hub machine should execute
        // far more steps than the rest (the paper's Fig. 4).
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.02));
        let run = engine(&graph, ChunkV, 8).run(&DeepWalk::new(4), &WalkStarts::PerVertex(5), 13);
        let records = run.telemetry.records();
        // Sum compute per machine over iterations 1.. (iteration 0 is
        // uniform because starts are per-vertex balanced).
        let k = 8;
        let mut load = vec![0.0; k];
        for r in &records[1..] {
            for (m, c) in r.compute.iter().enumerate() {
                load[m] += c;
            }
        }
        let max = load.iter().cloned().fold(0.0, f64::max);
        let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 2.0, "expected skewed load: {load:?}");
    }

    #[test]
    fn crash_recovery_reproduces_fault_free_walks() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let starts = WalkStarts::PerVertex(1);
        let app = DeepWalk::new(8);
        let clean = engine(&graph, ChunkV, 4)
            .with_recording()
            .run(&app, &starts, 21);
        for checkpoint_every in [None, Some(2), Some(3)] {
            let mut faulted = engine(&graph, ChunkV, 4)
                .with_recording()
                .with_faults(FaultPlan::new().crash(5, 2));
            if let Some(every) = checkpoint_every {
                faulted = faulted.with_checkpoint_every(every);
            }
            let run = faulted.run(&app, &starts, 21);
            assert_eq!(clean.paths, run.paths, "ckpt {checkpoint_every:?}");
            assert_eq!(clean.total_steps, run.total_steps);
            assert_eq!(clean.message_walks, run.message_walks);
            assert_eq!(clean.iterations, run.iterations);
            assert_eq!(run.telemetry.total_faults(), 1);
            assert!(run.telemetry.replayed_supersteps() > 0);
            assert!(run.telemetry.total_recovery_time() > 0.0);
        }
    }

    /// The recorded table of a crashed run — superstep by superstep into
    /// one table, truncated at the rollback, re-placed by the replay — is
    /// the fault-free one: from the re-seeded start and from one every
    /// 2 supersteps (a crash on the checkpointed barrier, s = 4, replays
    /// nothing; s = 5 one; s = 3 without checkpoints everything), in both
    /// execution modes, for walks of full length, walks that stop early
    /// (their tables end at different steps) and walks that step in place
    /// (RWD returning to a source it has not left yet; the generated graph
    /// has no self-loops, so no other walk here does).
    #[test]
    fn recorded_paths_survive_a_crash_for_every_kind_of_walk() {
        use crate::apps::{DeepWalk, Ppr, Rwd};
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let starts = WalkStarts::PerVertex(1);
        let apps: [&dyn WalkApp; 3] = [&DeepWalk::new(8), &Ppr::new(0.3, 8), &Rwd::new(0.2, 8)];
        for app in apps {
            let engine = |mode| {
                let cluster = Cluster::new(graph.clone(), partition.clone());
                WalkEngine::new(cluster, CostModel::default(), mode).with_recording()
            };
            let clean = engine(ExecMode::Sequential).run(app, &starts, 29);
            let paths = clean.paths.as_ref().unwrap();
            assert!(paths.iter().any(|path| path.len() > 1), "{}", app.name());
            let in_place = paths
                .iter()
                .any(|path| path.windows(2).any(|hop| hop[0] == hop[1]));
            assert_eq!(in_place, app.name() == "RWD", "{}", app.name());
            for mode in [ExecMode::Sequential, ExecMode::Threaded] {
                for (crash_at, checkpoint_every) in [(3, None), (4, Some(2)), (5, Some(2))] {
                    let mut faulted = engine(mode).with_faults(FaultPlan::new().crash(crash_at, 1));
                    if let Some(every) = checkpoint_every {
                        faulted = faulted.with_checkpoint_every(every);
                    }
                    let run = faulted.run(app, &starts, 29);
                    let what = format!(
                        "{} {mode:?} crash@{crash_at} {checkpoint_every:?}",
                        app.name()
                    );
                    assert_eq!(run.paths, clean.paths, "{what}");
                    assert_eq!(run.total_steps, clean.total_steps, "{what}");
                    assert_eq!(run.message_walks, clean.message_walks, "{what}");
                    assert_eq!(run.telemetry.crashes(), 1, "{what}");
                }
            }
        }
    }

    #[test]
    fn faulted_exec_modes_agree() {
        let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let plan = FaultPlan::new()
            .crash(2, 1)
            .straggler(0, 9, 3, 4.0)
            .drop_link(0, 9, 0, 2, 0.5);
        let starts = WalkStarts::PerVertex(1);
        let app = DeepWalk::new(6);
        let seq = WalkEngine::new(
            Cluster::new(graph.clone(), partition.clone()),
            CostModel::default(),
            ExecMode::Sequential,
        )
        .with_recording()
        .with_faults(plan.clone())
        .with_checkpoint_every(2)
        .run(&app, &starts, 17);
        let thr = WalkEngine::new(
            Cluster::new(graph.clone(), partition),
            CostModel::default(),
            ExecMode::Threaded,
        )
        .with_recording()
        .with_faults(plan)
        .with_checkpoint_every(2)
        .run(&app, &starts, 17);
        assert_eq!(seq.paths, thr.paths);
        assert_eq!(seq.telemetry.total_faults(), thr.telemetry.total_faults());
        assert_eq!(
            seq.telemetry.replayed_supersteps(),
            thr.telemetry.replayed_supersteps()
        );
        assert_eq!(seq.telemetry.total_time(), thr.telemetry.total_time());
    }

    #[test]
    fn link_faults_leave_trajectories_alone() {
        let graph = Arc::new(generate::complete(16));
        let starts = WalkStarts::PerVertex(2);
        let app = DeepWalk::new(5);
        let clean = engine(&graph, ChunkV, 4)
            .with_recording()
            .run(&app, &starts, 3);
        let lossy = engine(&graph, ChunkV, 4)
            .with_recording()
            .with_faults(FaultPlan::new().with_seed(9).drop_link(0, 9, 1, 0, 0.6))
            .run(&app, &starts, 3);
        assert_eq!(clean.paths, lossy.paths);
        assert_eq!(clean.message_walks, lossy.message_walks);
        assert!(lossy.telemetry.total_faults() > 0);
        assert!(lossy.telemetry.total_messages() > clean.telemetry.total_messages());
    }
}

//! Golden telemetry: the superstep driver's accounting, pinned bit for bit.
//!
//! `golden_determinism.rs` pins *results*; this file pins what the
//! rollback-replay loop *records* — every [`IterationRecord`] of a run
//! (per-machine compute and comm as `f64` bits, messages sent, faults,
//! the replay flag, recovery time) plus the result itself — for both
//! engines, under no faults, a checkpointed crash, and a mixed plan of
//! crash + straggler + lossy links, in both execution modes. The
//! constants were recorded on the commit *before* the engines' two
//! hand-written driver loops became one (`bpart_cluster::bsp`), so a
//! pass here is the evidence that the shared loop charges every
//! superstep exactly as the two loops it replaced did.
//!
//! Chunk-V is an integer partitioner and the cost model multiplies and
//! adds small integers, so the digests do not depend on `libm`.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan, Telemetry};
use bpart_core::{ChunkV, Partitioner};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::{IterationEngine, ProgramContext, VertexProgram};
use bpart_graph::{generate, CsrGraph, VertexId};
use bpart_walker::apps::DeepWalk;
use bpart_walker::{WalkApp, WalkEngine, WalkStarts, Walker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// FNV-1a, fed 64-bit words little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn telemetry(&mut self, telemetry: &Telemetry) {
        let records = telemetry.records();
        self.word(records.len() as u64);
        for r in &records {
            for &c in &r.compute {
                self.word(c.to_bits());
            }
            for &c in &r.comm {
                self.word(c.to_bits());
            }
            for &s in &r.sent {
                self.word(s);
            }
            self.word(r.faults);
            self.word(r.replay as u64);
            self.word(r.recovery.to_bits());
        }
    }
}

/// The three fault scenarios: `(name, plan, checkpoint interval)`.
fn scenarios() -> [(&'static str, FaultPlan, Option<usize>); 3] {
    [
        ("none", FaultPlan::new(), None),
        ("crash", FaultPlan::new().crash(3, 1), Some(2)),
        (
            "mixed",
            FaultPlan::new()
                .with_seed(9)
                .crash(2, 0)
                .straggler(0, 9, 2, 3.0)
                .drop_link(0, 9, 0, 1, 0.4)
                .duplicate_link(0, 9, 1, 2, 0.3),
            None,
        ),
    ]
}

fn cluster() -> Cluster {
    let graph = Arc::new(generate::erdos_renyi(160, 640, 11));
    let partition = Arc::new(ChunkV.partition(&graph, 3));
    Cluster::new(graph, partition)
}

const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Threaded];

fn iteration_engine(mode: ExecMode, plan: FaultPlan, every: Option<usize>) -> IterationEngine {
    let engine = IterationEngine::new(cluster(), CostModel::default(), mode).with_faults(plan);
    match every {
        Some(every) => engine.with_checkpoint_every(every),
        None => engine,
    }
}

#[test]
fn pagerank_telemetry_is_pinned() {
    let expected = [
        0xde8e_8b37_7539_447au64,
        0x46eb_d7b8_da3f_ee8e,
        0xefdd_4184_4368_bdac,
    ];
    for ((name, plan, every), expected) in scenarios().into_iter().zip(expected) {
        for mode in MODES {
            let run = iteration_engine(mode, plan.clone(), every).run(&PageRank::new(8));
            let mut h = Fnv::new();
            h.telemetry(&run.telemetry);
            h.word(run.iterations as u64);
            for v in &run.values {
                h.word(v.to_bits());
            }
            assert_eq!(h.0, expected, "pagerank / {name} / {mode:?}: {:#018x}", h.0);
        }
    }
}

#[test]
fn cc_telemetry_is_pinned() {
    let expected = [
        0x64c6_4684_577b_5bfcu64,
        0x5d75_8959_a690_1cf4,
        0xaef9_e8ff_97d4_aae6,
    ];
    for ((name, plan, every), expected) in scenarios().into_iter().zip(expected) {
        for mode in MODES {
            let run = iteration_engine(mode, plan.clone(), every).run(&ConnectedComponents);
            let mut h = Fnv::new();
            h.telemetry(&run.telemetry);
            h.word(run.iterations as u64);
            for &v in &run.values {
                h.word(v as u64);
            }
            assert_eq!(h.0, expected, "cc / {name} / {mode:?}: {:#018x}", h.0);
        }
    }
}

#[test]
fn deepwalk_telemetry_is_pinned() {
    let expected = [
        0x141c_e9b4_3c90_0950u64,
        0x6d73_1058_0c10_e4bf,
        0x4229_ff46_83c1_36ca,
    ];
    for ((name, plan, every), expected) in scenarios().into_iter().zip(expected) {
        for mode in MODES {
            let mut engine = WalkEngine::new(cluster(), CostModel::default(), mode)
                .with_recording()
                .with_faults(plan.clone());
            if let Some(every) = every {
                engine = engine.with_checkpoint_every(every);
            }
            let run = engine.run(&DeepWalk::new(6), &WalkStarts::PerVertex(2), 17);
            let mut h = Fnv::new();
            h.telemetry(&run.telemetry);
            h.word(run.iterations as u64);
            h.word(run.total_steps);
            h.word(run.message_walks);
            for path in run.paths.as_ref().expect("recording is on") {
                h.word(path.len() as u64);
                for &v in path {
                    h.word(v as u64);
                }
            }
            assert_eq!(h.0, expected, "deepwalk / {name} / {mode:?}: {:#018x}", h.0);
        }
    }
}

/// PageRank whose `nth` scatter of `vertex` panics, once: the machine
/// failure the driver observes rather than injects.
struct PanicOnce {
    inner: PageRank,
    vertex: VertexId,
    nth: usize,
    calls: AtomicUsize,
}

impl VertexProgram for PanicOnce {
    type Value = f64;
    type Accum = f64;
    fn init(&self, v: VertexId, g: &CsrGraph) -> f64 {
        self.inner.init(v, g)
    }
    fn initially_active(&self, v: VertexId, g: &CsrGraph) -> bool {
        self.inner.initially_active(v, g)
    }
    fn scatter(&self, u: VertexId, value: &f64, g: &CsrGraph) -> Option<f64> {
        if u == self.vertex && self.calls.fetch_add(1, Ordering::Relaxed) == self.nth {
            panic!("injected scatter fault at vertex {u}");
        }
        self.inner.scatter(u, value, g)
    }
    fn combine(&self, a: &mut f64, b: f64) {
        self.inner.combine(a, b)
    }
    fn identity(&self) -> f64 {
        self.inner.identity()
    }
    fn apply(
        &self,
        v: VertexId,
        value: &mut f64,
        incoming: Option<f64>,
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
    fn aggregate(&self, v: VertexId, value: &f64, g: &CsrGraph) -> f64 {
        self.inner.aggregate(v, value, g)
    }
    fn max_iterations(&self) -> Option<usize> {
        self.inner.max_iterations()
    }
}

/// DeepWalk whose walker `walker` panics, once, when it is about to take
/// step `step`.
struct PanicOnceWalk {
    inner: DeepWalk,
    walker: u64,
    step: u32,
    fired: AtomicUsize,
}

impl WalkApp for PanicOnceWalk {
    fn walk_length(&self) -> u32 {
        self.inner.walk_length()
    }
    fn next(&self, walker: &mut Walker, graph: &CsrGraph) -> Option<VertexId> {
        if walker.id == self.walker
            && walker.step == self.step
            && self.fired.fetch_add(1, Ordering::Relaxed) == 0
        {
            panic!("injected step fault in walker {}", walker.id);
        }
        self.inner.next(walker, graph)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A machine that panics mid-compute is rolled back and replayed like an
/// injected crash, but its aborted superstep is recorded with zero
/// compute (the work of the machines that did finish is not charged).
#[test]
fn panic_recovery_telemetry_is_pinned() {
    for mode in MODES {
        let program = PanicOnce {
            inner: PageRank::new(8),
            vertex: 100,
            nth: 3,
            calls: AtomicUsize::new(0),
        };
        let run = iteration_engine(mode, FaultPlan::new(), Some(2)).run(&program);
        let mut h = Fnv::new();
        h.telemetry(&run.telemetry);
        h.word(run.iterations as u64);
        for v in &run.values {
            h.word(v.to_bits());
        }
        assert_eq!(run.telemetry.total_faults(), 1);
        assert_eq!(
            h.0, 0x5e05_aebd_298c_f6c5,
            "pagerank / panic / {mode:?}: {:#018x}",
            h.0
        );

        let app = PanicOnceWalk {
            inner: DeepWalk::new(6),
            walker: 200,
            step: 3,
            fired: AtomicUsize::new(0),
        };
        let run = WalkEngine::new(cluster(), CostModel::default(), mode)
            .with_recording()
            .with_checkpoint_every(2)
            .run(&app, &WalkStarts::PerVertex(2), 17);
        let mut h = Fnv::new();
        h.telemetry(&run.telemetry);
        h.word(run.iterations as u64);
        h.word(run.total_steps);
        h.word(run.message_walks);
        assert_eq!(run.telemetry.total_faults(), 1);
        assert_eq!(
            h.0, 0x19e9_5413_5bf8_49bc,
            "deepwalk / panic / {mode:?}: {:#018x}",
            h.0
        );
    }
}

/// The scenarios are only worth pinning if their faults actually fire.
#[test]
fn every_faulted_scenario_records_a_recovery() {
    for (name, plan, every) in scenarios().into_iter().skip(1) {
        let run =
            iteration_engine(ExecMode::Sequential, plan.clone(), every).run(&PageRank::new(8));
        assert!(run.telemetry.replayed_supersteps() > 0, "pagerank / {name}");
        let run = iteration_engine(ExecMode::Sequential, plan, every).run(&ConnectedComponents);
        assert!(run.telemetry.replayed_supersteps() > 0, "cc / {name}");
    }
}

//! Property-based tests for fault injection: under a fixed `FaultPlan`,
//! recovery reproduces the fault-free answer bit-for-bit, and both
//! execution modes agree on results *and* recovery telemetry for arbitrary
//! graphs, crash points, and checkpoint intervals.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan};
use bpart_core::{ChunkV, Partitioner};
use bpart_engine::{apps::PageRank, IterationEngine};
use bpart_graph::generate;
use proptest::prelude::*;
use std::sync::Arc;

fn faulted_engine(
    graph: &Arc<bpart_graph::CsrGraph>,
    mode: ExecMode,
    plan: &FaultPlan,
    checkpoint_every: usize,
) -> IterationEngine {
    let partition = Arc::new(ChunkV.partition(graph, 4));
    IterationEngine::new(
        Cluster::new(graph.clone(), partition),
        CostModel::default(),
        mode,
    )
    .with_faults(plan.clone())
    .with_checkpoint_every(checkpoint_every)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_reproduces_fault_free_values(
        seed in 0u64..200,
        crash_at in 0usize..8,
        machine in 0u32..4,
        every in 1usize..5,
    ) {
        let graph = Arc::new(generate::erdos_renyi(60, 480, seed));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let app = PageRank::new(8);
        let clean = IterationEngine::default_for(graph.clone(), partition).run(&app);
        let plan = FaultPlan::new().crash(crash_at, machine);
        let faulted = faulted_engine(&graph, ExecMode::Sequential, &plan, every).run(&app);
        prop_assert_eq!(&clean.values, &faulted.values);
        prop_assert_eq!(clean.iterations, faulted.iterations);
        prop_assert_eq!(faulted.telemetry.crashes(), 1);
        prop_assert!(faulted.telemetry.total_recovery_time() > 0.0);
    }

    #[test]
    fn exec_modes_agree_under_a_fixed_fault_plan(
        seed in 0u64..100,
        crash_at in 0usize..6,
        every in 1usize..4,
    ) {
        let graph = Arc::new(generate::erdos_renyi(50, 400, seed));
        let plan = FaultPlan::new().crash(crash_at, 2).crash(crash_at + 1, 0);
        let app = PageRank::new(7);
        let seq = faulted_engine(&graph, ExecMode::Sequential, &plan, every).run(&app);
        let thr = faulted_engine(&graph, ExecMode::Threaded, &plan, every).run(&app);
        prop_assert_eq!(&seq.values, &thr.values);
        prop_assert_eq!(seq.iterations, thr.iterations);
        prop_assert_eq!(seq.telemetry.crashes(), thr.telemetry.crashes());
        prop_assert_eq!(
            seq.telemetry.replayed_supersteps(),
            thr.telemetry.replayed_supersteps()
        );
        prop_assert_eq!(seq.telemetry.total_time(), thr.telemetry.total_time());
        prop_assert_eq!(seq.telemetry.total_messages(), thr.telemetry.total_messages());
    }
}

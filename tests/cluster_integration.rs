//! Cross-crate integration for the BSP simulator: conservation laws,
//! telemetry consistency, and sequential/threaded equivalence through a
//! full engine run.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel};
use bpart_core::prelude::*;
use bpart_engine::{apps, IterationEngine};
use bpart_graph::generate;
use bpart_walker::{apps as wapps, WalkEngine, WalkStarts};
use std::sync::Arc;

#[test]
fn walk_steps_are_conserved_across_machines() {
    // Total steps = sum over iterations of per-machine compute (at unit
    // step cost), regardless of partitioning.
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.02));
    for k in [2usize, 8] {
        let partition = Arc::new(HashPartitioner::default().partition(&graph, k));
        let run = WalkEngine::default_for(graph.clone(), partition).run(
            &wapps::DeepWalk::new(4),
            &WalkStarts::PerVertex(3),
            11,
        );
        let telemetry_steps: f64 = run
            .telemetry
            .records()
            .iter()
            .flat_map(|r| r.compute.clone())
            .sum();
        assert_eq!(telemetry_steps as u64, run.total_steps, "k = {k}");
    }
}

#[test]
fn message_totals_agree_between_run_and_telemetry() {
    let graph = Arc::new(generate::lj_like().generate_scaled(0.02));
    let partition = Arc::new(ChunkV.partition(&graph, 4));
    let run = WalkEngine::default_for(graph.clone(), partition).run(
        &wapps::DeepWalk::new(4),
        &WalkStarts::PerVertex(2),
        3,
    );
    assert_eq!(run.message_walks, run.telemetry.total_messages());
}

#[test]
fn waiting_ratio_is_a_fraction_and_zero_for_one_machine() {
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.02));
    let one = Arc::new(ChunkV.partition(&graph, 1));
    let run = WalkEngine::default_for(graph.clone(), one).run(
        &wapps::DeepWalk::new(4),
        &WalkStarts::PerVertex(1),
        5,
    );
    assert_eq!(run.telemetry.waiting_ratio(), 0.0);

    let eight = Arc::new(ChunkV.partition(&graph, 8));
    let run = WalkEngine::default_for(graph.clone(), eight).run(
        &wapps::DeepWalk::new(4),
        &WalkStarts::PerVertex(1),
        5,
    );
    let ratio = run.telemetry.waiting_ratio();
    assert!((0.0..1.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn threaded_engine_matches_sequential_results_exactly() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.02));
    let partition = Arc::new(BPart::default().partition(&graph, 6));
    let seq = IterationEngine::new(
        Cluster::new(graph.clone(), partition.clone()),
        CostModel::default(),
        ExecMode::Sequential,
    )
    .run(&apps::PageRank::new(8));
    let thr = IterationEngine::new(
        Cluster::new(graph.clone(), partition),
        CostModel::default(),
        ExecMode::Threaded,
    )
    .run(&apps::PageRank::new(8));
    assert_eq!(seq.values, thr.values);
    assert_eq!(seq.telemetry.total_time(), thr.telemetry.total_time());
}

#[test]
fn threaded_walker_matches_sequential_paths_exactly() {
    let graph = Arc::new(generate::lj_like().generate_scaled(0.02));
    let partition = Arc::new(Fennel.partition(&graph, 6));
    let run_with = |mode: ExecMode| {
        WalkEngine::new(
            Cluster::new(graph.clone(), partition.clone()),
            CostModel::default(),
            mode,
        )
        .with_recording()
        .run(
            &wapps::Node2vec::new(2.0, 0.5, 6),
            &WalkStarts::PerVertex(1),
            17,
        )
    };
    let seq = run_with(ExecMode::Sequential);
    let thr = run_with(ExecMode::Threaded);
    assert_eq!(seq.paths, thr.paths);
    assert_eq!(seq.message_walks, thr.message_walks);
}

#[test]
fn cost_model_scales_modelled_time_linearly() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
    let partition = Arc::new(ChunkE.partition(&graph, 4));
    let cheap = CostModel {
        message_cost: 0.0,
        ..CostModel::default()
    };
    let base = WalkEngine::new(
        Cluster::new(graph.clone(), partition.clone()),
        cheap,
        ExecMode::Sequential,
    )
    .run(&wapps::DeepWalk::new(4), &WalkStarts::PerVertex(1), 2);
    let double = CostModel {
        step_cost: 2.0,
        message_cost: 0.0,
        ..CostModel::default()
    };
    let scaled = WalkEngine::new(
        Cluster::new(graph.clone(), partition),
        double,
        ExecMode::Sequential,
    )
    .run(&wapps::DeepWalk::new(4), &WalkStarts::PerVertex(1), 2);
    let t1 = base.telemetry.total_time();
    let t2 = scaled.telemetry.total_time();
    assert!((t2 - 2.0 * t1).abs() < 1e-9, "{t2} vs 2 x {t1}");
}

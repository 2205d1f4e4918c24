//! Cross-crate integration: the KnightKing-like walk engine's trajectories
//! are partition-invariant; only load distribution and traffic change.

use bpart_bench::schemes_with_multilevel;
use bpart_core::prelude::*;
use bpart_graph::generate;
use bpart_walker::{apps, PathTable, WalkEngine, WalkStarts};
use std::sync::Arc;

#[test]
fn walk_paths_are_identical_under_every_scheme() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
    let starts = WalkStarts::PerVertex(2);
    let mut reference: Option<PathTable> = None;
    for scheme in schemes_with_multilevel() {
        let partition = Arc::new(scheme.partition(&graph, 8));
        let run = WalkEngine::default_for(graph.clone(), partition)
            .with_recording()
            .run(&apps::DeepWalk::new(8), &starts, 99);
        let paths = run.paths.unwrap();
        match &reference {
            None => reference = Some(paths),
            Some(r) => assert_eq!(r, &paths, "{}", scheme.name()),
        }
    }
}

#[test]
fn every_paper_walk_app_runs_under_every_scheme() {
    let graph = Arc::new(generate::lj_like().generate_scaled(0.01));
    for scheme in schemes_with_multilevel() {
        let partition = Arc::new(scheme.partition(&graph, 4));
        let engine = WalkEngine::default_for(graph.clone(), partition);
        for app in apps::paper_suite(6) {
            let run = engine.run(app.as_ref(), &WalkStarts::PerVertex(1), 7);
            assert!(run.total_steps > 0, "{} / {}", scheme.name(), app.name());
            assert!(
                run.iterations <= 6,
                "{} / {}: {} iterations for 6-step walks",
                scheme.name(),
                app.name(),
                run.iterations
            );
        }
    }
}

#[test]
fn message_walks_scale_with_edge_cut() {
    // More cut edges => more transmitted walkers (Fig. 5's causal chain).
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.02));
    let traffic = |p: Partition| {
        let cut = metrics::edge_cut_ratio(&graph, &p);
        let run = WalkEngine::default_for(graph.clone(), Arc::new(p)).run(
            &apps::SimpleRandomWalk::new(4),
            &WalkStarts::PerVertex(5),
            3,
        );
        (cut, run.message_walks)
    };
    let (fennel_cut, fennel_msgs) = traffic(Fennel.partition(&graph, 8));
    let (hash_cut, hash_msgs) = traffic(HashPartitioner::default().partition(&graph, 8));
    assert!(fennel_cut < hash_cut);
    assert!(
        fennel_msgs < hash_msgs,
        "fewer cuts must mean fewer transmitted walks: {fennel_msgs} vs {hash_msgs}"
    );
}

#[test]
fn ppr_stops_early_and_respects_the_cap() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
    let partition = Arc::new(BPart::default().partition(&graph, 4));
    let run = WalkEngine::default_for(graph.clone(), partition).run(
        &apps::Ppr::new(0.1, 100),
        &WalkStarts::PerVertex(1),
        5,
    );
    // Expected geometric mean length ~9 << 100-step cap.
    let avg = run.total_steps as f64 / graph.num_vertices() as f64;
    assert!((5.0..20.0).contains(&avg), "avg walk length {avg}");
    assert!(run.iterations < 100);
}

#[test]
fn balanced_partition_cuts_walker_waiting_time() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.05));
    let waiting = |p: Partition| {
        WalkEngine::default_for(graph.clone(), Arc::new(p))
            .run(
                &apps::SimpleRandomWalk::new(4),
                &WalkStarts::PerVertex(5),
                1,
            )
            .telemetry
            .waiting_ratio()
    };
    let chunke = waiting(ChunkE.partition(&graph, 8));
    let bpart = waiting(BPart::default().partition(&graph, 8));
    assert!(bpart < chunke * 0.5, "bpart {bpart} vs chunk-e {chunke}");
}

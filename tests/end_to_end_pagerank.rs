//! Cross-crate integration: the Gemini-like engine computes identical
//! analysis results under every partitioning scheme, on every dataset, and
//! matches single-machine reference implementations.

use bpart_bench::schemes_with_multilevel;
use bpart_core::Partitioner;
use bpart_engine::{apps, IterationEngine};
use bpart_graph::{generate, traversal};
use std::sync::Arc;

#[test]
fn pagerank_matches_reference_under_every_scheme() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
    let expected = apps::reference_pagerank(&graph, 0.85, 10);
    for scheme in schemes_with_multilevel() {
        let partition = Arc::new(scheme.partition(&graph, 8));
        let run =
            IterationEngine::default_for(graph.clone(), partition).run(&apps::PageRank::new(10));
        for (v, (got, want)) in run.values.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "{} vertex {v}: {got} vs {want}",
                scheme.name()
            );
        }
    }
}

#[test]
fn pagerank_mass_is_conserved_with_dangling_vertices() {
    // Chung-Lu graphs contain zero-out-degree vertices; the dangling
    // aggregate must keep total rank at 1 across iterations.
    let graph = Arc::new(generate::lj_like().generate_scaled(0.01));
    let partition = Arc::new(bpart_core::BPart::default().partition(&graph, 4));
    let run = IterationEngine::default_for(graph, partition).run(&apps::PageRank::new(15));
    let total: f64 = run.values.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "total rank {total}");
}

#[test]
fn connected_components_match_reference_under_every_scheme() {
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.01));
    let expected = traversal::connected_components(&graph);
    for scheme in schemes_with_multilevel() {
        let partition = Arc::new(scheme.partition(&graph, 6));
        let run =
            IterationEngine::default_for(graph.clone(), partition).run(&apps::ConnectedComponents);
        assert_eq!(run.values, expected, "{}", scheme.name());
    }
}

#[test]
fn bfs_and_sssp_match_references() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.01));
    let partition = Arc::new(bpart_core::Fennel.partition(&graph, 4));
    let engine = IterationEngine::default_for(graph.clone(), partition);

    let bfs = engine.run(&apps::Bfs::new(0));
    assert_eq!(bfs.values, traversal::bfs_distances(&graph, 0));

    let sssp = engine.run(&apps::Sssp::new(0));
    assert_eq!(sssp.values, apps::reference_sssp(&graph, 0, 8));
}

#[test]
fn balanced_partitions_reduce_modelled_pagerank_waiting() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.05));
    let waiting = |p: bpart_core::Partition| {
        IterationEngine::default_for(graph.clone(), Arc::new(p))
            .run(&apps::PageRank::new(5))
            .telemetry
            .waiting_ratio()
    };
    let chunkv = waiting(bpart_core::ChunkV.partition(&graph, 8));
    let bpart = waiting(bpart_core::BPart::default().partition(&graph, 8));
    assert!(
        bpart < chunkv * 0.5,
        "bpart waiting {bpart} should be far below chunk-v {chunkv}"
    );
}

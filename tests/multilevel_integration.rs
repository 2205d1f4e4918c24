//! Cross-crate integration for the offline multilevel baseline: §4.2's
//! qualitative comparison and compatibility with the engines.

use bpart_core::prelude::*;
use bpart_engine::{apps, IterationEngine};
use bpart_graph::{generate, traversal};
use bpart_multilevel::Multilevel;
use std::sync::Arc;

#[test]
fn multilevel_balances_vertices_but_not_edges() {
    // The §4.2 shape at a scale where the skew shows.
    let g = generate::twitter_like().generate_scaled(0.2);
    let p = Multilevel.partition(&g, 8);
    let v = metrics::bias(p.vertex_counts());
    let e = metrics::bias(p.edge_counts());
    assert!(v < 0.05, "vertex bias {v} (paper: 0.03)");
    assert!(e > 0.5, "edge bias {e} (paper: 2.56 on Twitter)");
    let q = metrics::quality(&g, &BPart::default().partition(&g, 8));
    assert!(
        q.vertex_bias < 0.1 && q.edge_bias < 0.1,
        "BPart beats it in 2D"
    );
}

#[test]
fn multilevel_cut_beats_every_streaming_scheme() {
    // Offline partitioners see the whole graph and should win on cuts.
    let g = generate::lj_like().generate_scaled(0.05);
    let ml_cut = metrics::edge_cut_ratio(&g, &Multilevel.partition(&g, 8));
    for scheme in [
        &ChunkV as &dyn Partitioner,
        &ChunkE,
        &Fennel,
        &HashPartitioner::default(),
    ] {
        let cut = metrics::edge_cut_ratio(&g, &scheme.partition(&g, 8));
        assert!(
            ml_cut < cut,
            "multilevel {ml_cut} should beat {} {cut}",
            scheme.name()
        );
    }
}

#[test]
fn multilevel_partitions_work_inside_the_engine() {
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.01));
    let partition = Arc::new(Multilevel.partition(&graph, 4));
    let run =
        IterationEngine::default_for(graph.clone(), partition).run(&apps::ConnectedComponents);
    assert_eq!(run.values, traversal::connected_components(&graph));
}

//! Cross-crate integration: every partitioner produces a valid partition
//! on every graph family and part count.

use bpart_bench::schemes_with_multilevel;
use bpart_core::{metrics, Partitioner};
use bpart_graph::{generate, CsrGraph};

fn graph_zoo() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("ring", generate::ring(64)),
        ("star", generate::star(63)),
        ("path", generate::path(64)),
        ("grid", generate::grid(8, 8)),
        ("complete", generate::complete(16)),
        ("erdos_renyi", generate::erdos_renyi(300, 2_000, 7)),
        (
            "rmat",
            generate::rmat(&generate::RmatConfig::new(9, 4_000, 3)),
        ),
        (
            "twitter_like",
            generate::twitter_like().generate_scaled(0.01),
        ),
    ]
}

#[test]
fn every_scheme_covers_every_graph() {
    for (gname, graph) in graph_zoo() {
        for scheme in schemes_with_multilevel() {
            for k in [1usize, 2, 5, 8] {
                let p = scheme.partition(&graph, k);
                p.validate(&graph)
                    .unwrap_or_else(|e| panic!("{} on {gname} k={k}: {e}", scheme.name()));
                assert_eq!(p.num_parts(), k);
            }
        }
    }
}

#[test]
fn partitioners_are_deterministic_across_calls() {
    let graph = generate::lj_like().generate_scaled(0.01);
    for scheme in schemes_with_multilevel() {
        let a = scheme.partition(&graph, 6);
        let b = scheme.partition(&graph, 6);
        assert_eq!(a, b, "{} must be deterministic", scheme.name());
    }
}

#[test]
fn cut_ratios_are_sane_probabilities() {
    let graph = generate::twitter_like().generate_scaled(0.01);
    for scheme in schemes_with_multilevel() {
        let p = scheme.partition(&graph, 8);
        let cut = metrics::edge_cut_ratio(&graph, &p);
        assert!((0.0..=1.0).contains(&cut), "{}: cut {cut}", scheme.name());
    }
}

#[test]
fn single_part_has_no_cut_for_any_scheme() {
    let graph = generate::erdos_renyi(100, 800, 1);
    for scheme in schemes_with_multilevel() {
        let p = scheme.partition(&graph, 1);
        assert_eq!(metrics::edge_cut_count(&graph, &p), 0, "{}", scheme.name());
    }
}

#[test]
fn empty_and_tiny_graphs_do_not_break_partitioners() {
    let empty = CsrGraph::from_edges(0, &[]);
    let single = CsrGraph::from_edges(1, &[]);
    for scheme in schemes_with_multilevel() {
        let p = scheme.partition(&empty, 3);
        assert_eq!(p.num_vertices(), 0, "{} on empty", scheme.name());
        let p = scheme.partition(&single, 3);
        assert_eq!(p.num_vertices(), 1, "{} on single", scheme.name());
    }
}

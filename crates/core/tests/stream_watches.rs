//! What buffered streaming costs in quality, as facts: on `lj_like` × 0.02
//! (1 500 vertices) at `k` = 8, the cut of the sequential pass is pinned to
//! the bit for both streaming scorers, and so is BPart phase 1's 2-thread
//! buffered cut with the buffer at 1/16 of the stream (Fennel has no
//! buffered mode). The buffered cut stays inside the bounded-staleness
//! envelope (Stanton, arXiv 1212.1121; Buffered Streaming Edge
//! Partitioning, arXiv 2402.11980) — stated here once, beside a number that
//! shows it is not vacuous (the 2-thread cut is 3.3 % over its sequential
//! one; the envelope allows 5 % + 0.01).
//!
//! A pin moves only when an assignment moves: re-pin it in the PR that
//! means to change the scorer, with the before and after in EXPERIMENTS.md.

use bpart_core::bpart::WeightedStream;
use bpart_core::metrics::edge_cut_ratio;
use bpart_core::prelude::*;
use bpart_graph::generate::preset_by_name;

const K: usize = 8;

/// `(scheme, sequential cut, 2-thread cut)`.
const PINS: [(&str, f64, Option<f64>); 2] = [
    ("Fennel", 0.6967433588974102, None),
    ("BPart-P1", 0.6913637879293097, Some(0.7144603756807825)),
];

#[test]
fn sequential_and_two_thread_cuts_are_pinned_and_inside_the_staleness_envelope() {
    let graph = preset_by_name("lj_like").unwrap().generate_scaled(0.02);
    let buffer_size = graph.num_vertices() / 16;
    assert_eq!(buffer_size, 93);
    let p1_cut = |threads| {
        let parallel = ParallelConfig {
            threads,
            buffer_size,
        };
        let p1 = WeightedStream::new(BPartConfig {
            parallel,
            ..Default::default()
        });
        edge_cut_ratio(&graph, &p1.partition(&graph, K))
    };
    for (name, sequential, buffered) in PINS {
        let one = match name {
            "Fennel" => edge_cut_ratio(&graph, &Fennel.partition(&graph, K)),
            _ => p1_cut(1),
        };
        assert_eq!(one, sequential, "{name}, sequential");
        let Some(buffered) = buffered else { continue };
        let two = p1_cut(2);
        assert_eq!(two, buffered, "{name}, 2 threads");
        assert!(
            two <= one * 1.05 + 0.01,
            "{name}: 2-thread cut {two} leaves the envelope of sequential {one}"
        );
    }
}

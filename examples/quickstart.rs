//! Quickstart: generate a power-law graph, partition it five ways, and
//! compare two-dimensional balance and edge cuts.
//!
//! ```sh
//! cargo run --release -p bpart-bench --example quickstart
//! ```

use bpart_core::prelude::*;
use bpart_graph::{generate, stats};

fn main() {
    // A Twitter-like power-law graph at 5% scale (~5K vertices, ~180K edges).
    let graph = generate::twitter_like().generate_scaled(0.05);
    let s = stats::degree_stats(&graph);
    println!(
        "graph: {} vertices, {} edges, avg degree {:.1}, max degree {}, top-1% degree mass {:.0}%",
        s.vertices,
        s.edges,
        s.average,
        s.max,
        s.top1pct_mass * 100.0
    );
    println!();

    let schemes: Vec<Box<dyn Partitioner>> = vec![
        Box::new(ChunkV),
        Box::new(ChunkE),
        Box::new(Fennel),
        Box::new(HashPartitioner::default()),
        Box::new(BPart::default()),
    ];

    println!(
        "{:>8}  {:>11} {:>11} {:>9}",
        "scheme", "vertex bias", "edge bias", "edge-cut"
    );
    for scheme in &schemes {
        let partition = scheme.partition(&graph, 8);
        let q = metrics::quality(&graph, &partition);
        println!(
            "{:>8}  {:>11.3} {:>11.3} {:>9.3}",
            scheme.name(),
            q.vertex_bias,
            q.edge_bias,
            q.cut_ratio
        );
    }
    println!();
    println!("BPart is the only scheme with both biases below 0.1 — that is the");
    println!("two-dimensional balance the paper's title promises.");
}

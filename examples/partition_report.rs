//! Partition report: load a graph (from a SNAP-style edge-list file if a
//! path is given, else a generated LiveJournal-like graph), partition it
//! with every scheme including the offline multilevel baseline, and print
//! a full quality report plus BPart's layer trace.
//!
//! ```sh
//! cargo run --release -p bpart-bench --example partition_report [edge_list.txt] [k]
//! ```

use bpart_core::prelude::*;
use bpart_graph::{generate, io};
use bpart_multilevel::Multilevel;
use std::fs::File;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next();
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    let graph = match &path {
        Some(p) => {
            let file = File::open(p).unwrap_or_else(|e| panic!("cannot open {p}: {e}"));
            let edges = io::read_edge_list(file).expect("malformed edge list");
            println!(
                "loaded {p}: {} vertices, {} edges",
                edges.num_vertices(),
                edges.num_edges()
            );
            edges.into_csr()
        }
        None => {
            println!("no input file given; generating lj_like at 10% scale");
            generate::lj_like().generate_scaled(0.1)
        }
    };

    let schemes: Vec<Box<dyn Partitioner>> = vec![
        Box::new(ChunkV),
        Box::new(ChunkE),
        Box::new(Fennel),
        Box::new(HashPartitioner::default()),
        Box::new(Multilevel),
        Box::new(BPart::default()),
    ];

    println!();
    println!(
        "{:>14}  {:>11} {:>11} {:>11} {:>11} {:>9}",
        "scheme", "vertex bias", "edge bias", "vertex jain", "edge jain", "edge-cut"
    );
    for scheme in &schemes {
        let partition = scheme.partition(&graph, k);
        partition.validate(&graph).expect("invalid partition");
        let q = metrics::quality(&graph, &partition);
        println!(
            "{:>14}  {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>9.3}",
            scheme.name(),
            q.vertex_bias,
            q.edge_bias,
            q.vertex_jain,
            q.edge_jain,
            q.cut_ratio
        );
    }

    println!();
    println!("BPart layer trace (k = {k}):");
    let (_, trace) = BPart::default().partition_with_trace(&graph, k);
    for t in trace {
        println!(
            "  layer {}: split remainder into {} pieces, froze {} subgraph(s), {} vertices left",
            t.layer, t.pieces, t.frozen, t.remaining_vertices
        );
    }
}

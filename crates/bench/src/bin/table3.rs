//! Table 3 — edge-cut ratio (cut edges / total edges) of the five schemes
//! on the three datasets, k = 8.

use bpart_bench::{banner, datasets, f3, render_table, schemes};
use bpart_core::metrics;

fn main() {
    banner("Table 3", "edge-cut ratio, k = 8");
    let data = datasets();
    let mut header = vec!["scheme".to_string()];
    header.extend(data.iter().map(|(n, _)| n.clone()));
    let mut rows = Vec::new();
    for scheme in schemes() {
        let mut row = vec![scheme.name().to_string()];
        for (_, g) in &data {
            let p = scheme.partition(g, 8);
            row.push(f3(metrics::edge_cut_ratio(g, &p)));
        }
        rows.push(row);
    }
    println!("{}", render_table(&header, &rows));
    println!(
        "paper (full-scale) for comparison:\n\
         Chunk-V  0.576  0.748  0.659\n\
         Chunk-E  0.903  0.903  0.765\n\
         Fennel   0.649  0.334  0.357\n\
         Hash     0.875  0.875  0.875\n\
         BPart    0.733  0.623  0.530\n\
         expected shape: Hash/Chunk-E highest, Fennel lowest, BPart in between\n\
         (it over-splits, trading some cut for two-dimensional balance)."
    );
}

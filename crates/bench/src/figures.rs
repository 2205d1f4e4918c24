//! The rows of [`FIGURES`]: one function per table or figure of the paper
//! (DESIGN.md §4), plus `faults`. Each builds the text its stand-alone
//! binary used to print; wall-clock columns go to `timings` instead.

use crate::{f3, render_table, schemes, timed, Figure, Lab};
use bpart_cluster::{FaultPlan, Telemetry};
use bpart_core::bpart::WeightedStream;
use bpart_core::gd::GdPartitioner;
use bpart_core::prelude::*;
use bpart_core::vcut::{EdgePartitioner, Hdrf, RandomEdge};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::IterationEngine;
use bpart_graph::{generate, stats, CsrGraph};
use bpart_multilevel::Multilevel;
use bpart_walker::apps::{DeepWalk, Node2vec, Ppr, Rwd, Rwj};
use bpart_walker::{WalkApp, WalkEngine, WalkRun, WalkStarts};
use std::fmt::Debug;
use std::sync::Arc;

/// One figure: the name of its file under `results/`, and what makes it.
pub type Row = (&'static str, fn(&mut Lab) -> Figure);

/// Every figure of the paper's evaluation, plus `faults`.
pub const FIGURES: &[Row] = &[
    ("ablation", ablation),
    ("connectivity", connectivity),
    ("faults", faults),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig08", fig08),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("mtkahip", mtkahip),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("vcut", vcut),
];

/// The one-dimensional schemes of Figs. 3–4.
const ONE_DIM: [&str; 3] = ["Chunk-V", "Chunk-E", "Fennel"];
/// The schemes of Figs. 10, 11 and 13.
const BIAS: [&str; 4] = ["Chunk-V", "Chunk-E", "Fennel", "BPart"];
/// The paper's seven applications in Fig. 14's order: five KnightKing walk
/// apps, then the two Gemini iteration apps.
const APPS: [&str; 7] = ["PPR", "RWJ", "RWD", "DeepWalk", "node2vec", "PR", "CC"];
const TW: &str = "twitter_like";
const FR: &str = "friendster_like";

fn roster() -> Vec<&'static str> {
    schemes().iter().map(|s| s.name()).collect()
}

/// A header from its comma-separated column names.
fn header(columns: &str) -> Vec<String> {
    columns.split(',').map(String::from).collect()
}

/// `first` then `rest`, as one table row.
fn cells(first: &[&str], rest: impl IntoIterator<Item = String>) -> Vec<String> {
    first.iter().map(|s| s.to_string()).chain(rest).collect()
}

/// "scheme" then the dataset names: the header of a scheme × dataset table.
fn by_dataset(graphs: &[(&str, Arc<CsrGraph>)]) -> Vec<String> {
    cells(&["scheme"], graphs.iter().map(|(n, _)| n.to_string()))
}

/// A figure with wall-clock columns: `text` and `timings` each follow the
/// banner.
fn split(banner: String, text: String, timings: String) -> Figure {
    let timings = Some(banner.clone() + &timings);
    Figure {
        text: banner + &text,
        timings,
    }
}

/// A table as the old binaries printed it: rendered, then a blank line.
fn table(header: &[String], rows: &[Vec<String>]) -> String {
    render_table(header, rows) + "\n"
}

fn ratios(counts: &[u64], total: usize) -> Vec<f64> {
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Fig. 6 / Fig. 8's 64 pieces, scaled with the lab.
fn pieces(lab: &Lab) -> usize {
    ((64.0 * lab.scale()).round() as usize).clamp(8, 64)
}

/// 5|V| simple random walks of 4 steps (Figs. 4, 5, 12, 13).
fn walks(g: &Arc<CsrGraph>, p: Arc<Partition>, seed: u64) -> WalkRun {
    let engine = WalkEngine::default_for(g.clone(), p);
    engine.run(&DeepWalk::new(4), &WalkStarts::PerVertex(5), seed)
}

/// Per-machine walk steps of [`walks`] on `k` machines, one row per scheme
/// and iteration; `skew` adds the iteration's max/min (Figs. 4, 12).
fn loads(lab: &mut Lab, preset: &str, schemes: &[&str], k: usize, seed: u64, skew: bool) -> String {
    let g = lab.graph(preset);
    let mut rows = Vec::new();
    for &s in schemes {
        let run = walks(&g, lab.partition(preset, s, k), seed);
        for (i, rec) in run.telemetry.records().iter().enumerate() {
            let (c, iter) = (&rec.compute, format!("Iter{i}"));
            let mut row = cells(&[s, &iter], c.iter().map(|c| format!("{c:.0}")));
            if skew {
                let max = c.iter().cloned().fold(f64::MIN, f64::max);
                let min = c.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
                row.push(format!("{:.2}", max / min));
            }
            rows.push(row);
        }
    }
    let mut head = cells(&["scheme", "iter"], (0..k).map(|m| format!("M{m}")));
    head.extend(skew.then(|| "max/min".to_string()));
    table(&head, &rows)
}

/// [`app_times`] under each scheme at k = 8, one table per preset,
/// normalized to the first scheme (Figs. 14, 15).
fn normalized(lab: &mut Lab, presets: &[&str], schemes: &[&str], seed: u64) -> String {
    let mut t = String::new();
    for &name in presets {
        let (g, mut base, mut rows) = (lab.graph(name), None, Vec::new());
        for s in schemes {
            let times = app_times(&g, lab.partition(name, s, 8), seed);
            let base: &Vec<f64> = base.get_or_insert_with(|| times.clone());
            rows.push(cells(&[s], times.iter().zip(base).map(|(x, b)| f3(x / b))));
        }
        t += &format!("--- {name} ---\n");
        t += &table(&cells(&["scheme"], APPS.map(String::from)), &rows);
    }
    t
}

/// Total modelled time of each of [`APPS`] (§4.1: |V| walks, PPR stop 0.1,
/// 10-step RWJ / RWD with jump / return 0.2, 80-step DeepWalk and node2vec
/// with p = 2, q = 0.5, PR 10 iterations, CC to convergence).
fn app_times(g: &Arc<CsrGraph>, p: Arc<Partition>, seed: u64) -> Vec<f64> {
    let walk_apps: [&dyn WalkApp; 5] = [
        &Ppr::new(0.1, 80),
        &Rwj::new(0.2, 10),
        &Rwd::new(0.2, 10),
        &DeepWalk::new(80),
        &Node2vec::new(2.0, 0.5, 80),
    ];
    let walk = |app: &dyn WalkApp| {
        let engine = WalkEngine::default_for(g.clone(), p.clone());
        engine
            .run(app, &WalkStarts::PerVertex(1), seed)
            .telemetry
            .total_time()
    };
    let mut times: Vec<f64> = walk_apps.into_iter().map(walk).collect();
    let engine = IterationEngine::default_for(g.clone(), p);
    times.push(engine.run(&PageRank::new(10)).telemetry.total_time());
    times.push(engine.run(&ConnectedComponents).telemetry.total_time());
    times
}

fn table1(lab: &mut Lab) -> Figure {
    let mut t = lab.banner("Table 1", "dataset statistics (synthetic stand-ins)");
    let mut rows = Vec::new();
    for (name, g) in lab.graphs() {
        let s = stats::degree_stats(&g);
        let counts = [s.vertices, s.edges].map(|c| c.to_string());
        let (avg, max) = (format!("{:.2}", s.average), s.max.to_string());
        let alpha = s.powerlaw_alpha.map_or("-".into(), |a| format!("{a:.2}"));
        let clustering = stats::approx_clustering_coefficient(&g, 500, 30, 0x7AB1);
        let skew = [f3(s.top1pct_mass), f3(s.gini), alpha, f3(clustering)];
        let sizes = counts.into_iter().chain([avg, max]);
        rows.push(cells(&[name], sizes.chain(skew)));
    }
    let head = "dataset,# vertices,# edges,avg degree,max degree,top-1% mass,gini,alpha,clustering";
    t += &table(&header(head), &rows);
    (t + "paper (full-scale): LiveJournal 7.5M / 225M / 29.99, Twitter 41.39M / 1.48B / 35.72,\n\
          Friendster 65.60M / 3.6B / 54.87. Average degrees match exactly; sizes are scaled\n\
          by BPART_SCALE x the ~500x-reduced presets. Twitter is the most skewed (highest\n\
          top-1% mass / gini), Friendster the least — matching the paper's per-dataset\n\
          imbalance ordering.\n")
        .into()
}

/// Wall-clock only: the text says where the seconds are. The partitions
/// are timed, so they bypass the lab's cache.
fn table2(lab: &mut Lab) -> Figure {
    let banner = lab.banner("Table 2", "partition wall-clock overhead (s), k = 8");
    let graphs = lab.graphs();
    let mut rows = Vec::new();
    for scheme in schemes() {
        let row = graphs.iter().map(|(_, g)| {
            let (partition, secs) = timed(|| scheme.partition(g, 8));
            partition.validate(g).expect("partition must be valid");
            format!("{secs:.4}")
        });
        rows.push(cells(&[scheme.name()], row));
    }
    let text = "seconds per scheme and dataset: timings/table2.txt (each partition validated)\n\
                expected shape (paper, full-scale): Chunk-V = Chunk-E << Hash << Fennel < BPart,\n\
                with BPart within ~2-4x of Fennel.\n";
    split(banner, text.into(), table(&by_dataset(&graphs), &rows))
}

fn table3(lab: &mut Lab) -> Figure {
    let mut t = lab.banner("Table 3", "edge-cut ratio, k = 8");
    let graphs = lab.graphs();
    let mut rows = Vec::new();
    for s in roster() {
        let cut = |(n, g): &(&str, Arc<_>)| f3(metrics::edge_cut_ratio(g, &lab.partition(n, s, 8)));
        rows.push(cells(&[s], graphs.iter().map(cut)));
    }
    t += &table(&by_dataset(&graphs), &rows);
    (t + "paper (full-scale) for comparison:\n\
          Chunk-V  0.576  0.748  0.659\n\
          Chunk-E  0.903  0.903  0.765\n\
          Fennel   0.649  0.334  0.357\n\
          Hash     0.875  0.875  0.875\n\
          BPart    0.733  0.623  0.530\n\
          expected shape: Hash/Chunk-E highest, Fennel lowest, BPart in between\n\
          (it over-splits, trading some cut for two-dimensional balance).\n")
        .into()
}

fn fig03(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 3",
        "ratios of |V_i| and |E_i| per subgraph, twitter_like, k = 4",
    );
    let g = lab.graph(TW);
    let mut rows = Vec::new();
    for s in ONE_DIM {
        let p = lab.partition(TW, s, 4);
        let vr = ratios(p.vertex_counts(), g.num_vertices());
        rows.push(cells(&[s, "V_i/V"], vr.into_iter().map(f3)));
        let er = ratios(p.edge_counts(), g.num_edges());
        rows.push(cells(&[s, "E_i/E"], er.into_iter().map(f3)));
    }
    t += &table(&header("scheme,dim,G0,G1,G2,G3"), &rows);
    (t + "expected shape: Chunk-V/Fennel have flat vertex rows but skewed edge rows;\n\
          Chunk-E has a flat edge row but a skewed vertex row (paper reports gaps up to 8-13x).\n")
        .into()
}

fn fig04(lab: &mut Lab) -> Figure {
    let t = lab.banner(
        "Figure 4",
        "per-machine walk steps per iteration, twitter_like, 4 machines, 5|V| walks x 4 steps",
    );
    (t + &loads(lab, TW, &ONE_DIM, 4, 0xF164, false)
        + "expected shape: loads are highly imbalanced across machines for all three\n\
           schemes (even Chunk-V/Fennel, whose iteration-0 starts are balanced, skew\n\
           as walkers pile onto the hub machine).\n")
        .into()
}

fn fig05(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 5",
        "edge cuts and message walks, k = 8, 5|V| walks x 4 steps",
    );
    let mut rows = Vec::new();
    for name in [TW, FR] {
        let g = lab.graph(name);
        for s in ["Chunk-V", "Chunk-E", "Fennel", "Hash"] {
            let p = lab.partition(name, s, 8);
            let cut = f3(metrics::edge_cut_ratio(&g, &p));
            let run = walks(&g, p, 0xF165);
            let per_step = f3(run.message_walks as f64 / run.total_steps as f64);
            let messages = run.message_walks.to_string();
            rows.push(cells(&[name, s], [cut, messages, per_step]));
        }
    }
    let head = header("dataset,scheme,edge-cut,message walks,msg/step");
    t += &table(&head, &rows);
    (t + "expected shape: Chunk-E and Hash cut ~90% of edges and transmit >2x the\n\
          walks of Fennel; Fennel cuts the least.\n")
        .into()
}

fn fig06(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 6",
        "|V_i|/|V| and |E_i|/|E| across 64 subgraphs, twitter_like",
    );
    let (g, pieces) = (lab.graph(TW), pieces(lab));
    let spread = |xs: &[f64]| {
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        max / xs.iter().cloned().fold(f64::MAX, f64::min).max(1e-12)
    };
    for s in ["Chunk-V", "Chunk-E"] {
        let p = lab.partition(TW, s, pieces);
        let vr = ratios(p.vertex_counts(), g.num_vertices());
        let er = ratios(p.edge_counts(), g.num_edges());
        t += &format!("--- {s} ---\nsubgraph ({pieces} pieces, scaled with BPART_SCALE):   ratio V_i/V   ratio E_i/E\n");
        for i in 0..pieces {
            t += &format!("   G{i:<3}      {:>8}      {:>8}\n", f3(vr[i]), f3(er[i]));
        }
        let (sv, se) = (spread(&vr), spread(&er));
        let [bv, be] = [p.vertex_counts(), p.edge_counts()].map(|c| f3(metrics::bias(c)));
        t += &format!("summary: vertex max/min = {sv:.1}x, edge max/min = {se:.1}x, vertex bias = {bv}, edge bias = {be}\n\n");
    }
    (t + "expected shape: Chunk-V's vertex ratios are flat (~1/64 each) while its edge\n\
          ratios span an order of magnitude; Chunk-E is the mirror image.\n")
        .into()
}

/// Pieces are reordered by |V_i|, as in the paper's plot.
fn fig08(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 8",
        "weighted-policy piece ratios, twitter_like, 64 pieces, c = 1/2",
    );
    let g = lab.graph(TW);
    let p = WeightedStream::default().partition(&g, pieces(lab));
    let (n, m) = (g.num_vertices() as f64, g.num_edges() as f64);
    let counts = p.vertex_counts().iter().zip(p.edge_counts());
    let mut pieces: Vec<(f64, f64)> = counts.map(|(&v, &e)| (v as f64, e as f64)).collect();
    pieces.sort_by(|a, b| a.0.total_cmp(&b.0));
    t += "piece (sorted by |V_i|):   V_i/V     E_i/E     W_i\n";
    for (i, (v, e)) in pieces.iter().enumerate() {
        let w = 0.5 * v + 0.5 * e / g.average_degree();
        let (v, e) = (f3(v / n), f3(e / m));
        t += &format!("   {i:>3}                  {v:>7}   {e:>7}   {w:>8.1}\n");
    }
    let (vs, es): (Vec<f64>, Vec<f64>) = pieces.into_iter().unzip();
    let [bv, be] = [p.vertex_counts(), p.edge_counts()].map(|c| f3(metrics::bias(c)));
    let corr = f3(pearson(&vs, &es));
    t += &format!("\nsummary: vertex bias = {bv}, edge bias = {be}, corr(|V_i|, |E_i|) = {corr}\n");
    (t + "expected shape: both biases well below the imbalanced dimension of Fig. 6,\n\
          correlation strongly negative (inverse proportionality), W_i near-constant.\n")
        .into()
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|&x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|&y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
}

fn fig10(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 10",
        "bias scatter (vertex bias, edge bias), k in {4, 8, 16}",
    );
    for (name, _) in lab.graphs() {
        let mut rows = Vec::new();
        for s in BIAS {
            for k in [4usize, 8, 16] {
                let p = lab.partition(name, s, k);
                let biases = [p.vertex_counts(), p.edge_counts()].map(|c| f3(metrics::bias(c)));
                rows.push(cells(&[name, s, &k.to_string()], biases));
            }
        }
        t += &table(&header("dataset,scheme,k,vertex bias,edge bias"), &rows);
    }
    (t + "expected shape: Chunk-V/Fennel have ~0 vertex bias but large (and k-growing)\n\
          edge bias; Chunk-E the reverse; BPart stays < 0.1 in BOTH dimensions at every k.\n")
        .into()
}

fn fig11(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 11",
        "Jain fairness vs number of subgraphs, twitter_like",
    );
    let ks = [8usize, 16, 32, 64, 128];
    for (dim, panel) in ["(a) fairness of vertices", "(b) fairness of edges"]
        .iter()
        .enumerate()
    {
        let mut rows = Vec::new();
        for s in BIAS {
            let fairness = ks.map(|k| {
                let p = lab.partition(TW, s, k);
                f3(metrics::jain_fairness(
                    [p.vertex_counts(), p.edge_counts()][dim],
                ))
            });
            rows.push(cells(&[s], fairness));
        }
        t += &format!("{panel}\n");
        t += &table(&cells(&["scheme"], ks.map(|k| format!("k={k}"))), &rows);
    }
    (t + "expected shape: BPart stays ~1.0 in both panels at every k; the one-dimensional\n\
          schemes degrade in their weak dimension as k grows.\n")
        .into()
}

fn fig12(lab: &mut Lab) -> Figure {
    let t = lab.banner(
        "Figure 12",
        "per-machine compute time per iteration, friendster_like, 8 machines",
    );
    let schemes = ["Fennel", "Chunk-V", "Chunk-E", "BPart"];
    (t + &loads(lab, FR, &schemes, 8, 0xF1612, true)
        + "expected shape: Fennel/Chunk-V/Chunk-E show strongly unequal compute per\n\
           iteration (machines wait for the slowest); BPart's columns are near-equal\n\
           in every iteration.\n")
        .into()
}

fn fig13(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Figure 13",
        "waiting-time ratio, 4 and 8 machines, 5|V| walks x 4 steps",
    );
    let graphs = lab.graphs();
    for k in [4usize, 8] {
        let mut rows = Vec::new();
        for s in BIAS {
            let waiting = |(n, g): &(&str, _)| {
                f3(walks(g, lab.partition(n, s, k), 0xF1613)
                    .telemetry
                    .waiting_ratio())
            };
            rows.push(cells(&[s], graphs.iter().map(waiting)));
        }
        t += &format!("({k} machines)\n");
        t += &table(&by_dataset(&graphs), &rows);
    }
    (t + "expected shape: Chunk-V/Chunk-E/Fennel waste a large fraction of machine\n\
          time waiting (paper: ~45% at 4 machines, ~55% at 8, up to 70%); BPart\n\
          stays far lower (paper: ~10% and ~20%).\n")
        .into()
}

fn fig14(lab: &mut Lab) -> Figure {
    let t = lab.banner(
        "Figure 14",
        "normalized running time of 7 apps, k = 8, Chunk-V = 1.0",
    );
    let presets = generate::ALL_PRESETS.map(|p| p().name);
    (t + &normalized(lab, &presets, &roster(), 0xF1614)
        + "expected shape: BPart has the lowest normalized time for every app\n\
           (paper: 5-70% faster than Fennel/Chunk-V, 10-60% faster than Chunk-E).\n")
        .into()
}

/// Hash vs BPart: both are two-dimensionally balanced, so the gap is the
/// edge cut's.
fn fig15(lab: &mut Lab) -> Figure {
    let t = lab.banner("Figure 15", "normalized running time, Hash = 1.0, k = 8");
    (t + &normalized(lab, &[TW, FR], &["Hash", "BPart"], 0xF1615)
        + "expected shape: BPart < 1.0 everywhere — paper reports 5-20% faster on the\n\
           walk apps and 20-35% faster on PR/CC, all from the lower edge-cut ratio.\n")
        .into()
}

/// §3.3: every pair of 64 weighted pieces of friendster_like shares edges.
fn connectivity(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Connectivity check (§3.3)",
        "edge connections between 64 weighted pieces, friendster_like",
    );
    let g = lab.graph(FR);
    let matrix = metrics::connectivity_matrix(&g, &WeightedStream::default().partition(&g, 64));
    // Pairwise (undirected) connection counts.
    let mut pairs: Vec<u64> = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        for (j, &forward) in row.iter().enumerate().skip(i + 1) {
            pairs.push(forward + matrix[j][i]);
        }
    }
    pairs.sort_unstable();
    let (len, zero) = (pairs.len(), pairs.iter().filter(|&&p| p == 0).count());
    let mean = pairs.iter().sum::<u64>() as f64 / len as f64;
    let rows = [
        ("pairs", len.to_string()),
        ("min connections", pairs[0].to_string()),
        ("median connections", pairs[len / 2].to_string()),
        ("mean connections", format!("{mean:.0}")),
        ("max connections", pairs[len - 1].to_string()),
        ("pairs with zero connections", zero.to_string()),
    ];
    let rows = rows.map(|(metric, value)| vec![metric.to_string(), value]);
    t += &table(&header("metric,value"), &rows);
    (t + "expected shape: zero disconnected pairs; the minimum scales with the graph\n\
          (the paper's full-scale Friendster shows >= 50K, typically 500K).\n")
        .into()
}

/// §4.2 + §5: the offline multilevel baseline and GD against BPart. The
/// partitions are timed, so they bypass the lab's cache.
fn mtkahip(lab: &mut Lab) -> Figure {
    let banner = lab.banner(
        "Mt-KaHIP comparison (§4.2)",
        "bias at k = 8: multilevel offline vs BPart",
    );
    let (mut rows, mut times) = (Vec::new(), Vec::new());
    for (name, g) in lab.graphs() {
        let schemes: [&dyn Partitioner; 3] = [&Multilevel, &GdPartitioner, &BPart::default()];
        for scheme in schemes {
            let (p, secs) = timed(|| scheme.partition(&g, 8));
            let [bv, be] = [p.vertex_counts(), p.edge_counts()].map(|c| f3(metrics::bias(c)));
            let cut = f3(metrics::edge_cut_ratio(&g, &p));
            rows.push(cells(&[name, scheme.name()], [bv, be, cut]));
            times.push(cells(&[name, scheme.name()], [format!("{secs:.3}")]));
        }
    }
    let text = table(
        &header("dataset,scheme,vertex bias,edge bias,edge-cut"),
        &rows,
    ) + "expected shape: the multilevel baseline's vertex bias is tiny but its edge\n\
           bias is large (the paper's 0.70-2.59 range); GD balances both dimensions but\n\
           costs an order of magnitude more time than BPart (and is limited to\n\
           power-of-two part counts); BPart keeps both < 0.1 at streaming cost.\n";
    split(
        banner,
        text,
        table(&header("dataset,scheme,time (s)"), &times),
    )
}

/// §5: the vertex-cut family, by replication factor.
fn vcut(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Vertex-cut comparison (§5)",
        "replication factor and edge balance at k = 8 (edge-partitioning model)",
    );
    let mut rows = Vec::new();
    for (name, g) in lab.graphs() {
        let schemes: [&dyn EdgePartitioner; 2] = [&RandomEdge::default(), &Hdrf::default()];
        for scheme in schemes {
            let ep = scheme.partition_edges(&g, 8);
            let rest = [ep.replication_factor(), metrics::bias(ep.edge_counts())];
            rows.push(cells(&[name, scheme.name()], rest.map(f3)));
        }
    }
    t += &table(&header("dataset,scheme,replication,edge bias"), &rows);
    (t + "expected shape: HDRF's replication factor is far below RandomEdge's (which\n\
          approaches k on dense graphs) at comparable edge balance — the reason the\n\
          vertex-cut literature the paper cites prefers degree-aware assignment.\n")
        .into()
}

/// BPart's design knobs on twitter_like at k = 8 (not in the paper;
/// DESIGN.md §5). Timed, so uncached.
fn ablation(lab: &mut Lab) -> Figure {
    let banner = lab.banner("Ablation", "BPart knobs on twitter_like, k = 8");
    let g = lab.graph(TW);
    let d = BPartConfig::default;
    let mut configs = Vec::new();
    for c in [0.0, 0.25, 0.5, 0.75, 1.0] {
        configs.push((format!("c = {c}"), BPartConfig { c, ..d() }));
    }
    for max_layers in [1u32, 2, 4, 6] {
        let cfg = BPartConfig { max_layers, ..d() };
        configs.push((format!("max_layers = {max_layers}"), cfg));
    }
    for epsilon in [0.02, 0.05, 0.1, 0.2] {
        let cfg = BPartConfig { epsilon, ..d() };
        configs.push((format!("epsilon = {epsilon}"), cfg));
    }
    for (order, label) in [
        (StreamOrder::Natural, "natural"),
        (StreamOrder::Random(7), "random"),
        (StreamOrder::Bfs, "bfs"),
        (StreamOrder::DegreeDescending, "degree desc"),
    ] {
        configs.push((format!("order = {label}"), BPartConfig { order, ..d() }));
    }
    let (mut rows, mut times) = (Vec::new(), Vec::new());
    for (label, cfg) in configs {
        let ((p, trace), secs) = timed(|| BPart::new(cfg).partition_with_trace(&g, 8));
        let q = metrics::quality(&g, &p);
        let [vb, eb, cut] = [q.vertex_bias, q.edge_bias, q.cut_ratio].map(f3);
        rows.push(cells(&[&label], [vb, eb, cut, trace.len().to_string()]));
        times.push(cells(&[&label], [format!("{secs:.3}")]));
    }
    let text = table(
        &header("config,vertex bias,edge bias,edge-cut,layers"),
        &rows,
    )
        + "expected shape: c = 1/2 balances both dimensions (extremes balance only one);\n\
           one layer is usually not enough, 2-4 converge (matching §3.3); looser epsilon\n\
           freezes earlier but with higher residual bias; stream order mostly moves the\n\
           edge-cut, not the balance.\n";
    split(banner, text, table(&header("config,time (s)"), &times))
}

/// Modelled PageRank and DeepWalk time with and without a crash of machine
/// 1 at superstep 7, per roster scheme, checkpointing every 2 supersteps.
/// The crashed run rolls back and replays, so its answers equal the clean
/// run's; a balanced partition also balances the replayed work.
fn faults(lab: &mut Lab) -> Figure {
    let mut t = lab.banner(
        "Fault tolerance",
        "crash at superstep 7, checkpoint every 2, 8 machines",
    );
    let g = lab.graph("lj_like");
    let mut tables = [Vec::new(), Vec::new()];
    for s in roster() {
        let p = lab.partition("lj_like", s, 8);
        let pagerank = twice("results", |plan| {
            let engine = IterationEngine::default_for(g.clone(), p.clone());
            let run = engine
                .with_checkpoint_every(2)
                .with_faults(plan)
                .run(&PageRank::new(10));
            (run.telemetry, run.values)
        });
        let deepwalk = twice("walks", |plan| {
            let engine = WalkEngine::default_for(g.clone(), p.clone()).with_recording();
            let engine = engine.with_checkpoint_every(2).with_faults(plan);
            let run = engine.run(&DeepWalk::new(10), &WalkStarts::PerVertex(1), 0xFA013);
            (run.telemetry, run.paths)
        });
        for (rows, [clean, faulted]) in tables.iter_mut().zip([pagerank, deepwalk]) {
            let (c, f) = (clean.total_time(), faulted.total_time());
            let recovery = [f3(c), f3(f), f3(faulted.total_recovery_time())].into_iter();
            let replays = faulted.replayed_supersteps().to_string();
            rows.push(cells(
                &[s],
                recovery.chain([replays, format!("{:.3}x", f / c)]),
            ));
        }
    }
    let head = header("scheme,clean,faulted,recovery,replays,overhead");
    for (app, rows) in ["(PageRank (10 iters))", "(DeepWalk (len 10))"]
        .iter()
        .zip(&tables)
    {
        t += &(format!("{app}\n") + &table(&head, rows));
    }
    (t + "expected shape: recovery adds the rolled-back supersteps plus the\n\
          restore cost; the overhead factor stays modest with checkpointing\n\
          and is smallest for schemes whose balanced load also balances the\n\
          replayed work (BPart).\n")
        .into()
}

/// One app run clean and then with machine 1 crashing at superstep 7;
/// recovery must not change its `answer`.
fn twice<T: PartialEq + Debug>(
    answer: &str,
    run: impl Fn(FaultPlan) -> (Telemetry, T),
) -> [Telemetry; 2] {
    let [(clean, a), (faulted, b)] = [FaultPlan::new(), FaultPlan::new().crash(7, 1)].map(run);
    assert_eq!(a, b, "recovery must not change {answer}");
    [clean, faulted]
}

//! # bpart-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); this library holds what they share: the scheme roster, dataset
//! loading, wall-clock timing and plain-text table rendering.
//!
//! Every binary honours the `BPART_SCALE` environment variable (default
//! `0.2`): datasets are generated at `scale ×` their preset size, so
//! `BPART_SCALE=1.0 cargo run --release -p bpart-bench --bin table3`
//! reproduces the full-size run while the default stays fast.

use bpart_core::prelude::*;
use bpart_engine::{apps as eapps, IterationEngine};
use bpart_graph::generate::{self, DatasetPreset};
use bpart_graph::CsrGraph;
use bpart_walker::{apps as wapps, WalkEngine, WalkStarts};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The scheme roster of the paper's §4 comparisons, in its ordering.
pub fn schemes() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(ChunkV),
        Box::new(ChunkE),
        Box::new(Fennel::default()),
        Box::new(HashPartitioner::default()),
        Box::new(BPart::default()),
    ]
}

/// Scheme roster plus the offline multilevel baseline (§4.2).
pub fn schemes_with_multilevel() -> Vec<Box<dyn Partitioner>> {
    let mut all = schemes();
    all.push(Box::new(bpart_multilevel::Multilevel::default()));
    all
}

/// `BPART_SCALE` as a scale factor: a positive, finite number.
fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Ok(s),
        _ => Err(format!(
            "BPART_SCALE must be a positive number, got {raw:?}"
        )),
    }
}

/// Experiment scale factor from `BPART_SCALE` (default 0.2), read once per
/// process. A value that is not a positive number ends the process with
/// exit code 2 before any table is printed at a size nobody asked for.
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| match std::env::var("BPART_SCALE") {
        Err(_) => 0.2,
        Ok(raw) => parse_scale(&raw).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }),
    })
}

/// All three dataset presets generated at the harness scale.
pub fn datasets() -> Vec<(String, CsrGraph)> {
    datasets_at(scale())
}

fn datasets_at(scale: f64) -> Vec<(String, CsrGraph)> {
    generate::ALL_PRESETS
        .iter()
        .map(|p| {
            let preset: DatasetPreset = p();
            (preset.name.to_string(), preset.generate_scaled(scale))
        })
        .collect()
}

/// One named dataset at the harness scale.
pub fn dataset(name: &str) -> CsrGraph {
    let preset = generate::preset_by_name(name).unwrap_or_else(|e| panic!("{e}"));
    preset.generate_scaled(scale())
}

/// Times a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Renders an aligned plain-text table: a header row plus data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints a banner naming the experiment and its configuration.
pub fn banner(experiment: &str, detail: &str) {
    let scale = scale();
    println!("== {experiment} ==");
    println!("   {detail}");
    println!("   scale = {scale} (set BPART_SCALE to change)");
    println!();
}

/// Formats a float with three decimals (the tables' standard precision).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The paper's seven-application names in Fig. 14's order: five
/// KnightKing walk apps then the two Gemini iteration apps.
pub fn app_names() -> Vec<&'static str> {
    vec!["PPR", "RWJ", "RWD", "DeepWalk", "node2vec", "PR", "CC"]
}

/// Runs the paper's seven applications (§4.1 parameters: |V| walks, PPR
/// stop 0.1, RWJ jump 0.2, 80-step corpus walks, PR 10 iterations, CC to
/// convergence) on one partitioned cluster and returns each app's total
/// modelled running time, in [`app_names`] order.
pub fn run_paper_apps(graph: &Arc<CsrGraph>, partition: &Arc<Partition>, seed: u64) -> Vec<f64> {
    let starts = WalkStarts::PerVertex(1);
    let mut times = Vec::with_capacity(7);
    let walk_apps: Vec<Box<dyn bpart_walker::WalkApp>> = vec![
        Box::new(wapps::Ppr::new(0.1, 80)),
        Box::new(wapps::Rwj::new(0.2, 10)),
        Box::new(wapps::Rwd::new(0.2, 10)),
        Box::new(wapps::DeepWalk::new(80)),
        Box::new(wapps::Node2vec::new(2.0, 0.5, 80)),
    ];
    for app in &walk_apps {
        let engine = WalkEngine::default_for(graph.clone(), partition.clone());
        let run = engine.run(app.as_ref(), &starts, seed);
        times.push(run.telemetry.total_time());
    }
    let engine = IterationEngine::default_for(graph.clone(), partition.clone());
    times.push(engine.run(&eapps::PageRank::new(10)).telemetry.total_time());
    times.push(
        engine
            .run(&eapps::ConnectedComponents)
            .telemetry
            .total_time(),
    );
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_roster_matches_paper_order() {
        let names: Vec<_> = schemes().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Chunk-V", "Chunk-E", "Fennel", "Hash", "BPart"]);
        assert_eq!(
            schemes_with_multilevel().last().unwrap().name(),
            "Mt-KaHIP-like"
        );
    }

    #[test]
    fn datasets_come_in_paper_order() {
        let names: Vec<_> = datasets_at(0.01).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["lj_like", "twitter_like", "friendster_like"]);
    }

    #[test]
    fn a_scale_is_a_positive_number_or_an_error_naming_what_was_given() {
        assert_eq!(parse_scale("0.02"), Ok(0.02));
        for bad in ["O.2", "", "0", "-1", "nan", "inf"] {
            assert!(parse_scale(bad).unwrap_err().contains(&format!("{bad:?}")));
        }
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name".into(), "v".into()],
            &[
                vec!["a".into(), "1".into()],
                vec!["long".into(), "22".into()],
            ],
        );
        let lines: Vec<_> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn timed_measures_something() {
        let (value, secs) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown preset")]
    fn unknown_dataset_panics() {
        dataset("nope");
    }
}

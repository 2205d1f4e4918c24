//! # bpart-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (index: DESIGN.md §4),
//! plus `faults`, is one row of [`FIGURES`]: a name and a function from a
//! [`Lab`] to a [`Figure`]. The `figures DIR [NAME…]` binary runs the rows
//! and writes each figure's deterministic text to `DIR/NAME.txt` and its
//! wall-clock text, if it has one, to `DIR/timings/NAME.txt`. `results/` is
//! that directory at `BPART_SCALE=0.2`, the default, and CI diffs it.

mod figures;

pub use figures::FIGURES;

use bpart_core::prelude::*;
use bpart_graph::{generate, CsrGraph};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The scheme roster of the paper's §4 comparisons, in its ordering.
pub fn schemes() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(ChunkV),
        Box::new(ChunkE),
        Box::new(Fennel),
        Box::new(HashPartitioner::default()),
        Box::new(BPart::default()),
    ]
}

/// Scheme roster plus the offline multilevel baseline (§4.2).
pub fn schemes_with_multilevel() -> Vec<Box<dyn Partitioner>> {
    let mut all = schemes();
    all.push(Box::new(bpart_multilevel::Multilevel));
    all
}

/// One figure's output: the text that depends only on the scale, and the
/// wall-clock text that does not (`timings/NAME.txt`, never diffed).
pub struct Figure {
    pub text: String,
    pub timings: Option<String>,
}

impl From<String> for Figure {
    fn from(text: String) -> Figure {
        Figure {
            text,
            timings: None,
        }
    }
}

/// What the figures share at one scale: each preset is generated at most
/// once, and each roster scheme partitions it at most once per part count.
pub struct Lab {
    scale: f64,
    graphs: HashMap<String, Arc<CsrGraph>>,
    partitions: HashMap<(String, &'static str, usize), Arc<Partition>>,
}

impl Lab {
    pub fn new(scale: f64) -> Lab {
        let (graphs, partitions) = (HashMap::new(), HashMap::new());
        Lab {
            scale,
            graphs,
            partitions,
        }
    }

    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// The preset called `name` at the lab's scale; panics naming the
    /// presets if there is none.
    pub(crate) fn graph(&mut self, name: &str) -> Arc<CsrGraph> {
        let preset = || generate::preset_by_name(name).unwrap_or_else(|e| panic!("{e}"));
        let make = || Arc::new(preset().generate_scaled(self.scale));
        self.graphs.entry(name.into()).or_insert_with(make).clone()
    }

    /// Every preset, in the paper's order.
    pub(crate) fn graphs(&mut self) -> Vec<(&'static str, Arc<CsrGraph>)> {
        let names = generate::ALL_PRESETS.map(|p| p().name);
        names.into_iter().map(|n| (n, self.graph(n))).collect()
    }

    /// Roster scheme `name`'s partition of preset `preset` into `k`
    /// parts; panics if [`schemes_with_multilevel`] has no such scheme.
    pub(crate) fn partition(&mut self, preset: &str, name: &str, k: usize) -> Arc<Partition> {
        let graph = self.graph(preset);
        let mut roster = schemes_with_multilevel().into_iter();
        let scheme = roster.find(|s| s.name() == name);
        let scheme = scheme.unwrap_or_else(|| panic!("{name:?} is not a roster scheme"));
        let make = || Arc::new(scheme.partition(&graph, k));
        let key = (preset.to_string(), scheme.name(), k);
        self.partitions.entry(key).or_insert_with(make).clone()
    }

    /// The header every figure's text starts with.
    pub(crate) fn banner(&self, experiment: &str, detail: &str) -> String {
        let scale = self.scale;
        format!(
            "== {experiment} ==\n   {detail}\n   scale = {scale} (set BPART_SCALE to change)\n\n"
        )
    }
}

/// Times a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Renders an aligned plain-text table: a header row, a rule, data rows.
pub(crate) fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), widths.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let cells: Vec<_> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    line(header) + &rule + "\n" + &rows.iter().map(|row| line(row)).collect::<String>()
}

/// Formats a float with three decimals (the tables' standard precision).
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
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
        let names: Vec<_> = Lab::new(0.01)
            .graphs()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["lj_like", "twitter_like", "friendster_like"]);
    }

    #[test]
    fn a_lab_builds_each_graph_and_partition_once() {
        let mut lab = Lab::new(0.01);
        assert!(Arc::ptr_eq(&lab.graph("lj_like"), &lab.graph("lj_like")));
        let p = lab.partition("lj_like", "Fennel", 4);
        assert!(Arc::ptr_eq(&p, &lab.partition("lj_like", "Fennel", 4)));
        assert!(!Arc::ptr_eq(&p, &lab.partition("lj_like", "Fennel", 8)));
        assert_eq!(*p, Fennel.partition(&lab.graph("lj_like"), 4));
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
        Lab::new(0.01).graph("nope");
    }
}

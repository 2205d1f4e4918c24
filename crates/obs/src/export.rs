//! Every external format, once: each is one function over the
//! [`Source`]s of a view — this process's [`Snapshot`] and, on a
//! distributed driver, the workers' — so an endpoint, a file and a test
//! render the driver and worker 3 with the same code.
//!
//! The workspace is zero-dependency, so text is emitted by hand. Spans are
//! one JSON object per line:
//!
//! ```text
//! {"id":3,"parent":1,"name":"stream.buffer","thread":0,"start_ns":120,"dur_ns":4500,"attrs":{"vertices":"4096"}}
//! ```
//!
//! `parent` is `null` for roots. Attribute values are always JSON strings
//! (they come through `Display`), which keeps the reader trivial.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::federation::{rebase_ns, worker_label, worker_span_id_base, WorkerObs};
use crate::json::{Num, Str};
use crate::metrics::sanitize_name;
use crate::snapshot::{HistogramValue, Snapshot, Span};
use crate::tracer::SpanRecord;

/// One process in a view.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// The process rendering the view.
    Local(&'a Snapshot),
    /// A worker, as its driver holds it.
    Worker(u32, &'a WorkerObs),
}

impl<'a> Source<'a> {
    fn snapshot(self) -> &'a Snapshot {
        match self {
            Source::Local(snapshot) => snapshot,
            Source::Worker(_, obs) => &obs.snapshot,
        }
    }

    /// The spans, each with the epoch of the incarnation whose ids it
    /// carries (a local span's is 0).
    fn epoch_spans(self) -> Vec<(u32, &'a Span)> {
        match self {
            Source::Local(snapshot) => snapshot.spans.iter().map(|s| (0, s)).collect(),
            Source::Worker(_, obs) => obs
                .span_keys
                .iter()
                .map(|k| k.0)
                .zip(&obs.snapshot.spans)
                .collect(),
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

enum Series<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a HistogramValue),
}

/// The Prometheus text exposition (`/metrics`, `--metrics-out`).
///
/// The local registry comes first, in name order with `# TYPE` lines. Each
/// worker follows: what its driver knows of it (`bpart_federation_*`:
/// staleness, deaths, clock estimate, report position), then the series of
/// its latest snapshot by kind, every line labelled `worker="N"`. Last,
/// the driver's RPC round-trip quantiles, from the bucket estimator
/// `bpart report`'s percentile columns share.
///
/// Sanitisation can alias distinct names (`a.b` and `a_b` both become
/// `a_b`); that is a caller bug the exposition must not hide, so colliding
/// names are flagged with a `# warning:` comment line (and on stderr).
pub fn prometheus(sources: &[Source<'_>]) -> String {
    let mut out = String::new();
    for &source in sources {
        let metrics = &source.snapshot().metrics;
        let counters = metrics
            .counters
            .iter()
            .map(|(n, &v)| (n, Series::Counter(v)));
        let gauges = metrics.gauges.iter().map(|(n, &v)| (n, Series::Gauge(v)));
        let histograms = metrics
            .histograms
            .iter()
            .map(|(n, h)| (n, Series::Histogram(h)));
        let mut series: Vec<_> = counters.chain(gauges).chain(histograms).collect();

        let mut sanitized: BTreeMap<String, Vec<&str>> = BTreeMap::new();
        for (name, _) in &series {
            sanitized.entry(sanitize_name(name)).or_default().push(name);
        }
        for (pname, names) in sanitized.iter().filter(|(_, names)| names.len() > 1) {
            let list = names.join("\", \"");
            let _ = writeln!(
                out,
                "# warning: sanitised name collision: \"{list}\" all map to {pname}"
            );
            eprintln!(
                "warning: metric names \"{list}\" all sanitise to {pname:?}; \
                 their exposition series alias each other"
            );
        }

        // Scrapers diff these files: the local registry has always been in
        // name order with `# TYPE` lines, a worker's series grouped by kind
        // without.
        let worker = match source {
            Source::Local(_) => {
                series.sort_by(|a, b| a.0.cmp(b.0));
                String::new()
            }
            Source::Worker(worker, obs) => {
                let label = format!("worker=\"{}\"", worker_label(worker));
                let mut meta = |name: &str, v: &dyn std::fmt::Display| {
                    let _ = writeln!(out, "bpart_federation_{name}{{{label}}} {v}");
                };
                meta("stale", &u64::from(obs.stale));
                meta("deaths", &obs.deaths);
                if let Some(clock) = obs.clock {
                    meta("clock_offset_ns", &clock.offset_ns);
                    meta("rtt_ns", &clock.rtt_ns);
                }
                if let Some((epoch, seq)) = obs.key {
                    meta("seq", &seq);
                    meta("epoch", &epoch);
                }
                label
            }
        };
        let labels = |le: &str| match (worker.as_str(), le) {
            ("", "") => String::new(),
            (one, "") | ("", one) => format!("{{{one}}}"),
            (worker, le) => format!("{{{worker},{le}}}"),
        };
        for (name, value) in series {
            let pname = sanitize_name(name);
            let mut typed = |kind| {
                if worker.is_empty() {
                    let _ = writeln!(out, "# TYPE {pname} {kind}");
                }
            };
            match value {
                Series::Counter(v) => {
                    typed("counter");
                    let _ = writeln!(out, "{pname}{} {v}", labels(""));
                }
                Series::Gauge(v) => {
                    typed("gauge");
                    let _ = writeln!(out, "{pname}{} {}", labels(""), fmt_f64(v));
                }
                Series::Histogram(h) => {
                    typed("histogram");
                    let mut cumulative = 0u64;
                    for (i, c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        let le = h.bounds.get(i).map_or("+Inf".to_string(), |&b| fmt_f64(b));
                        let le = labels(&format!("le=\"{le}\""));
                        let _ = writeln!(out, "{pname}_bucket{le} {cumulative}");
                    }
                    let _ = writeln!(out, "{pname}_sum{} {}", labels(""), fmt_f64(h.sum));
                    let _ = writeln!(out, "{pname}_count{} {}", labels(""), h.count);
                }
            }
        }
    }
    for source in sources {
        if let Source::Local(snapshot) = source {
            for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                if let Some(v) = snapshot.metrics.quantile("dist.rpc_rtt_ns", q) {
                    let _ = writeln!(out, "bpart_federation_rtt_{tag} {}", fmt_f64(v));
                }
            }
        }
    }
    out
}

/// The `/progress` JSON object: the local registry under its *original*
/// dotted names, grouped by kind, and — when the view has workers — a
/// `"workers"` object with each one's report position, staleness, clock
/// estimate, the counters of its latest snapshot and the supersteps it
/// finished. Non-finite `f64`s
/// become `null` (JSON has no NaN/Inf):
///
/// ```text
/// {"counters":{"cluster.supersteps":41},
///  "gauges":{"cluster.progress_superstep":40},
///  "histograms":{"walk.steps_per_block":{"count":7,"sum":120}},
///  "workers":{"0":{"stale":false,"deaths":0,"epoch":0,"seq":9,"counters":{},"supersteps":4}}}
/// ```
pub fn progress_json(sources: &[Source<'_>]) -> String {
    fn object<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
        let entries: Vec<String> = map
            .iter()
            .map(|(k, v)| format!("{}:{}", Str(k), value(v)))
            .collect();
        format!("{{{}}}", entries.join(","))
    }
    let counters = |snapshot: &Snapshot| object(&snapshot.metrics.counters, u64::to_string);
    let mut out = String::from("{");
    let mut workers = Vec::new();
    for &source in sources {
        match source {
            Source::Local(snapshot) => {
                let _ = write!(
                    out,
                    "\"counters\":{},\"gauges\":{},\"histograms\":{}",
                    counters(snapshot),
                    object(&snapshot.metrics.gauges, |&v| Num(v).to_string()),
                    object(&snapshot.metrics.histograms, |h| {
                        format!("{{\"count\":{},\"sum\":{}}}", h.count, Num(h.sum))
                    }),
                );
            }
            Source::Worker(worker, obs) => {
                let mut entry = format!(
                    "\"{}\":{{\"stale\":{},\"deaths\":{}",
                    worker_label(worker),
                    obs.stale,
                    obs.deaths
                );
                if let Some((epoch, seq)) = obs.key {
                    let counters = counters(&obs.snapshot);
                    let _ = write!(
                        entry,
                        ",\"epoch\":{epoch},\"seq\":{seq},\"counters\":{counters}"
                    );
                }
                if let Some(clock) = obs.clock {
                    let _ = write!(
                        entry,
                        ",\"offset_ns\":{},\"rtt_ns\":{}",
                        clock.offset_ns, clock.rtt_ns
                    );
                }
                let _ = write!(entry, ",\"supersteps\":{}}}", obs.supersteps);
                workers.push(entry);
            }
        }
    }
    if !workers.is_empty() {
        let _ = write!(out, ",\"workers\":{{{}}}", workers.join(","));
    }
    out.push('}');
    out
}

/// Spans as JSONL (`/spans`, `--trace-out`), one object per line on one
/// timeline. Local spans are written as recorded. A worker's are rebased
/// onto the local clock by its estimated offset (saturating at zero) and
/// moved into an id range of their incarnation's own, far above any live
/// tracer id; a root `worker.superstep` parents under the local
/// `cluster.superstep` of the same epoch and superstep when that span is in
/// the view, so a report nests worker work under driver supersteps.
pub fn spans_jsonl(sources: &[Source<'_>]) -> String {
    fn step_key(s: &Span) -> Option<(&str, &str)> {
        Some((s.attr("epoch")?, s.attr("superstep")?))
    }
    let mut driver_steps = BTreeMap::new();
    for source in sources {
        if let Source::Local(snapshot) = source {
            for s in &snapshot.spans {
                if let ("cluster.superstep", Some(key)) = (s.name.as_str(), step_key(s)) {
                    driver_steps.insert(key, s.id);
                }
            }
        }
    }
    let mut out = String::new();
    for &source in sources {
        let (worker, offset_ns) = match source {
            Source::Local(_) => (None, 0),
            Source::Worker(worker, obs) => (Some(worker), obs.clock.map_or(0, |c| c.offset_ns)),
        };
        for (epoch, s) in source.epoch_spans() {
            let base = worker.map_or(0, |w| worker_span_id_base(w, epoch));
            let parent = match s.parent {
                Some(p) => Some(base + p),
                None if base != 0 && s.name == "worker.superstep" => {
                    step_key(s).and_then(|key| driver_steps.get(&key).copied())
                }
                None => None,
            };
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("{}:{}", Str(k), Str(v)))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"attrs\":{{{}}}}}",
                base + s.id,
                Str(&s.name),
                s.thread,
                rebase_ns(s.start_ns, offset_ns),
                s.dur_ns,
                attrs.join(","),
            );
        }
    }
    out
}

/// Renders tracer-ring spans as JSONL: [`spans_jsonl`] over a snapshot
/// holding just them.
pub fn trace_to_jsonl(spans: &[SpanRecord]) -> String {
    let snapshot = Snapshot {
        spans: spans.iter().map(Span::from).collect(),
        ..Snapshot::default()
    };
    spans_jsonl(&[Source::Local(&snapshot)])
}

/// The flame view as folded-stack text (`/profile`, `--profile-out`, the
/// input of `bpart report --profile`): each span's name path from its root,
/// counting its self time in ns (its duration less its same-thread
/// children's), under `driver;` or `worker:N;`. A span whose parent is not
/// in its incarnation starts a stack, and `# dropped N spans` says the
/// local ring evicted some.
pub fn folded(sources: &[Source<'_>]) -> String {
    let mut out = match crate::tracer::dropped_spans() {
        0 => String::new(),
        dropped => format!("# dropped {dropped} spans\n"),
    };
    for &source in sources {
        let prefix = match source {
            Source::Local(_) => "driver".to_string(),
            Source::Worker(worker, _) => format!("worker:{}", worker_label(worker)),
        };
        for (stack, ns) in fold(source.epoch_spans()) {
            if ns > 0 {
                let _ = writeln!(out, "{prefix};{stack} {ns}");
            }
        }
    }
    out
}

/// One source's stacks and the self time each took, in nanoseconds.
fn fold(mut spans: Vec<(u32, &Span)>) -> BTreeMap<String, i128> {
    spans.sort_by_key(|&(epoch, s)| (epoch, s.id));
    let (mut stacks, mut folded) = (Vec::<String>::new(), BTreeMap::new());
    for &(epoch, s) in &spans {
        // A parent opened first, so its id is smaller and its stack built;
        // a link forward or to another thread starts a stack (no cycles).
        let parent = s
            .parent
            .filter(|&p| p < s.id)
            .and_then(|p| {
                spans
                    .binary_search_by_key(&(epoch, p), |&(e, t)| (e, t.id))
                    .ok()
            })
            .filter(|&at| spans[at].1.thread == s.thread);
        // `;` separates frames, whitespace ends the stack.
        let frame = s.name.replace(|c: char| c == ';' || c.is_whitespace(), "_");
        let stack = match parent {
            Some(at) => {
                *folded.get_mut(&stacks[at]).expect("parent folded first") -= i128::from(s.dur_ns);
                format!("{};{frame}", stacks[at])
            }
            None => frame,
        };
        *folded.entry(stack.clone()).or_insert(0) += i128::from(s.dur_ns);
        stacks.push(stack);
    }
    folded
}

/// Parses folded-stack text back into `(stack, count)` pairs. Lines
/// starting with `#` and blank lines are ignored (the exporters use `#`
/// for provenance comments). Returns a message naming the first bad line.
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no count field: {line:?}", idx + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: bad count {count:?}", idx + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", idx + 1));
        }
        out.push((stack.to_string(), count));
    }
    Ok(out)
}

/// Writes a rendered view to `path`, creating its parent directory if it
/// is missing. Exports happen at the *end* of a run; failing a long job
/// because `results/` did not exist yet would throw the work away.
pub fn write(path: &Path, body: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_json_shape_roots_and_children() {
        let root = SpanRecord {
            id: 1,
            parent: None,
            name: "t.export.root",
            thread: 0,
            start_ns: 10,
            dur_ns: 100,
            attrs: vec![("layer", "2".to_string())],
        };
        let child = SpanRecord {
            id: 2,
            parent: Some(1),
            name: "t.export.child",
            thread: 0,
            start_ns: 20,
            dur_ns: 50,
            attrs: vec![],
        };
        assert_eq!(
            trace_to_jsonl(&[root, child]),
            "{\"id\":1,\"parent\":null,\"name\":\"t.export.root\",\"thread\":0,\"start_ns\":10,\"dur_ns\":100,\"attrs\":{\"layer\":\"2\"}}\n\
             {\"id\":2,\"parent\":1,\"name\":\"t.export.child\",\"thread\":0,\"start_ns\":20,\"dur_ns\":50,\"attrs\":{}}\n"
        );
    }

    fn span(id: u64, parent: Option<u64>, name: &str, thread: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            thread,
            start_ns: 0,
            dur_ns,
            attrs: vec![],
        }
    }

    fn local(spans: Vec<Span>) -> Snapshot {
        Snapshot {
            spans,
            ..Snapshot::default()
        }
    }

    /// The view of one worker, 3, that absorbed `reports` as `(epoch, spans)`.
    fn worker_store(reports: Vec<(u32, Vec<Span>)>) -> crate::federation::FederationStore {
        let mut store = crate::federation::FederationStore::default();
        for (seq, (epoch, spans)) in reports.into_iter().enumerate() {
            store.absorb(3, epoch, seq as u64, local(spans));
        }
        store
    }

    #[test]
    fn a_tree_folds_to_each_paths_self_time() {
        // A root of 100 ns, two children of 30 and 20 (one with a child of
        // 5), and a second root with the first root's name.
        let spans = vec![
            span(4, Some(2), "leaf", 0, 5),
            span(2, Some(1), "a", 0, 30),
            span(3, Some(1), "b", 0, 20),
            span(1, None, "root", 0, 100),
            span(5, None, "root", 0, 7),
        ];
        let folded = folded(&[Source::Local(&local(spans))]);
        assert_eq!(
            folded,
            "driver;root 57\ndriver;root;a 25\ndriver;root;a;leaf 5\ndriver;root;b 20\n"
        );
    }

    #[test]
    fn each_sources_counts_sum_to_its_roots_durations() {
        let driver = local(vec![
            span(1, None, "cluster.superstep", 0, 900),
            span(2, Some(1), "cluster.exchange", 0, 400),
            span(3, Some(2), "cluster.wait", 0, 150),
            // Another thread's root, and a span whose parent link crosses
            // threads: roots both.
            span(4, None, "pool.task", 1, 80),
            span(5, Some(1), "pool.task", 2, 60),
        ]);
        let store = worker_store(vec![(
            0,
            vec![
                span(1, None, "worker.superstep", 0, 500),
                span(2, Some(1), "worker.compute", 0, 320),
            ],
        )]);
        let text = folded(&store.sources(&driver));
        let sum = |prefix: &str| -> u64 {
            parse_folded(&text)
                .unwrap()
                .iter()
                .filter(|(stack, _)| stack.starts_with(prefix))
                .map(|(_, ns)| ns)
                .sum()
        };
        assert_eq!(sum("driver;"), 900 + 80 + 60, "{text}");
        assert_eq!(sum("worker:3;"), 500, "{text}");
    }

    #[test]
    fn a_span_whose_parent_is_absent_starts_its_own_stack() {
        let spans = vec![
            span(7, Some(3), "orphan", 0, 40),
            span(8, Some(7), "child", 0, 15),
        ];
        assert_eq!(
            folded(&[Source::Local(&local(spans))]),
            "driver;orphan 25\ndriver;orphan;child 15\n"
        );
    }

    /// Worker 3 died in epoch 0 and its successor counted span ids from 1
    /// again in epoch 1; both incarnations are in the view.
    fn respawned_worker() -> crate::federation::FederationStore {
        worker_store(vec![
            (
                0,
                vec![
                    span(1, None, "worker.superstep", 0, 100),
                    span(2, Some(1), "worker.compute", 0, 60),
                ],
            ),
            (
                1,
                vec![
                    span(1, None, "worker.restore", 0, 30),
                    span(2, Some(1), "worker.load", 0, 10),
                    span(3, Some(2), "worker.compute", 0, 4),
                ],
            ),
        ])
    }

    #[test]
    fn colliding_ids_of_two_epochs_fold_under_their_own_parents() {
        let store = respawned_worker();
        let text = folded(&store.sources(&Snapshot::default()));
        assert_eq!(
            text,
            "worker:3;worker.restore 20\n\
             worker:3;worker.restore;worker.load 6\n\
             worker:3;worker.restore;worker.load;worker.compute 4\n\
             worker:3;worker.superstep 40\n\
             worker:3;worker.superstep;worker.compute 60\n"
        );
    }

    #[test]
    fn two_epochs_get_disjoint_ids_and_the_report_counts_each_span_once() {
        let store = respawned_worker();
        let jsonl = spans_jsonl(&store.sources(&Snapshot::default()));
        let spans = crate::report::parse_trace_jsonl(&jsonl).unwrap();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "{jsonl}");
        let tree = crate::report::build_tree(&spans);
        let count = |name: &str| -> u64 {
            fn walk(nodes: &[crate::report::TreeNode], name: &str) -> u64 {
                nodes
                    .iter()
                    .map(|n| u64::from(n.name == name) * n.count + walk(&n.children, name))
                    .sum()
            }
            walk(&tree, name)
        };
        for (name, n) in [
            ("worker.superstep", 1),
            ("worker.restore", 1),
            ("worker.load", 1),
            ("worker.compute", 2),
        ] {
            assert_eq!(count(name), n, "{name} in {tree:#?}");
        }
    }

    #[test]
    fn a_name_that_could_break_a_line_folds_to_one_that_parses() {
        let spans = vec![span(1, None, "a;b c\nd", 0, 9)];
        let text = folded(&[Source::Local(&local(spans))]);
        assert_eq!(text.lines().count(), 1, "{text:?}");
        assert_eq!(
            parse_folded(&text).unwrap(),
            [("driver;a_b_c_d".to_string(), 9)]
        );
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let text = "# provenance comment\na;b;c 12\nroot 3\n\n";
        let parsed = parse_folded(text).unwrap();
        assert_eq!(
            parsed,
            vec![("a;b;c".to_string(), 12), ("root".to_string(), 3)]
        );
        assert!(parse_folded("no-count-line\n").is_err());
        assert!(parse_folded("stack notanumber\n").is_err());
        assert!(parse_folded(" 7\n").is_err());
    }

    #[test]
    fn exports_create_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!("bpart_obs_export_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two levels of nesting that do not exist yet.
        let trace_path = dir.join("nested/deeper/trace.jsonl");
        let span = SpanRecord {
            id: 1,
            parent: None,
            name: "t.export.nested",
            thread: 0,
            start_ns: 0,
            dur_ns: 1,
            attrs: vec![],
        };
        write(&trace_path, &trace_to_jsonl(&[span])).expect("export must create parents");
        // The nested trace round-trips through the report parser.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let parsed = crate::report::parse_trace_jsonl(&text).expect("parse");
        assert_eq!(parsed[0].name, "t.export.nested");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

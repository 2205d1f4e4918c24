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
/// moved into an id range of their own, far above any live tracer id; a
/// root `worker.superstep` parents under the local `cluster.superstep`
/// span of the same epoch and superstep when that span is in the view, so
/// a report nests worker work under driver supersteps.
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
        let (base, offset_ns) = match source {
            Source::Local(_) => (0, 0),
            Source::Worker(worker, obs) => (
                worker_span_id_base(worker),
                obs.clock.map_or(0, |c| c.offset_ns),
            ),
        };
        for s in &source.snapshot().spans {
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
/// input of `bpart report --profile`): local stacks prefixed `driver;`,
/// each worker's `worker:N;` — one flamegraph-compatible document.
pub fn folded(sources: &[Source<'_>]) -> String {
    let mut out = String::new();
    for &source in sources {
        let prefix = match source {
            Source::Local(_) => "driver".to_string(),
            Source::Worker(worker, _) => format!("worker:{}", worker_label(worker)),
        };
        for (stack, count) in &source.snapshot().profile {
            let _ = writeln!(out, "{prefix};{stack} {count}");
        }
    }
    out
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

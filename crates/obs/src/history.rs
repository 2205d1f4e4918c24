//! Run history: one JSON record per run under `results/history/`, and a
//! watched-metric regression diff between two records.
//!
//! A record captures what would otherwise only live in scrollback —
//! which graph, which configuration, which commit, and the run's
//! headline numbers (wall time, cut ratio, plus whatever metrics the
//! emitter attaches). `bpart obs diff a.json b.json` then compares two
//! records metric by metric and fails (non-zero exit, via the CLI) when
//! a *watched* metric regressed beyond its threshold; this is the gate
//! that keeps the bench trajectory honest.
//!
//! All metrics are lower-is-better by convention (times, ratios, cut
//! fractions); a watched metric regresses when
//! `b > a × (1 + max_increase)`. Records are single-line JSON:
//!
//! ```text
//! {"label":"run","graph":"lj_like","git_rev":"abc123","unix_time":1754000000,
//!  "config":{"parts":"8"},"metrics":{"wall_time_secs":1.25,"cut_ratio":0.31}}
//! ```
//!
//! Cross-host caveat: wall times are only comparable between runs on the
//! same machine. CI therefore watches the deterministic quality metrics
//! (cut ratios, which are bit-identical for sequential streaming on any
//! host) and leaves wall-time watching to same-host workflows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::export::escape_json;
use crate::report::Parser;

/// One run's history record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// What kind of run this was (`"run"`, `"partition"`, a bench name).
    pub label: String,
    /// Input graph (path or generator name).
    pub graph: String,
    /// Git revision the run was built from, as passed in by the caller
    /// (`--git-rev`, `$GITHUB_SHA`); `"unknown"` when unavailable.
    pub git_rev: String,
    /// Seconds since the Unix epoch when the record was created.
    pub unix_time: u64,
    /// Configuration key/values (parts, scheme, threads, …) as strings.
    pub config: BTreeMap<String, String>,
    /// Named measurements, lower-is-better by convention.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// A fresh record stamped with the current time and the ambient git
    /// revision ([`env_git_rev`]).
    pub fn new(label: &str, graph: &str) -> Self {
        RunRecord {
            label: label.to_string(),
            graph: graph.to_string(),
            git_rev: env_git_rev(),
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            config: BTreeMap::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Overrides the git revision (the CLI's `--git-rev` flag).
    pub fn with_git_rev(mut self, rev: &str) -> Self {
        self.git_rev = rev.to_string();
        self
    }

    /// Records one configuration key (stringly; it is provenance, not
    /// data to compute on).
    pub fn set_config(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.insert(key.to_string(), value.to_string());
    }

    /// Records one measurement.
    pub fn set_metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Renders the record as one line of JSON (no trailing newline).
    /// Non-finite metric values become `null` (JSON has no NaN/Inf).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"graph\":\"{}\",\"git_rev\":\"{}\",\"unix_time\":{}",
            escape_json(&self.label),
            escape_json(&self.graph),
            escape_json(&self.git_rev),
            self.unix_time,
        );
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if v.is_finite() {
                let _ = write!(out, "\"{}\":{v}", escape_json(k));
            } else {
                let _ = write!(out, "\"{}\":null", escape_json(k));
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses a [`to_json`] record back (`null` metrics come back NaN).
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let mut p = Parser::new(text.trim());
        let mut record = RunRecord::default();
        let mut saw_label = false;
        p.expect('{')?;
        if !p.try_consume('}') {
            loop {
                let key = p.string()?;
                p.expect(':')?;
                match key.as_str() {
                    "label" => {
                        record.label = p.string()?;
                        saw_label = true;
                    }
                    "graph" => record.graph = p.string()?,
                    "git_rev" => record.git_rev = p.string()?,
                    "unix_time" => record.unix_time = p.u64()?,
                    "config" => record.config = p.object(Parser::string)?.into_iter().collect(),
                    "metrics" => record.metrics = p.object(Parser::f64)?.into_iter().collect(),
                    other => return Err(format!("unknown key {other:?}")),
                }
                if !p.try_consume(',') {
                    break;
                }
            }
            p.expect('}')?;
        }
        p.end()?;
        if !saw_label {
            return Err("missing \"label\"".to_string());
        }
        Ok(record)
    }

    /// Writes the record to `path`, creating missing parent directories
    /// (history lands under `results/history/`, which need not exist).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::export::write(path, &format!("{}\n", self.to_json()))
    }

    /// Reads a record back from `path`.
    pub fn read(path: &Path) -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunRecord::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The git revision the environment knows about: `BPART_GIT_REV` (set by
/// callers/tests), else `GITHUB_SHA` (set by CI), else `"unknown"`. No
/// subprocess is spawned — a library must not shell out to `git`.
pub fn env_git_rev() -> String {
    std::env::var("BPART_GIT_REV")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// A regression watch: `metric` may grow by at most `max_increase`
/// (fractional; `0.05` = 5%) between the baseline and the candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct Watch {
    pub metric: String,
    pub max_increase: f64,
}

impl Watch {
    pub fn new(metric: &str, max_increase: f64) -> Self {
        Watch {
            metric: metric.to_string(),
            max_increase,
        }
    }
}

/// One metric's comparison between two records.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    pub name: String,
    /// Baseline value (`None` when the metric is new in `b`).
    pub a: Option<f64>,
    /// Candidate value (`None` when the metric disappeared).
    pub b: Option<f64>,
    pub watched: bool,
    /// True when the watch's threshold was exceeded.
    pub regressed: bool,
}

/// The full diff between two records.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    pub a_label: String,
    pub b_label: String,
    pub deltas: Vec<MetricDelta>,
}

impl DiffReport {
    /// Whether any watched metric regressed beyond its threshold.
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// Renders the per-metric delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "history diff: {} → {}", self.a_label, self.b_label);
        let name_w = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>14}  {:>14}  {:>9}",
            "metric", "baseline", "candidate", "delta"
        );
        for d in &self.deltas {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
            let delta = match (d.a, d.b) {
                (Some(a), Some(b)) if a != 0.0 && a.is_finite() && b.is_finite() => {
                    format!("{:+.2}%", (b - a) * 100.0 / a)
                }
                _ => "-".to_string(),
            };
            let mark = if d.regressed {
                "  REGRESSED"
            } else if d.watched {
                "  watched"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>14}  {:>14}  {:>9}{mark}",
                d.name,
                fmt(d.a),
                fmt(d.b),
                delta,
            );
        }
        if self.has_regressions() {
            let _ = writeln!(out, "\nwatched metric(s) regressed beyond threshold");
        } else {
            let _ = writeln!(out, "\nno watched regressions");
        }
        out
    }
}

/// Compares two records over the union of their metric names. A watched
/// metric regresses when both values exist, the baseline is positive and
/// finite, and `b > a × (1 + max_increase)` (lower is better). NaN on
/// either side never counts as a regression — it shows as `-`/`NaN` in
/// the table instead of failing the gate on unreadable data.
pub fn diff(a: &RunRecord, b: &RunRecord, watches: &[Watch]) -> DiffReport {
    let mut names: Vec<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let deltas = names
        .into_iter()
        .map(|name| {
            let av = a.metrics.get(name).copied();
            let bv = b.metrics.get(name).copied();
            let watch = watches.iter().find(|w| &w.metric == name);
            let regressed = match (watch, av, bv) {
                (Some(w), Some(av), Some(bv)) => {
                    av.is_finite() && av > 0.0 && bv > av * (1.0 + w.max_increase)
                }
                _ => false,
            };
            MetricDelta {
                name: name.clone(),
                a: av,
                b: bv,
                watched: watch.is_some(),
                regressed,
            }
        })
        .collect();
    DiffReport {
        a_label: a.label.clone(),
        b_label: b.label.clone(),
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord::new("run", "lj_like").with_git_rev("abc123");
        r.set_config("parts", 8);
        r.set_config("scheme", "bpart-p1");
        r.set_metric("wall_time_secs", 1.25);
        r.set_metric("cut_ratio", 0.3125);
        r
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut r = sample();
        r.set_config("note", "quotes \" and \\ back\nslash");
        r.set_metric("poisoned", f64::NAN);
        let parsed = RunRecord::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(parsed.label, "run");
        assert_eq!(parsed.graph, "lj_like");
        assert_eq!(parsed.git_rev, "abc123");
        assert_eq!(parsed.unix_time, r.unix_time);
        assert_eq!(parsed.config, r.config);
        assert_eq!(parsed.metrics["wall_time_secs"], 1.25);
        assert_eq!(parsed.metrics["cut_ratio"], 0.3125);
        // Non-finite went out as null and came back NaN.
        assert!(r.to_json().contains("\"poisoned\":null"));
        assert!(parsed.metrics["poisoned"].is_nan());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunRecord::from_json("").is_err());
        assert!(
            RunRecord::from_json("{\"graph\":\"g\"}").is_err(),
            "label required"
        );
        assert!(RunRecord::from_json("{\"label\":\"x\"} trailing").is_err());
        assert!(RunRecord::from_json("{\"label\":\"x\",\"metrics\":{\"m\":oops}}").is_err());
    }

    #[test]
    fn write_creates_history_directory_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("bpart_obs_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results/history/run.json");
        let r = sample();
        r.write(&path).expect("write must create parents");
        let back = RunRecord::read(&path).expect("read");
        assert_eq!(back, r);
        assert!(RunRecord::read(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_flags_only_watched_regressions_beyond_threshold() {
        let mut a = sample();
        let mut b = sample();
        b.label = "candidate".to_string();
        // >5% wall-time regression (the acceptance-criteria case).
        a.set_metric("wall_time_secs", 1.0);
        b.set_metric("wall_time_secs", 1.2);
        // Within threshold.
        a.set_metric("cut_ratio", 0.30);
        b.set_metric("cut_ratio", 0.305);
        // Huge increase on an unwatched metric: reported, not fatal.
        a.set_metric("messages", 100.0);
        b.set_metric("messages", 900.0);
        let watches = vec![
            Watch::new("wall_time_secs", 0.05),
            Watch::new("cut_ratio", 0.05),
        ];
        let report = diff(&a, &b, &watches);
        assert!(report.has_regressions());
        let wall = report
            .deltas
            .iter()
            .find(|d| d.name == "wall_time_secs")
            .unwrap();
        assert!(wall.regressed && wall.watched);
        let cut = report
            .deltas
            .iter()
            .find(|d| d.name == "cut_ratio")
            .unwrap();
        assert!(cut.watched && !cut.regressed);
        let msgs = report.deltas.iter().find(|d| d.name == "messages").unwrap();
        assert!(!msgs.watched && !msgs.regressed);
        let text = report.render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("+20.00%"), "{text}");

        // A 1% change passes the 5% watch.
        b.set_metric("wall_time_secs", 1.01);
        assert!(!diff(&a, &b, &watches).has_regressions());
    }

    #[test]
    fn diff_tolerates_missing_and_nan_metrics() {
        let mut a = sample();
        let mut b = sample();
        a.set_metric("only_in_a", 1.0);
        b.set_metric("only_in_b", 2.0);
        a.set_metric("wall_time_secs", f64::NAN);
        b.set_metric("wall_time_secs", 99.0);
        let watches = vec![
            Watch::new("wall_time_secs", 0.05),
            Watch::new("only_in_b", 0.05),
        ];
        let report = diff(&a, &b, &watches);
        // NaN baseline and one-sided metrics never regress.
        assert!(!report.has_regressions());
        assert_eq!(report.deltas.iter().filter(|d| d.a.is_none()).count(), 1);
        assert_eq!(report.deltas.iter().filter(|d| d.b.is_none()).count(), 1);
        let text = report.render();
        assert!(text.contains("only_in_a"), "{text}");
        assert!(text.contains("no watched regressions"), "{text}");
    }

    #[test]
    fn env_git_rev_prefers_explicit_override() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback contract on whatever is ambient.
        let rev = env_git_rev();
        assert!(!rev.is_empty());
    }
}

//! One process at one instant.
//!
//! A [`Snapshot`] is everything a process can say about itself: its
//! metrics registry and the spans it has closed. The
//! local process builds one with [`Snapshot::capture`]; a worker's
//! arrives over the wire (the `dist` protocol encodes the same type).
//! Every external format — Prometheus
//! text, span JSONL, folded stacks, the `/progress` JSON — is a function
//! of snapshots in [`crate::export`], whichever process they came from.

use std::collections::BTreeMap;

use crate::tracer::{self, SpanRecord};

/// A closed span with owned strings: what crosses a process boundary and
/// what a trace file parses back to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the process that recorded it.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    pub name: String,
    /// Small per-thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Nanoseconds since the recording process's tracer epoch at open.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Attributes in the order they were attached.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The value of attribute `key`, if the span carries it.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl From<&SpanRecord> for Span {
    fn from(s: &SpanRecord) -> Self {
        Span {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            thread: s.thread,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            attrs: s
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// A histogram's full state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramValue {
    /// Finite ascending upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

/// A process's metrics at an instant, by original (dotted) name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramValue>,
}

impl Metrics {
    /// Value of a counter or gauge; `None` when absent or a histogram
    /// (those answer [`quantile`](Self::quantile) only).
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.counters
            .get(name)
            .map(|&v| v as f64)
            .or_else(|| self.gauges.get(name).copied())
    }

    /// Estimated `q`-quantile of histogram `name`
    /// ([`crate::metrics::quantile_from_buckets`]).
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let h = self.histograms.get(name)?;
        crate::metrics::quantile_from_buckets(&h.bounds, &h.buckets, q)
    }
}

/// One process at one instant. The fields are public and the type has a
/// `Default`, so a caller that serves one format fills only what that
/// format reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub metrics: Metrics,
    /// Closed spans in close order.
    pub spans: Vec<Span>,
}

impl Snapshot {
    /// Captures the calling process. `cursor` is a position in the
    /// tracer's close order: the spans closed since the capture that last
    /// advanced it are taken and it moves past them, so repeated captures
    /// ship each span once; `&mut 0` takes the whole ring.
    pub fn capture(cursor: &mut u64) -> Snapshot {
        Snapshot {
            metrics: crate::metrics::capture(),
            spans: spans_since(cursor),
        }
    }
}

/// The spans closed since `cursor`, owned; see [`Snapshot::capture`].
pub fn spans_since(cursor: &mut u64) -> Vec<Span> {
    tracer::closed_since(cursor)
        .iter()
        .map(Span::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans of this test only: the tracer is global and unit tests share
    /// a process.
    fn names(snapshot: &Snapshot, prefix: &str) -> Vec<String> {
        snapshot
            .spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.name.clone())
            .collect()
    }

    #[test]
    fn a_parent_that_closes_after_a_capture_is_in_the_next_one() {
        // The cursor follows close order. A watermark on span ids (open
        // order) moved past the still-open parent here and never shipped it.
        crate::set_trace_enabled(true);
        let mut cursor = 0;
        let a = crate::span("t.cursor.a");
        drop(crate::span("t.cursor.b"));
        let first = Snapshot::capture(&mut cursor);
        drop(a);
        let second = Snapshot::capture(&mut cursor);
        assert_eq!(names(&first, "t.cursor."), ["t.cursor.b"]);
        assert_eq!(names(&second, "t.cursor."), ["t.cursor.a"]);
        assert!(names(&Snapshot::capture(&mut cursor), "t.cursor.").is_empty());
    }

    #[test]
    fn capture_reads_the_live_registry_and_owns_its_spans() {
        crate::set_trace_enabled(true);
        crate::metrics::counter("t.snapshot.count").add(3);
        {
            let mut s = crate::span("t.snapshot.span");
            s.attr("k", 8);
        }
        let snapshot = Snapshot::capture(&mut 0);
        assert_eq!(snapshot.metrics.scalar("t.snapshot.count"), Some(3.0));
        let span = snapshot
            .spans
            .iter()
            .find(|s| s.name == "t.snapshot.span")
            .expect("span captured");
        assert_eq!(span.attr("k"), Some("8"));
        assert_eq!(span.attr("absent"), None);
    }

    #[test]
    fn metrics_answer_scalars_and_quantiles_by_kind() {
        let mut m = Metrics::default();
        m.counters.insert("c".into(), 5);
        m.gauges.insert("g".into(), 0.5);
        m.histograms.insert(
            "h".into(),
            HistogramValue {
                bounds: vec![5.0, 10.0],
                buckets: vec![50, 50, 0],
                count: 100,
                sum: 0.0,
            },
        );
        assert_eq!(m.scalar("c"), Some(5.0));
        assert_eq!(m.scalar("g"), Some(0.5));
        assert_eq!(m.scalar("h"), None);
        assert_eq!(m.quantile("h", 0.75), Some(7.5));
        assert_eq!(m.quantile("c", 0.5), None);
    }
}

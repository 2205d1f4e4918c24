//! # bpart-obs — the workspace observability layer
//!
//! The paper's headline claims (Figs. 11–14) are observability claims:
//! per-machine compute/communication skew, waiting ratios, and per-phase
//! partitioning cost. This crate is the measurement substrate behind them —
//! a zero-dependency (std-only), thread-safe layer shared by every crate:
//!
//! * **Span tracer** ([`tracer`]) — hierarchical wall-time spans with
//!   per-span `key=value` attributes and a bounded ring buffer of closed
//!   spans, stamped on a clock every process of a host shares.
//!   Parent/child nesting is tracked per thread, so spans opened on the
//!   orchestrating thread nest naturally while worker threads get their
//!   own roots. Recording is gated by a runtime flag (one relaxed atomic
//!   load when off), so the tracer can ship enabled in release builds.
//! * **Metrics registry** ([`metrics`]) — named counters and gauges
//!   backed by relaxed atomics; cheap enough to stay on unconditionally.
//!   Handles are `&'static` and lock-free on the hot path (the registry
//!   lock is only taken at lookup time, which call sites cache in a
//!   `OnceLock`).
//! * **Snapshot** ([`snapshot`]) — one process at one instant: its
//!   metrics and closed spans, captured locally or decoded from a
//!   worker's report.
//! * **Exporters** ([`export`]) — every external format as one function
//!   over snapshots, served or written, driver or worker: Prometheus text,
//!   span JSONL, the `/progress` JSON and the flame view (the spans' self
//!   times as folded stacks); plus the span-tree report ([`report`]) of
//!   `bpart report`. [`json`] writes and reads every JSON string and float.
//! * **Live serving** ([`serve`]) — a std-only background HTTP server
//!   (`--serve-addr`) exposing `/metrics`, `/spans`, `/healthz`,
//!   `/progress` and `/profile` while a job runs.
//! * **Analysis** ([`analysis`]) — the one Fig. 13 fold (total time,
//!   waiting ratio, per-machine compute / waiting / comm / gating) behind
//!   the run report of either backend and `bpart report --critical-path`,
//!   plus critical-path reconstruction over the span tree and straggler
//!   detection.
//! * **Federation** ([`federation`]) — what a multi-process driver alone
//!   knows of its workers: each one's latest snapshot, staleness and
//!   progress, behind the `worker="N"`-labelled series, the one-timeline
//!   trace and the `/healthz` that counts deaths. It is observability
//!   only: the superstep loop reads nothing from it.
//! * **Run history** ([`history`]) — one JSON record per run under
//!   `results/history/`, diffed by `bpart obs diff` with watched-metric
//!   regression gating.
//!
//! ## Naming scheme
//!
//! Span and metric names are dotted, `layer.phase[_unit]`:
//! `stream.pass`, `stream.buffer`, `combine.layer`, `cluster.superstep`,
//! `walker.superstep`, `multilevel.coarsen`; metrics carry their unit as a
//! suffix (`stream.score_ns`, `proc.peak_rss_bytes`). Dots are sanitised to
//! underscores in the Prometheus exposition (dots are not legal there).
//!
//! ## Example
//!
//! ```
//! use bpart_obs as obs;
//!
//! obs::set_trace_enabled(true);
//! {
//!     let mut span = obs::span("doc.outer");
//!     span.attr("answer", 42);
//!     let _inner = obs::span("doc.inner");
//! } // spans record on drop
//! obs::metrics::counter("doc.events").add(3);
//!
//! let spans = obs::tracer::snapshot();
//! assert!(spans.iter().any(|s| s.name == "doc.inner"));
//! let text = obs::metrics::prometheus_snapshot();
//! assert!(text.contains("doc_events"));
//! ```

pub mod analysis;
pub mod export;
pub mod federation;
pub mod history;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rss;
pub mod serve;
pub mod snapshot;
pub mod tracer;

pub use tracer::{clear_trace, set_trace_enabled, span, trace_enabled, SpanGuard, SpanRecord};

/// Times `body` under a named span: `time_span!("stream.pass", { ... })`.
/// The span closes (and records) when the block finishes, panics included.
#[macro_export]
macro_rules! time_span {
    ($name:expr, $body:block) => {{
        let _obs_span = $crate::span($name);
        $body
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_span_macro_records_and_returns() {
        set_trace_enabled(true);
        let v = time_span!("lib.macro_test", { 21 * 2 });
        assert_eq!(v, 42);
        assert!(tracer::snapshot()
            .iter()
            .any(|s| s.name == "lib.macro_test"));
    }
}

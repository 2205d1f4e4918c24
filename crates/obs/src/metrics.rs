//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, always on.
//!
//! All updates are relaxed atomics — a counter bump is one
//! `fetch_add(Relaxed)` — so instrumentation stays enabled in release
//! builds. Registration (`counter("x")`) takes the registry lock once per
//! *name* lookup; hot call sites cache the returned `&'static` handle in a
//! `OnceLock` so steady-state recording never touches the lock:
//!
//! ```
//! use std::sync::OnceLock;
//! use bpart_obs::metrics::{counter, Counter};
//!
//! static BYTES: OnceLock<&'static Counter> = OnceLock::new();
//! BYTES.get_or_init(|| counter("doc.cached_bytes")).add(128);
//! ```
//!
//! Handles are leaked (`Box::leak`) into the process-lifetime registry;
//! the set of metric names is small and static, so this is a deliberate
//! one-time cost, not a leak in the growing sense.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::export::{self, Source};
use crate::snapshot::{HistogramValue, Metrics, Snapshot};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (relaxed).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: `bounds` are ascending upper bounds, and an
/// implicit `+Inf` bucket catches overflow. A value equal to a bound lands
/// in that bound's bucket (`v <= bound`), matching Prometheus `le`
/// semantics.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last is `+Inf`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values as `f64` bits, updated via CAS loop.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending: {bounds:?}"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf bucket is implicit): {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        // First bound >= v. NaN would defeat partition_point (all
        // comparisons false ⇒ index 0), so route it to +Inf explicitly.
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|b| *b < v)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, non-cumulative, including the final `+Inf`
    /// bucket (`bounds().len() + 1` entries).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimated `q`-quantile of the observations — see
    /// [`quantile_from_buckets`] for the semantics.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.bounds, &self.bucket_counts(), q)
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    // Poison-tolerant: the map only ever holds leaked `&'static` handles,
    // so a panicking registrant (e.g. a kind mismatch) leaves it valid.
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Returns (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::default()))))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns (registering on first use) the gauge named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::default()))))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns (registering on first use) the histogram named `name` with the
/// given ascending finite upper `bounds` (an `+Inf` bucket is implicit).
///
/// Panics if `name` is already registered as a different kind, or with
/// different bounds.
pub fn histogram(name: &str, bounds: &[f64]) -> &'static Histogram {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds)))))
    {
        Metric::Histogram(h) => {
            assert_eq!(
                h.bounds(),
                bounds,
                "metric {name:?} already registered with different bounds"
            );
            h
        }
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time copy of every registered metric.
pub fn capture() -> Metrics {
    let mut out = Metrics::default();
    for (name, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => {
                out.counters.insert(name.clone(), c.get());
            }
            Metric::Gauge(g) => {
                out.gauges.insert(name.clone(), g.get());
            }
            Metric::Histogram(h) => {
                let value = HistogramValue {
                    bounds: h.bounds().to_vec(),
                    buckets: h.bucket_counts(),
                    count: h.count(),
                    sum: h.sum(),
                };
                out.histograms.insert(name.clone(), value);
            }
        }
    }
    out
}

/// Sanitises a dotted metric name for the Prometheus exposition format
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other illegal bytes become `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Estimates the `q`-quantile (`0.0 ..= 1.0`) of a histogram from its
/// Prometheus-style buckets: `bounds` are the finite ascending upper
/// bounds, `buckets` the **non-cumulative** per-bucket counts with the
/// implicit `+Inf` bucket last (`bounds.len() + 1` entries — exactly what
/// [`Histogram::bucket_counts`] and [`HistogramValue`] carry).
///
/// Uses Prometheus `histogram_quantile` semantics: linear interpolation
/// within the bucket containing the rank, a lower edge of 0 for the first
/// bucket, and the highest finite bound when the rank lands in `+Inf`
/// (an unbounded bucket cannot be interpolated). Returns `None` for an
/// empty histogram, a malformed shape, or `q` outside `[0, 1]`.
///
/// This is the one shared bucket-math implementation — `bpart report`
/// (span-duration percentiles), the run report's `rpc rtt` line and the
/// federation RTT series all call it rather than re-deriving.
pub fn quantile_from_buckets(bounds: &[f64], buckets: &[u64], q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) || buckets.len() != bounds.len() + 1 {
        return None;
    }
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    // The observation rank the quantile falls on (1-based, clamped so
    // q=0 maps into the first occupied bucket).
    let rank = (q * count as f64).max(1.0);
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cumulative += c;
        if (cumulative as f64) < rank {
            continue;
        }
        let Some(&upper) = bounds.get(i) else {
            // Rank lands in +Inf: the best defensible point estimate is
            // the largest finite bound (none ⇒ the histogram is all-+Inf
            // and carries no scale information).
            return bounds.last().copied();
        };
        let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
        let below = cumulative - c;
        let into = (rank - below as f64) / c as f64;
        return Some(lower + (upper - lower) * into);
    }
    None
}

/// This process's registry in the Prometheus text exposition format:
/// [`export::prometheus`] over a capture of it.
pub fn prometheus_snapshot() -> String {
    export::prometheus(&[Source::Local(&local())])
}

fn local() -> Snapshot {
    Snapshot {
        metrics: capture(),
        ..Snapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("t.metrics.counter");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        // Same name returns the same handle.
        assert_eq!(counter("t.metrics.counter").get(), 6);

        let g = gauge("t.metrics.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le_inclusive() {
        // Satellite test: a value equal to a bound lands in that bound's
        // bucket; above the last bound goes to +Inf; NaN goes to +Inf.
        let h = histogram("t.metrics.hist_bounds", &[1.0, 10.0, 100.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // == 1.0 → le="1" bucket
        h.observe(1.0000001); // → le="10"
        h.observe(10.0); // == 10.0 → le="10"
        h.observe(100.0); // == 100.0 → le="100"
        h.observe(1e9); // → +Inf
        h.observe(f64::NAN); // → +Inf, sum poisoned (deliberate)
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert!(h.sum().is_nan());
    }

    #[test]
    fn histogram_sum_is_exact_without_nan() {
        let h = histogram("t.metrics.hist_sum", &[4.0]);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(8.0);
        assert_eq!(h.sum(), 11.0);
        assert_eq!(h.bucket_counts(), vec![2, 1]);
    }

    #[test]
    fn prometheus_snapshot_sanitizes_and_cumulates() {
        counter("t.promsnap.events").add(7);
        let h = histogram("t.promsnap.lat", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        let text = prometheus_snapshot();
        assert!(text.contains("# TYPE t_promsnap_events counter"));
        assert!(text.contains("t_promsnap_events 7"));
        // Cumulative buckets: 1, 2, 3.
        assert!(text.contains("t_promsnap_lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("t_promsnap_lat_bucket{le=\"2\"} 2"));
        assert!(text.contains("t_promsnap_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("t_promsnap_lat_count 3"));
        assert!(!text.contains("t.promsnap"), "dots must be sanitised");
    }

    #[test]
    fn sanitisation_collisions_are_warned_not_silent() {
        // `a.b` and `a_b` both sanitise to `a_b`: the snapshot must call
        // that out rather than silently emitting two series with one name.
        counter("t.collide.x").add(1);
        counter("t_collide.x").add(2);
        let text = prometheus_snapshot();
        assert_eq!(sanitize_name("t.collide.x"), sanitize_name("t_collide.x"));
        let warning = text
            .lines()
            .find(|l| l.starts_with("# warning: sanitised name collision"))
            .expect("collision warning line");
        assert!(warning.contains("t.collide.x"), "{warning}");
        assert!(warning.contains("t_collide.x"), "{warning}");
        assert!(warning.contains("t_collide_x"), "{warning}");
        // Non-colliding names get no warning about them.
        assert!(
            !text.contains("# warning: sanitised name collision: \"t.promsnap"),
            "{text}"
        );
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // 100 observations uniform over (0, 10]: bounds 5|10, 50 in each.
        let bounds = [5.0, 10.0];
        let buckets = [50, 50, 0];
        // p50 sits exactly at the first bucket's upper edge.
        assert_eq!(quantile_from_buckets(&bounds, &buckets, 0.5), Some(5.0));
        // p75 is halfway through the second bucket.
        assert_eq!(quantile_from_buckets(&bounds, &buckets, 0.75), Some(7.5));
        // p0 clamps to rank 1 inside the first bucket, not below it.
        let p0 = quantile_from_buckets(&bounds, &buckets, 0.0).unwrap();
        assert!(p0 > 0.0 && p0 <= 5.0, "{p0}");
        // p100 is the top of the last occupied bucket.
        assert_eq!(quantile_from_buckets(&bounds, &buckets, 1.0), Some(10.0));
    }

    #[test]
    fn quantile_handles_inf_bucket_and_bad_inputs() {
        let bounds = [10.0, 1000.0];
        // 99 fast, 1 slow: the p99.5 rank lands in the slow bucket and
        // interpolates about halfway through it.
        let p995 = quantile_from_buckets(&bounds, &[99, 1, 0], 0.995).unwrap();
        assert!((500.0..=510.0).contains(&p995), "{p995}");
        // Rank landing in +Inf degrades to the largest finite bound.
        assert_eq!(
            quantile_from_buckets(&bounds, &[0, 0, 5], 0.5),
            Some(1000.0)
        );
        // Empty histogram, bad q, and shape mismatch are all None.
        assert_eq!(quantile_from_buckets(&bounds, &[0, 0, 0], 0.5), None);
        assert_eq!(quantile_from_buckets(&bounds, &[1, 1, 1], 1.5), None);
        assert_eq!(quantile_from_buckets(&bounds, &[1, 1], 0.5), None);
        // No finite bounds at all: no scale information.
        assert_eq!(quantile_from_buckets(&[], &[7], 0.5), None);
    }

    #[test]
    fn histogram_quantile_reads_live_buckets() {
        let h = histogram("t.quant.hist", &[1.0, 2.0, 4.0]);
        for _ in 0..9 {
            h.observe(0.5);
        }
        h.observe(3.0);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 1.0, "median in the fast bucket: {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 2.0, "tail in the slow bucket: {p99}");
    }

    #[test]
    fn sanitize_name_rules() {
        assert_eq!(sanitize_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_name("ns:x_1"), "ns:x_1");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "");
    }

    #[test]
    fn json_snapshot_groups_by_kind_and_nulls_non_finite() {
        counter("t.jsonsnap.count").add(4);
        gauge("t.jsonsnap.gauge").set(1.5);
        gauge("t.jsonsnap.poisoned").set(f64::NAN);
        let h = histogram("t.jsonsnap.hist", &[1.0]);
        h.observe(0.5);
        h.observe(3.0);
        let text = export::progress_json(&[Source::Local(&local())]);
        assert!(text.contains("\"t.jsonsnap.count\":4"), "{text}");
        assert!(text.contains("\"t.jsonsnap.gauge\":1.5"), "{text}");
        assert!(text.contains("\"t.jsonsnap.poisoned\":null"), "{text}");
        assert!(
            text.contains("\"t.jsonsnap.hist\":{\"count\":2,\"sum\":3.5}"),
            "{text}"
        );
        // Shape: one object with the three kind groups.
        assert!(text.starts_with("{\"counters\":{"), "{text}");
        assert!(text.ends_with("}}"), "{text}");
    }

    #[test]
    fn capture_yields_point_in_time_values() {
        counter("t.visit.count").add(9);
        gauge("t.visit.gauge").set(0.5);
        let h = histogram("t.visit.hist", &[2.0]);
        h.observe(1.0);
        h.observe(5.0);
        let seen = capture();
        assert_eq!(seen.counters["t.visit.count"], 9);
        assert_eq!(seen.gauges["t.visit.gauge"], 0.5);
        assert_eq!(
            seen.histograms["t.visit.hist"],
            HistogramValue {
                bounds: vec![2.0],
                buckets: vec![1, 1],
                count: 2,
                sum: 6.0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("t.metrics.kind_clash");
        gauge("t.metrics.kind_clash");
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        let c = counter("t.metrics.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}

//! The metrics registry: named counters and gauges, always on.
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
use crate::snapshot::{Metrics, Snapshot};

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

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
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
    fn prometheus_snapshot_sanitizes_and_cumulates() {
        counter("t.promsnap.events").add(3);
        counter("t.promsnap.events").add(4);
        gauge("t.promsnap.level").set(0.5);
        let text = prometheus_snapshot();
        assert!(text.contains("# TYPE t_promsnap_events counter"));
        assert!(text.contains("t_promsnap_events 7"));
        assert!(text.contains("# TYPE t_promsnap_level gauge"));
        assert!(text.contains("t_promsnap_level 0.5"));
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
        let text = export::progress_json(&[Source::Local(&local())]);
        assert!(text.contains("\"t.jsonsnap.count\":4"), "{text}");
        assert!(text.contains("\"t.jsonsnap.gauge\":1.5"), "{text}");
        assert!(text.contains("\"t.jsonsnap.poisoned\":null"), "{text}");
        // Shape: one object with the two kind groups.
        assert!(text.starts_with("{\"counters\":{"), "{text}");
        assert!(text.ends_with("}}"), "{text}");
    }

    #[test]
    fn capture_yields_point_in_time_values() {
        counter("t.visit.count").add(9);
        gauge("t.visit.gauge").set(0.5);
        let seen = capture();
        assert_eq!(seen.counters["t.visit.count"], 9);
        assert_eq!(seen.gauges["t.visit.gauge"], 0.5);
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

//! Property tests for the law the driver relies on when it absorbs
//! worker reports.
//!
//! The network delivers `ObsReport`s in any order — the worker's timer
//! flush races its per-superstep report — and a retry can deliver one
//! twice. The federated view is trustworthy only if it does not depend on
//! any of that:
//!
//! 1. **A function of the set** — absorbing any permutation of a set of
//!    reports, with any of them duplicated, yields the same store.
//! 2. **Newer clears stale** — a report strictly newer than the one held
//!    clears the flag a death raised; an older or equal one does not.
//! 3. **Injective worker labels** — Prometheus label sanitisation can
//!    never collide two distinct workers into one series.
//!
//! What a worker reports under one `(worker, epoch, seq)` is one thing, so
//! the generated content is a function of that key.

use bpart_obs::federation::FederationStore;
use bpart_obs::snapshot::{Snapshot, Span};
use proptest::prelude::*;

/// The identity of one report: `(worker, epoch, seq)`.
type Key = (u32, u32, u64);

fn keys_strategy() -> impl Strategy<Value = Vec<Key>> {
    // Tiny domains, so keys repeat and reports contend for every slot.
    prop::collection::vec((0u32..3, 0u32..3, 0u64..4), 0..10)
}

/// Absorbs the report `key` names. Two epochs share span ids, as respawns
/// make them.
fn absorb(store: &mut FederationStore, key: Key) {
    let (worker, epoch, seq) = key;
    let value = u64::from(worker) * 100 + u64::from(epoch) * 10 + seq;
    let mut report = Snapshot::default();
    report
        .metrics
        .counters
        .insert("t.prop.counter".to_string(), value);
    report
        .metrics
        .gauges
        .insert("t.prop.gauge".to_string(), value as f64);
    report.profile.push(("t.prop;stack".to_string(), value));
    report.spans.push(Span {
        id: seq + 1,
        parent: None,
        name: "t.prop.span".to_string(),
        thread: u64::from(worker),
        start_ns: value,
        dur_ns: value,
        attrs: vec![("epoch".to_string(), epoch.to_string())],
    });
    store.absorb(worker, epoch, seq, report);
}

fn store_from(keys: &[Key]) -> FederationStore {
    let mut store = FederationStore::default();
    for &key in keys {
        absorb(&mut store, key);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn absorb_order_and_duplicates_do_not_matter(
        keys in keys_strategy(),
        swaps in prop::collection::vec((0usize..64, 0usize..64), 0..16),
        dups in prop::collection::vec(0usize..64, 0..4),
    ) {
        let forward = store_from(&keys);

        // Any permutation (a product of transpositions) of the delivery
        // order, with some reports delivered twice, converges to the same
        // store.
        let mut delivered = keys.clone();
        if !keys.is_empty() {
            for &(a, b) in &swaps {
                delivered.swap(a % keys.len(), b % keys.len());
            }
            for &d in &dups {
                let at = d % (delivered.len() + 1);
                delivered.insert(at, keys[d % keys.len()]);
            }
        }
        prop_assert_eq!(&store_from(&delivered), &forward, "delivery order leaked");
    }

    #[test]
    fn a_strictly_newer_report_clears_stale(
        keys in keys_strategy(),
        worker in 0u32..3,
        next in (0u32..3, 0u64..4),
    ) {
        let mut store = store_from(&keys);
        store.mark_dead(worker);
        let held = store.workers[&worker].key;
        absorb(&mut store, (worker, next.0, next.1));
        let obs = &store.workers[&worker];
        prop_assert_eq!(obs.stale, !held.map_or(true, |held| next > held));
        prop_assert_eq!(obs.key, held.max(Some(next)));
        prop_assert_eq!(obs.deaths, 1);
    }

    #[test]
    fn sanitised_worker_labels_never_collide(a in 0u32..5_000, b in 0u32..5_000) {
        prop_assume!(a != b);
        let (la, lb) = (
            bpart_obs::federation::worker_label(a),
            bpart_obs::federation::worker_label(b),
        );
        prop_assert_ne!(&la, &lb);
        // Label values are digit-only, so Prometheus text-format escaping
        // can never rewrite (and thereby collide) them.
        prop_assert!(la.chars().all(|c| c.is_ascii_digit()), "label {la:?}");
        prop_assert!(lb.chars().all(|c| c.is_ascii_digit()), "label {lb:?}");
        // And when a label is embedded into a per-worker series name,
        // metric-name sanitisation passes digits through unchanged, so
        // two workers still cannot end up sharing one series.
        prop_assert_ne!(
            bpart_obs::metrics::sanitize_name(&format!("dist.worker.{la}.up")),
            bpart_obs::metrics::sanitize_name(&format!("dist.worker.{lb}.up"))
        );
    }
}

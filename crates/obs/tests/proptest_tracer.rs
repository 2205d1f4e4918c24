//! Property-based contention test for the tracer ring buffer.
//!
//! This lives in an integration test (own process) because the tracer is
//! process-global: the property resizes the ring and clears it between
//! cases, which would race with the crate's parallel unit tests.
//!
//! The two contracts under arbitrary thread counts, span shapes, and
//! ring capacities:
//!
//! 1. **Conservation** — every closed span is either retained in the
//!    ring or counted as evicted: `recorded + dropped == closed`.
//! 2. **Thread-local nesting** — a retained child's parent (when also
//!    retained) was recorded on the same thread; parenting never leaks
//!    across concurrently tracing threads.

use bpart_obs::tracer::{
    clear_trace, dropped_spans, set_ring_capacity, set_trace_enabled, snapshot,
    DEFAULT_RING_CAPACITY,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

/// Cases mutate the global ring; serialize them (proptest may run cases
/// from this file's single property, but the harness could still add
/// more properties later — keep the lock explicit).
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn disabled_spans_record_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    set_trace_enabled(false);
    {
        let mut g = bpart_obs::span("t.disabled.span");
        g.attr("ignored", 1);
        assert!(g.id().is_none());
    }
    assert!(snapshot().iter().all(|s| s.name != "t.disabled.span"));
    set_trace_enabled(true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_conserves_spans_and_never_misparents_across_threads(
        threads in 2usize..6,
        roots in 1usize..30,
        depth in 1usize..4,
        cap in 8usize..64,
    ) {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_trace_enabled(true);
        set_ring_capacity(cap);
        clear_trace();

        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..roots {
                        // `depth` nested spans, innermost closing first.
                        let mut guards = Vec::with_capacity(depth);
                        for _ in 0..depth {
                            guards.push(bpart_obs::span("t.prop.span"));
                        }
                        drop(guards);
                    }
                });
            }
        });

        let spans = snapshot();
        let closed = (threads * roots * depth) as u64;
        prop_assert_eq!(
            spans.len() as u64 + dropped_spans(),
            closed,
            "retained {} + dropped {} != closed {}",
            spans.len(),
            dropped_spans(),
            closed
        );
        prop_assert!(spans.len() <= cap, "ring exceeded capacity {}", cap);

        let by_id: HashMap<u64, &bpart_obs::SpanRecord> =
            spans.iter().map(|s| (s.id, s)).collect();
        for child in &spans {
            let Some(parent_id) = child.parent else { continue };
            // The parent may have been evicted; when retained, it must be
            // from the same thread.
            if let Some(parent) = by_id.get(&parent_id) {
                prop_assert_eq!(
                    parent.thread,
                    child.thread,
                    "span {} parented across threads ({} -> {})",
                    child.id,
                    child.thread,
                    parent.thread
                );
            }
        }

        // Restore the shared tracer for whatever runs next in-process.
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        clear_trace();
    }
}

//! Property-based contention test for the continuous profiler.
//!
//! This lives in an integration test (own process) because the profiler
//! is process-global: cases reset the folded table between runs, which
//! would race with the crate's parallel unit tests.
//!
//! The sampler and the span open/close path synchronise on each thread's
//! live-stack mutex, so a sample is exactly the set of spans the thread
//! had open at one instant, in opening order. When guards close
//! innermost-first — what scoped guards do — that is a prefix of what was
//! opened. The property hammers that under arbitrary churn:
//!
//! 1. **No torn stacks** — every folded key is a `;`-join of real span
//!    names in valid nesting order (here: a prefix of the fixed chain
//!    each churn thread opens). A key that interleaves frames from two
//!    threads, repeats a frame, or skips a level is a torn read.
//! 2. **Conservation** — the folded counts sum to exactly the number of
//!    non-empty-stack observations the sampler recorded.

use bpart_obs::profile::{
    folded_snapshot, observation_count, reset_profile, sample_once, set_profile_enabled,
};
use bpart_obs::set_trace_enabled;
use proptest::prelude::*;
use std::sync::Mutex;

/// The nesting chain every churn thread opens, outermost first. A
/// consistent sample of any thread is a prefix of this chain.
const CHAIN: [&str; 4] = ["p.prop.d0", "p.prop.d1", "p.prop.d2", "p.prop.d3"];

/// Cases mutate the global folded table; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn samples_are_untorn_prefixes_and_counts_balance(
        threads in 1usize..5,
        roots in 1usize..20,
        depth in 1usize..=4,
        samples in 5usize..40,
    ) {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        set_trace_enabled(true);
        set_profile_enabled(true);
        reset_profile();

        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for _ in 0..roots {
                        // Open `depth` nested spans in chain order, hold
                        // briefly so the sampler can land mid-stack, then
                        // close innermost-first.
                        let mut guards = Vec::with_capacity(depth);
                        for name in CHAIN.iter().take(depth) {
                            guards.push(bpart_obs::span(name));
                        }
                        std::thread::yield_now();
                        // Dropping the `Vec` would close outermost-first.
                        while let Some(innermost) = guards.pop() {
                            drop(innermost);
                        }
                    }
                });
            }
            // Sample concurrently with the churn from this thread (which
            // itself opens no spans, so it never contributes a stack).
            for _ in 0..samples {
                sample_once();
                std::thread::yield_now();
            }
        });
        // One final quiescent sample: closed stacks must have vanished.
        sample_once();

        let valid: Vec<String> = (1..=CHAIN.len()).map(|n| CHAIN[..n].join(";")).collect();
        let folded = folded_snapshot();
        for (key, count) in &folded {
            prop_assert!(
                valid.contains(key),
                "torn or foreign stack {key:?} (count {count}); valid prefixes: {valid:?}"
            );
            prop_assert!(*count > 0, "zero-count entry for {key:?}");
        }
        let total: u64 = folded.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(
            total,
            observation_count(),
            "folded counts must sum to the observation count"
        );

        set_profile_enabled(false);
        reset_profile();
    }
}

/// Out-of-order close is defined, not forbidden: closing a span that is
/// not the innermost removes exactly that frame, and the frames that stay
/// open keep their order. The sample is then no longer a prefix of what
/// was opened, but it is still exactly what is open.
#[test]
fn out_of_order_close_removes_only_the_closed_frame() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    set_trace_enabled(true);
    set_profile_enabled(true);
    reset_profile();

    let outer = bpart_obs::span("p.ooo.outer");
    let middle = bpart_obs::span("p.ooo.middle");
    let inner = bpart_obs::span("p.ooo.inner");
    drop(outer);
    sample_once();
    drop(middle);
    sample_once();
    drop(inner);
    sample_once();

    let mut folded = folded_snapshot();
    folded.sort();
    assert_eq!(
        folded,
        vec![
            ("p.ooo.inner".to_string(), 1),
            ("p.ooo.middle;p.ooo.inner".to_string(), 1),
        ]
    );
    assert_eq!(observation_count(), 2);

    set_profile_enabled(false);
    reset_profile();
}

//! Property-based hysteresis test for the alert engine.
//!
//! The contract under arbitrary condition sequences and arbitrary
//! `for`/`cooldown` durations (the module doc's promise):
//!
//! 1. **No flap within cooldown** — once a rule fires, it stays in
//!    `Firing` until at least `cooldown` has elapsed since `fired_at`;
//!    the only legal exit is to `Ok`, with the condition clear.
//! 2. **No premature fire** — entering `Firing` straight from `Ok` is
//!    only possible with a zero `for` duration, and any entry to
//!    `Firing` happens on a step whose condition held.
//! 3. **Pending is honest** — a `Pending → Ok` transition only happens
//!    when the condition observed false.
//!
//! The engine is driven directly (no global state), so cases need no
//! serialization.

use bpart_obs::alerts::{AlertEngine, Op, Phase, Rule, RuleKind};
use bpart_obs::snapshot::Metrics;
use proptest::prelude::*;
use std::time::Duration;

fn values(v: f64) -> Metrics {
    let mut m = Metrics::default();
    m.gauges.insert("x".to_string(), v);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn firing_never_flaps_within_cooldown(
        for_ms in 0u64..20,
        cooldown_ms in 0u64..100,
        // Each step: does the condition hold (0/1 — the vendored
        // proptest has no bool strategy), and how much time passed
        // since the previous step (ms)?
        steps in prop::collection::vec((0u8..2, 1u64..50), 1..60),
    ) {
        const MS: u64 = 1_000_000;
        let mut engine = AlertEngine::new();
        engine.add_rule(Rule {
            name: "prop".into(),
            kind: RuleKind::Threshold {
                metric: "x".into(),
                op: Op::Gt,
                value: 10.0,
            },
            for_duration: Duration::from_millis(for_ms),
            cooldown: Duration::from_millis(cooldown_ms),
        });

        let mut now_ns = 0u64;
        let mut prev_phase = Phase::Ok;
        for &(cond, dt_ms) in &steps {
            let cond = cond == 1;
            now_ns += dt_ms * MS;
            let status = engine
                .step(&values(if cond { 20.0 } else { 5.0 }), now_ns)
                .remove(0);
            match (prev_phase, status.phase) {
                (Phase::Firing, Phase::Ok) => {
                    prop_assert!(!cond, "left Firing while the condition still held");
                    prop_assert!(
                        now_ns.saturating_sub(status.fired_at_ns) >= cooldown_ms * MS,
                        "flapped {}ns after firing, cooldown is {}ms",
                        now_ns - status.fired_at_ns,
                        cooldown_ms
                    );
                }
                (Phase::Firing, Phase::Pending) => {
                    prop_assert!(false, "Firing must exit to Ok, never to Pending");
                }
                (Phase::Ok, Phase::Firing) => {
                    prop_assert!(cond, "fired on a false condition");
                    prop_assert_eq!(
                        for_ms, 0,
                        "skipped Pending with a nonzero for-duration"
                    );
                }
                (Phase::Pending, Phase::Firing) => {
                    prop_assert!(cond, "fired on a false condition");
                }
                (Phase::Pending, Phase::Ok) => {
                    prop_assert!(!cond, "abandoned Pending while the condition held");
                }
                _ => {}
            }
            if status.phase == Phase::Firing {
                prop_assert!(
                    status.fired_at_ns <= now_ns,
                    "fired_at in the future"
                );
            }
            prev_phase = status.phase;
        }
    }
}

//! Property-based round trip for the fault-plan spec syntax: any plan
//! built through the public API renders to a spec string that parses
//! back to the identical plan. This is what lets fault plans travel
//! through CLI flags, job specs, and log lines without drift.

use bpart_cluster::FaultPlan;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_then_parse_is_identity(
        crashes in prop::collection::vec((0usize..30, 0u32..8), 0..8),
    ) {
        let plan = crashes
            .iter()
            .fold(FaultPlan::new(), |plan, &(superstep, m)| plan.crash(superstep, m));
        let spec = plan.to_string();
        let reparsed = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("{spec:?} failed to parse: {e}"));
        prop_assert_eq!(&reparsed, &plan, "spec was {}", &spec);
        // And rendering is stable across the round trip.
        prop_assert_eq!(reparsed.to_string(), spec);
    }

    #[test]
    fn parse_rejects_junk_clauses(
        pick in 0usize..6,
        prefix in 0usize..4,
        fields in (0usize..30, 0usize..30, 0u32..8, 0u32..8),
        x in 0.0f64..16.0,
    ) {
        let (a, b, m1, m2) = fields;
        // No bare word is a valid clause (a crash clause contains '@'), so
        // parse must reject rather than ignore.
        let word = ["crash", "straggle", "drop", "dup", "seed", "banana"][pick];
        prop_assert!(FaultPlan::parse(word).is_err(), "{:?} unexpectedly parsed", word);
        // Straggler, link and seed clauses are gone: well formed or not,
        // alone or beside a valid crash, each is refused by name.
        let removed = ["straggle@", "drop@", "dup@", "seed="][prefix];
        let tail = match prefix {
            0 => format!("{a}-{b}:m{m1}:x{x}"),
            1 | 2 => format!("{a}-{b}:m{m1}->m{m2}:{}", x / 16.0),
            _ => format!("{a}"),
        };
        let clause = format!("{removed}{tail}");
        for spec in [clause.clone(), format!("crash@{a}:m{m1};{clause}")] {
            let err = FaultPlan::parse(&spec).expect_err(&spec);
            prop_assert!(err.to_string().contains(&format!("{clause:?}")), "{}", err);
        }
    }
}

#[test]
fn empty_spec_is_the_empty_plan() {
    let plan = FaultPlan::parse("").unwrap();
    assert!(plan.is_empty());
    assert_eq!(plan.to_string(), "");
    assert_eq!(plan, FaultPlan::new());
}

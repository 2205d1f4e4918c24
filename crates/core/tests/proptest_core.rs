//! Property-based tests for the partitioning core: metric bounds,
//! partitioner invariants and combine-phase conservation laws hold for
//! arbitrary graphs and configurations.

use bpart_core::bpart::{combine_round, Group};
use bpart_core::pio;
use bpart_core::prelude::*;
use bpart_graph::generate;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bias_and_jain_are_bounded(values in prop::collection::vec(0u64..10_000, 1..64)) {
        let b = metrics::bias(&values);
        prop_assert!(b >= 0.0, "bias {b} negative");
        let n = values.len() as f64;
        let j = metrics::jain_fairness(&values);
        prop_assert!((1.0 / n - 1e-9..=1.0 + 1e-9).contains(&j), "jain {j} out of range");
        // Perfectly balanced input pins both metrics.
        let flat = vec![values[0]; values.len()];
        prop_assert_eq!(metrics::bias(&flat), 0.0);
        prop_assert!((metrics::jain_fairness(&flat) - 1.0).abs() < 1e-12 || values[0] == 0);
    }

    #[test]
    fn every_partitioner_conserves_tallies(seed in 0u64..400, k in 1usize..9) {
        let g = generate::erdos_renyi(120, 900, seed);
        let schemes: Vec<Box<dyn Partitioner>> = vec![
            Box::new(ChunkV),
            Box::new(ChunkE),
            Box::new(HashPartitioner::new(seed)),
            Box::new(Fennel),
            Box::new(BPart::default()),
        ];
        for scheme in &schemes {
            let p = scheme.partition(&g, k);
            prop_assert!(p.validate(&g).is_ok(), "{} invalid", scheme.name());
            prop_assert_eq!(p.vertex_counts().iter().sum::<u64>(), 120u64);
            prop_assert_eq!(p.edge_counts().iter().sum::<u64>(), 900u64);
            let cut = metrics::edge_cut_ratio(&g, &p);
            prop_assert!((0.0..=1.0).contains(&cut));
            if k == 1 {
                prop_assert_eq!(cut, 0.0);
            }
        }
    }

    #[test]
    fn combine_round_conserves_mass(
        sizes in prop::collection::vec((1u64..50, 0u64..500), 1..8)
    ) {
        // Build an even number of groups with disjoint vertex ranges.
        let mut groups = Vec::new();
        let mut next_id = 0u32;
        for &(v, e) in &sizes {
            groups.push(Group::new((next_id..next_id + v as u32).collect(), e));
            next_id += v as u32;
            groups.push(Group::new((next_id..next_id + v as u32).collect(), e / 2));
            next_id += v as u32;
        }
        let total_v: u64 = groups.iter().map(|g| g.vertex_count).sum();
        let total_e: u64 = groups.iter().map(|g| g.edge_count).sum();
        let combined = combine_round(groups);
        prop_assert_eq!(combined.len(), sizes.len());
        prop_assert_eq!(combined.iter().map(|g| g.vertex_count).sum::<u64>(), total_v);
        prop_assert_eq!(combined.iter().map(|g| g.edge_count).sum::<u64>(), total_e);
        // No vertex duplicated or lost.
        let mut all: Vec<u32> = combined.iter().flat_map(|g| g.vertices.clone()).collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len() as u64, total_v);
    }

    #[test]
    fn partition_io_round_trips(seed in 0u64..300, k in 1usize..9) {
        let g = generate::erdos_renyi(80, 400, seed);
        let p = HashPartitioner::new(seed).partition(&g, k);
        let mut text = Vec::new();
        pio::write_text(&p, &mut text).unwrap();
        let q = pio::read_text(&g, text.as_slice()).unwrap();
        prop_assert_eq!(p.assignment(), q.assignment());
        let mut bin = Vec::new();
        pio::write_binary(&p, &mut bin).unwrap();
        let r = pio::read_binary(&g, bin.as_slice()).unwrap();
        prop_assert_eq!(&p, &r);
    }

    #[test]
    fn stream_orders_are_permutations(seed in 0u64..200) {
        let g = generate::erdos_renyi(60, 300, seed);
        for order in [
            StreamOrder::Natural,
            StreamOrder::Random(seed),
            StreamOrder::Bfs,
            StreamOrder::DegreeDescending,
        ] {
            let mut visited = order.order(&g);
            visited.sort_unstable();
            let expect: Vec<u32> = (0..60).collect();
            prop_assert_eq!(visited, expect, "order {:?}", order);
        }
    }

    #[test]
    fn bpart_trace_is_internally_consistent(seed in 0u64..150, k in 2usize..10) {
        let g = generate::erdos_renyi(150, 1_200, seed);
        let (p, trace) = BPart::default().partition_with_trace(&g, k);
        prop_assert!(p.validate(&g).is_ok());
        let frozen: usize = trace.iter().map(|t| t.frozen).sum();
        prop_assert_eq!(frozen, k);
        prop_assert_eq!(trace.last().unwrap().remaining_vertices, 0);
        // remaining counts are non-increasing across layers
        for w in trace.windows(2) {
            prop_assert!(w[1].remaining_vertices <= w[0].remaining_vertices);
        }
        // Only the last layer of the budget may freeze a group that missed
        // a threshold, and every part frozen earlier is within both.
        let cfg = BPartConfig::default();
        let (target_v, target_e) = (150.0 / k as f64, 1_200.0 / k as f64);
        let mut within = 0;
        for part in 0..k {
            let v = p.vertex_counts()[part] as f64;
            let e = p.edge_counts()[part] as f64;
            within += usize::from(
                (v - target_v).abs() <= cfg.epsilon * target_v
                    && (e - target_e).abs() <= cfg.epsilon * target_e,
            );
        }
        let forced: usize = trace.iter().map(|t| t.forced).sum();
        prop_assert!(within + forced >= k, "{} within, {} forced, k = {}", within, forced, k);
        for t in &trace {
            prop_assert!(t.forced <= t.frozen);
            prop_assert!(t.forced == 0 || t.layer == cfg.max_layers);
        }
    }

    #[test]
    fn hash_partitions_are_statistically_balanced(seed in 0u64..100) {
        let g = generate::erdos_renyi(4_000, 8_000, seed);
        let p = HashPartitioner::new(seed).partition(&g, 8);
        // 500 expected per part; 4-sigma band is ~ +/- 90
        for &c in p.vertex_counts() {
            prop_assert!((400..=600).contains(&c), "count {c}");
        }
    }
}

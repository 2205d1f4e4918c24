//! Cross-crate integration: the paper's headline balance claims, checked
//! end-to-end on all three dataset stand-ins.

use bpart_core::prelude::*;
use bpart_graph::generate;
use proptest::prelude::*;

const SCALE: f64 = 0.05;

#[test]
fn bpart_is_two_dimensionally_balanced_on_all_presets() {
    for preset in generate::ALL_PRESETS {
        let g = preset().generate_scaled(SCALE);
        for k in [4usize, 8, 16] {
            let p = BPart::default().partition(&g, k);
            let q = metrics::quality(&g, &p);
            assert!(
                q.vertex_bias < 0.12,
                "{} k={k}: vertex bias {}",
                preset().name,
                q.vertex_bias
            );
            assert!(
                q.edge_bias < 0.12,
                "{} k={k}: edge bias {}",
                preset().name,
                q.edge_bias
            );
        }
    }
}

#[test]
fn baselines_fail_in_exactly_one_dimension() {
    let g = generate::twitter_like().generate_scaled(SCALE);
    // Chunk-V / Fennel: vertices balanced, edges not.
    for scheme in [&ChunkV as &dyn Partitioner, &Fennel] {
        let p = scheme.partition(&g, 8);
        assert!(metrics::bias(p.vertex_counts()) < 0.15, "{}", scheme.name());
        assert!(metrics::bias(p.edge_counts()) > 0.5, "{}", scheme.name());
    }
    // Chunk-E: edges balanced, vertices not.
    let p = ChunkE.partition(&g, 8);
    assert!(metrics::bias(p.edge_counts()) < 0.15);
    assert!(metrics::bias(p.vertex_counts()) > 0.5);
}

#[test]
fn bpart_jain_fairness_stays_near_one_for_large_k() {
    let g = generate::twitter_like().generate_scaled(0.2);
    for k in [8usize, 32, 128] {
        let p = BPart::default().partition(&g, k);
        assert!(
            metrics::jain_fairness(p.vertex_counts()) > 0.98,
            "k={k} vertex fairness"
        );
        assert!(
            metrics::jain_fairness(p.edge_counts()) > 0.98,
            "k={k} edge fairness"
        );
    }
}

#[test]
fn bpart_cut_sits_between_fennel_and_hash() {
    let g = generate::friendster_like().generate_scaled(SCALE);
    let cut = |s: &dyn Partitioner| metrics::edge_cut_ratio(&g, &s.partition(&g, 8));
    let fennel = cut(&Fennel);
    let bpart = cut(&BPart::default());
    let hash = cut(&HashPartitioner::default());
    // BPart trades some cut for balance, so it should not beat Fennel by
    // much (at small scales they can tie) and must clearly beat Hash.
    assert!(bpart > fennel * 0.9, "fennel {fennel} vs bpart {bpart}");
    assert!(bpart < hash * 0.85, "bpart {bpart} < hash {hash}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bias and Jain fairness agree on which of two partitions is more
    /// balanced in the perfectly-correlated two-part case, and BPart's
    /// output always beats Chunk-V's edge balance on skewed graphs.
    #[test]
    fn bpart_never_loses_to_chunkv_on_edge_balance(seed in 0u64..1000, k in 2usize..10) {
        let g = bpart_graph::generate::chung_lu(&bpart_graph::generate::ChungLuConfig {
            exponent_s: 0.9,
            max_degree: 200.0,
            ..bpart_graph::generate::ChungLuConfig::new(2_000, 30_000, seed)
        });
        let bpart = BPart::default().partition(&g, k);
        let chunkv = ChunkV.partition(&g, k);
        let b = metrics::bias(bpart.edge_counts());
        let c = metrics::bias(chunkv.edge_counts());
        prop_assert!(b <= c + 0.05, "seed {seed} k {k}: bpart {b} vs chunkv {c}");
    }

    /// The partition invariants hold for arbitrary ER graphs and k.
    #[test]
    fn partition_tallies_always_conserve(seed in 0u64..1000, k in 1usize..12) {
        let g = bpart_graph::generate::erdos_renyi(150, 900, seed);
        let p = BPart::default().partition(&g, k);
        prop_assert!(p.validate(&g).is_ok());
        prop_assert_eq!(p.vertex_counts().iter().sum::<u64>(), 150);
        prop_assert_eq!(p.edge_counts().iter().sum::<u64>(), 900);
    }
}

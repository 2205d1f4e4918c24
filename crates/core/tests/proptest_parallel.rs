//! Property-based tests for the buffered-parallel streaming engine behind
//! BPart's phase 1: the determinism contract (`buffer_size == 1` reproduces
//! the sequential result for any thread count) and the paper's balance
//! invariant hold for arbitrary graphs and worker-pool shapes.

use bpart_core::bpart::WeightedStream;
use bpart_core::prelude::*;
use bpart_graph::generate;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unit_buffer_reproduces_sequential_weighted_stream(
        seed in 0u64..200,
        threads in 2usize..5,
    ) {
        let g = generate::erdos_renyi(150, 1_200, seed);
        let sequential = WeightedStream::default().partition(&g, 8);
        let parallel = WeightedStream::new(BPartConfig {
            parallel: ParallelConfig { threads, buffer_size: 1 },
            ..Default::default()
        })
        .partition(&g, 8);
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn parallel_weighted_stream_balances_the_indicator(
        threads in 2usize..5,
        buf_exp in 4u32..8,
    ) {
        // W_i = c·|V_i| + (1−c)·|E_i|/d̄ must stay near-equal across pieces
        // (Eq. 1 of the paper) when phase 1 runs on the parallel engine.
        let g = generate::twitter_like().generate_scaled(0.01);
        let pieces = 8;
        let p = WeightedStream::new(BPartConfig {
            parallel: ParallelConfig { threads, buffer_size: 1usize << buf_exp },
            ..Default::default()
        })
        .partition(&g, pieces);
        prop_assert!(p.validate(&g).is_ok());
        let d_bar = g.average_degree();
        let ws: Vec<f64> = p
            .vertex_counts()
            .iter()
            .zip(p.edge_counts())
            .map(|(&v, &e)| 0.5 * v as f64 + 0.5 * e as f64 / d_bar)
            .collect();
        let mean = ws.iter().sum::<f64>() / ws.len() as f64;
        let max = ws.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(
            (max - mean) / mean < 0.25,
            "threads={}: indicator spread too wide: {:?}", threads, ws
        );
    }
}

//! Property-based tests for the walk engine: trajectory validity and
//! partition invariance hold for arbitrary graphs, seeds and part counts.

use bpart_core::{ChunkV, HashPartitioner, Partitioner};
use bpart_graph::{generate, CsrGraph, VertexId};
use bpart_walker::{apps, WalkApp, WalkEngine, WalkStarts, Walker};
use proptest::prelude::*;
use std::sync::Arc;

/// node2vec as it was before its trials skipped the `N(prev)` probe: one
/// probe and one Bernoulli draw at `w(x)/w_max` per trial. The oracle
/// `apps::Node2vec`'s walks are held to.
struct ProbingNode2vec {
    p: f64,
    q: f64,
    walk_length: u32,
}

impl WalkApp for ProbingNode2vec {
    fn walk_length(&self) -> u32 {
        self.walk_length
    }

    fn next(&self, walker: &mut Walker, graph: &CsrGraph) -> Option<VertexId> {
        let nbrs = graph.out_neighbors(walker.current);
        if nbrs.is_empty() {
            return None;
        }
        if walker.previous == VertexId::MAX {
            return Some(nbrs[walker.rng.next_bounded(nbrs.len() as u64) as usize]);
        }
        let w_max = (1.0 / self.p).max(1.0).max(1.0 / self.q);
        let mut candidate = nbrs[0];
        for _ in 0..64 {
            candidate = nbrs[walker.rng.next_bounded(nbrs.len() as u64) as usize];
            let weight = if candidate == walker.previous {
                1.0 / self.p
            } else if graph.is_out_neighbor(walker.previous, candidate) {
                1.0
            } else {
                1.0 / self.q
            };
            if walker.rng.next_bool(weight / w_max) {
                return Some(candidate);
            }
        }
        Some(candidate)
    }

    fn name(&self) -> &'static str {
        "node2vec (probing)"
    }
}

const PQ: [f64; 4] = [0.25, 1.0, 2.0, 4.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recorded_paths_follow_edges(seed in 0u64..500, steps in 1u32..8) {
        let graph = Arc::new(generate::erdos_renyi(80, 640, seed));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let run = WalkEngine::default_for(graph.clone(), partition)
            .with_recording()
            .run(&apps::DeepWalk::new(steps), &WalkStarts::PerVertex(1), seed);
        let paths = run.paths.unwrap();
        prop_assert_eq!(paths.len(), 80);
        for (id, path) in paths.iter().enumerate() {
            prop_assert_eq!(path[0], id as u32, "walker starts at its source");
            prop_assert!(path.len() <= steps as usize + 1);
            for w in path.windows(2) {
                prop_assert!(graph.is_out_neighbor(w[0], w[1]), "non-edge {w:?}");
            }
        }
    }

    #[test]
    fn trajectories_are_partition_invariant(seed in 0u64..200, k in 1usize..8) {
        let graph = Arc::new(generate::erdos_renyi(60, 480, seed));
        let starts = WalkStarts::PerVertex(2);
        let a = WalkEngine::default_for(graph.clone(), Arc::new(ChunkV.partition(&graph, k)))
            .with_recording()
            .run(&apps::DeepWalk::new(5), &starts, seed);
        let b = WalkEngine::default_for(
            graph.clone(),
            Arc::new(HashPartitioner::new(seed).partition(&graph, k)),
        )
        .with_recording()
        .run(&apps::DeepWalk::new(5), &starts, seed);
        prop_assert_eq!(a.paths, b.paths);
        prop_assert_eq!(a.total_steps, b.total_steps);
    }

    #[test]
    fn step_accounting_bounds_hold_for_every_app(seed in 0u64..100) {
        let graph = Arc::new(generate::erdos_renyi(50, 500, seed));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let engine = WalkEngine::default_for(graph.clone(), partition);
        for app in apps::paper_suite(5) {
            let run = engine.run(app.as_ref(), &WalkStarts::PerVertex(1), seed);
            // 50 walkers, at most 5 steps each (plus nothing more).
            prop_assert!(run.total_steps <= 50 * 5, "{}", app.name());
            prop_assert!(run.message_walks <= run.total_steps, "{}", app.name());
            prop_assert!(run.iterations <= 5, "{}", app.name());
        }
    }

    #[test]
    fn node2vec_walks_equal_the_probing_oracle(
        seed in 0u64..500,
        n in 8usize..80,
        degree in 1usize..12,
        p in 0usize..4,
        q in 0usize..4,
    ) {
        let graph = Arc::new(generate::erdos_renyi(n, n * degree, seed));
        let partition = Arc::new(ChunkV.partition(&graph, 3));
        let engine = WalkEngine::default_for(graph.clone(), partition).with_recording();
        let starts = WalkStarts::PerVertex(2);
        let (p, q) = (PQ[p], PQ[q]);
        let fast = engine.run(&apps::Node2vec::new(p, q, 12), &starts, seed);
        let oracle = engine.run(&ProbingNode2vec { p, q, walk_length: 12 }, &starts, seed);
        prop_assert_eq!(fast.paths, oracle.paths);
        prop_assert_eq!(fast.total_steps, oracle.total_steps);
    }

    #[test]
    fn walker_rng_streams_never_collide_across_ids(seed in 0u64..1000) {
        use bpart_walker::WalkerRng;
        let mut a = WalkerRng::new(seed, 1);
        let mut b = WalkerRng::new(seed, 2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(sa, sb);
    }

    #[test]
    fn crash_recovery_is_trajectory_invariant(
        seed in 0u64..100,
        crash_at in 0usize..6,
        machine in 0u32..4,
        every in 1usize..4,
    ) {
        use bpart_cluster::FaultPlan;
        let graph = Arc::new(generate::erdos_renyi(60, 480, seed));
        let partition = Arc::new(ChunkV.partition(&graph, 4));
        let app = apps::DeepWalk::new(6);
        let starts = WalkStarts::PerVertex(1);
        let clean = WalkEngine::default_for(graph.clone(), partition.clone())
            .with_recording()
            .run(&app, &starts, seed);
        let faulted = WalkEngine::default_for(graph.clone(), partition)
            .with_recording()
            .with_faults(FaultPlan::new().crash(crash_at, machine))
            .with_checkpoint_every(every)
            .run(&app, &starts, seed);
        prop_assert_eq!(clean.paths, faulted.paths);
        prop_assert_eq!(clean.total_steps, faulted.total_steps);
        prop_assert_eq!(clean.message_walks, faulted.message_walks);
        prop_assert_eq!(faulted.telemetry.crashes(), 1);
        prop_assert!(faulted.telemetry.total_recovery_time() > 0.0);
    }
}

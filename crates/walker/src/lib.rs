//! # bpart-walker — a KnightKing-like distributed random-walk engine
//!
//! Re-implements the execution model of KnightKing (Yang et al., SOSP '19),
//! the random-walk system the paper integrates BPart into, on the
//! [`bpart_cluster`] BSP simulator:
//!
//! * every walker lives on the machine owning its current vertex,
//! * each iteration (superstep), every active walker takes **one step**;
//!   walkers whose new vertex lives on another machine are *transmitted* —
//!   the paper's "message walks" (Fig. 5b),
//! * per-machine computing load is the number of steps executed (the
//!   metric behind Figs. 4, 12 and 13),
//! * each walker carries its own deterministic RNG, so walk paths are
//!   identical under every partitioning scheme — partitioning changes only
//!   *where* steps execute and *how many* walkers migrate.
//!
//! The five applications the paper runs on KnightKing are provided in
//! [`apps`]: PPR, random walk with jump (RWJ), random walk with
//! domination (RWD), DeepWalk, and node2vec (with KnightKing's rejection
//! sampling), plus the plain fixed-length walk used by the paper's
//! load-balance experiments.
//!
//! ```
//! use bpart_core::{ChunkV, Partitioner};
//! use bpart_graph::generate;
//! use bpart_walker::{apps::DeepWalk, WalkEngine, WalkStarts};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(generate::erdos_renyi(100, 800, 7));
//! let partition = Arc::new(ChunkV.partition(&graph, 4));
//! let engine = WalkEngine::default_for(graph, partition);
//! let run = engine.run(&DeepWalk::new(4), &WalkStarts::PerVertex(5), 42);
//! assert_eq!(run.iterations, 4); // one step per superstep
//! assert_eq!(run.total_steps, 100 * 5 * 4);
//! ```

pub mod apps;
pub mod engine;
pub mod kernel;
pub mod rng;
pub mod walker;

pub use engine::{WalkEngine, WalkRun, WalkStarts};
pub use kernel::{PathTable, WalkStep};
pub use rng::WalkerRng;
pub use walker::{WalkApp, Walker};

/// A superstep's message arena is the walk kernels' per-destination rows:
/// [`WalkStep::step`] stages into them, the delivery drains them in place,
/// a restore or [`reset`](WalkStep::reset) clears them, and none of the
/// three gives their capacity back.
#[cfg(test)]
mod arena {
    mod tests {
        use crate::apps::DeepWalk;
        use crate::engine::Walk;
        use crate::{WalkStarts, WalkStep, Walker};
        use bpart_cluster::bsp::{Machine, Program};
        use bpart_cluster::{Cluster, MachineId};
        use bpart_core::{ChunkV, Partitioner};
        use std::sync::Arc;

        const STARTS: WalkStarts = WalkStarts::PerVertex(4);
        const SEED: u64 = 9;

        /// Kernels of a walk over the complete graph on 30 vertices, cut
        /// into three machines: almost every step leaves its machine.
        fn kernels() -> Vec<WalkStep> {
            let graph = Arc::new(bpart_graph::generate::complete(30));
            let cluster = Cluster::new(graph.clone(), Arc::new(ChunkV.partition(&graph, 3)));
            WalkStep::for_cluster(&cluster, &STARTS, SEED, false)
        }

        fn step_all(steps: &mut [WalkStep], app: &DeepWalk) {
            for step in steps.iter_mut() {
                step.step(app);
            }
        }

        #[test]
        fn lifecycle_round_trip_through_the_router() {
            let app = DeepWalk::new(5);
            let mut steps = kernels();
            // A twin run, drained by hand, says what each receiver is owed.
            let mut twin = kernels();
            step_all(&mut steps, &app);
            step_all(&mut twin, &app);
            let mut expected: Vec<Vec<Walker>> =
                twin.iter().map(|t| t.state().queue.clone()).collect();
            for (to, queue) in expected.iter_mut().enumerate() {
                for sender in twin.iter_mut() {
                    queue.extend(sender.outgoing(to as MachineId));
                }
            }
            let staged: Vec<Vec<u64>> = steps.iter().map(Machine::staged).collect();
            assert!(staged.iter().flatten().sum::<u64>() > 0);
            let reserved: Vec<usize> = steps.iter().map(WalkStep::reserved).collect();

            let mut walk = Walk {
                app: &app,
                paths: None,
                starts: &STARTS,
                seed: SEED,
            };
            walk.deliver(0, &mut steps);
            for (m, step) in steps.iter().enumerate() {
                // Stayers first, then the migrants in ascending sender order.
                assert_eq!(step.state().queue, expected[m], "machine {m}");
                assert_eq!(step.staged(), [0, 0, 0]);
                assert_eq!(step.reserved(), reserved[m]);
            }
            let arrived: usize = steps.iter().map(WalkStep::queue_len).sum();
            assert_eq!(arrived, 30 * 4);
        }

        #[test]
        fn capacity_survives_the_drain() {
            let app = DeepWalk::new(6);
            let mut steps = kernels();
            let mut high_water = vec![0u64; steps.len()];
            for superstep in 0..6 {
                step_all(&mut steps, &app);
                for (step, high) in steps.iter().zip(high_water.iter_mut()) {
                    *high = (*high).max(step.staged().iter().sum());
                }
                Walk {
                    app: &app,
                    paths: None,
                    starts: &STARTS,
                    seed: SEED,
                }
                .deliver(superstep, &mut steps);
                for (m, step) in steps.iter().enumerate() {
                    assert_eq!(step.staged(), [0, 0, 0]);
                    assert!(
                        step.reserved() as u64 >= high_water[m],
                        "superstep {superstep}, machine {m}: {} < {}",
                        step.reserved(),
                        high_water[m]
                    );
                }
            }
            assert!(steps.iter().all(|step| step.queue_len() == 0));
            assert!(high_water.iter().all(|&high| high > 0));
        }

        #[test]
        fn reset_clears_but_keeps_capacity() {
            let app = DeepWalk::new(3);
            let mut steps = kernels();
            let step = &mut steps[0];
            let seeded = step.snapshot();
            step.step(&app);
            let staged: u64 = step.staged().iter().sum();
            assert!(staged > 0);
            let reserved = step.reserved();

            step.reset(&STARTS, SEED);
            assert_eq!(step.staged(), [0, 0, 0]);
            assert_eq!(step.reserved(), reserved);
            assert_eq!(step.state().queue, seeded.queue);

            step.step(&app);
            assert_eq!(step.staged().iter().sum::<u64>(), staged);
            step.restore(&seeded);
            assert_eq!(step.staged(), [0, 0, 0]);
            assert_eq!(step.reserved(), reserved);
        }

        /// The program's reset, a loss before the first checkpoint, puts
        /// every machine back where seeding put it, midway through a walk
        /// and with walkers staged, and keeps the rows' capacity.
        #[test]
        fn the_program_reset_reseeds_every_machine() {
            let app = DeepWalk::new(4);
            let seeded: Vec<Vec<Walker>> =
                kernels().iter().map(|s| s.state().queue.clone()).collect();
            let mut steps = kernels();
            let mut walk = Walk {
                app: &app,
                paths: None,
                starts: &STARTS,
                seed: SEED,
            };
            step_all(&mut steps, &app);
            walk.deliver(0, &mut steps);
            step_all(&mut steps, &app);
            let reserved: Vec<usize> = steps.iter().map(WalkStep::reserved).collect();
            assert!(steps
                .iter()
                .any(|step| step.staged().iter().sum::<u64>() > 0));

            walk.reset(&mut steps);
            for (m, step) in steps.iter().enumerate() {
                assert_eq!(step.state().queue, seeded[m], "machine {m}");
                assert_eq!((step.state().steps, step.state().sent), (0, 0));
                assert_eq!(step.staged(), [0, 0, 0]);
                assert_eq!(step.reserved(), reserved[m]);
            }
        }
    }
}

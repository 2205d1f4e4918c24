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
//! use bpart_walker::{apps::SimpleRandomWalk, WalkEngine, WalkStarts};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(generate::erdos_renyi(100, 800, 7));
//! let partition = Arc::new(ChunkV.partition(&graph, 4));
//! let engine = WalkEngine::default_for(graph, partition);
//! let run = engine.run(&SimpleRandomWalk::new(4), &WalkStarts::PerVertex(5), 42);
//! assert_eq!(run.iterations, 4); // one step per superstep
//! assert_eq!(run.total_steps, 100 * 5 * 4);
//! ```

pub mod apps;
pub mod engine;
pub mod kernel;
pub mod rng;
pub mod walker;
pub mod weighted;

pub use engine::{WalkEngine, WalkRun, WalkStarts};
pub use kernel::{PathTable, WalkStep};
pub use rng::WalkerRng;
pub use walker::{TransitionSampler, WalkApp, Walker};
pub use weighted::{CachedTransitions, WeightedRandomWalk, WeightedTransitions};

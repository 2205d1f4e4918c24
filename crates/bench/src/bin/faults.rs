//! Fault-tolerance overhead — modelled running time of PageRank and
//! DeepWalk with and without an injected machine crash, per partitioner.
//!
//! The crashed run rolls back to its last checkpoint and replays, so the
//! answers are identical to the fault-free run; the columns show what the
//! recovery costs under each partitioning scheme (a balanced partition
//! also balances the checkpoint and replay work). Reported per scheme:
//! the fault-free time, the faulted time, the recovery share, and the
//! overhead factor.

use bpart_bench::{banner, dataset, f3, render_table, schemes};
use bpart_cluster::{Cluster, CostModel, FaultPlan};
use bpart_engine::{apps::PageRank, IterationEngine};
use bpart_walker::{apps::DeepWalk, WalkEngine, WalkStarts};
use std::sync::Arc;

const MACHINES: usize = 8;
const CRASH_AT: usize = 7;
const CHECKPOINT_EVERY: usize = 2;
const SEED: u64 = 0xFA013;

struct Outcome {
    clean: f64,
    faulted: f64,
    recovery: f64,
    replayed: usize,
}

impl Outcome {
    fn row_cells(&self) -> Vec<String> {
        vec![
            f3(self.clean),
            f3(self.faulted),
            f3(self.recovery),
            self.replayed.to_string(),
            format!("{:.3}x", self.faulted / self.clean),
        ]
    }
}

fn main() {
    banner(
        "Fault tolerance",
        "crash at superstep 7, checkpoint every 2, 8 machines",
    );
    let graph = Arc::new(dataset("lj_like"));
    let plan = FaultPlan::new().crash(CRASH_AT, 1);

    for (app, run_app) in [
        (
            "PageRank (10 iters)",
            pagerank as fn(&Arc<_>, &Arc<_>, &FaultPlan) -> Outcome,
        ),
        ("DeepWalk (len 10)", deepwalk),
    ] {
        let header: Vec<String> = [
            "scheme", "clean", "faulted", "recovery", "replays", "overhead",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        for scheme in schemes() {
            let partition = Arc::new(scheme.partition(&graph, MACHINES));
            let outcome = run_app(&graph, &partition, &plan);
            let mut row = vec![scheme.name().to_string()];
            row.extend(outcome.row_cells());
            rows.push(row);
        }
        println!("({app})");
        println!("{}", render_table(&header, &rows));
    }
    println!(
        "expected shape: recovery adds the rolled-back supersteps plus the\n\
         restore cost; the overhead factor stays modest with checkpointing\n\
         and is smallest for schemes whose balanced load also balances the\n\
         replayed work (BPart)."
    );
}

fn pagerank(
    graph: &Arc<bpart_graph::CsrGraph>,
    partition: &Arc<bpart_core::Partition>,
    plan: &FaultPlan,
) -> Outcome {
    let app = PageRank::new(10);
    let engine = |faulted: bool| {
        let mut e = IterationEngine::new(
            Cluster::new(graph.clone(), partition.clone()),
            CostModel::default(),
            Default::default(),
        )
        .with_checkpoint_every(CHECKPOINT_EVERY);
        if faulted {
            e = e.with_faults(plan.clone());
        }
        e
    };
    let clean = engine(false).run(&app);
    let faulted = engine(true).run(&app);
    assert_eq!(
        clean.values, faulted.values,
        "recovery must not change results"
    );
    Outcome {
        clean: clean.telemetry.total_time(),
        faulted: faulted.telemetry.total_time(),
        recovery: faulted.telemetry.total_recovery_time(),
        replayed: faulted.telemetry.replayed_supersteps(),
    }
}

fn deepwalk(
    graph: &Arc<bpart_graph::CsrGraph>,
    partition: &Arc<bpart_core::Partition>,
    plan: &FaultPlan,
) -> Outcome {
    let app = DeepWalk::new(10);
    let starts = WalkStarts::PerVertex(1);
    let engine = |faulted: bool| {
        let mut e = WalkEngine::new(
            Cluster::new(graph.clone(), partition.clone()),
            CostModel::default(),
            Default::default(),
        )
        .with_recording()
        .with_checkpoint_every(CHECKPOINT_EVERY);
        if faulted {
            e = e.with_faults(plan.clone());
        }
        e
    };
    let clean = engine(false).run(&app, &starts, SEED);
    let faulted = engine(true).run(&app, &starts, SEED);
    assert_eq!(clean.paths, faulted.paths, "recovery must not change walks");
    Outcome {
        clean: clean.telemetry.total_time(),
        faulted: faulted.telemetry.total_time(),
        recovery: faulted.telemetry.total_recovery_time(),
        replayed: faulted.telemetry.replayed_supersteps(),
    }
}

//! The critical-path analyzer must agree with the cluster telemetry on a
//! real workload: the per-machine blame totals are derived from span
//! attributes, the telemetry summary from the superstep records, and both
//! fold the same numbers in the same order — so they match bit-for-bit.

use bpart_cli::commands::scheme_by_name;
use bpart_cli::{run, Command, ObsFlags};
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan};
use bpart_engine::apps::PageRank;
use bpart_engine::IterationEngine;
use bpart_graph::{generate, CsrGraph};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The tests share the process-global tracer ring; serialize them.
static TRACER: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_cp_test_{}_{name}", std::process::id()));
    p
}

fn fixture_graph() -> CsrGraph {
    let mut recipe = generate::preset_by_name("lj_like").unwrap();
    recipe.seed = 11;
    recipe.generate_scaled(0.02)
}

#[test]
fn blame_totals_agree_bit_exactly_with_telemetry() {
    let _guard = lock();
    let graph = Arc::new(fixture_graph());
    let scheme = scheme_by_name("bpart").unwrap();
    let (partition, _) = scheme.partition_with_stats(&graph, 4);
    let partition = Arc::new(partition);

    bpart_obs::set_trace_enabled(true);
    bpart_obs::clear_trace();
    // Include a crash + replay so the analyzer also sees the recovery
    // paths (aborted supersteps record zero compute and are skipped).
    let plan: FaultPlan = "crash@3:m1".parse().unwrap();
    let engine = IterationEngine::new(
        Cluster::new(graph, partition),
        CostModel::default(),
        ExecMode::Sequential,
    )
    .with_faults(plan)
    .with_checkpoint_every(2);
    let run = engine.try_run(&PageRank::new(8)).unwrap();
    let jsonl = bpart_obs::export::trace_to_jsonl(&bpart_obs::tracer::snapshot());
    bpart_obs::set_trace_enabled(false);

    let spans = bpart_obs::report::parse_trace_jsonl(&jsonl).unwrap();
    let cp = bpart_obs::analysis::analyze(&spans).unwrap();
    let summary = run.telemetry.summary();

    assert_eq!(cp.machines.len(), summary.machines.len());
    for (m, (blame, tele)) in cp.machines.iter().zip(&summary.machines).enumerate() {
        // Exact equality, not approximate: both sides perform the same
        // f64 additions in the same order (see obs::analysis docs).
        assert_eq!(blame.compute, tele.compute, "machine {m} compute");
        assert_eq!(blame.waiting, tele.waiting, "machine {m} waiting");
    }
    // Every superstep is gated by exactly one machine, and the gating
    // compute is the step's critical time.
    let gated: u64 = cp.machines.iter().map(|m| m.gated_steps).sum();
    assert_eq!(gated as usize, cp.steps.len());
    assert!(
        cp.steps.iter().any(|s| s.replay),
        "crash should force a replay step"
    );
}

#[test]
fn report_critical_path_renders_gating_and_blame() {
    let _guard = lock();
    let graph_path = tmp("report.txt");
    let trace_path = tmp("report.jsonl");
    let gp = graph_path.to_str().unwrap().to_string();
    let tp = trace_path.to_str().unwrap().to_string();

    run(&Command::Generate {
        preset: "lj_like".into(),
        scale: 0.01,
        seed: Some(5),
        out: gp.clone(),
    })
    .unwrap();
    run(&Command::Run {
        backend: "threads".into(),
        graph: gp.clone(),
        parts: 4,
        scheme: "bpart".into(),
        app: "pagerank".into(),
        iters: Some(5),
        walk_len: None,
        seed: None,
        mode: "sequential".into(),
        fault_plan: None,
        checkpoint_every: None,
        obs: ObsFlags {
            trace_out: Some(tp.clone()),
            ..ObsFlags::default()
        },
    })
    .unwrap();

    let out = run(&Command::Report {
        traces: vec![tp.clone()],
        critical_path: true,
        profile: false,
        straggler_factor: 2.0,
    })
    .unwrap();
    assert!(
        out.contains("critical path: 5 supersteps, 4 machines"),
        "{out}"
    );
    assert!(out.contains("per-machine blame"), "{out}");
    assert!(out.contains("stragglers"), "{out}");
    // Each superstep row names its gating machine.
    let gate_rows = out.lines().filter(|l| l.contains("  m")).count();
    assert!(gate_rows >= 5, "{out}");

    // Without --critical-path the classic span tree is rendered instead.
    let tree = run(&Command::Report {
        traces: vec![tp.clone()],
        critical_path: false,
        profile: false,
        straggler_factor: 2.0,
    })
    .unwrap();
    assert!(tree.contains("per-phase totals"), "{tree}");

    std::fs::remove_file(graph_path).ok();
    std::fs::remove_file(trace_path).ok();
}

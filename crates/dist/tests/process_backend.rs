//! End-to-end tests of the process backend against the thread-simulated
//! oracle: bit-identical results on fixed seeds, recovery from a real
//! `SIGKILL`, and fault-plan accounting parity on the real transport.

use bpart_cluster::FaultPlan;
use bpart_dist::{run_job, AppSpec, Backend, GraphSource, JobSpec, ProcessConfig, ThreadsConfig};
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_bpart-workerd").to_string()]
}

fn spec(app: AppSpec) -> JobSpec {
    JobSpec {
        graph: GraphSource::ErdosRenyi {
            n: 160,
            m: 640,
            seed: 11,
        },
        scheme: "chunk-v".to_string(),
        parts: 3,
        app,
        checkpoint_every: Some(2),
    }
}

fn threads(faults: FaultPlan) -> Backend {
    Backend::Threads(ThreadsConfig {
        faults,
        ..ThreadsConfig::default()
    })
}

fn process(faults: FaultPlan) -> Backend {
    let mut cfg = ProcessConfig::new(3, worker_cmd());
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.heartbeat_timeout = Duration::from_millis(800);
    cfg.faults = faults;
    Backend::Process(cfg)
}

/// A smoke check only: both backends run the engine's one superstep
/// kernel, so iteration apps agree by construction (DESIGN.md §13).
#[test]
fn iteration_apps_are_bit_identical_across_backends() {
    for app in [AppSpec::PageRank { iters: 8 }, AppSpec::ConnectedComponents] {
        let spec = spec(app);
        let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
        let out = run_job(&spec, &process(FaultPlan::new())).unwrap();
        assert_eq!(out.digest, oracle.digest, "{:?} digests diverged", spec.app);
        assert_eq!(out.supersteps, oracle.supersteps);
        assert_eq!(out.recovery.worker_deaths, 0);
        assert_eq!(out.recovery.recoveries, 0);
    }
}

#[test]
fn deepwalk_paths_are_bit_identical_across_backends() {
    let spec = spec(AppSpec::DeepWalk {
        walk_len: 6,
        seed: 42,
        per_vertex: 2,
    });
    let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
    let out = run_job(&spec, &process(FaultPlan::new())).unwrap();
    assert_eq!(out.digest, oracle.digest, "DeepWalk path digests diverged");
    assert_eq!(out.supersteps, oracle.supersteps);
}

/// A walk of length 0 takes no step on either backend: both digest the
/// start vertices, and the simulation counts no step.
#[test]
fn a_walk_of_length_zero_is_its_starts_on_both_backends() {
    let spec = spec(AppSpec::DeepWalk {
        walk_len: 0,
        seed: 42,
        per_vertex: 2,
    });
    let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
    let out = run_job(&spec, &process(FaultPlan::new())).unwrap();
    let starts = bpart_dist::digest_paths((0..320u32).map(|id| [id % 160]));
    assert_eq!(oracle.digest, starts);
    assert_eq!(out.digest, oracle.digest);
    assert_eq!(oracle.modelled.unwrap().walk, Some((0, 0)));
    assert_eq!(out.supersteps, oracle.supersteps);
}

/// The tentpole acceptance test: a worker process is `SIGKILL`ed
/// mid-superstep, its death is detected via heartbeat loss, state comes
/// back from the driver-held checkpoint, the superstep is replayed, and
/// the final result is still bit-identical to the fault-free oracle.
#[test]
fn sigkilled_worker_recovers_from_checkpoint_bit_identically() {
    let spec = spec(AppSpec::PageRank { iters: 8 });
    let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
    let out = run_job(&spec, &process(FaultPlan::new().crash(3, 1))).unwrap();
    assert_eq!(
        out.digest, oracle.digest,
        "recovered run diverged from the fault-free oracle"
    );
    assert_eq!(out.supersteps, oracle.supersteps);
    assert!(out.recovery.worker_deaths >= 1, "{:?}", out.recovery);
    assert!(out.recovery.recoveries >= 1, "{:?}", out.recovery);
    assert!(out.recovery.respawns >= 1, "{:?}", out.recovery);
    assert!(out.recovery.replayed_supersteps >= 1, "{:?}", out.recovery);
}

/// Same, for a walk app: the snapshot carries walker queues and path
/// logs (RNG state included), so replay reproduces the exact paths.
#[test]
fn sigkilled_walk_worker_recovers_bit_identically() {
    let spec = spec(AppSpec::SimpleWalk {
        walk_len: 8,
        seed: 7,
        per_vertex: 1,
    });
    let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
    let out = run_job(&spec, &process(FaultPlan::new().crash(3, 2))).unwrap();
    assert_eq!(out.digest, oracle.digest, "walk digests diverged");
    assert!(out.recovery.recoveries >= 1, "{:?}", out.recovery);
}

/// Satellite fixture: a drop/duplicate link plan running over the real
/// transport charges exactly the retry counters the threaded simulation
/// charges — the per-link staged counts and the stateless fault hash are
/// shared, so the numbers must agree, and the payloads still arrive
/// exactly once.
#[test]
fn drop_link_plan_matches_threaded_retry_counters() {
    let spec = spec(AppSpec::PageRank { iters: 6 });
    let plan = FaultPlan::new()
        .with_seed(9)
        .drop_link(1, 4, 0, 2, 0.5)
        .duplicate_link(2, 5, 2, 1, 0.25);
    let simulated = run_job(&spec, &threads(plan.clone())).unwrap();
    let real = run_job(&spec, &process(plan)).unwrap();
    assert!(
        simulated.recovery.link_retries > 0,
        "plan injected nothing: {:?}",
        simulated.recovery
    );
    assert_eq!(
        real.recovery.link_retries, simulated.recovery.link_retries,
        "transport-level retry accounting diverged from the simulation"
    );
    assert_eq!(real.digest, simulated.digest, "link faults corrupted data");
}

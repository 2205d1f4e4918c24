//! Every crash point the fault grammar can name, swept on both backends.
//!
//! For each application, each superstep `s` the fault-free run executes and
//! each worker `m` of a two-worker job, `crash@s:mM` is run on the process
//! backend (a real `SIGKILL` right after `StepBegin`) and on the threads
//! backend (the same crash, injected at the barrier). The process run must
//! give the fault-free digest and superstep count, and read the same
//! recovery counters as the simulation, with exactly one respawn.
//!
//! Tier 1 runs six fixed points, two per application, one crash beside
//! lossy links (only completed supersteps charge link retries, on both
//! backends), and every worker of a three-worker job killed at one
//! superstep five times (one recovery round, as in the simulation). The
//! whole sweep, which runs the last twenty times, is `#[ignore]`d:
//!
//! ```sh
//! cargo test --release -p bpart-dist --test crash_sweep -- --ignored
//! ```

use bpart_cluster::FaultPlan;
use bpart_dist::{
    run_job, AppSpec, Backend, GraphSource, JobSpec, ProcessConfig, RecoveryStats, ThreadsConfig,
};
use std::time::Duration;

const WORKERS: u32 = 2;

/// PageRank at 4 iterations, CC, and DeepWalk of length 4.
fn apps() -> [AppSpec; 3] {
    [
        AppSpec::PageRank { iters: 4 },
        AppSpec::ConnectedComponents,
        AppSpec::DeepWalk {
            walk_len: 4,
            seed: 42,
            per_vertex: 1,
        },
    ]
}

fn spec(app: AppSpec, parts: u32) -> JobSpec {
    JobSpec {
        graph: GraphSource::ErdosRenyi {
            n: 160,
            m: 640,
            seed: 11,
        },
        scheme: "chunk-v".to_string(),
        parts,
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

/// The heartbeat settings of `process_backend.rs`.
fn process(faults: FaultPlan, workers: u32) -> Backend {
    let worker = env!("CARGO_BIN_EXE_bpart-workerd").to_string();
    let mut cfg = ProcessConfig::new(workers as usize, vec![worker]);
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.heartbeat_timeout = Duration::from_millis(800);
    cfg.faults = faults;
    Backend::Process(cfg)
}

/// Runs `crash@superstep:m{machine}` on both backends and checks the
/// process run against the fault-free oracle and the simulated crash.
fn crash_point(app: &AppSpec, superstep: u64, machine: u32) {
    crash_plan(app, &format!("crash@{superstep}:m{machine}"));
}

/// Runs `plan`, which kills one worker once, on both backends and checks
/// the process run against the fault-free oracle and the simulation;
/// returns what the simulation counted.
fn crash_plan(app: &AppSpec, plan: &str) -> RecoveryStats {
    kill_plan(app, WORKERS, plan, 1)
}

/// The same for `plan` on a job of `parts` workers, `respawns` of which it
/// kills.
fn kill_plan(app: &AppSpec, parts: u32, plan: &str, respawns: u64) -> RecoveryStats {
    let spec = spec(app.clone(), parts);
    let oracle = run_job(&spec, &threads(FaultPlan::new())).unwrap();
    let plan: FaultPlan = plan.parse().unwrap();
    let at = format!("{app:?} under {plan}");
    let simulated = run_job(&spec, &threads(plan.clone())).unwrap();
    let real = run_job(&spec, &process(plan, parts)).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(real.digest, oracle.digest, "{at}: digest");
    assert_eq!(real.supersteps, oracle.supersteps, "{at}: supersteps");
    let (r, s) = (&real.recovery, &simulated.recovery);
    assert_eq!(r.worker_deaths, s.worker_deaths, "{at}: deaths {r:?}");
    assert_eq!(r.recoveries, s.recoveries, "{at}: recoveries {r:?}");
    assert_eq!(
        r.replayed_supersteps, s.replayed_supersteps,
        "{at}: replays {r:?}"
    );
    assert_eq!(r.link_retries, s.link_retries, "{at}: link retries {r:?}");
    assert_eq!(r.respawns, respawns, "{at}: respawns {r:?}");
    simulated.recovery
}

/// Kills all three workers of a job at superstep 1, `runs` times. Their
/// last heartbeats may be up to an interval apart; the driver still counts
/// one recovery round, because it knows whom it killed.
fn three_kills_at_one_superstep(runs: usize) {
    let pagerank = AppSpec::PageRank { iters: 5 };
    for _ in 0..runs {
        let plan = "crash@1:m0;crash@1:m1;crash@1:m2";
        let simulated = kill_plan(&pagerank, 3, plan, 3);
        assert_eq!((simulated.worker_deaths, simulated.recoveries), (3, 1));
    }
}

#[test]
fn sampled_crash_points_recover_like_the_simulation() {
    let [pagerank, cc, deepwalk] = apps();
    for (app, superstep, machine) in [
        (&pagerank, 0, 1),
        (&pagerank, 3, 0),
        (&cc, 1, 0),
        (&cc, 2, 1),
        (&deepwalk, 0, 0),
        (&deepwalk, 3, 1),
    ] {
        crash_point(app, superstep, machine);
    }
}

/// A lossy link beside the crash: link retries are charged for completed
/// supersteps only, on both backends, so the counts agree whenever the
/// killed worker's rows reached the driver before it died.
#[test]
fn a_crash_beside_a_lossy_link_charges_the_simulation_s_retries() {
    let [pagerank, ..] = apps();
    crash_plan(
        &pagerank,
        "crash@2:m1;drop@0-3:m0->m1:0.5;dup@1-3:m1->m0:0.5;seed=3",
    );
}

#[test]
fn three_workers_killed_at_one_superstep_recover_in_one_round() {
    three_kills_at_one_superstep(5);
}

#[test]
#[ignore = "the full sweep, about 50 runs; CI's test job runs it"]
fn every_crash_point_recovers_like_the_simulation() {
    three_kills_at_one_superstep(20);
    for app in apps() {
        let supersteps = run_job(&spec(app.clone(), WORKERS), &threads(FaultPlan::new()))
            .unwrap()
            .supersteps;
        assert!(supersteps >= 2, "{app:?} runs {supersteps} supersteps");
        for superstep in 0..supersteps {
            for machine in 0..WORKERS {
                crash_point(&app, superstep, machine);
            }
        }
    }
}

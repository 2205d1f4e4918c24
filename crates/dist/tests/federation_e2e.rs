//! End-to-end federation tests on the process backend: a `SIGKILL`ed
//! worker must leave its last telemetry snapshot behind in the driver's
//! federated store, and a run with observability off must ship no
//! telemetry at all.
//!
//! These live in their own test binary on purpose: the federation store
//! is process-global, and sharing a process with the bit-identity tests
//! would let their drivers write into the store mid-assertion.

use bpart_cluster::FaultPlan;
use bpart_dist::{run_job, AppSpec, Backend, GraphSource, JobSpec, ProcessConfig};
use bpart_obs::federation;
use std::sync::Mutex;
use std::time::Duration;

/// Both tests touch the global store; serialise them.
static SERIAL: Mutex<()> = Mutex::new(());

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_bpart-workerd").to_string()]
}

fn spec() -> JobSpec {
    JobSpec {
        graph: GraphSource::ErdosRenyi {
            n: 160,
            m: 640,
            seed: 11,
        },
        scheme: "chunk-v".to_string(),
        parts: 3,
        app: AppSpec::PageRank { iters: 8 },
        checkpoint_every: Some(2),
    }
}

fn process(faults: FaultPlan) -> Backend {
    let mut cfg = ProcessConfig::new(3, worker_cmd());
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.heartbeat_timeout = Duration::from_millis(800);
    cfg.faults = faults;
    Backend::Process(cfg)
}

/// The satellite acceptance test: worker 1 is `SIGKILL`ed at superstep
/// 3, and after the run the federated store still carries (a) the dead
/// incarnation's last pre-death snapshot, (b) a death count on its
/// `/metrics` series, and (c) full per-worker step timings — the
/// snapshot a later-killed worker leaves behind is exactly what the
/// post-mortem reads.
#[test]
fn sigkilled_worker_leaves_its_last_snapshot_in_the_federated_store() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    federation::reset();
    federation::set_collection_enabled(true);
    let out = run_job(&spec(), &process(FaultPlan::new().crash(3, 1))).unwrap();
    federation::set_collection_enabled(false);
    assert!(out.recovery.worker_deaths >= 1, "{:?}", out.recovery);

    let store = federation::global().clone();
    assert_eq!(store.cluster_size, 3);
    assert_eq!(store.workers.len(), 3, "every worker must have reported");

    let dead = store.workers.get(&1).expect("killed worker tracked");
    assert!(dead.deaths >= 1, "death not recorded: {dead:?}");
    assert!(
        dead.last_pre_death.is_some(),
        "pre-death snapshot was not pinned"
    );
    // The respawned incarnation reports under a newer epoch, so by the
    // end of the run the worker is live again.
    assert!(!dead.stale, "respawned worker still marked stale");
    assert_eq!(store.dead_workers(), 0);
    assert!(!store.recovering, "recovery flag leaked past the run");

    let local = bpart_obs::snapshot::Snapshot::default();
    let prom = bpart_obs::export::prometheus(&store.sources(&local));
    for w in 0..3 {
        assert!(
            prom.contains(&format!("bpart_federation_seq{{worker=\"{w}\"}}")),
            "missing series for worker {w}:\n{prom}"
        );
    }
    assert!(
        prom.contains("bpart_federation_deaths{worker=\"1\"} 1"),
        "death count absent from /metrics:\n{prom}"
    );

    // Every superstep the job ran has a complete 3-machine timing row;
    // this is the measured Fig. 13 input.
    for superstep in 0..out.supersteps {
        let (compute, comm) = store
            .step_timings(superstep)
            .unwrap_or_else(|| panic!("superstep {superstep} timings incomplete"));
        assert_eq!(compute.len(), 3);
        assert_eq!(comm.len(), 3);
    }

    // Clock samples were taken over the live RPC path.
    assert!(
        store.workers.values().any(|w| w.clock.is_some()),
        "no clock sample recorded"
    );
}

/// With collection off (the default), a process-backend run must leave
/// the federated store untouched — the zero-overhead guarantee the CI
/// gate depends on.
#[test]
fn run_without_observability_ships_no_telemetry() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    federation::reset();
    federation::set_collection_enabled(false);
    let out = run_job(&spec(), &process(FaultPlan::new())).unwrap();
    assert_eq!(out.recovery.worker_deaths, 0);
    let store = federation::global();
    assert!(
        store.workers.is_empty(),
        "telemetry leaked into a no-obs run: {store:?}"
    );
}

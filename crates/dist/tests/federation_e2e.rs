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

/// Worker 1 is `SIGKILL`ed at superstep 3, and after the run the federated
/// store still carries a death count on its `/metrics` series — the
/// snapshot a later-killed worker leaves behind is exactly what the
/// post-mortem reads — while the run's timing is the workers' own.
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

    // The measured Fig. 13 input: every machine computed, in seconds.
    assert_eq!(out.timing.machines.len(), 3);
    assert!(out.timing.total_time > 0.0, "{:?}", out.timing);
    assert!(out.timing.machines.iter().all(|m| m.compute > 0.0));
    // `/progress` counts the supersteps each worker finished.
    for (w, obs) in &store.workers {
        assert_eq!(obs.supersteps, out.supersteps, "worker {w}");
    }

    // Clock samples were taken over the live RPC path.
    assert!(
        store.workers.values().any(|w| w.clock.is_some()),
        "no clock sample recorded"
    );
}

/// With collection off (the default), a process-backend run must leave
/// the federated store untouched — the zero-overhead guarantee the CI
/// gate depends on — and is measured all the same.
#[test]
fn run_without_observability_ships_no_telemetry() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    federation::reset();
    federation::set_collection_enabled(false);
    let out = run_job(&spec(), &process(FaultPlan::new())).unwrap();
    assert_eq!(out.recovery.worker_deaths, 0);
    assert_eq!(out.timing.machines.len(), 3);
    assert!(out.timing.total_time > 0.0, "{:?}", out.timing);
    let store = federation::global();
    assert!(
        store.workers.is_empty(),
        "telemetry leaked into a no-obs run: {store:?}"
    );
}

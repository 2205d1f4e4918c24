//! Random small jobs on both backends: threads-`Sequential`,
//! threads-`Threaded` and the process backend must agree on every job
//! they run — digest, superstep count and link retries — and refuse the
//! same jobs with the same message.
//!
//! A job draws a graph seed, a machine count in 1..=3, a partitioning
//! scheme, an application, a checkpoint cadence and, on two or more
//! machines, an optional drop or duplicate clause between two of them.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::FaultPlan;
use bpart_dist::{
    run_job, AppOutput, AppSpec, Backend, GraphSource, JobSpec, ProcessConfig, ThreadsConfig,
    SCHEMES,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What a backend made of a job: the numbers the backends must agree on,
/// or why it refused the job (an error's message, or a panic's).
type Outcome = Result<(u64, u64, u64), String>;

fn outcome(spec: &JobSpec, backend: &Backend) -> Outcome {
    let out = catch_unwind(AssertUnwindSafe(|| run_job(spec, backend))).map_err(|panic| {
        let text = panic.downcast_ref::<String>().cloned();
        let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        format!("panicked: {}", text.unwrap_or_default())
    })?;
    let AppOutput {
        digest,
        supersteps,
        recovery,
        ..
    } = out.map_err(|e| e.to_string())?;
    Ok((digest, supersteps, recovery.link_retries))
}

fn app(which: usize, seed: u64) -> AppSpec {
    match which {
        0 => AppSpec::PageRank { iters: 3 },
        1 => AppSpec::ConnectedComponents,
        _ => AppSpec::DeepWalk {
            walk_len: 3,
            seed,
            per_vertex: 1,
        },
    }
}

/// `clause` 0 adds nothing; 1 a drop clause, 2 a duplicate clause, on the
/// link from `from` to a different machine picked by `to`.
fn plan(k: u32, clause: u32, from: u32, to: u32) -> FaultPlan {
    if k < 2 || clause == 0 {
        return FaultPlan::new();
    }
    let from = from % k;
    let to = (from + 1 + to % (k - 1)) % k;
    let kind = if clause == 1 { "drop" } else { "dup" };
    format!("{kind}@0-3:m{from}->m{to}:0.5;seed=3")
        .parse()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn small_jobs_agree_across_backends(
        seed in 0u64..1000,
        k in 1u32..=3,
        scheme in 0usize..SCHEMES.len(),
        which in 0usize..3,
        cadence in 0usize..4,
        link in (0u32..3, 0u32..3, 0u32..3),
    ) {
        let spec = JobSpec {
            graph: GraphSource::ErdosRenyi { n: 48, m: 192, seed },
            scheme: SCHEMES[scheme].name.to_string(),
            parts: k,
            app: app(which, seed),
            checkpoint_every: (cadence > 0).then_some(cadence as u32),
        };
        let faults = plan(k, link.0, link.1, link.2);
        let threads = |mode| {
            Backend::Threads(ThreadsConfig {
                mode,
                faults: faults.clone(),
            })
        };
        let mut process = ProcessConfig::new(
            k as usize,
            vec![env!("CARGO_BIN_EXE_bpart-workerd").to_string()],
        );
        process.heartbeat_interval = Duration::from_millis(50);
        process.heartbeat_timeout = Duration::from_millis(800);
        process.faults = faults.clone();

        let sequential = outcome(&spec, &threads(ExecMode::Sequential));
        let threaded = outcome(&spec, &threads(ExecMode::Threaded));
        let real = outcome(&spec, &Backend::Process(process));
        prop_assert_eq!(&threaded, &sequential, "{:?} under {}", spec, faults);
        prop_assert_eq!(&real, &sequential, "{:?} under {}", spec, faults);
    }
}

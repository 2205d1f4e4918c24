//! The measuring process: one workload, one client, one job at a time.
//!
//! A warm-up job (discarded, but verified) fills caches, then jobs repeat
//! for the asked number of seconds. Runs in a process of its own, so its
//! peak resident set is the jobs' and nothing else's.

use crate::metrics::{Checks, Outcome, Values, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{quartiles, Quartiles};
use crate::sys;
use crate::workloads::{self, JobResult, Ledger, Runner, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct JobsOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Prepared inputs.
    pub dir: PathBuf,
    /// How long to keep starting jobs.
    pub seconds: f64,
    /// Exactly this many timed jobs instead (`--smoke`, tests).
    pub jobs: Option<usize>,
    pub trace: bool,
    /// Where the traced run writes `<workload>.trace.jsonl`.
    pub out: PathBuf,
}

/// Timed jobs a run makes at least: a quartile needs them, and a traced
/// run needs some with the program's tracing on and some with it off.
const MIN_JOBS: usize = 4;

/// One job; an error or a panic is a failed operation, not the end of the
/// run.
fn attempt(runner: &mut dyn Runner, rec: &mut Recorder, checks: &mut Checks) -> Option<JobResult> {
    match catch_unwind(AssertUnwindSafe(|| runner.job(rec, checks))) {
        Ok(Ok(result)) => Some(result),
        Ok(Err(e)) => {
            checks.error(format!("job failed: {e}"));
            None
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string payload");
            checks.error(format!("job panicked: {what}"));
            None
        }
    }
}

fn same_bits(a: &Values, b: &Values) -> bool {
    a.0.len() == b.0.len()
        && a.0
            .iter()
            .zip(&b.0)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn set_quartiles(values: &mut Values, name: &str, q: &Quartiles) {
    values.set(name, q.q1);
    values.set(&format!("{name}.q1"), q.q1);
    values.set(&format!("{name}.median"), q.median);
    values.set(&format!("{name}.q3"), q.q3);
    values.set(&format!("{name}.min"), q.min);
    values.set(&format!("{name}.n"), q.n as f64);
}

/// Runs the workload's jobs and returns every measurement and check.
pub fn run(opts: &JobsOptions) -> Outcome {
    let Outcome {
        mut values,
        mut checks,
        mut notes,
    } = Outcome::default();
    let mut runner = workloads::runner(opts.workload, &opts.dir, opts.seed);
    if opts.trace {
        // Large enough that no span of a job is evicted before it is read.
        bpart_obs::tracer::set_ring_capacity(1 << 20);
    }

    let Some(first) = attempt(&mut *runner, &mut Recorder::new(false), &mut checks) else {
        return Outcome {
            values,
            checks,
            notes,
        };
    };

    let mut rec = Recorder::new(opts.trace);
    // Seconds of every completed job, and whether the program traced it.
    let mut timed: Vec<(f64, bool)> = Vec::new();
    let mut traced_jobs = Vec::new();
    let (mut spans_recorded, mut spans_dropped) = (0u64, 0u64);
    let started = Instant::now();
    for job in 0u32.. {
        // Alternate, so both halves of the overhead ratio see the same
        // drift in interference.
        let program_tracing = opts.trace && job % 2 == 1;
        bpart_obs::set_trace_enabled(program_tracing);
        rec.set_job(job);
        let open = rec.open("job");
        let start = Instant::now();
        let result = attempt(&mut *runner, &mut rec, &mut checks);
        let elapsed = start.elapsed().as_secs_f64();
        rec.close(open);
        bpart_obs::set_trace_enabled(false);
        if program_tracing {
            let program_spans = bpart_obs::tracer::snapshot();
            spans_recorded += program_spans.len() as u64;
            spans_dropped += bpart_obs::tracer::dropped_spans();
            rec.adopt(&program_spans);
            bpart_obs::clear_trace();
            traced_jobs.push(job);
        }
        if let Some(result) = result {
            timed.push((elapsed, program_tracing));
            checks.check(result.digest == first.digest, || {
                format!("job {job}: result digest differs from the first job's")
            });
            checks.check(same_bits(&result.exact, &first.exact), || {
                format!("job {job}: an exact metric differs from the first job's")
            });
        } else if checks.failed >= 3 {
            break; // The workload is broken; do not spin for the full time.
        }
        let done = match opts.jobs {
            Some(n) => timed.len() >= n,
            None => timed.len() >= MIN_JOBS && started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }

    // Before any reference run: the peak is the jobs' own.
    let own_rss = sys::peak_rss_mb();
    values.set("peak_rss_mb", own_rss + runner.workers_peak_rss_mb());
    values.0.extend(first.exact.0);
    let secs_with_tracing = |on: bool| -> Vec<f64> {
        let jobs = timed.iter().filter(|job| job.1 == on);
        jobs.map(|job| job.0).collect()
    };
    let untraced = secs_with_tracing(false);
    if let Some(q) = quartiles(&untraced) {
        set_quartiles(&mut values, "job_s", &q);
    }

    if let Err(e) = runner.oracle(&mut checks, &mut values) {
        checks.error(format!("oracle: {e}"));
    }

    if opts.trace {
        let mut layer = Values::default();
        for def in PER_LAYER {
            layer.set(def.name, 0.0);
        }
        for (name, value) in &values.0 {
            if PER_LAYER.iter().any(|def| def.name == name) {
                layer.set(name, *value);
            }
        }
        if runner.workers_peak_rss_mb() > 0.0 {
            layer.set("dist.driver_peak_rss_mb", own_rss);
        }
        if let Err(e) = runner.traced_extras(&mut checks, &mut layer) {
            checks.error(format!("traced extras: {e}"));
        }
        let ledger = Ledger {
            rec: &rec,
            self_ns: rec.self_times_ns(),
            traced_jobs,
        };
        runner.layer_metrics(&ledger, &mut layer);

        if let (Some(on), Some(off)) = (quartiles(&secs_with_tracing(true)), quartiles(&untraced)) {
            layer.set("obs.trace_overhead_ratio", on.q1 / off.q1 - 1.0);
        }
        layer.set("obs.spans_recorded", spans_recorded as f64);
        layer.set("obs.spans_dropped", spans_dropped as f64);
        layer.set("obs.span_ns", span_cost_ns(true));
        layer.set("obs.span_off_ns", span_cost_ns(false));
        let (residual, shares) = ledger_shares(&ledger);
        layer.set("ledger_residual_ratio", residual);
        for (prefix, share) in shares {
            notes.push(format!(
                "share of traced job_s under {prefix}.* spans: {share:.4}"
            ));
        }
        values.0.extend(layer.0);

        let path = opts.out.join(format!("{}.trace.jsonl", opts.workload.name));
        match write_trace(&path, &rec) {
            Ok(()) => notes.push(format!(
                "trace: {} spans in {}",
                rec.spans().len(),
                path.display()
            )),
            Err(e) => checks.error(format!("{}: {e}", path.display())),
        }
    }
    Outcome {
        values,
        checks,
        notes,
    }
}

fn write_trace(path: &Path, rec: &Recorder) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, rec.to_jsonl())
}

/// Nanoseconds to open and close one `bpart_obs::span`, with the
/// program's tracing on or off, over 10⁶ spans.
fn span_cost_ns(enabled: bool) -> f64 {
    const BATCH: usize = 200_000;
    const BATCHES: usize = 5;
    bpart_obs::set_trace_enabled(enabled);
    let mut ns = 0u128;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..BATCH {
            drop(std::hint::black_box(bpart_obs::span("bench.span_cost")));
        }
        ns += start.elapsed().as_nanos();
        // Between batches, so the ring never grows past one batch.
        bpart_obs::clear_trace();
    }
    bpart_obs::set_trace_enabled(false);
    ns as f64 / (BATCH * BATCHES) as f64
}

/// The share of traced `job_s` no top-level span covers, and the share
/// under each layer's top-level spans (by name prefix).
fn ledger_shares(ledger: &Ledger<'_>) -> (f64, Vec<(&'static str, f64)>) {
    let spans = ledger.rec.spans();
    let is_job = |i: usize| spans[i].name == "job" && spans[i].parent.is_none();
    let total: u64 = (0..spans.len())
        .filter(|&i| is_job(i))
        .map(|i| spans[i].dur_ns())
        .sum();
    if total == 0 {
        return (0.0, Vec::new());
    }
    let residual: u64 = (0..spans.len())
        .filter(|&i| is_job(i))
        .map(|i| ledger.self_ns[i])
        .sum();
    let mut shares: Vec<(&'static str, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_some_and(is_job)) {
        let prefix = s.name.split('.').next().unwrap_or(s.name);
        match shares.iter_mut().find(|(p, _)| *p == prefix) {
            Some((_, ns)) => *ns += s.dur_ns(),
            None => shares.push((prefix, s.dur_ns())),
        }
    }
    (
        residual as f64 / total as f64,
        shares
            .into_iter()
            .map(|(prefix, ns)| (prefix, ns as f64 / total as f64))
            .collect(),
    )
}

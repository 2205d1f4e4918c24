//! The process that owns a run: prepares the inputs (in child processes,
//! several times, for `setup_s`), starts the measuring process on them, and
//! reports. One contract run is one workload; the suite is all four,
//! untraced then traced.

use crate::metrics::{result_json, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::sys;
use crate::workloads::{Workload, SMOKE_SCALE, WORKLOADS};
use bpart_obs::history::RunRecord;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Directory for scratch inputs, traces and `results.json`.
    pub out: PathBuf,
}

/// Times the inputs are prepared from nothing in one run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs this executable as a child with `args`, waits for it, and returns
/// what it printed. Its standard error passes through.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", args[0]))?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(text)
    } else {
        Err(format!(
            "{} child ended with {}:\n{text}",
            args[0], output.status
        ))
    }
}

/// One run of one workload: the jobs, and set-up × [`SETUP_REPEATS`] around
/// them.
pub fn run_one(w: &Workload, trace: bool, opts: &RunOptions) -> Result<Outcome, String> {
    let scratch = Scratch(
        opts.out
            .join(format!("tmp-{}-{}", std::process::id(), w.name)),
    );
    let _ = std::fs::remove_dir_all(&scratch.0);
    // A smoke input is at most a tenth of the full one, however small that is.
    let scale = if opts.smoke {
        SMOKE_SCALE.min(w.scale / 10.0)
    } else {
        w.scale
    };
    let seed = opts.seed.to_string();

    // One set-up before the jobs and the rest after them, so that the three
    // samples do not all fall into one stretch of interference.
    let mut setup_secs = Vec::new();
    let mut layer_secs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut set_up = |repeat: usize| -> Result<PathBuf, String> {
        let dir = scratch.0.join(repeat.to_string());
        let start = Instant::now();
        let text = child(&[
            "setup",
            "--workload",
            w.name,
            "--seed",
            &seed,
            "--scale",
            &scale.to_string(),
            "--dir",
            &dir.to_string_lossy(),
        ])?;
        setup_secs.push(start.elapsed().as_secs_f64());
        let mut timings = Values::default();
        timings.absorb_lines(&text);
        for (name, value) in timings.0 {
            layer_secs.entry(name).or_default().push(value);
        }
        Ok(dir)
    };

    let inputs = set_up(0)?;
    let seconds = opts.seconds.to_string();
    let mut args = vec![
        "jobs",
        "--workload",
        w.name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        if trace { "1" } else { "0" },
    ];
    if opts.smoke {
        args.extend(["--jobs", "2"]);
    }
    let (inputs, out) = (inputs.to_string_lossy(), opts.out.to_string_lossy());
    args.extend(["--dir", &inputs, "--out", &out]);
    let text = child(&args)?;
    for repeat in 1..SETUP_REPEATS {
        let again = set_up(repeat)?;
        let _ = std::fs::remove_dir_all(again);
    }

    let mut outcome = Outcome::from_lines(&text);
    if let Some(q) = quartiles(&setup_secs) {
        outcome.values.set("setup_s", q.median);
        outcome.values.set("setup_s.q1", q.q1);
        outcome.values.set("setup_s.q3", q.q3);
        outcome.values.set("setup_s.n", q.n as f64);
    }
    for (name, all) in layer_secs {
        if let Some(q) = quartiles(&all) {
            outcome.values.set(&name, q.median);
        }
    }
    Ok(outcome)
}

/// Prints a run for a reader: every metric as `name value unit`.
fn print_outcome(header: &str, outcome: &Outcome) {
    println!("== {header} ==");
    for line in outcome.values.lines().lines() {
        println!("{}", line.strip_prefix("metric ").unwrap_or(line));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.checks.failures {
        println!("FAILED {failure}");
    }
    println!(
        "ops {} failed_ops {}",
        outcome.checks.attempted, outcome.checks.failed
    );
}

/// One contract run: a workload's metrics, then the result line. With
/// `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer ones.
pub fn contract_run(w: &Workload, trace: bool, opts: &RunOptions) -> ExitCode {
    let outcome = match run_one(w, trace, opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bpart-benchmark: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    print_outcome(w.name, &outcome);
    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_json(defs, &outcome.values, &outcome.checks));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn record(w: &Workload, trace: bool, opts: &RunOptions, outcome: &Outcome) -> RunRecord {
    let mut rec = RunRecord::new(w.name, (w.preset)().name);
    rec.set_config("seed", opts.seed);
    rec.set_config("trace", u8::from(trace));
    rec.set_config("seconds", opts.seconds);
    rec.set_config("smoke", opts.smoke);
    rec.set_config("nproc", sys::nproc());
    rec.set_config("loadavg_1m", sys::loadavg_1m());
    rec.set_config("ops", outcome.checks.attempted);
    rec.set_config("failed_ops", outcome.checks.failed);
    rec.metrics = outcome.values.0.clone();
    rec
}

/// The whole suite: every selected workload untraced, then traced; prints
/// all metrics grouped by workload, writes `<out>/results.json`, and fails
/// when any check failed.
pub fn suite(only: Option<&Workload>, opts: &RunOptions, trajectory: Option<&Path>) -> ExitCode {
    let mut records = Vec::new();
    let mut failed = 0;
    for trace in [false, true] {
        for w in WORKLOADS
            .iter()
            .filter(|w| only.is_none_or(|o| o.name == w.name))
        {
            let outcome = match run_one(w, trace, opts) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("bpart-benchmark: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let kind = if trace {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            };
            print_outcome(&format!("{} ({kind})", w.name), &outcome);
            failed += outcome.checks.failed;
            records.push(record(w, trace, opts, &outcome));
        }
    }

    let lines: Vec<String> = records.iter().map(RunRecord::to_json).collect();
    let path = opts.out.join("results.json");
    let written = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n"))));
    if let Err(e) = written {
        eprintln!("bpart-benchmark: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());

    if let Some(path) = trajectory {
        if let Err(e) = append_trajectory(path, opts, &records) {
            eprintln!("bpart-benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("appended to {}", path.display());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bpart-benchmark: {failed} failed operations");
        ExitCode::FAILURE
    }
}

/// One compact line per recorded suite run: revision, seed, cores, and
/// every end-to-end metric of every workload as `<workload>.<metric>`.
fn append_trajectory(path: &Path, opts: &RunOptions, records: &[RunRecord]) -> std::io::Result<()> {
    let mut line = RunRecord::new("trajectory", "all");
    line.set_config("seed", opts.seed);
    line.set_config("nproc", sys::nproc());
    line.set_config("loadavg_1m", sys::loadavg_1m());
    for rec in records.iter().filter(|r| r.config["trace"] == "0") {
        for def in END_TO_END {
            if let Some(value) = rec.metrics.get(def.name) {
                line.set_metric(&format!("{}.{}", rec.label, def.name), *value);
            }
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", line.to_json())
}

/// Reads a `results.json` the suite wrote: one record per line between
/// the brackets.
pub fn read_results(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with('{'))
        .map(|line| RunRecord::from_json(line).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

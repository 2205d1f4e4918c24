//! `bpart-benchmark`: the end-to-end benchmark of the BPart pipeline.
//!
//! ```text
//! bpart-benchmark --workload W --seed S --seconds T --trace 0|1   one contract run
//! bpart-benchmark [--workload W] [--seed S] [--out DIR] [--smoke] [--record FILE]
//!                                                                 the suite
//! bpart-benchmark agree A.json B.json                             compare two suites
//! bpart-benchmark manifest                                        print BENCHMARK.json
//! ```
//!
//! `setup`, `jobs` and `worker` are the child processes the above start.
//! See README.md for the workloads, the metrics and the reasoning.

mod agree;
mod jobs;
mod metrics;
mod orchestrate;
mod spans;
mod stats;
mod sys;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use orchestrate::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Workload, WORKLOADS};

/// The seed of a run that names none: the paper's conference date.
const DEFAULT_SEED: u64 = 20220829;

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u32 = 18;

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("missing value for {flag}"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {text:?}")),
            None => Ok(None),
        }
    }

    fn required<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.parsed(flag)?.ok_or_else(|| format!("missing {flag}"))
    }

    fn flag(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn workload(&mut self) -> Result<Option<&'static Workload>, String> {
        match self.value("--workload")? {
            Some(name) => workloads::workload(&name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload {name:?}")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run(args),
        "setup" => setup(args),
        "jobs" => measure(args),
        "worker" => worker(args),
        "agree" => compare(args),
        "manifest" => args.done().map(|()| {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }),
        other => Err(format!("unknown command {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bpart-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// A contract run when `--trace` is given, the suite otherwise.
fn run(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let trace: Option<u8> = args.parsed("--trace")?;
    let record: Option<PathBuf> = args.parsed("--record")?;
    let opts = RunOptions {
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        smoke: args.flag("--smoke"),
        out: args
            .parsed("--out")?
            .unwrap_or_else(|| PathBuf::from("benchmark/out")),
    };
    args.done()?;
    match trace {
        Some(trace @ (0 | 1)) => {
            let workload = workload.ok_or("--trace needs --workload")?;
            Ok(orchestrate::contract_run(workload, trace == 1, &opts))
        }
        Some(other) => Err(format!("--trace is 0 or 1, not {other}")),
        None => Ok(orchestrate::suite(workload, &opts, record.as_deref())),
    }
}

fn setup(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.workload()?.ok_or("missing --workload")?;
    let seed = args.required("--seed")?;
    let scale = args.required("--scale")?;
    let dir: PathBuf = args.required("--dir")?;
    args.done()?;
    let timings = workloads::prepare(workload, seed, scale, &dir)?;
    print!("{}", timings.lines());
    Ok(ExitCode::SUCCESS)
}

fn measure(mut args: Args) -> Result<ExitCode, String> {
    let opts = jobs::JobsOptions {
        workload: args.workload()?.ok_or("missing --workload")?,
        seed: args.required("--seed")?,
        dir: args.required("--dir")?,
        seconds: args.required("--seconds")?,
        jobs: args.parsed("--jobs")?,
        trace: args.required::<u8>("--trace")? == 1,
        out: args.required("--out")?,
    };
    args.done()?;
    print!("{}", jobs::run(&opts).lines());
    Ok(ExitCode::SUCCESS)
}

/// One BSP worker of the process backend: `dist-lj` starts this binary as
/// its own worker, with the flags `bpart_dist`'s driver appends.
fn worker(mut args: Args) -> Result<ExitCode, String> {
    let cfg = bpart_dist::WorkerConfig {
        connect: args.required("--connect")?,
        worker_id: args.required("--worker-id")?,
        key: args.required("--key")?,
        heartbeat: Duration::from_millis(args.parsed("--heartbeat-ms")?.unwrap_or(100u64).max(1)),
    };
    let rss_dir: PathBuf = args.required("--rss-dir")?;
    args.done()?;
    workloads::worker(cfg, &rss_dir)?;
    Ok(ExitCode::SUCCESS)
}

fn compare(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: bpart-benchmark agree A.json B.json".to_string());
    };
    Ok(if agree::agree(a.as_ref(), b.as_ref())? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, from the same tables the runs report by.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `bpart-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn workloads_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\n']),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn args_take_values_flags_and_reject_leftovers() {
        let mut args = Args(
            ["--seed", "7", "--smoke", "--workload", "dist-lj", "stray"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(args.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.parsed::<u64>("--seconds"), Ok(None));
        assert!(args.flag("--smoke") && !args.flag("--smoke"));
        assert_eq!(args.workload().unwrap().unwrap().name, "dist-lj");
        assert!(args.done().is_err());
        assert!(Args(vec!["--seed".to_string()]).value("--seed").is_err());
    }
}

//! `--smoke`: the real binary end to end at scale 0.02 with 2 jobs per run —
//! set-up children, measuring children, the 2-worker process backend, the
//! traced runs and their files — in seconds.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_bpart-benchmark");
const WORKLOADS: [&str; 4] = ["pr-cc-tw", "walks-fr", "partition-lj", "dist-lj"];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn smoke_suite_runs_every_workload_untraced_and_traced() {
    let out = fresh_dir("smoke-suite");
    let started = Instant::now();
    let run = Command::new(BIN)
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // ~11 s alone on this box, most of it the process backend's fixed waits.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "smoke suite took {:?}",
        started.elapsed()
    );

    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    for workload in WORKLOADS {
        let records = results
            .lines()
            .filter(|l| l.contains(&format!("\"label\":\"{workload}\"")))
            .count();
        assert_eq!(records, 2, "{workload}: one untraced and one traced record");
        let trace = out.join(format!("{workload}.trace.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("trace file");
        assert!(
            spans.lines().any(|l| l.contains("\"name\":\"job\"")),
            "{workload}"
        );
    }
    assert_eq!(results.matches("\"failed_ops\":\"0\"").count(), 8);
    assert_eq!(results.matches("\"nproc\":").count(), 8);
    assert_eq!(results.matches("\"loadavg_1m\":").count(), 8);
    // The program's own spans were adopted under the benchmark's.
    let trace = std::fs::read_to_string(out.join("pr-cc-tw.trace.jsonl")).unwrap();
    assert!(trace.contains("\"name\":\"cluster.superstep\",\"origin\":\"program\""));
    // `results.json` and four traces: every scratch directory was removed.
    assert_eq!(std::fs::read_dir(&out).unwrap().count(), 5);

    // A result set agrees with itself on every exact metric. (Its timings
    // come from 2 jobs, which `agree` rightly calls unresolved.)
    let agree = Command::new(BIN)
        .arg("agree")
        .args([out.join("results.json"), out.join("results.json")])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&agree.stdout);
    assert!(table.contains("Identical"), "{table}");
    assert!(
        !table.contains("Differs") && !table.contains("Missing"),
        "{table}"
    );
}

#[test]
fn contract_run_ends_with_the_result_line() {
    let out = fresh_dir("smoke-contract");
    for (trace, metric) in [("0", "\"setup_s\""), ("1", "\"ledger_residual_ratio\"")] {
        let run = Command::new(BIN)
            .args([
                "--smoke",
                "--workload",
                "walks-fr",
                "--seed",
                "7",
                "--trace",
                trace,
                "--out",
            ])
            .arg(&out)
            .output()
            .expect("benchmark binary starts");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{stdout}");
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(
            last.contains("\"failed\": 0") && last.contains(metric),
            "{last}"
        );
        assert_eq!(last.contains("\"job_s\""), trace == "0", "{last}");
    }
}

#[test]
fn bad_arguments_exit_with_a_message_and_no_result() {
    for args in [
        vec!["--workload", "no-such"],
        vec!["--trace", "1"],
        vec!["--workload", "pr-cc-tw", "--trace", "2"],
        vec!["--frobnicate"],
        vec!["agree", "only-one.json"],
    ] {
        let run = Command::new(BIN).args(&args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).starts_with("bpart-benchmark: "));
    }
}

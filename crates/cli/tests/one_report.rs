//! `bpart run` is one path: the same job on the threads and on the process
//! backend prints the same digest and supersteps, the same report lines in
//! the same order (times in cost-model units on one, seconds on the other),
//! counts a crash the same way, and writes history records with the same
//! keys. A process run is measured with no observability flag too. Drives
//! the real binary, like `process_run.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bpart_onereport_test_{}_{name}",
        std::process::id()
    ));
    p
}

fn bpart(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bpart"))
        .args(args)
        .output()
        .expect("run bpart");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    stdout
}

/// What is in front of the first colon of every line.
fn labels(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter_map(|line| Some(line.split_once(':')?.0.trim()))
        .collect()
}

fn line<'r>(report: &'r str, label: &str) -> &'r str {
    let found = report.lines().find(|l| l.trim_start().starts_with(label));
    found.unwrap_or_else(|| panic!("no {label:?} line in:\n{report}"))
}

fn history(path: &Path) -> bpart_obs::history::RunRecord {
    bpart_obs::history::RunRecord::read(path).unwrap()
}

#[test]
fn both_backends_print_one_report_and_write_one_record() {
    let graph = tmp("graph.txt");
    let (hist_t, hist_p) = (tmp("threads.json"), tmp("process.json"));
    let g = graph.to_str().unwrap();
    bpart(&[
        "generate", "--preset", "lj_like", "--scale", "0.02", "--seed", "11", "--out", g,
    ]);
    let run = |backend: &str, hist: Option<&Path>| {
        let mut args = vec!["run", g, "--parts", "3", "--scheme", "fennel"];
        args.extend(["--app", "pagerank", "--iters", "6", "--backend", backend]);
        args.extend(["--fault-plan", "crash@3:m1", "--checkpoint-every", "2"]);
        if let Some(hist) = hist {
            args.extend(["--history-out", hist.to_str().unwrap()]);
        }
        bpart(&args)
    };
    let threads = run("threads", Some(&hist_t));
    let process = run("process", Some(&hist_p));
    let unobserved = run("process", None);

    for same in ["edge-cut ratio:", "supersteps:", "digest:"] {
        assert_eq!(line(&threads, same), line(&process, same));
    }
    for report in [&threads, &process] {
        let recovery = line(report, "recovery:");
        assert!(recovery.contains("1 deaths, 1 recoveries"), "{recovery}");
        assert!(recovery.contains("1 replayed supersteps"), "{recovery}");
    }
    assert!(line(&threads, "total time:").ends_with("units (cost model)"));
    assert!(line(&process, "total time:").ends_with("s (measured by the workers)"));

    // Apart from the oracle check only a process run has and the totals
    // only a cost model has, the two reports are the same lines in the same
    // order.
    let own = [
        "oracle digest",
        "bit-identical",
        "messages",
        "recovery time",
    ];
    let shared = |report| -> Vec<&str> {
        let all = labels(report).into_iter();
        all.filter(|label| !own.contains(label)).collect()
    };
    let expected = [
        "run",
        "edge-cut ratio",
        "supersteps",
        "digest",
        "recovery",
        "wall time",
        "total time",
        "waiting ratio",
        "m0",
        "m1",
        "m2",
    ];
    assert_eq!(shared(&threads), expected);
    assert_eq!(shared(&process), expected);
    assert_eq!(shared(&unobserved), expected);

    let (t, p) = (history(&hist_t), history(&hist_p));
    assert_eq!((t.label.as_str(), p.label.as_str()), ("run", "run"));
    assert!(t.config.keys().eq(p.config.keys()), "{t:?}\n{p:?}");
    assert!(t.metrics.keys().eq(p.metrics.keys()), "{t:?}\n{p:?}");
    assert_eq!(t.config["backend"], "threads");
    assert_eq!(p.config["backend"], "process");
    for counter in [
        "supersteps",
        "worker_deaths",
        "recoveries",
        "replayed_supersteps",
    ] {
        assert_eq!(t.metrics[counter], p.metrics[counter], "{counter}");
    }
    for path in [graph, hist_t, hist_p] {
        std::fs::remove_file(path).ok();
    }
}

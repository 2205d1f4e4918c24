//! Process-level guard on what an in-process job holds: the real `bpart`
//! binary loads a `.bpgr` of over 16 MB, runs PageRank on the threads
//! backend and reports its own peak resident set, which must stay within a
//! factor of the resident graph (`16(n+1) + 8m` bytes: offsets and targets,
//! out and in).
//!
//! The job's peak is graph + kernel state: per machine its values, one
//! accumulator slot per vertex of the graph and one per vertex it owns. A
//! superstep's messages are those slots, read where they lie; a kernel that
//! copies them out into per-destination rows first holds a superstep's
//! traffic a second time (16 bytes a message), and a loader that keeps the
//! file mapped beside the arrays it fills peaks half a graph higher still.
//! Measured on this graph, debug / release build: 1.31 / 1.24 × the resident
//! graph; with the rows 1.47 / 1.40 ×. One constant separates the debug
//! build without rows from the release build with them. The CI `smoke` job
//! runs the same lines against the release binary.
//! (`proc_peak_rss_bytes` is `VmHWM` of `/proc/self/status`: linux only.)

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::Command;

/// Of the resident graph. Between the two regimes above, nearer the one
/// it must reject: a shared box may add a little, never take away.
const FACTOR: f64 = 1.36;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_peak_test_{}_{name}", std::process::id()));
    p
}

fn bpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpart"))
}

#[test]
fn a_threads_job_peaks_within_a_factor_of_the_resident_graph() {
    let (graph, metrics) = (tmp("graph.bpgr"), tmp("metrics.prom"));
    // The densest preset: kernel state grows with vertices, the file with
    // edges, so this is where holding the file twice shows most.
    let out = bpart()
        .args(["generate", "--preset", "friendster_like", "--scale", "0.65"])
        .args(["--seed", "11", "--out"])
        .arg(&graph)
        .output()
        .expect("run bpart generate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // "wrote PATH: N vertices, M edges (preset ...)"
    let counts: Vec<u64> = stdout
        .rsplit(": ")
        .next()
        .expect("counts after the path")
        .split_whitespace()
        .filter_map(|word| word.parse().ok())
        .collect();
    let (n, m) = (counts[0], counts[1]);
    assert!(std::fs::metadata(&graph).unwrap().len() >= 16 << 20);

    let out = bpart()
        .arg("run")
        .arg(&graph)
        .args(["--backend", "threads", "--app", "pagerank", "--parts", "2"])
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run bpart run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let peak: u64 = std::fs::read_to_string(&metrics)
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("proc_peak_rss_bytes "))
        .expect("the snapshot carries the process's peak")
        .parse()
        .unwrap();
    let resident_graph = 16 * (n + 1) + 8 * m;
    assert!(
        peak as f64 <= FACTOR * resident_graph as f64,
        "peak {peak} B is {:.2} x the resident graph ({resident_graph} B), limit {FACTOR}",
        peak as f64 / resident_graph as f64
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}

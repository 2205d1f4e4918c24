//! End-to-end CLI test of `run --backend process`: the real `bpart`
//! binary spawns real worker processes, a fault-plan crash `SIGKILL`s
//! one mid-run, and the command itself verifies bit-identity against the
//! threads oracle (it exits non-zero on divergence). This is the same
//! path the CI chaos job drives.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_procrun_test_{}_{name}", std::process::id()));
    p
}

fn bpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpart"))
}

fn generate_graph(path: &PathBuf) {
    let out = bpart()
        .args([
            "generate", "--preset", "lj_like", "--scale", "0.02", "--seed", "11", "--out",
        ])
        .arg(path)
        .output()
        .expect("run bpart generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn process_backend_survives_a_sigkill_and_matches_the_oracle() {
    let graph = tmp("graph.txt");
    generate_graph(&graph);

    let out = bpart()
        .arg("run")
        .arg(&graph)
        .args([
            "--parts",
            "3",
            "--scheme",
            "chunk-v",
            "--app",
            "pagerank",
            "--iters",
            "6",
            "--backend",
            "process",
            "--fault-plan",
            "crash@2:m1",
            "--checkpoint-every",
            "2",
        ])
        .output()
        .expect("run bpart run --backend process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("bit-identical:   yes"), "{stdout}");
    // Exactly one scheduled kill: one death, one recovery, one respawn.
    assert!(
        stdout.contains("recovery:        1 deaths, 1 recoveries, 1 respawns"),
        "{stdout}"
    );
    std::fs::remove_file(&graph).ok();
}

#[test]
fn process_backend_runs_clean_without_faults() {
    let graph = tmp("clean_graph.txt");
    generate_graph(&graph);

    let out = bpart()
        .arg("run")
        .arg(&graph)
        .args([
            "--parts",
            "3",
            "--app",
            "cc",
            "--backend",
            "process",
            "--checkpoint-every",
            "2",
        ])
        .output()
        .expect("run bpart run --backend process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("bit-identical:   yes"), "{stdout}");
    assert!(
        stdout.contains("recovery:        0 deaths, 0 recoveries"),
        "{stdout}"
    );
    std::fs::remove_file(&graph).ok();
}

/// A walk's result is as long as the walk, and no process holds it twice:
/// each worker sends its path log through one 64 KiB buffer, the driver
/// decodes what arrives 64 KiB per connection at a time — and the run says
/// so, beside the bytes every worker held at its peak.
#[test]
fn a_walk_result_streams_through_fixed_buffers_and_the_run_says_what_it_held() {
    const WORKERS: u64 = 3;
    let (graph, metrics) = (tmp("walk_graph.txt"), tmp("walk_metrics.prom"));
    generate_graph(&graph);

    let out = bpart()
        .arg("run")
        .arg(&graph)
        .args(["--parts", "3", "--app", "deepwalk", "--backend", "process"])
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run bpart run --backend process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("bit-identical:   yes"), "{stdout}");

    let prom = std::fs::read_to_string(&metrics).expect("metrics snapshot");
    let value = |series: &str| -> u64 {
        let line = prom.lines().find_map(|l| l.strip_prefix(series));
        let text = line.unwrap_or_else(|| panic!("no {series} in:\n{prom}"));
        text.trim()
            .parse()
            .unwrap_or_else(|e| panic!("{series}{text}: {e}"))
    };
    let inflight = value("dist_final_inflight_bytes_max ");
    assert!(
        (1..=WORKERS).any(|readers| inflight == readers * 65536),
        "{inflight} undecoded bytes for {WORKERS} workers"
    );
    for w in 0..WORKERS {
        assert_eq!(
            value(&format!("dist_final_buffer_bytes{{worker=\"{w}\"}} ")),
            65536
        );
        assert!(value(&format!("proc_peak_rss_bytes{{worker=\"{w}\"}} ")) > 0);
        let row = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("m{w}:")));
        let row = row.unwrap_or_else(|| panic!("no m{w} row in:\n{stdout}"));
        assert!(
            row.contains(" edges, peak ") && row.ends_with(" MB"),
            "{row}"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}

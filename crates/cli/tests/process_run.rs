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

fn generate_graph(path: &PathBuf, scale: &str) {
    let out = bpart()
        .args([
            "generate", "--preset", "lj_like", "--scale", scale, "--seed", "11", "--out",
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
    generate_graph(&graph, "0.02");

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
    generate_graph(&graph, "0.02");

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

/// A walk's result is as long as the walk, and no worker holds it: the path
/// triples leave with every superstep, so a worker's peak is its part plus
/// its queue whatever the walk length — and the run says what each held.
#[test]
fn a_walk_worker_peaks_the_same_at_any_walk_length_and_the_run_says_what_it_held() {
    const WORKERS: u64 = 3;
    const MB: u64 = 1 << 20;
    let graph = tmp("walk_graph.txt");
    // 30 000 walkers: at 16 bytes a hop, 80 steps of history would be
    // 13 MB a worker, 10 steps 1.6 MB.
    generate_graph(&graph, "0.3");

    let peaks = |walk_len: &str| -> Vec<u64> {
        let metrics = tmp(&format!("walk_metrics_{walk_len}.prom"));
        let out = bpart()
            .arg("run")
            .arg(&graph)
            .args(["--parts", "3", "--app", "deepwalk", "--backend", "process"])
            .args(["--walk-len", walk_len, "--metrics-out"])
            .arg(&metrics)
            .output()
            .expect("run bpart run --backend process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
        // The digest of paths no worker kept is the oracle's.
        assert!(stdout.contains("bit-identical:   yes"), "{stdout}");

        let prom = std::fs::read_to_string(&metrics).expect("metrics snapshot");
        std::fs::remove_file(&metrics).ok();
        let peak = |w: u64| -> u64 {
            let series = format!("proc_peak_rss_bytes{{worker=\"{w}\"}} ");
            let line = prom.lines().find_map(|l| l.strip_prefix(&series));
            let text = line.unwrap_or_else(|| panic!("no {series} in:\n{prom}"));
            let row = stdout
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("m{w}:")));
            let row = row.unwrap_or_else(|| panic!("no m{w} row in:\n{stdout}"));
            assert!(
                row.contains(" edges, peak ") && row.ends_with(" MB"),
                "{row}"
            );
            text.trim()
                .parse()
                .unwrap_or_else(|e| panic!("{series}{text}: {e}"))
        };
        (0..WORKERS).map(peak).collect()
    };
    let (short, long) = (peaks("10"), peaks("80"));
    for (w, (short, long)) in short.iter().zip(&long).enumerate() {
        assert!(*short > 0);
        assert!(
            long.abs_diff(*short) <= 2 * MB,
            "worker {w} peaked at {short} bytes walking 10 steps, {long} walking 80"
        );
    }
    std::fs::remove_file(&graph).ok();
}

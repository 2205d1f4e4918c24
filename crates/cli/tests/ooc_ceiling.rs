//! Process-level guard on the out-of-core path users run: the real `bpart`
//! binary shards `friendster_like` × 0.2 (a 10.7 MB stream in 65 shards)
//! and partitions it from the shard directory, and that process must
//! (a) place every vertex where the resident pass over the same graph
//! places it, byte for byte, and (b) peak well below the stream it read —
//! the `O(n + one shard)` residency DESIGN.md §14 promises.
//!
//! Measured on this graph, debug / release build: the shard pass peaks at
//! 6.5 / 3.7 MB, the resident pass (and a shard loop that keeps every
//! mapped shard alive) at 17.7 / 14.9 MB. The bound sits between the two
//! regimes as a fraction of the stream, so pointing the out-of-core
//! invocation below at the `.bpgr` fails it. `--mem-ceiling` is the hard
//! backstop: in 12 MB of address space the shard pass runs (it needs 9 / 6)
//! and the resident pass dies (it needs 20 / 16).
//! (`proc_peak_rss_bytes` is `VmHWM` of `/proc/self/status`: linux only.)

#![cfg(target_os = "linux")]

use std::path::Path;
use std::process::Command;

/// Of the stream's bytes: 8.0 MB here, between 6.5 and 14.9.
const FRACTION: f64 = 0.75;
const CEILING_MB: &str = "12";

fn bpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpart"))
}

/// Runs to success and returns what the command printed.
fn run(command: &mut Command) -> String {
    let out = command.output().expect("run bpart");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{command:?}\n{stdout}{stderr}");
    stdout
}

/// The integer that ends right before `marker`.
fn number_before(text: &str, marker: &str) -> u64 {
    let at = text
        .find(marker)
        .unwrap_or_else(|| panic!("no {marker:?} in {text}"));
    let digits = text[..at]
        .bytes()
        .rev()
        .take_while(u8::is_ascii_digit)
        .count();
    text[at - digits..at].parse().expect("a number")
}

fn partition(scheme: &str, out: &Path) -> Command {
    let mut command = bpart();
    command.args(["partition", "--parts", "8", "--scheme", scheme, "--out"]);
    command.arg(out);
    command
}

#[test]
fn the_shard_pass_places_what_the_resident_pass_places_and_peaks_below_the_stream() {
    let dir = std::env::temp_dir().join(format!("bpart_ooc_ceiling_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, shards, metrics) = (dir.join("g.bpgr"), dir.join("shards"), dir.join("m.prom"));
    let (ooc_parts, resident_parts) = (dir.join("ooc.parts"), dir.join("resident.parts"));

    let made = run(bpart()
        .args(["generate", "--preset", "friendster_like", "--scale", "0.2"])
        .arg("--out")
        .arg(&graph));
    // A shard holds 8 bytes a vertex and 8 an edge; 64 to the stream.
    let shard_bytes = 8 * (number_before(&made, " vertices") + number_before(&made, " edges")) / 64;
    let sharded = run(bpart()
        .arg("shard")
        .arg(&graph)
        .arg("--out-dir")
        .arg(&shards)
        .args(["--shard-bytes", &shard_bytes.to_string()]));
    let stream = number_before(&sharded, " bytes, source");

    for scheme in ["fennel", "bpart-p1"] {
        let report = run(partition(scheme, &ooc_parts)
            .arg("--shard-dir")
            .arg(&shards)
            .args(["--mem-ceiling", CEILING_MB])
            .arg("--metrics-out")
            .arg(&metrics));
        // The pass may hold a budget of four shards (it maps one at a
        // time); the data is at least ten budgets long.
        let budget = 4 * number_before(&report, " bytes max resident");
        assert!(
            stream >= 10 * budget,
            "stream {stream} B, budget {budget} B"
        );

        run(partition(scheme, &resident_parts).arg(&graph));
        assert!(
            std::fs::read(&ooc_parts).unwrap() == std::fs::read(&resident_parts).unwrap(),
            "{scheme}: the out-of-core assignment is not the resident one"
        );

        let peak: u64 = std::fs::read_to_string(&metrics)
            .unwrap()
            .lines()
            .find_map(|line| line.strip_prefix("proc_peak_rss_bytes "))
            .expect("the snapshot carries the process's peak")
            .parse()
            .unwrap();
        assert!(
            peak as f64 <= FRACTION * stream as f64,
            "{scheme}: peak {peak} B is {:.2} x the {stream} B stream, limit {FRACTION}",
            peak as f64 / stream as f64
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Out-of-core memory-ceiling bench — partition a graph many times larger
//! than the allowed buffer memory and *prove* the residency claim.
//!
//! The shard loop (DESIGN.md §14) promises `O(n + one shard)` resident memory.
//! This bench makes that promise falsifiable:
//!
//! 1. The **parent** generates the friendster_like preset at the harness
//!    scale, writes it into a shard directory whose shard size is derived
//!    from a buffer budget of 1/16 of the on-disk stream (so the data is
//!    ≥ 10× the budget by construction), and runs the in-memory oracle
//!    partitioners for the bit-identity and cut comparison.
//! 2. For each streaming scheme it re-executes **itself as a child
//!    process** (`BPART_OOM_CHILD=1`) that applies a hard `RLIMIT_AS`
//!    ceiling, walks the shards through the placement kernel, and
//!    reports its own `VmHWM` peak RSS plus an FNV-1a hash of the
//!    assignment on stdout as `key=value` lines. A fresh process means
//!    the high-water mark covers *only* the out-of-core pass — graph
//!    generation and sharding (the unconstrained prep phase) never touch
//!    the measured process.
//! 3. Results land in `BENCH_oom.json` (peak RSS and the loop's
//!    fetch/commit busy times) and `results/history/oom.json` for `bpart obs diff`
//!    against the checked-in `baseline-oom.json`.
//!
//! With `BPART_GATE=1` the binary exits non-zero if any child's peak RSS
//! exceeds the configured ceiling, if the stream/budget ratio fell below
//! 10×, if an assignment is not bit-identical to its in-memory oracle, or
//! if the cut degrades more than 5% (plus a 0.01 floor) — the `oom-gate`
//! CI job.

use bpart_bench::{banner, dataset, json, render_table, write_bench_json, write_history_record};
use bpart_core::bpart::WeightedStream;
use bpart_core::pio::{self, ShardSet};
use bpart_core::prelude::*;
use bpart_core::{metrics, ooc_cut_ratio, stream_assign_ooc, OocConfig, OocScheme};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const K: usize = 8;

/// FNV-1a over the little-endian assignment — cheap, dependency-free, and
/// identical in parent and child by construction.
fn fnv1a(assignment: &[PartId]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &p in assignment {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn env_u64(key: &str) -> u64 {
    std::env::var(key)
        .unwrap_or_else(|_| panic!("{key} not set"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key}"))
}

fn scheme_of(name: &str) -> OocScheme {
    match name {
        "fennel" => OocScheme::Fennel,
        _ => OocScheme::BPartP1 { c: 0.5 },
    }
}

/// The measured process: cap the address space, stream the shards, report
/// everything the parent gates on as `key=value` stdout lines.
fn child_main() {
    let shards_dir = std::env::var("BPART_OOM_SHARDS").expect("BPART_OOM_SHARDS not set");
    let scheme_name = std::env::var("BPART_OOM_SCHEME").expect("BPART_OOM_SCHEME not set");
    let limit = env_u64("BPART_OOM_LIMIT_BYTES");
    if limit > 0 {
        bpart_obs::rss::set_address_space_limit(limit)
            .unwrap_or_else(|e| panic!("setrlimit failed: {e}"));
    }
    let shards = ShardSet::open(Path::new(&shards_dir)).expect("cannot open shards");
    let config = OocConfig::new(K, scheme_of(&scheme_name));
    let outcome = stream_assign_ooc(&shards, &config).expect("out-of-core pass failed");
    let cut = ooc_cut_ratio(&shards, &outcome.assignment).expect("cut re-stream failed");

    println!("assignment_hash={:#018x}", fnv1a(&outcome.assignment));
    println!("cut_ratio={cut}");
    println!("secs={}", outcome.stats.secs);
    println!("vertices_per_sec={}", outcome.stats.vertices_per_sec());
    println!(
        "peak_rss_bytes={}",
        bpart_obs::rss::peak_rss_bytes().unwrap_or(0)
    );
    println!(
        "current_rss_bytes={}",
        bpart_obs::rss::current_rss_bytes().unwrap_or(0)
    );
    for s in &outcome.pipeline.stages {
        let p = format!("stage_{}", s.name);
        println!("{p}_shards={}", s.shards);
        println!("{p}_busy_secs={}", s.busy_secs);
    }
}

/// One scheme's full comparison: oracle vs. RLIMIT-capped child.
struct SchemeRun {
    name: &'static str,
    oracle_hash: u64,
    oracle_cut: f64,
    child: BTreeMap<String, String>,
}

impl SchemeRun {
    fn child_f64(&self, key: &str) -> f64 {
        self.child
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    fn child_u64(&self, key: &str) -> u64 {
        self.child
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    fn identical(&self) -> bool {
        self.child.get("assignment_hash").map(String::as_str)
            == Some(format!("{:#018x}", self.oracle_hash).as_str())
    }
}

fn spawn_child(shards_dir: &Path, scheme: &str, limit_bytes: u64) -> BTreeMap<String, String> {
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let output = std::process::Command::new(exe)
        .env("BPART_OOM_CHILD", "1")
        .env("BPART_OOM_SHARDS", shards_dir)
        .env("BPART_OOM_SCHEME", scheme)
        .env("BPART_OOM_LIMIT_BYTES", limit_bytes.to_string())
        .output()
        .expect("cannot spawn child");
    if !output.status.success() {
        panic!(
            "child ({scheme}, limit {limit_bytes}B) failed with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| {
            l.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn main() {
    if std::env::var("BPART_OOM_CHILD").is_ok_and(|v| v == "1") {
        child_main();
        return;
    }

    // ---- prep phase (unconstrained: generation + sharding + oracles) ----
    let g = dataset("friendster_like");
    let n = g.num_vertices();
    let m = g.num_edges();

    // The buffer budget is 1/16 of the on-disk stream (floored so tiny
    // `BPART_SCALE` runs stay functional), making data ≥ 10× budget by
    // construction; shards are a quarter of the budget so the one mapped
    // shard stays well inside it.
    let est_stream_bytes = 8 * n as u64 + 8 * m as u64;
    let buffer_budget = (est_stream_bytes / 16).max(64 * 1024);
    let shard_target = (buffer_budget / 4).max(4 * 1024);

    let shards_dir: PathBuf =
        std::env::temp_dir().join(format!("bpart-oom-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shards_dir);
    let manifest = pio::write_shards(&g, &shards_dir, shard_target).expect("cannot write shards");
    let shard_set = ShardSet::open(&shards_dir).expect("cannot reopen shards");
    let data_bytes = shard_set.total_bytes();
    let ratio = data_bytes as f64 / buffer_budget as f64;

    // RSS ceiling: process baseline + the dense O(n) state + a generous
    // multiple of the buffer budget. Deliberately far below the stream
    // size once the data outgrows the fixed base, so an O(m) regression
    // in the shard loop trips the gate on real CI scales.
    let rss_ceiling = 24 * 1024 * 1024 + 8 * n as u64 + 16 * buffer_budget;
    // The RLIMIT_AS ceiling adds slack for what address space counts and
    // RSS does not (thread stack reservations, allocator arenas, the
    // binary's own mappings). It is the hard backstop; the precise gate
    // is the self-measured VmHWM against `rss_ceiling`.
    let as_limit = rss_ceiling + 512 * 1024 * 1024;

    banner(
        "Out-of-core memory ceiling",
        &format!(
            "friendster_like, k = {K}, stream {data_bytes}B ({} shards), \
             budget {buffer_budget}B ({ratio:.1}x), rss ceiling {rss_ceiling}B",
            manifest.shards.len()
        ),
    );

    let mut runs: Vec<SchemeRun> = Vec::new();
    for (name, oracle) in [
        ("fennel", Fennel::default().partition(&g, K)),
        ("bpart-p1", WeightedStream::default().partition(&g, K)),
    ] {
        let child = spawn_child(&shards_dir, name, as_limit);
        runs.push(SchemeRun {
            name,
            oracle_hash: fnv1a(oracle.assignment()),
            oracle_cut: metrics::edge_cut_ratio(&g, &oracle),
            child,
        });
    }
    let _ = std::fs::remove_dir_all(&shards_dir);

    let header: Vec<String> = [
        "scheme",
        "secs",
        "v/s",
        "cut",
        "oracle",
        "identical",
        "peak rss",
        "ceiling",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.3}", r.child_f64("secs")),
                format!("{:.0}", r.child_f64("vertices_per_sec")),
                format!("{:.4}", r.child_f64("cut_ratio")),
                format!("{:.4}", r.oracle_cut),
                if r.identical() { "yes" } else { "NO" }.to_string(),
                format!("{}K", r.child_u64("peak_rss_bytes") / 1024),
                format!("{}K", rss_ceiling / 1024),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    for r in &runs {
        println!(
            "{} shard loop: {} shards, fetch busy {:.3}s, commit busy {:.3}s",
            r.name,
            r.child_u64("stage_commit_shards"),
            r.child_f64("stage_fetch_busy_secs"),
            r.child_f64("stage_commit_busy_secs"),
        );
    }

    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            let stages: Vec<String> = ["fetch", "commit"]
                .iter()
                .map(|stage| {
                    let key = |suffix: &str| format!("stage_{stage}_{suffix}");
                    json::object(&[
                        ("stage", json::string(stage)),
                        ("shards", r.child_u64(&key("shards")).to_string()),
                        ("busy_secs", json::number(r.child_f64(&key("busy_secs")))),
                    ])
                })
                .collect();
            json::object(&[
                ("scheme", json::string(r.name)),
                ("secs", json::number(r.child_f64("secs"))),
                (
                    "vertices_per_sec",
                    json::number(r.child_f64("vertices_per_sec")),
                ),
                ("cut_ratio", json::number(r.child_f64("cut_ratio"))),
                ("oracle_cut_ratio", json::number(r.oracle_cut)),
                (
                    "bit_identical",
                    if r.identical() { "true" } else { "false" }.to_string(),
                ),
                ("peak_rss_bytes", r.child_u64("peak_rss_bytes").to_string()),
                ("stages", json::array(&stages)),
            ])
        })
        .collect();
    let doc = json::object(&[
        ("bench", json::string("stream_oom")),
        ("dataset", json::string("friendster_like")),
        ("vertices", n.to_string()),
        ("edges", m.to_string()),
        ("k", K.to_string()),
        ("stream_bytes", data_bytes.to_string()),
        ("buffer_budget_bytes", buffer_budget.to_string()),
        ("shard_count", manifest.shards.len().to_string()),
        ("stream_to_budget_ratio", json::number(ratio)),
        ("rss_ceiling_bytes", rss_ceiling.to_string()),
        ("address_space_limit_bytes", as_limit.to_string()),
        ("runs", json::array(&items)),
    ]);
    write_bench_json("BENCH_oom.json", &doc);

    // History record for `bpart obs diff` against baseline-oom.json. The
    // deterministic cut ratios are the watched metrics; peak RSS and the
    // ratio ride along for humans (RSS varies across hosts and is gated
    // absolutely above, not relatively here).
    let mut hist: Vec<(String, f64)> = Vec::new();
    for r in &runs {
        let slug = r.name.replace('-', "_");
        hist.push((format!("{slug}_ooc_cut"), r.child_f64("cut_ratio")));
        hist.push((format!("{slug}_oracle_cut"), r.oracle_cut));
        hist.push((
            format!("{slug}_peak_rss_bytes"),
            r.child_u64("peak_rss_bytes") as f64,
        ));
    }
    hist.push(("stream_to_budget_ratio".to_string(), ratio));
    write_history_record(
        "oom",
        "friendster_like",
        &[
            ("k", K.to_string()),
            ("buffer_budget_bytes", buffer_budget.to_string()),
        ],
        &hist,
    );

    if std::env::var("BPART_GATE").is_ok_and(|v| v == "1") {
        let mut failed = false;
        if ratio < 10.0 {
            eprintln!("OOM GATE: stream is only {ratio:.1}x the buffer budget (need >= 10x)");
            failed = true;
        }
        for r in &runs {
            let peak = r.child_u64("peak_rss_bytes");
            if peak == 0 {
                eprintln!(
                    "OOM GATE: {} child reported no peak RSS (non-linux host?); \
                     skipping the residency check",
                    r.name
                );
            } else if peak > rss_ceiling {
                eprintln!(
                    "OOM GATE: {} peak RSS {peak}B exceeds ceiling {rss_ceiling}B",
                    r.name
                );
                failed = true;
            }
            if !r.identical() {
                eprintln!(
                    "OOM GATE: {} out-of-core assignment diverged from the in-memory \
                     oracle (hash {} vs {:#018x})",
                    r.name,
                    r.child
                        .get("assignment_hash")
                        .map(String::as_str)
                        .unwrap_or("<missing>"),
                    r.oracle_hash
                );
                failed = true;
            }
            let cut = r.child_f64("cut_ratio");
            if cut > r.oracle_cut * 1.05 + 0.01 {
                eprintln!(
                    "OOM GATE: {} out-of-core cut {cut:.4} degrades >5% over oracle {:.4}",
                    r.name, r.oracle_cut
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("oom gate: stream {ratio:.1}x buffer budget, peak RSS within ceiling");
        println!("oom gate: out-of-core assignments bit-identical to in-memory oracles");
    }
}

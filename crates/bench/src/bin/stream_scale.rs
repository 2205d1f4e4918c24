//! Parallel streaming scaling — throughput and quality of the
//! buffered-parallel engine versus the exact sequential pass, on the
//! lj_like dataset at the harness scale.
//!
//! For Fennel and BPart-P1 (the two schemes built on the shared streaming
//! engine), each thread count runs the same partition and reports
//! throughput (vertices/s and edges/s), speedup over the sequential run,
//! edge-cut ratio, and the commit-barrier synchronization stall. A
//! hot-path probe then times the sequential phase-1 pass and a walker
//! run on the twitter_like preset (best of N) and records edges/s and
//! steps/s plus their inverse unit costs into `BENCH_stream.json` and
//! `results/history/hotpath.json`, which CI diffs against the checked-in
//! `baseline-hotpath.json`. The same record carries the iteration
//! engine's unit cost (ns per scanned edge of a PageRank superstep), timed
//! over as many iterations as fill a second.
//!
//! The buffer is sized to ~1/16 of the vertex stream (capped at the
//! engine default), keeping the buffer/stream ratio — which is what the
//! quality envelope depends on — stable across `BPART_SCALE` values.
//!
//! Output lands in `BENCH_stream.json`, together with the run's metrics
//! registry snapshot (`stream.sync_ns` etc., see DESIGN.md §10) so CI can
//! compare sync-stall behaviour across commits, and a span-tracing
//! overhead measurement (the same sequential pass with the tracer off vs
//! on, min of N repetitions each).
//!
//! With `BPART_GATE=1` the binary exits non-zero if any 2-thread run
//! degrades the edge cut by more than 5% (plus an absolute 0.01 floor)
//! over the sequential run, or if span tracing costs more than 3% (plus
//! a 10ms floor against timer noise on tiny scales) — the CI perf gate.

use bpart_bench::{
    banner, dataset, json, metric_slug, render_table, timed, write_bench_json, write_history_record,
};
use bpart_core::bpart::WeightedStream;
use bpart_core::metrics;
use bpart_core::prelude::*;
use bpart_core::DEFAULT_BUFFER_SIZE;
use bpart_engine::{apps::PageRank, IterationEngine};
use bpart_walker::{apps as wapps, WalkEngine, WalkStarts};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const K: usize = 8;

struct Run {
    scheme: &'static str,
    threads: usize,
    secs: f64,
    throughput: f64,
    eps: f64,
    speedup: f64,
    cut: f64,
    stall: f64,
    buffers: usize,
}

fn scheme_at(name: &'static str, parallel: ParallelConfig) -> Box<dyn Partitioner> {
    match name {
        "Fennel" => Box::new(Fennel::new(FennelConfig {
            parallel,
            ..Default::default()
        })),
        _ => Box::new(WeightedStream::new(BPartConfig {
            parallel,
            ..Default::default()
        })),
    }
}

fn main() {
    let g = dataset("lj_like");
    let n = g.num_vertices();
    let buffer_size = (n / 16).clamp(1, DEFAULT_BUFFER_SIZE);
    banner(
        "Stream scaling",
        &format!("lj_like, k = {K}, buffer = {buffer_size}, threads = {THREAD_COUNTS:?}"),
    );

    let mut runs: Vec<Run> = Vec::new();
    for scheme_name in ["Fennel", "BPart-P1"] {
        let mut base_secs = 0.0;
        for &threads in &THREAD_COUNTS {
            let scheme = scheme_at(
                scheme_name,
                ParallelConfig {
                    threads,
                    buffer_size,
                },
            );
            let (partition, stats) = scheme.partition_with_stats(&g, K);
            if threads == 1 {
                base_secs = stats.secs;
            }
            runs.push(Run {
                scheme: scheme_name,
                threads,
                secs: stats.secs,
                throughput: stats.vertices_per_sec(),
                eps: stats.edges_per_sec(),
                speedup: if stats.secs > 0.0 {
                    base_secs / stats.secs
                } else {
                    0.0
                },
                cut: metrics::edge_cut_ratio(&g, &partition),
                stall: stats.sync_stall_ratio(),
                buffers: stats.buffers,
            });
        }
    }

    let header: Vec<String> = [
        "scheme", "threads", "secs", "v/s", "e/s", "speedup", "cut", "stall",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                r.threads.to_string(),
                format!("{:.3}", r.secs),
                format!("{:.0}", r.throughput),
                format!("{:.0}", r.eps),
                format!("{:.2}x", r.speedup),
                format!("{:.3}", r.cut),
                format!("{:.1}%", r.stall * 100.0),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    println!(
        "note: speedup needs real cores; single-core hosts still verify\n\
         determinism and the quality envelope."
    );

    // Observability overhead: the identical sequential pass with the tracer
    // off (the release default) vs on *with the continuous profiler
    // sampling* — the always-on diagnostics configuration, so the gate
    // covers both the span hot path and the 2ms stack sampler. Min-of-N
    // per side filters scheduler noise; the gate below adds an absolute
    // floor for tiny scales.
    const OBS_REPS: usize = 3;
    let measure = |reps: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let scheme = scheme_at(
                "BPart-P1",
                ParallelConfig {
                    threads: 1,
                    buffer_size,
                },
            );
            let (_, secs) = timed(|| scheme.partition(&g, K));
            best = best.min(secs);
        }
        best
    };
    bpart_obs::set_trace_enabled(false);
    let secs_traced_off = measure(OBS_REPS);
    bpart_obs::set_trace_enabled(true);
    bpart_obs::clear_trace();
    bpart_obs::profile::reset_profile();
    bpart_obs::profile::set_profile_enabled(true);
    bpart_obs::profile::start_sampler(bpart_obs::profile::DEFAULT_SAMPLE_INTERVAL);
    let secs_traced_on = measure(OBS_REPS);
    bpart_obs::profile::stop_sampler();
    bpart_obs::profile::set_profile_enabled(false);
    bpart_obs::set_trace_enabled(false);
    let overhead = if secs_traced_off > 0.0 {
        secs_traced_on / secs_traced_off - 1.0
    } else {
        0.0
    };
    println!(
        "tracing overhead: off {secs_traced_off:.4}s, on {secs_traced_on:.4}s ({:+.1}%) \
         [{} profile samples]\n",
        overhead * 100.0,
        bpart_obs::profile::sample_count()
    );

    // Hot-path throughput probe (ROADMAP item 5): the sequential phase-1
    // pass and a walker run on the twitter_like preset, best of N so
    // scheduler noise does not leak into the recorded numbers. Alongside
    // each throughput we record its *inverse* unit cost (ns/edge,
    // ns/step): `obs diff` treats growth as regression, and throughput
    // regresses by shrinking, so the unit costs are what CI watches
    // against `results/history/baseline-hotpath.json`.
    const HOT_REPS: usize = 3;
    let tg = dataset("twitter_like");
    let hot_buffer = (tg.num_vertices() / 16).clamp(1, DEFAULT_BUFFER_SIZE);
    let mut p1_eps = 0.0f64;
    let mut p1_partition = None;
    for _ in 0..HOT_REPS {
        let scheme = scheme_at(
            "BPart-P1",
            ParallelConfig {
                threads: 1,
                buffer_size: hot_buffer,
            },
        );
        let (partition, stats) = scheme.partition_with_stats(&tg, K);
        p1_eps = p1_eps.max(stats.edges_per_sec());
        p1_partition = Some(partition);
    }
    let graph = Arc::new(tg);
    let partition = Arc::new(p1_partition.expect("HOT_REPS > 0"));
    let walk_app = wapps::DeepWalk::new(20);
    let mut walk_steps = 0u64;
    let mut walk_sps = 0.0f64;
    for _ in 0..HOT_REPS {
        let engine = WalkEngine::default_for(graph.clone(), partition.clone());
        let (run, secs) = timed(|| engine.run(&walk_app, &WalkStarts::PerVertex(1), 42));
        walk_steps = run.total_steps;
        if secs > 0.0 {
            walk_sps = walk_sps.max(run.total_steps as f64 / secs);
        }
    }
    // The iteration engine's unit cost. One superstep of a CI-scale graph
    // takes well under a millisecond, so the timed region is one PageRank
    // run of as many supersteps as it takes to last a second, and the
    // record keeps the fastest of HOT_REPS such regions. PageRank scans
    // every out-edge every superstep, so edges scanned = iterations x |E|.
    let engine = IterationEngine::default_for(graph.clone(), partition.clone());
    let mut engine_iters = 8usize;
    let engine_secs = loop {
        let mut best = f64::INFINITY;
        for _ in 0..HOT_REPS {
            let (run, secs) = timed(|| engine.run(&PageRank::new(engine_iters)));
            assert_eq!(run.iterations, engine_iters);
            best = best.min(secs);
        }
        if best >= 1.0 {
            break best;
        }
        // Aim a fifth past the second: a short region overstates the
        // per-superstep time by the run's fixed set-up.
        let wanted = (engine_iters as f64 * 1.2 / best.max(1e-6)).ceil() as usize;
        engine_iters = wanted.max(engine_iters + 1);
    };
    let engine_ns_per_edge = engine_secs * 1e9 / (engine_iters * graph.num_edges()) as f64;
    let inverse_ns = |per_sec: f64| if per_sec > 0.0 { 1e9 / per_sec } else { 0.0 };
    println!(
        "hotpath (twitter_like): phase-1 {p1_eps:.0} edges/s ({:.1} ns/edge), \
         walker {walk_sps:.0} steps/s ({:.1} ns/step), \
         engine {engine_ns_per_edge:.1} ns/edge ({engine_iters} PageRank supersteps, \
         {engine_secs:.2} s)\n",
        inverse_ns(p1_eps),
        inverse_ns(walk_sps)
    );
    let hotpath = json::object(&[
        ("dataset", json::string("twitter_like")),
        ("edges", graph.num_edges().to_string()),
        ("p1_edges_per_sec", json::number(p1_eps)),
        ("p1_ns_per_edge", json::number(inverse_ns(p1_eps))),
        ("walk_steps", walk_steps.to_string()),
        ("walk_steps_per_sec", json::number(walk_sps)),
        ("walk_ns_per_step", json::number(inverse_ns(walk_sps))),
        ("engine_iters", engine_iters.to_string()),
        ("engine_region_secs", json::number(engine_secs)),
        ("engine_ns_per_edge", json::number(engine_ns_per_edge)),
    ]);

    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            json::object(&[
                ("scheme", json::string(r.scheme)),
                ("threads", r.threads.to_string()),
                ("secs", json::number(r.secs)),
                ("vertices_per_sec", json::number(r.throughput)),
                ("edges_per_sec", json::number(r.eps)),
                ("speedup", json::number(r.speedup)),
                ("cut_ratio", json::number(r.cut)),
                ("sync_stall_ratio", json::number(r.stall)),
                ("buffers", r.buffers.to_string()),
            ])
        })
        .collect();
    // Attach the metrics registry accumulated over all runs above: the
    // per-layer counters let CI diff sync-stall time across commits
    // without re-parsing the table, and the full exposition rides along
    // for ad-hoc inspection.
    let obs_metrics = json::object(&[
        (
            "stream_vertices",
            bpart_obs::metrics::counter("stream.vertices")
                .get()
                .to_string(),
        ),
        (
            "stream_edges",
            bpart_obs::metrics::counter("stream.edges")
                .get()
                .to_string(),
        ),
        (
            "stream_pass_ns",
            bpart_obs::metrics::counter("stream.pass_ns")
                .get()
                .to_string(),
        ),
        (
            "stream_sync_ns",
            bpart_obs::metrics::counter("stream.sync_ns")
                .get()
                .to_string(),
        ),
        (
            "stream_score_ns",
            bpart_obs::metrics::counter("stream.score_ns")
                .get()
                .to_string(),
        ),
        (
            "stream_commit_ns",
            bpart_obs::metrics::counter("stream.commit_ns")
                .get()
                .to_string(),
        ),
        (
            "exposition",
            json::string(&bpart_obs::metrics::prometheus_snapshot()),
        ),
    ]);
    let obs_overhead = json::object(&[
        ("secs_traced_off", json::number(secs_traced_off)),
        ("secs_traced_on", json::number(secs_traced_on)),
        ("overhead", json::number(overhead)),
    ]);
    let doc = json::object(&[
        ("bench", json::string("stream_scale")),
        ("dataset", json::string("lj_like")),
        ("vertices", n.to_string()),
        ("k", K.to_string()),
        ("buffer_size", buffer_size.to_string()),
        ("runs", json::array(&items)),
        ("hotpath", hotpath),
        ("metrics", obs_metrics),
        ("tracing", obs_overhead),
    ]);
    write_bench_json("BENCH_stream.json", &doc);

    // Hot-path history record, diffed by CI against the checked-in
    // baseline (watched: the inverse unit costs; throughputs ride along
    // for human reading).
    write_history_record(
        "hotpath",
        "twitter_like",
        &[("k", K.to_string()), ("walk_len", "20".to_string())],
        &[
            ("p1_edges_per_sec".to_string(), p1_eps),
            ("p1_ns_per_edge".to_string(), inverse_ns(p1_eps)),
            ("walk_steps_per_sec".to_string(), walk_sps),
            ("walk_ns_per_step".to_string(), inverse_ns(walk_sps)),
            ("engine_ns_per_edge".to_string(), engine_ns_per_edge),
            ("engine_region_secs".to_string(), engine_secs),
        ],
    );

    // History record for run-to-run regression diffing: the deterministic
    // cut ratios are the watched metrics (timings vary across hosts and
    // ride along unwatched).
    let mut hist: Vec<(String, f64)> = Vec::new();
    for r in &runs {
        let slug = format!("{}_t{}", metric_slug(r.scheme), r.threads);
        hist.push((format!("{slug}_cut"), r.cut));
        hist.push((format!("{slug}_secs"), r.secs));
        hist.push((format!("{slug}_eps"), r.eps));
        hist.push((format!("{slug}_stall"), r.stall));
    }
    hist.push(("tracing_overhead".to_string(), overhead));
    write_history_record(
        "stream_scale",
        "lj_like",
        &[
            ("k", K.to_string()),
            ("buffer_size", buffer_size.to_string()),
        ],
        &hist,
    );

    if std::env::var("BPART_GATE").is_ok_and(|v| v == "1") {
        let mut failed = false;
        for scheme_name in ["Fennel", "BPart-P1"] {
            let seq = runs
                .iter()
                .find(|r| r.scheme == scheme_name && r.threads == 1)
                .expect("sequential run present");
            for r in runs.iter().filter(|r| r.scheme == scheme_name) {
                if r.threads == 2 && r.cut > seq.cut * 1.05 + 0.01 {
                    eprintln!(
                        "PERF GATE: {} cut {:.4} at {} threads degrades >5% \
                         over sequential {:.4}",
                        r.scheme, r.cut, r.threads, seq.cut
                    );
                    failed = true;
                }
            }
        }
        // Instrumentation must be cheap enough to leave on in release
        // builds: tracing + continuous profiling on may not cost more
        // than 3% over everything off (10ms absolute floor so timer
        // noise at tiny BPART_SCALE values cannot flake the gate).
        if secs_traced_on > secs_traced_off * 1.03 + 0.01 {
            eprintln!(
                "PERF GATE: tracing+profiling overhead {:.1}% exceeds 3% \
                 (off {secs_traced_off:.4}s, on {secs_traced_on:.4}s)",
                overhead * 100.0
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("perf gate: 2-thread edge cut within 5% of sequential");
        println!("perf gate: span-tracing overhead within 3% of untraced");
    }
}

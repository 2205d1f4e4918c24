//! Command implementations. Each returns its output as a `String` so the
//! behaviour is unit-testable without capturing stdout.

use crate::args::{Command, ObsFlags};
use crate::USAGE;
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan, Telemetry};
use bpart_core::pio;
use bpart_core::prelude::*;
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::IterationEngine;
use bpart_graph::{generate, io, stats, CsrGraph};
use bpart_multilevel::Multilevel;
use bpart_walker::apps::{DeepWalk, SimpleRandomWalk};
use bpart_walker::{WalkEngine, WalkStarts};
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced to the user with context.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Executes a parsed command and returns its printable output.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Schemes => Ok(scheme_names().join("\n") + "\n"),
        Command::Generate {
            preset,
            scale,
            seed,
            out,
        } => generate_cmd(preset, *scale, *seed, out),
        Command::Stats { graph } => stats_cmd(graph),
        Command::Partition {
            graph,
            parts,
            scheme,
            out,
            threads,
            buffer_size,
            input_format,
            shard_dir,
            mem_ceiling_mb,
            obs,
        } => {
            let exports = ObsExports::begin(obs)?;
            let mut text = partition_cmd(
                graph,
                *parts,
                scheme,
                out.as_deref(),
                *threads,
                *buffer_size,
                input_format,
                shard_dir.as_deref(),
                *mem_ceiling_mb,
                obs,
            )?;
            exports.finish(&mut text)?;
            Ok(text)
        }
        Command::Shard {
            graph,
            out_dir,
            shard_bytes,
        } => shard_cmd(graph, out_dir, *shard_bytes),
        Command::Quality { graph, partition } => quality_cmd(graph, partition),
        Command::Convert { src, dst } => convert_cmd(src, dst),
        Command::Run {
            graph,
            parts,
            scheme,
            app,
            iters,
            walk_len,
            seed,
            mode,
            backend,
            workers,
            fault_plan,
            checkpoint_every,
            threads,
            buffer_size,
            obs,
        } => {
            let exports = ObsExports::begin(obs)?;
            let mut text = if backend == "process" {
                run_process_cmd(
                    graph,
                    *parts,
                    scheme,
                    app,
                    *iters,
                    *walk_len,
                    *seed,
                    *workers,
                    fault_plan.as_deref(),
                    *checkpoint_every,
                    obs,
                )?
            } else {
                run_cmd(
                    graph,
                    *parts,
                    scheme,
                    app,
                    *iters,
                    *walk_len,
                    *seed,
                    mode,
                    fault_plan.as_deref(),
                    *checkpoint_every,
                    ParallelConfig {
                        threads: *threads,
                        buffer_size: *buffer_size,
                    },
                    obs,
                )?
            };
            exports.finish(&mut text)?;
            Ok(text)
        }
        Command::Worker {
            connect,
            worker_id,
            key,
            heartbeat_ms,
        } => {
            bpart_dist::run_worker(bpart_dist::WorkerConfig {
                connect: connect.clone(),
                worker_id: *worker_id,
                key: *key,
                heartbeat: std::time::Duration::from_millis((*heartbeat_ms).max(1)),
            })
            .map_err(|e| fail(format!("worker {worker_id} failed: {e}")))?;
            Ok(String::new())
        }
        Command::Report {
            traces,
            critical_path,
            profile,
            straggler_factor,
        } => report_cmd(traces, *critical_path, *profile, *straggler_factor),
        Command::ObsDiff {
            a,
            b,
            watch,
            threshold,
        } => obs_diff_cmd(a, b, watch, *threshold),
        Command::ObsAlerts { addr } => obs_alerts_cmd(addr),
    }
}

/// Observability plumbing requested via the shared [`ObsFlags`].
///
/// `begin` arms the global tracer (and resets any spans left over from a
/// previous command in the same process) before the workload runs and, if
/// `--serve-addr` was given, starts the live HTTP endpoint; `finish` writes
/// the requested files afterwards, stops the server, and appends a line per
/// artifact to the report so the user knows where to look.
struct ObsExports<'a> {
    obs: &'a ObsFlags,
    server: Option<bpart_obs::serve::ServeHandle>,
}

impl<'a> ObsExports<'a> {
    fn begin(obs: &'a ObsFlags) -> Result<Self, CliError> {
        // The live /spans endpoint is only useful with tracing on, so
        // --serve-addr arms the tracer just like --trace-out does; the
        // profiler samples the tracer's live span stacks, so
        // --profile-out must arm it too.
        if obs.trace_out.is_some() || obs.serve_addr.is_some() || obs.profile_out.is_some() {
            bpart_obs::set_trace_enabled(true);
            bpart_obs::clear_trace();
        }
        // The continuous profiler runs whenever its output has somewhere
        // to go: a --profile-out file or the live /profile endpoint.
        if obs.profile_out.is_some() || obs.serve_addr.is_some() {
            bpart_obs::profile::reset_profile();
            bpart_obs::profile::set_profile_enabled(true);
            bpart_obs::profile::start_sampler(bpart_obs::profile::DEFAULT_SAMPLE_INTERVAL);
        }
        // The alert engine watches the registry in the background while a
        // live server is up (that's what turns /healthz degraded), and
        // `finish` reports anything still firing at the end of the run.
        if obs.serve_addr.is_some() {
            bpart_obs::alerts::install_builtin_rules();
            bpart_obs::alerts::start_evaluator(std::time::Duration::from_millis(250));
        }
        let server = match obs.serve_addr.as_deref() {
            Some(addr) => {
                let handle = bpart_obs::serve::start(addr)
                    .map_err(|e| fail(format!("cannot serve observability on {addr}: {e}")))?;
                // Announced on stderr so scripts scraping a `--serve-addr
                // 127.0.0.1:0` run can discover the chosen port while the
                // report itself stays on stdout.
                eprintln!("bpart: serving observability on http://{}", handle.addr());
                Some(handle)
            }
            None => None,
        };
        Ok(ObsExports { obs, server })
    }

    /// Every file is the view its endpoint serves, rendered once more at
    /// the end: this process and, after a process-backend run, every
    /// worker that reported.
    fn finish(mut self, text: &mut String) -> Result<(), CliError> {
        use bpart_obs::export;
        // The background threads stop first, so what they count is final.
        if self.obs.profile_out.is_some() || self.obs.serve_addr.is_some() {
            bpart_obs::profile::stop_sampler();
            bpart_obs::profile::set_profile_enabled(false);
        }
        if self.obs.serve_addr.is_some() {
            bpart_obs::alerts::stop_evaluator();
        }
        let local = bpart_obs::snapshot::Snapshot::capture(&mut 0);
        if self.obs.trace_out.is_some()
            || self.obs.serve_addr.is_some()
            || self.obs.profile_out.is_some()
        {
            bpart_obs::set_trace_enabled(false);
        }
        let store = bpart_obs::federation::global();
        let sources = store.sources(&local);
        let write = |what: &str, path: &str, body: &str| {
            export::write(Path::new(path), body)
                .map_err(|e| fail(format!("cannot write {what} {path}: {e}")))
        };
        if let Some(path) = self.obs.trace_out.as_deref() {
            let dropped = bpart_obs::tracer::dropped_spans();
            if dropped > 0 {
                eprintln!("warning: trace ring overflowed; {dropped} oldest spans were dropped");
            }
            let jsonl = export::spans_jsonl(&sources);
            write("trace", path, &jsonl)?;
            text.push_str(&format!(
                "  wrote {} spans to {path} (inspect with `bpart report {path}`)\n",
                jsonl.lines().count()
            ));
        }
        if let Some(path) = self.obs.metrics_out.as_deref() {
            write("metrics", path, &export::prometheus(&sources))?;
            text.push_str(&format!("  wrote metrics snapshot to {path}\n"));
        }
        if let Some(path) = self.obs.profile_out.as_deref() {
            write("profile", path, &export::folded(&sources))?;
            text.push_str(&format!(
                "  wrote folded profile to {path} (render with `bpart report --profile {path}`)\n"
            ));
        }
        if self.obs.serve_addr.is_some() {
            let fired: Vec<&str> = local
                .alerts
                .iter()
                .filter(|a| a.phase == bpart_obs::alerts::Phase::Firing)
                .map(|a| a.name.as_str())
                .collect();
            if !fired.is_empty() {
                text.push_str(&format!("  alerts firing at exit: {}\n", fired.join(", ")));
            }
        }
        drop(store);
        if let Some(server) = self.server.take() {
            let addr = server.addr();
            server.shutdown();
            text.push_str(&format!("  served observability on http://{addr}\n"));
        }
        Ok(())
    }
}

/// Builds the run-history record shared by `partition` and `run`, stamping
/// the configuration common to both.
fn history_record(
    obs: &ObsFlags,
    label: &str,
    graph_path: &str,
    scheme: &str,
    parts: usize,
    parallel: &ParallelConfig,
) -> bpart_obs::history::RunRecord {
    let mut rec = bpart_obs::history::RunRecord::new(label, graph_path);
    if let Some(rev) = obs.git_rev.as_deref() {
        rec = rec.with_git_rev(rev);
    }
    rec.set_config("scheme", scheme);
    rec.set_config("parts", parts);
    rec.set_config("threads", parallel.threads);
    rec.set_config("buffer_size", parallel.buffer_size);
    rec
}

/// Writes a finished history record and appends the pointer line.
fn write_history(
    rec: &bpart_obs::history::RunRecord,
    path: &str,
    text: &mut String,
) -> Result<(), CliError> {
    rec.write(Path::new(path))
        .map_err(|e| fail(format!("cannot write history {path}: {e}")))?;
    text.push_str(&format!(
        "  wrote history record to {path} (compare with `bpart obs diff`)\n"
    ));
    Ok(())
}

/// Parses one or more trace files and merges them into one view sorted by
/// start timestamp. One `--trace-out` file already holds a whole run —
/// a process-backend driver's spans and its workers', clock-aligned, in
/// disjoint id ranges; several files are for comparing runs, so when a
/// file's ids collide with those seen so far they are shifted past them
/// (parent links within the file move with them).
fn report_cmd(
    traces: &[String],
    critical_path: bool,
    profile: bool,
    straggler_factor: f64,
) -> Result<String, CliError> {
    if profile {
        return report_profile_cmd(traces);
    }
    let mut all: Vec<bpart_obs::snapshot::Span> = Vec::new();
    let mut used: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for trace_path in traces {
        let text = std::fs::read_to_string(trace_path)
            .map_err(|e| fail(format!("cannot open {trace_path}: {e}")))?;
        let mut spans = bpart_obs::report::parse_trace_jsonl(&text)
            .map_err(|e| fail(format!("{trace_path}: {e}")))?;
        let file_ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        if spans.iter().any(|s| used.contains(&s.id)) {
            let shift = used.iter().next_back().copied().unwrap_or(0) + 1;
            for s in &mut spans {
                s.id = s.id.wrapping_add(shift);
                if let Some(p) = s.parent {
                    if file_ids.contains(&p) {
                        s.parent = Some(p.wrapping_add(shift));
                    }
                }
            }
        }
        used.extend(spans.iter().map(|s| s.id));
        all.extend(spans);
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    if critical_path {
        let cp = bpart_obs::analysis::analyze(&all)
            .map_err(|e| fail(format!("{}: {e}", traces.join(", "))))?;
        Ok(bpart_obs::analysis::render(&cp, straggler_factor))
    } else {
        Ok(bpart_obs::report::render_report(&all))
    }
}

/// `bpart report --profile`: merges one or more folded-stack profile
/// files (`--profile-out`, or `/profile` scrapes) into a single flame
/// view — identical stacks across files sum their counts — and renders
/// it with per-stack sample shares. The output is itself valid folded
/// text, so it pipes straight into any flamegraph renderer.
fn report_profile_cmd(paths: &[String]) -> Result<String, CliError> {
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| fail(format!("cannot open {path}: {e}")))?;
        for (stack, count) in
            bpart_obs::profile::parse_folded(&text).map_err(|e| fail(format!("{path}: {e}")))?
        {
            *merged.entry(stack).or_insert(0) += count;
        }
    }
    let total: u64 = merged.values().sum();
    if total == 0 {
        return Ok("profile: no samples (was the profiler enabled?)\n".to_string());
    }
    let mut rows: Vec<(&String, &u64)> = merged.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "# profile: {} samples across {} stacks ({} files)\n",
        total,
        rows.len(),
        paths.len()
    );
    for (stack, count) in rows {
        out.push_str(&format!("{stack} {count}\n"));
    }
    Ok(out)
}

/// `bpart obs alerts ADDR`: one hand-rolled HTTP GET of `/alerts` from a
/// live `--serve-addr` server, pretty-printed one rule per line.
fn obs_alerts_cmd(addr: &str) -> Result<String, CliError> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok();
    write!(stream, "GET /alerts HTTP/1.1\r\nHost: {addr}\r\n\r\n")
        .map_err(|e| fail(format!("cannot query {addr}: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| fail(format!("cannot read from {addr}: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| fail(format!("malformed HTTP response from {addr}")))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(fail(format!("{addr} answered {status}")));
    }
    // The body is the alerts_json array; re-render it one rule per line
    // so a terminal read doesn't need a JSON tool.
    let trimmed = body.trim().trim_start_matches('[').trim_end_matches(']');
    let mut out = String::from("alerts:\n");
    if trimmed.is_empty() {
        out.push_str("  (no rules installed)\n");
        return Ok(out);
    }
    // Objects are flat (no nested braces), so splitting on "},{" is safe.
    for obj in trimmed.split("},{") {
        let obj = obj.trim_start_matches('{').trim_end_matches('}');
        out.push_str(&format!("  {obj}\n"));
    }
    Ok(out)
}

fn obs_diff_cmd(
    a_path: &str,
    b_path: &str,
    watch: &[String],
    threshold: f64,
) -> Result<String, CliError> {
    let a = bpart_obs::history::RunRecord::read(Path::new(a_path))
        .map_err(|e| fail(format!("{a_path}: {e}")))?;
    let b = bpart_obs::history::RunRecord::read(Path::new(b_path))
        .map_err(|e| fail(format!("{b_path}: {e}")))?;
    let watches: Vec<bpart_obs::history::Watch> = watch
        .iter()
        .map(|m| bpart_obs::history::Watch::new(m, threshold))
        .collect();
    let report = bpart_obs::history::diff(&a, &b, &watches);
    let rendered = report.render();
    if report.has_regressions() {
        // Returned as an error so the process exits non-zero; the rendered
        // table rides along so CI logs still show the full comparison.
        return Err(fail(format!(
            "{rendered}watched metric regressed more than {:.1}% over {a_path}",
            threshold * 100.0
        )));
    }
    Ok(rendered)
}

/// All scheme names accepted by `--scheme`.
pub fn scheme_names() -> Vec<&'static str> {
    vec![
        "chunk-v",
        "chunk-e",
        "hash",
        "fennel",
        "ldg",
        "bpart",
        "bpart-p1",
        "multilevel",
        "gd",
    ]
}

/// Resolves a scheme name to a partitioner with a sequential worker pool.
pub fn scheme_by_name(name: &str) -> Result<Box<dyn Partitioner>, CliError> {
    scheme_with_parallel(name, ParallelConfig::default())
}

/// Resolves a scheme name to a partitioner, threading the worker-pool shape
/// into the streaming schemes (`fennel`, `bpart`, `bpart-p1`). The other
/// schemes are not stream-based and ignore it.
pub fn scheme_with_parallel(
    name: &str,
    parallel: ParallelConfig,
) -> Result<Box<dyn Partitioner>, CliError> {
    Ok(match name {
        "chunk-v" => Box::new(ChunkV),
        "chunk-e" => Box::new(ChunkE),
        "hash" => Box::new(HashPartitioner::default()),
        "fennel" => Box::new(Fennel::new(FennelConfig {
            parallel,
            ..Default::default()
        })),
        "ldg" => Box::new(Ldg::default()),
        "bpart" => Box::new(bpart_with(parallel)),
        "bpart-p1" => Box::new(bpart_core::bpart::WeightedStream::new(BPartConfig {
            parallel,
            ..Default::default()
        })),
        "multilevel" => Box::new(Multilevel::default()),
        "gd" => Box::new(GdPartitioner::default()),
        other => {
            return Err(fail(format!(
                "unknown scheme {other:?}; available: {}",
                scheme_names().join(", ")
            )))
        }
    })
}

fn bpart_with(parallel: ParallelConfig) -> BPart {
    BPart::new(BPartConfig {
        parallel,
        ..Default::default()
    })
}

fn is_binary_graph(path: &str) -> bool {
    Path::new(path).extension().is_some_and(|e| e == "bpgr")
}

fn is_binary_partition(path: &str) -> bool {
    Path::new(path).extension().is_some_and(|e| e == "bppt")
}

/// Loads a graph from text or binary by extension.
pub fn load_graph(path: &str) -> Result<CsrGraph, CliError> {
    if is_binary_graph(path) {
        // Zero-copy load: parses out of an mmap view when possible,
        // falling back to an owned read.
        io::load_binary(path).map_err(|e| fail(format!("{path}: {e}")))
    } else {
        let file = File::open(path).map_err(|e| fail(format!("cannot open {path}: {e}")))?;
        Ok(io::read_edge_list(file)
            .map_err(|e| fail(format!("{path}: {e}")))?
            .into_csr())
    }
}

/// Saves a graph as text or binary by extension.
pub fn save_graph(graph: &CsrGraph, path: &str) -> Result<(), CliError> {
    let file = File::create(path).map_err(|e| fail(format!("cannot create {path}: {e}")))?;
    if is_binary_graph(path) {
        io::write_binary(graph, file).map_err(|e| fail(format!("{path}: {e}")))
    } else {
        io::write_edge_list(graph, file).map_err(|e| fail(format!("{path}: {e}")))
    }
}

fn generate_cmd(
    preset: &str,
    scale: f64,
    seed: Option<u64>,
    out: &str,
) -> Result<String, CliError> {
    let mut recipe = generate::ALL_PRESETS
        .iter()
        .map(|p| p())
        .find(|p| p.name == preset)
        .ok_or_else(|| {
            fail(format!(
                "unknown preset {preset:?}; available: lj_like, twitter_like, friendster_like"
            ))
        })?;
    if let Some(s) = seed {
        recipe.seed = s;
    }
    let graph = recipe.generate_scaled(scale);
    save_graph(&graph, out)?;
    Ok(format!(
        "wrote {out}: {} vertices, {} edges (preset {preset}, scale {scale})\n",
        graph.num_vertices(),
        graph.num_edges()
    ))
}

fn stats_cmd(path: &str) -> Result<String, CliError> {
    let graph = load_graph(path)?;
    let s = stats::degree_stats(&graph);
    let (zero, buckets) = stats::log_degree_histogram(&graph);
    let mut out = String::new();
    out.push_str(&format!("graph: {path}\n"));
    out.push_str(&format!("  vertices:        {}\n", s.vertices));
    out.push_str(&format!("  edges:           {}\n", s.edges));
    out.push_str(&format!("  average degree:  {:.2}\n", s.average));
    out.push_str(&format!("  max degree:      {}\n", s.max));
    out.push_str(&format!(
        "  top-1% mass:     {:.1}%\n",
        s.top1pct_mass * 100.0
    ));
    out.push_str(&format!("  degree gini:     {:.3}\n", s.gini));
    if let Some(alpha) = s.powerlaw_alpha {
        out.push_str(&format!("  power-law alpha: {alpha:.2}\n"));
    }
    out.push_str("  out-degree histogram (log2 buckets):\n");
    out.push_str(&format!("    deg 0: {zero}\n"));
    for (b, count) in buckets.iter().enumerate() {
        if *count > 0 {
            out.push_str(&format!(
                "    deg [{}, {}): {count}\n",
                1usize << b,
                1usize << (b + 1)
            ));
        }
    }
    Ok(out)
}

/// How the `partition` input resolves after `--input-format`/`--shard-dir`.
enum PartitionInput {
    /// Load the whole graph resident (text or binary by extension).
    Resident,
    /// Stream out-of-core from this shard directory.
    Shards(String),
}

/// Resolves what `partition` should read. `auto` keeps the historical
/// extension-based behaviour unless the path is a shard directory (or
/// `--shard-dir` was given); `shards` forces the out-of-core path.
fn resolve_partition_input(
    graph_path: &str,
    input_format: &str,
    shard_dir: Option<&str>,
) -> PartitionInput {
    if let Some(dir) = shard_dir {
        return PartitionInput::Shards(dir.to_string());
    }
    match input_format {
        "shards" => PartitionInput::Shards(graph_path.to_string()),
        "auto" if Path::new(graph_path).join(pio::MANIFEST_NAME).is_file() => {
            PartitionInput::Shards(graph_path.to_string())
        }
        _ => PartitionInput::Resident,
    }
}

#[allow(clippy::too_many_arguments)]
fn partition_cmd(
    graph_path: &str,
    parts: usize,
    scheme_name: &str,
    out: Option<&str>,
    threads: Option<usize>,
    buffer_size: Option<usize>,
    input_format: &str,
    shard_dir: Option<&str>,
    mem_ceiling_mb: Option<u64>,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let mut ceiling_note = String::new();
    if let Some(mb) = mem_ceiling_mb {
        bpart_obs::rss::set_address_space_limit(mb * 1024 * 1024)
            .map_err(|e| fail(format!("cannot apply --mem-ceiling {mb}: {e}")))?;
        ceiling_note = format!("  mem ceiling:     {mb} MB (RLIMIT_AS)\n");
    }
    if let PartitionInput::Shards(dir) =
        resolve_partition_input(graph_path, input_format, shard_dir)
    {
        // The shard pass is one sequential loop: there is no worker pool to
        // size and no batch for `--buffer-size` to mean anything.
        if threads.or(buffer_size).is_some() {
            return Err(fail(
                "--threads and --buffer-size do not apply to shard input: the out-of-core \
pass is one sequential loop over the shards (its memory knob is `bpart shard --shard-bytes`)",
            ));
        }
        return partition_ooc_cmd(&dir, parts, scheme_name, out, ceiling_note, obs);
    }
    let parallel = ParallelConfig {
        threads: threads.unwrap_or(1),
        buffer_size: buffer_size.unwrap_or(bpart_core::DEFAULT_BUFFER_SIZE),
    };
    let graph = load_graph(graph_path)?;
    let scheme = scheme_with_parallel(scheme_name, parallel)?;
    let start = Instant::now();
    // Only BPart has layers to report; it is run for its trace, which
    // `partition_with_stats` folds away.
    let mut combine_note = String::new();
    let (partition, stats) = if scheme_name == "bpart" {
        let (partition, trace) = bpart_with(parallel).partition_with_trace(&graph, parts);
        let mut stats = StreamStats::default();
        trace.iter().for_each(|layer| stats.merge(&layer.stream));
        let forced: usize = trace.iter().map(|layer| layer.forced).sum();
        combine_note = format!(
            "  combine layers:  {} ({forced} of {parts} parts frozen by the layer budget, \
not by threshold)\n",
            trace.len()
        );
        (partition, stats)
    } else {
        scheme.partition_with_stats(&graph, parts)
    };
    let elapsed = start.elapsed().as_secs_f64();
    let quality = metrics::quality(&graph, &partition);
    let mut text = render_quality(&quality, &partition, scheme.name());
    text.push_str(&ceiling_note);
    text.push_str(&format!("  partition time:  {elapsed:.3}s\n"));
    text.push_str(&combine_note);
    text.push_str(&stream_stats_report(&stats));
    if let Some(path) = out {
        let file = File::create(path).map_err(|e| fail(format!("cannot create {path}: {e}")))?;
        if is_binary_partition(path) {
            pio::write_binary(&partition, file).map_err(|e| fail(format!("{path}: {e}")))?;
        } else {
            pio::write_text(&partition, file).map_err(|e| fail(format!("{path}: {e}")))?;
        }
        text.push_str(&format!("  wrote {path}\n"));
    }
    if let Some(hpath) = obs.history_out.as_deref() {
        let mut rec = history_record(obs, "partition", graph_path, scheme_name, parts, &parallel);
        rec.set_metric("wall_time_secs", elapsed);
        rec.set_metric("cut_ratio", quality.cut_ratio);
        rec.set_metric("vertex_bias", quality.vertex_bias);
        rec.set_metric("edge_bias", quality.edge_bias);
        rec.set_metric("throughput_vps", stats.vertices_per_sec());
        write_history(&rec, hpath, &mut text)?;
    }
    Ok(text)
}

/// Maps a `--scheme` name to its out-of-core equivalent. Only the
/// streaming schemes have one — the others need the whole graph resident
/// by construction.
fn ooc_scheme_by_name(name: &str) -> Result<(bpart_core::OocScheme, &'static str), CliError> {
    match name {
        "fennel" => Ok((bpart_core::OocScheme::Fennel, "Fennel (out-of-core)")),
        "bpart-p1" => Ok((
            bpart_core::OocScheme::BPartP1 { c: 0.5 },
            "BPart-P1 (out-of-core)",
        )),
        other => Err(fail(format!(
            "scheme {other:?} has no out-of-core path; shards support: fennel, bpart-p1"
        ))),
    }
}

/// The out-of-core partition path: walk the shard directory through the
/// placement kernel, report the same quality lines the resident path does
/// (cut recomputed by re-streaming the shards — the graph is never
/// resident), plus where the loop spent its time.
fn partition_ooc_cmd(
    shard_path: &str,
    parts: usize,
    scheme_name: &str,
    out: Option<&str>,
    ceiling_note: String,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let (scheme, label) = ooc_scheme_by_name(scheme_name)?;
    let shards = pio::ShardSet::open(Path::new(shard_path))
        .map_err(|e| fail(format!("{shard_path}: {e}")))?;
    let config = bpart_core::OocConfig::new(parts, scheme);
    let start = Instant::now();
    let outcome = bpart_core::stream_assign_ooc(&shards, &config)
        .map_err(|e| fail(format!("{shard_path}: {e}")))?;
    let elapsed = start.elapsed().as_secs_f64();
    let cut_ratio = bpart_core::ooc_cut_ratio(&shards, &outcome.assignment)
        .map_err(|e| fail(format!("{shard_path}: {e}")))?;

    let mut text = format!("partition: {label} ({parts} parts)\n");
    text.push_str(&format!(
        "  vertex bias:     {:.4}\n",
        metrics::bias(&outcome.vertex_counts)
    ));
    text.push_str(&format!(
        "  edge bias:       {:.4}\n",
        metrics::bias(&outcome.edge_counts)
    ));
    text.push_str(&format!(
        "  vertex fairness: {:.4}\n",
        metrics::jain_fairness(&outcome.vertex_counts)
    ));
    text.push_str(&format!(
        "  edge fairness:   {:.4}\n",
        metrics::jain_fairness(&outcome.edge_counts)
    ));
    text.push_str(&format!("  edge-cut ratio:  {cut_ratio:.4}\n"));
    text.push_str(&format!("  |V_i|:           {:?}\n", outcome.vertex_counts));
    text.push_str(&format!("  |E_i|:           {:?}\n", outcome.edge_counts));
    text.push_str(&ceiling_note);
    text.push_str(&format!(
        "  shards:          {} ({} bytes max resident)\n",
        shards.num_shards(),
        shards.max_shard_bytes()
    ));
    text.push_str(&format!("  partition time:  {elapsed:.3}s\n"));
    text.push_str(&format!(
        "  throughput:      {:.0} vertices/s (1 thread)\n",
        outcome.stats.vertices_per_sec()
    ));
    text.push_str("  shard loop:\n");
    for s in &outcome.pipeline.stages {
        text.push_str(&format!(
            "    {:<7} {} shards, busy {:.3}s\n",
            format!("{}:", s.name),
            s.shards,
            s.busy_secs
        ));
    }
    if let Some(path) = out {
        let file = File::create(path).map_err(|e| fail(format!("cannot create {path}: {e}")))?;
        if is_binary_partition(path) {
            pio::write_binary_assignment(parts, &outcome.assignment, file)
                .map_err(|e| fail(format!("{path}: {e}")))?;
        } else {
            pio::write_text_assignment(parts, &outcome.assignment, file)
                .map_err(|e| fail(format!("{path}: {e}")))?;
        }
        text.push_str(&format!("  wrote {path}\n"));
    }
    if let Some(hpath) = obs.history_out.as_deref() {
        let mut rec = history_record(
            obs,
            "partition-ooc",
            shard_path,
            scheme_name,
            parts,
            &ParallelConfig::default(),
        );
        rec.set_metric("wall_time_secs", elapsed);
        rec.set_metric("cut_ratio", cut_ratio);
        rec.set_metric("vertex_bias", metrics::bias(&outcome.vertex_counts));
        rec.set_metric("edge_bias", metrics::bias(&outcome.edge_counts));
        rec.set_metric("throughput_vps", outcome.stats.vertices_per_sec());
        write_history(&rec, hpath, &mut text)?;
    }
    Ok(text)
}

/// `bpart shard`: split a graph into the out-of-core shard directory.
/// Binary (`.bpgr`) inputs go through the zero-copy [`io::MappedCsr`]
/// view so the out-adjacency never becomes resident; text inputs load the
/// graph first (they have to be parsed anyway).
fn shard_cmd(graph_path: &str, out_dir: &str, shard_bytes: u64) -> Result<String, CliError> {
    let start = Instant::now();
    let (manifest, source) = if is_binary_graph(graph_path) {
        let csr =
            io::MappedCsr::open(graph_path).map_err(|e| fail(format!("{graph_path}: {e}")))?;
        let source = if csr.is_zero_copy() {
            "mapped zero-copy"
        } else {
            "mapped (owned fallback)"
        };
        let manifest = pio::write_shards_from_mapped(&csr, Path::new(out_dir), shard_bytes)
            .map_err(|e| fail(format!("{out_dir}: {e}")))?;
        (manifest, source)
    } else {
        let graph = load_graph(graph_path)?;
        let manifest = pio::write_shards(&graph, Path::new(out_dir), shard_bytes)
            .map_err(|e| fail(format!("{out_dir}: {e}")))?;
        (manifest, "resident")
    };
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
    Ok(format!(
        "sharded {graph_path} -> {out_dir}: {} vertices, {} edges, {} shards \
({total} bytes, source {source}, {elapsed:.3}s)\n  partition with: bpart partition \
--shard-dir {out_dir} --parts K --scheme fennel\n",
        manifest.n,
        manifest.m,
        manifest.shards.len(),
    ))
}

fn quality_cmd(graph_path: &str, partition_path: &str) -> Result<String, CliError> {
    let graph = load_graph(graph_path)?;
    let file = File::open(partition_path)
        .map_err(|e| fail(format!("cannot open {partition_path}: {e}")))?;
    let partition = if is_binary_partition(partition_path) {
        pio::read_binary(&graph, file).map_err(|e| fail(format!("{partition_path}: {e}")))?
    } else {
        pio::read_text(&graph, file).map_err(|e| fail(format!("{partition_path}: {e}")))?
    };
    Ok(report(&graph, &partition, partition_path))
}

/// All application names accepted by `run --app`.
pub fn app_names() -> Vec<&'static str> {
    vec!["pagerank", "cc", "deepwalk", "walk"]
}

#[allow(clippy::too_many_arguments)]
fn run_cmd(
    graph_path: &str,
    parts: usize,
    scheme_name: &str,
    app: &str,
    iters: usize,
    walk_len: u32,
    seed: u64,
    mode: &str,
    fault_plan: Option<&str>,
    checkpoint_every: Option<usize>,
    parallel: ParallelConfig,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let graph = Arc::new(load_graph(graph_path)?);
    let scheme = scheme_with_parallel(scheme_name, parallel)?;
    let (partition, partition_stats) = scheme.partition_with_stats(&graph, parts);
    // The cut ratio is recomputed here (rather than threaded out of the
    // partitioner) so history records carry it for every scheme.
    let quality = metrics::quality(&graph, &partition);
    let partition = Arc::new(partition);
    let mode = match mode {
        "threaded" => ExecMode::Threaded,
        _ => ExecMode::Sequential,
    };
    let plan = match fault_plan {
        Some(spec) => spec
            .parse::<FaultPlan>()
            .map_err(|e| fail(format!("bad --fault-plan: {e}")))?,
        None => FaultPlan::default(),
    };

    let mut out = format!(
        "run: {app} on {graph_path} ({} vertices, {} edges), {} scheme, {parts} machines\n",
        graph.num_vertices(),
        graph.num_edges(),
        scheme.name(),
    );
    let run_start = Instant::now();
    let (telemetry, iterations) = match app {
        "pagerank" | "cc" => {
            let mut engine =
                IterationEngine::new(Cluster::new(graph, partition), CostModel::default(), mode)
                    .with_faults(plan);
            if let Some(every) = checkpoint_every {
                engine = engine.with_checkpoint_every(every);
            }
            if app == "pagerank" {
                let run = engine
                    .try_run(&PageRank::new(iters))
                    .map_err(|e| fail(format!("run failed: {e}")))?;
                (run.telemetry, run.iterations)
            } else {
                let run = engine
                    .try_run(&ConnectedComponents)
                    .map_err(|e| fail(format!("run failed: {e}")))?;
                (run.telemetry, run.iterations)
            }
        }
        "deepwalk" | "walk" => {
            let mut engine =
                WalkEngine::new(Cluster::new(graph, partition), CostModel::default(), mode)
                    .with_faults(plan);
            if let Some(every) = checkpoint_every {
                engine = engine.with_checkpoint_every(every);
            }
            let starts = WalkStarts::PerVertex(1);
            let run = if app == "deepwalk" {
                engine.try_run(&DeepWalk::new(walk_len), &starts, seed)
            } else {
                engine.try_run(&SimpleRandomWalk::new(walk_len), &starts, seed)
            }
            .map_err(|e| fail(format!("run failed: {e}")))?;
            out.push_str(&format!(
                "  walker steps:    {}\n  message walks:   {}\n",
                run.total_steps, run.message_walks
            ));
            (run.telemetry, run.iterations)
        }
        other => {
            return Err(fail(format!(
                "unknown app {other:?}; available: {}",
                app_names().join(", ")
            )))
        }
    };
    let wall = run_start.elapsed().as_secs_f64();
    telemetry.record_partition(partition_stats);
    out.push_str(&telemetry_report(&telemetry, iterations));
    if let Some(hpath) = obs.history_out.as_deref() {
        let mut rec = history_record(obs, "run", graph_path, scheme_name, parts, &parallel);
        rec.set_config("app", app);
        rec.set_config("iters", iters);
        rec.set_config("mode", mode_name(mode));
        rec.set_config("seed", seed);
        rec.set_metric("wall_time_secs", wall);
        rec.set_metric("cut_ratio", quality.cut_ratio);
        rec.set_metric("total_time_units", telemetry.total_time());
        rec.set_metric("waiting_ratio", telemetry.waiting_ratio());
        rec.set_metric("supersteps", iterations as f64);
        rec.set_metric("messages", telemetry.total_messages() as f64);
        rec.set_metric("faults", telemetry.total_faults() as f64);
        rec.set_metric("replayed_steps", telemetry.replayed_supersteps() as f64);
        rec.set_metric("recovery_time_units", telemetry.total_recovery_time());
        write_history(&rec, hpath, &mut out)?;
    }
    Ok(out)
}

/// `run --backend process`: the job runs on real supervised worker
/// processes, and the thread-simulated oracle runs in-process alongside
/// it. The two result digests must agree bit-for-bit (recovery from any
/// fault-plan crashes included) — a mismatch fails the command, which is
/// what the CI chaos job leans on.
#[allow(clippy::too_many_arguments)]
fn run_process_cmd(
    graph_path: &str,
    parts: usize,
    scheme_name: &str,
    app: &str,
    iters: usize,
    walk_len: u32,
    seed: u64,
    workers: Option<usize>,
    fault_plan: Option<&str>,
    checkpoint_every: Option<usize>,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    use bpart_dist::{AppSpec, Backend, GraphSource, JobSpec, ProcessConfig, ThreadsConfig};
    use bpart_obs::federation;

    // Cluster-wide observability federation: armed when any obs export
    // was requested, off otherwise so a plain run ships no telemetry
    // frames at all.
    let obs_on = obs.trace_out.is_some()
        || obs.metrics_out.is_some()
        || obs.serve_addr.is_some()
        || obs.history_out.is_some()
        || obs.profile_out.is_some();
    federation::reset();
    federation::set_collection_enabled(obs_on);

    let workers = workers.unwrap_or(parts);
    if workers != parts {
        return Err(fail(format!(
            "--workers {workers} must equal --parts {parts}: each worker process plays one machine"
        )));
    }
    let plan = match fault_plan {
        Some(spec) => spec
            .parse::<FaultPlan>()
            .map_err(|e| fail(format!("bad --fault-plan: {e}")))?,
        None => FaultPlan::default(),
    };
    let app_spec = match app {
        "pagerank" => AppSpec::PageRank { iters },
        "cc" => AppSpec::ConnectedComponents,
        "deepwalk" => AppSpec::DeepWalk {
            walk_len,
            seed,
            per_vertex: 1,
        },
        "walk" => AppSpec::SimpleWalk {
            walk_len,
            seed,
            per_vertex: 1,
        },
        other => {
            return Err(fail(format!(
                "unknown app {other:?}; available: {}",
                app_names().join(", ")
            )))
        }
    };
    let spec = JobSpec {
        graph: GraphSource::File(graph_path.to_string()),
        scheme: scheme_name.to_string(),
        parts: parts as u32,
        app: app_spec,
        checkpoint_every: checkpoint_every.map(|e| e as u32),
    };

    let exe =
        std::env::current_exe().map_err(|e| fail(format!("cannot locate own executable: {e}")))?;
    let mut cfg = ProcessConfig::new(
        workers,
        vec![exe.to_string_lossy().into_owned(), "worker".to_string()],
    );
    cfg.faults = plan;

    let run_start = Instant::now();
    let out = bpart_dist::run_job(&spec, &Backend::Process(cfg))
        .map_err(|e| fail(format!("process backend failed: {e}")))?;
    let wall = run_start.elapsed().as_secs_f64();
    // The oracle runs fault-free: recovery must be transparent, so the
    // process result has to match the undisturbed simulation. Tracing is
    // muted for it — its modelled `cluster.superstep` spans use abstract
    // time units and would corrupt the measured trace's blame table.
    let trace_was = bpart_obs::trace_enabled();
    bpart_obs::set_trace_enabled(false);
    let oracle = bpart_dist::run_job(&spec, &Backend::Threads(ThreadsConfig::default()))
        .map_err(|e| fail(format!("threads oracle failed: {e}")))?;
    bpart_obs::set_trace_enabled(trace_was);

    let identical = out.digest == oracle.digest && out.supersteps == oracle.supersteps;
    let mut text = format!(
        "run: {app} on {graph_path}, {scheme_name} scheme, process backend ({workers} workers)\n"
    );
    text.push_str(&format!("  supersteps:      {}\n", out.supersteps));
    text.push_str(&format!("  digest:          {:#018x}\n", out.digest));
    text.push_str(&format!(
        "  oracle digest:   {:#018x} (threads backend)\n",
        oracle.digest
    ));
    text.push_str(&format!(
        "  bit-identical:   {}\n",
        if identical { "yes" } else { "NO" }
    ));
    let r = &out.recovery;
    text.push_str(&format!(
        "  recovery:        {} deaths, {} recoveries, {} respawns, {} replayed supersteps, {} link retries\n",
        r.worker_deaths, r.recoveries, r.respawns, r.replayed_supersteps, r.link_retries
    ));
    text.push_str(&format!("  wall time:       {wall:.2}s\n"));

    if obs_on {
        // Measured Fig. 13 per-machine table from the federated worker
        // reports: real wire wait vs. compute, next to the modelled
        // numbers the threads backend prints (see EXPERIMENTS.md).
        let store = federation::global();
        let steps: Vec<(Vec<f64>, Vec<f64>)> = (0..out.supersteps)
            .filter_map(|s| store.step_timings(s))
            .collect();
        let dead = store.dead_workers();
        // What each worker said it holds (`part.*` gauges, set from its
        // slice): the paper's two balance dimensions, and their bytes.
        let holds = |m: usize| {
            let metrics = &store.workers.get(&(m as u32))?.snapshot.metrics;
            let gauge = |name| metrics.gauges.get(name).copied();
            Some(format!(
                ", holds {} vertices, {} edges ({:.2} MB slice)",
                gauge("part.vertices")?,
                gauge("part.edges")?,
                gauge("part.slice_bytes")? / (1u64 << 20) as f64
            ))
        };
        let holds: Vec<String> = (0..workers).map(|m| holds(m).unwrap_or_default()).collect();
        drop(store);
        if !steps.is_empty() {
            let measured = bpart_cluster::TelemetrySummary::from_steps(&steps);
            text.push_str(&format!(
                "  measured (federated, {} of {} supersteps):\n",
                steps.len(),
                out.supersteps
            ));
            text.push_str(&format!(
                "    total time:    {:.3}s (waiting ratio {:.3})\n",
                measured.total_time, measured.waiting_ratio
            ));
            for (m, row) in measured.machines.iter().enumerate() {
                text.push_str(&format!(
                    "    m{m}: compute {:.3}s, waiting {:.3}s ({:.1}%){}\n",
                    row.compute,
                    row.waiting,
                    row.ratio * 100.0,
                    holds.get(m).map_or("", String::as_str)
                ));
            }
        }
        // Driver-side RPC round-trip quantiles, from the same shared
        // bucket estimator the rpc-rtt-p99 alert rule reads.
        let registry = bpart_obs::metrics::capture();
        let rtt = |q| registry.quantile("dist.rpc_rtt_ns", q);
        if let (Some(p50), Some(p99)) = (rtt(0.5), rtt(0.99)) {
            text.push_str(&format!(
                "  rpc rtt:         p50 {:.2}ms, p99 {:.2}ms\n",
                p50 / 1e6,
                p99 / 1e6
            ));
        }
        if dead > 0 {
            text.push_str(&format!(
                "  stale workers:   {dead} (last pre-death snapshots retained)\n"
            ));
        }
    }

    if let Some(hpath) = obs.history_out.as_deref() {
        let mut rec = bpart_obs::history::RunRecord::new("run-dist", graph_path);
        if let Some(rev) = obs.git_rev.as_deref() {
            rec = rec.with_git_rev(rev);
        }
        rec.set_config("scheme", scheme_name);
        rec.set_config("parts", parts);
        rec.set_config("app", app);
        rec.set_config("workers", workers);
        rec.set_metric("wall_time_secs", wall);
        rec.set_metric("supersteps", out.supersteps as f64);
        rec.set_metric("worker_deaths", r.worker_deaths as f64);
        rec.set_metric("recoveries", r.recoveries as f64);
        rec.set_metric("replayed_supersteps", r.replayed_supersteps as f64);
        rec.set_metric("link_retries", r.link_retries as f64);
        write_history(&rec, hpath, &mut text)?;
    }

    if !identical {
        return Err(fail(format!(
            "process backend diverged from the threads oracle:\n{text}"
        )));
    }
    Ok(text)
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Threaded => "threaded",
        ExecMode::Sequential => "sequential",
    }
}

/// Streaming throughput lines shared by `partition` and `run` output.
/// Buffer detail only appears for buffered-parallel runs (`buffers > 0`);
/// the sequential path and non-streaming schemes report throughput alone.
fn stream_stats_report(stats: &StreamStats) -> String {
    let mut out = format!(
        "  throughput:      {:.0} vertices/s ({} thread{})\n",
        stats.vertices_per_sec(),
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
    );
    if stats.buffers > 0 {
        out.push_str(&format!(
            "  buffers:         {} (sync stall {:.1}%)\n",
            stats.buffers,
            stats.sync_stall_ratio() * 100.0
        ));
    }
    out
}

/// The telemetry summary shared by iteration and walk runs: the paper's
/// aggregates plus the fault/recovery counters.
fn telemetry_report(t: &Telemetry, iterations: usize) -> String {
    let mut out = String::new();
    if let Some(stats) = t.partition_stats() {
        out.push_str("  partition stage:\n");
        for line in stream_stats_report(&stats).lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out.push_str(&format!("  supersteps:      {iterations}\n"));
    out.push_str(&format!("  total time:      {:.2} units\n", t.total_time()));
    out.push_str(&format!("  waiting ratio:   {:.4}\n", t.waiting_ratio()));
    // Per-machine waiting breakdown (the paper's Fig. 13 view): which
    // machines sit idle at the superstep barrier and by how much.
    let summary = t.summary();
    for (m, w) in summary.machines.iter().enumerate() {
        out.push_str(&format!(
            "    m{m}: compute {:.2}, waiting {:.2} ({:.1}%)\n",
            w.compute,
            w.waiting,
            w.ratio * 100.0
        ));
    }
    out.push_str(&format!("  messages:        {}\n", t.total_messages()));
    out.push_str(&format!("  faults injected: {}\n", t.total_faults()));
    out.push_str(&format!("  replayed steps:  {}\n", t.replayed_supersteps()));
    out.push_str(&format!(
        "  recovery time:   {:.2} units\n",
        t.total_recovery_time()
    ));
    out
}

fn convert_cmd(src: &str, dst: &str) -> Result<String, CliError> {
    let graph = load_graph(src)?;
    save_graph(&graph, dst)?;
    Ok(format!(
        "converted {src} -> {dst} ({} vertices, {} edges)\n",
        graph.num_vertices(),
        graph.num_edges()
    ))
}

fn report(graph: &CsrGraph, partition: &Partition, label: &str) -> String {
    render_quality(&metrics::quality(graph, partition), partition, label)
}

fn render_quality(q: &metrics::QualityReport, partition: &Partition, label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "partition: {label} ({} parts)\n",
        partition.num_parts()
    ));
    out.push_str(&format!("  vertex bias:     {:.4}\n", q.vertex_bias));
    out.push_str(&format!("  edge bias:       {:.4}\n", q.edge_bias));
    out.push_str(&format!("  vertex fairness: {:.4}\n", q.vertex_jain));
    out.push_str(&format!("  edge fairness:   {:.4}\n", q.edge_jain));
    out.push_str(&format!("  edge-cut ratio:  {:.4}\n", q.cut_ratio));
    out.push_str(&format!(
        "  |V_i|:           {:?}\n",
        partition.vertex_counts()
    ));
    out.push_str(&format!(
        "  |E_i|:           {:?}\n",
        partition.edge_counts()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bpart_cli_test_{}_{name}", std::process::id()));
        p
    }

    fn runs(cmd: Command) -> String {
        run(&cmd).unwrap()
    }

    #[test]
    fn generate_stats_partition_quality_pipeline() {
        let graph_path = tmp("pipeline.txt");
        let parts_path = tmp("pipeline.parts");
        let gp = graph_path.to_str().unwrap().to_string();
        let pp = parts_path.to_str().unwrap().to_string();

        let out = runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });
        assert!(out.contains("750 vertices"), "{out}");

        let out = runs(Command::Stats { graph: gp.clone() });
        assert!(out.contains("average degree"), "{out}");

        let out = runs(Command::Partition {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart".into(),
            out: Some(pp.clone()),
            threads: None,
            buffer_size: None,
            input_format: "auto".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        });
        assert!(out.contains("edge-cut ratio"), "{out}");
        assert!(
            out.contains("of 4 parts frozen by the layer budget"),
            "{out}"
        );

        let out = runs(Command::Quality {
            graph: gp.clone(),
            partition: pp.clone(),
        });
        assert!(out.contains("vertex bias"), "{out}");

        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(parts_path).ok();
    }

    #[test]
    fn convert_round_trips_through_binary() {
        let text_path = tmp("conv.txt");
        let bin_path = tmp("conv.bpgr");
        let back_path = tmp("conv_back.txt");
        let tp = text_path.to_str().unwrap().to_string();
        let bp = bin_path.to_str().unwrap().to_string();
        let kp = back_path.to_str().unwrap().to_string();

        runs(Command::Generate {
            preset: "twitter_like".into(),
            scale: 0.005,
            seed: None,
            out: tp.clone(),
        });
        runs(Command::Convert {
            src: tp.clone(),
            dst: bp.clone(),
        });
        runs(Command::Convert {
            src: bp.clone(),
            dst: kp.clone(),
        });
        let a = load_graph(&tp).unwrap();
        let b = load_graph(&bp).unwrap();
        let c = load_graph(&kp).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);

        for p in [text_path, bin_path, back_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn binary_partition_files_round_trip() {
        let graph_path = tmp("binparts.txt");
        let parts_path = tmp("binparts.bppt");
        let gp = graph_path.to_str().unwrap().to_string();
        let pp = parts_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.005,
            seed: None,
            out: gp.clone(),
        });
        runs(Command::Partition {
            graph: gp.clone(),
            parts: 4,
            scheme: "hash".into(),
            out: Some(pp.clone()),
            threads: None,
            buffer_size: None,
            input_format: "auto".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        });
        let out = runs(Command::Quality {
            graph: gp.clone(),
            partition: pp.clone(),
        });
        assert!(out.contains("(4 parts)"), "{out}");
        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(parts_path).ok();
    }

    #[test]
    fn parallel_partition_reports_buffer_telemetry() {
        let graph_path = tmp("par.txt");
        let gp = graph_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "twitter_like".into(),
            scale: 0.01,
            seed: Some(3),
            out: gp.clone(),
        });
        let out = runs(Command::Partition {
            graph: gp.clone(),
            parts: 4,
            scheme: "fennel".into(),
            out: None,
            threads: Some(2),
            buffer_size: Some(128),
            input_format: "auto".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        });
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("2 threads"), "{out}");
        assert!(out.contains("buffers:"), "{out}");
        assert!(out.contains("sync stall"), "{out}");

        // The run command surfaces the partition stage in its telemetry.
        let out = run(&Command::Run {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart".into(),
            app: "pagerank".into(),
            iters: 2,
            walk_len: 5,
            seed: 7,
            mode: "sequential".into(),
            backend: "threads".into(),
            workers: None,
            fault_plan: None,
            checkpoint_every: None,
            threads: 2,
            buffer_size: 128,
            obs: ObsFlags::default(),
        })
        .unwrap();
        assert!(out.contains("partition stage:"), "{out}");
        assert!(out.contains("2 threads"), "{out}");
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn shard_then_out_of_core_partition_matches_resident_fennel() {
        let graph_path = tmp("ooc.txt");
        let bin_path = tmp("ooc.bpgr");
        let shard_dir = tmp("ooc_shards");
        let parts_path = tmp("ooc.parts");
        let gp = graph_path.to_str().unwrap().to_string();
        let bp = bin_path.to_str().unwrap().to_string();
        let sd = shard_dir.to_str().unwrap().to_string();
        let pp = parts_path.to_str().unwrap().to_string();

        runs(Command::Generate {
            preset: "twitter_like".into(),
            scale: 0.01,
            seed: Some(3),
            out: gp.clone(),
        });
        runs(Command::Convert {
            src: gp.clone(),
            dst: bp.clone(),
        });
        // Binary inputs shard through the mapped zero-copy view.
        let out = runs(Command::Shard {
            graph: bp.clone(),
            out_dir: sd.clone(),
            shard_bytes: 16 * 1024,
        });
        assert!(out.contains("shards"), "{out}");
        assert!(out.contains("zero-copy"), "{out}");

        // `--input-format auto` detects the shard directory by its
        // manifest and takes the out-of-core path.
        let out = runs(Command::Partition {
            graph: sd.clone(),
            parts: 4,
            scheme: "fennel".into(),
            out: Some(pp.clone()),
            threads: None,
            buffer_size: None,
            input_format: "auto".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        });
        assert!(out.contains("out-of-core"), "{out}");
        assert!(out.contains("shard loop:"), "{out}");
        assert!(out.contains("fetch:"), "{out}");
        assert!(out.contains("(1 thread)"), "{out}");

        // The shard pass has no worker pool and no batches: the resident
        // knobs are refused, not silently reinterpreted.
        for (threads, buffer_size) in [(None, Some(256)), (Some(2), None)] {
            let e = run(&Command::Partition {
                graph: sd.clone(),
                parts: 4,
                scheme: "fennel".into(),
                out: None,
                threads,
                buffer_size,
                input_format: "auto".into(),
                shard_dir: None,
                mem_ceiling_mb: None,
                obs: ObsFlags::default(),
            })
            .unwrap_err();
            assert!(e.to_string().contains("do not apply to shard input"), "{e}");
        }

        // The streamed assignment is bit-identical to the resident run.
        let graph = load_graph(&gp).unwrap();
        let resident = scheme_by_name("fennel").unwrap().partition(&graph, 4);
        let written = pio::read_text(&graph, File::open(&parts_path).unwrap()).unwrap();
        assert_eq!(written.assignment(), resident.assignment());

        // Non-streaming schemes cannot run out-of-core and say so.
        let e = run(&Command::Partition {
            graph: sd.clone(),
            parts: 4,
            scheme: "bpart".into(),
            out: None,
            threads: None,
            buffer_size: None,
            input_format: "shards".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("no out-of-core path"), "{e}");

        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(bin_path).ok();
        std::fs::remove_file(parts_path).ok();
        std::fs::remove_dir_all(shard_dir).ok();
    }

    #[test]
    fn out_of_core_partition_emits_history_records() {
        let graph_path = tmp("oochist.txt");
        let shard_dir = tmp("oochist_shards");
        let hist_path = tmp("oochist.json");
        let gp = graph_path.to_str().unwrap().to_string();
        let sd = shard_dir.to_str().unwrap().to_string();
        let hp = hist_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });
        // Text inputs shard via the resident loader.
        runs(Command::Shard {
            graph: gp.clone(),
            out_dir: sd.clone(),
            shard_bytes: 8 * 1024,
        });
        runs(Command::Partition {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart-p1".into(),
            out: None,
            threads: None,
            buffer_size: None,
            input_format: "shards".into(),
            shard_dir: Some(sd.clone()),
            mem_ceiling_mb: None,
            obs: ObsFlags {
                history_out: Some(hp.clone()),
                ..ObsFlags::default()
            },
        });
        let rec = bpart_obs::history::RunRecord::read(Path::new(&hp)).unwrap();
        assert_eq!(rec.label, "partition-ooc");
        assert_eq!(rec.config["scheme"], "bpart-p1");
        assert!(rec.metrics["cut_ratio"] > 0.0, "{rec:?}");
        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(hist_path).ok();
        std::fs::remove_dir_all(shard_dir).ok();
    }

    #[test]
    fn every_scheme_name_resolves() {
        for name in scheme_names() {
            scheme_by_name(name).unwrap();
        }
        assert!(scheme_by_name("nope").is_err());
    }

    #[test]
    fn gd_rejects_non_power_of_two_via_error_not_abort() {
        // The CLI relies on the library panic; verify the resolver at least
        // hands back the GD scheme so the binary reports the panic cleanly.
        let s = scheme_by_name("gd").unwrap();
        assert_eq!(s.name(), "GD");
    }

    fn run_on(graph: String, app: &str, fault_plan: Option<&str>) -> Result<String, CliError> {
        run(&Command::Run {
            graph,
            parts: 4,
            scheme: "chunk-v".into(),
            app: app.into(),
            iters: 5,
            walk_len: 5,
            seed: 7,
            mode: "sequential".into(),
            backend: "threads".into(),
            workers: None,
            fault_plan: fault_plan.map(str::to_string),
            checkpoint_every: Some(2),
            threads: 1,
            buffer_size: bpart_core::DEFAULT_BUFFER_SIZE,
            obs: ObsFlags::default(),
        })
    }

    #[test]
    fn run_surfaces_faults_in_the_report() {
        let graph_path = tmp("run_faults.txt");
        let gp = graph_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });

        for app in ["pagerank", "cc", "deepwalk", "walk"] {
            let clean = run_on(gp.clone(), app, None).unwrap();
            assert!(clean.contains("faults injected: 0"), "{app}: {clean}");
            assert!(clean.contains("replayed steps:  0"), "{app}: {clean}");

            // crash at 3 with checkpoints every 2: rollback to the
            // superstep-2 checkpoint, so superstep 2 is replayed
            let faulted = run_on(gp.clone(), app, Some("crash@3:m1")).unwrap();
            assert!(faulted.contains("faults injected: 1"), "{app}: {faulted}");
            assert!(!faulted.contains("replayed steps:  0"), "{app}: {faulted}");
        }

        let e = run_on(gp.clone(), "pagerank", Some("crash@nope")).unwrap_err();
        assert!(e.to_string().contains("fault-plan"), "{e}");
        let e = run_on(gp.clone(), "frobnicate", None).unwrap_err();
        assert!(e.to_string().contains("unknown app"), "{e}");

        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn run_with_trace_and_metrics_exports_and_reports() {
        let graph_path = tmp("obs.txt");
        let trace_path = tmp("obs.jsonl");
        let metrics_path = tmp("obs.prom");
        let gp = graph_path.to_str().unwrap().to_string();
        let tp = trace_path.to_str().unwrap().to_string();
        let mp = metrics_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });

        let out = runs(Command::Run {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart".into(),
            app: "pagerank".into(),
            iters: 3,
            walk_len: 5,
            seed: 7,
            mode: "sequential".into(),
            backend: "threads".into(),
            workers: None,
            fault_plan: None,
            checkpoint_every: None,
            threads: 1,
            buffer_size: bpart_core::DEFAULT_BUFFER_SIZE,
            obs: ObsFlags {
                trace_out: Some(tp.clone()),
                metrics_out: Some(mp.clone()),
                ..ObsFlags::default()
            },
        });
        // Per-machine waiting breakdown (Fig. 13) is in the run report.
        assert!(out.contains("m0: compute"), "{out}");
        assert!(out.contains("wrote metrics snapshot"), "{out}");

        // The trace parses and the report shows the instrumented phases.
        let report = runs(Command::Report {
            traces: vec![tp.clone()],
            critical_path: false,
            profile: false,
            straggler_factor: 2.0,
        });
        assert!(report.contains("cluster.superstep"), "{report}");
        assert!(report.contains("stream.pass"), "{report}");
        assert!(report.contains("per-phase totals"), "{report}");

        // The metrics snapshot is a Prometheus-style exposition covering
        // the streaming and cluster layers.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("# TYPE stream_vertices counter"), "{prom}");
        assert!(prom.contains("cluster_supersteps"), "{prom}");

        // Reporting on the metrics file (not JSONL) fails with a line number.
        let e = run(&Command::Report {
            traces: vec![mp.clone()],
            critical_path: false,
            profile: false,
            straggler_factor: 2.0,
        })
        .unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        for p in [graph_path, trace_path, metrics_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn history_records_and_obs_diff_gate_regressions() {
        let graph_path = tmp("hist.txt");
        let hist_a = tmp("hist_a.json");
        let hist_b = tmp("hist_b.json");
        let gp = graph_path.to_str().unwrap().to_string();
        let ha = hist_a.to_str().unwrap().to_string();
        let hb = hist_b.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });

        let out = runs(Command::Run {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart".into(),
            app: "pagerank".into(),
            iters: 3,
            walk_len: 5,
            seed: 7,
            mode: "sequential".into(),
            backend: "threads".into(),
            workers: None,
            fault_plan: None,
            checkpoint_every: None,
            threads: 1,
            buffer_size: bpart_core::DEFAULT_BUFFER_SIZE,
            obs: ObsFlags {
                history_out: Some(ha.clone()),
                git_rev: Some("testrev".into()),
                ..ObsFlags::default()
            },
        });
        assert!(out.contains("wrote history record"), "{out}");
        let rec = bpart_obs::history::RunRecord::read(Path::new(&ha)).unwrap();
        assert_eq!(rec.git_rev, "testrev");
        assert!(rec.metrics.contains_key("cut_ratio"), "{rec:?}");
        assert!(rec.metrics.contains_key("waiting_ratio"), "{rec:?}");

        // An identical candidate passes the diff gate...
        std::fs::copy(&hist_a, &hist_b).unwrap();
        let watch = vec!["cut_ratio".to_string()];
        let out = runs(Command::ObsDiff {
            a: ha.clone(),
            b: hb.clone(),
            watch: watch.clone(),
            threshold: 0.05,
        });
        assert!(out.contains("cut_ratio"), "{out}");

        // ...while a >5% cut regression trips it with a non-Ok result.
        let mut worse = rec.clone();
        worse.set_metric("cut_ratio", rec.metrics["cut_ratio"] * 1.2);
        worse.write(Path::new(&hb)).unwrap();
        let e = run(&Command::ObsDiff {
            a: ha.clone(),
            b: hb.clone(),
            watch,
            threshold: 0.05,
        })
        .unwrap_err();
        assert!(e.to_string().contains("REGRESSED"), "{e}");
        assert!(e.to_string().contains("regressed more than 5.0%"), "{e}");

        for p in [graph_path, hist_a, hist_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn partition_emits_history_records() {
        let graph_path = tmp("phist.txt");
        let hist_path = tmp("phist.json");
        let gp = graph_path.to_str().unwrap().to_string();
        let hp = hist_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });
        runs(Command::Partition {
            graph: gp.clone(),
            parts: 4,
            scheme: "bpart".into(),
            out: None,
            threads: None,
            buffer_size: None,
            input_format: "auto".into(),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags {
                history_out: Some(hp.clone()),
                ..ObsFlags::default()
            },
        });
        let rec = bpart_obs::history::RunRecord::read(Path::new(&hp)).unwrap();
        assert_eq!(rec.label, "partition");
        assert_eq!(rec.config["scheme"], "bpart");
        assert!(rec.metrics["cut_ratio"] > 0.0, "{rec:?}");
        assert!(rec.metrics["wall_time_secs"] >= 0.0, "{rec:?}");
        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(hist_path).ok();
    }

    #[test]
    fn report_rejects_malformed_traces() {
        let bad_path = tmp("bad_trace.jsonl");
        std::fs::write(&bad_path, "not json\n").unwrap();
        let e = run(&Command::Report {
            traces: vec![bad_path.to_str().unwrap().into()],
            critical_path: false,
            profile: false,
            straggler_factor: 2.0,
        })
        .unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        std::fs::remove_file(bad_path).ok();

        let e = run(&Command::Report {
            traces: vec!["/no/such/trace.jsonl".into()],
            critical_path: false,
            profile: false,
            straggler_factor: 2.0,
        })
        .unwrap_err();
        assert!(e.to_string().contains("/no/such/trace.jsonl"), "{e}");
    }

    #[test]
    fn missing_files_are_reported_with_context() {
        let e = run(&Command::Stats {
            graph: "/no/such/file".into(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("/no/such/file"), "{e}");
        let e = run(&Command::Generate {
            preset: "marsgraph".into(),
            scale: 1.0,
            seed: None,
            out: "x".into(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("unknown preset"), "{e}");
    }
}

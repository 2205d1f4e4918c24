//! Command implementations. Each returns its output as a `String` so the
//! behaviour is unit-testable without capturing stdout.

use crate::args::{Command, ObsFlags};
use crate::USAGE;
use bpart_cluster::exec::ExecMode;
use bpart_cluster::FaultPlan;
use bpart_core::pio;
use bpart_core::prelude::*;
use bpart_dist::spec::{check_parts, is_binary_graph};
use bpart_dist::{
    AppOutput, AppSpec, Backend, ClusterError, GraphSource, JobSpec, ProcessConfig, Scheme,
    ThreadsConfig, TimeUnit, SCHEMES,
};
use bpart_graph::{io, stats, CsrGraph};
use std::fmt;
use std::fs::File;
use std::path::Path;
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

/// A job that cannot be described or started (an unknown name, an
/// unreadable graph) is reported by its reason alone; `unrecoverable:` is
/// kept for what goes wrong in mid-run.
impl From<ClusterError> for CliError {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Unrecoverable { reason } => fail(reason),
            other => fail(other.to_string()),
        }
    }
}

/// Executes a parsed command and returns its printable output.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Schemes => Ok(SCHEMES.iter().map(|s| format!("{}\n", s.name)).collect()),
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
            fault_plan,
            checkpoint_every,
            obs,
        } => {
            let spec = JobSpec {
                graph: GraphSource::File(graph.clone()),
                scheme: scheme.clone(),
                parts: *parts,
                app: AppSpec::by_name(app, *iters, *walk_len, *seed)?,
                checkpoint_every: *checkpoint_every,
            };
            let exports = ObsExports::begin(obs)?;
            let mut text = run_cmd(graph, &spec, backend, mode, fault_plan.as_deref(), obs)?;
            exports.finish(&mut text)?;
            Ok(text)
        }
        Command::Worker(cfg) => {
            bpart_dist::run_worker(cfg.clone())
                .map_err(|e| fail(format!("worker {} failed: {e}", cfg.worker_id)))?;
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
        // The live /spans and /profile endpoints are only useful with
        // tracing on, so --serve-addr arms the tracer just like
        // --trace-out does; the flame view is folded from the spans, so
        // --profile-out arms it too.
        if obs.trace_out.is_some() || obs.serve_addr.is_some() || obs.profile_out.is_some() {
            bpart_obs::set_trace_enabled(true);
            bpart_obs::clear_trace();
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
        // `proc.peak_rss_bytes` as late as the snapshot can carry it: every
        // path of the command has run.
        bpart_dist::publish_peak_rss();
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
        drop(store);
        if let Some(server) = self.server.take() {
            let addr = server.addr();
            server.shutdown();
            text.push_str(&format!("  served observability on http://{addr}\n"));
        }
        Ok(())
    }
}

/// Starts the run-history record of a `partition` or a `run`, stamping the
/// configuration common to both.
fn history_record(
    label: &str,
    graph_path: &str,
    scheme: &str,
    parts: usize,
) -> bpart_obs::history::RunRecord {
    let mut rec = bpart_obs::history::RunRecord::new(label, graph_path);
    rec.set_config("scheme", scheme);
    rec.set_config("parts", parts);
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
/// a process-backend driver's spans and its workers', on one clock, in
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
/// view — identical stacks across files sum their nanoseconds — and
/// renders it heaviest stack first. The output is itself valid folded
/// text, so it pipes straight into any flamegraph renderer.
fn report_profile_cmd(paths: &[String]) -> Result<String, CliError> {
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| fail(format!("cannot open {path}: {e}")))?;
        for (stack, count) in
            bpart_obs::export::parse_folded(&text).map_err(|e| fail(format!("{path}: {e}")))?
        {
            // Every stack's sum is at most the total, so checking the
            // total is enough.
            total = total
                .checked_add(count)
                .ok_or_else(|| fail(format!("{path}: count overflows u64 at stack {stack:?}")))?;
            *merged.entry(stack).or_insert(0) += count;
        }
    }
    if total == 0 {
        return Ok("profile: no stacks (was anything traced?)\n".to_string());
    }
    let mut rows: Vec<(&String, &u64)> = merged.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "# profile: {} ns across {} stacks ({} files)\n",
        total,
        rows.len(),
        paths.len()
    );
    for (stack, count) in rows {
        out.push_str(&format!("{stack} {count}\n"));
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
    let report = bpart_obs::history::diff(&a, &b, &watches).map_err(fail)?;
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

/// Resolves a scheme name to its partitioner.
pub fn scheme_by_name(name: &str) -> Result<Box<dyn Partitioner>, CliError> {
    Ok((Scheme::by_name(name)?.build)())
}

fn is_binary_partition(path: &str) -> bool {
    Path::new(path).extension().is_some_and(|e| e == "bppt")
}

/// Loads a graph from text or binary by extension.
pub fn load_graph(path: &str) -> Result<CsrGraph, CliError> {
    Ok(GraphSource::File(path.to_string()).load()?)
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
    let name = preset.to_string();
    let graph = GraphSource::Preset { name, scale, seed }.load()?;
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

/// The shard directory `partition` streams from out of core: `--shard-dir`,
/// or a GRAPH that holds a shard manifest. `None` loads the graph resident
/// (text or binary by extension).
fn shard_input<'a>(graph_path: &'a str, shard_dir: Option<&'a str>) -> Option<&'a str> {
    let manifest = Path::new(graph_path).join(pio::MANIFEST_NAME);
    shard_dir.or_else(|| manifest.is_file().then_some(graph_path))
}

/// What a partitioner produced, resident or out of core: everything the
/// report, the `--out` file and the history record are made of.
struct Partitioned<'a> {
    /// The partitioner's display name.
    label: String,
    vertex_counts: &'a [u64],
    edge_counts: &'a [u64],
    cut_ratio: f64,
    assignment: &'a [PartId],
    stats: StreamStats,
    elapsed: f64,
    /// Lines only this way of running has (memory ceiling, combine layers,
    /// the shard loop).
    extra: String,
}

/// The one partition report: quality lines, time and throughput, then the
/// `--out` file (text or binary by extension) and the history record begun
/// in `rec`.
fn partition_report(
    p: &Partitioned<'_>,
    out: Option<&str>,
    mut rec: bpart_obs::history::RunRecord,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let parts = p.vertex_counts.len();
    bpart_dist::publish_parts(p.vertex_counts, p.edge_counts);
    let mut text = render_quality(&p.label, p.vertex_counts, p.edge_counts, p.cut_ratio);
    text.push_str(&format!("  partition time:  {:.3}s\n", p.elapsed));
    text.push_str(&format!(
        "  throughput:      {:.0} vertices/s (1 thread)\n",
        p.stats.vertices_per_sec(),
    ));
    text.push_str(&p.extra);
    if let Some(path) = out {
        let file = File::create(path).map_err(|e| fail(format!("cannot create {path}: {e}")))?;
        if is_binary_partition(path) {
            pio::write_binary_assignment(parts, p.assignment, file)
        } else {
            pio::write_text_assignment(parts, p.assignment, file)
        }
        .map_err(|e| fail(format!("{path}: {e}")))?;
        text.push_str(&format!("  wrote {path}\n"));
    }
    if let Some(hpath) = obs.history_out.as_deref() {
        rec.set_metric("wall_time_secs", p.elapsed);
        rec.set_metric("cut_ratio", p.cut_ratio);
        rec.set_metric("vertex_bias", metrics::bias(p.vertex_counts));
        rec.set_metric("edge_bias", metrics::bias(p.edge_counts));
        rec.set_metric("throughput_vps", p.stats.vertices_per_sec());
        write_history(&rec, hpath, &mut text)?;
    }
    Ok(text)
}

fn partition_cmd(
    graph_path: &str,
    parts: usize,
    scheme_name: &str,
    out: Option<&str>,
    shard_dir: Option<&str>,
    mem_ceiling_mb: Option<u64>,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let mut extra = String::new();
    if let Some(mb) = mem_ceiling_mb {
        bpart_obs::rss::set_address_space_limit(mb * 1024 * 1024)
            .map_err(|e| fail(format!("cannot apply --mem-ceiling {mb}: {e}")))?;
        extra = format!("  mem ceiling:     {mb} MB (RLIMIT_AS)\n");
    }
    if let Some(dir) = shard_input(graph_path, shard_dir) {
        return partition_ooc_cmd(dir, parts, scheme_name, out, extra, obs);
    }
    let scheme = scheme_by_name(scheme_name)?;
    let graph = load_graph(graph_path)?;
    check_parts(scheme_name, parts, graph.num_vertices())?;
    let start = Instant::now();
    // Only BPart has layers to report; it is run for its trace, which
    // `partition_with_stats` folds away.
    let (partition, stats) = if scheme_name == "bpart" {
        let (partition, trace) = BPart::default().partition_with_trace(&graph, parts);
        let mut stats = StreamStats::default();
        trace.iter().for_each(|layer| stats.merge(&layer.stream));
        let forced: usize = trace.iter().map(|layer| layer.forced).sum();
        extra.push_str(&format!(
            "  combine layers:  {} ({forced} of {parts} parts frozen by the layer budget, \
not by threshold)\n",
            trace.len()
        ));
        (partition, stats)
    } else {
        scheme.partition_with_stats(&graph, parts)
    };
    let elapsed = start.elapsed().as_secs_f64();
    let rec = history_record("partition", graph_path, scheme_name, parts);
    let partitioned = Partitioned {
        label: scheme.name().to_string(),
        vertex_counts: partition.vertex_counts(),
        edge_counts: partition.edge_counts(),
        cut_ratio: metrics::edge_cut_ratio(&graph, &partition),
        assignment: partition.assignment(),
        stats,
        elapsed,
        extra,
    };
    partition_report(&partitioned, out, rec, obs)
}

/// The out-of-core partition path: walk the shard directory through the
/// placement kernel and report what the resident path does (cut recomputed
/// by re-streaming the shards — the graph is never resident), plus where
/// the loop spent its time. Only the streaming schemes have a shard-loop
/// scorer; the others need the whole graph resident by construction.
fn partition_ooc_cmd(
    shard_path: &str,
    parts: usize,
    scheme_name: &str,
    out: Option<&str>,
    mut extra: String,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    let scheme = Scheme::by_name(scheme_name)?;
    let config = bpart_core::OocConfig::new(parts, scheme.out_of_core()?);
    let named = |e: &dyn fmt::Display| fail(format!("{shard_path}: {e}"));
    let shards = pio::ShardSet::open(Path::new(shard_path)).map_err(|e| named(&e))?;
    check_parts(scheme_name, parts, shards.num_vertices())?;
    let start = Instant::now();
    let outcome = bpart_core::stream_assign_ooc(&shards, &config).map_err(|e| named(&e))?;
    let elapsed = start.elapsed().as_secs_f64();
    let cut_ratio =
        bpart_core::ooc_cut_ratio(&shards, &outcome.assignment).map_err(|e| named(&e))?;

    extra.push_str(&format!(
        "  shards:          {} (read through a {} KiB window)\n  shard loop:\n",
        shards.num_shards(),
        pio::SHARD_WINDOW_BYTES / 1024
    ));
    for s in &outcome.pipeline.stages {
        extra.push_str(&format!(
            "    {:<7} {} shards, busy {:.3}s\n",
            format!("{}:", s.name),
            s.shards,
            s.busy_secs
        ));
    }
    let resident = (scheme.build)();
    let partitioned = Partitioned {
        label: format!("{} (out-of-core)", resident.name()),
        vertex_counts: &outcome.vertex_counts,
        edge_counts: &outcome.edge_counts,
        cut_ratio,
        assignment: &outcome.assignment,
        stats: outcome.stats,
        elapsed,
        extra,
    };
    let rec = history_record("partition-ooc", shard_path, scheme_name, parts);
    partition_report(&partitioned, out, rec, obs)
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
    Ok(render_quality(
        partition_path,
        partition.vertex_counts(),
        partition.edge_counts(),
        metrics::edge_cut_ratio(&graph, &partition),
    ))
}

/// `bpart run`: describes the job as a [`JobSpec`] and where it runs as a
/// [`Backend`], runs it, and reports it — one path, whichever backend.
///
/// On `--backend process` the fault-free threads oracle runs in-process as
/// well and the two result digests must agree bit for bit (recovery from
/// any fault-plan crashes included) — a mismatch fails the command, which
/// is what the CI chaos job leans on.
fn run_cmd(
    graph_path: &str,
    spec: &JobSpec,
    backend_name: &str,
    mode: &str,
    fault_plan: Option<&str>,
    obs: &ObsFlags,
) -> Result<String, CliError> {
    use bpart_obs::federation;
    let faults = match fault_plan {
        Some(plan) => plan
            .parse::<FaultPlan>()
            .map_err(|e| fail(format!("bad --fault-plan: {e}")))?,
        None => FaultPlan::default(),
    };
    let process = backend_name == "process";
    // Cluster-wide observability federation: armed when any obs export was
    // requested, off otherwise so a plain run ships no telemetry frames at
    // all.
    let exports = [
        &obs.trace_out,
        &obs.metrics_out,
        &obs.serve_addr,
        &obs.history_out,
        &obs.profile_out,
    ];
    let federated = process && exports.iter().any(|o| o.is_some());
    let backend = if process {
        federation::reset();
        federation::set_collection_enabled(federated);
        let exe = std::env::current_exe()
            .map_err(|e| fail(format!("cannot locate own executable: {e}")))?;
        let worker = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
        let mut cfg = ProcessConfig::new(spec.parts as usize, worker);
        cfg.faults = faults;
        Backend::Process(cfg)
    } else {
        Backend::Threads(ThreadsConfig {
            mode: match mode {
                "threaded" => ExecMode::Threaded,
                _ => ExecMode::Sequential,
            },
            faults,
        })
    };

    let start = Instant::now();
    let out = bpart_dist::run_job(spec, &backend)?;
    let wall = start.elapsed().as_secs_f64();
    let oracle = if process {
        // The oracle runs fault-free: recovery must be transparent, so the
        // process result has to match the undisturbed simulation. Tracing
        // is muted for it — its modelled `cluster.superstep` spans use
        // abstract time units and would corrupt the measured trace's blame
        // table.
        let trace_was = bpart_obs::trace_enabled();
        bpart_obs::set_trace_enabled(false);
        let oracle = bpart_dist::run_job(spec, &Backend::Threads(ThreadsConfig::default()));
        bpart_obs::set_trace_enabled(trace_was);
        Some(oracle?)
    } else {
        None
    };

    let cut_ratio = metrics::edge_cut_ratio(out.cluster.graph(), out.cluster.partition());
    let mut text = format!(
        "run: {} on {graph_path} ({} vertices, {} edges), {} scheme, {} machines, \
{backend_name} backend\n",
        spec.app.name(),
        out.cluster.graph().num_vertices(),
        out.cluster.graph().num_edges(),
        spec.scheme,
        spec.parts,
    );
    text.push_str(&run_report(&out, oracle.as_ref(), cut_ratio, wall));
    if federated {
        let dead = federation::global().dead_workers();
        if dead > 0 {
            text.push_str(&format!(
                "  stale workers:   {dead} (last reports kept, flagged stale)\n"
            ));
        }
    }
    if let Some(hpath) = obs.history_out.as_deref() {
        let mut rec = history_record("run", graph_path, &spec.scheme, spec.parts as usize);
        rec.set_config("backend", backend_name);
        rec.set_config("mode", if process { "processes" } else { mode });
        run_history(&mut rec, &spec.app, &out, cut_ratio, wall);
        write_history(&rec, hpath, &mut text)?;
    }
    if oracle.is_some_and(|o| (o.digest, o.supersteps) != (out.digest, out.supersteps)) {
        return Err(fail(format!(
            "process backend diverged from the threads oracle:\n{text}"
        )));
    }
    Ok(text)
}

/// A time in the unit the backend measured it in.
fn show_time(unit: TimeUnit, t: f64) -> String {
    match unit {
        TimeUnit::Modelled => format!("{t:.2} units"),
        TimeUnit::Seconds => format!("{t:.3}s"),
    }
}

/// Per-machine compute and barrier waiting (the paper's Fig. 13 view: which
/// machines sit idle at the superstep barrier and by how much) beside what
/// each machine holds, the paper's two balance dimensions. Modelled units
/// on the threads backend; on the process backend, the seconds the workers
/// measured on every run, and the bytes each worker process held at its
/// peak when they were asked to report it. Empty when no superstep ran.
fn machine_table(out: &AppOutput) -> String {
    let (unit, timing) = (out.time_unit, &out.timing);
    if timing.machines.is_empty() {
        return String::new();
    }
    let source = match unit {
        TimeUnit::Modelled => "cost model",
        TimeUnit::Seconds => "measured by the workers",
    };
    let mut text = format!(
        "  total time:      {} ({source})\n  waiting ratio:   {:.4}\n",
        show_time(unit, timing.total_time),
        timing.waiting_ratio
    );
    let (vertices, edges) = (out.cluster.vertex_counts(), out.cluster.edge_counts());
    for (m, row) in timing.machines.iter().enumerate() {
        text.push_str(&format!(
            "    m{m}: compute {}, waiting {} ({:.1}%), holds {} vertices, {} edges",
            show_time(unit, row.compute),
            show_time(unit, row.waiting),
            row.ratio * 100.0,
            vertices[m],
            edges[m]
        ));
        if let Some(&peak) = out.peak_rss_bytes.get(m) {
            text.push_str(&format!(", peak {:.1} MB", peak as f64 / (1 << 20) as f64));
        }
        text.push('\n');
    }
    text
}

/// The one report of a run, whichever backend ran it; `oracle` is the
/// threads run a process run is checked against.
fn run_report(out: &AppOutput, oracle: Option<&AppOutput>, cut_ratio: f64, wall: f64) -> String {
    let mut text = format!("  edge-cut ratio:  {cut_ratio:.4}\n");
    text.push_str(&format!("  supersteps:      {}\n", out.supersteps));
    text.push_str(&format!("  digest:          {:#018x}\n", out.digest));
    if let Some(oracle) = oracle {
        let identical = (oracle.digest, oracle.supersteps) == (out.digest, out.supersteps);
        text.push_str(&format!(
            "  oracle digest:   {:#018x} (threads backend)\n  bit-identical:   {}\n",
            oracle.digest,
            if identical { "yes" } else { "NO" }
        ));
    }
    let r = &out.recovery;
    text.push_str(&format!(
        "  recovery:        {} deaths, {} recoveries, {} respawns, {} replayed supersteps\n",
        r.worker_deaths, r.recoveries, r.respawns, r.replayed_supersteps
    ));
    text.push_str(&format!("  wall time:       {wall:.2}s\n"));
    text.push_str(&machine_table(out));
    if let Some(modelled) = &out.modelled {
        text.push_str(&format!("  messages:        {}\n", modelled.messages));
        text.push_str(&format!(
            "  recovery time:   {}\n",
            show_time(TimeUnit::Modelled, modelled.recovery_time)
        ));
        if let Some((steps, message_walks)) = modelled.walk {
            text.push_str(&format!(
                "  walker steps:    {steps}\n  message walks:   {message_walks}\n"
            ));
        }
    }
    text
}

/// Fills in the one `run` history record: the same keys whichever backend
/// ran, with `time_unit` saying what `total_time_units` counts.
fn run_history(
    rec: &mut bpart_obs::history::RunRecord,
    app: &AppSpec,
    out: &AppOutput,
    cut_ratio: f64,
    wall: f64,
) {
    rec.set_config("app", app.name());
    match *app {
        AppSpec::PageRank { iters } => rec.set_config("iters", iters),
        AppSpec::ConnectedComponents => {}
        AppSpec::DeepWalk { walk_len, seed, .. } => {
            rec.set_config("walk_len", walk_len);
            rec.set_config("seed", seed);
        }
    }
    rec.set_config(
        "time_unit",
        match out.time_unit {
            TimeUnit::Modelled => "cost-model units",
            TimeUnit::Seconds => "seconds",
        },
    );
    rec.set_metric("wall_time_secs", wall);
    rec.set_metric("cut_ratio", cut_ratio);
    rec.set_metric("supersteps", out.supersteps as f64);
    rec.set_metric("total_time_units", out.timing.total_time);
    rec.set_metric("waiting_ratio", out.timing.waiting_ratio);
    let r = &out.recovery;
    rec.set_metric("worker_deaths", r.worker_deaths as f64);
    rec.set_metric("recoveries", r.recoveries as f64);
    rec.set_metric("respawns", r.respawns as f64);
    rec.set_metric("replayed_supersteps", r.replayed_supersteps as f64);
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

/// The balance and cut lines of a partition, from its per-part tallies.
fn render_quality(label: &str, vertex_counts: &[u64], edge_counts: &[u64], cut: f64) -> String {
    let (bias, fairness) = (metrics::bias, metrics::jain_fairness);
    let mut out = format!("partition: {label} ({} parts)\n", vertex_counts.len());
    out.push_str(&format!("  vertex bias:     {:.4}\n", bias(vertex_counts)));
    out.push_str(&format!("  edge bias:       {:.4}\n", bias(edge_counts)));
    out.push_str(&format!(
        "  vertex fairness: {:.4}\n",
        fairness(vertex_counts)
    ));
    out.push_str(&format!(
        "  edge fairness:   {:.4}\n",
        fairness(edge_counts)
    ));
    out.push_str(&format!("  edge-cut ratio:  {cut:.4}\n"));
    out.push_str(&format!("  |V_i|:           {vertex_counts:?}\n"));
    out.push_str(&format!("  |E_i|:           {edge_counts:?}\n"));
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

        // A GRAPH that is a shard directory is found by its manifest and
        // takes the out-of-core path.
        let out = runs(Command::Partition {
            graph: sd.clone(),
            parts: 4,
            scheme: "fennel".into(),
            out: Some(pp.clone()),
            shard_dir: None,
            mem_ceiling_mb: None,
            obs: ObsFlags::default(),
        });
        assert!(out.contains("out-of-core"), "{out}");
        assert!(out.contains("shard loop:"), "{out}");
        assert!(out.contains("fetch:"), "{out}");
        assert!(out.contains("(1 thread)"), "{out}");

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

    /// Of `iters`, `walk_len` and `seed`, the ones `app` reads.
    fn read_by(
        app: &str,
        iters: usize,
        walk_len: u32,
        seed: u64,
    ) -> (Option<usize>, Option<u32>, Option<u64>) {
        match app {
            "pagerank" => (Some(iters), None, None),
            "deepwalk" => (None, Some(walk_len), Some(seed)),
            _ => (None, None, None),
        }
    }

    fn run_on(graph: String, app: &str, fault_plan: Option<&str>) -> Result<String, CliError> {
        let (iters, walk_len, seed) = read_by(app, 5, 5, 7);
        run(&Command::Run {
            graph,
            parts: 4,
            scheme: "chunk-v".into(),
            app: app.into(),
            iters,
            walk_len,
            seed,
            mode: "sequential".into(),
            backend: "threads".into(),
            fault_plan: fault_plan.map(str::to_string),
            checkpoint_every: Some(2),
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

        for app in ["pagerank", "cc", "deepwalk"] {
            let clean = run_on(gp.clone(), app, None).unwrap();
            let untouched = "recovery:        0 deaths, 0 recoveries, 0 respawns, \
                             0 replayed supersteps\n";
            assert!(clean.contains(untouched), "{app}: {clean}");

            // crash at 3 with checkpoints every 2: rollback to the
            // superstep-2 checkpoint, so superstep 2 is replayed
            let faulted = run_on(gp.clone(), app, Some("crash@3:m1")).unwrap();
            let recovered = "recovery:        1 deaths, 1 recoveries, 0 respawns, \
                             1 replayed supersteps\n";
            assert!(faulted.contains(recovered), "{app}: {faulted}");
        }

        let e = run_on(gp.clone(), "pagerank", Some("crash@nope")).unwrap_err();
        assert!(e.to_string().contains("fault-plan"), "{e}");
        let e = run_on(gp.clone(), "frobnicate", None).unwrap_err();
        assert!(e.to_string().contains("unknown app"), "{e}");

        std::fs::remove_file(graph_path).ok();
    }

    /// The threads backend has one implementation: what `bpart run` prints
    /// is what `run_job` returns for the job the flags describe.
    #[test]
    fn run_on_threads_prints_the_digest_run_job_returns() {
        let graph_path = tmp("run_digest.txt");
        let gp = graph_path.to_str().unwrap().to_string();
        runs(Command::Generate {
            preset: "lj_like".into(),
            scale: 0.01,
            seed: Some(5),
            out: gp.clone(),
        });
        for app in bpart_dist::APP_NAMES {
            for (mode, exec) in [
                ("sequential", ExecMode::Sequential),
                ("threaded", ExecMode::Threaded),
            ] {
                let (iters, walk_len, seed) = read_by(app, 4, 6, 11);
                let spec = JobSpec {
                    graph: GraphSource::File(gp.clone()),
                    scheme: "fennel".into(),
                    parts: 3,
                    app: AppSpec::by_name(app, iters, walk_len, seed).unwrap(),
                    checkpoint_every: None,
                };
                let backend = Backend::Threads(ThreadsConfig {
                    mode: exec,
                    ..ThreadsConfig::default()
                });
                let expected = bpart_dist::run_job(&spec, &backend).unwrap();
                let printed = runs(Command::Run {
                    graph: gp.clone(),
                    parts: 3,
                    scheme: "fennel".into(),
                    app: app.into(),
                    iters,
                    walk_len,
                    seed,
                    mode: mode.into(),
                    backend: "threads".into(),
                    fault_plan: None,
                    checkpoint_every: None,
                    obs: ObsFlags::default(),
                });
                let digest = format!("  digest:          {:#018x}\n", expected.digest);
                assert!(printed.contains(&digest), "{app} {mode}: {printed}");
                let supersteps = format!("  supersteps:      {}\n", expected.supersteps);
                assert!(printed.contains(&supersteps), "{app} {mode}: {printed}");
            }
        }
        std::fs::remove_file(graph_path).ok();
    }

    /// A scheme nobody knows is answered with the scheme table, in the
    /// words `JobSpec::scheme` uses, by every command that takes a scheme —
    /// before any graph is opened or worker spawned.
    #[test]
    fn an_unknown_scheme_lists_the_table_whoever_is_asked() {
        let spec = JobSpec {
            graph: GraphSource::File("/no/such/graph".into()),
            scheme: "nope".into(),
            parts: 2,
            app: AppSpec::ConnectedComponents,
            checkpoint_every: None,
        };
        let expected = CliError::from(spec.scheme().err().unwrap()).to_string();
        assert!(expected.starts_with("unknown scheme \"nope\"; available: chunk-v, "));
        for backend in ["threads", "process"] {
            let e = run(&Command::Run {
                graph: "/no/such/graph".into(),
                parts: 2,
                scheme: "nope".into(),
                app: "cc".into(),
                iters: None,
                walk_len: None,
                seed: None,
                mode: "sequential".into(),
                backend: backend.into(),
                fault_plan: None,
                checkpoint_every: None,
                obs: ObsFlags::default(),
            })
            .unwrap_err();
            assert_eq!(e.to_string(), expected, "{backend}");
        }
        for shard_dir in [None, Some("/no/such/shards".to_string())] {
            let e = run(&Command::Partition {
                graph: "/no/such/graph".into(),
                parts: 2,
                scheme: "nope".into(),
                out: None,
                shard_dir: shard_dir.clone(),
                mem_ceiling_mb: None,
                obs: ObsFlags::default(),
            })
            .unwrap_err();
            assert_eq!(e.to_string(), expected, "{shard_dir:?}");
        }
        assert_eq!(scheme_by_name("nope").err().unwrap().to_string(), expected);
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
            iters: Some(3),
            walk_len: None,
            seed: None,
            mode: "sequential".into(),
            backend: "threads".into(),
            fault_plan: None,
            checkpoint_every: None,
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
            iters: Some(3),
            walk_len: None,
            seed: None,
            mode: "sequential".into(),
            backend: "threads".into(),
            fault_plan: None,
            checkpoint_every: None,
            obs: ObsFlags {
                history_out: Some(ha.clone()),
                ..ObsFlags::default()
            },
        });
        assert!(out.contains("wrote history record"), "{out}");
        let rec = bpart_obs::history::RunRecord::read(Path::new(&ha)).unwrap();
        assert_eq!(rec.git_rev, bpart_obs::history::env_git_rev());
        assert_eq!(rec.label, "run");
        assert_eq!(rec.config["backend"], "threads");
        assert_eq!(rec.config["time_unit"], "cost-model units");
        for metric in [
            "cut_ratio",
            "total_time_units",
            "waiting_ratio",
            "supersteps",
            "worker_deaths",
            "recoveries",
            "replayed_supersteps",
        ] {
            assert!(rec.metrics.contains_key(metric), "{metric}: {rec:?}");
        }

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

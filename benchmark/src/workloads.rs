//! The four workloads: what each prepares, what one job of each runs, how
//! its result is verified, and which per-layer numbers it yields.
//!
//! A job is the whole pipeline on one input — graph file → partition →
//! cluster → application → verified result — run single-threaded
//! (`ExecMode::Sequential`) unless the workload says otherwise. Every layer
//! is timed from here, around calls to its public functions.

use crate::metrics::{Checks, Values};
use crate::spans::Recorder;
use crate::stats::{lower_quartile, quartiles, two_point_fit};
use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel, FaultPlan, Telemetry};
use bpart_core::bpart::{LayerTrace, WeightedStream};
use bpart_core::metrics::{self as quality, QualityReport};
use bpart_core::pio::{self, ShardSet};
use bpart_core::{
    stream_assign_ooc, BPart, BPartConfig, ChunkE, ChunkV, Fennel, HashPartitioner, OocConfig,
    OocScheme, ParallelConfig, Partition, Partitioner,
};
use bpart_dist::{
    digest_wire, run_job, run_worker, AppSpec, Backend, GraphSource, JobSpec, ProcessConfig,
    ThreadsConfig,
};
use bpart_engine::apps::{reference_pagerank, ConnectedComponents, PageRank};
use bpart_engine::IterationEngine;
use bpart_graph::generate::{self, DatasetPreset};
use bpart_graph::io::{self, MappedCsr};
use bpart_graph::{traversal, CsrGraph, VertexId};
use bpart_walker::apps::{DeepWalk, Node2vec};
use bpart_walker::{WalkApp, WalkEngine, WalkRun, WalkStarts};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One workload's inputs and shape.
pub struct Workload {
    pub name: &'static str,
    pub preset: fn() -> DatasetPreset,
    /// Preset scale of a full run (see [`SMOKE_SCALE`] for `--smoke`).
    pub scale: f64,
    /// Whether `--seed` picks the graph (preset seed xor `--seed`). Where it
    /// does not, the graph is the preset's own and `--seed` seeds the walks
    /// alone.
    pub seeded_graph: bool,
    /// Machines of the cluster the applications run on.
    pub parts: usize,
    /// Whether set-up also writes the shard directory.
    pub shards: bool,
    pub why: &'static str,
}

/// Scale of a preset under `--smoke`, unless a tenth of its full scale is
/// smaller still.
pub const SMOKE_SCALE: f64 = 0.02;

/// Shard size of `partition-lj`: small enough that the out-of-core pass
/// maps several shards in turn.
const SHARD_BYTES: u64 = 4 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr-cc-tw",
        preset: generate::twitter_like,
        scale: 0.8,
        seeded_graph: true,
        parts: 8,
        shards: false,
        why: "most skewed graph, PageRank (dense) then CC (shrinking frontier): engine and cluster do the work, walker and dist none",
    },
    Workload {
        name: "walks-fr",
        preset: generate::friendster_like,
        scale: 0.03,
        // Too small for its quality metrics to hold still from one graph
        // seed to the next: the cut ratio moved by 0.02 of itself and the
        // modelled time by 0.04, against 0.004 on the other workloads.
        seeded_graph: false,
        parts: 8,
        shards: false,
        why: "near-regular graph that fits the private L2, 16 walkers per vertex, DeepWalk (alias sampling) then node2vec (rejection): walker does the work, engine and dist none",
    },
    Workload {
        name: "partition-lj",
        preset: generate::lj_like,
        scale: 2.0,
        seeded_graph: true,
        parts: 8,
        shards: true,
        why: "every partitioner at k=8, BPart also at k=64, phase 1 resident and out of core from shards: core does the work, bypassing walker and dist",
    },
    Workload {
        name: "dist-lj",
        preset: generate::lj_like,
        scale: 1.0,
        seeded_graph: true,
        parts: 2,
        shards: false,
        why: "small job on 2 worker processes, PageRank at 4 and 24 iterations and DeepWalk: only dist does the work, so its fixed costs dominate",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const GRAPH_FILE: &str = "graph.bpgr";
const SHARD_DIR: &str = "shards";

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Prepares a workload's inputs from nothing in `dir`: the preset generated
/// from `preset seed xor seed` (see [`Workload::seeded_graph`]), written as
/// `.bpgr`, plus shards where the workload streams them. Returns the
/// per-layer set-up timings.
pub fn prepare(w: &Workload, seed: u64, scale: f64, dir: &Path) -> Result<Values, String> {
    let mut out = Values::default();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut preset = (w.preset)();
    if w.seeded_graph {
        preset.seed ^= seed;
    }

    let start = Instant::now();
    let graph = preset.generate_scaled(scale);
    out.set("graph.generate_s", start.elapsed().as_secs_f64());

    let path = dir.join(GRAPH_FILE);
    let start = Instant::now();
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    io::write_binary(&graph, &mut writer).map_err(|e| format!("{}: {e}", path.display()))?;
    writer
        .flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.set("graph.write_s", start.elapsed().as_secs_f64());
    drop(graph);

    if w.shards {
        let start = Instant::now();
        let csr = MappedCsr::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        pio::write_shards_from_mapped(&csr, &dir.join(SHARD_DIR), SHARD_BYTES)
            .map_err(|e| format!("shards: {e}"))?;
        out.set("core.shard_write_s", start.elapsed().as_secs_f64());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// What a runner hands back
// ---------------------------------------------------------------------------

/// The verified result of one job.
pub struct JobResult {
    /// Digest of the job's outputs; every job of a run must repeat it.
    pub digest: u64,
    /// Counts and ratios that repeat bit-for-bit for a seed.
    pub exact: Values,
}

/// Per-job measurements that are not exact (busy seconds, stall counts);
/// each is reported as the lower quartile over the run's jobs.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn report(&self, out: &mut Values) {
        for (name, values) in &self.0 {
            out.set(name, lower_quartile(values));
        }
    }
}

/// The traced run's spans, with the questions the runners ask of them.
pub struct Ledger<'a> {
    pub rec: &'a Recorder,
    pub self_ns: Vec<u64>,
    /// Jobs that ran with the program's own tracing on.
    pub traced_jobs: Vec<u32>,
}

impl Ledger<'_> {
    /// Lower quartile over jobs of the time spent in spans called `name`.
    pub fn q1(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self.rec.per_job_secs(name).iter().map(|j| j.1).collect();
        lower_quartile(&secs)
    }

    /// Same, over the jobs that had the program's tracing on: the only
    /// ones in which adopted spans exist.
    fn q1_traced(&self, name: &str) -> f64 {
        lower_quartile(&self.only_traced(self.rec.per_job_secs(name)))
    }

    /// Lower quartile over traced jobs of the summed self time of `names`.
    fn self_q1_traced(&self, names: &[&str]) -> f64 {
        let mut per_job: BTreeMap<u32, f64> = BTreeMap::new();
        for name in names {
            for (job, secs) in self.rec.per_job_self_secs(name, &self.self_ns) {
                *per_job.entry(job).or_default() += secs;
            }
        }
        lower_quartile(&self.only_traced(per_job.into_iter().collect()))
    }

    fn only_traced(&self, per_job: Vec<(u32, f64)>) -> Vec<f64> {
        per_job
            .into_iter()
            .filter(|(job, _)| self.traced_jobs.contains(job))
            .map(|(_, secs)| secs)
            .collect()
    }

    /// Sets `<span>_p50_ms` and `<span>_p90_ms` from the durations of the
    /// program's `span` spans, and returns how many there were.
    fn superstep_percentiles(&self, span: &str, out: &mut Values) -> usize {
        let mut ms = self.rec.durations_ms(span);
        ms.sort_by(f64::total_cmp);
        if let Some(q) = quartiles(&ms) {
            out.set(&format!("{span}_p50_ms"), q.median);
            out.set(&format!("{span}_p90_ms"), ms[ms.len() * 9 / 10]);
        }
        ms.len()
    }
}

/// One workload, bound to its prepared inputs.
pub trait Runner {
    /// One job, from opening the input file to the verified result.
    fn job(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<JobResult, String>;

    /// Reference runs the outputs are checked against. Outside `job_s`, and
    /// after the peak resident set was read.
    fn oracle(&mut self, checks: &mut Checks, out: &mut Values) -> Result<(), String>;

    /// Measurements only the traced run makes (none by default).
    fn traced_extras(&mut self, _checks: &mut Checks, _out: &mut Values) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics derived from the traced run's spans and counts.
    fn layer_metrics(&self, ledger: &Ledger<'_>, out: &mut Values);

    /// Sum over the job's worker processes of their peak resident set, in
    /// MiB; an in-process workload has none.
    fn workers_peak_rss_mb(&self) -> f64 {
        0.0
    }
}

pub fn runner(w: &'static Workload, dir: &Path, seed: u64) -> Box<dyn Runner> {
    let input = Input {
        graph: dir.join(GRAPH_FILE),
        shards: dir.join(SHARD_DIR),
        worker_rss: dir.join("worker-rss"),
        parts: w.parts,
        seed,
    };
    match w.name {
        "pr-cc-tw" => Box::new(PrCc {
            base: InProcess::new(input),
            last: None,
            pagerank_messages: 0.0,
        }),
        "walks-fr" => Box::new(Walks {
            base: InProcess::new(input),
            last: None,
        }),
        "partition-lj" => Box::new(Partitioners {
            base: InProcess::new(input),
            last_ooc: None,
        }),
        "dist-lj" => Box::new(Dist {
            input,
            last: None,
            link_retries: 0,
            respawns: 0,
        }),
        other => unreachable!("workload {other} has no runner"),
    }
}

// ---------------------------------------------------------------------------
// Shared by the in-process workloads
// ---------------------------------------------------------------------------

struct Input {
    graph: PathBuf,
    shards: PathBuf,
    /// Where `dist-lj`'s workers leave their peak resident set.
    worker_rss: PathBuf,
    parts: usize,
    /// Walk seed.
    seed: u64,
}

impl Input {
    fn load(&self) -> Result<CsrGraph, String> {
        io::load_binary(&self.graph).map_err(|e| format!("{}: {e}", self.graph.display()))
    }

    fn file_mb(&self) -> f64 {
        std::fs::metadata(&self.graph).map_or(0.0, |m| m.len() as f64 / 1e6)
    }
}

/// The head of every in-process job: load, `BPart::default()` at the
/// workload's `k`, its quality report, and the coverage check.
struct Head {
    graph: Arc<CsrGraph>,
    partition: Arc<Partition>,
    quality: QualityReport,
    layers: Vec<LayerTrace>,
}

/// What the three in-process runners share: their input, the per-job
/// samples each of them takes, and the edge count their rates divide by.
struct InProcess {
    input: Input,
    samples: Samples,
    edges: f64,
}

impl InProcess {
    fn new(input: Input) -> Self {
        InProcess {
            input,
            samples: Samples::default(),
            edges: 0.0,
        }
    }

    /// Runs the head of a job.
    fn head(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<Head, String> {
        let input = &self.input;
        let graph = Arc::new(rec.time("graph.load", || input.load())?);
        // `Partitioner::partition` is this call with the trace dropped.
        let (partition, layers) = rec.time("core.bpart_k8", || {
            BPart::default().partition_with_trace(&graph, input.parts)
        });
        let quality = rec.time("core.quality", || quality::quality(&graph, &partition));
        rec.time("bench.verify", || {
            check_cover(checks, "bpart", &graph, &partition, input.parts)
        });
        self.edges = graph.num_edges() as f64;
        self.samples.push(
            "core.bpart.stream_s",
            layers.iter().map(|l| l.stream.secs).sum(),
        );
        Ok(Head {
            graph,
            partition: Arc::new(partition),
            quality,
            layers,
        })
    }

    /// Layer metrics every in-process workload has.
    fn head_metrics(&self, ledger: &Ledger<'_>, out: &mut Values) {
        for span in [
            "graph.load",
            "core.bpart_k8",
            "core.quality",
            "cluster.build",
        ] {
            out.set(&format!("{span}_s"), ledger.q1(span));
        }
        out.set(
            "graph.load_mb_per_s",
            ratio(self.input.file_mb(), ledger.q1("graph.load")),
        );
        out.set(
            "core.bpart_k8_medges_per_s",
            ratio(self.edges / 1e6, ledger.q1("core.bpart_k8")),
        );
        self.samples.report(out);
        let stream = out.get("core.bpart.stream_s").unwrap_or(0.0);
        out.set(
            "core.bpart.combine_s",
            (ledger.q1("core.bpart_k8") - stream).max(0.0),
        );
    }
}

impl Head {
    fn cluster(&self, rec: &mut Recorder) -> Cluster {
        rec.time("cluster.build", || {
            Cluster::new(self.graph.clone(), self.partition.clone())
        })
    }

    /// The end-to-end quality metrics and BPart's layer counts.
    fn exact(&self) -> Values {
        let restreamed: usize = self.layers.iter().map(|l| l.stream.vertices).sum();
        let mut exact = Values::default();
        exact.set("cut_ratio", self.quality.cut_ratio);
        exact.set("vertex_imbalance", 1.0 + self.quality.vertex_bias);
        exact.set("edge_imbalance", 1.0 + self.quality.edge_bias);
        exact.set("core.bpart.layers", self.layers.len() as f64);
        exact.set(
            "core.bpart.restream_ratio",
            restreamed as f64 / self.graph.num_vertices().max(1) as f64,
        );
        exact
    }
}

/// Every partition covers all vertices with part ids `< k`.
fn check_cover(checks: &mut Checks, what: &str, graph: &CsrGraph, p: &Partition, k: usize) {
    let ok = p.num_parts() == k
        && p.assignment().len() == graph.num_vertices()
        && p.assignment().iter().all(|&part| (part as usize) < k);
    checks.check(ok, || {
        format!("{what}: partition does not cover the graph with ids < {k}")
    });
}

/// Modelled time, messages and the time-weighted waiting ratio of a job's
/// application runs, as exact metrics.
fn telemetry_exact(runs: &[&Telemetry], exact: &mut Values) {
    let time: f64 = runs.iter().map(|t| t.total_time()).sum();
    let waiting: f64 = runs
        .iter()
        .map(|t| t.waiting_ratio() * t.total_time())
        .sum();
    exact.set("modelled_time_units", time);
    exact.set(
        "cluster.messages",
        runs.iter().map(|t| t.total_messages()).sum::<u64>() as f64,
    );
    exact.set("cluster.waiting_ratio", ratio(waiting, time));
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// pr-cc-tw
// ---------------------------------------------------------------------------

const PAGERANK_ITERS: usize = 5;

struct PrCc {
    base: InProcess,
    /// The last job's PageRank values and component labels, for the oracle.
    last: Option<(Vec<f64>, Vec<VertexId>)>,
    pagerank_messages: f64,
}

impl Runner for PrCc {
    fn job(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<JobResult, String> {
        let head = self.base.head(rec, checks)?;
        let cluster = head.cluster(rec);
        let engine = IterationEngine::new(cluster, CostModel::default(), ExecMode::Sequential);
        let pr = rec.time("engine.pagerank", || {
            engine.run(&PageRank::new(PAGERANK_ITERS))
        });
        let cc = rec.time("engine.cc", || engine.run(&ConnectedComponents));

        let digest = rec.time("bench.verify", || {
            let sum: f64 = pr.values.iter().sum();
            checks.check((sum - 1.0).abs() <= 1e-9, || {
                format!("PageRank values sum to {sum}, not 1")
            });
            digest_wire(&[digest_wire(&pr.values), digest_wire(&cc.values)])
        });

        let mut exact = head.exact();
        telemetry_exact(&[&pr.telemetry, &cc.telemetry], &mut exact);
        exact.set("engine.cc_supersteps", cc.iterations as f64);
        self.pagerank_messages = pr.telemetry.total_messages() as f64;
        self.last = Some((pr.values, cc.values));
        Ok(JobResult { digest, exact })
    }

    fn oracle(&mut self, checks: &mut Checks, _out: &mut Values) -> Result<(), String> {
        let (pr, cc) = self.last.take().ok_or("no job completed")?;
        let graph = self.base.input.load()?;
        let reference = reference_pagerank(&graph, PageRank::new(0).damping, PAGERANK_ITERS);
        let worst = pr
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        checks.check(pr.len() == reference.len() && worst <= 1e-12, || {
            format!("PageRank differs from the single-machine reference by {worst}")
        });
        let labels = traversal::connected_components(&graph);
        let count = |labels: &[VertexId]| {
            let mut distinct = labels.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        };
        checks.check(cc == labels, || {
            format!(
                "CC found {} components, graph traversal {}",
                count(&cc),
                count(&labels)
            )
        });
        Ok(())
    }

    /// One extra PageRank that checkpoints every 2 supersteps, read from
    /// the program's `cluster.checkpoint` spans.
    fn traced_extras(&mut self, _checks: &mut Checks, out: &mut Values) -> Result<(), String> {
        let graph = Arc::new(self.base.input.load()?);
        let partition = Arc::new(BPart::default().partition(&graph, self.base.input.parts));
        let engine = IterationEngine::new(
            Cluster::new(graph, partition),
            CostModel::default(),
            ExecMode::Sequential,
        )
        .with_checkpoint_every(2);
        bpart_obs::clear_trace();
        bpart_obs::set_trace_enabled(true);
        engine.run(&PageRank::new(PAGERANK_ITERS));
        bpart_obs::set_trace_enabled(false);
        let ns: u64 = bpart_obs::tracer::snapshot()
            .iter()
            .filter(|s| s.name == "cluster.checkpoint")
            .map(|s| s.dur_ns)
            .sum();
        bpart_obs::clear_trace();
        out.set("cluster.checkpoint_s", ns as f64 / 1e9);
        Ok(())
    }

    fn layer_metrics(&self, ledger: &Ledger<'_>, out: &mut Values) {
        self.base.head_metrics(ledger, out);
        let pagerank = ledger.q1("engine.pagerank");
        out.set("engine.pagerank_s", pagerank);
        out.set(
            "engine.pagerank_ns_per_edge",
            ratio(pagerank * 1e9, self.base.edges * PAGERANK_ITERS as f64),
        );
        out.set(
            "engine.pagerank_mmsgs_per_s",
            ratio(self.pagerank_messages / 1e6, pagerank),
        );
        out.set("engine.cc_s", ledger.q1("engine.cc"));
        out.set(
            "engine.self_s",
            ledger.self_q1_traced(&["engine.pagerank", "engine.cc"]),
        );
        out.set("cluster.exchange_s", ledger.q1_traced("cluster.exchange"));
        let samples = ledger.superstep_percentiles("cluster.superstep", out);
        out.set("cluster.superstep_samples", samples as f64);
    }
}

// ---------------------------------------------------------------------------
// walks-fr
// ---------------------------------------------------------------------------

/// DeepWalk at the paper's length; node2vec, which costs twice as much per
/// step, at half of it. Per-step metrics normalise.
const DEEPWALK_LEN: u32 = 80;
const NODE2VEC_LEN: u32 = 40;
/// Walkers started per vertex: what makes each walk phase last over 100 ms
/// on a graph small enough for the private L2 (see `WORKLOADS`).
const WALKERS_PER_VERTEX: u32 = 16;

fn node2vec() -> Node2vec {
    Node2vec::new(2.0, 0.5, NODE2VEC_LEN)
}

struct Walks {
    base: InProcess,
    /// `(steps, message walks)` of the last job's DeepWalk and node2vec.
    last: Option<[(u64, u64); 2]>,
}

const WALK_APPS: [&str; 2] = ["deepwalk", "node2vec"];

impl Walks {
    /// Re-runs `app` with path recording and checks every hop is an edge of
    /// the graph and the counts equal the timed run's.
    fn check_paths(
        &self,
        engine: &WalkEngine,
        graph: &CsrGraph,
        app: &dyn WalkApp,
        name: &str,
        timed: (u64, u64),
        checks: &mut Checks,
    ) {
        let run = engine.run(
            app,
            &WalkStarts::PerVertex(WALKERS_PER_VERTEX),
            self.base.input.seed,
        );
        let paths = run.paths.unwrap_or_default();
        let hops: u64 = paths.iter().map(|p| p.len().saturating_sub(1) as u64).sum();
        let broken = paths
            .iter()
            .flat_map(|p| p.windows(2))
            .filter(|hop| !graph.is_out_neighbor(hop[0], hop[1]))
            .count();
        checks.check(
            paths.len() == graph.num_vertices() * WALKERS_PER_VERTEX as usize && broken == 0,
            || {
                format!(
                    "{name}: {broken} recorded hops are not edges, {} paths",
                    paths.len()
                )
            },
        );
        checks.check(
            (hops, run.message_walks) == timed && run.total_steps == hops,
            || {
                format!(
                    "{name}: recorded run made {hops} hops / {} message walks, timed run {timed:?}",
                    run.message_walks
                )
            },
        );
    }
}

fn walk_digest(runs: &[&WalkRun]) -> u64 {
    let words: Vec<u64> = runs
        .iter()
        .flat_map(|r| {
            [
                r.total_steps,
                r.message_walks,
                r.iterations as u64,
                r.telemetry.total_time().to_bits(),
                r.telemetry.total_messages(),
            ]
        })
        .collect();
    digest_wire(&words)
}

impl Runner for Walks {
    fn job(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<JobResult, String> {
        let head = self.base.head(rec, checks)?;
        let cluster = head.cluster(rec);
        let engine = WalkEngine::new(cluster, CostModel::default(), ExecMode::Sequential);
        let starts = WalkStarts::PerVertex(WALKERS_PER_VERTEX);
        let seed = self.base.input.seed;
        let dw = rec.time("walker.deepwalk", || {
            engine.run(&DeepWalk::new(DEEPWALK_LEN), &starts, seed)
        });
        let n2v = rec.time("walker.node2vec", || engine.run(&node2vec(), &starts, seed));

        let walkers = head.graph.num_vertices() as u64 * WALKERS_PER_VERTEX as u64;
        let digest = rec.time("bench.verify", || {
            for (run, len) in [(&dw, DEEPWALK_LEN), (&n2v, NODE2VEC_LEN)] {
                checks.check(
                    run.total_steps > 0 && run.total_steps <= walkers * len as u64,
                    || {
                        format!(
                            "{} steps from {walkers} walkers of length {len}",
                            run.total_steps
                        )
                    },
                );
            }
            walk_digest(&[&dw, &n2v])
        });

        let mut exact = head.exact();
        telemetry_exact(&[&dw.telemetry, &n2v.telemetry], &mut exact);
        exact.set("walker.steps", (dw.total_steps + n2v.total_steps) as f64);
        exact.set(
            "walker.message_walks",
            (dw.message_walks + n2v.message_walks) as f64,
        );
        exact.set("walker.supersteps", (dw.iterations + n2v.iterations) as f64);
        self.last = Some([
            (dw.total_steps, dw.message_walks),
            (n2v.total_steps, n2v.message_walks),
        ]);
        Ok(JobResult { digest, exact })
    }

    fn oracle(&mut self, checks: &mut Checks, _out: &mut Values) -> Result<(), String> {
        let [dw, n2v] = self.last.ok_or("no job completed")?;
        let graph = Arc::new(self.base.input.load()?);
        let partition = Arc::new(BPart::default().partition(&graph, self.base.input.parts));
        let engine = WalkEngine::new(
            Cluster::new(graph.clone(), partition),
            CostModel::default(),
            ExecMode::Sequential,
        )
        .with_recording();
        self.check_paths(
            &engine,
            &graph,
            &DeepWalk::new(DEEPWALK_LEN),
            "deepwalk",
            dw,
            checks,
        );
        self.check_paths(&engine, &graph, &node2vec(), "node2vec", n2v, checks);
        Ok(())
    }

    fn layer_metrics(&self, ledger: &Ledger<'_>, out: &mut Values) {
        self.base.head_metrics(ledger, out);
        for (app, (steps, _)) in WALK_APPS.iter().zip(self.last.unwrap_or_default()) {
            let secs = ledger.q1(&format!("walker.{app}"));
            out.set(&format!("walker.{app}_s"), secs);
            out.set(
                &format!("walker.{app}_ns_per_step"),
                ratio(secs * 1e9, steps as f64),
            );
        }
        ledger.superstep_percentiles("walker.superstep", out);
    }
}

// ---------------------------------------------------------------------------
// partition-lj
// ---------------------------------------------------------------------------

struct Partitioners {
    base: InProcess,
    /// The last job's out-of-core assignment, for the oracle.
    last_ooc: Option<Vec<u32>>,
}

impl Runner for Partitioners {
    fn job(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<JobResult, String> {
        let k = self.base.input.parts;
        let head = self.base.head(rec, checks)?;
        let g = &*head.graph;

        let bpart_k64 = rec.time("core.bpart_k64", || BPart::default().partition(g, 64));
        let fennel = rec.time("core.fennel_k8", || Fennel::default().partition(g, k));
        let p1_k16 = rec.time("core.p1_k16", || WeightedStream::default().partition(g, 16));
        let [chunk_v, chunk_e, hash] = rec.time("core.cheap_k8", || {
            [
                ChunkV.partition(g, k),
                ChunkE.partition(g, k),
                HashPartitioner::default().partition(g, k),
            ]
        });
        let ooc = rec
            .time("core.ooc_p1_k8", || {
                let shards = ShardSet::open(&self.base.input.shards)?;
                let c = BPartConfig::default().c;
                stream_assign_ooc(&shards, &OocConfig::new(k, OocScheme::BPartP1 { c }))
            })
            .map_err(|e| format!("out-of-core pass: {e}"))?;
        for (stage, metric) in [
            ("fetch", "core.ooc.fetch_busy_s"),
            ("map", "core.ooc.map_busy_s"),
            ("commit", "core.ooc.commit_busy_s"),
        ] {
            let busy = ooc.pipeline.stage(stage).map_or(0.0, |s| s.busy_secs);
            self.base.samples.push(metric, busy);
        }
        let stalls: u64 = ooc
            .pipeline
            .stages
            .iter()
            .map(|s| s.send_stalls + s.recv_stalls)
            .sum();
        self.base.samples.push("core.ooc.stalls", stalls as f64);
        let ooc = Partition::from_assignment(g, k, ooc.assignment);

        // (name in messages, partition, its k, scheme whose quality is reported)
        let checked = [
            ("bpart k=64", &bpart_k64, 64, Some("bpart_k64")),
            ("fennel", &fennel, k, Some("fennel")),
            ("bpart-p1 k=16", &p1_k16, 16, None),
            ("chunk-v", &chunk_v, k, Some("chunk-v")),
            ("chunk-e", &chunk_e, k, Some("chunk-e")),
            ("hash", &hash, k, Some("hash")),
            ("bpart-p1 out of core", &ooc, k, None),
        ];
        rec.time("bench.verify", || {
            for (what, p, parts, _) in checked {
                check_cover(checks, what, g, p, parts);
            }
        });
        let mut exact = head.exact();
        for (_, p, _, scheme) in checked {
            let q = rec.time("core.quality", || quality::quality(g, p));
            if let Some(scheme) = scheme {
                exact.set(&format!("core.{scheme}.cut_ratio"), q.cut_ratio);
                exact.set(&format!("core.{scheme}.vertex_bias"), q.vertex_bias);
                exact.set(&format!("core.{scheme}.edge_bias"), q.edge_bias);
            }
        }

        let digest = rec.time("bench.verify", || {
            let mut words = vec![digest_wire(head.partition.assignment())];
            words.extend(checked.iter().map(|c| digest_wire(c.1.assignment())));
            digest_wire(&words)
        });
        self.last_ooc = Some(ooc.assignment().to_vec());
        Ok(JobResult { digest, exact })
    }

    /// The out-of-core assignment equals resident phase 1's. Then one
    /// PageRank iteration on the BPart k=8 partition, so that
    /// `modelled_time_units` exists here too; it stays outside the job,
    /// which is the partitioners' alone.
    fn oracle(&mut self, checks: &mut Checks, out: &mut Values) -> Result<(), String> {
        let ooc = self.last_ooc.take().ok_or("no job completed")?;
        let graph = Arc::new(self.base.input.load()?);
        let resident = WeightedStream::default().partition(&graph, self.base.input.parts);
        let identical = resident.assignment() == ooc;
        checks.check(identical, || {
            "out-of-core bpart-p1 assignment differs from the resident one".to_string()
        });
        out.set("core.ooc.identical", f64::from(u8::from(identical)));

        let partition = Arc::new(BPart::default().partition(&graph, self.base.input.parts));
        let engine = IterationEngine::new(
            Cluster::new(graph, partition),
            CostModel::default(),
            ExecMode::Sequential,
        );
        let pr = engine.run(&PageRank::new(1));
        telemetry_exact(&[&pr.telemetry], out);
        Ok(())
    }

    /// The buffered 2-thread streaming mode: ROADMAP item 4's
    /// keep-or-delete evidence, gated on nothing.
    fn traced_extras(&mut self, checks: &mut Checks, out: &mut Values) -> Result<(), String> {
        let graph = self.base.input.load()?;
        let buffered = BPart::new(BPartConfig {
            parallel: ParallelConfig::with_threads(2),
            ..BPartConfig::default()
        });
        let start = Instant::now();
        let partition = buffered.partition(&graph, self.base.input.parts);
        out.set("core.buffered_t2_s", start.elapsed().as_secs_f64());
        check_cover(
            checks,
            "bpart buffered t2",
            &graph,
            &partition,
            self.base.input.parts,
        );
        out.set(
            "core.buffered_t2_cut_ratio",
            quality::edge_cut_ratio(&graph, &partition),
        );
        Ok(())
    }

    fn layer_metrics(&self, ledger: &Ledger<'_>, out: &mut Values) {
        self.base.head_metrics(ledger, out);
        for span in [
            "core.bpart_k64",
            "core.fennel_k8",
            "core.p1_k16",
            "core.cheap_k8",
            "core.ooc_p1_k8",
        ] {
            out.set(&format!("{span}_s"), ledger.q1(span));
        }
        out.set(
            "core.p1_ns_per_edge",
            ratio(ledger.q1("core.p1_k16") * 1e9, self.base.edges),
        );
    }
}

// ---------------------------------------------------------------------------
// dist-lj
// ---------------------------------------------------------------------------

const DIST_DEEPWALK_LEN: u32 = 20;
/// The two PageRank lengths whose difference separates fixed from
/// per-superstep cost.
const DIST_ITERS: (usize, usize) = (4, 24);

struct Dist {
    input: Input,
    /// Digests of the last job's three applications.
    last: Option<[u64; 3]>,
    link_retries: u64,
    respawns: u64,
}

impl Dist {
    /// The job's three applications, with the span each is timed under.
    fn apps(&self) -> [(&'static str, AppSpec); 3] {
        [
            (
                "dist.pr4",
                AppSpec::PageRank {
                    iters: DIST_ITERS.0,
                },
            ),
            (
                "dist.pr24",
                AppSpec::PageRank {
                    iters: DIST_ITERS.1,
                },
            ),
            (
                "dist.deepwalk",
                AppSpec::DeepWalk {
                    walk_len: DIST_DEEPWALK_LEN,
                    seed: self.input.seed,
                    per_vertex: 1,
                },
            ),
        ]
    }

    fn spec(&self, app: AppSpec) -> JobSpec {
        JobSpec {
            graph: GraphSource::File(self.input.graph.to_string_lossy().into_owned()),
            scheme: "bpart".to_string(),
            parts: self.input.parts as u32,
            app,
            checkpoint_every: None,
        }
    }

    /// The process backend with this binary as its own worker. Each worker
    /// leaves its peak resident set in `worker_rss` when it ends (see
    /// [`worker`]): `getrusage(RUSAGE_CHILDREN)` cannot say, because a
    /// child's `ru_maxrss` starts at its parent's size at the `exec`.
    fn process(&self) -> Result<ProcessConfig, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        Ok(ProcessConfig::new(
            self.input.parts,
            vec![
                exe.to_string_lossy().into_owned(),
                "worker".to_string(),
                "--rss-dir".to_string(),
                self.input.worker_rss.to_string_lossy().into_owned(),
            ],
        ))
    }

    /// The largest peak resident set any worker of this run reported, MiB.
    fn worker_peak_rss_mb(&self) -> f64 {
        let Ok(dir) = std::fs::read_dir(&self.input.worker_rss) else {
            return 0.0;
        };
        dir.filter_map(|entry| {
            std::fs::read_to_string(entry.ok()?.path())
                .ok()?
                .trim()
                .parse()
                .ok()
        })
        .fold(0.0, f64::max)
    }
}

impl Runner for Dist {
    fn job(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Result<JobResult, String> {
        let mut digests = [0; 3];
        let mut supersteps = 0;
        for (slot, (span, app)) in digests.iter_mut().zip(self.apps()) {
            let backend = Backend::Process(self.process()?);
            let spec = self.spec(app);
            let out = rec
                .time(span, || run_job(&spec, &backend))
                .map_err(|e| format!("{span}: {e}"))?;
            let r = &out.recovery;
            checks.check(r.link_retries == 0 && r.respawns == 0, || {
                format!(
                    "{span}: {} link retries, {} respawns",
                    r.link_retries, r.respawns
                )
            });
            self.link_retries += r.link_retries;
            self.respawns += r.respawns;
            supersteps += out.supersteps;
            *slot = out.digest;
        }
        self.last = Some(digests);
        Ok(JobResult {
            digest: digest_wire(&[digests[0], digests[1], digests[2], supersteps]),
            exact: Values::default(),
        })
    }

    /// The same three applications on the threads backend (2 threads) as
    /// digest oracle and ratio base; then the quality and modelled time of
    /// the partition the workers derived, from a sequential run here.
    fn oracle(&mut self, checks: &mut Checks, out: &mut Values) -> Result<(), String> {
        let digests = self.last.ok_or("no job completed")?;
        let threads = Backend::Threads(ThreadsConfig {
            mode: ExecMode::Threaded,
            ..ThreadsConfig::default()
        });
        let start = Instant::now();
        for (digest, (span, app)) in digests.iter().zip(self.apps()) {
            let oracle =
                run_job(&self.spec(app), &threads).map_err(|e| format!("{span} oracle: {e}"))?;
            checks.check(oracle.digest == *digest, || {
                format!(
                    "{span}: process digest {digest:#x}, threads oracle {:#x}",
                    oracle.digest
                )
            });
        }
        out.set("dist.threads_s", start.elapsed().as_secs_f64());

        let graph = Arc::new(self.input.load()?);
        let partition = Arc::new(BPart::default().partition(&graph, self.input.parts));
        check_cover(checks, "bpart", &graph, &partition, self.input.parts);
        let q = quality::quality(&graph, &partition);
        out.set("cut_ratio", q.cut_ratio);
        out.set("vertex_imbalance", 1.0 + q.vertex_bias);
        out.set("edge_imbalance", 1.0 + q.edge_bias);
        let cluster = || Cluster::new(graph.clone(), partition.clone());
        let engine = IterationEngine::new(cluster(), CostModel::default(), ExecMode::Sequential);
        let pr4 = engine.run(&PageRank::new(DIST_ITERS.0));
        let pr24 = engine.run(&PageRank::new(DIST_ITERS.1));
        let walk = WalkEngine::new(cluster(), CostModel::default(), ExecMode::Sequential).run(
            &DeepWalk::new(DIST_DEEPWALK_LEN),
            &WalkStarts::PerVertex(1),
            self.input.seed,
        );
        telemetry_exact(&[&pr4.telemetry, &pr24.telemetry, &walk.telemetry], out);
        Ok(())
    }

    /// PageRank 24 with a worker SIGKILLed at superstep 8 and checkpoints
    /// every 4: what recovery costs over the clean run (the 1.5 s heartbeat
    /// timeout included).
    fn traced_extras(&mut self, checks: &mut Checks, out: &mut Values) -> Result<(), String> {
        let mut process = self.process()?;
        process.faults = "crash@8:m1"
            .parse::<FaultPlan>()
            .map_err(|e| format!("fault plan: {e}"))?;
        let mut spec = self.spec(AppSpec::PageRank {
            iters: DIST_ITERS.1,
        });
        spec.checkpoint_every = Some(4);
        let start = Instant::now();
        let killed =
            run_job(&spec, &Backend::Process(process)).map_err(|e| format!("kill run: {e}"))?;
        out.set("dist.kill_recovery_s.raw", start.elapsed().as_secs_f64());
        let clean = self.last.map(|d| d[1]);
        checks.check(
            Some(killed.digest) == clean && killed.recovery.worker_deaths == 1,
            || {
                format!(
                    "kill run: digest {:#x} vs clean {clean:x?}, {} deaths",
                    killed.digest, killed.recovery.worker_deaths
                )
            },
        );
        Ok(())
    }

    fn layer_metrics(&self, ledger: &Ledger<'_>, out: &mut Values) {
        let [pr4, pr24, deepwalk] = ["dist.pr4", "dist.pr24", "dist.deepwalk"].map(|span| {
            let secs = ledger.q1(span);
            out.set(&format!("{span}_s"), secs);
            secs
        });
        let (fixed, per_step) = two_point_fit(DIST_ITERS.0 as f64, pr4, DIST_ITERS.1 as f64, pr24);
        out.set("dist.fixed_s", fixed);
        out.set("dist.per_step_ms", per_step * 1e3);
        let threads = out.get("dist.threads_s").unwrap_or(0.0);
        out.set("dist.overhead_ratio", ratio(pr4 + pr24 + deepwalk, threads));
        out.set("dist.worker_peak_rss_mb", self.worker_peak_rss_mb());
        out.set("dist.link_retries", self.link_retries as f64);
        out.set("dist.respawns", self.respawns as f64);
        if let Some(raw) = out.0.remove("dist.kill_recovery_s.raw") {
            out.set("dist.kill_recovery_s", (raw - pr24).max(0.0));
        }
    }

    fn workers_peak_rss_mb(&self) -> f64 {
        self.input.parts as f64 * self.worker_peak_rss_mb()
    }
}

/// One BSP worker of the process backend, as `dist-lj` starts it. When the
/// driver dismisses it, it leaves its own peak resident set (MiB) in a file
/// of `rss_dir` named after its id and pid.
pub fn worker(cfg: bpart_dist::WorkerConfig, rss_dir: &Path) -> Result<(), String> {
    let id = cfg.worker_id;
    run_worker(cfg).map_err(|e| format!("worker {id}: {e}"))?;
    std::fs::create_dir_all(rss_dir)
        .and_then(|()| {
            std::fs::write(
                rss_dir.join(format!("{id}-{}", std::process::id())),
                crate::sys::peak_rss_mb().to_string(),
            )
        })
        .map_err(|e| format!("worker {id}: {}: {e}", rss_dir.display()))
}

//! Criterion microbenchmarks for the hot-path kernels of DESIGN.md §12:
//! the branchless flat-array score loop, the placement kernel at two part
//! counts, cached alias-table sampling, the streamed binary graph load,
//! the vertex-program superstep kernel, the walk superstep kernel, and the
//! process backend's per-byte
//! work (DESIGN.md §13: one frame across the wire, a worker's slice of the
//! graph into and out of its `Placement` frame, the path-log merge).
//! Each group reports element (or byte) throughput so regressions show up as rate drops, not just time
//! blips.
//!
//!     cargo bench -p bpart-bench --bench hotpath

use bpart_cluster::bsp::Machine;
use bpart_cluster::Cluster;
use bpart_cluster::{exec::ExecMode, CostModel};
use bpart_core::bpart::WeightedStream;
use bpart_core::prelude::*;
use bpart_dist::frame;
use bpart_dist::proto::{Placement, RowSeg, WorkerMsg};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::{IterationEngine, MachineStep};
use bpart_graph::{generate, io, CsrGraph};
use bpart_walker::apps::{DeepWalk, Node2vec};
use bpart_walker::{CachedTransitions, PathTable, WalkApp, WalkEngine, WalkStarts, Walker};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The twitter_like preset at 5% — big enough that the score loop
/// dominates, small enough for tight bench iterations.
fn bench_graph() -> CsrGraph {
    generate::twitter_like().generate_scaled(0.05)
}

/// Flat-array phase-1 scoring: the sequential streaming pass whose inner
/// loop is the branchless per-partition reduction (one Fennel config, one
/// BPart phase-1 config). Throughput is edges/s — the unit the CI gate
/// watches.
fn bench_flat_scoring(c: &mut Criterion) {
    let graph = bench_graph();
    let mut group = c.benchmark_group("hotpath_flat_scoring");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    group.bench_function("fennel_seq_k8", |b| {
        b.iter(|| Fennel::default().partition(&graph, 8))
    });
    group.bench_function("bpart_p1_seq_k8", |b| {
        b.iter(|| WeightedStream::default().partition(&graph, 8))
    });
    group.finish();
}

/// The placement kernel's dependence on `k`: the resident phase-1 pass over
/// `lj_like` ×1.0 — `Pass::place` once per vertex — at 16 and at 128 parts.
/// The tally is `O(deg)` and `choose` `O(k)`, and the lightest part is
/// tracked rather than rescanned, so edges/s should fall by much less than
/// the 8× between the two part counts.
fn bench_place(c: &mut Criterion) {
    let graph = generate::lj_like().generate();
    let mut group = c.benchmark_group("hotpath_place");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    for k in [16, 128] {
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| WeightedStream::default().partition(&graph, k))
        });
    }
    group.finish();
}

/// Cached alias sampling: repeated weighted draws from the same
/// neighborhoods, which after the first visit hit the per-vertex (or
/// shared per-degree uniform) alias table instead of rebuilding it.
fn bench_alias_sampling(c: &mut Criterion) {
    let graph = generate::erdos_renyi(2_000, 60_000, 7);
    let vertices: Vec<_> = graph
        .vertices()
        .filter(|&v| graph.out_degree(v) > 0)
        .collect();
    const DRAWS: u64 = 100_000;
    let mut group = c.benchmark_group("hotpath_alias_sampling");
    group.throughput(Throughput::Elements(DRAWS));
    group.sample_size(10);
    for max_weight in [1u32, 16] {
        let label = if max_weight == 1 {
            "uniform"
        } else {
            "weighted"
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &max_weight,
            |b, &max_weight| {
                let cached = CachedTransitions::synthetic(&graph, max_weight);
                let mut walker = Walker::new(0, vertices[0], 42);
                b.iter(|| {
                    let mut acc = 0u64;
                    for i in 0..DRAWS {
                        let v = vertices[i as usize % vertices.len()];
                        if let Some(next) = cached.sample(&mut walker, &graph, v) {
                            acc = acc.wrapping_add(next as u64);
                        }
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

/// Binary graph decode, the one streamed decoder entered twice: over a
/// slice (length known: counts held against it, arrays reserved once) and
/// over the same bytes as a reader of unknown length (arrays grow with
/// what arrives). Throughput is bytes/s of the on-disk format.
fn bench_binfmt_load(c: &mut Criterion) {
    let graph = bench_graph();
    let mut bytes = Vec::new();
    io::write_binary(&graph, &mut bytes).unwrap();
    let mut group = c.benchmark_group("hotpath_binfmt_load");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.sample_size(10);
    group.bench_function("read_binary_bytes", |b| {
        b.iter(|| io::read_binary_bytes(black_box(&bytes)).unwrap())
    });
    group.bench_function("read_binary_owned", |b| {
        b.iter(|| io::read_binary(black_box(bytes.as_slice())).unwrap())
    });
    group.finish();
}

/// The vertex-program superstep kernel through the iteration engine: one
/// dense PageRank superstep (every vertex scatters along every out-edge)
/// and a full CC run (both edge directions, shrinking frontier) at k=8.
/// Throughput is the graph's edges per run, so the two rates are not
/// comparable with each other, only with themselves across commits.
/// `scatter_k8` is the scatter phase alone — every machine's signal and
/// combine into its send slots, then a rollback that vacates them — in
/// the shape of the benchmark's `pr-cc-tw` workload (`twitter_like` ×0.8
/// under BPart at k = 8): its inverse is the engine's ns per edge.
/// `deliver_k8` is the other half of that superstep: the same scatter,
/// untimed, then every machine folding the seven others' views of their
/// send slots into its inbox and applying it.
fn bench_engine_superstep(c: &mut Criterion) {
    let graph = Arc::new(bench_graph());
    let partition = Arc::new(WeightedStream::default().partition(&graph, 8));
    let engine = IterationEngine::default_for(graph.clone(), partition);
    let mut group = c.benchmark_group("hotpath_engine_superstep");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    group.bench_function("pagerank_1iter_k8", |b| {
        b.iter(|| engine.run(&PageRank::new(1)))
    });
    group.bench_function("cc_k8", |b| b.iter(|| engine.run(&ConnectedComponents)));

    let graph = Arc::new(generate::twitter_like().generate_scaled(0.8));
    let partition = Arc::new(BPart::default().partition(&graph, 8));
    let cluster = Cluster::new(graph.clone(), partition);
    let pagerank = PageRank::new(1);
    let mut steps = MachineStep::for_cluster(&pagerank, &cluster);
    let initial: Vec<_> = steps.iter().map(Machine::snapshot).collect();
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("scatter_k8", |b| {
        b.iter(|| {
            for (step, snapshot) in steps.iter_mut().zip(&initial) {
                black_box(step.scatter(&pagerank));
                step.restore(snapshot);
            }
        })
    });
    group.bench_function("deliver_k8", |b| {
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                for (step, snapshot) in steps.iter_mut().zip(&initial) {
                    step.restore(snapshot);
                    step.scatter(&pagerank);
                }
                let start = Instant::now();
                for to in 0..steps.len() {
                    let (before, rest) = steps.split_at_mut(to);
                    let (receiver, after) = rest.split_first_mut().expect("to < k");
                    for sender in before.iter_mut().chain(after) {
                        receiver.fold(&pagerank, sender.outgoing(to as u32));
                    }
                    black_box(receiver.apply(&pagerank, 0, 0.0));
                }
                timed += start.elapsed();
            }
            timed
        })
    });
    group.finish();
}

/// The walk superstep kernel through the thread engine, in the shape of the
/// benchmark's `walks-fr` workload: `friendster_like` ×0.03 under BPart at
/// k = 8, 16 walkers per vertex, no recording, sequential — DeepWalk (alias
/// sampling) at the paper's 80 steps and node2vec (rejection sampling) at
/// 40. Throughput is walker steps, so its inverse is the ns/step that
/// the benchmark reports as `walker.deepwalk_ns_per_step` at full scale.
fn bench_walk_step(c: &mut Criterion) {
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.03));
    let partition = Arc::new(BPart::default().partition(&graph, 8));
    let cluster = Cluster::new(graph, partition);
    let engine = WalkEngine::new(cluster, CostModel::default(), ExecMode::Sequential);
    let starts = WalkStarts::PerVertex(16);
    let apps: [(&str, &dyn WalkApp); 2] = [
        ("deepwalk_k8", &DeepWalk::new(80)),
        ("node2vec_k8", &Node2vec::new(2.0, 0.5, 40)),
    ];
    let mut group = c.benchmark_group("walk_step");
    group.sample_size(10);
    for (name, app) in apps {
        group.throughput(Throughput::Elements(
            engine.run(app, &starts, 7).total_steps,
        ));
        group.bench_function(name, |b| b.iter(|| engine.run(app, &starts, 7).total_steps));
    }
    group.finish();
}

/// What the process backend does per byte. `step_data_1mib`: one 1 MiB
/// `StepData` through a hop — encoded behind its header and checksummed,
/// read back off a byte stream into a frame, checksummed again, decoded
/// into borrowed row segments. `slice_lj_half`: what booting one of two
/// workers on `lj_like` ×1.0 costs in bytes moved — its `Placement`
/// encoded from the driver's graph (assignment, tallies, out-lists of its
/// half) and checksummed, then read off the stream as the worker reads it:
/// summed again chunk by chunk while its arrays fill, and checked into the
/// slice graph the worker runs on.
/// `path_table_1m`: the walk gather's placement
/// of 1 M `(walker, step, vertex)` triples — 50 000 walkers × 20 steps,
/// superstep-major with the walkers in a scrambled order, as machine logs
/// hold them — into one table of per-walker paths.
fn bench_dist_frame(c: &mut Criterion) {
    const MIB: usize = 1 << 20;
    let mut group = c.benchmark_group("hotpath_dist_frame");

    let row: Vec<u8> = (0..MIB / 2).map(|i| (i * 31) as u8).collect();
    let seg = RowSeg {
        count: (row.len() / 12) as u32,
        data: Cow::Borrowed(&row[..]),
    };
    group.throughput(Throughput::Bytes(MIB as u64));
    group.bench_function("step_data_1mib", |b| {
        b.iter(|| {
            let sent = WorkerMsg::StepData {
                epoch: 0,
                superstep: 1,
                rows: vec![seg.clone(), seg.clone()],
                paths: &[],
            };
            let bytes = sent.to_frame().expect("1 MiB fits a frame");
            let frame = frame::read_frame(&mut &bytes[..]).expect("intact frame");
            let WorkerMsg::StepData { rows, .. } = WorkerMsg::from_frame(&frame).expect("decodes")
            else {
                unreachable!("sent StepData");
            };
            black_box(rows[1].data.len())
        })
    });

    let graph = Arc::new(generate::lj_like().generate());
    let halves = Arc::new(ChunkV.partition(&graph, 2));
    let cluster = Cluster::new(graph, halves);
    let placement = Placement::of(&cluster, 0, false);
    let sent = || {
        let mut bytes = Vec::new();
        placement.write_to(&mut bytes).expect("half a graph fits");
        bytes
    };
    let wire_len = sent().len();
    group.throughput(Throughput::Bytes(wire_len as u64));
    group.sample_size(10);
    group.bench_function("slice_lj_half", |b| {
        b.iter(|| {
            let bytes = sent();
            let got = Placement::read_from(&bytes[..]).expect("intact placement");
            black_box(got.slice.graph.num_edges())
        })
    });

    const WALKERS: u64 = 50_000;
    const STEPS: u32 = 20;
    let log: Vec<(u64, u32, u32)> = (0..STEPS)
        .flat_map(|step| {
            // 7919 is coprime to 50 000: a fixed scramble of the walkers.
            (0..WALKERS).map(move |i| {
                let id = i * 7919 % WALKERS;
                (id, step, (id as u32).wrapping_mul(step + 1))
            })
        })
        .collect();
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(20);
    group.bench_function("path_table_1m", |b| {
        b.iter(|| {
            let mut table = PathTable::new(WALKERS as usize, STEPS - 1);
            for &(id, step, v) in &log {
                table.place(id, step, v).expect("a whole log");
            }
            table.seal().expect("a whole log");
            table
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_scoring,
    bench_place,
    bench_alias_sampling,
    bench_binfmt_load,
    bench_engine_superstep,
    bench_walk_step,
    bench_dist_frame
);
criterion_main!(benches);

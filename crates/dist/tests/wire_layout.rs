//! The process backend's wire, pinned byte for byte: the length and the
//! FNV-1a 64 digest of the frame of every message kind and variant, of the
//! streamed `Placement` and `Final`, and the bytes of the workers'
//! snapshots. A codec change that moves a byte fails here and names the
//! fixture; a deliberate format change re-pins the table and says why.

use bpart_cluster::Cluster;
use bpart_core::{ChunkV, Partition, Partitioner};
use bpart_dist::frame::{self, HEADER_LEN};
use bpart_dist::proto::{write_final, DriverMsg, Placement, RowSeg, WorkerMsg};
use bpart_dist::step::{IterWorker, WalkWorker, Worker};
use bpart_dist::{digest_bytes, AppSpec, ClusterError, GraphSource, JobSpec};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_graph::{generate, CsrGraph};
use bpart_obs::snapshot::{HistogramValue, Snapshot, Span};
use bpart_walker::apps::DeepWalk;
use std::borrow::Cow;
use std::sync::Arc;

/// A job under every graph source and every app, with and without a
/// checkpoint interval.
fn jobs() -> Vec<(String, DriverMsg<'static>)> {
    let preset = |seed| GraphSource::Preset {
        name: "lj_like".into(),
        scale: 0.25,
        seed,
    };
    let graphs = [
        ("file", GraphSource::File("g.bpgr".into())),
        ("preset", preset(Some(7))),
        ("preset-unseeded", preset(None)),
        (
            "er",
            GraphSource::ErdosRenyi {
                n: 100,
                m: 500,
                seed: 3,
            },
        ),
    ];
    let apps = [
        ("pagerank", AppSpec::PageRank { iters: 10 }),
        ("cc", AppSpec::ConnectedComponents),
        (
            "deepwalk",
            AppSpec::DeepWalk {
                walk_len: 5,
                seed: 11,
                per_vertex: 2,
            },
        ),
    ];
    let mut jobs = Vec::new();
    for (g, graph) in &graphs {
        for (a, app) in &apps {
            for every in [Some(2), None] {
                let spec = JobSpec {
                    graph: graph.clone(),
                    scheme: "bpart".into(),
                    parts: 4,
                    app: app.clone(),
                    checkpoint_every: every,
                };
                let name = format!("job/{g}/{a}/{}", every.map_or("-", |_| "every"));
                jobs.push((name, DriverMsg::Job { spec, machine: 1 }));
            }
        }
    }
    jobs
}

fn driver_msgs() -> Vec<(&'static str, DriverMsg<'static>)> {
    vec![
        (
            "step_begin/on",
            DriverMsg::StepBegin {
                epoch: 1,
                superstep: 42,
                agg: 0.125,
                checkpoint: true,
                sent_ns: 123_456_789,
                obs: true,
            },
        ),
        (
            "step_begin/off",
            DriverMsg::StepBegin {
                epoch: 0,
                superstep: 0,
                agg: -0.0,
                checkpoint: false,
                sent_ns: 0,
                obs: false,
            },
        ),
        (
            "inbox",
            DriverMsg::Inbox {
                epoch: 0,
                superstep: 7,
                rows: vec![
                    RowSeg::default(),
                    RowSeg {
                        count: 2,
                        data: Cow::Borrowed(&[1, 2, 3, 4, 5, 6, 7, 8]),
                    },
                ],
            },
        ),
        (
            "restore/state",
            DriverMsg::Restore {
                epoch: 2,
                superstep: 4,
                state: Some(&[9, 9, 9]),
            },
        ),
        (
            "restore/initial",
            DriverMsg::Restore {
                epoch: 3,
                superstep: 0,
                state: None,
            },
        ),
        ("finish", DriverMsg::Finish { epoch: 2 }),
        ("shutdown", DriverMsg::Shutdown),
    ]
}

/// A snapshot with every list of its encoding filled: counters, gauges,
/// a histogram, a root span and a child with attributes, a profile.
fn snapshot() -> Snapshot {
    let mut snapshot = Snapshot::default();
    let metrics = &mut snapshot.metrics;
    metrics.counters.insert("dist.frames".into(), 7);
    metrics.gauges.insert("part.edges".into(), 1.5);
    metrics.histograms.insert(
        "dist.frame_bytes".into(),
        HistogramValue {
            bounds: vec![64.0, 4096.0],
            buckets: vec![4, 1, 0],
            count: 5,
            sum: 700.0,
        },
    );
    let span = |id, parent, attrs: Vec<(String, String)>| Span {
        id,
        parent,
        name: "worker.superstep".into(),
        thread: 3,
        start_ns: 1000 * id,
        dur_ns: 10,
        attrs,
    };
    snapshot.spans = vec![
        span(4, None, vec![("superstep".into(), "6".into())]),
        span(5, Some(4), vec![]),
    ];
    snapshot.profile = vec![("dist.superstep;dist.compute".into(), 7)];
    snapshot
}

/// Path triples `(walker, step, vertex)` as a walk worker sends them.
const TRIPLES: [u8; 32] = [
    7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, //
    9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0,
];

fn worker_msgs() -> Vec<(&'static str, WorkerMsg<'static>)> {
    vec![
        (
            "join",
            WorkerMsg::Join {
                worker_id: 3,
                key: 0xdead_beef,
            },
        ),
        (
            "ready",
            WorkerMsg::Ready {
                epoch: 0,
                agg: -1.5,
            },
        ),
        (
            "step_data/rows",
            WorkerMsg::StepData {
                epoch: 1,
                superstep: 9,
                rows: vec![
                    RowSeg {
                        count: 1,
                        data: Cow::Owned(vec![0xff; 12]),
                    },
                    RowSeg::default(),
                ],
                paths: &[],
            },
        ),
        (
            "step_data/paths",
            WorkerMsg::StepData {
                epoch: 1,
                superstep: 9,
                rows: vec![RowSeg::default(); 2],
                paths: &TRIPLES,
            },
        ),
        (
            "step_done/snapshot",
            WorkerMsg::StepDone {
                epoch: 1,
                superstep: 9,
                active: 1,
                agg: 0.25,
                compute_ns: 42_000_000,
                comm_ns: 9_000_000,
                snapshot: Some(&[1, 2, 3]),
            },
        ),
        (
            "step_done/bare",
            WorkerMsg::StepDone {
                epoch: 1,
                superstep: 10,
                active: 0,
                agg: 0.0,
                compute_ns: 0,
                comm_ns: 0,
                snapshot: None,
            },
        ),
        (
            "final",
            WorkerMsg::Final {
                epoch: 1,
                result: &[4, 5],
            },
        ),
        ("heartbeat", WorkerMsg::Heartbeat { epoch: 2 }),
        (
            "obs_report",
            WorkerMsg::ObsReport {
                epoch: 1,
                seq: 12,
                echo_ns: 111,
                recv_ns: 222,
                send_ns: 333,
                snapshot: snapshot(),
            },
        ),
    ]
}

/// Five vertices on three machines (machine 2 owns nothing), with a
/// self-loop, a duplicate edge and an isolated vertex.
fn five_vertices() -> Cluster {
    let graph = CsrGraph::from_edges(5, &[(0, 1), (1, 1), (1, 3), (1, 3), (3, 0), (4, 1)]);
    let partition = Partition::from_assignment(&graph, 3, vec![0, 1, 0, 1, 0]);
    Cluster::new(Arc::new(graph), Arc::new(partition))
}

fn placement(cluster: &Cluster, machine: u32, in_lists: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    Placement::of(cluster, machine, in_lists)
        .write_to(&mut bytes)
        .unwrap();
    bytes
}

/// Two workers over `erdos_renyi(40, 160, 7)` under Chunk-V, run in
/// lock-step for three supersteps, as a driver would.
fn stepped<W: Worker>(make: impl Fn(Cluster, usize) -> W) -> Vec<W> {
    let graph = Arc::new(generate::erdos_renyi(40, 160, 7));
    let cluster = Cluster::new(graph.clone(), Arc::new(ChunkV.partition(&graph, 2)));
    let mut workers: Vec<W> = (0..2).map(|m| make(cluster.clone(), m)).collect();
    for superstep in 0..3 {
        let agg = workers.iter().map(|w| w.ready_agg()).sum();
        let rows: Vec<_> = workers.iter_mut().map(|w| w.begin().0).collect();
        for (to, w) in workers.iter_mut().enumerate() {
            let inbox: Vec<_> = rows.iter().map(|r| r[to].clone()).collect();
            w.finish(&inbox, superstep, agg).unwrap();
        }
    }
    workers
}

/// Every pinned byte string, by name.
fn fixtures() -> Vec<(String, Vec<u8>)> {
    let mut all = Vec::new();
    for (name, msg) in jobs() {
        all.push((name, msg.to_frame().unwrap()));
    }
    for (name, msg) in driver_msgs() {
        all.push((name.into(), msg.to_frame().unwrap()));
    }
    for (name, msg) in worker_msgs() {
        all.push((name.into(), msg.to_frame().unwrap()));
    }
    let result: Vec<u8> = (0..=40).collect();
    let mut streamed = Vec::new();
    write_final(&mut streamed, 7, |out| {
        result.chunks(7).for_each(|piece| out.bytes(piece))
    })
    .unwrap();
    all.push(("final/streamed".into(), streamed));
    let cluster = five_vertices();
    all.push(("placement/in-lists".into(), placement(&cluster, 1, true)));
    all.push(("placement/out-only".into(), placement(&cluster, 1, false)));
    all.push(("placement/empty".into(), placement(&cluster, 2, false)));
    let pagerank = stepped(|c, m| IterWorker::new(PageRank::new(5), c, m));
    let cc = stepped(|c, m| IterWorker::new(ConnectedComponents, c, m));
    let walks = stepped(|c, m| WalkWorker::new(Box::new(DeepWalk::new(6)), c, m, 11, 2));
    for m in 0..2 {
        all.push((format!("snapshot/pagerank/m{m}"), pagerank[m].snapshot()));
        all.push((format!("snapshot/cc/m{m}"), cc[m].snapshot()));
        all.push((format!("snapshot/deepwalk/m{m}"), walks[m].snapshot()));
    }
    all
}

/// `(fixture, bytes, FNV-1a 64 of the bytes)`.
const PINS: &[(&str, usize, u64)] = &[
    ("job/file/pagerank/every", 59, 0x64e9173fbff5cb9b),
    ("job/file/pagerank/-", 55, 0x86cbc579e3a9cc9d),
    ("job/file/cc/every", 51, 0xfe3319b3aef5ad62),
    ("job/file/cc/-", 47, 0x691e83dbd953f64a),
    ("job/file/deepwalk/every", 67, 0xae660453e628ebfd),
    ("job/file/deepwalk/-", 63, 0x997ff10ab3a59875),
    ("job/preset/pagerank/every", 77, 0xf4f62be280d8fdfd),
    ("job/preset/pagerank/-", 73, 0x2234a9f2b1970ff5),
    ("job/preset/cc/every", 69, 0xac3397dda4493d5c),
    ("job/preset/cc/-", 65, 0x42902a0e1a3fea08),
    ("job/preset/deepwalk/every", 85, 0x922af0e062186624),
    ("job/preset/deepwalk/-", 81, 0x5d6fe66c7f9523d9),
    ("job/preset-unseeded/pagerank/every", 69, 0xb881d4d3258f7ae9),
    ("job/preset-unseeded/pagerank/-", 65, 0xa9f42640375e52b7),
    ("job/preset-unseeded/cc/every", 61, 0x3c7371e702569af1),
    ("job/preset-unseeded/cc/-", 57, 0x10bef51d41ec1a81),
    ("job/preset-unseeded/deepwalk/every", 77, 0x4ba14ec51e9230ac),
    ("job/preset-unseeded/deepwalk/-", 73, 0xbee85618fe351d25),
    ("job/er/pagerank/every", 65, 0x1c4c733f651cb9f4),
    ("job/er/pagerank/-", 61, 0xf2ce99055e3ec370),
    ("job/er/cc/every", 57, 0x3563bcf1bf8d3e1c),
    ("job/er/cc/-", 53, 0x6ff381e7270f4361),
    ("job/er/deepwalk/every", 73, 0x8d2f698c0f7d239d),
    ("job/er/deepwalk/-", 69, 0x9edfb4430e40dcd1),
    ("step_begin/on", 43, 0xfbffd4866576fba6),
    ("step_begin/off", 43, 0x0e3f8c9247ed660d),
    ("inbox", 53, 0xa8af995fa3f342fa),
    ("restore/state", 33, 0x15ba635810f39c07),
    ("restore/initial", 26, 0x0f3f026074cd3e12),
    ("finish", 17, 0x7f0de79a0018bbe7),
    ("shutdown", 13, 0xb9ac877601784630),
    ("join", 25, 0xf4781478d88a6a5a),
    ("ready", 25, 0x21dd6477b712d48b),
    ("step_data/rows", 61, 0x78cef4fecaaa9d7c),
    ("step_data/paths", 81, 0x62bbbe2f07907f1a),
    ("step_done/snapshot", 65, 0xda34d1ffbbfe256f),
    ("step_done/bare", 58, 0x28c2da1bf45929af),
    ("final", 23, 0x3f46157e6b4c6896),
    ("heartbeat", 17, 0x2dd1499c0eaea1d4),
    ("obs_report", 385, 0xfd5533868a2eb887),
    ("final/streamed", 62, 0x3b0f774b60374ba8),
    ("placement/in-lists", 170, 0x1f8aa821413b9078),
    ("placement/out-only", 134, 0x33c6cedecff3ce38),
    ("placement/empty", 102, 0x1c67a01b45ff1f8b),
    ("snapshot/pagerank/m0", 184, 0x830d16dc57400a98),
    ("snapshot/cc/m0", 104, 0xa77f044a997e2329),
    ("snapshot/deepwalk/m0", 1364, 0xbbeb73e9794f8167),
    ("snapshot/pagerank/m1", 184, 0xbf5c9c567daeb9c7),
    ("snapshot/cc/m1", 104, 0x9ebe80f710cc4b21),
    ("snapshot/deepwalk/m1", 1236, 0x79f77286715fc410),
];

#[test]
fn every_wire_layout_is_pinned() {
    let got: Vec<(String, usize, u64)> = fixtures()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), digest_bytes(&bytes)))
        .collect();
    let want: Vec<(String, usize, u64)> = PINS
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(name, len, digest)| format!("    ({name:?}, {len}, {digest:#018x}),\n"))
            .collect();
        let moved: Vec<_> = got
            .iter()
            .filter(|g| !want.contains(g))
            .map(|g| &g.0)
            .collect();
        panic!("wire layouts moved: {moved:?}\nthe table as it now is:\n{table}");
    }
}

type Decode = fn(&[u8]) -> Result<(), ClusterError>;

fn driver(bytes: &[u8]) -> Result<(), ClusterError> {
    DriverMsg::from_frame(&frame::decode(bytes)?.0).map(drop)
}

fn worker(bytes: &[u8]) -> Result<(), ClusterError> {
    WorkerMsg::from_frame(&frame::decode(bytes)?.0).map(drop)
}

fn placed(bytes: &[u8]) -> Result<(), ClusterError> {
    Placement::read_from(bytes).map(drop)
}

/// Each flag on the wire, as the frames of one message with the flag set
/// and with it clear, all else equal: the first payload byte in which the
/// two differ is the flag — past a job spec's own length, which differs
/// first.
fn flags() -> Vec<(&'static str, Vec<u8>, Vec<u8>, Decode)> {
    let step_begin = |checkpoint, obs| DriverMsg::StepBegin {
        epoch: 1,
        superstep: 42,
        agg: 0.125,
        checkpoint,
        sent_ns: 7,
        obs,
    };
    let restore = |state| DriverMsg::Restore {
        epoch: 2,
        superstep: 4,
        state,
    };
    let job = |seed, checkpoint_every| DriverMsg::Job {
        spec: JobSpec {
            graph: GraphSource::Preset {
                name: "lj_like".into(),
                scale: 0.25,
                seed,
            },
            scheme: "bpart".into(),
            parts: 4,
            app: AppSpec::ConnectedComponents,
            checkpoint_every,
        },
        machine: 1,
    };
    let step_done = |snapshot| WorkerMsg::StepDone {
        epoch: 1,
        superstep: 9,
        active: 1,
        agg: 0.25,
        compute_ns: 4,
        comm_ns: 9,
        snapshot,
    };
    let report = |parent| WorkerMsg::ObsReport {
        epoch: 1,
        seq: 12,
        echo_ns: 1,
        recv_ns: 2,
        send_ns: 3,
        snapshot: Snapshot {
            spans: vec![Span {
                id: 5,
                parent,
                name: "s".into(),
                thread: 3,
                start_ns: 1,
                dur_ns: 1,
                attrs: vec![],
            }],
            ..snapshot()
        },
    };
    let driver_pair = |set: DriverMsg<'_>, clear: DriverMsg<'_>| {
        (set.to_frame().unwrap(), clear.to_frame().unwrap())
    };
    let worker_pair = |set: WorkerMsg<'_>, clear: WorkerMsg<'_>| {
        (set.to_frame().unwrap(), clear.to_frame().unwrap())
    };
    let cluster = five_vertices();
    let rows = [
        (
            "StepBegin.checkpoint",
            driver_pair(step_begin(true, false), step_begin(false, false)),
            driver as Decode,
        ),
        (
            "StepBegin.obs",
            driver_pair(step_begin(false, true), step_begin(false, false)),
            driver,
        ),
        (
            "Restore.state",
            driver_pair(restore(Some(&[9, 9, 9])), restore(None)),
            driver,
        ),
        (
            "Job: a preset's seed",
            driver_pair(job(Some(7), None), job(None, None)),
            driver,
        ),
        (
            "Job: checkpoint_every",
            driver_pair(job(None, Some(2)), job(None, None)),
            driver,
        ),
        (
            "StepDone.snapshot",
            worker_pair(step_done(Some(&[1, 2, 3])), step_done(None)),
            worker,
        ),
        (
            "Span.parent",
            worker_pair(report(Some(4)), report(None)),
            worker,
        ),
        (
            "Slice in-lists",
            (placement(&cluster, 1, true), placement(&cluster, 1, false)),
            placed,
        ),
    ];
    rows.into_iter()
        .map(|(name, (set, clear), decode)| (name, set, clear, decode))
        .collect()
}

/// A flag byte is `0` or `1` on every path that reads one; `2` is a corrupt
/// frame, not a `true` — in every message, in a streamed placement, and in
/// a worker's snapshot (connected components' `active` flags).
#[test]
fn every_flag_byte_but_zero_or_one_is_corrupt() {
    for (name, set, clear, decode) in flags() {
        let from = HEADER_LEN + if name.starts_with("Job") { 8 } else { 0 };
        let at = (from..set.len())
            .find(|&i| set.get(i) != clear.get(i))
            .unwrap();
        assert_eq!(set[at], 1, "{name}");
        decode(&set).unwrap();
        let mut payload = set[HEADER_LEN..].to_vec();
        payload[at - HEADER_LEN] = 2;
        let bent = frame::encode(set[8], &payload).unwrap();
        match decode(&bent) {
            Err(ClusterError::FrameCorrupt { .. }) => {}
            other => panic!("{name} with flag byte 2: {other:?}"),
        }
    }

    let cc = stepped(|c, m| IterWorker::new(ConnectedComponents, c, m));
    let mut fresh = stepped(|c, m| IterWorker::new(ConnectedComponents, c, m));
    let mut snapshot = cc[0].snapshot();
    let values = u32::from_le_bytes(snapshot[..4].try_into().unwrap()) as usize;
    // The first `active` flag follows the count and the values.
    let at = 4 + 4 * values;
    assert!(snapshot[at] <= 1);
    fresh[0].restore(Some(&snapshot)).unwrap();
    snapshot[at] = 2;
    let err = fresh[0].restore(Some(&snapshot)).unwrap_err();
    assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{err}");
}

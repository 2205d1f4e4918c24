//! Golden fixture for every external observability format: one driver and
//! two worker reports — one worker stale, one with a histogram, a clock
//! offset, nested spans and a profile — and the exact bytes of every
//! endpoint and of each source's span lines, in `fixtures/golden_views.txt`.
//!
//! The fixture was pinned before `Snapshot` existed, through the encoders
//! it replaced (the registry's and the federation store's, spliced
//! together by the server), and has two edits since: the worker lines that
//! `/spans` gained when every view came to cover every source, and the
//! `/healthz` body that counts deaths where the alert rules' section was.
//!
//! The driver is this process (its registry and profiler are global), so
//! the test has a binary of its own.

use bpart_obs::export::{self, Source};
use bpart_obs::federation;
use bpart_obs::snapshot::{HistogramValue, Snapshot, Span};
use bpart_obs::{metrics, profile, serve};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: golden\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("separator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

fn span(id: u64, parent: Option<u64>, name: &str, at: (u64, u64), attrs: &[(&str, &str)]) -> Span {
    Span {
        id,
        parent,
        name: name.into(),
        thread: 0,
        start_ns: at.0,
        dur_ns: at.1,
        attrs: attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
    }
}

#[test]
fn every_view_of_one_driver_and_two_workers_is_pinned() {
    // ---- the driver: this process's registry and profiler ----------------
    metrics::counter("cluster.supersteps").add(41);
    metrics::gauge("dist.progress_superstep").set(40.0);
    metrics::gauge("golden.poisoned").set(f64::NAN);
    let rtt = metrics::histogram("dist.rpc_rtt_ns", &[1_000.0, 1_000_000.0]);
    for v in [500.0, 600.0, 2_000.0] {
        rtt.observe(v);
    }
    bpart_obs::set_trace_enabled(true);
    profile::set_profile_enabled(true);
    {
        let _outer = bpart_obs::span("drv.outer");
        {
            let _inner = bpart_obs::span("drv.inner");
            for _ in 0..3 {
                profile::sample_once();
            }
        }
        profile::sample_once();
    }
    profile::set_profile_enabled(false);
    bpart_obs::set_trace_enabled(false);
    bpart_obs::clear_trace();

    // ---- two worker reports ----------------------------------------------
    {
        let mut store = federation::global();
        store.cluster_size = 2;

        // Worker 0: one report, then it dies.
        let mut w0 = Snapshot::default();
        w0.metrics.counters.insert("dist.frames".into(), 7);
        w0.metrics.gauges.insert("part.edges".into(), 120.0);
        store.absorb(0, 0, 3, w0);
        store.finished(0, 0);
        store.mark_dead(0);

        // Worker 1: a histogram, a clock offset, nested spans, a profile.
        let mut w1 = Snapshot::default();
        w1.metrics.counters.insert("dist.frames".into(), 9);
        w1.metrics.gauges.insert("part.edges".into(), 130.5);
        let frame_bytes = HistogramValue {
            bounds: vec![64.0, 4096.0],
            buckets: vec![4, 1, 0],
            count: 5,
            sum: 700.0,
        };
        w1.metrics
            .histograms
            .insert("dist.frame_bytes".into(), frame_bytes);
        w1.spans = vec![
            span(
                1,
                None,
                "worker.superstep",
                (10_000, 4_000),
                &[("superstep", "7"), ("epoch", "1")],
            ),
            span(
                2,
                Some(1),
                "worker.compute",
                (10_500, 3_000),
                &[("note", "a\"b")],
            ),
        ];
        w1.profile = vec![
            ("worker.superstep;compute".into(), 4),
            ("worker.superstep".into(), 1),
        ];
        store.absorb(1, 1, 2, w1);
        store.record_clock_sample(1, 5_000, 600);
    }

    // ---- the views, as served ------------------------------------------------
    let server = serve::start("127.0.0.1:0").expect("bind");
    let mut doc = String::new();
    for path in ["/metrics", "/progress", "/profile", "/healthz", "/spans"] {
        doc.push_str(&format!("=== {path} ===\n{}", get(server.addr(), path)));
        if !doc.ends_with('\n') {
            doc.push('\n');
        }
    }
    server.shutdown();

    // ---- each source's span lines ------------------------------------------
    // The driver's own spans carry real clock readings, so the server's
    // `/spans` above ran over an empty ring; here they are hand-built. The
    // worker's root nests under the driver's span of its superstep.
    let step_attrs = [("superstep", "7"), ("epoch", "1"), ("compute", "0.5,0.25")];
    let driver = Snapshot {
        spans: vec![
            span(42, None, "cluster.superstep", (1_000, 9_000), &step_attrs),
            span(43, Some(42), "cluster.exchange", (6_000, 2_000), &[]),
        ],
        ..Snapshot::default()
    };
    let store = federation::global();
    let sources = store.sources(&driver);
    assert!(matches!(
        sources[..],
        [Source::Local(_), Source::Worker(0, _), Source::Worker(1, _)]
    ));
    let driver_lines = export::spans_jsonl(&sources[..1]);
    doc.push_str(&format!("=== spans: driver ===\n{driver_lines}"));
    for w in [0, 1] {
        let with_driver = export::spans_jsonl(&[sources[0], sources[w + 1]]);
        doc.push_str(&format!("=== spans: worker {w} ===\n"));
        doc.push_str(&with_driver[driver_lines.len()..]);
    }

    let golden = include_str!("fixtures/golden_views.txt");
    assert!(
        doc == golden,
        "views drifted from the fixture; actual:\n{doc}"
    );

    // What the pin cannot show: an observation past every bound lands in
    // the `+Inf` bucket only, and `_count` still equals that bucket.
    let overflow = metrics::histogram("golden.overflow", &[1.0]);
    for v in [0.5, 7.0, 9.0] {
        overflow.observe(v);
    }
    let exposition = metrics::prometheus_snapshot();
    let lines: Vec<&str> = exposition
        .lines()
        .filter(|l| l.starts_with("golden_overflow"))
        .collect();
    assert_eq!(
        lines,
        [
            "golden_overflow_bucket{le=\"1\"} 1",
            "golden_overflow_bucket{le=\"+Inf\"} 3",
            "golden_overflow_sum 16.5",
            "golden_overflow_count 3",
        ]
    );
}

//! Golden fixture for every external observability format: one driver and
//! two worker reports — one worker stale, one with nested spans — and the
//! exact bytes of every endpoint and of each source's span lines, in
//! `fixtures/golden_views.txt`.
//!
//! The fixture was pinned before `Snapshot` existed, through the encoders
//! it replaced (the registry's and the federation store's, spliced
//! together by the server), and has four edits since: the worker lines
//! that `/spans` gained when every view came to cover every source; the
//! `/healthz` body that counts deaths where the alert rules' section was;
//! when the flame view came to be folded from spans instead of sampled, a
//! `/profile` of worker 1's spans' self times in nanoseconds (the driver's
//! ring is empty, as for `/spans`) and worker 1's span ids, which moved
//! into the range of the epoch (1) that recorded them; and, when every
//! process came to stamp its spans on one clock and the histogram kind
//! went, the loss of the histogram, round-trip and clock-offset lines and
//! of their `/progress` keys. Worker 1's spans were recorded 600 ns ahead
//! of the driver's clock, and the fixture held them rebased onto it; they
//! are now stamped at the rebased times, which is what one clock records.
//!
//! The driver is this process (its registry is global), so the test has a
//! binary of its own.

use bpart_obs::export::{self, Source};
use bpart_obs::federation;
use bpart_obs::snapshot::{Snapshot, Span};
use bpart_obs::{metrics, serve};
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
    // ---- the driver: this process's registry ------------------------------
    metrics::counter("cluster.supersteps").add(41);
    metrics::gauge("dist.progress_superstep").set(40.0);
    metrics::gauge("golden.poisoned").set(f64::NAN);

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

        // Worker 1: nested spans.
        let mut w1 = Snapshot::default();
        w1.metrics.counters.insert("dist.frames".into(), 9);
        w1.metrics.gauges.insert("part.edges".into(), 130.5);
        w1.spans = vec![
            span(
                1,
                None,
                "worker.superstep",
                (9_400, 4_000),
                &[("superstep", "7"), ("epoch", "1")],
            ),
            span(
                2,
                Some(1),
                "worker.compute",
                (9_900, 3_000),
                &[("note", "a\"b")],
            ),
        ];
        store.absorb(1, 1, 2, w1);
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
}

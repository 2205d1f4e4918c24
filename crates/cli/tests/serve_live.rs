//! Live monitoring: `--serve-addr` must answer all four endpoints while
//! the job is still running. The run happens on a worker thread; the test
//! discovers the OS-assigned port via `serve::last_bound_addr` and
//! scrapes the endpoints over raw TCP mid-run.

use bpart_cli::{run, Command, ObsFlags};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bpart_serve_test_{}_{name}", std::process::id()));
    p
}

/// One blocking HTTP/1.1 GET; returns the full response (head + body).
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bpart\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Retries `http_get` until the response contains `marker` (the server
/// may still be loading the graph on the first scrape).
fn scrape(addr: SocketAddr, path: &str, marker: &str, deadline: Instant) -> String {
    let mut last = String::new();
    while Instant::now() < deadline {
        if let Ok(response) = http_get(addr, path) {
            if response.starts_with("HTTP/1.1 200") && response.contains(marker) {
                return response;
            }
            last = response;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("GET {path}: never saw {marker:?}; last response:\n{last}");
}

#[test]
fn serve_addr_answers_all_endpoints_during_a_run() {
    let graph_path = tmp("live.txt");
    let gp = graph_path.to_str().unwrap().to_string();
    run(&Command::Generate {
        preset: "lj_like".into(),
        scale: 0.02,
        seed: Some(5),
        out: gp.clone(),
    })
    .unwrap();

    // Enough supersteps that the job is still running for several seconds
    // (debug builds take ~5ms per superstep) while the test scrapes.
    let worker = std::thread::spawn(move || {
        run(&Command::Run {
            backend: "threads".into(),
            graph: gp,
            parts: 4,
            scheme: "bpart".into(),
            app: "pagerank".into(),
            iters: Some(1200),
            walk_len: None,
            seed: None,
            mode: "sequential".into(),
            fault_plan: None,
            checkpoint_every: None,
            obs: ObsFlags {
                serve_addr: Some("127.0.0.1:0".into()),
                ..ObsFlags::default()
            },
        })
    });

    // The server binds before the graph even loads; wait for the addr.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Some(addr) = bpart_obs::serve::last_bound_addr() {
            break addr;
        }
        assert!(Instant::now() < deadline, "server never bound");
        std::thread::sleep(Duration::from_millis(10));
    };

    assert!(
        !worker.is_finished(),
        "run finished before the first scrape"
    );
    let health = scrape(addr, "/healthz", "ok", deadline);
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    // Counters from the partitioning/cluster layers appear once work starts.
    scrape(addr, "/metrics", "# TYPE", deadline);
    scrape(addr, "/progress", "\"counters\"", deadline);
    // Superstep/stream spans close continuously while the job runs.
    scrape(addr, "/spans", "\"name\"", deadline);
    assert!(
        !worker.is_finished(),
        "endpoints should have been scraped mid-run"
    );

    let out = worker.join().unwrap().unwrap();
    assert!(out.contains("served observability on http://"), "{out}");
    // The listener is gone after the run: a fresh GET must fail.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        http_get(addr, "/healthz").is_err(),
        "server still up after the run finished"
    );

    std::fs::remove_file(graph_path).ok();
}

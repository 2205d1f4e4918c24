//! Live monitoring: a std-only background HTTP/1.1 server over the
//! views of [`crate::export`].
//!
//! Production systems are scraped while they run; a post-mortem trace
//! dump is no help three hours into a large partition job. [`start`]
//! binds a `std::net::TcpListener` (port `0` picks a free port — the
//! bound address is on the returned handle) and answers five read-only
//! endpoints from a background thread:
//!
//! | path        | body                                                  |
//! |-------------|-------------------------------------------------------|
//! | `/healthz`  | `ok` liveness probe; structured `ok`/`degraded` JSON  |
//! |             | (dead workers, deaths, recovery) on drivers           |
//! | `/metrics`  | Prometheus exposition ([`export::prometheus`])        |
//! | `/spans`    | spans as JSONL ([`export::spans_jsonl`])              |
//! | `/progress` | registry JSON ([`export::progress_json`])             |
//! | `/profile`  | folded-stack flamegraph text ([`export::folded`])     |
//!
//! Each view covers this process and, on a distributed driver, every
//! worker that has reported — what the matching `--*-out` file holds at
//! the end of the run, as of now.
//!
//! The responder is hand-rolled on purpose: the crate's zero-dependency
//! rule (see the crate docs) covers the serving layer too, and the
//! request surface — `GET <path>`, no bodies, `Connection: close` — is
//! small enough that a real HTTP stack would be all dead weight.
//!
//! Connections are handled sequentially on the accept thread; every
//! response is a point-in-time snapshot, so a slow scraper can delay the
//! next scrape but never the workload (snapshotting briefly takes the
//! same locks exports take). [`ServeHandle::shutdown`] stops the thread
//! by flagging it and poking a wake-up connection through the listener.

use std::io::{self, BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on how long one connection may hold the (sequential) accept
/// thread while *reading* its request. The per-read socket timeout below
/// resets on every received byte, so without this overall deadline a
/// client dribbling one byte every few hundred milliseconds could wedge
/// the server — and the CI `obs` job — indefinitely.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Most bytes of a request the server reads; one that reaches the cap is
/// answered `431` instead of being buffered for the whole deadline.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

use crate::snapshot::{spans_since, Snapshot};
use crate::{export, federation, metrics};

/// A running monitoring server; shut it down explicitly with
/// [`shutdown`](ServeHandle::shutdown) (dropping the handle also stops
/// the server, so a panicking workload does not leak the thread).
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The actually-bound address (resolves port `0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The most recently bound server address in this process, if any. Lets
/// in-process callers (tests, the CLI) find a `--serve-addr 127.0.0.1:0`
/// server without parsing log output.
pub fn last_bound_addr() -> Option<SocketAddr> {
    *last_addr_cell().lock().unwrap_or_else(|p| p.into_inner())
}

fn last_addr_cell() -> &'static Mutex<Option<SocketAddr>> {
    static CELL: OnceLock<Mutex<Option<SocketAddr>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the monitoring endpoints
/// from a background thread until the handle is shut down or dropped.
pub fn start(addr: &str) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    *last_addr_cell().lock().unwrap_or_else(|p| p.into_inner()) = Some(bound);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("bpart-obs-serve".to_string())
        .spawn(move || accept_loop(listener, &thread_stop))?;
    Ok(ServeHandle {
        addr: bound,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // A failed accept or a broken client must not kill the server.
        if let Ok(stream) = conn {
            let _ = handle_connection(stream);
        }
    }
}

/// Reads one `\n`-terminated line, enforcing the connection-wide
/// deadline between socket reads. `BufReader::read_line` alone is not
/// enough: it loops internally, and the per-read timeout resets on every
/// byte, so a slow-drip client could stretch a single line forever.
fn read_line_deadline(
    reader: &mut BufReader<Take<TcpStream>>,
    started: Instant,
    line: &mut String,
) -> io::Result<usize> {
    let mut total = 0usize;
    loop {
        if started.elapsed() > REQUEST_DEADLINE {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(total); // EOF
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.push_str(&String::from_utf8_lossy(&buf[..take]));
        reader.consume(take);
        total += take;
        if done {
            return Ok(total);
        }
    }
}

fn handle_connection(stream: TcpStream) -> io::Result<()> {
    let started = Instant::now();
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    read_line_deadline(&mut reader, started, &mut request_line)?;
    // Drain headers up to the blank line; nothing in them matters here.
    loop {
        let mut header = String::new();
        if read_line_deadline(&mut reader, started, &mut header)? == 0
            || header.trim_end().is_empty()
        {
            break;
        }
    }
    let too_large = reader.get_ref().limit() == 0;
    let mut stream = reader.into_inner().into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if too_large {
        (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!("a request may send {MAX_HEAD_BYTES} bytes before its blank line\n"),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        // Each view reads one part of the local snapshot; only that part
        // is captured.
        let view = |local: Snapshot, render: fn(&[export::Source<'_>]) -> String| {
            render(&federation::global().sources(&local))
        };
        let registry = || Snapshot {
            metrics: metrics::capture(),
            ..Snapshot::default()
        };
        let spans = || Snapshot {
            spans: spans_since(&mut 0),
            ..Snapshot::default()
        };
        match path {
            "/healthz" => {
                let body = federation::global().health_body();
                let content_type = if body.starts_with('{') {
                    "application/json"
                } else {
                    "text/plain; charset=utf-8"
                };
                ("200 OK", content_type, body)
            }
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                view(registry(), export::prometheus),
            ),
            "/progress" => (
                "200 OK",
                "application/json",
                view(registry(), export::progress_json),
            ),
            "/spans" => (
                "200 OK",
                "application/x-ndjson",
                view(spans(), export::spans_jsonl),
            ),
            "/profile" => (
                "200 OK",
                "text/plain; charset=utf-8",
                view(spans(), export::folded),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!(
                    "no such endpoint {path:?}; try /healthz /metrics /spans /progress /profile\n"
                ),
            ),
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    if too_large {
        // Discard what the client still sends, up to the deadline: closing
        // on unread bytes resets the connection, which can lose the answer.
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut sink = [0u8; 4096];
        while started.elapsed() < REQUEST_DEADLINE
            && matches!(stream.read(&mut sink), Ok(n) if n > 0)
        {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Minimal HTTP GET: returns (status line, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let (status, _, body) = get_full(addr, path);
        (status, body)
    }

    /// Like [`get`] but also extracts the `Content-Type` header, so
    /// tests can pin the media type a scraper would negotiate on.
    fn get_full(addr: SocketAddr, path: &str) -> (String, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        let status = head.lines().next().unwrap_or("").to_string();
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        (status, content_type, body.to_string())
    }

    #[test]
    fn serves_all_four_endpoints_and_404() {
        crate::set_trace_enabled(true);
        metrics::counter("t.serve.requests").add(3);

        let server = start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        assert_eq!(last_bound_addr(), Some(addr));

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("t_serve_requests 3"), "{body}");

        drop(crate::span("t.serve.span"));
        let (status, body) = get(addr, "/spans");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"name\":\"t.serve.span\""), "{body}");

        let (status, body) = get(addr, "/progress");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"counters\""), "{body}");
        assert!(body.contains("\"t.serve.requests\":3"), "{body}");

        let (status, content_type, body) = get_full(addr, "/flamegraph");
        assert!(status.contains("404"), "{status}");
        assert_eq!(content_type, "text/plain; charset=utf-8");
        for endpoint in ["/healthz", "/metrics", "/spans", "/progress", "/profile"] {
            assert!(
                body.contains(endpoint),
                "404 body missing {endpoint}: {body}"
            );
        }

        server.shutdown();
        // The port is released: a fresh bind to the same address works.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn federated_worker_series_appear_on_metrics_and_progress() {
        let server = start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // Absorb-and-scrape in a retry loop: the federation store is
        // process-global and another test resets it concurrently.
        let mut seen = false;
        for _ in 0..5 {
            let mut report = Snapshot::default();
            report
                .metrics
                .counters
                .insert("t.serve.fed".to_string(), 11);
            federation::global().absorb(7, 0, 1, report);
            let (status, metrics_body) = get(addr, "/metrics");
            assert!(status.contains("200"), "{status}");
            let (status, progress_body) = get(addr, "/progress");
            assert!(status.contains("200"), "{status}");
            if metrics_body.contains("t_serve_fed{worker=\"7\"} 11")
                && progress_body.contains("\"workers\"")
                && progress_body.contains("\"t.serve.fed\":11")
            {
                seen = true;
                break;
            }
        }
        assert!(seen, "federated series never appeared on the endpoints");
        server.shutdown();
    }

    #[test]
    fn profile_endpoint_serves_typed_bodies() {
        let server = start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // /progress and /healthz carry explicit media types too.
        let (_, content_type, _) = get_full(addr, "/progress");
        assert_eq!(content_type, "application/json");
        let (_, content_type, body) = get_full(addr, "/healthz");
        if body.starts_with('{') {
            assert_eq!(content_type, "application/json");
        } else {
            assert_eq!(content_type, "text/plain; charset=utf-8");
        }

        // /profile: the cluster flame view, valid folded-stack text.
        // Absorb-and-scrape in a retry loop — the federation store is
        // process-global and another test resets it concurrently.
        let mut seen = false;
        for _ in 0..5 {
            let span = |id, parent, name: &str, dur_ns| crate::snapshot::Span {
                id,
                parent,
                name: name.to_string(),
                thread: 0,
                start_ns: 0,
                dur_ns,
                attrs: vec![],
            };
            let report = Snapshot {
                spans: vec![
                    span(1, None, "t.serve.profiled", 4),
                    span(2, Some(1), "leaf", 4),
                ],
                ..Snapshot::default()
            };
            federation::global().absorb(31, 0, 1, report);
            let (status, content_type, body) = get_full(addr, "/profile");
            assert!(status.contains("200"), "{status}");
            assert_eq!(content_type, "text/plain; charset=utf-8");
            export::parse_folded(&body).expect("profile body parses as folded text");
            if body.contains("worker:31;t.serve.profiled;leaf 4") {
                seen = true;
                break;
            }
        }
        assert!(seen, "/profile never contained the federated stacks");
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = start("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
        server.shutdown();
    }

    #[test]
    fn stalled_client_cannot_wedge_the_server() {
        let server = start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // One client connects and stalls mid-request-line, dribbling a
        // byte at a time — each byte resets the socket read timeout, so
        // only the overall request deadline can unwedge the server.
        let dribble = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..40 {
                if stream.write_all(b"G").is_err() {
                    break; // server gave up on us — exactly the point
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        // Give the staller time to become the in-flight connection.
        std::thread::sleep(Duration::from_millis(200));

        // A well-behaved client must still be served well before the
        // staller's 4s of dribbling would complete.
        let start_time = Instant::now();
        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        assert!(
            start_time.elapsed() < Duration::from_secs(4),
            "healthz took {:?} behind a stalled client",
            start_time.elapsed()
        );

        dribble.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn an_oversized_request_head_gets_431_and_the_server_serves_on() {
        let server = start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // 1 MiB with no newline: more than the socket buffers hold, so it
        // is still being sent when the answer comes.
        let send = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'G'; 1 << 20]);
            let _ = writer.shutdown(std::net::Shutdown::Write);
        });
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read the answer");
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{response}"
        );
        send.join().unwrap();
        let (status, _) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        server.shutdown();
    }

    #[test]
    fn dropping_the_handle_stops_the_server() {
        let addr = {
            let server = start("127.0.0.1:0").expect("bind");
            server.addr()
        };
        assert!(TcpListener::bind(addr).is_ok(), "drop must stop the server");
    }
}

//! Socket plumbing: blocking reads, atomic frame writes, bounded
//! exponential backoff with deterministic jitter, and the worker's
//! heartbeat thread.

use crate::error::ClusterError;
use crate::frame::{self, Frame};
use crate::proto::{write_final, WorkerMsg};
use crate::wire::Sink;
use bpart_graph::splitmix::{splitmix64, unit_f64};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Frame-size distribution (bytes on the wire, header included),
/// observed on every [`SharedWriter::send`] in both driver and worker
/// processes. Feeds `/metrics` and the federation view; the handle is
/// cached so the hot send path never takes the registry lock.
fn frame_bytes_histogram() -> &'static bpart_obs::metrics::Histogram {
    static H: OnceLock<&'static bpart_obs::metrics::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        bpart_obs::metrics::histogram(
            "dist.frame_bytes",
            &[
                64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
            ],
        )
    })
}

/// RPC round-trip-time distribution in nanoseconds, observed by the
/// driver from `ObsReport` clock echoes. Lives here with the other
/// transport metrics; also the input to the clock-offset estimator.
pub fn rpc_rtt_histogram() -> &'static bpart_obs::metrics::Histogram {
    static H: OnceLock<&'static bpart_obs::metrics::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        bpart_obs::metrics::histogram(
            "dist.rpc_rtt_ns",
            &[
                50_000.0,
                200_000.0,
                1_000_000.0,
                5_000_000.0,
                25_000_000.0,
                100_000_000.0,
                1_000_000_000.0,
            ],
        )
    })
}

/// Bounded exponential backoff: `base * 2^attempt` capped at `max`, with
/// a deterministic ±25% jitter derived from `seed` so retry storms from
/// several workers never synchronize (and tests replay exactly).
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// First delay.
    pub base: Duration,
    /// Cap on any single delay.
    pub max: Duration,
    /// Jitter seed (vary per worker).
    pub seed: u64,
}

impl Backoff {
    /// Delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max);
        // splitmix64 of (seed, attempt) -> jitter factor in [0.75, 1.25).
        let z = splitmix64(self.seed.wrapping_add(attempt as u64));
        let jitter = 0.75 + unit_f64(z) * 0.5;
        capped.mul_f64(jitter)
    }
}

/// Connects with retries. `on_retry` fires before each sleep (for the
/// `dist.connect_retries` counter). Gives up after `attempts` tries.
pub fn connect_with_backoff(
    addr: &str,
    attempts: u32,
    backoff: Backoff,
    mut on_retry: impl FnMut(u32),
) -> Result<TcpStream, ClusterError> {
    let mut last_err = None;
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => {
                last_err = Some(e);
                if attempt + 1 < attempts.max(1) {
                    on_retry(attempt);
                    thread::sleep(backoff.delay(attempt));
                }
            }
        }
    }
    Err(ClusterError::ConnReset {
        detail: format!(
            "connect {addr} failed after {attempts} attempts: {}",
            last_err.map(|e| e.to_string()).unwrap_or_default()
        ),
    })
}

/// Reads one frame with no deadline (blocks until the peer sends or
/// hangs up).
pub fn read_frame_blocking(stream: &mut TcpStream) -> Result<Frame, ClusterError> {
    stream.set_read_timeout(None).ok();
    frame::read_frame(stream)
}

/// A write handle shareable between a protocol loop and the heartbeat
/// thread. Each frame goes out as one locked `write_all`, so frames from
/// the two threads never interleave.
#[derive(Clone)]
pub struct SharedWriter {
    inner: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    /// Wraps a stream (clone the handle to share it).
    pub fn new(stream: TcpStream) -> Self {
        SharedWriter {
            inner: Arc::new(Mutex::new(stream)),
        }
    }

    /// Sends one message atomically, as the frame it encodes to.
    pub fn send(&self, msg: &WorkerMsg<'_>) -> Result<(), ClusterError> {
        self.send_frame(&msg.to_frame()?)
    }

    /// Sends one already encoded frame atomically.
    pub fn send_frame(&self, bytes: &[u8]) -> Result<(), ClusterError> {
        frame_bytes_histogram().observe(bytes.len() as f64);
        let mut stream = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        stream
            .write_all(bytes)
            .and_then(|()| stream.flush())
            .map_err(|e| ClusterError::from_io("send frame", &e))
    }

    /// Sends a `Final` whose result is written in pieces (see
    /// [`write_final`]). The lock is held from the header to the last piece,
    /// so no heartbeat lands inside the frame.
    pub fn send_final(
        &self,
        epoch: u32,
        result: impl Fn(&mut dyn Sink),
    ) -> Result<(), ClusterError> {
        let mut stream = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let len = write_final(&mut *stream, epoch, result)?;
        frame_bytes_histogram().observe((frame::HEADER_LEN + len) as f64);
        Ok(())
    }
}

/// A thread that waits `interval`, then calls `tick`, until the tick
/// returns `false` or the ticker is dropped. It waits in a `recv_timeout`
/// on a channel whose sender the ticker holds, so the drop wakes it:
/// stopping returns as soon as a tick in flight has finished, not at the
/// end of the interval — a worker told to shut down exits now.
pub struct Ticker {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Starts the thread under `name`.
    pub fn start(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> Ticker {
        let (stop, stopped) = channel::<()>();
        let thread = thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                // Nothing is ever sent: the wait ends by timeout (tick) or
                // by the sender's drop (stop).
                while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                    if !tick() {
                        break;
                    }
                }
            })
            .expect("spawn ticker thread");
        Ticker {
            stop: Some(stop),
            thread: Some(thread),
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Worker-side heartbeat pump: sends `Heartbeat` frames on `interval`
/// until dropped. The epoch cell is shared with the protocol loop so beats
/// always carry the worker's current epoch.
pub fn heartbeat_pump(writer: SharedWriter, epoch: Arc<AtomicU32>, interval: Duration) -> Ticker {
    Ticker::start("heartbeat", interval, move || {
        let beat = WorkerMsg::Heartbeat {
            epoch: epoch.load(Ordering::Relaxed),
        };
        // A failed send means the driver is gone; the protocol loop will
        // see the same failure and exit. Stop beating.
        writer.send(&beat).is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let b = Backoff {
            base: Duration::from_millis(10),
            max: Duration::from_millis(80),
            seed: 42,
        };
        let d0 = b.delay(0);
        let d3 = b.delay(3);
        assert!(d0 >= Duration::from_micros(7_500) && d0 < Duration::from_micros(12_500));
        assert!(d3 > d0);
        // Far past the cap: jitter keeps it within [0.75, 1.25) * max.
        let d9 = b.delay(9);
        assert!(d9 <= Duration::from_millis(100));
        // Deterministic.
        assert_eq!(b.delay(5), b.delay(5));
        // Different seeds de-synchronize.
        let c = Backoff { seed: 43, ..b };
        assert_ne!(b.delay(5), c.delay(5));
    }

    #[test]
    fn connect_retries_then_gives_up() {
        // Bind then drop: the port is (very likely) refused afterwards.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut retries = 0;
        let err = connect_with_backoff(
            &addr,
            3,
            Backoff {
                base: Duration::from_millis(1),
                max: Duration::from_millis(2),
                seed: 1,
            },
            |_| retries += 1,
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::ConnReset { .. }));
        assert_eq!(retries, 2);
    }

    #[test]
    fn shared_writer_observes_frame_size_distribution() {
        // Satellite: every sent frame lands in the dist.frame_bytes
        // histogram so the size distribution shows up on /metrics.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || listener.accept().map(|(s, _)| s));
        let stream = TcpStream::connect(addr).unwrap();
        let _held = peer.join().unwrap().unwrap();
        let writer = SharedWriter::new(stream);
        let before = frame_bytes_histogram().count();
        for result in [&[0u8; 32][..], &[0u8; 2048]] {
            let msg = WorkerMsg::Final { epoch: 0, result };
            writer.send(&msg).expect("send");
        }
        assert_eq!(frame_bytes_histogram().count(), before + 2);
        // The RTT histogram registers under its documented name.
        assert_eq!(rpc_rtt_histogram().bounds().len(), 7);
        let text = bpart_obs::metrics::prometheus_snapshot();
        assert!(text.contains("dist_frame_bytes_bucket"), "{text}");
        assert!(text.contains("dist_rpc_rtt_ns_count"), "{text}");
    }

    /// A connected `(worker-side writer, driver-side stream)` pair.
    fn socket_pair() -> (SharedWriter, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (SharedWriter::new(stream), peer)
    }

    #[test]
    fn a_ticker_ticks_on_its_interval() {
        let (tx, ticks) = channel();
        let ticker = Ticker::start("test-ticker", Duration::from_millis(1), move || {
            tx.send(()).is_ok()
        });
        for _ in 0..3 {
            ticks
                .recv_timeout(Duration::from_secs(5))
                .expect("a tick within the deadline");
        }
        drop(ticker);
    }

    #[test]
    fn a_ticker_ends_itself_when_the_tick_returns_false() {
        let (tx, ticks) = channel();
        let mut left = 3;
        let ticker = Ticker::start("test-ticker", Duration::from_millis(1), move || {
            left -= 1;
            tx.send(left).unwrap();
            left > 0
        });
        // The iterator ends when the thread has exited and dropped `tx`.
        assert_eq!(ticks.iter().collect::<Vec<_>>(), [2, 1, 0]);
        drop(ticker);
    }

    #[test]
    fn stopping_a_ten_second_ticker_returns_at_once() {
        let ticker = Ticker::start("test-ticker", Duration::from_secs(10), || true);
        let started = Instant::now();
        drop(ticker);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "stop took {took:?}");
    }

    /// Drops `pump` and asserts its thread was joined within 50 ms — the
    /// teardown a worker's exit waits for.
    fn assert_stops_at_once(pump: Ticker) {
        let started = Instant::now();
        drop(pump);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "drop took {took:?}");
    }

    #[test]
    fn heartbeat_pump_beats_and_stops_mid_interval() {
        let (writer, mut peer) = socket_pair();
        let epoch = Arc::new(AtomicU32::new(7));
        let pump = heartbeat_pump(writer.clone(), Arc::clone(&epoch), Duration::from_millis(1));
        let frame = read_frame_blocking(&mut peer).unwrap();
        assert_eq!(
            WorkerMsg::from_frame(&frame).unwrap(),
            WorkerMsg::Heartbeat { epoch: 7 }
        );
        drop(pump);
        // Ten seconds to the first beat: only the stop signal can end it.
        assert_stops_at_once(heartbeat_pump(writer, epoch, Duration::from_secs(10)));
    }
}

//! The one interval thread: the profiler's sampler, a worker's heartbeat
//! and its obs flush all run on it.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

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
        let thread = std::thread::Builder::new()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
}

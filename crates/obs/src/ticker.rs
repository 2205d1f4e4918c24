//! The background thread behind the profiler's sampler and the alert
//! evaluator.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A thread that calls `tick` at once and then every `interval` until the
/// ticker is dropped. Between ticks it waits in a `recv_timeout` on a
/// channel whose sender the ticker holds, so the drop wakes it: stopping
/// returns as soon as a tick in flight has finished, not at the end of
/// the interval.
pub(crate) struct Ticker {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Ticker {
    pub(crate) fn start(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Ticker {
        let (stop, stopped) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                tick();
                // Nothing is ever sent: the wait ends by timeout (tick
                // again) or by the sender's drop (stop).
                if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                    break;
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
            let _ = tx.send(());
        });
        for _ in 0..3 {
            ticks
                .recv_timeout(Duration::from_secs(5))
                .expect("a tick within the deadline");
        }
        drop(ticker);
    }

    #[test]
    fn stopping_a_ten_second_ticker_returns_at_once() {
        let (tx, ticks) = channel();
        let ticker = Ticker::start("test-ticker", Duration::from_secs(10), move || {
            let _ = tx.send(());
        });
        // The first tick has run, so the thread is (about to be) waiting.
        ticks.recv().expect("first tick");
        let started = Instant::now();
        drop(ticker);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "stop took {took:?}");
    }
}

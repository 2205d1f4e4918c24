//! Continuous span-stack profiler.
//!
//! The tracer already maintains per-thread span nesting; this module turns
//! that into an always-on, low-overhead wall-clock profiler. Each thread
//! that opens spans registers a shared *live stack* of span names (pushed
//! on open, popped on close). A background sampler thread periodically
//! snapshots every registered stack and folds the observation into
//! flamegraph-compatible *folded stack* counts (`a;b;leaf N` — one line
//! per unique stack, `N` samples attributed to it). Because the snapshot
//! and the push/pop both hold the stack's mutex, a sample is exactly the
//! spans the thread had open at one instant, in opening order — there are
//! no torn stacks by construction. With guards closed innermost-first that
//! is a prefix of what was opened; an out-of-order close removes just the
//! closed frame (the `proptest_profile` integration test hammers the
//! former under churn and pins the latter).
//!
//! The counts are the `profile` of a [`crate::snapshot::Snapshot`]:
//! [`crate::export::folded`] renders them for `--profile-out` and the
//! live `/profile` endpoint, and a process-backend worker's travel to the
//! driver in its snapshot, so `bpart report --profile` renders one
//! cluster-wide flame view (`worker:N;...` prefixes).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

use crate::ticker::Ticker;

/// Default wall-clock sampling period for [`start_sampler`]. Coarse spans
/// (supersteps, buffers, layers) live for milliseconds, so 2ms keeps the
/// flame view dense on short CI runs while the per-sample cost is one
/// brief mutex acquisition per live thread.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(2);

/// One thread's live stack of open span names, innermost last.
struct ThreadStack {
    stack: Mutex<Vec<&'static str>>,
}

struct ProfilerState {
    enabled: AtomicBool,
    /// Non-empty-stack observations folded in (≥0 per thread per round).
    observations: AtomicU64,
    /// Weak registry: a thread's stack dies with its thread-local Arc, so
    /// short-lived worker threads (the buffered streaming engine spawns
    /// them per chunk) don't accumulate; the sampler prunes dead entries.
    threads: Mutex<Vec<Weak<ThreadStack>>>,
    folded: Mutex<HashMap<String, u64>>,
    sampler: Mutex<Option<Ticker>>,
}

fn state() -> &'static ProfilerState {
    static STATE: OnceLock<ProfilerState> = OnceLock::new();
    STATE.get_or_init(|| ProfilerState {
        enabled: AtomicBool::new(false),
        observations: AtomicU64::new(0),
        threads: Mutex::new(Vec::new()),
        folded: Mutex::new(HashMap::new()),
        sampler: Mutex::new(None),
    })
}

thread_local! {
    /// This thread's shared live stack, registered on first span open.
    static LIVE: Arc<ThreadStack> = {
        let ts = Arc::new(ThreadStack {
            stack: Mutex::new(Vec::new()),
        });
        state()
            .threads
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::downgrade(&ts));
        ts
    };
}

/// Turns live-stack maintenance on or off process-wide. Off is the
/// default: span open/close then skips the profiler entirely (one relaxed
/// load). The tracer records which spans pushed, so toggling mid-span
/// never unbalances a stack.
pub fn set_profile_enabled(enabled: bool) {
    state().enabled.store(enabled, Ordering::Relaxed);
}

/// Called by the tracer when a span opens. Returns whether the name was
/// pushed (so the close knows whether to pop).
pub(crate) fn push_live(name: &'static str) -> bool {
    if !state().enabled.load(Ordering::Relaxed) {
        return false;
    }
    LIVE.try_with(|ts| {
        ts.stack
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(name);
    })
    .is_ok()
}

/// Called by the tracer when a pushed span closes.
pub(crate) fn pop_live(name: &'static str) {
    let _ = LIVE.try_with(|ts| {
        let mut stack = ts.stack.lock().unwrap_or_else(|p| p.into_inner());
        // Guards usually drop LIFO within a thread. An out-of-order
        // close (a leaked guard, a `Vec` of guards dropped front to back)
        // removes the innermost frame of that name and leaves the rest in
        // order, mirroring the tracer's own OPEN handling.
        if stack.last() == Some(&name) {
            stack.pop();
        } else if let Some(i) = stack.iter().rposition(|&n| std::ptr::eq(n, name)) {
            stack.remove(i);
        }
    });
}

/// Takes one sample: folds every registered thread's current stack into
/// the folded-count table. Called on a timer by [`start_sampler`];
/// exposed so tests can sample deterministically.
pub fn sample_once() {
    let s = state();
    let mut threads = s.threads.lock().unwrap_or_else(|p| p.into_inner());
    threads.retain(|w| w.strong_count() > 0);
    let stacks: Vec<Arc<ThreadStack>> = threads.iter().filter_map(Weak::upgrade).collect();
    drop(threads);
    let mut observed = 0u64;
    let mut folded = s.folded.lock().unwrap_or_else(|p| p.into_inner());
    for ts in &stacks {
        let stack = ts.stack.lock().unwrap_or_else(|p| p.into_inner());
        if stack.is_empty() {
            continue;
        }
        let key = stack.join(";");
        drop(stack);
        *folded.entry(key).or_insert(0) += 1;
        observed += 1;
    }
    drop(folded);
    s.observations.fetch_add(observed, Ordering::Relaxed);
}

/// Non-empty-stack observations folded in since the last
/// [`reset_profile`]. The folded counts always sum to exactly this.
pub fn observation_count() -> u64 {
    state().observations.load(Ordering::Relaxed)
}

/// Discards all folded counts and the observation counter (the thread
/// registry survives — threads stay registered for their lifetime).
pub fn reset_profile() {
    let s = state();
    s.folded.lock().unwrap_or_else(|p| p.into_inner()).clear();
    s.observations.store(0, Ordering::Relaxed);
}

/// Snapshot of the folded counts, sorted by descending count then name
/// (deterministic output for exports and tests).
pub fn folded_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = state()
        .folded
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Parses folded-stack text back into `(stack, count)` pairs. Lines
/// starting with `#` and blank lines are ignored (the exporters use `#`
/// for provenance comments). Returns a message naming the first bad line.
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no count field: {line:?}", idx + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: bad count {count:?}", idx + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", idx + 1));
        }
        out.push((stack.to_string(), count));
    }
    Ok(out)
}

/// Takes one sample now and starts the background sampler at `interval`
/// (idempotent: returns `false` if one is already running).
pub fn start_sampler(interval: Duration) -> bool {
    let mut slot = state().sampler.lock().unwrap_or_else(|p| p.into_inner());
    if slot.is_some() {
        return false;
    }
    sample_once();
    *slot = Some(Ticker::start("bpart-profiler", interval, || {
        sample_once();
        true
    }));
    true
}

/// Stops the background sampler (no-op when none is running) and waits
/// for it to exit, so counts are stable when the caller exports them.
pub fn stop_sampler() {
    let sampler = state()
        .sampler
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    drop(sampler);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The profiler is process-global; tests that reset it serialize.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn samples_fold_live_stacks_and_counts_balance() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_trace_enabled(true);
        set_profile_enabled(true);
        reset_profile();
        {
            let _outer = crate::span("prof.outer");
            let _inner = crate::span("prof.inner");
            sample_once();
            sample_once();
        }
        // Spans closed: this thread's stack is empty, so further samples
        // add observations only from other (test-parallel) threads.
        let folded = folded_snapshot();
        let ours: u64 = folded
            .iter()
            .filter(|(k, _)| k.contains("prof.outer;prof.inner"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(ours, 2, "two samples saw the nested stack: {folded:?}");
        let total: u64 = folded.iter().map(|(_, v)| v).sum();
        assert_eq!(total, observation_count(), "folded counts must balance");
        set_profile_enabled(false);
    }

    #[test]
    fn toggling_mid_span_never_unbalances_the_stack() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_trace_enabled(true);
        set_profile_enabled(false);
        let unprofiled = crate::span("prof.toggle.outer");
        set_profile_enabled(true);
        {
            let _profiled = crate::span("prof.toggle.inner");
            reset_profile();
            sample_once();
            let folded = folded_snapshot();
            // The outer span predates enabling, so the observed stack
            // starts at the inner span.
            assert!(
                folded
                    .iter()
                    .any(|(k, _)| k == "prof.toggle.inner" || k.ends_with(";prof.toggle.inner")),
                "inner span must be live: {folded:?}"
            );
        }
        drop(unprofiled); // pops nothing from the live stack: never pushed
        reset_profile();
        sample_once();
        assert!(
            !folded_snapshot()
                .iter()
                .any(|(k, _)| k.contains("prof.toggle")),
            "all toggle spans must be gone from the live stack"
        );
        set_profile_enabled(false);
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let text = "# provenance comment\na;b;c 12\nroot 3\n\n";
        let parsed = parse_folded(text).unwrap();
        assert_eq!(
            parsed,
            vec![("a;b;c".to_string(), 12), ("root".to_string(), 3)]
        );
        assert!(parse_folded("no-count-line\n").is_err());
        assert!(parse_folded("stack notanumber\n").is_err());
        assert!(parse_folded(" 7\n").is_err());
    }

    #[test]
    fn sampler_thread_starts_and_stops() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_trace_enabled(true);
        set_profile_enabled(true);
        reset_profile();
        let live = crate::span("prof.sampler.live");
        assert!(start_sampler(Duration::from_millis(1)));
        assert!(!start_sampler(Duration::from_millis(1)), "idempotent");
        std::thread::sleep(Duration::from_millis(10));
        stop_sampler();
        stop_sampler(); // no-op
        drop(live);
        assert!(
            folded_snapshot()
                .iter()
                .any(|(stack, _)| stack.ends_with("prof.sampler.live")),
            "the sampler saw the span that was open while it ran"
        );
        set_profile_enabled(false);
        reset_profile();
    }
}

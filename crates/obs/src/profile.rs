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
//! The folded text is exported three ways: `--profile-out`, the live
//! `/profile` endpoint, and — for the process backend — federated to the
//! driver inside the existing ObsReport frame so `bpart report --profile`
//! renders one cluster-wide flame view (`worker:N;...` prefixes).
//!
//! An optional [`SpanAlloc`] global-allocator wrapper attributes heap
//! bytes/allocations to the innermost live span of the allocating thread
//! (enable with [`set_alloc_profile_enabled`]; the `bpart` binary installs
//! it behind the `alloc-profile` cargo feature). The attribution path is
//! allocation-free and lock-free: a const-initialised thread-local cell
//! holds the current leaf name, and counts land in a fixed-size
//! linear-probe table of atomics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Default wall-clock sampling period for [`start_sampler`]. Coarse spans
/// (supersteps, buffers, layers) live for milliseconds, so 2ms keeps the
/// flame view dense on short CI runs while the per-sample cost (one brief
/// mutex acquisition per live thread) stays far under the 3% overhead
/// gate.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(2);

/// One thread's live stack of open span names, innermost last.
struct ThreadStack {
    stack: Mutex<Vec<&'static str>>,
}

struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

struct ProfilerState {
    enabled: AtomicBool,
    /// Sampling rounds completed (each visits every registered thread).
    samples: AtomicU64,
    /// Non-empty-stack observations folded in (≥0 per thread per round).
    observations: AtomicU64,
    /// Weak registry: a thread's stack dies with its thread-local Arc, so
    /// short-lived worker threads (the buffered streaming engine spawns
    /// them per chunk) don't accumulate; the sampler prunes dead entries.
    threads: Mutex<Vec<Weak<ThreadStack>>>,
    folded: Mutex<HashMap<String, u64>>,
    sampler: Mutex<Option<SamplerHandle>>,
}

fn state() -> &'static ProfilerState {
    static STATE: OnceLock<ProfilerState> = OnceLock::new();
    STATE.get_or_init(|| ProfilerState {
        enabled: AtomicBool::new(false),
        samples: AtomicU64::new(0),
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
    /// Innermost live span name for allocator attribution. A plain `Cell`
    /// (const-init, no destructor) so the allocator can read it without
    /// locking or allocating.
    static ALLOC_LEAF: std::cell::Cell<Option<&'static str>> =
        const { std::cell::Cell::new(None) };
}

/// Turns live-stack maintenance on or off process-wide. Off is the
/// default: span open/close then skips the profiler entirely (one relaxed
/// load). The tracer records which spans pushed, so toggling mid-span
/// never unbalances a stack.
pub fn set_profile_enabled(enabled: bool) {
    state().enabled.store(enabled, Ordering::Relaxed);
}

/// Whether live-stack maintenance is currently on.
pub fn profile_enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Called by the tracer when a span opens. Returns whether the name was
/// pushed (so the close knows whether to pop).
pub(crate) fn push_live(name: &'static str) -> bool {
    if !state().enabled.load(Ordering::Relaxed) {
        return false;
    }
    let pushed = LIVE
        .try_with(|ts| {
            ts.stack
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(name);
        })
        .is_ok();
    if pushed {
        let _ = ALLOC_LEAF.try_with(|leaf| leaf.set(Some(name)));
    }
    pushed
}

/// Called by the tracer when a pushed span closes.
pub(crate) fn pop_live(name: &'static str) {
    let new_leaf = LIVE.try_with(|ts| {
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
        stack.last().copied()
    });
    if let Ok(leaf) = new_leaf {
        let _ = ALLOC_LEAF.try_with(|cell| cell.set(leaf));
    }
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
    s.samples.fetch_add(1, Ordering::Relaxed);
    s.observations.fetch_add(observed, Ordering::Relaxed);
}

/// Sampling rounds taken since the last [`reset_profile`].
pub fn sample_count() -> u64 {
    state().samples.load(Ordering::Relaxed)
}

/// Non-empty-stack observations folded in since the last
/// [`reset_profile`]. The folded counts always sum to exactly this.
pub fn observation_count() -> u64 {
    state().observations.load(Ordering::Relaxed)
}

/// Discards all folded counts and sample/observation counters (the thread
/// registry survives — threads stay registered for their lifetime).
pub fn reset_profile() {
    let s = state();
    s.folded.lock().unwrap_or_else(|p| p.into_inner()).clear();
    s.samples.store(0, Ordering::Relaxed);
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

/// Renders the folded counts as flamegraph folded-stack text, one
/// `stack;frames leaf N` line per unique stack.
pub fn render_folded() -> String {
    let mut out = String::new();
    for (stack, count) in folded_snapshot() {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
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

/// Starts the background sampler at `interval` (idempotent: returns
/// `false` if one is already running). The thread also drives nothing
/// else — alert evaluation has its own thread — so stopping it cannot
/// stall other subsystems.
pub fn start_sampler(interval: Duration) -> bool {
    let mut slot = state().sampler.lock().unwrap_or_else(|p| p.into_inner());
    if slot.is_some() {
        return false;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("bpart-profiler".into())
        .spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                sample_once();
                std::thread::sleep(interval);
            }
        })
        .expect("spawn profiler sampler");
    *slot = Some(SamplerHandle { stop, join });
    true
}

/// Stops the background sampler (no-op when none is running) and waits
/// for it to exit, so counts are stable when the caller exports them.
pub fn stop_sampler() {
    let handle = state()
        .sampler
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    if let Some(handle) = handle {
        handle.stop.store(true, Ordering::Relaxed);
        let _ = handle.join.join();
    }
}

// ---------------------------------------------------------------------------
// Allocation attribution.

static ALLOC_PROFILE: AtomicBool = AtomicBool::new(false);

/// Turns allocator attribution on or off. Independent of the stack
/// sampler: it only matters when [`SpanAlloc`] is installed as the global
/// allocator (`--features alloc-profile` on the CLI).
pub fn set_alloc_profile_enabled(enabled: bool) {
    ALLOC_PROFILE.store(enabled, Ordering::Relaxed);
}

const ALLOC_SLOTS: usize = 512;

/// One attribution bucket: a span name (interned by pointer — names are
/// `&'static str` literals) plus byte/allocation tallies.
struct AllocSlot {
    name: AtomicPtr<u8>,
    len: AtomicUsize,
    bytes: AtomicU64,
    allocs: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: AllocSlot = AllocSlot {
    name: AtomicPtr::new(std::ptr::null_mut()),
    len: AtomicUsize::new(0),
    bytes: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

static ALLOC_TABLE: [AllocSlot; ALLOC_SLOTS] = [EMPTY_SLOT; ALLOC_SLOTS];

/// Records `size` bytes against the innermost live span of this thread.
/// Must not allocate or take a lock: it runs inside the allocator.
fn record_alloc(size: usize) {
    let Ok(Some(name)) = ALLOC_LEAF.try_with(std::cell::Cell::get) else {
        return;
    };
    let ptr = name.as_ptr() as *mut u8;
    let home = (ptr as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
    for probe in 0..ALLOC_SLOTS {
        let slot = &ALLOC_TABLE[(home + probe) % ALLOC_SLOTS];
        let cur = slot.name.load(Ordering::Acquire);
        let owned = if cur == ptr {
            true
        } else if cur.is_null() {
            match slot.name.compare_exchange(
                std::ptr::null_mut(),
                ptr,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    slot.len.store(name.len(), Ordering::Release);
                    true
                }
                Err(winner) => winner == ptr,
            }
        } else {
            false
        };
        if owned {
            slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
            slot.allocs.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    // Table full: drop the sample (bounded-memory beats completeness here).
}

/// Per-span allocation tallies: `(span name, bytes, allocations)`, sorted
/// by descending bytes. Empty unless [`SpanAlloc`] is installed and
/// attribution was enabled.
pub fn alloc_snapshot() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for slot in &ALLOC_TABLE {
        let ptr = slot.name.load(Ordering::Acquire);
        if ptr.is_null() {
            continue;
        }
        let len = slot.len.load(Ordering::Acquire);
        if len == 0 {
            continue; // racing publisher: name set, len not yet visible
        }
        // Safety: the pointer/len came from a `&'static str` span name.
        let name = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
        };
        out.push((
            name.to_string(),
            slot.bytes.load(Ordering::Relaxed),
            slot.allocs.load(Ordering::Relaxed),
        ));
    }
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// A `GlobalAlloc` wrapper attributing allocation bytes/counts to the
/// innermost live span of the allocating thread. Install it behind a
/// cargo feature:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: bpart_obs::profile::SpanAlloc<std::alloc::System> =
///     bpart_obs::profile::SpanAlloc(std::alloc::System);
/// ```
pub struct SpanAlloc<A>(pub A);

// Safety: defers entirely to the wrapped allocator; the recording side
// channel never allocates, locks, or observes the returned pointer.
unsafe impl<A: std::alloc::GlobalAlloc> std::alloc::GlobalAlloc for SpanAlloc<A> {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() && ALLOC_PROFILE.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        self.0.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() && ALLOC_PROFILE.load(Ordering::Relaxed) && new_size > layout.size() {
            record_alloc(new_size - layout.size());
        }
        p
    }
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
        assert!(sample_count() >= 2);
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
        assert!(start_sampler(Duration::from_millis(1)));
        assert!(!start_sampler(Duration::from_millis(1)), "idempotent");
        std::thread::sleep(Duration::from_millis(10));
        stop_sampler();
        stop_sampler(); // no-op
        assert!(sample_count() > 0);
        reset_profile();
    }

    #[test]
    fn alloc_table_attributes_to_the_live_leaf() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_trace_enabled(true);
        set_profile_enabled(true);
        set_alloc_profile_enabled(true);
        {
            let _leaf = crate::span("prof.alloc.leaf");
            // Exercise the recording path directly (the wrapper is only
            // installed as global allocator behind the CLI feature).
            record_alloc(1024);
            record_alloc(24);
        }
        set_alloc_profile_enabled(false);
        set_profile_enabled(false);
        let stats = alloc_snapshot();
        let (_, bytes, allocs) = stats
            .iter()
            .find(|(n, _, _)| n == "prof.alloc.leaf")
            .expect("leaf span must appear in alloc stats");
        assert!(*bytes >= 1048 && *allocs >= 2, "{stats:?}");
    }
}

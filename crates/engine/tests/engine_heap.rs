//! What an iteration run holds at its peak, observed through the
//! allocator: every machine's send slots and its share of the values, no
//! copy kept for recovery (a loss before the first checkpoint re-derives
//! the initial values), and a result gathered only as the kernels are
//! dropped. So this file holds one test and is its own binary.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel};
use bpart_core::{BPart, Partitioner};
use bpart_engine::apps::{ConnectedComponents, PageRank};
use bpart_engine::{IterationEngine, VertexProgram};
use bpart_graph::generate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes `f` held at its peak beyond what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - base
}

/// The bytes per vertex `program`'s run on `engine` held at its peak.
fn peak_per_vertex<P: VertexProgram>(engine: &IterationEngine, program: &P, n: usize) -> f64 {
    let peak = peak_of(|| engine.run(program));
    peak as f64 / n as f64
}

/// PageRank(5) and CC over BPart's 8 parts of `twitter_like` ×0.1 (the
/// `pr-cc-tw` graph at an eighth of its size). Per vertex, with `V`-byte
/// values and `A`-byte accumulators, the kernels hold `8 (A + 1/8)` in
/// send slots and their bitmaps, `1` in the ownership bitmaps, `4` in the
/// global-to-local index and `V + 1 + A` in values, flags and inboxes:
/// 87 bytes for PageRank (`f64`), 47 for CC (`u32`). They read 87.7 and
/// 47.6. A copy of every machine's values and flags kept for recovery adds
/// `V + 1`: 96.8 and 52.6. Each bound lies between the two.
#[test]
fn an_iteration_run_holds_no_copy_of_its_machines() {
    let graph = Arc::new(generate::twitter_like().generate_scaled(0.1));
    let n = graph.num_vertices();
    let partition = Arc::new(BPart::default().partition(&graph, 8));
    let cluster = Cluster::new(graph, partition);
    let engine = IterationEngine::new(cluster, CostModel::default(), ExecMode::Sequential);
    for (name, per_vertex, bound) in [
        (
            "PageRank",
            peak_per_vertex(&engine, &PageRank::new(5), n),
            92.0,
        ),
        (
            "CC",
            peak_per_vertex(&engine, &ConnectedComponents, n),
            50.0,
        ),
    ] {
        eprintln!("{name}: peak {per_vertex:.2} bytes per vertex");
        assert!(
            per_vertex <= bound,
            "{name}: the run peaked at {per_vertex:.2} bytes per vertex, over {bound}"
        );
    }
}

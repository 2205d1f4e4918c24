//! What a walk run holds at its peak, observed through the allocator: the
//! walkers once in their queues, once more in flight between machines, and
//! no copy kept for recovery — a loss before the first checkpoint
//! re-seeds the machines instead. So this file holds one test and is its
//! own binary.

use bpart_cluster::exec::ExecMode;
use bpart_cluster::{Cluster, CostModel};
use bpart_core::{BPart, Partitioner};
use bpart_graph::generate;
use bpart_walker::apps::{DeepWalk, Node2vec};
use bpart_walker::{WalkApp, WalkEngine, WalkStarts, Walker};
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

/// `walks-fr`'s walks: 16 walkers per vertex of `friendster_like` ×0.03
/// over BPart's 8 parts, no recording, no checkpoints. A run holds its
/// walkers in the queues and, while they move, in the rows between
/// machines: two copies at most, plus scratch. They read 2.05 × for
/// DeepWalk and 2.20 × for node2vec; a third copy (the initial state kept
/// for a loss before the first checkpoint) reads 3.05 × and 3.20 ×.
#[test]
fn a_walk_holds_its_walkers_at_most_twice() {
    let graph = Arc::new(generate::friendster_like().generate_scaled(0.03));
    let partition = Arc::new(BPart::default().partition(&graph, 8));
    let cluster = Cluster::new(graph.clone(), partition);
    let engine = WalkEngine::new(cluster, CostModel::default(), ExecMode::Sequential);
    let starts = WalkStarts::PerVertex(16);
    let walkers = starts.count(graph.num_vertices()) as usize;
    let bytes = walkers * std::mem::size_of::<Walker>();
    let apps: [&dyn WalkApp; 2] = [&DeepWalk::new(80), &Node2vec::new(2.0, 0.5, 40)];
    for app in apps {
        let peak = peak_of(|| engine.run(app, &starts, 20220829));
        let ratio = peak as f64 / bytes as f64;
        eprintln!(
            "{}: peak {peak} bytes, {ratio:.2} x the walkers",
            app.name()
        );
        assert!(
            ratio <= 2.5,
            "{}: the run peaked at {ratio:.2} x its {walkers} walkers' {bytes} bytes",
            app.name()
        );
    }
}

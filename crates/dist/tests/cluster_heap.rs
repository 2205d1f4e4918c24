//! What a cluster's graph holds once `JobSpec::cluster_on` has built it,
//! observed through the allocator: partitioning reads both directions, but
//! a job keeps only those its app reads — the out-lists for PageRank and
//! DeepWalk, both for CC. So this file holds one test and is its own
//! binary.

use bpart_dist::{AppSpec, GraphSource, JobSpec};
use bpart_graph::generate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `app`'s cluster over `erdos_renyi(n, m)` holds: what is live
/// while it is, over what was live before its graph was made.
fn cluster_held(app: AppSpec, n: usize, m: usize) -> usize {
    let spec = JobSpec {
        graph: GraphSource::ErdosRenyi {
            n: n as u32,
            m: m as u32,
            seed: 7,
        },
        scheme: "bpart".into(),
        parts: 2,
        app,
        checkpoint_every: None,
    };
    let before = LIVE.load(Ordering::Relaxed);
    let cluster = spec.cluster_on(generate::erdos_renyi(n, m, 7)).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(cluster.graph().num_edges(), m);
    held
}

/// Each direction of a graph of `n` vertices and `m` edges is an offset
/// and a target array, `8(n + 1) + 4m` bytes. All three clusters hold the
/// same partition of the same graph (BPart partitions on both directions
/// whatever the app); a cluster for PageRank or DeepWalk then keeps the
/// out-lists only, one for CC both. So each of the first two holds one
/// direction's bytes less than CC's, to within 4 KiB (read: exact, or
/// 900 bytes off); with the in-lists kept for every app, the difference
/// is 0.
#[test]
fn a_cluster_holds_the_directions_its_app_reads() {
    let (n, m) = (20_000, 160_000);
    let direction = 8 * (n + 1) + 4 * m;
    // The gauge the build sets, and whatever else a first build leaves
    // behind for good, are in place before anything is counted.
    cluster_held(AppSpec::ConnectedComponents, 100, 400);
    let both = cluster_held(AppSpec::ConnectedComponents, n, m);
    let beside_graph = both as i64 - 2 * direction as i64;
    eprintln!("cc: {both} bytes, of which {beside_graph} are not the graph's");
    let out_only = [
        AppSpec::PageRank { iters: 4 },
        AppSpec::DeepWalk {
            walk_len: 8,
            seed: 3,
            per_vertex: 1,
        },
    ];
    for app in out_only {
        let held = cluster_held(app.clone(), n, m);
        let graph = held as i64 - beside_graph;
        let ratio = graph as f64 / direction as f64;
        eprintln!(
            "{}: {held} bytes; its graph {graph}, {ratio:.3} x one direction",
            app.name()
        );
        assert!(
            (both as i64 - held as i64 - direction as i64).abs() <= 4096,
            "{}: its graph holds {ratio:.3} x one direction; the app reads the out-lists only",
            app.name()
        );
    }
}

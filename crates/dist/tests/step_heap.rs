//! What a worker holds beside its kernel while it runs supersteps,
//! observed through the allocator: the one `StepData` frame it builds in
//! place and keeps for the next superstep, and nothing else of a size that
//! grows with what it sends or receives — no segment encoded on its own,
//! no copy of the paths, no walker decoded into a list before it is
//! queued. So this file holds one test and is its own binary.

use bpart_cluster::Cluster;
use bpart_core::{ChunkV, Partitioner};
use bpart_dist::frame::{self, Frame};
use bpart_dist::proto::{kind, DriverMsg, WorkerMsg};
use bpart_dist::step::{IterWorker, WalkWorker, Worker};
use bpart_dist::wire::Wire;
use bpart_engine::apps::PageRank;
use bpart_graph::generate;
use bpart_walker::apps::DeepWalk;
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

/// What a worker may hold beside its kernel and its largest frame.
const SLACK: usize = 4096;

/// Runs `phase` of a worker whose kept frame is `sent` and returns the
/// bytes it peaked at above its kernel's state: the peak over what was
/// live that is not the frame, before or after — a kernel's own scratch
/// may grow in a phase, and stays — so the kept frame counts, and so does
/// whatever the phase allocated and dropped again.
fn above_kernel(sent: &mut Vec<u8>, phase: impl FnOnce(&mut Vec<u8>)) -> usize {
    let before = LIVE.load(Ordering::Relaxed) - sent.capacity();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    phase(sent);
    let after = LIVE.load(Ordering::Relaxed) - sent.capacity();
    PEAK.load(Ordering::Relaxed) - before.max(after)
}

/// Drives two workers for `supersteps` supersteps as the worker loop and
/// the driver would: each builds its `StepData` in the frame it keeps, the
/// driver routes the segments into `Inbox` frames, each worker reads its
/// own and finishes. Returns, per superstep, the largest frame either had
/// built so far and the most either held above its kernel.
fn drive(mut workers: Vec<Box<dyn Worker>>, supersteps: u64) -> Vec<(usize, usize)> {
    let k = workers.len();
    let mut sent: Vec<Vec<u8>> = vec![Vec::new(); k];
    let mut largest = 0;
    let mut readings = Vec::new();
    for superstep in 0..supersteps {
        let agg: f64 = workers.iter().map(|w| w.ready_agg()).sum();
        let mut above = 0;
        for (w, frame) in workers.iter_mut().zip(&mut sent) {
            above = above.max(above_kernel(frame, |frame| {
                // As the worker loop builds it.
                let step_data = |out: &mut Vec<u8>| {
                    (0u32, superstep).put(out);
                    w.begin_into(out);
                    kind::STEP_DATA
                };
                frame::build(frame, step_data).unwrap();
            }));
            largest = largest.max(frame.len());
        }
        let received: Vec<Frame> = sent.iter().map(|f| frame::decode(f).unwrap().0).collect();
        let rows: Vec<_> = received
            .iter()
            .map(|f| match WorkerMsg::from_frame(f).unwrap() {
                WorkerMsg::StepData { rows, .. } => rows,
                other => panic!("not StepData: {other:?}"),
            })
            .collect();
        let inboxes: Vec<Frame> = (0..k)
            .map(|to| {
                let msg = DriverMsg::Inbox {
                    epoch: 0,
                    superstep,
                    rows: rows.iter().map(|r| r[to].clone()).collect(),
                };
                frame::decode(&msg.to_frame().unwrap()).unwrap().0
            })
            .collect();
        for ((w, frame), inbox) in workers.iter_mut().zip(&mut sent).zip(&inboxes) {
            above = above.max(above_kernel(frame, |_| {
                let DriverMsg::Inbox { rows, .. } = DriverMsg::from_frame(inbox).unwrap() else {
                    panic!("not an Inbox");
                };
                w.finish(&rows, superstep, agg).unwrap();
            }));
        }
        readings.push((largest, above));
    }
    readings
}

/// A pair of DeepWalk workers and a pair of PageRank workers over
/// `erdos_renyi(6000, 48000)` under Chunk-V, five supersteps each: above
/// its kernel, a worker holds at most the largest `StepData` it built plus
/// [`SLACK`] (read: the frame to the byte, 0 to 64 bytes beside it). A
/// worker that encoded each segment, then copied them all into a frame,
/// held about twice its frame; one that decoded an inbox segment before
/// queueing its walkers, its frame plus the walkers.
#[test]
fn a_worker_holds_one_frame_beside_its_kernel() {
    let graph = Arc::new(generate::erdos_renyi(6000, 48000, 5));
    let cluster = Cluster::new(graph.clone(), Arc::new(ChunkV.partition(&graph, 2)));
    let walk = |m| -> Box<dyn Worker> {
        Box::new(WalkWorker::new(
            Box::new(DeepWalk::new(6)),
            cluster.clone(),
            m,
            11,
            1,
        ))
    };
    let pagerank =
        |m| -> Box<dyn Worker> { Box::new(IterWorker::new(PageRank::new(5), cluster.clone(), m)) };
    for (app, workers) in [
        ("deepwalk", vec![walk(0), walk(1)]),
        ("pagerank", vec![pagerank(0), pagerank(1)]),
    ] {
        for (superstep, (largest, above)) in drive(workers, 5).into_iter().enumerate() {
            eprintln!(
                "{app} superstep {superstep}: {above} bytes above the kernels, \
                 largest frame {largest}"
            );
            assert!(largest > 8 * SLACK, "{app}: a frame of {largest} bytes");
            assert!(
                above <= largest + SLACK,
                "{app} superstep {superstep}: a worker held {above} bytes above its kernel, \
                 {:.2} x its largest frame of {largest}",
                above as f64 / largest as f64
            );
        }
    }
}

//! What the binary decoder reserves for a reader whose length it cannot
//! know: a header may declare any count, the arrays must grow only with
//! the bytes that arrive. Observed through the allocator, so this file
//! holds one test and is its own binary.

use bpart_graph::io;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, noting the largest single request it has seen.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_header_declaring_2_pow_40_edges_reserves_only_for_bytes_that_came() {
    const DECLARED: u64 = 1 << 40;
    // A well-formed header and offsets array for 3 vertices and 2⁴⁰ edges,
    // then 1 MiB of (valid) targets where 4 TiB were promised.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"BPGR");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&3u64.to_le_bytes());
    bytes.extend_from_slice(&DECLARED.to_le_bytes());
    for offset in [0, DECLARED, DECLARED, DECLARED] {
        bytes.extend_from_slice(&offset.to_le_bytes());
    }
    bytes.resize(bytes.len() + (1 << 20), 0);

    LARGEST.store(0, Ordering::Relaxed);
    let err = io::read_binary(bytes.as_slice()).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(err.to_string().contains("truncated targets"), "{err}");
    // A growing `Vec` at most doubles; nothing may be sized by the header.
    assert!(
        largest <= 4 * bytes.len(),
        "{largest} bytes requested at once for {} that came",
        bytes.len()
    );
}

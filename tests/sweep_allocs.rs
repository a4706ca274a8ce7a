//! Allocation regression for the `WReachIndex` ball sweep. The build must
//! stay `O(workers)` in allocation count — one epoch-stamped `BfsScratch`
//! and one chunk buffer per worker, amortised buffer growth, one final CSR —
//! never `Θ(n)` fresh vectors (the seed's per-ball `vec![false; n]` pattern
//! the flat index replaced).
//!
//! Lives in its own integration-test binary so the counting global allocator
//! sees no interference from unrelated tests running on sibling threads.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use bedom::distsim::ExecutionStrategy;
use bedom::graph::generators::stacked_triangulation;
use bedom::wcol::{degeneracy_based_order, WReachIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn index_build_allocation_count_stays_sublinear_in_n() {
    let n = 20_000;
    let g = stacked_triangulation(n, 3);
    let order = degeneracy_based_order(&g);
    // Warm thread-local state (the BALL_SWEEPS counter) out of the count.
    let warm = WReachIndex::build_with(&g, &order, 2, ExecutionStrategy::Sequential);
    let allocs = count_allocs(|| {
        let index = WReachIndex::build_with(&g, &order, 2, ExecutionStrategy::Sequential);
        assert_eq!(index, warm);
    });
    // The sequential build measured 38 allocations here (one scratch, one
    // chunk, amortised `Vec` growth, the CSR arrays). The budget leaves room
    // for growth-policy changes, but a Θ(n) per-source allocation regression
    // (≥ 20 000) still trips it.
    assert!(
        allocs < 256,
        "index build performed {allocs} allocations on n = {n} \
         (budget 256): a per-source allocation has crept back in"
    );
}

//! Counting-allocator proof that the pivot ring keeps the hot path
//! allocation-free: on an index that keeps a ring, a warmed-up
//! [`QueryContext`] holds the query's pivot distances, and steady-state
//! queries never touch the global allocator.
//!
//! One `#[test]` on purpose, as in `zero_alloc.rs`: the counter is
//! process-global.

use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
use pm_lsh_metric::{Dataset, Neighbor};
use pm_lsh_stats::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to [`System`] — every contract (layout
// validity, pointer provenance) is forwarded unchanged; the counter is an
// atomic and allocation-free.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; delegated to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller upholds GlobalAlloc's contract; delegated to System.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller upholds GlobalAlloc's contract; delegated to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds GlobalAlloc's contract; delegated to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `n` rows in `R^d` around 8 centers, each cluster spread along a plane:
/// data that separates well, so the build keeps a ring.
fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(0xc1);
    let mut centers = vec![0.0f32; 8 * d];
    let mut basis = vec![0.0f32; 16 * d];
    rng.fill_normal(&mut centers);
    rng.fill_normal(&mut basis);
    let mut rng = Rng::new(seed);
    let mut ds = Dataset::with_capacity(d, n);
    let mut row = vec![0.0f32; d];
    for i in 0..n {
        let c = i % 8;
        let (a, b) = (rng.normal_f32() * 2.0, rng.normal_f32() * 2.0);
        for (j, v) in row.iter_mut().enumerate() {
            let axis = |k: usize| basis[(2 * c + k) * d + j];
            *v = centers[c * d + j] + a * axis(0) + b * axis(1) + 0.01 * rng.normal_f32();
        }
        ds.push(&row);
    }
    ds
}

#[test]
fn steady_state_queries_on_a_ring_do_not_allocate() {
    const K: usize = 10;
    let index = PmLsh::build(clustered(1500, 256, 5), PmLshParams::paper_defaults());
    assert!(index.ring().is_some(), "clustered rows keep a ring");
    let queries = clustered(12, 256, 6);
    let c = index.params().c;
    let mut ctx = QueryContext::new();
    let mut out: Vec<Neighbor> = Vec::new();
    for q in queries.iter() {
        index.query_into(q, K, c, &mut ctx, &mut out);
        index.query_fanout_into(q, K, 600, &mut ctx, &mut out);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        for q in queries.iter() {
            index.query_into(q, K, c, &mut ctx, &mut out);
            index.query_fanout_into(q, K, 600, &mut ctx, &mut out);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state ring queries must not allocate"
    );
}

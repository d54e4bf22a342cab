//! Counting-allocator proof that the verification filter keeps the hot
//! path allocation-free: on an index that keeps a principal subspace, a
//! warmed-up [`QueryContext`] holds the query's offset from the mean and
//! its coordinates, and steady-state queries never touch the global
//! allocator.
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

/// `n` rows in `R^d` near a 4-dimensional subspace (Gaussian along 4 fixed
/// random axes, a little noise off them), so the build keeps a principal
/// subspace.
fn low_rank(n: usize, d: usize, seed: u64) -> Dataset {
    let mut axes = vec![0.0f32; 4 * d];
    Rng::new(0xc1).fill_normal(&mut axes);
    let mut rng = Rng::new(seed);
    let mut ds = Dataset::with_capacity(d, n);
    let mut row = vec![0.0f32; d];
    for _ in 0..n {
        let mut c = [0.0f32; 4];
        rng.fill_normal(&mut c);
        for (j, v) in row.iter_mut().enumerate() {
            let along: f32 = (0..4).map(|k| c[k] * axes[k * d + j]).sum();
            *v = along + 0.01 * rng.normal_f32();
        }
        ds.push(&row);
    }
    ds
}

#[test]
fn steady_state_queries_on_a_ring_do_not_allocate() {
    const K: usize = 10;
    let index = PmLsh::build(low_rank(1500, 256, 5), PmLshParams::paper_defaults());
    assert!(index.subspace().is_some(), "low-rank rows keep a subspace");
    let queries = low_rank(12, 256, 6);
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
        "steady-state queries on a subspace must not allocate"
    );
}

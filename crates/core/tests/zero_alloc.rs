//! Counting-allocator proof of the hot path's zero-steady-state-allocation
//! claim: after warm-up, repeated queries through a reused [`QueryContext`]
//! never touch the global allocator.
//!
//! This file holds exactly one `#[test]` on purpose — the counter is
//! process-global, and a sibling test allocating on another libtest thread
//! would show up as a false positive.

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

#[test]
fn steady_state_queries_do_not_allocate() {
    const DIM: usize = 48;
    const N: usize = 1500;
    const K: usize = 10;

    let mut rng = Rng::new(404);
    let mut ds = Dataset::with_capacity(DIM, N);
    let mut buf = [0.0f32; DIM];
    for _ in 0..N {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    let mut queries: Vec<[f32; DIM]> = Vec::new();
    for _ in 0..8 {
        rng.fill_normal(&mut buf);
        queries.push(buf);
    }
    // A query well outside the cloud starts far below the radius that
    // reaches anything, so it enlarges the radius several times: the
    // traversal's waiting list is partitioned and its run refilled warm.
    queries.push(queries[0].map(|x| 3.0 * x));
    let index = PmLsh::build(ds, PmLshParams::default());
    let c = index.params().c;

    let mut ctx = QueryContext::new();
    let mut out: Vec<Neighbor> = Vec::new();

    // Warm-up: every buffer (projection, traversal lists, row bitmap, top-k
    // heap, output vector) grows to its high-water mark for this exact
    // workload.
    let mut warm = Vec::new();
    let mut rounds = 0;
    for q in &queries {
        rounds = index.query_into(q, K, c, &mut ctx, &mut out).rounds;
        warm.push(out.clone());
    }
    assert!(rounds >= 3, "the far query took {rounds} rounds");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..25 {
        for q in &queries {
            index.query_into(q, K, c, &mut ctx, &mut out);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state query_into calls must not allocate"
    );

    // The silent part of the contract: the allocation-free queries still
    // answered correctly (same result as the warm-up pass).
    index.query_into(queries.last().unwrap(), K, c, &mut ctx, &mut out);
    assert_eq!(&out, warm.last().unwrap());

    // query_bc shares the same buffers; it must be allocation-free at
    // steady state too.
    let r = index.select_rmin(K);
    let warm_bc = index.query_bc(&queries[0], r, &mut ctx);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..25 {
        let got = index.query_bc(&queries[0], r, &mut ctx);
        assert_eq!(got, warm_bc);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state query_bc calls must not allocate"
    );

    // So must a fan-out leg, whose budget a round's set is cut to (one
    // select, below n) or never reaches (above n).
    for budget in [N / 3, 2 * N] {
        for q in &queries {
            index.query_fanout_into(q, K, budget, &mut ctx, &mut out);
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..10 {
            for q in &queries {
                let stats = index.query_fanout_into(q, K, budget, &mut ctx, &mut out);
                assert_eq!(stats.candidates_verified, budget.min(N));
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "steady-state query_fanout_into calls (budget {budget}) must not allocate"
        );
    }
}

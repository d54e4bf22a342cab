//! lint: hot-path
//!
//! Reusable per-thread query state.
//!
//! Every query needs a projected-query buffer (`m` floats), the PM-tree
//! traversal's lists, a bitmap that puts each round's candidates in row
//! order and a top-k collector. Allocating them per query is invisible for
//! one-off calls but dominates small-`d` serving workloads; a
//! [`QueryContext`] owns all four and is threaded through
//! [`crate::PmLsh::query_into`], [`crate::PmLsh::query_fanout_into`] and
//! [`crate::PmLsh::query_bc`] so repeated queries run without touching the
//! allocator at steady state (asserted by `crates/core/tests/zero_alloc.rs`
//! with a counting global allocator).
//!
//! A context is **not** tied to an index: the engine keeps one per worker
//! thread and reuses it across reindex snapshot swaps — buffers simply
//! resize on the next query. Results are bit-identical with or without a
//! context; reuse trades allocation, never accuracy.

use pm_lsh_metric::{Neighbor, TopK};
use pm_lsh_pmtree::CursorScratch;

/// Owned scratch space for the query hot path; see the module docs.
///
/// ```
/// use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
/// use pm_lsh_metric::Dataset;
/// use pm_lsh_stats::Rng;
///
/// let mut rng = Rng::new(11);
/// let mut ds = Dataset::with_capacity(24, 400);
/// let mut buf = [0.0f32; 24];
/// for _ in 0..400 {
///     rng.fill_normal(&mut buf);
///     ds.push(&buf);
/// }
/// let q = ds.point(3).to_vec();
/// let index = PmLsh::build(ds, PmLshParams::default());
///
/// let mut ctx = QueryContext::new();
/// let mut reused = Vec::new();
/// index.query_into(&q, 5, index.params().c, &mut ctx, &mut reused);
/// assert_eq!(reused, index.query(&q, 5).neighbors);
/// ```
#[derive(Debug)]
pub struct QueryContext {
    /// PM-tree traversal buffers (run, waiting regions and points, stack,
    /// pivot distances, query).
    pub(crate) scratch: CursorScratch,
    /// The projected query `q' = (h*_1(q), …, h*_m(q))`.
    pub(crate) qp: Vec<f32>,
    /// One bit per stored row of the index being queried: a round's
    /// candidates are marked here, then verified and cleared in one walk
    /// by ascending row id, so the bitmap is all zeros between rounds. A
    /// query zeroes it and sizes it to its index before the first round,
    /// which is what keeps a query that panicked mid-round from leaking
    /// marks into the next.
    pub(crate) marks: Vec<u64>,
    /// Top-k collector, reset per query.
    pub(crate) top: TopK,
    /// Where [`crate::PmLsh::query_bc`] receives its one answer, so
    /// Algorithm 1 stays allocation-free too.
    pub(crate) hit: Vec<Neighbor>,
}

impl QueryContext {
    /// An empty context. Almost nothing is allocated until the first
    /// query; capacities grow to the working-set high-water mark and then
    /// stay.
    pub fn new() -> Self {
        Self {
            scratch: CursorScratch::new(),
            // lint: allow(hot-path) -- one-time constructor; queries reuse the buffers
            qp: Vec::new(),
            // lint: allow(hot-path) -- one-time constructor; queries reuse the buffer
            marks: Vec::new(),
            // Placeholder k; every query resets the collector to its own k.
            top: TopK::new(1),
            // lint: allow(hot-path) -- one-time constructor; queries reuse the buffer
            hit: Vec::new(),
        }
    }
}

impl Default for QueryContext {
    fn default() -> Self {
        Self::new()
    }
}

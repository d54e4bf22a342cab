//! PM-tree: an M-tree augmented with global pivot hyper-rings.
//!
//! This is the metric index PM-LSH builds in the projected space
//! (Section 4.1, Fig. 4 of the paper). The crate provides:
//!
//! * [`tree::PmTree`] — one of two kinds, fixed when it is made. A
//!   *bulk-loaded tree* is the paper's structure: M-tree insertion with
//!   mM_RAD node splits and per-entry hyper-ring (`HR`) maintenance, static
//!   once built. `num_pivots = 0` degrades it to a plain M-tree (used by
//!   the Fig. 6 parameter ablation). A node is one contiguous block
//!   (`block.rs`): its entries at a fixed stride in a single allocation,
//!   each entry's Eq. 5 filter fields first — what a range query reads, in
//!   the order it reads it. A *column* ([`tree::PmTree::column`]) is the
//!   kind `pm-lsh-core` serves: the points alone, no pivot and no node,
//!   mutable (an insert appends a row, a delete moves the last row into
//!   the freed one). Either keeps its projected points in one row-indexed
//!   `points` column, stored as blocks of eight rows (column-major inside a
//!   block), a leaf entry's `internal` naming its row.
//!   [`tree::PmTreeParts`], the form a snapshot is written from and read
//!   back to, holds a column's rows and ids.
//! * [`bulk`] — `PmTree::build`, the one loader of a bulk-loaded tree:
//!   it partitions the points by nearest global pivot, grows one subtree
//!   per region by insertion, and splices them under a root of region
//!   pivots.
//! * [`cursor::RangeCursor`] — a round-at-a-time range query: each larger
//!   radius files the measured points within it into a run (one
//!   branchless split, no priority queue). `take_within(r, room)` hands a
//!   round out as an unordered set, cut to its first `room` by (projected
//!   distance, id) with one select; `next_within(r)` yields it ascending,
//!   sorting the run only when a caller first asks. The points come from
//!   one of two sources with identical yields, by the tree's kind. On a
//!   bulk-loaded tree each round is one textbook range traversal over what
//!   earlier rounds left unopened, with the paper's discipline: an entry
//!   pays its exact distance — once, in full; fifteen multiply-adds at
//!   m = 15 are not worth abandoning — only after the distance-free
//!   filters of Eq. 5 fail to keep it outside the radius. On a column the
//!   cursor instead measures every point once, in its first round: one
//!   unit-stride pass over the `points` column, eight rows per step, that
//!   keeps every row's distance for the later rounds to filter. That is
//!   cheaper at the candidate budgets Algorithm 2 spends. Every projected
//!   distance is the portable scalar kernel's, so both sources — and every
//!   CPU — agree to the bit. `take_within(r, room)` is the building block
//!   of the paper's radius-enlarging Algorithm 2, and plain `next()`
//!   provides exact incremental NN search by enlarging its own radius.
//!   [`cursor::CursorScratch`] recycles the cursor's buffers across
//!   queries, so a serving loop stops allocating once warm.
//! * [`cost::expected_distance_computations`] — the node-based cost model of
//!   Eqs. 5–7 that regenerates the PM-tree column of Table 2.

#![warn(missing_docs)]

pub(crate) mod block;
pub mod bulk;
pub mod cost;
pub mod cursor;
pub mod pivots;
pub mod tree;

pub use cost::expected_distance_computations;
pub use cursor::{CursorScratch, RangeCursor, Round};
pub use pivots::select_pivots;
pub use tree::{PmTree, PmTreeConfig, PmTreeParts};

/// Index of a node inside the tree arena.
pub type NodeId = u32;

/// The distance every part of the tree measures in the projected space:
/// the portable scalar kernel's, bit-identical on every CPU and to each
/// row of the sweep's block kernel ([`pm_lsh_metric::sq_dist_blocks`]).
/// Build, traversal and sweep therefore agree to the bit, and a tree is
/// the same tree on every CPU.
#[inline]
pub(crate) fn projected_dist(a: &[f32], b: &[f32]) -> f32 {
    pm_lsh_metric::simd::kernels::sq_dist(pm_lsh_metric::SimdLevel::Scalar, a, b).sqrt()
}

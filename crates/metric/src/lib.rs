//! Dense `f32` vector datasets and Euclidean distance kernels — the
//! paper's problem setting (Section 2: points in `R^d` under `l_2`) as
//! types.
//!
//! This crate is the lowest layer of the PM-LSH workspace. Every other crate
//! (the PM-tree, the R-tree, the LSH hash family, the query algorithms and the
//! benchmark harness) manipulates points through the types defined here:
//!
//! * [`Dataset`] — an owned, row-major `n x dim` matrix of `f32`, the in-memory
//!   representation of both the original `d`-dimensional data and the
//!   `m`-dimensional projected data.
//! * [`MatrixView`] — a borrowed view over the same layout, used by indexes
//!   that do not own their points.
//! * [`RowStore`] — an append-only row store: a shared [`Dataset`] base
//!   and a tail of shared [`CHUNK_ROWS`]-row chunks, so a copy-on-write
//!   append copies one chunk, not every row.
//! * [`dist`] — Euclidean kernels (`sq_dist`, `sq_dist_blocks`,
//!   `sq_dist_within`, `sq_dist_rows_within`, `euclidean`, `dot`).
//! * [`simd`] — the runtime-dispatched kernel implementations behind
//!   [`dist`]: AVX2+FMA / SSE2 on x86-64, NEON on aarch64, a portable
//!   scalar loop elsewhere (and under `PMLSH_FORCE_SCALAR=1`).
//! * [`topk`] — a bounded max-heap for k-nearest-neighbor selection.

#![warn(missing_docs)]

pub mod dataset;
pub mod dist;
pub mod simd;
pub mod store;
pub mod topk;
pub mod view;

pub use dataset::Dataset;
pub use dist::{
    dot, euclidean, norm, sq_dist, sq_dist_blocks, sq_dist_rows_within, sq_dist_within, BLOCK_ROWS,
};
pub use simd::SimdLevel;
pub use store::{RowStore, CHUNK_ROWS};
pub use topk::{Neighbor, TopK};
pub use view::MatrixView;

/// Identifier of a point inside a [`Dataset`].
///
/// `u32` keeps index entries small (the paper's largest dataset has 10^6
/// points); use [`PointId::MAX`] as a sentinel where needed.
pub type PointId = u32;

//! Euclidean distance kernels.
//!
//! All hot paths of the workspace funnel through [`sq_dist`]: PM-tree and
//! R-tree traversals in the m-dimensional projected space (m = 15 in the
//! paper) and candidate verification in the original d-dimensional space
//! (d up to 4096 for Trevi). The actual arithmetic lives in
//! [`crate::simd`], which picks an implementation per process at first
//! use — AVX2+FMA or SSE2 on x86-64, NEON on aarch64, a portable
//! 4-accumulator scalar loop everywhere else (and under
//! `PMLSH_FORCE_SCALAR=1`).
//!
//! [`sq_dist_rows`] is the sweep variant: one dispatch for a whole
//! row-major column, each row bit-equal to [`sq_dist`].
//!
//! [`sq_dist_within`] is the verification-loop variant: it stops
//! accumulating as soon as the partial sum strictly exceeds a caller
//! bound, so candidates that cannot displace the current k-th neighbor
//! never pay the full `d`-length loop.
//!
//! [`sq_dist_rows_within`] is the whole verification loop: one dispatch
//! for a walk over named rows of a row store, each row measured like
//! [`sq_dist_within`] against a bound the caller moves as rows are kept,
//! with a read-ahead of the rows to come.

use crate::simd::{self, Runnable};
use crate::PointId;

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length (in every build profile — a
/// silent truncation would mask real dimensionality bugs at full speed).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    simd::sq_dist_dispatch(Runnable::active(), a, b)
}

/// Early-abandoning squared Euclidean distance.
///
/// Accumulates `||a - b||²` in blocks and returns as soon as the partial
/// sum *strictly* exceeds `bound` (a partial sum exactly equal to the
/// bound keeps accumulating). Since every term is non-negative, the
/// partial sum is a lower bound on the full distance, so:
///
/// * the returned value is `> bound` **iff** [`sq_dist`] would be
///   `> bound`, and
/// * whenever the returned value is `<= bound` it is **bit-identical** to
///   [`sq_dist`] (same kernel, same accumulation order — abandonment can
///   skip work but never changes a kept result).
///
/// Pass [`f32::INFINITY`] to disable abandonment entirely.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn sq_dist_within(a: &[f32], b: &[f32], bound: f32) -> f32 {
    simd::sq_dist_within_dispatch(Runnable::active(), a, b, bound)
}

/// Squared Euclidean distances from `q` to every consecutive `q.len()`-float
/// row of `rows`, handed to `each` in row order.
///
/// This is the kernel for sweeping a row-major column of points: the kernel
/// level is dispatched once for the whole run, not once per row, and each
/// row goes through the same kernel body as [`sq_dist`], so every value is
/// **bit-identical** to `sq_dist(q, row)`.
///
/// # Panics
/// Panics if `q` is empty or `rows.len()` is not a multiple of `q.len()`.
#[inline]
pub fn sq_dist_rows(q: &[f32], rows: &[f32], each: impl FnMut(f32)) {
    simd::sq_dist_rows_dispatch(Runnable::active(), q, rows, each)
}

/// Early-abandoning squared distances from `q` to the rows of the
/// row-major column `rows` that `ids` names (row `id` is
/// `rows[id·d .. (id+1)·d]`, `d = q.len()`), in the order `ids` yields them.
///
/// Each row is measured as [`sq_dist_within`] would measure it against the
/// bound in force, which starts at `bound`. A kept row — squared distance
/// `<= bound`, and then bit-identical to [`sq_dist`] — is handed to `keep`
/// as `(id, sq)`, and `keep` returns the bound for the rows after it. A row
/// whose distance exceeds the bound is abandoned and never reaches `keep`.
///
/// The kernel level is dispatched once for the whole walk. On x86-64 the
/// walk also asks the memory system for the front of the row two
/// candidates ahead; a prefetch is a hint, so it changes no value.
///
/// # Panics
/// Panics if `q` is empty, `rows.len()` is not a multiple of `q.len()`, or
/// an id names a row past the end of `rows`.
#[inline]
pub fn sq_dist_rows_within(
    q: &[f32],
    rows: &[f32],
    ids: impl IntoIterator<Item = PointId>,
    bound: f32,
    keep: impl FnMut(PointId, f32) -> f32,
) {
    simd::sq_dist_rows_within_dispatch(Runnable::active(), q, rows, ids, bound, keep)
}

/// Euclidean distance `||a - b||`.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

/// Dot product `a · b` (used by the Gaussian projections `h*(o) = a · o`).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    simd::dot_dispatch(Runnable::active(), a, b)
}

/// Euclidean norm `||a||`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// L1 (Manhattan) distance. Only used by the Fig. 3 estimator study, where
/// the paper compares the L2 estimator against an L1 alternative.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn l1_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "l1_dist: slice length mismatch ({} vs {})",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn pythagoras() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn matches_naive_on_awkward_lengths() {
        // exercise every remainder branch: len % 8 in {0..7}
        for len in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 33] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32) * -0.25 + 1.0).collect();
            let got = sq_dist(&a, &b);
            let want = naive_sq(&a, &b);
            assert!((got - want).abs() <= 1e-4 * want.max(1.0), "len {len}");
        }
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn l1_matches_manual() {
        assert_eq!(l1_dist(&[1.0, -2.0], &[-1.0, 3.0]), 7.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let a = [0.25f32, -7.5, 3.25, 0.0, 9.0];
        assert_eq!(sq_dist(&a, &a), 0.0);
        assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    fn within_with_infinite_bound_equals_full() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32) * 0.1).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32) * -0.2 + 5.0).collect();
        assert_eq!(sq_dist_within(&a, &b, f32::INFINITY), sq_dist(&a, &b));
    }

    #[test]
    fn within_bound_is_strict() {
        // A partial (or full) sum exactly equal to the bound must NOT count
        // as abandoned: the kept value comes back exact.
        let a = [3.0f32, 0.0, 0.0, 0.0];
        let b = [0.0f32, 4.0, 0.0, 0.0];
        let full = sq_dist(&a, &b); // 25.0
        assert_eq!(sq_dist_within(&a, &b, full), full);
        assert!(sq_dist_within(&a, &b, 24.9) > 24.9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sq_dist_rejects_length_mismatch() {
        let _ = sq_dist(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sq_dist_within_rejects_length_mismatch() {
        let _ = sq_dist_within(&[1.0, 2.0, 3.0], &[1.0], 10.0);
    }
}

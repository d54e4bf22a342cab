//! lint: hot-path
//!
//! Runtime-dispatched SIMD kernels behind [`crate::dist`].
//!
//! Each of the five public entry points ([`crate::sq_dist`],
//! [`crate::sq_dist_within`], [`crate::dot`], [`crate::sq_dist_rows`],
//! [`crate::sq_dist_rows_within`]) has one dispatcher here, which takes
//! the kernel level as an argument. The entry points pass the level
//! [`active_level`] picks once per process:
//!
//! * **x86-64** — SSE2 is the architectural baseline and is always
//!   available; AVX2 + FMA is selected when the CPU reports both (runtime
//!   detection, no compile-time `target-feature` flags needed).
//! * **aarch64** — NEON is the architectural baseline.
//! * anything else — the portable scalar kernel.
//!
//! Setting `PMLSH_FORCE_SCALAR=1` in the environment pins the scalar
//! kernel regardless of hardware (read once, at first use).
//!
//! [`kernels`] passes any level this CPU can run
//! ([`SimdLevel::is_available`]) to the same dispatchers, so a test or a
//! bench reaches every level through the arms production runs.
//!
//! # Numerical contract
//!
//! The scalar kernel keeps the historical 4-lane accumulator order
//! (`(s0 + s1) + (s2 + s3)`), and the SSE2/NEON kernels reproduce exactly
//! that order with one 4-lane register — their results are **bit-identical**
//! to the scalar kernel on every input. The AVX2+FMA kernel uses 8 lanes
//! and fused multiply-adds, so it may differ from scalar/SSE2 in the last
//! ulps; the property tests in `tests/kernel_parity.rs` pin both claims.
//!
//! Each row kernel (`sq_dist_rows_*`) runs the full squared-distance body
//! of its level on every row, behind one dispatch for the whole run, so it
//! is bit-identical to that level's [`crate::sq_dist`] row by row.
//!
//! Each early-abandoning `*_within` kernel shares its accumulation loop
//! with the corresponding full kernel (one generic body, `CHECK` toggled at
//! compile time), so a candidate that is *not* abandoned produces exactly
//! the full kernel's value — early abandonment can only skip work, never
//! change a kept result.
//!
//! Each row-verification kernel (`sq_dist_rows_within_*`) runs its level's
//! early-abandoning body on the rows a caller names, behind one dispatch
//! for the whole walk, and asks for the first `PREFETCH_LINES` cache
//! lines of the row `READ_AHEAD` candidates ahead (x86-64 only; the
//! scalar and NEON walks read no ahead). A prefetch is a hint, so kept
//! values and abandons are those of that level's [`crate::sq_dist_within`].

use crate::PointId;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable 4-accumulator scalar loop (also the `PMLSH_FORCE_SCALAR`
    /// fallback).
    Scalar,
    /// x86-64 SSE2 (baseline); bit-identical to [`SimdLevel::Scalar`].
    Sse2,
    /// x86-64 AVX2 + FMA (runtime-detected); may differ from scalar in the
    /// last ulps.
    Avx2Fma,
    /// aarch64 NEON (baseline); bit-identical to [`SimdLevel::Scalar`].
    Neon,
}

impl SimdLevel {
    /// `true` when this CPU can run the level's kernels: scalar anywhere,
    /// SSE2 on any x86-64, AVX2+FMA on an x86-64 that reports both, NEON
    /// on any aarch64.
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma => false,
            SimdLevel::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Neon => "neon",
        };
        f.write_str(s)
    }
}

const LEVEL_UNINIT: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_SSE2: u8 = 2;
const LEVEL_AVX2: u8 = 3;
const LEVEL_NEON: u8 = 4;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The kernel level every distance call in this process dispatches to
/// (detected once, then cached).
#[inline]
pub fn active_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => SimdLevel::Scalar,
        LEVEL_SSE2 => SimdLevel::Sse2,
        LEVEL_AVX2 => SimdLevel::Avx2Fma,
        LEVEL_NEON => SimdLevel::Neon,
        _ => detect_level(),
    }
}

#[cold]
fn detect_level() -> SimdLevel {
    let level = if scalar_forced_by_env() {
        SimdLevel::Scalar
    } else {
        // The fastest level this CPU runs; SSE2 and NEON are their
        // architectures' baselines.
        [SimdLevel::Avx2Fma, SimdLevel::Sse2, SimdLevel::Neon]
            .into_iter()
            .find(|level| level.is_available())
            .unwrap_or(SimdLevel::Scalar)
    };
    let code = match level {
        SimdLevel::Scalar => LEVEL_SCALAR,
        SimdLevel::Sse2 => LEVEL_SSE2,
        SimdLevel::Avx2Fma => LEVEL_AVX2,
        SimdLevel::Neon => LEVEL_NEON,
    };
    LEVEL.store(code, Ordering::Relaxed);
    level
}

/// `true` when `PMLSH_FORCE_SCALAR` is set to anything but `""` or `"0"`.
fn scalar_forced_by_env() -> bool {
    match std::env::var("PMLSH_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// A [`SimdLevel`] this CPU can run. Only [`Runnable::active`] and
/// [`Runnable::checked`] make one, so a dispatcher handed one may call
/// that level's kernels.
#[derive(Clone, Copy)]
pub(crate) struct Runnable(SimdLevel);

impl Runnable {
    /// The level the public entry points run ([`active_level`] names a
    /// SIMD level only after detecting it).
    #[inline]
    pub(crate) fn active() -> Self {
        Runnable(active_level())
    }

    /// # Panics
    /// Panics when this CPU cannot run `level`.
    fn checked(level: SimdLevel) -> Self {
        assert!(
            level.is_available(),
            "the {level} kernels cannot run on this CPU"
        );
        Runnable(level)
    }
}

// How many 4-lane blocks the scalar/SSE2/NEON kernels accumulate between
// two early-abandon checks (a check costs a horizontal sum, amortized
// over 16 floats). The AVX2 kernel uses its own cadence: one check per
// two 32-float iterations, i.e. every 64 floats.
const CHECK_STRIDE: usize = 4;

/// How many candidates ahead of the row it measures a row-verification
/// walk asks for a row. The next rows are known before the current one is
/// measured, and two rows' time is enough for the request to land.
const READ_AHEAD: usize = 2;

/// How many 64-byte lines of a row the walk asks for: all of an Audio row
/// (768 B is 12 lines) but the front of a long one. Early abandonment reads
/// about a quarter of a 16 KiB Trevi row, so asking for a whole long row
/// wastes bandwidth on the part that is never read.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const PREFETCH_LINES: usize = 8;

/// The row-verification walk every level shares: row `id` of `rows` is
/// `rows[id·d .. (id+1)·d]`. Each row is measured with `measure` against
/// the bound in force; a kept `(id, sq)` goes to `keep`, which returns the
/// bound for the rows after it. `prefetch` is handed the row
/// [`READ_AHEAD`] candidates ahead of the one being measured.
#[inline(always)]
fn walk_rows(
    d: usize,
    rows: &[f32],
    ids: impl IntoIterator<Item = PointId>,
    mut bound: f32,
    mut keep: impl FnMut(PointId, f32) -> f32,
    measure: impl Fn(&[f32], f32) -> f32,
    prefetch: impl Fn(&[f32]),
) {
    let row = |id: PointId| &rows[id as usize * d..][..d];
    let mut ids = ids.into_iter();
    // The next `pending` ids in walk order, from `ahead[head]` on, cyclic.
    let mut ahead = [0 as PointId; READ_AHEAD];
    let mut pending = 0;
    for slot in &mut ahead {
        let Some(id) = ids.next() else { break };
        prefetch(row(id));
        *slot = id;
        pending += 1;
    }
    let mut head = 0;
    while pending > 0 {
        let id = ahead[head];
        match ids.next() {
            Some(next) => {
                prefetch(row(next));
                ahead[head] = next;
            }
            // Once the ids run out, the slots left behind trail the
            // pending ones and are never read.
            None => pending -= 1,
        }
        head = (head + 1) % READ_AHEAD;
        let sq = measure(row(id), bound);
        if sq <= bound {
            bound = keep(id, sq);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (also the reference the SIMD paths are tested against).
// ---------------------------------------------------------------------------

/// One generic body for both the full and the early-abandoning scalar
/// squared-distance loop: `CHECK = false` compiles the bound test away and
/// reproduces the historical kernel instruction-for-instruction.
#[inline(always)]
fn sq_dist_scalar_impl<const CHECK: bool>(a: &[f32], b: &[f32], bound: f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut i = 0usize;
    while i < chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 1;
        if CHECK && i.is_multiple_of(CHECK_STRIDE) {
            let partial = (s0 + s1) + (s2 + s3);
            if partial > bound {
                return partial;
            }
        }
    }
    let mut sum = (s0 + s1) + (s2 + s3);
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        sum += d * d;
    }
    sum
}

#[inline(always)]
fn dot_scalar_impl(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut sum = (s0 + s1) + (s2 + s3);
    for j in chunks * 4..n {
        sum += a[j] * b[j];
    }
    sum
}

/// The scalar row kernel: [`sq_dist_scalar_impl`] on each row in turn.
#[inline(always)]
fn sq_dist_rows_scalar_impl(q: &[f32], rows: &[f32], mut each: impl FnMut(f32)) {
    for row in rows.chunks_exact(q.len()) {
        each(sq_dist_scalar_impl::<false>(q, row, f32::INFINITY));
    }
}

/// The scalar row-verification kernel: [`walk_rows`] over
/// [`sq_dist_scalar_impl`], with no read-ahead.
#[inline(always)]
fn sq_dist_rows_within_scalar_impl(
    q: &[f32],
    rows: &[f32],
    ids: impl IntoIterator<Item = PointId>,
    bound: f32,
    keep: impl FnMut(PointId, f32) -> f32,
) {
    let measure = |row: &[f32], bound| sq_dist_scalar_impl::<true>(q, row, bound);
    walk_rows(q.len(), rows, ids, bound, keep, measure, |_| {});
}

// ---------------------------------------------------------------------------
// x86-64: SSE2 (baseline) and AVX2 + FMA (runtime-detected).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{walk_rows, CHECK_STRIDE, PREFETCH_LINES};
    use crate::PointId;
    use core::arch::x86_64::*;

    /// Horizontal sum of a 4-lane register in the scalar kernel's order:
    /// `(l0 + l1) + (l2 + l3)` — the order is what makes SSE2 results
    /// bit-identical to the scalar kernel.
    ///
    /// # Safety
    /// Requires SSE2, which is the x86-64 baseline.
    #[inline(always)]
    unsafe fn hsum128(v: __m128) -> f32 {
        let swapped = _mm_shuffle_ps(v, v, 0b10_11_00_01); // [l1, l0, l3, l2]
        let pairs = _mm_add_ps(v, swapped); // [l0+l1, _, l2+l3, _]
        let hi = _mm_movehl_ps(pairs, pairs); // lane0 = l2+l3
        _mm_cvtss_f32(_mm_add_ss(pairs, hi)) // (l0+l1) + (l2+l3)
    }

    /// Horizontal sum of an 8-lane register: lanes `l` and `l+4` pair
    /// first, then the 4-lane order above. Any fixed order works here (the
    /// AVX2 kernel makes no bit-identicality promise); it only has to be
    /// the same for the full and the `within` variant, which share it.
    ///
    /// # Safety
    /// Caller must ensure AVX is available (the AVX2 kernels only run
    /// after runtime detection).
    #[inline(always)]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        hsum128(_mm_add_ps(lo, hi))
    }

    /// # Safety
    /// Caller must ensure SSE2 is available (always true on x86-64) and
    /// `a.len() == b.len()`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sq_dist_sse2_impl<const CHECK: bool>(
        a: &[f32],
        b: &[f32],
        bound: f32,
    ) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm_setzero_ps();
        let mut i = 0usize;
        while i < chunks {
            let d = _mm_sub_ps(_mm_loadu_ps(pa.add(i * 4)), _mm_loadu_ps(pb.add(i * 4)));
            acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
            i += 1;
            if CHECK && i.is_multiple_of(CHECK_STRIDE) {
                let partial = hsum128(acc);
                if partial > bound {
                    return partial;
                }
            }
        }
        let mut sum = hsum128(acc);
        for j in chunks * 4..n {
            let d = *a.get_unchecked(j) - *b.get_unchecked(j);
            sum += d * d;
        }
        sum
    }

    /// # Safety
    /// Caller must ensure SSE2 is available and `a.len() == b.len()`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dot_sse2_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            let prod = _mm_mul_ps(_mm_loadu_ps(pa.add(i * 4)), _mm_loadu_ps(pb.add(i * 4)));
            acc = _mm_add_ps(acc, prod);
        }
        let mut sum = hsum128(acc);
        for j in chunks * 4..n {
            sum += *a.get_unchecked(j) * *b.get_unchecked(j);
        }
        sum
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available and
    /// `a.len() == b.len()`.
    ///
    /// Four independent accumulators (32 floats per iteration) break the
    /// loop-carried FMA dependency chain — with one register the loop is
    /// bound by FMA *latency* (~4 cycles per 8 floats), with four it
    /// approaches FMA *throughput*. The `CHECK` variant tests the bound
    /// once per 64 floats (every other iteration), amortizing the
    /// horizontal sum.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sq_dist_avx2_impl<const CHECK: bool>(
        a: &[f32],
        b: &[f32],
        bound: f32,
    ) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let wide = n / 32;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i < wide {
            let j = i * 32;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(j + 8)),
                _mm256_loadu_ps(pb.add(j + 8)),
            );
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(j + 16)),
                _mm256_loadu_ps(pb.add(j + 16)),
            );
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(j + 24)),
                _mm256_loadu_ps(pb.add(j + 24)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 1;
            // Check every other 32-float iteration: one horizontal sum per
            // 64 floats keeps the overhead for never-abandoned candidates
            // small while still cutting abandoned ones off early.
            if CHECK && i.is_multiple_of(2) {
                let partial = hsum256(_mm256_add_ps(
                    _mm256_add_ps(acc0, acc1),
                    _mm256_add_ps(acc2, acc3),
                ));
                if partial > bound {
                    return partial;
                }
            }
        }
        // Fold the four chains and finish the remaining <32 floats with
        // single-register 8-blocks, then a scalar tail — identically in
        // both CHECK variants, so kept results stay bit-equal to the full
        // kernel.
        let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let chunks = n / 8;
        let mut c = wide * 4;
        while c < chunks {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(c * 8)),
                _mm256_loadu_ps(pb.add(c * 8)),
            );
            acc = _mm256_fmadd_ps(d, d, acc);
            c += 1;
        }
        let mut sum = hsum256(acc);
        for j in chunks * 8..n {
            let d = *a.get_unchecked(j) - *b.get_unchecked(j);
            sum += d * d;
        }
        sum
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available and
    /// `a.len() == b.len()`.
    ///
    /// Same four-chain structure as [`sq_dist_avx2_impl`]; the Gaussian
    /// projection (`m` dots of a `d`-vector per query) is the other half
    /// of the hot path.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_avx2_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let wide = n / 32;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for i in 0..wide {
            let j = i * 32;
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(j + 8)),
                _mm256_loadu_ps(pb.add(j + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(j + 16)),
                _mm256_loadu_ps(pb.add(j + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(j + 24)),
                _mm256_loadu_ps(pb.add(j + 24)),
                acc3,
            );
        }
        let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let chunks = n / 8;
        for c in wide * 4..chunks {
            acc = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(c * 8)),
                _mm256_loadu_ps(pb.add(c * 8)),
                acc,
            );
        }
        let mut sum = hsum256(acc);
        for j in chunks * 8..n {
            sum += *a.get_unchecked(j) * *b.get_unchecked(j);
        }
        sum
    }

    /// # Safety
    /// Caller must ensure SSE2 is available and `q` is not empty.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sq_dist_rows_sse2(q: &[f32], rows: &[f32], mut each: impl FnMut(f32)) {
        for row in rows.chunks_exact(q.len()) {
            each(sq_dist_sse2_impl::<false>(q, row, f32::INFINITY));
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available and `q` is not empty.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sq_dist_rows_avx2(q: &[f32], rows: &[f32], mut each: impl FnMut(f32)) {
        for row in rows.chunks_exact(q.len()) {
            each(sq_dist_avx2_impl::<false>(q, row, f32::INFINITY));
        }
    }

    /// Asks for the first [`PREFETCH_LINES`] 64-byte lines of `row`.
    #[inline(always)]
    fn prefetch_row(row: &[f32]) {
        for line in row.chunks(16).take(PREFETCH_LINES) {
            // SAFETY: a prefetch is a hint that neither faults nor changes
            // memory, SSE is the x86-64 baseline, and the address lies
            // inside `row`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
        }
    }

    /// # Safety
    /// Caller must ensure SSE2 is available and `q` is not empty.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sq_dist_rows_within_sse2(
        q: &[f32],
        rows: &[f32],
        ids: impl IntoIterator<Item = PointId>,
        bound: f32,
        keep: impl FnMut(PointId, f32) -> f32,
    ) {
        // SAFETY: this function's own contract (SSE2) covers the kernel;
        // every row is a `q.len()` slice.
        let measure = |row: &[f32], bound| unsafe { sq_dist_sse2_impl::<true>(q, row, bound) };
        walk_rows(q.len(), rows, ids, bound, keep, measure, prefetch_row);
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available and `q` is not empty.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sq_dist_rows_within_avx2(
        q: &[f32],
        rows: &[f32],
        ids: impl IntoIterator<Item = PointId>,
        bound: f32,
        keep: impl FnMut(PointId, f32) -> f32,
    ) {
        // SAFETY: this function's own contract (AVX2 + FMA) covers the
        // kernel; every row is a `q.len()` slice.
        let measure = |row: &[f32], bound| unsafe { sq_dist_avx2_impl::<true>(q, row, bound) };
        walk_rows(q.len(), rows, ids, bound, keep, measure, prefetch_row);
    }
}

// ---------------------------------------------------------------------------
// aarch64: NEON (baseline — no runtime detection needed).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{walk_rows, CHECK_STRIDE};
    use crate::PointId;
    use core::arch::aarch64::*;

    /// Horizontal sum in the scalar kernel's `(l0 + l1) + (l2 + l3)` order
    /// (so NEON stays bit-identical to scalar; `vaddvq_f32` would not be).
    ///
    /// # Safety
    /// Requires NEON, which is the aarch64 baseline.
    #[inline(always)]
    unsafe fn hsum(v: float32x4_t) -> f32 {
        (vgetq_lane_f32::<0>(v) + vgetq_lane_f32::<1>(v))
            + (vgetq_lane_f32::<2>(v) + vgetq_lane_f32::<3>(v))
    }

    /// # Safety
    /// Caller must ensure `a.len() == b.len()`.
    #[inline]
    pub(super) unsafe fn sq_dist_neon_impl<const CHECK: bool>(
        a: &[f32],
        b: &[f32],
        bound: f32,
    ) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i < chunks {
            let d = vsubq_f32(vld1q_f32(pa.add(i * 4)), vld1q_f32(pb.add(i * 4)));
            // vmulq + vaddq (not vfmaq): an FMA would round differently
            // from the scalar kernel and break bit-identicality.
            acc = vaddq_f32(acc, vmulq_f32(d, d));
            i += 1;
            if CHECK && i.is_multiple_of(CHECK_STRIDE) {
                let partial = hsum(acc);
                if partial > bound {
                    return partial;
                }
            }
        }
        let mut sum = hsum(acc);
        for j in chunks * 4..n {
            let d = *a.get_unchecked(j) - *b.get_unchecked(j);
            sum += d * d;
        }
        sum
    }

    /// # Safety
    /// Caller must ensure `a.len() == b.len()`.
    #[inline]
    pub(super) unsafe fn dot_neon_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let prod = vmulq_f32(vld1q_f32(pa.add(i * 4)), vld1q_f32(pb.add(i * 4)));
            acc = vaddq_f32(acc, prod);
        }
        let mut sum = hsum(acc);
        for j in chunks * 4..n {
            sum += *a.get_unchecked(j) * *b.get_unchecked(j);
        }
        sum
    }

    /// # Safety
    /// Caller must ensure `q` is not empty.
    #[inline]
    pub(super) unsafe fn sq_dist_rows_neon(q: &[f32], rows: &[f32], mut each: impl FnMut(f32)) {
        for row in rows.chunks_exact(q.len()) {
            each(sq_dist_neon_impl::<false>(q, row, f32::INFINITY));
        }
    }

    /// # Safety
    /// Caller must ensure `q` is not empty.
    #[inline]
    pub(super) unsafe fn sq_dist_rows_within_neon(
        q: &[f32],
        rows: &[f32],
        ids: impl IntoIterator<Item = PointId>,
        bound: f32,
        keep: impl FnMut(PointId, f32) -> f32,
    ) {
        // SAFETY: NEON is the aarch64 baseline; every row is a `q.len()`
        // slice.
        let measure = |row: &[f32], bound| unsafe { sq_dist_neon_impl::<true>(q, row, bound) };
        walk_rows(q.len(), rows, ids, bound, keep, measure, |_| {});
    }
}

// ---------------------------------------------------------------------------
// Dispatch: one dispatcher per public entry point, handed the level to run.
// ---------------------------------------------------------------------------

/// Equal lengths, the one-vector kernels' contract.
///
/// # Panics
/// Panics when `a` and `b` differ in length (in every build profile — a
/// silent truncation would mask real dimensionality bugs at full speed).
#[inline]
fn check_lens(kernel: &str, a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "{kernel}: slice length mismatch ({} vs {})",
        a.len(),
        b.len()
    );
}

/// The row kernels' contract: a non-empty query whose length divides the
/// rows.
///
/// # Panics
/// Panics when `q` is empty or `rows.len()` is not a multiple of `q.len()`.
#[inline]
fn check_rows(q: &[f32], rows: &[f32]) {
    assert!(
        !q.is_empty() && rows.len().is_multiple_of(q.len()),
        "sq_dist_rows: {} floats are not whole rows of {}",
        rows.len(),
        q.len()
    );
}

#[inline]
pub(crate) fn sq_dist_dispatch(level: Runnable, a: &[f32], b: &[f32]) -> f32 {
    check_lens("sq_dist", a, b);
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable, and SSE2 is the x86-64 baseline.
        SimdLevel::Sse2 => unsafe { x86::sq_dist_sse2_impl::<false>(a, b, f32::INFINITY) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable: AVX2 and FMA were detected.
        SimdLevel::Avx2Fma => unsafe { x86::sq_dist_avx2_impl::<false>(a, b, f32::INFINITY) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline.
        SimdLevel::Neon => unsafe { arm::sq_dist_neon_impl::<false>(a, b, f32::INFINITY) },
        _ => sq_dist_scalar_impl::<false>(a, b, f32::INFINITY),
    }
}

#[inline]
pub(crate) fn sq_dist_within_dispatch(level: Runnable, a: &[f32], b: &[f32], bound: f32) -> f32 {
    check_lens("sq_dist_within", a, b);
    if bound == f32::INFINITY {
        // Nothing can exceed an infinite bound: skip the periodic checks
        // entirely. The `within` kernels are bit-identical to the full
        // ones when they do not abandon, so this is purely a fast path.
        return sq_dist_dispatch(level, a, b);
    }
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable, and SSE2 is the x86-64 baseline.
        SimdLevel::Sse2 => unsafe { x86::sq_dist_sse2_impl::<true>(a, b, bound) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable: AVX2 and FMA were detected.
        SimdLevel::Avx2Fma => unsafe { x86::sq_dist_avx2_impl::<true>(a, b, bound) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline.
        SimdLevel::Neon => unsafe { arm::sq_dist_neon_impl::<true>(a, b, bound) },
        _ => sq_dist_scalar_impl::<true>(a, b, bound),
    }
}

/// One dispatch for a whole run of rows: each row goes through the
/// level's full kernel, so every value is bit-equal to
/// [`sq_dist_dispatch`].
#[inline]
pub(crate) fn sq_dist_rows_dispatch(
    level: Runnable,
    q: &[f32],
    rows: &[f32],
    each: impl FnMut(f32),
) {
    check_rows(q, rows);
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable, and SSE2 is the x86-64 baseline;
        // `q` was checked.
        SimdLevel::Sse2 => unsafe { x86::sq_dist_rows_sse2(q, rows, each) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable: AVX2 and FMA were detected; `q`
        // was checked.
        SimdLevel::Avx2Fma => unsafe { x86::sq_dist_rows_avx2(q, rows, each) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline; `q` was checked.
        SimdLevel::Neon => unsafe { arm::sq_dist_rows_neon(q, rows, each) },
        _ => sq_dist_rows_scalar_impl(q, rows, each),
    }
}

/// One dispatch for a whole row-verification walk: each named row goes
/// through the level's early-abandoning kernel, so every kept value is
/// bit-equal to [`sq_dist_dispatch`] and every abandon is
/// [`sq_dist_within_dispatch`]'s.
#[inline]
pub(crate) fn sq_dist_rows_within_dispatch(
    level: Runnable,
    q: &[f32],
    rows: &[f32],
    ids: impl IntoIterator<Item = PointId>,
    bound: f32,
    keep: impl FnMut(PointId, f32) -> f32,
) {
    check_rows(q, rows);
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable, and SSE2 is the x86-64 baseline;
        // `q` was checked.
        SimdLevel::Sse2 => unsafe { x86::sq_dist_rows_within_sse2(q, rows, ids, bound, keep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable: AVX2 and FMA were detected; `q`
        // was checked.
        SimdLevel::Avx2Fma => unsafe { x86::sq_dist_rows_within_avx2(q, rows, ids, bound, keep) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline; `q` was checked.
        SimdLevel::Neon => unsafe { arm::sq_dist_rows_within_neon(q, rows, ids, bound, keep) },
        _ => sq_dist_rows_within_scalar_impl(q, rows, ids, bound, keep),
    }
}

#[inline]
pub(crate) fn dot_dispatch(level: Runnable, a: &[f32], b: &[f32]) -> f32 {
    check_lens("dot", a, b);
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable, and SSE2 is the x86-64 baseline.
        SimdLevel::Sse2 => unsafe { x86::dot_sse2_impl(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is runnable: AVX2 and FMA were detected.
        SimdLevel::Avx2Fma => unsafe { x86::dot_avx2_impl(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline.
        SimdLevel::Neon => unsafe { arm::dot_neon_impl(a, b) },
        _ => dot_scalar_impl(a, b),
    }
}

/// The five public entry points at a level the caller names, for the
/// property tests (`tests/kernel_parity.rs`) and the `substrates` bench.
/// Each function takes its public twin's arguments after `level`, panics
/// when this CPU cannot run `level` ([`super::SimdLevel::is_available`]),
/// and otherwise runs the dispatcher its twin runs, so
/// `kernels::sq_dist(active_level(), a, b)` is `sq_dist(a, b)`.
pub mod kernels {
    use super::{Runnable, SimdLevel};
    use crate::PointId;

    /// [`crate::sq_dist`] at `level`.
    pub fn sq_dist(level: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
        super::sq_dist_dispatch(Runnable::checked(level), a, b)
    }

    /// [`crate::sq_dist_within`] at `level`.
    pub fn sq_dist_within(level: SimdLevel, a: &[f32], b: &[f32], bound: f32) -> f32 {
        super::sq_dist_within_dispatch(Runnable::checked(level), a, b, bound)
    }

    /// [`crate::dot`] at `level`.
    pub fn dot(level: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
        super::dot_dispatch(Runnable::checked(level), a, b)
    }

    /// [`crate::sq_dist_rows`] at `level`.
    pub fn sq_dist_rows(level: SimdLevel, q: &[f32], rows: &[f32], each: impl FnMut(f32)) {
        super::sq_dist_rows_dispatch(Runnable::checked(level), q, rows, each)
    }

    /// [`crate::sq_dist_rows_within`] at `level`.
    pub fn sq_dist_rows_within(
        level: SimdLevel,
        q: &[f32],
        rows: &[f32],
        ids: impl IntoIterator<Item = PointId>,
        bound: f32,
        keep: impl FnMut(PointId, f32) -> f32,
    ) {
        super::sq_dist_rows_within_dispatch(Runnable::checked(level), q, rows, ids, bound, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_cached_and_consistent() {
        let first = active_level();
        for _ in 0..4 {
            assert_eq!(active_level(), first);
        }
    }

    #[test]
    fn dispatch_matches_scalar_within_tolerance() {
        // Bit-identical for scalar/SSE2/NEON; AVX2 only within tolerance
        // (8 lanes + FMA round differently). The exact claims live in
        // tests/kernel_parity.rs.
        for len in [0usize, 1, 3, 4, 7, 15, 16, 33, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.25 - 4.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32) * -0.5 + 2.0).collect();
            let scalar = kernels::sq_dist(SimdLevel::Scalar, &a, &b);
            let fast = sq_dist_dispatch(Runnable::active(), &a, &b);
            let tol = 1e-5f32 * scalar.max(1.0);
            assert!(
                (fast - scalar).abs() <= tol,
                "len {len}: dispatch {fast} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn within_never_underreports() {
        // Abandoned or not, the returned value is on the same side of the
        // bound as the true squared distance.
        for len in [1usize, 8, 16, 33, 100, 257] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let full = sq_dist_dispatch(Runnable::active(), &a, &b);
            for bound in [0.0f32, full * 0.5, full, full * 2.0, f32::INFINITY] {
                let got = sq_dist_within_dispatch(Runnable::active(), &a, &b, bound);
                assert_eq!(got > bound, full > bound, "len {len} bound {bound}");
                if got <= bound {
                    assert_eq!(got, full, "kept result must be exact");
                }
            }
        }
    }
}

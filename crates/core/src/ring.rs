//! lint: hot-path
//!
//! Verification skips by pivot ring: the paper's ring test (Eq. 5), moved
//! from the projected PM-tree to the original space, where a distance costs
//! `d` floats instead of `m`.
//!
//! A [`PivotRing`] holds `s = d/64` pivot rows and, for every stored row
//! `x`, its distances `d(x, p_j)` to them: a table of `s` floats per row,
//! indexed by row id. A query measures its own `s` pivot distances once.
//! By the triangle inequality `d(q, x) ≥ max_j |d(q, p_j) − d(x, p_j)|`, so
//! a candidate whose ring gap exceeds what the abandon bound admits would
//! be abandoned anyway. [`RingProbe::skips`] drops it from the id stream
//! before the verification walk reads, or asks ahead for, a byte of its
//! row. A kept candidate is measured exactly as without the ring, so
//! answers and `QueryStats` do not change.
//!
//! # The margin
//!
//! All values are `f32`, so the filter has to prove its claim against the
//! rounding of every kernel that may have produced them: the table may come
//! from another CPU through a snapshot, and the query's kernel level may
//! differ from both. Let `u = 2⁻²⁴`, `ε = 2u` (`f32::EPSILON`) and
//! `δ = (d + 8)·ε`.
//!
//! 1. **Any kernel's squared distance.** Summing the `d` squared
//!    differences in any order puts at most `d + 1` roundings on one term's
//!    path (subtraction, product, and at most `d − 1` additions; a fused
//!    multiply-add only removes one). The terms are non-negative, so the
//!    computed `Ŝ` is within `γ·S + μ` of the exact `S`, with
//!    `γ = (d+1)u / (1 − (d+1)u) ≤ 2(d+1)u` and `μ ≤ 3d·2⁻¹⁵⁰ ≤ α²` the
//!    underflow of at most `3d` subnormal roundings (`α = 2⁻⁶⁰`, `d ≤ 2²⁰`).
//!    An early-abandoning kernel keeps a row only when that full `Ŝ` is
//!    within its bound.
//! 2. **Any computed distance** `d̂ = fl(√Ŝ)` of a true `D = √S` satisfies
//!    `|d̂ − D| ≤ δ·D + 2α`: `√(1 ± γ)` and the rounding of the root add
//!    at most `(d + 3)u ≤ δ/2` relative, and `√μ ≤ α` absolute.
//! 3. **The ring gap.** With `g' = |dq_j − dx_j|` for computed `dq_j`,
//!    `dx_j`, and `Q = max_j dq_j`: `D(q, p_j) ≤ (dq_j + 2α)/(1 − δ)` and
//!    `dx_j ≤ Q + g'`, so `|D(q, p_j) − D(x, p_j)| ≥ g'(1 − 2δ) − 2δQ − 4α`
//!    (dropping a `1/(1 − δ)` that only enlarges a positive value). The
//!    subtraction `fl(dq_j − dx_j)` adds one rounding, so for the computed
//!    gap `g`, `D(q, x) ≥ g(1 − 3δ) − 2δQ − 4α`.
//! 4. **Not kept.** A row is not kept when its `Ŝ` exceeds the bound `b`,
//!    and `Ŝ ≥ D²(1 − δ) − α²`, so `D > R = √((b + α²)/(1 − δ))` suffices.
//!    The filter skips when `g > T = (R + 2δQ + 4α)/(1 − 3δ)`, evaluated in
//!    `f64` and rounded up to the next `f32`.
//!
//! Overflow voids step 1, so the filter is off for a query (`T = ∞`) when
//! `Q` or `T` exceeds `2⁶⁰`, or `δ > 2⁻⁴`. Then a table entry that
//! overflowed to `∞` still skips soundly: its row lies beyond `1.6·10¹⁹` of
//! its pivot, and so beyond `T` of the query. A NaN anywhere skips nothing.
//! The unit tests below pin the margin on collinear triples, where the
//! triangle inequality is tight, across every pair of kernel levels this
//! CPU runs.
//!
//! # Keep or drop
//!
//! The filter costs `s` table floats per candidate and `s` full distances
//! per query, and saves the floats an abandoned read would have taken. Where
//! the data separates little, nothing is skipped and the table is pure
//! cost, so a build keeps it only where its own data says it pays. It
//! measures [`SAMPLE_ROWS`] random rows against the pivots and treats
//! every sample pair within `F⁻¹(β)` as a candidate and
//! `F⁻¹(k/n)` (`k` = [`MODEL_K`]) as the final k-th distance. A pair whose
//! ring gap exceeds that distance is skipped and saves the `d·kth²/dist²`
//! floats early abandonment reads of it (the partial sum crosses the bound
//! at that fraction of an evenly spread row). The table is kept when the
//! saved floats outweigh `s·(1 + d/(βn + k))` per candidate pair.

use pm_lsh_metric::{sq_dist, sq_dist_within, Dataset, MatrixView, PointId, RowStore};
use pm_lsh_stats::{Ecdf, Rng};

/// Dimensions per pivot: `s = d/64` keeps the table at 1/64 of the row
/// store and the per-query pivot cost at `d/64` full distances.
const DIMS_PER_PIVOT: usize = 64;

/// Rows the keep-or-drop estimate measures: `64·63/2` pairs.
const SAMPLE_ROWS: usize = 64;

/// The `k` the keep-or-drop estimate models (the command line's default).
/// The rule is insensitive to it: `k = 1` and `k = 100` decide the same on
/// every stand-in.
const MODEL_K: usize = 10;

/// How many times its modelled cost the estimate must show a table to
/// save before the build keeps it. The 64-row estimate errs by about that
/// much near break-even: on Trevi stand-ins of 1 600 to 3 200 rows it read
/// 1.1 to 1.9 while the table changed a query by +11 % to −7 %.
const PAYBACK: f64 = 2.0;

/// The stream the ring forks from the build's [`Rng`], so the draws before
/// it (the projector and `F`) are the ones a build without it makes.
pub(crate) const RING_STREAM: u64 = 0x7269_6e67;

/// `α = 2⁻⁶⁰`: the absolute error budget of one computed distance.
const ALPHA: f64 = 8.673_617_379_884_035e-19;

/// The largest `Q` or `T` the filter trusts: `2⁶⁰`.
const LIMIT: f64 = 1_152_921_504_606_846_976.0;

/// The largest relative margin `δ` the derivation covers: `2⁻⁴`.
const MAX_DELTA: f64 = 0.0625;

/// Original-space pivots and every stored row's distances to them; see the
/// module docs.
#[derive(Clone, Debug)]
pub struct PivotRing {
    pivots: Vec<PointId>,
    /// Row `id` holds `d(x_id, p_j)` for each pivot `j`: one row per stored
    /// row, appended in the same chunks as the row store's.
    table: RowStore,
}

impl PivotRing {
    /// Reassembles a ring from its pivot row ids and its table (row `i`
    /// holds row `i`'s distances to the pivots). Checks the ring by
    /// itself: at least one pivot, a table as wide as the pivot count and
    /// no NaN or negative entry. [`crate::PmLsh::from_parts`] checks it
    /// against the rows.
    pub fn from_parts(pivots: Vec<PointId>, table: Dataset) -> Result<Self, String> {
        if pivots.is_empty() {
            return Err("a pivot ring needs at least one pivot".into());
        }
        if table.dim() != pivots.len() {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "ring table rows hold {} distances for {} pivots",
                table.dim(),
                pivots.len()
            ));
        }
        if let Some(bad) = table.as_flat().iter().find(|v| v.is_nan() || **v < 0.0) {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!("ring table entry {bad} is not a distance"));
        }
        Ok(Self {
            pivots,
            table: RowStore::from(table),
        })
    }

    /// The pivots' row ids. Rows are never dropped from the store, so a
    /// pivot stays valid through every delete.
    pub fn pivots(&self) -> &[PointId] {
        &self.pivots
    }

    /// The distance table: row `id` holds row `id`'s distances to the
    /// pivots, in pivot order.
    pub fn table(&self) -> &RowStore {
        &self.table
    }

    /// The ring of a build over `data`, or `None` where the module docs'
    /// estimate says it does not pay (or `d < 64`, or fewer than two
    /// rows). `rng` is the build's forked [`RING_STREAM`]; the table is
    /// spread over `threads` workers, each entry computed alike whatever
    /// the count.
    pub(crate) fn build(
        data: MatrixView<'_>,
        dist_f: &Ecdf,
        beta: f64,
        mut rng: Rng,
        threads: usize,
    ) -> Option<Self> {
        let n = data.len();
        let s = (data.dim() / DIMS_PER_PIVOT).min(n);
        if s == 0 || n < 2 {
            return None;
        }
        let pivots: Vec<PointId> = (rng.sample_indices(n, s).into_iter())
            .map(|i| i as PointId)
            .collect();
        let sample = rng.sample_indices(n, SAMPLE_ROWS.min(n));
        if !pays(data, &pivots, &sample, dist_f, beta) {
            return None;
        }
        let table = table_of(data, &pivots, threads);
        Some(Self {
            pivots,
            table: RowStore::from(table),
        })
    }

    /// Appends the table row of a new stored row `point`: its distances to
    /// the pivots, which live in `data`. Copies at most the one chunk it
    /// writes.
    pub(crate) fn push(&mut self, data: &RowStore, point: &[f32]) {
        // lint: allow(hot-path) -- a mutation, not a query; the point is projected into a fresh row too
        let mut row = vec![0.0f32; self.pivots.len()];
        ring_row(point, |p| data.point_id(p), &self.pivots, &mut row);
        self.table.push(&row);
    }

    /// Measures the query's pivot distances into `dq` and returns the
    /// filter for one query over `data` (the rows the pivots live in).
    pub(crate) fn probe<'a>(
        &'a self,
        data: &RowStore,
        q: &[f32],
        dq: &'a mut Vec<f32>,
    ) -> RingProbe<'a> {
        dq.clear();
        dq.resize(self.pivots.len(), 0.0);
        ring_row(q, |p| data.point_id(p), &self.pivots, dq);
        // A NaN pivot distance turns the filter off, like an overflow.
        let dq_max = dq.iter().fold(
            0.0f32,
            |m, &v| {
                if v.is_nan() {
                    f32::INFINITY
                } else {
                    m.max(v)
                }
            },
        );
        RingProbe {
            table: &self.table,
            dq,
            dq_max,
            dim: q.len(),
            seen: f32::INFINITY,
            threshold: f32::INFINITY,
        }
    }
}

/// One query's ring filter: its pivot distances, and the skip threshold of
/// the last abandon bound it was asked about.
pub(crate) struct RingProbe<'a> {
    table: &'a RowStore,
    dq: &'a [f32],
    dq_max: f32,
    dim: usize,
    seen: f32,
    threshold: f32,
}

impl RingProbe<'_> {
    /// `true` when row `id`'s squared distance, as any kernel measures it,
    /// provably exceeds `bound`, so verification would not keep it. The
    /// threshold is recomputed only when the bound has moved.
    #[inline]
    pub(crate) fn skips(&mut self, id: PointId, bound: f32) -> bool {
        if bound != self.seen {
            self.seen = bound;
            self.threshold = skip_threshold(bound, self.dq_max, self.dim);
        }
        self.threshold != f32::INFINITY
            && ring_gap(self.dq, self.table.point_id(id)) > self.threshold
    }
}

/// `T` of the module docs: the smallest ring gap that proves a row of
/// dimension `d` measures above the squared bound `bound` against a query
/// whose largest pivot distance is `dq_max`; `∞` where nothing is proven.
fn skip_threshold(bound: f32, dq_max: f32, d: usize) -> f32 {
    let delta = (d + 8) as f64 * f32::EPSILON as f64;
    let r = ((bound as f64 + ALPHA * ALPHA) / (1.0 - delta)).sqrt();
    let t = (r + 2.0 * delta * dq_max as f64 + 4.0 * ALPHA) / (1.0 - 3.0 * delta);
    if delta <= MAX_DELTA && dq_max as f64 <= LIMIT && t <= LIMIT {
        (t as f32).next_up()
    } else {
        f32::INFINITY
    }
}

/// `max_j |dq_j − dx_j|`, eight lanes at a time. A NaN lane never wins.
#[inline]
fn ring_gap(dq: &[f32], dx: &[f32]) -> f32 {
    let max = |m: f32, g: f32| if g > m { g } else { m };
    let mut lanes = [0.0f32; 8];
    let (q8, x8) = (dq.chunks_exact(8), dx.chunks_exact(8));
    let tail = q8.remainder().iter().zip(x8.remainder());
    for (a, b) in q8.zip(x8) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(a).zip(b) {
            *lane = max(*lane, (a - b).abs());
        }
    }
    let gap = tail.fold(0.0f32, |m, (&a, &b)| max(m, (a - b).abs()));
    lanes.into_iter().fold(gap, max)
}

/// `x`'s distances to the pivots, `pivot(p)` being pivot row `p`.
fn ring_row<'r>(
    x: &[f32],
    pivot: impl Fn(PointId) -> &'r [f32],
    pivots: &[PointId],
    out: &mut [f32],
) {
    for (out, &p) in out.iter_mut().zip(pivots) {
        *out = sq_dist(x, pivot(p)).sqrt();
    }
}

/// Every row's distances to the pivots, split by row over `threads`
/// workers.
fn table_of(data: MatrixView<'_>, pivots: &[PointId], threads: usize) -> Dataset {
    let (n, s) = (data.len(), pivots.len());
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut flat = vec![0.0f32; n * s];
    let rows_per_worker = n.div_ceil(threads.clamp(1, n));
    let fill = |first: usize, out: &mut [f32]| {
        for (i, row) in out.chunks_exact_mut(s).enumerate() {
            ring_row(data.point(first + i), |p| data.point_id(p), pivots, row);
        }
    };
    std::thread::scope(|scope| {
        let mut parts = flat.chunks_mut(rows_per_worker * s).enumerate();
        let first = parts.next();
        for (w, part) in parts {
            scope.spawn(move || fill(w * rows_per_worker, part));
        }
        if let Some((_, part)) = first {
            fill(0, part);
        }
    });
    Dataset::from_flat(flat, s)
}

/// The keep-or-drop estimate of the module docs: `true` when the sample
/// pairs the ring would skip save more floats than the filter reads.
fn pays(
    data: MatrixView<'_>,
    pivots: &[PointId],
    sample: &[usize],
    dist_f: &Ecdf,
    beta: f64,
) -> bool {
    let (n, d, s) = (data.len(), data.dim(), pivots.len());
    let near = dist_f.quantile(beta.min(1.0));
    let kth = dist_f.quantile((MODEL_K as f64 / n as f64).min(1.0));
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut rings = vec![0.0f32; sample.len() * s];
    for (&i, row) in sample.iter().zip(rings.chunks_exact_mut(s)) {
        ring_row(data.point(i), |p| data.point_id(p), pivots, row);
    }
    let near_sq = (near * near) as f32;
    let (mut candidates, mut saved) = (0usize, 0.0f64);
    for (a, (&i, ring_a)) in sample.iter().zip(rings.chunks_exact(s)).enumerate() {
        for (&j, ring_b) in sample.iter().zip(rings.chunks_exact(s)).skip(a + 1) {
            let sq = sq_dist_within(data.point(i), data.point(j), near_sq);
            if sq > near_sq {
                continue;
            }
            let dist = sq.sqrt() as f64;
            candidates += 1;
            if ring_gap(ring_a, ring_b) as f64 > kth {
                saved += d as f64 * (kth * kth / (dist * dist)).min(1.0);
            }
        }
    }
    let budget = beta * n as f64 + MODEL_K as f64;
    saved > PAYBACK * candidates as f64 * s as f64 * (1.0 + d as f64 / budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_metric::simd::kernels;
    use pm_lsh_metric::SimdLevel;

    fn levels() -> Vec<SimdLevel> {
        [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2Fma,
            SimdLevel::Neon,
        ]
        .into_iter()
        .filter(|level| level.is_available())
        .collect()
    }

    fn dist(level: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
        kernels::sq_dist(level, a, b).sqrt()
    }

    /// Over every (table, query, verification) triple of kernel levels: a
    /// skip at bound `b` means the verifying kernel measures above `b`.
    /// Returns how many of the cases it was handed were skipped.
    fn check(q: &[f32], x: &[f32], pivots: &[&[f32]], bounds: &[f32]) -> usize {
        let mut skipped = 0;
        for &table in &levels() {
            for &query in &levels() {
                let dx: Vec<f32> = pivots.iter().map(|p| dist(table, x, p)).collect();
                let dq: Vec<f32> = pivots.iter().map(|p| dist(query, q, p)).collect();
                let dq_max = dq.iter().fold(0.0f32, |m, &v| m.max(v));
                for &bound in bounds {
                    let t = skip_threshold(bound, dq_max, q.len());
                    if ring_gap(&dq, &dx) <= t || t == f32::INFINITY {
                        continue;
                    }
                    skipped += 1;
                    for &verify in &levels() {
                        let sq = kernels::sq_dist_within(verify, q, x, bound);
                        assert!(
                            sq > bound,
                            "{table}/{query}/{verify}: skipped at bound {bound} a row measuring {sq}"
                        );
                    }
                }
            }
        }
        skipped
    }

    /// The bounds around a row's own squared distance at every level: the
    /// tightest ones a sound filter must not skip at.
    fn bounds_around(q: &[f32], x: &[f32]) -> Vec<f32> {
        let mut bounds = Vec::new();
        for level in levels() {
            let sq = kernels::sq_dist(level, q, x);
            bounds.extend([
                sq,
                sq.next_down(),
                sq.next_up(),
                sq * (1.0 - 1e-3),
                sq * 0.5,
            ]);
        }
        bounds
    }

    #[test]
    fn collinear_triples_never_skip_a_row_the_kernel_keeps() {
        let mut rng = Rng::new(0x51);
        let mut skipped = 0;
        for d in [64usize, 65, 192, 1000, 4096] {
            for scale in [1.0f32, 1e3, 1e-3, 1e-18] {
                for _ in 0..6 {
                    // p, q and x on one line, p outside [q, x]: the ring gap
                    // equals d(q, x) exactly, before rounding.
                    let mut v = vec![0.0f32; d];
                    let mut p = vec![0.0f32; d];
                    rng.fill_normal(&mut v);
                    rng.fill_normal(&mut p);
                    let t = 1.0 + rng.f32() * 4.0;
                    let at = |s: f32| -> Vec<f32> {
                        p.iter().zip(&v).map(|(p, v)| scale * (p + s * v)).collect()
                    };
                    let (q, x) = (at(1.0), at(t));
                    let pivot = at(0.0);
                    skipped += check(&q, &x, &[&pivot], &bounds_around(&q, &x));
                    skipped += check(&x, &q, &[&pivot], &bounds_around(&x, &q));
                }
            }
        }
        // The margin is not so wide that nothing tight is ever skipped: the
        // bounds at half the squared distance are well outside it.
        assert!(skipped > 100, "{skipped} skips");
    }

    #[test]
    fn pivots_equal_to_the_query_or_the_row_and_duplicates() {
        let mut rng = Rng::new(0x52);
        for d in [64usize, 4096] {
            let mut q = vec![0.0f32; d];
            let mut x = vec![0.0f32; d];
            rng.fill_normal(&mut q);
            rng.fill_normal(&mut x);
            let mut bounds = bounds_around(&q, &x);
            bounds.extend([0.0, 0.0f32.next_up(), f32::MIN_POSITIVE]);
            check(&q, &x, &[&q, &x], &bounds);
            check(&q, &q, &[&q, &x], &bounds_around(&q, &q));
            check(&q, &q, &[&x], &[0.0, 0.0f32.next_up().next_up()]);
        }
    }

    #[test]
    fn overflow_and_nan_turn_the_filter_off() {
        assert_eq!(skip_threshold(f32::INFINITY, 1.0, 128), f32::INFINITY);
        assert_eq!(skip_threshold(1.0, f32::INFINITY, 128), f32::INFINITY);
        assert_eq!(skip_threshold(f32::MAX, 1.0, 128), f32::INFINITY);
        assert_eq!(skip_threshold(1.0, 1.0, 1 << 20), f32::INFINITY);
        assert!(skip_threshold(1.0, 1.0, 4096) < 1.01);
        assert_eq!(ring_gap(&[f32::NAN, 1.0], &[0.0, 0.5]), 0.5);
        assert_eq!(ring_gap(&[3.0; 11], &[1.0; 11]), 2.0);
        let mut dq = [0.0f32; 19];
        dq[18] = 7.0;
        assert_eq!(ring_gap(&dq, &[0.0; 19]), 7.0);
    }

    #[test]
    fn a_threshold_admits_the_bound_s_own_root() {
        // With no pivot offset the threshold sits just above √b.
        for b in [1e-30f32, 1e-3, 1.0, 2.0, 1e6, 1e30] {
            let t = skip_threshold(b, 0.0, 256);
            assert!(t as f64 > (b as f64).sqrt(), "b {b}: t {t}");
            assert!(
                (t as f64) < (b as f64).sqrt() * 1.001 + 1e-17,
                "b {b}: t {t}"
            );
        }
    }

    #[test]
    fn the_table_is_the_same_for_every_thread_count() {
        let mut rng = Rng::new(0x53);
        let mut data = Dataset::with_capacity(128, 203);
        let mut row = vec![0.0f32; 128];
        for _ in 0..203 {
            rng.fill_normal(&mut row);
            data.push(&row);
        }
        let pivots = [3, 77, 150];
        let one = table_of(data.view(), &pivots, 1);
        for threads in [2, 3, 8, 500] {
            let many = table_of(data.view(), &pivots, threads);
            assert_eq!(one.as_flat(), many.as_flat(), "{threads} threads");
        }
        assert_eq!(one.point(77)[1], 0.0);
    }
}

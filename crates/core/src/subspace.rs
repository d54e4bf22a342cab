//! lint: hot-path
//!
//! Verification skips by principal subspace: a candidate whose projection
//! onto the data's top principal directions lies far from the query's is
//! dropped before its row is read.
//!
//! A [`Subspace`] holds the data's mean `μ` and `s = d/64` orthonormal
//! directions `U` that approximate its top principal directions (an
//! `s × d` basis, ordered by the variance it captures),
//! and, for every stored row `x`, its coordinates `U(x − μ)`: a table of
//! `s` floats per row, indexed by row id. An orthogonal projection is a
//! contraction, so `‖q − x‖ ≥ ‖U(q − x)‖ = ‖U(q − μ) − U(x − μ)‖`. A query
//! computes `U(q − μ)` once; a candidate whose gap to it exceeds what the
//! abandon bound admits would be abandoned anyway, and `SubspaceProbe`
//! drops it from the id stream before the verification walk reads, or
//! asks ahead for, a byte of its row. A kept candidate is measured exactly
//! as without the table, so answers and `QueryStats` do not change.
//!
//! This is the paper's pivot-ring test (Eq. 5) moved to the original space
//! and given a tighter inequality: in 4 096 dimensions the triangle
//! inequality through `d/64` pivots is loose, while the data's principal
//! subspace keeps most of a pair's distance (docs/ARCHITECTURE.md,
//! "Verification skips by principal subspace").
//!
//! # The margin
//!
//! All values are `f32`, so the filter has to prove its claim against the
//! rounding of every kernel that may have produced them: the table may come
//! from another CPU through a snapshot, and the query's kernel level may
//! differ from both. Let `u = 2⁻²⁴`, `ε = 2u` (`f32::EPSILON`),
//! `δ = (d + 8)·ε`, `γ = (d + 2)·ε`, `α = 2⁻⁶⁰` and `η = d·2⁻¹⁴⁹`.
//!
//! 1. **Any kernel's squared distance.** Summing the `d` squared
//!    differences in any order puts at most `d + 1` roundings on one term's
//!    path (subtraction, product, and at most `d − 1` additions; a fused
//!    multiply-add only removes one). The terms are non-negative, so the
//!    computed `Ŝ` is within `γ_{d+1}·S + α²` of the exact `S`, with
//!    `γ_{d+1} = (d+1)u / (1 − (d+1)u) ≤ 2(d+1)u` and `α²` covering the
//!    underflow of at most `3d` subnormal roundings (`d ≤ 2²⁰`). An
//!    early-abandoning kernel keeps a row only when that full `Ŝ` is within
//!    its bound `b`; `Ŝ ≥ D²(1 − δ) − α²`, so a row with
//!    `D > R = √((b + α²)/(1 − δ))` is not kept.
//! 2. **The contraction.** For the stored `μ` and `U` (exact `f32` values)
//!    and exact arithmetic, `P(x) = U(x − μ)` gives `P(q) − P(x) = U(q − x)`,
//!    so `D = ‖q − x‖ ≥ ‖P(q) − P(x)‖ / σ` for any `σ ≥ ‖U‖₂`. The build
//!    orthonormalizes `U` in `f32`, so `‖U‖₂` is `1` only up to rounding;
//!    `σ` bounds it by Gershgorin's theorem on the Gram matrix `UUᵀ`,
//!    summed in `f64` with its own error added.
//! 3. **The projections.** A computed coordinate `t_j = fl(U_j·fl(x − μ))`
//!    puts at most `d + 1` roundings on a term's path, so it is within
//!    `γ_{d+1}·Σ_i |U_ji||x_i − μ_i| + η ≤ γ·σ·‖x − μ‖ + η` of `P(x)_j` (by
//!    Cauchy–Schwarz, each row of `U` being no longer than `σ`; `η` covers
//!    the products that underflow), whatever the kernel's order. Over the
//!    `s` coordinates, `‖t_x − P(x)‖ ≤ √s·(γσ‖x − μ‖ + η)`. The index keeps
//!    one radius `ρ ≥ ‖x − μ‖` for every stored row (the largest, raised by
//!    an insert beyond it, saved with the table), and a query computes its
//!    own `ρ_q ≥ ‖q − μ‖`, both summed in `f64` and rounded up. For the
//!    exact gap `E = ‖t_q − t_x‖` of the computed coordinates,
//!    `‖P(q) − P(x)‖ ≥ E − M` with `M = √s·(γσ(ρ_q + ρ) + 2η)`.
//! 4. **The gap.** The filter computes `Ĝ = fl(Σ_j (t_q,j − t_x,j)²)` in its
//!    own order; as in step 1 with `s` terms, `Ĝ ≤ (1 + (s + 2)ε)·(E² + s·2⁻¹⁴⁹)`.
//! 5. **Not kept.** Steps 1–4 give `D > R` whenever `E > σR + M`, so the
//!    filter skips when `Ĝ > G = (1 + (s + 2)ε)·((σR + M)² + s·2⁻¹⁴⁹)`,
//!    evaluated in `f64` and rounded up to the next `f32`.
//!
//! Overflow voids steps 1 and 3, so the filter is off for a query
//! (`G = ∞`) when `ρ_q + ρ` or `√G` exceeds `2⁶⁰`, `σ` is not finite, or
//! `δ > 2⁻⁴`. Below those limits no coordinate can overflow, and a NaN
//! (from a NaN query component) turns the filter off or skips nothing. The
//! unit tests below pin the margin on rows along and against a basis
//! vector, far from `μ` and at `10⁻¹⁸` scale, across every table × query ×
//! verification triple of kernel levels this CPU runs.
//!
//! # Keep or drop
//!
//! The filter costs `s` table floats per candidate and `s·d` multiply-adds
//! per query, and saves the floats an abandoned read would have taken.
//! Where the data's variance is spread over many more than `s` directions,
//! nothing is skipped and the table is pure cost, so a build keeps it only
//! where its own data says it pays. It fits the basis to
//! `FIT_ROWS_PER_DIRECTION``·s` random rows, as the span of `s` random
//! combinations of them about their mean (a randomized range finder,
//! orthonormalized), and scores `SCORE_ROWS` other rows, so the basis
//! cannot simply span the rows it is judged on. `F⁻¹(β)` bounds a
//! candidate pair (a share `β` of all pairs lies within it) and
//! `F⁻¹(k/n)` (`k` = `MODEL_K`) stands for the final k-th distance.
//!
//! * **A gate.** The basis keeps a share `f` of the scored rows' variance
//!   about the mean, and so of an average pair's squared distance. Where
//!   `f·F⁻¹(β)² ≤ F⁻¹(k/n)²`, the gap of even the farthest candidate pair
//!   is typically short of the k-th distance, and the build drops the
//!   table unscored: Audio, Deep and Cifar read `f` = 0.02–0.03 against
//!   `(kth/near)²` = 0.23–0.58, Trevi stand-ins 0.37–0.78 against
//!   0.13–0.18.
//! * **The score.** A candidate pair of scored rows whose gap exceeds the
//!   k-th distance is skipped and saves the `d·kth²/dist²` floats early
//!   abandonment reads of it (the partial sum crosses the bound at that
//!   fraction of an evenly spread row). The table is kept when the saved
//!   floats outweigh `s·(1 + d/(βn + k))` per candidate pair, the pairs
//!   within `F⁻¹(β)` counted as the share `β` of all pairs.

use pm_lsh_metric::simd::prefetch_row;
use pm_lsh_metric::{dot, sq_dist_within, Dataset, MatrixView, PointId, RowStore};
use pm_lsh_stats::{Ecdf, Rng};
use std::cell::Cell;

/// Dimensions per direction: `s = d/64` keeps the table at 1/64 of the row
/// store and the per-query projection at `d/64` dot products.
const DIMS_PER_DIRECTION: usize = 64;

/// Rows the basis is fitted on, per direction. On the Bench Trevi
/// stand-in, bases fitted on 8·s rows leave a query 156–160 of its 3 239
/// candidates to measure, on 16·s rows 154, and on 4·s rows 265; one or
/// two rounds of subspace iteration over 16·s rows, at two to four times
/// the cost, leave 152.
const FIT_ROWS_PER_DIRECTION: usize = 8;

/// Rows the keep-or-drop estimate scores: `128·127/2` pairs, none of them
/// among the rows the basis was fitted on.
const SCORE_ROWS: usize = 128;

/// The `k` the keep-or-drop estimate models (the command line's default).
const MODEL_K: usize = 10;

/// How many times its modelled cost the estimate must show a table to
/// save before the build keeps it: 1, the model's own break-even. On
/// Trevi stand-ins the estimate read 0.41–0.59 where a forced table cost
/// +4 % to +25 % a query, 1.14 at ±0 %, and 1.25–5.6 at −6 % to −60 %
/// (docs/ARCHITECTURE.md, "Verification skips by principal subspace").
const PAYBACK: f64 = 1.0;

/// The stream the subspace forks from the build's [`Rng`], so the draws
/// before it (the projector and `F`) are the ones a build without it makes.
pub(crate) const SUBSPACE_STREAM: u64 = 0x7375_6273;

/// How many candidates ahead of the one it tests the filter asks for a
/// table row. On the Bench Trevi stand-in (in-process, alternating
/// binaries, median of 9 passes) a query read 548–656 µs at 0, 541–615 at
/// 4, 493–586 at 8 and 545–608 at 16; 8 won 7 of 7 pairs against 0.
const LOOKAHEAD: usize = 8;

/// `α = 2⁻⁶⁰`: the absolute error budget of one computed distance.
const ALPHA: f64 = 8.673_617_379_884_035e-19;

/// `2⁻¹⁴⁹`, the smallest positive `f32`: what an underflowing product
/// loses at most, twice over.
const TINY: f64 = 1.401_298_464_324_817e-45;

/// The largest `ρ_q + ρ` or `√G` the filter trusts: `2⁶⁰`.
const LIMIT: f64 = 1_152_921_504_606_846_976.0;

/// The largest relative margin `δ` the derivation covers: `2⁻⁴`.
const MAX_DELTA: f64 = 0.0625;

/// The data's principal subspace and every stored row's coordinates in
/// it; see the module docs.
#[derive(Clone, Debug)]
pub struct Subspace {
    mean: Vec<f32>,
    /// `s` rows of `d` floats, near-orthonormal, by captured variance.
    basis: Dataset,
    /// `σ ≥ ‖basis‖₂`.
    sigma: f64,
    /// `ρ ≥ ‖x − μ‖` for every stored row `x`.
    radius: f64,
    /// Row `id` holds `U(x_id − μ)`: one row per stored row, appended in
    /// the same chunks as the row store's.
    table: RowStore,
}

impl Subspace {
    /// Reassembles a subspace from its saved parts. Checks it by itself: at
    /// least one direction, a basis and a mean as wide as each other, a
    /// table as wide as the basis is tall, finite `μ` and `U`, a finite
    /// positive `σ` and a non-negative `ρ`. Any table entry is accepted:
    /// one that overflowed (a row inserted near `f32::MAX`) comes with a
    /// `ρ` beyond what the filter trusts, and a NaN skips nothing.
    /// [`crate::PmLsh::from_parts`] checks it against the rows.
    pub fn from_parts(
        mean: Vec<f32>,
        basis: Dataset,
        sigma: f64,
        radius: f64,
        table: Dataset,
    ) -> Result<Self, String> {
        if basis.is_empty() {
            return Err("a subspace needs at least one direction".into());
        }
        if basis.dim() != mean.len() {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "subspace basis rows hold {} floats, its mean {}",
                basis.dim(),
                mean.len()
            ));
        }
        if table.dim() != basis.len() {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "subspace table rows hold {} coordinates for {} directions",
                table.dim(),
                basis.len()
            ));
        }
        if !(mean.iter().chain(basis.as_flat())).all(|v| v.is_finite()) {
            return Err("subspace mean or basis is not finite".into());
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!("subspace norm bound {sigma} is not positive"));
        }
        if radius.is_nan() || radius < 0.0 {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!("subspace radius {radius} is not a distance"));
        }
        Ok(Self {
            mean,
            basis,
            sigma,
            radius,
            table: RowStore::from(table),
        })
    }

    /// The mean `μ` the coordinates are taken from.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The basis `U`: `s` rows of `d` floats, by captured variance.
    pub fn basis(&self) -> &Dataset {
        &self.basis
    }

    /// `σ`, a bound on the basis's spectral norm.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// `ρ`, a bound on `‖x − μ‖` over every stored row.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The coordinate table: row `id` holds row `id`'s `U(x − μ)`.
    pub fn table(&self) -> &RowStore {
        &self.table
    }

    /// The subspace of a build over `data`, or `None` where the module
    /// docs' estimate says it does not pay (or `d < 64`, or too few rows to
    /// fit and score). `rng` is the build's forked [`SUBSPACE_STREAM`]; the
    /// table is spread over `threads` workers, each value computed alike
    /// whatever the count.
    pub(crate) fn build(
        data: MatrixView<'_>,
        dist_f: &Ecdf,
        beta: f64,
        mut rng: Rng,
        threads: usize,
    ) -> Option<Self> {
        let (n, d) = (data.len(), data.dim());
        let s = d / DIMS_PER_DIRECTION;
        let fit = (FIT_ROWS_PER_DIRECTION * s).min(n.saturating_sub(SCORE_ROWS));
        if s == 0 || fit <= s {
            return None;
        }
        let sample = rng.sample_indices(n, fit + SCORE_ROWS);
        let (fit_rows, score_rows) = sample.split_at(fit);
        let (mean, basis) = fit_basis(data, fit_rows, s, &mut rng);
        let scored = Scored::of(data, &mean, basis, score_rows);
        let beta = beta.min(1.0);
        let near = dist_f.quantile(beta);
        let kth = dist_f.quantile((MODEL_K as f64 / n as f64).min(1.0));
        if scored.captured * near * near <= kth * kth || !scored.pays(data, near, kth, beta) {
            return None;
        }
        let basis = scored.basis;
        let sigma = spectral_bound(&basis);
        let (table, radius) = table_of(data, &mean, &basis, threads);
        Some(Self {
            mean,
            basis,
            sigma,
            radius,
            table: RowStore::from(table),
        })
    }

    /// Appends the table row of a new stored row `point` and raises `ρ` to
    /// cover it. Copies at most the one chunk it writes.
    pub(crate) fn push(&mut self, point: &[f32]) {
        // lint: allow(hot-path) -- a mutation, not a query; the point is projected into a fresh row too
        let mut y = vec![0.0f32; point.len()];
        // lint: allow(hot-path) -- a mutation, not a query
        let mut row = vec![0.0f32; self.basis.len()];
        let radius = project(point, &self.mean, &self.basis, &mut y, &mut row, dot);
        self.radius = self.radius.max(radius);
        self.table.push(&row);
    }

    /// Computes the query's coordinates into `tq` (through `y`, a `d`-float
    /// scratch) and returns the filter for one query.
    pub(crate) fn probe<'a>(
        &'a self,
        q: &[f32],
        y: &mut Vec<f32>,
        tq: &'a mut Vec<f32>,
    ) -> SubspaceProbe<'a> {
        y.resize(q.len(), 0.0);
        tq.resize(self.basis.len(), 0.0);
        let q_radius = project(q, &self.mean, &self.basis, y, tq, dot);
        SubspaceProbe {
            table: &self.table,
            tq,
            margin: Margin {
                d: q.len(),
                s: self.basis.len(),
                sigma: self.sigma,
                radii: q_radius + self.radius,
            },
            seen: f32::INFINITY,
            threshold: f32::INFINITY,
        }
    }
}

/// What one query's threshold depends on besides the bound.
#[derive(Clone, Copy)]
struct Margin {
    d: usize,
    s: usize,
    sigma: f64,
    /// `ρ_q + ρ`.
    radii: f64,
}

impl Margin {
    /// `G` of the module docs: the smallest computed squared gap that
    /// proves a row measures above the squared bound `bound`; `∞` where
    /// nothing is proven.
    fn threshold(self, bound: f32) -> f32 {
        let eps = f32::EPSILON as f64;
        let delta = (self.d + 8) as f64 * eps;
        let gamma = (self.d + 2) as f64 * eps;
        let eta = self.d as f64 * TINY;
        let r = ((bound as f64 + ALPHA * ALPHA) / (1.0 - delta)).sqrt();
        let m = (self.s as f64).sqrt() * (gamma * self.sigma * self.radii + 2.0 * eta);
        let e = self.sigma * r + m;
        let g = (1.0 + (self.s + 2) as f64 * eps) * (e * e + self.s as f64 * TINY);
        if delta <= MAX_DELTA && self.sigma.is_finite() && self.radii <= LIMIT && e <= LIMIT {
            (g as f32).next_up()
        } else {
            f32::INFINITY
        }
    }
}

/// One query's subspace filter: its coordinates, and the skip threshold of
/// the last abandon bound it was asked about.
pub(crate) struct SubspaceProbe<'a> {
    table: &'a RowStore,
    tq: &'a [f32],
    margin: Margin,
    seen: f32,
    threshold: f32,
}

impl<'a> SubspaceProbe<'a> {
    /// `true` when row `id`'s squared distance, as any kernel measures it,
    /// provably exceeds `bound`, so verification would not keep it. The
    /// threshold is recomputed only when the bound has moved.
    #[inline]
    pub(crate) fn skips(&mut self, id: PointId, bound: f32) -> bool {
        if bound != self.seen {
            self.seen = bound;
            self.threshold = self.margin.threshold(bound);
        }
        self.threshold != f32::INFINITY && gap_sq(self.tq, self.table.point_id(id)) > self.threshold
    }

    /// `ids` without the rows [`SubspaceProbe::skips`] drops at the bound
    /// `bound` holds when each id is pulled. The table row of the id
    /// [`LOOKAHEAD`] places ahead of the one tested is asked for first, so
    /// the filter's own reads do not wait on memory one at a time.
    #[inline]
    pub(crate) fn filter<'b, I: Iterator<Item = PointId>>(
        &'b mut self,
        mut ids: I,
        bound: &'b Cell<f32>,
    ) -> impl Iterator<Item = PointId> + use<'a, 'b, I> {
        // The next `pending` ids, from `ahead[head]` on, cyclic.
        let mut ahead = [0 as PointId; LOOKAHEAD];
        let (mut head, mut pending) = (0usize, 0usize);
        std::iter::from_fn(move || loop {
            while pending < LOOKAHEAD {
                let Some(id) = ids.next() else { break };
                prefetch_row(self.table.point_id(id));
                ahead[(head + pending) % LOOKAHEAD] = id;
                pending += 1;
            }
            if pending == 0 {
                return None;
            }
            let id = ahead[head];
            head = (head + 1) % LOOKAHEAD;
            pending -= 1;
            if !self.skips(id, bound.get()) {
                return Some(id);
            }
        })
    }
}

/// `Σ_j (a_j − b_j)²`, eight lanes at a time.
#[inline]
fn gap_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail = a8.remainder().iter().zip(b8.remainder());
    for (a, b) in a8.zip(b8) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(a).zip(b) {
            *lane += (a - b) * (a - b);
        }
    }
    let tail = tail.fold(0.0f32, |sum, (&a, &b)| sum + (a - b) * (a - b));
    lanes.into_iter().sum::<f32>() + tail
}

/// `x`'s coordinates `U(x − μ)` into `out`, through `y = fl(x − μ)`, each a
/// `dot` of a basis row with `y`. Returns `ρ_x ≥ ‖x − μ‖`.
fn project(
    x: &[f32],
    mean: &[f32],
    basis: &Dataset,
    y: &mut [f32],
    out: &mut [f32],
    dot: impl Fn(&[f32], &[f32]) -> f32,
) -> f64 {
    for ((y, &x), &m) in y.iter_mut().zip(x).zip(mean) {
        *y = x - m;
    }
    for (out, u) in out.iter_mut().zip(basis.iter()) {
        *out = dot(u, y);
    }
    radius_of(y)
}

/// A bound on `‖x − μ‖` from `y = fl(x − μ)`: each `|y_i|` is within `u`
/// of `|x_i − μ_i|`, each `y_i²` is exact in `f64`, and the `f64` sum of
/// `d ≤ 2²⁰` of them and its root err by less than `2⁻³²`, so
/// `√(Σ y_i²)·(1 + 2⁻²²)` covers all three. A NaN stays NaN.
fn radius_of(y: &[f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = y.chunks_exact(4);
    let tail: f64 = chunks
        .remainder()
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v as f64 * v as f64;
        }
    }
    let sum = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
    sum.sqrt() * (1.0 + 2.0f64.powi(-22))
}

/// Splits `out`, rows of `width` floats, by row over `threads` workers
/// and runs `fill(first row, part)` on each part, returning each part's
/// result in row order. Every row is computed alike whatever the count.
fn par_parts<R: Send>(
    out: &mut [f32],
    width: usize,
    threads: usize,
    fill: impl Fn(usize, &mut [f32]) -> R + Sync,
) -> Vec<R> {
    let rows = out.len() / width;
    if rows == 0 {
        // lint: allow(hot-path) -- one-time build path, not a query
        return Vec::new();
    }
    let per_worker = rows.div_ceil(threads.clamp(1, rows));
    let fill = &fill;
    let mut parts = out.chunks_mut(per_worker * width);
    let first = parts.next();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (parts.enumerate())
            .map(|(w, part)| scope.spawn(move || fill((w + 1) * per_worker, part)))
            // lint: allow(hot-path) -- one-time build path, not a query
            .collect();
        let first = first.map(|part| fill(0, part));
        // lint: allow(hot-path) -- a worker's panic is the build's own
        let rest = workers
            .into_iter()
            .map(|w| w.join().expect("no worker panics"));
        first.into_iter().chain(rest).collect()
    })
}

/// The mean of the `rows` of `data` and `s` orthonormal directions
/// spanned by random combinations of the rows about that mean: a
/// randomized range finder. Each direction sums the weighted rows in
/// sample order, and nothing the size of the sample is copied. It runs on
/// the calling thread: every build fits, most builds then drop the table,
/// and a worker's stack and allocator arena would outweigh a small fit.
fn fit_basis(data: MatrixView<'_>, rows: &[usize], s: usize, rng: &mut Rng) -> (Vec<f32>, Dataset) {
    let (d, m) = (data.dim(), rows.len());
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut sum = vec![0.0f64; d];
    for &i in rows {
        for (sum, &v) in sum.iter_mut().zip(data.point(i)) {
            *sum += v as f64;
        }
    }
    let mean: Vec<f32> = sum.iter().map(|&v| (v / m as f64) as f32).collect();
    // Row `j` of `g` weighs the sample rows into direction `j`.
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut g = vec![0.0f32; s * m];
    g.iter_mut().for_each(|g| *g = rng.f32() - 0.5);
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut basis = vec![0.0f32; s * d];
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut y = vec![0.0f32; d];
    for (i, &row) in rows.iter().enumerate() {
        for ((y, &x), &mu) in y.iter_mut().zip(data.point(row)).zip(&mean) {
            *y = x - mu;
        }
        for (w, weights) in basis.chunks_exact_mut(d).zip(g.chunks_exact(m)) {
            for (w, &y) in w.iter_mut().zip(&y) {
                *w += weights[i] * y;
            }
        }
    }
    orthonormalize(&mut basis, d);
    (mean, Dataset::from_flat(basis, d))
}

/// Makes the rows of `v` (`d` floats each) orthonormal: modified
/// Gram–Schmidt, twice. A row that the rows before it already span (to
/// `10⁻⁴` of its length) becomes zero, which the bound tolerates; `σ`
/// covers what rounding leaves of the rest.
fn orthonormalize(v: &mut [f32], d: usize) {
    for j in 0..v.len() / d {
        let (done, rest) = v.split_at_mut(j * d);
        let row = &mut rest[..d];
        let before = dot(row, row).sqrt();
        for _ in 0..2 {
            for prev in done.chunks_exact(d) {
                let c = dot(prev, row);
                for (x, p) in row.iter_mut().zip(prev) {
                    *x -= c * p;
                }
            }
        }
        let norm = dot(row, row).sqrt();
        let scale = if norm > 1e-4 * before {
            1.0 / norm
        } else {
            0.0
        };
        row.iter_mut().for_each(|x| *x *= scale);
    }
}

/// `σ ≥ ‖U‖₂`: Gershgorin's bound on the largest eigenvalue of the Gram
/// matrix `UUᵀ`, whose entries are summed in `f64` (each product of two
/// `f32` exact, a sum of `d` of them within `d·2⁻⁵³` of each row norm
/// product), with that error added to every row of the matrix.
fn spectral_bound(basis: &Dataset) -> f64 {
    let (s, d) = (basis.len(), basis.dim());
    let gram =
        |a: &[f32], b: &[f32]| -> f64 { a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum() };
    let norms: Vec<f64> = basis.iter().map(|u| gram(u, u)).collect();
    let largest = norms.iter().fold(1.0f64, |m, &v| m.max(v));
    let error = s as f64 * (d + 2) as f64 * 2.0f64.powi(-52) * largest;
    let mut row_sums = norms.clone();
    for a in 0..s {
        for b in a + 1..s {
            let g = gram(basis.point(a), basis.point(b)).abs();
            row_sums[a] += g;
            row_sums[b] += g;
        }
    }
    let lambda = row_sums.iter().fold(0.0f64, |m, &v| m.max(v)) + error;
    lambda.sqrt() * (1.0 + 2.0f64.powi(-40))
}

/// Every row's coordinates, split by row over `threads` workers, and `ρ`.
fn table_of(data: MatrixView<'_>, mean: &[f32], basis: &Dataset, threads: usize) -> (Dataset, f64) {
    let (n, s) = (data.len(), basis.len());
    // lint: allow(hot-path) -- one-time build path, not a query
    let mut flat = vec![0.0f32; n * s];
    let radii = par_parts(&mut flat, s, threads, |first, part| {
        // lint: allow(hot-path) -- one-time build path, not a query
        let mut y = vec![0.0f32; data.dim()];
        let rows = part.chunks_exact_mut(s).enumerate();
        rows.fold(0.0f64, |radius, (i, row)| {
            let x = data.point(first + i);
            radius.max(project(x, mean, basis, &mut y, row, dot))
        })
    });
    let radius = radii.into_iter().fold(0.0f64, f64::max);
    (Dataset::from_flat(flat, s), radius)
}

/// The rows the keep-or-drop estimate scores, with their coordinates in a
/// fitted basis.
struct Scored<'r> {
    rows: &'r [usize],
    /// The basis, its directions ordered by the scored rows' variance
    /// along each.
    basis: Dataset,
    /// Row `i`'s coordinates, in the basis's order.
    coords: Vec<f32>,
    /// The share of the scored rows' variance about the mean the basis
    /// keeps.
    captured: f64,
}

impl<'r> Scored<'r> {
    fn of(data: MatrixView<'_>, mean: &[f32], basis: Dataset, rows: &'r [usize]) -> Self {
        let (d, s) = (data.dim(), basis.len());
        // lint: allow(hot-path) -- one-time build path, not a query
        let mut coords = vec![0.0f32; rows.len() * s];
        // lint: allow(hot-path) -- one-time build path, not a query
        let mut y = vec![0.0f32; d];
        let mut total = 0.0f64;
        for (&i, row) in rows.iter().zip(coords.chunks_exact_mut(s)) {
            project(data.point(i), mean, &basis, &mut y, row, dot);
            total += dot(&y, &y) as f64;
        }
        // lint: allow(hot-path) -- one-time build path, not a query
        let mut variance = vec![0.0f64; s];
        for row in coords.chunks_exact(s) {
            for (v, &c) in variance.iter_mut().zip(row) {
                *v += c as f64 * c as f64;
            }
        }
        let mut order: Vec<usize> = (0..s).collect();
        order.sort_by(|&a, &b| variance[b].total_cmp(&variance[a]).then(a.cmp(&b)));
        let by_order = |flat: &[f32], width: usize| -> Vec<f32> {
            (flat.chunks_exact(width))
                .flat_map(|row| order.iter().map(move |&j| row[j]))
                .collect()
        };
        let basis = order.iter().flat_map(|&j| basis.point(j)).copied();
        Self {
            rows,
            basis: Dataset::from_flat(basis.collect(), d),
            coords: by_order(&coords, s),
            captured: variance.iter().sum::<f64>() / total,
        }
    }

    /// The score of the module docs: `true` when the candidate pairs among
    /// the scored rows the subspace would skip save more floats than the
    /// filter reads.
    fn pays(&self, data: MatrixView<'_>, near: f64, kth: f64, beta: f64) -> bool {
        let (n, d, s) = (data.len(), data.dim(), self.basis.len());
        let (near_sq, kth_sq) = ((near * near) as f32, (kth * kth) as f32);
        let (mut pairs, mut saved) = (0usize, 0.0f64);
        let scored = || self.rows.iter().zip(self.coords.chunks_exact(s));
        for (a, (&i, ta)) in scored().enumerate() {
            for (&j, tb) in scored().skip(a + 1) {
                pairs += 1;
                // A gap beyond `F⁻¹(β)` puts the pair beyond it too: no
                // candidate, and no distance to measure.
                let gap = gap_sq(ta, tb);
                if gap <= kth_sq || gap > near_sq {
                    continue;
                }
                let sq = sq_dist_within(data.point(i), data.point(j), near_sq);
                if sq <= near_sq {
                    saved += d as f64 * (kth_sq as f64 / sq as f64).min(1.0);
                }
            }
        }
        let candidates = beta * pairs as f64;
        let budget = beta * n as f64 + MODEL_K as f64;
        saved > PAYBACK * candidates * s as f64 * (1.0 + d as f64 / budget)
    }
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

    /// A mean and a near-orthonormal basis of `d/64` random directions in
    /// `R^d`, as a build rounds them, and its `σ`.
    fn random_subspace(d: usize, rng: &mut Rng) -> (Vec<f32>, Dataset, f64) {
        let s = (d / DIMS_PER_DIRECTION).max(1);
        let mut mean = vec![0.0f32; d];
        let mut basis = vec![0.0f32; s * d];
        rng.fill_normal(&mut mean);
        rng.fill_normal(&mut basis);
        orthonormalize(&mut basis, d);
        let basis = Dataset::from_flat(basis, d);
        let sigma = spectral_bound(&basis);
        (mean, basis, sigma)
    }

    /// Over every (table, query, verification) triple of kernel levels: a
    /// skip at bound `b` means the verifying kernel measures above `b`.
    /// The table's `ρ` is `x`'s own, as an index holding only `x` keeps it.
    /// Returns how many of the cases it was handed were skipped.
    fn check(
        q: &[f32],
        x: &[f32],
        (mean, basis, sigma): &(Vec<f32>, Dataset, f64),
        bounds: &[f32],
    ) -> usize {
        let (d, s) = (q.len(), basis.len());
        let mut y = vec![0.0f32; d];
        let (mut tq, mut tx) = (vec![0.0f32; s], vec![0.0f32; s]);
        let mut skipped = 0;
        for &table in &levels() {
            let dot = |a: &[f32], b: &[f32]| kernels::dot(table, a, b);
            let radius = project(x, mean, basis, &mut y, &mut tx, dot);
            for &query in &levels() {
                let dot = |a: &[f32], b: &[f32]| kernels::dot(query, a, b);
                let q_radius = project(q, mean, basis, &mut y, &mut tq, dot);
                let margin = Margin {
                    d,
                    s,
                    sigma: *sigma,
                    radii: q_radius + radius,
                };
                for &bound in bounds {
                    let t = margin.threshold(bound);
                    if t == f32::INFINITY || gap_sq(&tq, &tx) <= t {
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

    /// `from + by·u`, component by component.
    fn offset(from: &[f32], u: &[f32], by: f32) -> Vec<f32> {
        from.iter().zip(u).map(|(f, u)| f + by * u).collect()
    }

    #[test]
    fn rows_along_and_against_a_basis_vector_never_skip_a_row_the_kernel_keeps() {
        // q − x along a basis vector: its coordinates' gap equals the
        // distance exactly, before rounding, so only the margin stands
        // between the filter and a wrong skip.
        let mut rng = Rng::new(0x51);
        let mut skipped = 0;
        for d in [64usize, 65, 192, 1000, 4096] {
            for scale in [1.0f32, 1e3, 1e-3, 1e-18] {
                let (mut mean, basis, sigma) = random_subspace(d, &mut rng);
                mean.iter_mut().for_each(|v| *v *= scale);
                let sub = (mean, basis, sigma);
                for j in 0..3 {
                    let u: Vec<f32> = sub.1.point(j % sub.1.len()).to_vec();
                    let (a, b) = (1.0 + 4.0 * rng.f32(), 1.0 + 4.0 * rng.f32());
                    let q = offset(&sub.0, &u, scale * a);
                    for x in [offset(&sub.0, &u, -scale * b), offset(&q, &u, scale * b)] {
                        skipped += check(&q, &x, &sub, &bounds_around(&q, &x));
                        skipped += check(&x, &q, &sub, &bounds_around(&x, &q));
                    }
                }
            }
        }
        // The margin is not so wide that nothing tight is ever skipped: the
        // bounds at half the squared distance are well outside it.
        assert!(skipped > 100, "{skipped} skips");
    }

    #[test]
    fn rows_far_from_the_mean_and_a_row_at_a_million() {
        let mut rng = Rng::new(0x52);
        for d in [64usize, 1000, 4096] {
            let sub = random_subspace(d, &mut rng);
            let u = sub.1.point(0).to_vec();
            let mut far = vec![0.0f32; d];
            for by in [1e3f32, 1e6] {
                // Far off the subspace, with q − x still along a basis vector.
                rng.fill_normal(&mut far);
                let p: Vec<f32> = sub.0.iter().zip(&far).map(|(m, f)| m + by * f).collect();
                let q = offset(&p, &u, 2.0);
                let x = offset(&p, &u, -1.5);
                check(&q, &x, &sub, &bounds_around(&q, &x));
                // A row inserted at 10⁶ scale, against a query near μ.
                let x: Vec<f32> = far.iter().map(|f| by * f).collect();
                let q = offset(&sub.0, &u, 1.0);
                let mut bounds = bounds_around(&q, &x);
                bounds.extend([1.0, 1e6, 1e12]);
                check(&q, &x, &sub, &bounds);
                check(&x, &q, &sub, &bounds);
            }
        }
    }

    #[test]
    fn rows_at_the_edge_of_underflow() {
        let mut rng = Rng::new(0x53);
        for d in [64usize, 4096] {
            let (mean, basis, sigma) = random_subspace(d, &mut rng);
            let mean: Vec<f32> = mean.iter().map(|v| v * 1e-18).collect();
            let sub = (mean, basis, sigma);
            let u = sub.1.point(0).to_vec();
            let q = offset(&sub.0, &u, 3e-18);
            for x in [offset(&sub.0, &u, -2e-18), q.clone(), sub.0.clone()] {
                let mut bounds = bounds_around(&q, &x);
                bounds.extend([0.0, 0.0f32.next_up(), f32::MIN_POSITIVE]);
                check(&q, &x, &sub, &bounds);
                check(&x, &q, &sub, &bounds);
            }
        }
    }

    #[test]
    fn overflow_and_nan_turn_the_filter_off() {
        let margin = Margin {
            d: 128,
            s: 2,
            sigma: 1.0,
            radii: 1.0,
        };
        let with = |f: &dyn Fn(&mut Margin)| {
            let mut m = margin;
            f(&mut m);
            m
        };
        assert!(margin.threshold(1.0) < 1.01);
        assert_eq!(margin.threshold(f32::INFINITY), f32::INFINITY);
        assert_eq!(margin.threshold(f32::MAX), f32::INFINITY);
        for off in [
            with(&|m| m.radii = f64::INFINITY),
            with(&|m| m.radii = f64::NAN),
            with(&|m| m.radii = 2.0 * LIMIT),
            with(&|m| m.sigma = f64::INFINITY),
            with(&|m| m.sigma = f64::NAN),
            with(&|m| m.d = 1 << 20),
        ] {
            assert_eq!(off.threshold(1.0), f32::INFINITY);
        }
        // A NaN query component makes its coordinates and its radius NaN:
        // the threshold is off, and a NaN gap skips nothing anyway.
        let mut rng = Rng::new(0x54);
        let (mean, basis, _) = random_subspace(128, &mut rng);
        let mut q = mean.clone();
        q[5] = f32::NAN;
        let (mut y, mut tq) = (vec![0.0; 128], vec![0.0; 2]);
        let radius = project(&q, &mean, &basis, &mut y, &mut tq, dot);
        assert!(radius.is_nan() && tq.iter().all(|v| v.is_nan()));
        assert!(gap_sq(&tq, &[0.0, 0.0]).is_nan());
        assert_eq!(gap_sq(&[3.0; 11], &[1.0; 11]), 44.0);
    }

    #[test]
    fn a_threshold_admits_the_bound_s_own_root() {
        // With no radius and an orthonormal basis the threshold sits just
        // above the bound itself.
        for b in [1e-30f32, 1e-3, 1.0, 2.0, 1e6, 1e30] {
            let margin = Margin {
                d: 256,
                s: 4,
                sigma: 1.0,
                radii: 0.0,
            };
            let t = margin.threshold(b) as f64;
            assert!(t > b as f64, "b {b}: t {t}");
            assert!(t < b as f64 * 1.001 + 1e-35, "b {b}: t {t}");
        }
    }

    #[test]
    fn the_table_is_the_same_for_every_thread_count() {
        let mut rng = Rng::new(0x55);
        let mut data = Dataset::with_capacity(128, 203);
        let mut row = vec![0.0f32; 128];
        for _ in 0..203 {
            rng.fill_normal(&mut row);
            data.push(&row);
        }
        let rows: Vec<usize> = (0..40).collect();
        let (mean, basis) = fit_basis(data.view(), &rows, 2, &mut Rng::new(9));
        let run = |threads| {
            let (table, radius) = table_of(data.view(), &mean, &basis, threads);
            (table.as_flat().to_vec(), radius)
        };
        let one = run(1);
        for threads in [2, 3, 8, 500] {
            assert_eq!(one, run(threads), "{threads} threads");
        }
        // The basis is orthonormal up to its rounding, and σ says so.
        let sigma = spectral_bound(&basis);
        assert!((1.0 - 1e-5..1.0 + 1e-5).contains(&sigma), "σ {sigma}");
    }
}

//! lint: hot-path
//!
//! The PM-LSH index: build, (r,c)-BC queries (Algorithm 1) and (c,k)-ANN
//! queries (Algorithm 2).

use crate::build::BuildOptions;
use crate::context::QueryContext;
use crate::params::{DerivedParams, PmLshParams};
use crate::subspace::{Subspace, SUBSPACE_STREAM};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::{sq_dist_rows_within, Dataset, Neighbor, PointId, RowStore};
use pm_lsh_pmtree::PmTree;
use pm_lsh_stats::{distance_distribution, Ecdf, Rng};
use std::cell::Cell;
use std::sync::Arc;

/// Per-query execution counters, used by the benchmark harness and by the
/// candidate-budget and mutation tests (`crates/core/tests/quality.rs`,
/// `mutation.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates whose original-space distance was verified. A candidate
    /// the principal-subspace filter skips ([`PmLsh::subspace`]) still
    /// counts: it was proven
    /// outside the top-k without reading its row, as an abandoned
    /// candidate is proven outside it after reading part of its row.
    pub candidates_verified: usize,
    /// Distance computations inside the projected space: exactly the live
    /// count `n`, one per indexed point. The candidate stream comes from
    /// one sweep over the projected point column, which measures every
    /// point once and nothing else (no pivot, no routing entry). At the
    /// budgets Algorithm 2 spends, the tree's range traversal would pay
    /// more than `n`: 56 018 per query on `audio_verify` (n = 54 000),
    /// 2 168 on `audio_wire` (n = 2 000), 12 974 on `trevi_highdim`
    /// (n = 12 000). A scatter-gather query sums its legs: the live count
    /// of every shard it asked.
    pub projected_dist_computations: u64,
    /// Radius-enlargement rounds executed (1 means `r_min` sufficed).
    pub rounds: u32,
}

impl QueryStats {
    /// Accumulates another query's counters into this one (saturating, so
    /// long-running aggregations cannot wrap).
    pub fn merge(&mut self, other: &QueryStats) {
        self.candidates_verified = self
            .candidates_verified
            .saturating_add(other.candidates_verified);
        self.projected_dist_computations = self
            .projected_dist_computations
            .saturating_add(other.projected_dist_computations);
        self.rounds = self.rounds.saturating_add(other.rounds);
    }
}

impl std::ops::AddAssign<&QueryStats> for QueryStats {
    fn add_assign(&mut self, rhs: &QueryStats) {
        self.merge(rhs);
    }
}

impl std::ops::AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for QueryStats {
    fn sum<I: Iterator<Item = QueryStats>>(iter: I) -> Self {
        iter.fold(QueryStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

impl<'a> std::iter::Sum<&'a QueryStats> for QueryStats {
    fn sum<I: Iterator<Item = &'a QueryStats>>(iter: I) -> Self {
        iter.fold(QueryStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// Result of a `(c, k)`-ANN query: neighbors sorted by ascending original
/// distance plus the execution counters.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Up to `k` approximate nearest neighbors.
    pub neighbors: Vec<Neighbor>,
    /// Execution counters.
    pub stats: QueryStats,
}

/// One mutation in a [`PmLsh::apply`] batch.
#[derive(Clone, Debug, PartialEq)]
pub enum MutOp {
    /// Append one point (exactly `dim()` finite components) under a fresh
    /// external id.
    Insert(Vec<f32>),
    /// Remove the live point carrying this external id.
    Delete(pm_lsh_metric::PointId),
}

/// Why one op of a [`PmLsh::apply`] batch was rejected. Rejections are
/// per-op: the rest of the batch still applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutReject {
    /// An insert's component count does not match the index
    /// dimensionality.
    WrongDim {
        /// The index dimensionality `d`.
        expected: usize,
        /// The offered component count.
        got: usize,
    },
    /// An insert carries a NaN or infinite component.
    NonFinite,
    /// A delete names an id no live point carries (never assigned, or
    /// already deleted — possibly earlier in the same batch).
    UnknownId(pm_lsh_metric::PointId),
    /// A delete would remove the last live point. A built index is
    /// non-empty by construction, and every serving layer keeps it that
    /// way; `apply` enforces the same floor so a batch can never drain
    /// the index (the single-op [`PmLsh::delete`] has no such guard).
    WouldEmpty,
}

/// Conservative squared-distance admission bound for a current best/k-th
/// neighbor distance `kth` (an `f32` Euclidean distance, or
/// `f32::INFINITY` while the collector is not full).
///
/// Verification compares *squared* distances against this bound, so it has
/// to over-admit rather than over-reject: every squared distance whose
/// rounded `sqrt` is `<= kth` must satisfy `sq <= abandon_bound(kth)`,
/// otherwise early abandonment could drop a candidate that belongs to the
/// exact `(dist, id)` top-k of the verified set. Squaring `kth` and
/// stepping up two ulps covers the worst-case rounding of both the square
/// and the candidate's own `sqrt` (relative error ≤ 2⁻²⁴ each, i.e. ≤ ~1.5
/// ulp of `kth²` combined); at `kth = 1`, `sq = 1 + 2⁻²³` has a `sqrt` of
/// exactly 1, so `kth²` alone is too tight. The unit test
/// `abandon_bound_admits_every_square_whose_root_is_within_kth` pins the
/// margin over a sweep of `kth`. It matters most once a round's nearest
/// candidates have been verified first and the bound sits near the final
/// k-th distance, with many candidates right at it. Over-admitted
/// borderline candidates are simply computed in full and rejected by the
/// heap, as a full distance for *every* candidate would be — so the bound
/// trades a sliver of abandonment opportunity for answers that are exactly
/// that top-k.
#[inline]
fn abandon_bound(kth: f32) -> f32 {
    if kth == f32::INFINITY {
        f32::INFINITY
    } else {
        (kth * kth).next_up().next_up()
    }
}

/// The PM-LSH index over a dataset in `R^d`.
///
/// Building projects every point through `m` Gaussian hash functions
/// (Eq. 3), keeps the projections as a column ([`PmTree::column`]: the
/// points in blocks of eight rows, no pivot and no node), and samples the
/// distance distribution `F` used to choose the start radius `r_min`
/// (Section 4.5). Where its own data says it pays, the build also keeps a
/// [`Subspace`]: the data's `d/64` top principal directions and every row's
/// coordinates in them, with which verification skips a candidate without
/// reading its row.
/// Every query takes its candidates from one sweep over
/// that column: at the budgets Algorithm 2 spends, the paper's PM-tree
/// range traversal would pay more distances than there are points
/// (docs/ARCHITECTURE.md, "The served tree is a column").
///
/// After building, the index supports single-point maintenance:
/// [`PmLsh::insert`] projects a new point and appends its row,
/// [`PmLsh::delete`] removes one for real (the VLDBJ extension of the
/// paper frames the index as updatable; a column has no tree to
/// rebalance). Mutations keep the dataset row store and the projected
/// column in lock-step; queries on a `&PmLsh` remain pure reads.
///
/// ```
/// use pm_lsh_core::{PmLsh, PmLshParams};
/// use pm_lsh_metric::Dataset;
/// use pm_lsh_stats::Rng;
///
/// let mut rng = Rng::new(7);
/// let mut ds = Dataset::with_capacity(32, 500);
/// let mut buf = [0.0f32; 32];
/// for _ in 0..500 {
///     rng.fill_normal(&mut buf);
///     ds.push(&buf);
/// }
/// let query = ds.point(0).to_vec();
/// let index = PmLsh::build(ds, PmLshParams::default());
/// let res = index.query(&query, 3);
/// assert_eq!(res.neighbors[0].id, 0); // the point itself
/// ```
#[derive(Clone, Debug)]
pub struct PmLsh {
    data: RowStore,
    projector: GaussianProjector,
    tree: PmTree,
    params: PmLshParams,
    derived: DerivedParams,
    /// Shared, not copied, by every copy-on-write publication: nothing
    /// after a build changes it.
    dist_f: Arc<Ecdf>,
    /// The principal subspace, where the build measured that it pays; one
    /// table row per stored row.
    subspace: Option<Subspace>,
}

impl PmLsh {
    /// Builds the index. Accepts an owned [`Dataset`] or an `Arc<Dataset>`
    /// shared with other indexes (the benchmark harness compares six
    /// algorithms over one in-memory copy).
    pub fn build(data: impl Into<Arc<Dataset>>, params: PmLshParams) -> Self {
        Self::build_with_opts(data, params, BuildOptions::default())
    }

    /// Builds the index in parallel. `opts.threads` workers split the
    /// Gaussian projection by row chunk; the result is identical for every
    /// thread count and to [`PmLsh::build`]'s (see [`BuildOptions`]), so
    /// `opts` trades wall-clock time only.
    ///
    /// ```
    /// use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
    /// use pm_lsh_metric::Dataset;
    /// use pm_lsh_stats::Rng;
    ///
    /// let mut rng = Rng::new(3);
    /// let mut ds = Dataset::with_capacity(16, 600);
    /// let mut buf = [0.0f32; 16];
    /// for _ in 0..600 {
    ///     rng.fill_normal(&mut buf);
    ///     ds.push(&buf);
    /// }
    /// let a = PmLsh::build_with_opts(ds.clone(), PmLshParams::default(), BuildOptions::with_threads(1));
    /// let b = PmLsh::build_with_opts(ds.clone(), PmLshParams::default(), BuildOptions::with_threads(4));
    /// let q = ds.point(5);
    /// assert_eq!(a.query(q, 5).neighbors, b.query(q, 5).neighbors);
    /// ```
    pub fn build_with_opts(
        data: impl Into<Arc<Dataset>>,
        params: PmLshParams,
        opts: BuildOptions,
    ) -> Self {
        let data = data.into();
        let mut rng = Rng::new(params.seed);
        let projector = GaussianProjector::new(data.dim(), params.m as usize, &mut rng);
        Self::build_inner(data, projector, params, &mut rng, opts.effective_threads())
    }

    /// Builds with a caller-supplied projector (used by ablations that share
    /// one projection across algorithms, and by the running-example tests).
    pub fn build_with_projector(
        data: impl Into<Arc<Dataset>>,
        projector: GaussianProjector,
        params: PmLshParams,
        rng: &mut Rng,
    ) -> Self {
        Self::build_inner(data, projector, params, rng, 1)
    }

    /// Shared build pipeline: project every point, keep the projections as
    /// a column, sample `F`, then decide on a principal subspace from a
    /// stream forked off `rng` after `F`, so `F` is the one a build without
    /// it samples. The projection, the subspace and its table give the same
    /// result on
    /// any number of `threads`, so every build entry point yields the same
    /// index.
    fn build_inner(
        data: impl Into<Arc<Dataset>>,
        projector: GaussianProjector,
        params: PmLshParams,
        rng: &mut Rng,
        threads: usize,
    ) -> Self {
        let data = data.into();
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert_eq!(
            projector.input_dim(),
            data.dim(),
            "projector dimensionality mismatch"
        );
        assert_eq!(
            projector.output_dim(),
            params.m as usize,
            "projector m mismatch"
        );
        let derived = params.derive();
        let projected = projector.project_all_threaded(data.view(), threads);
        let tree = PmTree::column(projected.view());
        let (n, sample) = (data.len(), params.tree.pivot_sample);
        if params.tree.num_pivots > 0 && n > sample {
            // The bulk load this replaced drew its pivot sample here; drawn
            // and dropped, it keeps F (so every r_min) bit-identical.
            rng.sample_indices(n, sample);
        }
        let dist_f = if data.len() >= 2 {
            let pairs = params
                .distance_samples
                .min(data.len() * (data.len() - 1) / 2)
                .max(1);
            distance_distribution(data.view(), pairs, rng)
        } else {
            // Degenerate single-point dataset: any start radius works, the
            // radius enlargement of Algorithm 2 takes over immediately.
            // lint: allow(hot-path) -- one-time build path, not a query
            Ecdf::new(vec![1.0])
        };
        let subspace = Subspace::build(
            data.view(),
            &dist_f,
            derived.beta,
            rng.fork(SUBSPACE_STREAM),
            threads,
        );
        Self {
            data: RowStore::new(data),
            projector,
            tree,
            params,
            derived,
            dist_f: Arc::new(dist_f),
            subspace,
        }
    }

    /// The point store. Row `id` holds the vector behind external id `id`.
    ///
    /// After deletions this keeps the dead rows too (external ids are
    /// stable row indexes, so the original-space store is append-only
    /// until a rebuild); enumerate *live* points through
    /// [`PmLsh::live_ids`], not by row-scanning. Its base is the dataset
    /// the index was built or loaded from, shared and never copied; rows
    /// inserted since live in its tail chunks.
    pub fn data(&self) -> &RowStore {
        &self.data
    }

    /// Number of *live* indexed points (tracks [`PmLsh::insert`] and
    /// [`PmLsh::delete`]; equals `data().len()` until the first delete).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when every point has been deleted (a *built* index always
    /// starts non-empty).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The external ids of every live point, in the index's internal
    /// storage order.
    pub fn live_ids(&self) -> &[pm_lsh_metric::PointId] {
        self.tree.external_ids()
    }

    /// `true` when a live point carries this external id.
    pub fn contains(&self, id: pm_lsh_metric::PointId) -> bool {
        self.tree.contains_external(id)
    }

    /// Inserts one point, returning its external id (the id `query` will
    /// report it under). The id is fresh: ids are never reused, even
    /// after deletions.
    ///
    /// The point is projected through the index's hash functions, and
    /// both its projected row and its dataset row are appended. The
    /// build-time distance distribution `F` is *not* resampled: `r_min`
    /// follows the live count `n` but drifts only as far as the data
    /// distribution itself drifts, and a `REINDEX` restores an
    /// exactly-sampled `F` — the documented trade-off of incremental
    /// maintenance.
    ///
    /// The asserting one-op form of [`PmLsh::apply`]: the same patch,
    /// with a malformed point a panic instead of a typed rejection.
    ///
    /// # Panics
    /// Panics if `point` has the wrong dimensionality or a non-finite
    /// component (serving layers validate first; see
    /// `pm_lsh_engine::ShardedEngine::insert` for the error-returning
    /// form).
    pub fn insert(&mut self, point: &[f32]) -> pm_lsh_metric::PointId {
        assert_eq!(
            point.len(),
            self.data.dim(),
            "point has wrong dimensionality"
        );
        assert!(
            point.iter().all(|v| v.is_finite()),
            "point contains a non-finite component"
        );
        // lint: allow(hot-path) -- a mutation, not a query; the row is copied in anyway
        self.patch(&MutOp::Insert(point.to_vec()))
    }

    /// Deletes the point with external id `id`; `false` when no live
    /// point carries it. Its projected row is removed for real (the last
    /// row moves into it — see `PmTree::delete`); the original-space row
    /// stays behind as a stable-id tombstone until the next rebuild and is
    /// never returned by queries. Unlike a batch delete, it may empty the
    /// index.
    pub fn delete(&mut self, id: pm_lsh_metric::PointId) -> bool {
        let live = self.contains(id);
        if live {
            self.patch(&MutOp::Delete(id));
        }
        live
    }

    /// Applies a batch of interleaved inserts and deletes in one pass,
    /// returning one result per op in input order: `Ok(id)` carries the
    /// inserted (fresh) or deleted external id, `Err` the typed
    /// [`MutReject`]. A rejected op never poisons the batch — the ops
    /// around it still apply, each validated against the index state its
    /// predecessors left behind, so the surviving ops land **exactly** as
    /// if applied one at a time through [`PmLsh::insert`] /
    /// [`PmLsh::delete`].
    ///
    /// Nothing is amortized at this layer — `r_min` and the candidate
    /// budget `βn + k` are computed per query from the live count `n`.
    /// The engine layer adds the win: one copy-on-write clone and one
    /// epoch bump per batch (`pm_lsh_engine::ShardedEngine::apply`,
    /// through [`PmLsh::apply_cow`]).
    ///
    /// Unlike the asserting single-op [`PmLsh::insert`], malformed
    /// vectors (wrong dimensionality, non-finite components) are typed
    /// rejections here. The one batch-only rule: a delete that would
    /// empty the index is rejected with [`MutReject::WouldEmpty`].
    pub fn apply(&mut self, ops: &[MutOp]) -> Vec<Result<pm_lsh_metric::PointId, MutReject>> {
        ops.iter()
            .map(|op| self.admit(op).map(|()| self.patch(op)))
            .collect()
    }

    /// The copy-on-write form of [`PmLsh::apply`], for serving layers
    /// that publish immutable snapshots: `self` is never touched, and the
    /// clone is paid only by the first op that is actually admitted. The
    /// clone shares the row store ([`RowStore`]): an insert copies at most
    /// the one [`pm_lsh_metric::CHUNK_ROWS`]-row chunk it appends to (and
    /// the one chunk of the subspace's table, when there is one), and a
    /// delete copies no row. The projected column and its id map are
    /// copied whole, O(n); there is no node to copy. Returns
    /// the patched clone — `None` when every op was rejected (or `ops` is
    /// empty), so a refused mutation costs no clone at all — beside the
    /// same per-op results [`PmLsh::apply`] reports.
    pub fn apply_cow(
        &self,
        ops: &[MutOp],
    ) -> (Option<Self>, Vec<Result<pm_lsh_metric::PointId, MutReject>>) {
        let mut next: Option<Self> = None;
        let results = ops
            .iter()
            .map(|op| {
                next.as_ref().unwrap_or(self).admit(op)?;
                Ok(next.get_or_insert_with(|| self.clone()).patch(op))
            })
            .collect();
        (next, results)
    }

    /// Whether `op` applies to the index as it stands — the one per-op
    /// check behind [`PmLsh::apply`] and [`PmLsh::apply_cow`].
    fn admit(&self, op: &MutOp) -> Result<(), MutReject> {
        match op {
            MutOp::Insert(point) if point.len() != self.data.dim() => Err(MutReject::WrongDim {
                expected: self.data.dim(),
                got: point.len(),
            }),
            MutOp::Insert(point) if !point.iter().all(|v| v.is_finite()) => {
                Err(MutReject::NonFinite)
            }
            MutOp::Delete(id) if !self.tree.contains_external(*id) => {
                Err(MutReject::UnknownId(*id))
            }
            MutOp::Delete(_) if self.tree.len() == 1 => Err(MutReject::WouldEmpty),
            _ => Ok(()),
        }
    }

    /// Patches one op [`PmLsh::admit`] accepted into the index, returning
    /// the inserted or deleted id.
    fn patch(&mut self, op: &MutOp) -> pm_lsh_metric::PointId {
        match op {
            MutOp::Insert(point) => {
                let id = self.data.len() as pm_lsh_metric::PointId;
                let projected = self.projector.project(point);
                if let Some(subspace) = &mut self.subspace {
                    subspace.push(point);
                }
                self.data.push(point);
                self.tree.insert(&projected, id);
                id
            }
            MutOp::Delete(id) => {
                self.tree.delete(*id);
                *id
            }
        }
    }

    /// The effective parameters.
    pub fn params(&self) -> &PmLshParams {
        &self.params
    }

    /// The Algorithm 2 candidate budget this index verifies before it
    /// stops: `⌈β·n⌉ + k`, clamped to the live count `n` (a budget beyond
    /// the live points is exhaustive anyway). Exposed so sharded serving
    /// layers can prove their per-shard budgets sum to at least the
    /// monolithic budget — the paper's quality guarantee (§4.4) survives
    /// partitioning exactly when they do.
    pub fn candidate_budget(&self, k: usize) -> usize {
        self.budget_with(self.derived.beta, k)
    }

    /// `⌈β·n⌉ + k` clamped to the live count, for an explicit `β` (the
    /// per-query `c` sweeps re-derive β; everything else uses the build
    /// derivation via [`PmLsh::candidate_budget`]).
    fn budget_with(&self, beta: f64, k: usize) -> usize {
        let n = self.len();
        ((beta * n as f64).ceil() as usize + k).min(n)
    }

    /// The Eq. 10 derivation in effect.
    pub fn derived(&self) -> DerivedParams {
        self.derived
    }

    /// The projected column ([`PmTree::column`]: no pivot, no node): its
    /// cursors sweep, streaming candidates exactly as [`PmLsh::query`]
    /// reads them. For the textbook range traversal, bulk-load a
    /// [`PmTree::build`] over the same projected rows.
    pub fn tree(&self) -> &PmTree {
        &self.tree
    }

    /// The sampled original-space distance distribution `F`.
    pub fn distance_distribution(&self) -> &Ecdf {
        &self.dist_f
    }

    /// The Gaussian projector (the index's `m` hash functions).
    pub fn projector(&self) -> &GaussianProjector {
        &self.projector
    }

    /// The principal subspace verification skips rows with, or `None`
    /// where the build measured that it would not pay (see
    /// docs/ARCHITECTURE.md, "Verification skips by principal subspace").
    pub fn subspace(&self) -> Option<&Subspace> {
        self.subspace.as_ref()
    }

    /// This index without its principal subspace: every candidate is read,
    /// and every answer and [`QueryStats`] counter stays what it was. An
    /// insert into it appends no table row.
    pub fn without_subspace(mut self) -> Self {
        self.subspace = None;
        self
    }

    /// Reassembles an index from its constituent parts — the
    /// deserialization path of the `pm-lsh-persist` snapshot format.
    ///
    /// The derived Eq. 10 parameters are *recomputed*, not restored:
    /// they are a deterministic function of `params`, so a reassembled
    /// index answers every query — including every [`QueryStats`]
    /// counter — bit-identically to the index the parts came from.
    ///
    /// Cross-component consistency is validated (dimensionalities, id
    /// ranges, that `tree` is a column, and that `subspace` lives in the
    /// rows' space and has one table row per stored row); the column's own
    /// structure is the caller's concern (`PmTree::from_parts` checks it),
    /// and so is the subspace's ([`Subspace::from_parts`]).
    pub fn from_parts(
        data: Arc<Dataset>,
        projector: GaussianProjector,
        tree: PmTree,
        params: PmLshParams,
        dist_f: impl Into<Arc<Ecdf>>,
        subspace: Option<Subspace>,
    ) -> Result<Self, String> {
        let dist_f = dist_f.into();
        if data.is_empty() {
            return Err("cannot index an empty dataset".into());
        }
        if projector.input_dim() != data.dim() {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "projector reads R^{}, data lives in R^{}",
                projector.input_dim(),
                data.dim()
            ));
        }
        if projector.output_dim() != params.m as usize {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "projector writes R^{}, params declare m={}",
                projector.output_dim(),
                params.m
            ));
        }
        if tree.node_count() != 0 {
            return Err("the served index is a column; a bulk-loaded tree is not".into());
        }
        if tree.dim() != params.m as usize {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "tree indexes R^{}, params declare m={}",
                tree.dim(),
                params.m
            ));
        }
        if tree.len() > data.len() {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "{} live tree points but only {} stored rows",
                tree.len(),
                data.len()
            ));
        }
        if let Some(&bad) = tree
            .external_ids()
            .iter()
            .find(|&&id| id as usize >= data.len())
        {
            // lint: allow(hot-path) -- load-time validation error path
            return Err(format!(
                "external id {bad} outside the {}-row point store",
                data.len()
            ));
        }
        if dist_f.is_empty() {
            return Err("distance distribution has no samples".into());
        }
        if let Some(subspace) = &subspace {
            if subspace.mean().len() != data.dim() {
                // lint: allow(hot-path) -- load-time validation error path
                return Err(format!(
                    "subspace lives in R^{}, data in R^{}",
                    subspace.mean().len(),
                    data.dim()
                ));
            }
            if subspace.table().len() != data.len() {
                // lint: allow(hot-path) -- load-time validation error path
                return Err(format!(
                    "subspace table has {} rows, the point store {}",
                    subspace.table().len(),
                    data.len()
                ));
            }
        }
        let derived = params.derive();
        Ok(Self {
            data: RowStore::new(data),
            projector,
            tree,
            params,
            derived,
            dist_f,
            subspace,
        })
    }

    /// The start radius of Algorithm 2 for a given `k`: the paper picks `r`
    /// with `n·F(r) = βn + k`, then shrinks it slightly. One ECDF quantile
    /// (two array reads and a lerp) over the live count `n`.
    pub fn select_rmin(&self, k: usize) -> f64 {
        let n = self.len() as f64;
        let target = (self.derived.beta + k as f64 / n).min(1.0);
        let r = self.dist_f.quantile(target);
        let r = if r > 0.0 {
            r
        } else {
            self.dist_f.quantile(1.0).max(1e-6)
        };
        r * self.params.rmin_shrink
    }

    /// Algorithm 2: the `(c, k)`-ANN query with the build-time `c`, as an
    /// owned result.
    ///
    /// Allocates a fresh [`QueryContext`] and result vector per call;
    /// serving loops should hold one context and use [`PmLsh::query_into`]
    /// instead, which is allocation-free at steady state and returns
    /// identical results.
    pub fn query(&self, q: &[f32], k: usize) -> QueryResult {
        // lint: allow(hot-path) -- owned-result convenience; query_into is the zero-alloc entry
        let mut neighbors = Vec::new();
        let mut ctx = QueryContext::new();
        let stats = self.query_into(q, k, self.params.c, &mut ctx, &mut neighbors);
        QueryResult { neighbors, stats }
    }

    /// The `(c, k)`-ANN workhorse: Algorithm 2 over a reused
    /// [`QueryContext`], writing the neighbors into `out` (cleared first).
    ///
    /// `c` is the approximation ratio (the Figs. 10–11 time/quality sweeps
    /// vary it per query; `self.params().c` is the build-time one). The
    /// candidate budget `βn + k` is re-derived for the given `c` unless the
    /// index was built with a pinned `β`.
    ///
    /// This is the fully allocation-free entry point: with a warmed-up
    /// `ctx` and an `out` whose capacity has reached the working set,
    /// repeated calls never touch the global allocator
    /// (`crates/core/tests/zero_alloc.rs` pins this with a counting
    /// allocator).
    pub fn query_into(
        &self,
        q: &[f32],
        k: usize,
        c: f64,
        ctx: &mut QueryContext,
        out: &mut Vec<Neighbor>,
    ) -> QueryStats {
        self.search(q, SearchSpec::Ann { k, c }, ctx, out)
    }

    /// Algorithm 2 as the per-shard leg of a scatter-gather query: spends
    /// an explicit candidate `budget` (clamped to the live count) and
    /// skips the line-4 early termination.
    ///
    /// Two things change versus [`PmLsh::query_into`], both because a
    /// shard holds only a slice of the data:
    ///
    /// 1. **No line-4 stop.** Line 4 terminates once the k-th candidate
    ///    sits within `c·r` — a property of the *final* answer, which no
    ///    single shard holds. Stopping on the shard-local top-k leaves
    ///    budget unspent and lets the merged recall fall below the
    ///    monolithic index's. This leg stops only when the budget is
    ///    exhausted or the whole tree has been consumed.
    /// 2. **Caller-supplied budget.** The caller passes the *pooled*
    ///    budget `⌈β·n_total⌉ + k` computed over all shards. Because the
    ///    verified set is always a prefix of the projected-distance order,
    ///    and a point's rank within its shard never exceeds its global
    ///    rank, every candidate the monolithic index would verify is then
    ///    verified by some shard — the merged candidate pool is a
    ///    superset, which makes `recall(sharded) ≥ recall(monolithic)`
    ///    deterministic rather than statistical.
    pub fn query_fanout_into(
        &self,
        q: &[f32],
        k: usize,
        budget: usize,
        ctx: &mut QueryContext,
        out: &mut Vec<Neighbor>,
    ) -> QueryStats {
        self.search(q, SearchSpec::Fanout { k, budget }, ctx, out)
    }

    /// Algorithm 1: the `(r, c)`-ball-cover query over a reused
    /// [`QueryContext`]. Returns a point within `c·r` of `q` (the closest
    /// verified candidate) or `None`, with the guarantees of Lemma 5, and
    /// the query's counters: `candidates_verified` reaches the cap
    /// `⌈βn⌉ + 1` exactly when the ball held that many points, and `rounds`
    /// is 1. Allocation-free at steady state.
    pub fn query_bc(
        &self,
        q: &[f32],
        r: f64,
        ctx: &mut QueryContext,
    ) -> (Option<Neighbor>, QueryStats) {
        let mut hit = std::mem::take(&mut ctx.hit);
        let stats = self.search(q, SearchSpec::BallCover { r }, ctx, &mut hit);
        let answer = hit.first().copied();
        ctx.hit = hit;
        (answer, stats)
    }

    /// The one search routine behind every query form: project `q`, walk
    /// the incremental range query `B(q', t·r)` — fed by one sweep over the
    /// projected column — verify each candidate in the original space, and
    /// stop as `spec` says. The neighbors land in `out` (cleared first),
    /// ascending by `(dist, id)`; the cursor's scratch goes back into
    /// `ctx`.
    ///
    /// A round is a set. Algorithm 2 tests termination only between
    /// rounds (line 4 at the top, the budget by count), so the order in
    /// which a round's candidates are verified is unobservable; what is
    /// observable is which candidates the budget cut keeps, and the cursor
    /// ([`pm_lsh_pmtree::RangeCursor::take_within`]) keeps the first
    /// `budget − verified` by `(projected dist, id)` — the prefix a stream
    /// would have yielded. No served query sorts its candidates.
    ///
    /// The round is verified in one kernel call
    /// ([`sq_dist_rows_within`]), in an order chosen for speed alone. While
    /// the top-k is not yet full and the round holds more than w = 16·k
    /// candidates, its nearest w by `(projected dist, id)` go first (one
    /// more `select_nth_unstable`, [`pm_lsh_pmtree::Round::split_nearest`]):
    /// they fill the top-k with near neighbors, so the abandon bound is
    /// close to its final value before the bulk is read. The rest follow in
    /// ascending row id — a forward walk through the row store, through a
    /// bitmap of one bit per stored row in `ctx` — and the kernel asks for
    /// the front of the row two candidates ahead while it measures one.
    ///
    /// With a principal subspace ([`PmLsh::subspace`]), the query computes
    /// its `s` coordinates `U(q − μ)` once, into `ctx`, and the id stream
    /// that feeds the kernel drops each candidate whose coordinates lie far
    /// enough from them to prove it would measure above the abandon bound
    /// in force when the walk pulls its id (the bound never rises within a
    /// query, so a bound two rows stale only skips less). The kernel never
    /// reads, nor asks ahead for, a dropped row: the read-ahead asks only
    /// for rows the filter kept.
    ///
    /// Verification runs in the squared-distance domain: each candidate is
    /// measured early-abandoning against a conservative squared bound
    /// derived from the current k-th neighbor distance ([`abandon_bound`]),
    /// so candidates that cannot enter the top-k stop mid-kernel and never
    /// pay a `sqrt`. Kept candidates are completed exactly (same kernel,
    /// same accumulation order) and take one `sqrt` on insertion, which
    /// keeps every distance the verifier stores equal to
    /// [`pm_lsh_metric::euclidean`]'s: the answer is the exact `(dist, id)`
    /// top-k of the verified set, whatever the order (`tests/hotpath_parity.rs`
    /// pins it, and every [`QueryStats`] counter, against a linear scan).
    fn search(
        &self,
        q: &[f32],
        spec: SearchSpec,
        ctx: &mut QueryContext,
        out: &mut Vec<Neighbor>,
    ) -> QueryStats {
        assert_eq!(q.len(), self.data.dim(), "query has wrong dimensionality");
        let (k, c) = match spec {
            SearchSpec::Ann { k, c } => (k, c),
            SearchSpec::Fanout { k, .. } => (k, self.params.c),
            SearchSpec::BallCover { .. } => (1, self.params.c),
        };
        // Only plain Algorithm 2 stops on line 4: a fan-out leg's local
        // top-k is not the final answer, and Algorithm 1 judges its one
        // ball after the fact.
        let line4_stop = matches!(spec, SearchSpec::Ann { .. });
        let one_ball = matches!(spec, SearchSpec::BallCover { .. });
        assert!(k >= 1, "k must be positive");
        assert!(c > 1.0, "approximation ratio must exceed 1");
        let derived = if c == self.params.c {
            self.derived
        } else {
            // A pinned β (paper operating point) applies to the build-time c
            // only; sweeps over c re-derive the budget from Eq. 10.
            PmLshParams {
                c,
                beta_override: None,
                ..self.params
            }
            .derive()
        };
        // Budgets and the start radius read the live count: deletions
        // shrink both the candidate budget and the radius-selection
        // population.
        let (budget, mut r) = match spec {
            SearchSpec::Ann { .. } => (self.budget_with(derived.beta, k), self.select_rmin(k)),
            SearchSpec::Fanout { budget, .. } => (budget.min(self.len()), self.select_rmin(k)),
            SearchSpec::BallCover { r } => {
                assert!(r > 0.0, "radius must be positive");
                // Deliberately unclamped: a cap beyond the live count can
                // never be reached, which is what sends a small index
                // through the lines 6–9 test below.
                ((derived.beta * self.len() as f64).ceil() as usize + 1, r)
            }
        };
        ctx.qp.resize(self.params.m as usize, 0.0);
        self.projector.project_into(q, &mut ctx.qp);
        let mut cursor = self
            .tree
            .cursor_with_scratch(&ctx.qp, std::mem::take(&mut ctx.scratch));

        let top = &mut ctx.top;
        top.reset(k);
        let marks = &mut ctx.marks;
        marks.clear();
        marks.resize(self.data.len().div_ceil(64), 0);
        let mut verified = 0usize;
        let mut rounds = 0u32;
        // Invariant: `bound == abandon_bound(top.kth_dist())`, refreshed
        // only when an insertion changes the k-th distance — not per
        // candidate. A cell, because the subspace filter reads it as the
        // walk pulls each id while the kernel's `keep` lowers it.
        let bound = Cell::new(f32::INFINITY);
        let mut subspace = (self.subspace.as_ref())
            .map(|subspace| subspace.probe(q, &mut ctx.offset, &mut ctx.coords));

        loop {
            rounds += 1;
            // Termination test of Algorithm 2 line 4: k candidates already
            // within c·r of the query. (Linear domain on purpose: squaring
            // both sides would round differently and could flip the
            // comparison at the boundary, where Algorithm 2 compares the
            // k-th distance itself.)
            if line4_stop && top.is_full() && (top.kth_dist() as f64) <= c * r {
                break;
            }
            // This round's candidates from the incremental range query
            // B(q', t·r), as a set: all of them, or the first
            // `budget − verified` by (projected dist, id) when the budget
            // cuts the round.
            let proj_radius = (derived.t * r) as f32;
            let round = cursor.take_within(proj_radius, budget - verified);
            verified += round.len();
            // While `top` is not full the bound is ∞, and in row order the
            // first k rows are arbitrary. A round of more than w = 16·k
            // then puts its nearest w by (projected dist, id) first, so the
            // bound is near its final value before the row-order walk.
            let w = WARM_PER_K.saturating_mul(k);
            let warm = if !top.is_full() && round.len() > w {
                w
            } else {
                0
            };
            let (nearest, rest) = round.split_nearest(warm);
            for (id, _proj_dist) in rest.iter() {
                marks[id as usize / 64] |= 1 << (id % 64);
            }
            // Verify the nearest first, then the rest in ascending row id
            // — ascending address in the row store — clearing the marks on
            // the way, in one kernel call. Nothing observable depends on
            // the order: the top-k is the k smallest under the total order
            // (dist, id), and the bound only decides how early a rejected
            // candidate stops. A kept `sq` is exact: one sqrt, then the
            // (dist, id) insertion a full distance would make. An abandoned
            // one exceeds the bound, so it exceeds every squared distance
            // whose sqrt could still displace the k-th neighbor, and a full
            // distance's push would have been rejected too. A row the
            // subspace skips would have measured above the bound: it is
            // dropped from the ids before the kernel reads or asks ahead
            // for it.
            let ids = nearest.iter().map(|(id, _)| id).chain(drain_marks(marks));
            let keep = |id, sq: f32| {
                if top.push(sq.sqrt(), id) && top.is_full() {
                    bound.set(abandon_bound(top.kth_dist()));
                }
                bound.get()
            };
            match &mut subspace {
                Some(subspace) => {
                    let ids = subspace.filter(ids, &bound);
                    sq_dist_rows_within(q, &self.data, ids, bound.get(), keep)
                }
                None => sq_dist_rows_within(q, &self.data, ids, bound.get(), keep),
            }
            // Termination test of line 9 (Algorithm 1 line 3): candidate
            // budget exhausted.
            if verified >= budget {
                break;
            }
            if one_ball {
                // Algorithm 1 lines 6–9: fewer than βn+1 candidates in the
                // one ball — answer only when the best lies inside B(q, cr).
                if (top.kth_dist() as f64) > c * r {
                    top.reset(1);
                }
                break;
            }
            // The whole tree was consumed below the current radius.
            if cursor.is_exhausted() {
                break;
            }
            r *= c;
        }

        let stats = QueryStats {
            candidates_verified: verified,
            projected_dist_computations: cursor.distance_computations(),
            rounds,
        };
        ctx.scratch = cursor.recycle();
        ctx.top.drain_sorted_into(out);
        stats
    }

    /// Projects an arbitrary point with this index's hash functions.
    pub fn project(&self, point: &[f32]) -> Vec<f32> {
        self.projector.project(point)
    }
}

/// How many nearest candidates per neighbor sought a round verifies first
/// while its top-k is not full: w = 16·k by (projected dist, id). At 16·k
/// the bound they leave is about the final one — Audio reads 126 floats
/// per verified candidate after them, against 120 with the exact final
/// k-th from the start — and one select over a round costs little.
const WARM_PER_K: usize = 16;

/// Walks the bitmap in ascending row id, clearing it on the way: the ids of
/// the set bits.
fn drain_marks(marks: &mut [u64]) -> impl Iterator<Item = PointId> + '_ {
    marks.iter_mut().enumerate().flat_map(|(word_idx, word)| {
        let mut bits = std::mem::take(word);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let id = (64 * word_idx) as PointId + bits.trailing_zeros();
                bits &= bits - 1;
                id
            })
        })
    })
}

/// How one [`PmLsh::search`] stops — the only thing the query forms
/// disagree on.
#[derive(Clone, Copy)]
enum SearchSpec {
    /// Algorithm 2: the radius grows from `r_min` by `c` per round until
    /// the k-th candidate lies within `c·r` (line 4) or the local budget
    /// `⌈βn⌉ + k` is verified (line 9).
    Ann { k: usize, c: f64 },
    /// Algorithm 2 as one shard's leg of a scatter-gather query: the
    /// caller's pooled `budget`, no line-4 stop.
    Fanout { k: usize, budget: usize },
    /// Algorithm 1: `k = 1`, the one radius `r`, cap `⌈βn⌉ + 1`; the best
    /// candidate is kept only if the cap was reached or it lies within
    /// `c·r`. `TopK(1)` replaces on a strictly smaller `(dist, id)`, the
    /// tie-break Algorithm 1 has always used.
    BallCover { r: f64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PmLshParams;

    fn blob(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(d, n);
        let mut buf = vec![0.0f32; d];
        for _ in 0..n {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        ds
    }

    #[test]
    fn abandon_bound_admits_every_square_whose_root_is_within_kth() {
        // At kth = 1 the next float above 1 is 1 + 2⁻²³, whose sqrt rounds
        // back to 1: a bound of exactly kth² would abandon a candidate that
        // ties the k-th distance.
        let tight = 1.0f32.next_up();
        assert_eq!(tight.sqrt(), 1.0);
        let mut kths = vec![1.0f32, 2.0, 0.5, 3.0, 10.0, 1e-3, 1e3];
        let mut rng = Rng::new(0xab);
        for _ in 0..20_000 {
            let exponent = rng.range_f64(-60.0, 60.0) as i32;
            kths.push((1.0 + rng.f32()) * 2.0f32.powi(exponent));
        }
        let mut above_square = 0;
        for kth in kths {
            let bound = abandon_bound(kth);
            // Every float from kth² up to the last one whose sqrt is
            // still <= kth.
            let mut sq = kth * kth;
            while sq.sqrt() <= kth {
                assert!(sq <= bound, "kth {kth}: sq {sq} above bound {bound}");
                above_square += usize::from(sq > kth * kth);
                sq = sq.next_up();
            }
        }
        assert!(above_square > 1000, "{above_square} squares above kth²");
    }

    #[test]
    fn query_stats_merge_and_sum_agree() {
        let a = QueryStats {
            candidates_verified: 3,
            projected_dist_computations: 10,
            rounds: 1,
        };
        let b = QueryStats {
            candidates_verified: 4,
            projected_dist_computations: 22,
            rounds: 2,
        };
        let mut m = a;
        m += b;
        assert_eq!(
            m,
            QueryStats {
                candidates_verified: 7,
                projected_dist_computations: 32,
                rounds: 3
            }
        );
        assert_eq!([a, b].iter().sum::<QueryStats>(), m);
        let mut saturate = QueryStats {
            rounds: u32::MAX,
            ..a
        };
        saturate += &b;
        assert_eq!(saturate.rounds, u32::MAX, "rounds must saturate, not wrap");
    }

    /// `n` points in `R^d` near a 4-dimensional subspace: Gaussian along 4
    /// fixed random axes, with a little noise off them. In `R^256` the
    /// `d/64 = 4` top principal directions hold nearly all of a pair's
    /// distance, so a build keeps a principal subspace over it. Queries
    /// come from the same distribution.
    fn low_rank(n: usize, d: usize, seed: u64) -> Dataset {
        let mut axes = vec![0.0f32; 4 * d];
        Rng::new(0xc1).fill_normal(&mut axes);
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(d, n);
        for _ in 0..n {
            let mut c = [0.0f32; 4];
            rng.fill_normal(&mut c);
            let row: Vec<f32> = (0..d)
                .map(|j| {
                    let along: f32 = (0..4).map(|k| c[k] * axes[k * d + j]).sum();
                    along + 0.01 * rng.normal_f32()
                })
                .collect();
            ds.push(&row);
        }
        ds
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        // Gaussian rows keep no principal subspace; low-rank ones keep one,
        // whose fit and table are spread over the build's threads too.
        for (data, queries, params) in [
            (blob(1200, 12, 71), blob(20, 12, 72), PmLshParams::default()),
            (
                low_rank(1500, 256, 73),
                low_rank(20, 256, 74),
                PmLshParams::paper_defaults(),
            ),
        ] {
            let base = PmLsh::build_with_opts(data.clone(), params, crate::BuildOptions::default());
            let table = |index: &PmLsh| -> Option<(Vec<u32>, [u64; 2])> {
                let sub = index.subspace()?;
                let floats = (sub.mean().iter())
                    .chain(sub.basis().as_flat())
                    .chain(sub.table().runs().flatten());
                let bits = floats.map(|v| v.to_bits()).collect();
                Some((bits, [sub.sigma().to_bits(), sub.radius().to_bits()]))
            };
            assert_eq!(
                base.subspace().is_some(),
                data.dim() == 256,
                "subspace kept"
            );
            for threads in [0usize, 2, 4, 8] {
                let other = PmLsh::build_with_opts(
                    data.clone(),
                    params,
                    crate::BuildOptions::with_threads(threads),
                );
                assert_eq!(
                    table(&base),
                    table(&other),
                    "{threads}-thread subspace diverged"
                );
                for q in queries.iter() {
                    let a = base.query(q, 7);
                    let b = other.query(q, 7);
                    assert_eq!(a.neighbors, b.neighbors, "{threads}-thread build diverged");
                    assert_eq!(a.stats, b.stats, "{threads}-thread traversal diverged");
                }
            }
        }
    }

    #[test]
    fn the_subspace_skips_most_rows_at_the_final_bound_and_no_answer() {
        let data = low_rank(1500, 256, 75);
        let index = PmLsh::build(data, PmLshParams::paper_defaults());
        let subspace = index.subspace().expect("low-rank rows keep a subspace");
        let stripped = index.clone().without_subspace();
        let mut skipped = 0usize;
        let (mut offset, mut coords) = (Vec::new(), Vec::new());
        for q in low_rank(10, 256, 76).iter() {
            let res = index.query(q, 10);
            assert_eq!(res.neighbors, stripped.query(q, 10).neighbors);
            let bound = abandon_bound(res.neighbors[9].dist);
            let mut probe = subspace.probe(q, &mut offset, &mut coords);
            for &id in index.live_ids() {
                if probe.skips(id, bound) {
                    skipped += 1;
                    assert!(
                        res.neighbors.iter().all(|n| n.id != id),
                        "skipped an answer"
                    );
                }
            }
        }
        // Most of the 10 × 1 500 rows are provably farther than the k-th.
        assert!(skipped > 10 * 1500 / 2, "{skipped} rows skipped");
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let data = blob(20, 4, 66);
        let q = data.point(0).to_vec();
        let index = PmLsh::build(data, PmLshParams::default());
        let res = index.query(&q, 50);
        assert_eq!(res.neighbors.len(), 20, "k > n must return all points");
        assert_eq!(res.neighbors[0].id, 0);
    }

    #[test]
    fn singleton_dataset() {
        let data = Dataset::from_rows(vec![vec![1.0, 2.0, 3.0]]);
        let index = PmLsh::build(data, PmLshParams::default());
        let res = index.query(&[1.0, 2.0, 3.0], 1);
        assert_eq!(res.neighbors.len(), 1);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }

    #[test]
    fn apply_matches_single_op_mutations_bit_for_bit() {
        let data = blob(400, 10, 91);
        let queries = blob(8, 10, 92);
        let params = PmLshParams::default();
        let mut batched = PmLsh::build(data.clone(), params);
        let mut single = PmLsh::build(data, params);

        let extra = blob(6, 10, 93);
        let ops = vec![
            MutOp::Insert(extra.point(0).to_vec()),
            MutOp::Delete(3),
            MutOp::Insert(extra.point(1).to_vec()),
            MutOp::Insert(extra.point(2).to_vec()),
            MutOp::Delete(400), // the id the first insert was assigned
            MutOp::Delete(7),
        ];
        let results = batched.apply(&ops);
        assert_eq!(
            results,
            vec![Ok(400), Ok(3), Ok(401), Ok(402), Ok(400), Ok(7)]
        );

        for op in &ops {
            match op {
                MutOp::Insert(p) => {
                    single.insert(p);
                }
                MutOp::Delete(id) => assert!(single.delete(*id)),
            }
        }
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.live_ids(), single.live_ids());
        batched.tree().verify_invariants().expect("batched tree");
        for q in queries.iter() {
            let a = batched.query(q, 5);
            let b = single.query(q, 5);
            assert_eq!(a.neighbors, b.neighbors, "batched path diverged");
            assert_eq!(a.stats, b.stats, "batched traversal diverged");
        }
    }

    #[test]
    fn apply_rejects_bad_ops_without_poisoning_the_batch() {
        let data = blob(50, 6, 94);
        let mut index = PmLsh::build(data, PmLshParams::default());
        let ops = vec![
            MutOp::Insert(vec![1.0; 5]),      // wrong dimensionality
            MutOp::Insert(vec![f32::NAN; 6]), // non-finite
            MutOp::Insert(vec![0.5; 6]),      // fine: id 50
            MutOp::Delete(50),                // fine: just inserted
            MutOp::Delete(50),                // already gone
            MutOp::Delete(9999),              // never assigned
        ];
        let results = index.apply(&ops);
        assert_eq!(
            results,
            vec![
                Err(MutReject::WrongDim {
                    expected: 6,
                    got: 5
                }),
                Err(MutReject::NonFinite),
                Ok(50),
                Ok(50),
                Err(MutReject::UnknownId(50)),
                Err(MutReject::UnknownId(9999)),
            ]
        );
        assert_eq!(index.len(), 50, "net live count unchanged");
        index
            .tree()
            .verify_invariants()
            .expect("tree after rejects");
    }

    #[test]
    fn apply_refuses_to_drain_the_index() {
        let data = blob(2, 4, 95);
        let mut index = PmLsh::build(data, PmLshParams::default());
        let results = index.apply(&[MutOp::Delete(0), MutOp::Delete(1)]);
        assert_eq!(results, vec![Ok(0), Err(MutReject::WouldEmpty)]);
        assert_eq!(index.len(), 1);
        // An insert in the same batch re-opens headroom for the delete.
        let results = index.apply(&[MutOp::Insert(vec![1.0; 4]), MutOp::Delete(1)]);
        assert_eq!(results, vec![Ok(2), Ok(1)]);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn duplicate_heavy_dataset() {
        let mut rows = vec![vec![5.0f32; 8]; 50];
        rows.extend(vec![vec![-5.0f32; 8]; 50]);
        let data = Dataset::from_rows(rows);
        let index = PmLsh::build(data, PmLshParams::default());
        let res = index.query(&[5.0f32; 8], 10);
        assert_eq!(res.neighbors.len(), 10);
        assert!(res.neighbors.iter().all(|n| n.dist == 0.0 && n.id < 50));
    }
}

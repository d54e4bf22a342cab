//! The serving surface: `S ≥ 1` independent [`Engine`] shard workers
//! behind one API.
//!
//! A [`ShardedEngine`] deals the dataset round-robin into `S` shards
//! (`pm_lsh_core::shard::partition`), builds one [`PmLsh`] per shard, and
//! gives every shard its own snapshot cell and worker pool — an
//! [`Engine`] each. The pay-off of `S > 1` over one shard:
//!
//! * **Query legs on `S` pools.** A query's legs sweep and verify their
//!   shards in parallel, each over `n/S` projected rows.
//! * **Smaller copies.** Copy-on-write publication clones only the owning
//!   shard: its projected column and id map, `O(n/S)` instead of `O(n)`.
//!   Its raw rows are shared, not copied, at every `S`: an insert copies
//!   one 64-row chunk (`pm_lsh_metric::RowStore`).
//!
//! What `S > 1` once bought and no longer does: the index builds no
//! PM-tree, so there is no bulk load whose pivot regions bound a build's
//! parallelism, and no tree whose copy dominated a publication. A build
//! is a projection, parallel by row chunk at any `S`, and one ECDF
//! sample per shard.
//!
//! # Scatter-gather and the βn + k budget
//!
//! [`ShardedEngine::query`] fans the query to every shard concurrently
//! (one pinned snapshot and one pool job per shard), then
//! merges the `S` top-k answers through one [`TopK`] heap — `Neighbor`
//! orders by `(dist, id)`, so the merge is a deterministic total order.
//! Each fan-out leg runs Algorithm 2 *without* the line-4 early stop
//! (that test compares the final top-k against `c·r`, and no single
//! shard holds the final top-k) and spends the *pooled* budget
//! `B = min(⌈β·n⌉ + k, n)` computed over the total live count, clamped
//! to the shard's own size — see [`PmLsh::query_fanout_into`]. Because a
//! verified set is always a prefix of the projected-distance order, and
//! a point's rank within its shard never exceeds its global rank, every
//! candidate a one-shard engine verifies is verified by some shard:
//! the merged candidate pool is a superset of the monolith's, the
//! per-shard budgets sum to `Σ_s min(B, n_s) ≥ B = ⌈β·n⌉ + k`, and
//! `recall(sharded) ≥ recall(monolithic)` holds *deterministically*, not
//! just in expectation — the paper's §4.4 quality guarantee survives
//! partitioning. The price is aggregate verification work (up to `S·B`
//! candidates instead of `B`), spent on `S` shards of `n/S` points in
//! parallel, which is the classic scatter-gather latency-for-throughput
//! trade.
//!
//! # Global ids
//!
//! Clients see one flat id space; shards number rows locally. The two are
//! related by the interleaved bijection in [`pm_lsh_core::shard`]
//! (`global = local·S + shard`), and inserts go to the shard with the
//! fewest stored rows (ties to the lowest shard index), which keeps the
//! globally visible id sequence *identical* to a one-shard engine's —
//! freshly built or mid-churn. The equivalence harness in
//! `tests/sharded_parity.rs` and `tests/sharded_model.rs` holds a
//! one-shard twin to exactly that standard.
//!
//! # One read path
//!
//! Every query form — `query`, `try_query`, `query_batch` and the
//! serving reactor's crate-private `submit_query` — is a few-line
//! wrapper over the private `scatter` below. `scatter` is the only code
//! that pins snapshots, validates, clamps `k`, computes the pooled
//! budget and builds pool jobs; each job's reply closure folds its leg
//! into the query's `Gather`, and the last leg fires the caller's reply.
//! `scatter` files the jobs into `Legs`, whose `dispatch` is the only
//! code that hands jobs to a pool: per shard, in runs of at most
//! `batch_size` legs, each run one pool submission and one recorded
//! batch. The blocking forms dispatch at once; the reactor dispatches
//! every leg of one readiness pass before it sleeps again, so no leg
//! ever waits on a timer. With `S == 1` the one leg runs
//! plain Algorithm 2 (early stop, local budget), the id mapping is the
//! identity and the merge of one sorted list is that list, so a
//! `ShardedEngine` of one shard answers bit-for-bit like the plain
//! [`PmLsh`] it wraps.
//!
//! # One write path
//!
//! [`ShardedEngine::apply`] routes a batch's ops to their owning shards
//! and runs each non-empty sub-batch through the shard worker's `apply`,
//! the only code that clones, patches and swaps a snapshot;
//! [`ShardedEngine::insert`] / [`ShardedEngine::delete`] are one-op
//! batches.
//!
//! # One rebuild path
//!
//! [`ShardedEngine::build`], [`ShardedEngine::open`] and
//! [`ShardedEngine::reindex`] build their shards through one private
//! per-shard build, one scoped thread per shard. A reindex validates the
//! new dataset once, claims every shard's rebuild slot before it builds
//! anything, swaps each shard under its writer lock and releases the
//! slots through a drop guard. Two concurrent reindexes therefore never
//! leave the shards serving different datasets, and a refused one
//! changes nothing.

use crate::pool::QueryJob;
use crate::snapshot::SnapshotCell;
use crate::{
    panic_for_query_error, try_validate, BatchReport, Engine, EngineConfig, IndexInfo, MutOp,
    MutationError, MutationReport, QueryError, ReindexError, ReindexReport,
};
use pm_lsh_core::shard::{owner, partition, to_global, to_local};
use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams, QueryContext, QueryResult, QueryStats};
use pm_lsh_metric::{Dataset, Neighbor, PointId, TopK};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `S` independent [`Engine`]s serving one logical index — see the
/// module docs for the partitioning, budget and id-mapping story.
///
/// Cloning is cheap and shares every shard's pool and statistics
/// (everything is behind `Arc`s), so one engine can serve many threads —
/// the TCP layer clones it into every connection handler.
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Vec<Engine>,
}

impl From<Engine> for ShardedEngine {
    fn from(engine: Engine) -> Self {
        Self {
            shards: vec![engine],
        }
    }
}

impl ShardedEngine {
    /// Partitions `data` round-robin into `shards` shards, builds one
    /// [`PmLsh`] per shard (each with `params` and `opts`), and spins up
    /// one [`Engine`] per shard with `config`.
    ///
    /// # Panics
    /// Panics when `shards` is zero or `data` holds fewer points than
    /// `shards` (every shard must serve a non-empty index).
    pub fn build(
        data: &Dataset,
        params: PmLshParams,
        opts: BuildOptions,
        shards: usize,
        config: EngineConfig,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(
            data.len() >= shards,
            "{} points cannot populate {shards} shards",
            data.len()
        );
        let parts = partition(data, shards).into_iter().map(Arc::new).collect();
        Self::from_indexes(build_shards(parts, params, opts), config)
    }

    /// Opens the file at `path` as a served engine — the one door from a
    /// file to serving, for the `pmlsh` CLI and the wire `ATTACH` alike.
    /// A `.pmlsh` snapshot (detected by its magic bytes) restores the
    /// shard set it holds, with its saved parameters: `params`, `opts`
    /// and `shards` do not apply. Any other file is read by
    /// [`crate::read_dataset`], which refuses an empty or non-finite
    /// dataset and names the offending row and component, and is built
    /// into `shards` shards.
    pub fn open(
        path: &str,
        params: PmLshParams,
        opts: BuildOptions,
        shards: usize,
        config: EngineConfig,
    ) -> Result<Self, String> {
        if pm_lsh_persist::is_pmlsh_file(path) {
            return Self::load(path, config).map_err(|e| format!("reading {path}: {e}"));
        }
        let data = crate::read_dataset(path)?;
        if shards == 0 || data.len() < shards {
            return Err(format!(
                "cannot deal the {} point(s) in {path} into {shards} shard(s)",
                data.len()
            ));
        }
        let parts = deal(Arc::new(data), shards);
        Ok(Self::from_indexes(
            build_shards(parts, params, opts),
            config,
        ))
    }

    /// Wraps pre-built per-shard indexes (a build's, or a snapshot's
    /// shards) into engines; shard order is id-significant and must match
    /// the order they were built or saved in.
    ///
    /// # Panics
    /// Panics when `indexes` is empty.
    fn from_indexes(indexes: Vec<PmLsh>, config: EngineConfig) -> Self {
        assert!(!indexes.is_empty(), "a sharded engine needs >= 1 shard");
        Self {
            shards: indexes
                .into_iter()
                .map(|index| Engine::new(index, config))
                .collect(),
        }
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines, in id order (shard `s` owns global ids
    /// `≡ s (mod S)`). Exposed for the parity/invariant test harness.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Original-space dimensionality served by every shard.
    pub fn dim(&self) -> usize {
        self.shards[0].index().data().dim()
    }

    /// The PM-LSH parameters the shards were built with (identical across
    /// shards by construction).
    pub fn params(&self) -> PmLshParams {
        *self.shards[0].index().params()
    }

    /// Live points across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index().len()).sum()
    }

    /// `false` — a served index is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical snapshot generation: the *sum* of the shard epochs
    /// (each 0 at construction, +1 per snapshot publication). Every
    /// single-point mutation bumps exactly one shard (+1) and a reindex
    /// bumps every shard (+S), so the sum is monotone and starts at 0.
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(Engine::epoch).sum()
    }

    /// Summed Algorithm 2 candidate budget across shards for one query —
    /// `Σ_s min(B, n_s)` with the pooled `B = min(⌈β·n⌉ + k, n)` every
    /// fan-out leg spends, which the parity harness proves is at least
    /// the monolithic `⌈β·n⌉ + k` (see the module docs).
    pub fn candidate_budget(&self, k: usize) -> usize {
        let snaps: Vec<Arc<PmLsh>> = self.shards.iter().map(|s| s.index()).collect();
        let total: usize = snaps.iter().map(|s| s.len()).sum();
        let budget = pooled_budget(&snaps[0], total, k.min(total));
        snaps.iter().map(|s| budget.min(s.len())).sum()
    }

    /// A summary of the served state (the TCP `INDEXINFO` payload):
    /// points, epoch and budget-relevant counts summed over shards,
    /// parameters from shard 0 (identical everywhere), `reindexing` true
    /// while *any* shard rebuilds, `pct` the slowest shard's gauge.
    pub fn info(&self) -> IndexInfo {
        let mut merged = self.shards[0].info();
        merged.shards = self.shards.len();
        for shard in &self.shards[1..] {
            let info = shard.info();
            merged.points += info.points;
            merged.epoch += info.epoch;
            merged.reindexing |= info.reindexing;
            merged.pct = merged.pct.min(info.pct);
        }
        if merged.reindexing {
            merged.state = "building";
        }
        merged
    }

    /// Merged serving statistics. Logical query counts (`queries`, `qps`,
    /// `mean_ms`) come from shard 0 — every scatter-gather query visits
    /// every shard, so shard 0 sees each logical query exactly once. The
    /// quantiles `p50_ms`/`p99_ms` are the *worst* across shards: a
    /// scatter-gather answer is gated by its slowest leg, so the
    /// per-shard maximum is the conservative logical tail. Work counters
    /// aggregate over all shards (that is where the work actually
    /// happened): the per-query execution counters and `batches` (pool
    /// submissions) sum, and `mean_batch` is the batches-weighted mean of
    /// the per-shard means, so `mean_batch × batches` remains the total
    /// number of legs submitted — the invariant each shard's own pair
    /// obeys.
    pub fn stats(&self) -> crate::EngineStats {
        let mut merged = self.shards[0].stats();
        // Recover each shard's total leg count from its (mean, count)
        // pair so the merged pair multiplies back to the true total
        // instead of inheriting shard 0's mean verbatim.
        let mut batched_requests = merged.mean_batch * merged.batches as f64;
        for shard in &self.shards[1..] {
            let s = shard.stats();
            merged.query_stats.merge(&s.query_stats);
            merged.batches += s.batches;
            batched_requests += s.mean_batch * s.batches as f64;
            merged.p50_ms = merged.p50_ms.max(s.p50_ms);
            merged.p99_ms = merged.p99_ms.max(s.p99_ms);
        }
        merged.mean_batch = if merged.batches == 0 {
            0.0
        } else {
            batched_requests / merged.batches as f64
        };
        merged
    }

    /// Scatter-gather `(c, k)`-ANN: hands one leg to every shard's pool at
    /// once, merges the `S` answers through one
    /// [`TopK`], and maps shard-local ids back to global ids. Blocks
    /// until the last leg lands. Every way a query can fail is a typed
    /// [`QueryError`] instead of a panic — including a worker panic
    /// mid-execution ([`QueryError::Internal`]) — which is what lets the
    /// TCP layer answer `ERR` instead of dropping the client.
    ///
    /// Results are bit-identical to [`PmLsh::query`] at `S == 1` — the
    /// engine adds concurrency, never approximation. `k` larger than the
    /// live point count is clamped to it (a kNN answer can never exceed
    /// `n`), which also keeps an absurd client-supplied `k` from forcing
    /// a giant allocation.
    pub fn try_query(&self, q: &[f32], k: usize) -> Result<QueryResult, QueryError> {
        let (tx, rx) = channel();
        let mut legs = Legs::default();
        self.submit_query(&mut legs, q, k, move |result| {
            // A dropped receiver means the caller gave up waiting.
            let _ = tx.send(result);
        })?;
        legs.dispatch();
        // The sender dies unanswered only when a pool dropped a leg unrun.
        rx.recv().unwrap_or(Err(QueryError::Internal))
    }

    /// The completion-callback twin of [`ShardedEngine::try_query`], for
    /// the serving reactor: no thread parks waiting for the gather, and
    /// the legs wait in `legs` for the caller's [`Legs::dispatch`].
    ///
    /// Validation runs synchronously (an invalid query returns `Err`,
    /// files no leg and never invokes `cb`); a valid query is scattered
    /// exactly as in [`ShardedEngine::try_query`] — same pooled budget,
    /// same per-leg `k` clamp, same local→global id mapping,
    /// bit-identical merged answer — and `cb` fires exactly once, on the
    /// worker thread that finishes the last leg. A panicked leg yields
    /// `Err(QueryError::Internal)`.
    pub(crate) fn submit_query<F>(
        &self,
        legs: &mut Legs,
        q: &[f32],
        k: usize,
        cb: F,
    ) -> Result<(), QueryError>
    where
        F: FnOnce(Result<QueryResult, QueryError>) + Send + 'static,
    {
        scatter(
            &self.shards,
            &[q],
            k,
            std::iter::once(Box::new(cb) as Reply),
            legs,
        )
    }

    /// The panicking [`ShardedEngine::try_query`].
    ///
    /// # Panics
    /// On a dimension mismatch, a non-finite query component, or `k == 0`
    /// — every [`QueryError`]. Callers serving untrusted input use
    /// [`ShardedEngine::try_query`] instead (the TCP layer its callback
    /// twin) and turn each variant into an `ERR` reply.
    pub fn query(&self, q: &[f32], k: usize) -> QueryResult {
        self.try_query(q, k)
            .unwrap_or_else(|e| panic_for_query_error(e))
    }

    /// Scatter-gather batch: every query is fanned to every shard's
    /// worker pool at once, in runs of at most `batch_size` legs, answers
    /// are merged per query, and input order is preserved. One snapshot
    /// pin per shard serves the whole batch, so even if a reindex swap
    /// lands mid-batch every result indexes the same dataset. `k` is clamped to the live
    /// point count, as in [`ShardedEngine::try_query`].
    ///
    /// # Panics
    /// On a dimension mismatch, a non-finite query component, or `k == 0`.
    pub fn query_batch(&self, queries: &[impl AsRef<[f32]>], k: usize) -> Vec<QueryResult> {
        let (tx, rx) = channel();
        let replies = (0..queries.len()).map(|qi| -> Reply {
            let tx = tx.clone();
            Box::new(move |result| {
                let _ = tx.send((qi, result));
            })
        });
        // Batch callers keep the panicking contract of `query`.
        let mut legs = Legs::default();
        scatter(&self.shards, queries, k, replies, &mut legs)
            .unwrap_or_else(|e| panic_for_query_error(e));
        drop(tx);
        legs.dispatch();
        let mut results: Vec<Option<QueryResult>> = queries.iter().map(|_| None).collect();
        for (qi, result) in rx {
            results[qi] = Some(result.unwrap_or_else(|e| panic_for_query_error(e)));
        }
        results
            .into_iter()
            .map(|r| r.expect("query execution panicked in the engine worker pool"))
            .collect()
    }

    /// Scatter-gather `(r, c)`-ball-cover (Algorithm 1): every shard
    /// answers on the calling thread against its pinned snapshot, and the
    /// closest hit (ties to the lowest global id) wins. Each shard spends
    /// its own `⌈β·n_s⌉ + 1` candidate cap, so the summed work mirrors
    /// the monolithic `⌈β·n⌉ + 1` bound the same way `query` does; the
    /// returned counters are the shards' sum.
    pub fn query_bc(&self, q: &[f32], r: f64) -> (Option<Neighbor>, QueryStats) {
        let shards = self.shards.len();
        let mut ctx = QueryContext::new();
        let mut stats = QueryStats::default();
        let mut best = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let (hit, leg) = shard.index().query_bc(q, r, &mut ctx);
            stats += leg;
            let hit = hit.map(|n| Neighbor {
                dist: n.dist,
                id: to_global(n.id, s, shards),
            });
            best = best.into_iter().chain(hit).min();
        }
        (best, stats)
    }

    /// Inserts one point into the shard with the fewest stored rows (ties
    /// to the lowest shard index) and reports the *global* id — a
    /// placement rule that keeps the assigned id sequence identical to a
    /// one-shard engine's (see the module docs). A one-op
    /// [`ShardedEngine::apply`]: the copy-on-write clone touches only
    /// that shard, O(n/S), and nothing runs on the others. Readers keep
    /// pinning immutable `Arc<PmLsh>` snapshots and never wait on the
    /// clone; queries arriving after the swap see the new point. Batch
    /// several mutations through [`ShardedEngine::apply`], and bulk-load
    /// through [`ShardedEngine::reindex`], which pays the build once.
    ///
    /// `points` and `epoch` in the report aggregate over all shards, like
    /// [`ShardedEngine::info`].
    pub fn insert(&self, point: &[f32]) -> Result<MutationReport, MutationError> {
        self.apply(&[MutOp::Insert(point.to_vec())])?.into_single()
    }

    /// Deletes the point with *global* id `id` — a one-op
    /// [`ShardedEngine::apply`] routed to its owning shard (`id mod S`);
    /// the clone is O(n/S), and a refused delete (unknown id, last live
    /// point) is O(1), it never clones. A shard's last live point cannot
    /// be deleted ([`MutationError::WouldEmptyIndex`]): a served index is
    /// non-empty by construction — with ids dealt round-robin a shard
    /// only runs that low when the whole index is nearly empty.
    pub fn delete(&self, id: PointId) -> Result<MutationReport, MutationError> {
        self.apply(&[MutOp::Delete(id)])?.into_single()
    }

    /// The single write path: applies a batch of interleaved inserts and
    /// deletes as one copy-on-write publication per touched shard. Ops
    /// are bucketed by owning shard (a delete to `global mod S`, an
    /// insert to the shard with the fewest stored rows at its point in
    /// the sequence, ties to the lowest shard index — the same placement
    /// rule as [`ShardedEngine::insert`], so the assigned global-id
    /// sequence stays identical to a one-shard engine's), and the
    /// non-empty sub-batches apply *concurrently* — except that a lone
    /// one runs on the calling thread, so a batch that touches one shard
    /// spawns nothing and costs the untouched shards nothing. Each shard
    /// takes its writer lock once, clones its snapshot once — lazily, by
    /// the first op it admits — patches its ops into the clone and swaps
    /// once: against `W` one-op calls, write cost falls from O(W·n/S) to
    /// O(n/S) + O(W) per shard, and readers observe one atomic
    /// transition per shard. The logical epoch moves by the number of
    /// shards that applied at least one op (between 0 and S; exactly 1 at
    /// `S == 1`); if *no* op applies, nothing is cloned, nothing is
    /// published and the epoch does not move.
    ///
    /// Failures are per-op, in input order, reported in their slot of
    /// [`BatchReport::results`] while the rest of the batch still
    /// applies: invalid inserts (wrong dimensionality, non-finite
    /// component) are rejected up front and do not consume a global id;
    /// unknown-id and would-empty deletes are rejected by their owning
    /// shard against its evolving state, so a delete may target an id
    /// inserted earlier in the same batch.
    /// [`MutationError::WouldEmptyIndex`] guards each *shard's* last live
    /// point. The batch-level refusal is
    /// [`MutationError::ReindexInProgress`] — a background rebuild's swap
    /// would silently discard the mutation, so mutations wait it out; at
    /// `S > 1` it marks only the rebuilding *shard's* ops failed while
    /// the other sub-batches stand (no cross-shard rollback; each shard's
    /// sub-batch is individually atomic).
    pub fn apply(&self, ops: &[MutOp]) -> Result<BatchReport, MutationError> {
        let shards = self.shards.len();
        if shards == 1 {
            // Nothing to route, and the lone shard's batch-level refusal
            // (a rebuild in progress) stays batch-level.
            return self.shards[0].apply(ops);
        }
        let dim = self.dim();
        // Route every op: static insert validation + placement simulation
        // over per-shard stored-row counts (tombstones included — local
        // ids are storage-order, so placement must track stored rows, not
        // live ones). A rejected insert consumes no slot anywhere.
        let mut results: Vec<Option<Result<PointId, MutationError>>> = vec![None; ops.len()];
        let mut stored: Vec<usize> = self.shards.iter().map(|s| s.index().data().len()).collect();
        let mut sub: Vec<Vec<MutOp>> = vec![Vec::new(); shards];
        let mut routing: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, op) in ops.iter().enumerate() {
            match op {
                MutOp::Insert(p) => {
                    if p.len() != dim {
                        results[i] = Some(Err(MutationError::DimensionMismatch {
                            expected: dim,
                            got: p.len(),
                        }));
                        continue;
                    }
                    if crate::validate_points(p).is_err() {
                        results[i] = Some(Err(MutationError::NonFiniteComponent));
                        continue;
                    }
                    let target = (0..shards)
                        .min_by_key(|&s| (stored[s], s))
                        .expect("a sharded engine holds >= 1 shard");
                    stored[target] += 1;
                    sub[target].push(MutOp::Insert(p.clone()));
                    routing[target].push(i);
                }
                MutOp::Delete(id) => {
                    let target = owner(*id, shards);
                    sub[target].push(MutOp::Delete(to_local(*id, shards)));
                    routing[target].push(i);
                }
            }
        }
        // Stitches shard `s`'s outcomes back into input order, mapping
        // local ids (and local-id error payloads) back to global.
        let mut stitch = |s: usize, report: Result<BatchReport, MutationError>| match report {
            Ok(rep) => {
                for (&i, r) in routing[s].iter().zip(rep.results) {
                    results[i] = Some(match (r, &ops[i]) {
                        (Ok(local), _) => Ok(to_global(local, s, shards)),
                        (Err(MutationError::UnknownId(_)), MutOp::Delete(id)) => {
                            Err(MutationError::UnknownId(*id))
                        }
                        (Err(other), _) => Err(other),
                    });
                }
            }
            Err(e) => {
                for &i in &routing[s] {
                    results[i] = Some(Err(e));
                }
            }
        };
        // Apply the non-empty sub-batches: each shard takes its own writer
        // lock, clones its own O(n/S) index at most once, and swaps at
        // most once. A lone one (every single-op mutation) runs right here
        // on the caller; two or more run concurrently on scoped threads.
        let touched: Vec<usize> = (0..shards).filter(|&s| !sub[s].is_empty()).collect();
        if let [s] = touched[..] {
            stitch(s, self.shards[s].apply(&sub[s]));
        } else {
            std::thread::scope(|scope| {
                let spawned: Vec<_> = touched
                    .iter()
                    .map(|&s| {
                        let (shard, ops) = (&self.shards[s], &sub[s]);
                        (s, scope.spawn(move || shard.apply(ops)))
                    })
                    .collect();
                for (s, handle) in spawned {
                    stitch(s, handle.join().expect("shard batch apply panicked"));
                }
            });
        }
        let results: Vec<Result<PointId, MutationError>> = results
            .into_iter()
            .map(|r| r.expect("every op was routed or rejected up front"))
            .collect();
        let applied = results.iter().filter(|r| r.is_ok()).count();
        Ok(BatchReport {
            epoch: self.epoch(),
            points: self.len(),
            applied,
            results,
        })
    }

    /// Rebuilds every shard over a fresh round-robin partition of `data`
    /// and swaps the new snapshots in — the one rebuild, all or nothing:
    ///
    /// 1. `data` must hold at least `S` points
    ///    ([`ReindexError::EmptyDataset`] otherwise — every shard must stay
    ///    non-empty), keep the served dimensionality and be finite;
    /// 2. every shard's rebuild slot is claimed, in shard order — if another
    ///    reindex holds any of them, the slots claimed so far are released
    ///    and the call returns [`ReindexError::InProgress`] with nothing
    ///    built or swapped;
    /// 3. the shards build on scoped threads, one per shard, through the
    ///    same per-shard build as [`ShardedEngine::build`] (one shard keeps
    ///    `data` itself, uncopied);
    /// 4. each shard's new snapshot is swapped in under its writer lock;
    /// 5. the slots are released — also when a build panics.
    ///
    /// Only the calling thread blocks. Queries keep flowing throughout:
    /// in-flight work finishes on the snapshot it started with, and a
    /// query that lands mid-swap may see a mix of old and new shards for
    /// one fan-out (each shard swap is individually atomic). Mutations
    /// are refused with [`MutationError::ReindexInProgress`] from the
    /// claim to the release.
    pub fn reindex(
        &self,
        data: impl Into<Arc<Dataset>>,
        params: PmLshParams,
        opts: BuildOptions,
    ) -> Result<ReindexReport, ReindexError> {
        let data = data.into();
        let shards = self.shards.len();
        if data.len() < shards {
            return Err(ReindexError::EmptyDataset);
        }
        let served_dim = self.dim();
        if data.dim() != served_dim {
            return Err(ReindexError::DimensionMismatch {
                served: served_dim,
                offered: data.dim(),
            });
        }
        // A NaN/Inf component would panic deep inside the build; refusing
        // it here makes a poisoned dataset file an ERR reply on the wire.
        if crate::validate_points(data.as_flat()).is_err() {
            return Err(ReindexError::NonFiniteData);
        }
        let mut claimed = Claimed(Vec::with_capacity(shards));
        for shard in &self.shards {
            if !shard.snapshot.try_begin_rebuild() {
                return Err(ReindexError::InProgress);
            }
            claimed.0.push(&shard.snapshot);
        }
        let start = Instant::now();
        let points = data.len();
        // Phase-boundary progress for INDEXINFO: the build itself has no
        // per-point instrumentation, so the gauge moves in coarse steps —
        // 10 entering the build, 90 when the built shards await their
        // swaps, 100 once serving resumes.
        claimed.0.iter().for_each(|cell| cell.set_progress(10));
        let indexes = build_shards(deal(data, shards), params, opts);
        claimed.0.iter().for_each(|cell| cell.set_progress(90));
        // Each swap goes through the shard's writer lock so it can never
        // interleave inside a mutation's load → patch → swap sequence.
        let epoch = (claimed.0.iter().zip(indexes))
            .map(|(cell, index)| {
                let _writer = cell.begin_write();
                cell.swap(Arc::new(index))
            })
            .sum();
        drop(claimed);
        Ok(ReindexReport {
            epoch,
            points,
            build_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Atomically snapshots the served state to disk as one `.pmlsh`
    /// file holding every shard in id order
    /// (`pm_lsh_persist::save_shards`), which `ATTACH` and the CLI
    /// restore as a whole set. Every shard snapshot is pinned up front,
    /// so the saved set is one consistent fan-out view; serialization
    /// runs on the calling thread against those immutable `Arc`s, holding
    /// no engine locks — a mutation landing mid-save is simply not part
    /// of the saved snapshot.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<pm_lsh_persist::SaveReport, pm_lsh_persist::PersistError> {
        let snaps: Vec<Arc<PmLsh>> = self.shards.iter().map(|s| s.index()).collect();
        pm_lsh_persist::save_shards(&snaps, path)
    }

    /// Restores a [`ShardedEngine`] of as many shards as the `.pmlsh`
    /// file at `path` holds.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        config: EngineConfig,
    ) -> Result<Self, pm_lsh_persist::PersistError> {
        Ok(Self::from_indexes(
            pm_lsh_persist::load_shards(path)?,
            config,
        ))
    }
}

/// The monolithic Algorithm 2 budget `min(⌈β·n⌉ + k, total)` computed
/// over the whole shard set's `total` live points — what every fan-out
/// leg spends (clamped to its own live count), so the merged candidate
/// pool provably covers the monolith's. Mirrors
/// `PmLsh::candidate_budget` term for term; β is identical across shards
/// by construction, so any shard's snapshot supplies it.
fn pooled_budget(snap: &PmLsh, total: usize, k: usize) -> usize {
    ((snap.derived().beta * total as f64).ceil() as usize + k).min(total)
}

/// Deals `data` round-robin into `shards` parts; a lone shard keeps the
/// dataset itself, uncopied.
fn deal(data: Arc<Dataset>, shards: usize) -> Vec<Arc<Dataset>> {
    if shards == 1 {
        return vec![data];
    }
    partition(&data, shards).into_iter().map(Arc::new).collect()
}

/// The one per-shard build behind [`ShardedEngine::build`],
/// [`ShardedEngine::open`] and [`ShardedEngine::reindex`]: one scoped
/// thread per part. The builds are independent and deterministic, so the
/// threads change wall-clock only; `opts` still governs each build's
/// own threading.
fn build_shards(parts: Vec<Arc<Dataset>>, params: PmLshParams, opts: BuildOptions) -> Vec<PmLsh> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || PmLsh::build_with_opts(part, params, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard build panicked"))
            .collect()
    })
}

/// The rebuild slots one [`ShardedEngine::reindex`] holds, released on
/// drop — on every return and when a build panics.
struct Claimed<'a>(Vec<&'a SnapshotCell>);

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        self.0.iter().for_each(|cell| cell.end_rebuild());
    }
}

/// What one logical query's caller is finally told.
type Reply = Box<dyn FnOnce(Result<QueryResult, QueryError>) + Send>;

/// The in-flight merge state the legs of one logical query share.
struct Gather {
    top: TopK,
    stats: QueryStats,
    pending: usize,
    failed: bool,
    reply: Option<Reply>,
}

impl Gather {
    /// Folds shard `s`'s leg in (`None`: its worker panicked); the last
    /// leg to land fires the reply — `Err(QueryError::Internal)` if any
    /// leg failed, like the monolith. [`Neighbor`] orders by `(dist, id)`
    /// and global ids are unique across shards, so the merged top-k is a
    /// deterministic total order regardless of arrival order.
    fn leg(gather: &Mutex<Gather>, s: usize, shards: usize, result: Option<QueryResult>) {
        let (reply, outcome) = {
            let mut g = gather.lock().expect("sharded gather poisoned");
            match result {
                Some(result) => {
                    g.stats.merge(&result.stats);
                    for n in &result.neighbors {
                        g.top.push(n.dist, to_global(n.id, s, shards));
                    }
                }
                None => g.failed = true,
            }
            g.pending -= 1;
            if g.pending > 0 {
                return;
            }
            let mut neighbors = Vec::new();
            g.top.drain_sorted_into(&mut neighbors);
            let stats = g.stats;
            let outcome = if g.failed {
                Err(QueryError::Internal)
            } else {
                Ok(QueryResult { neighbors, stats })
            };
            (g.reply.take().expect("gather fired twice"), outcome)
        };
        // Fire outside the lock: the reply may be arbitrarily heavy (it
        // formats a wire reply and wakes the reactor).
        reply(outcome);
    }
}

/// The one read path: turns `queries` into pool jobs, one leg per
/// (shard, query), and files each shard's legs, in query order, into
/// `legs` for the caller to dispatch. Every query is validated before any
/// job exists, so an `Err` means nothing was filed and no reply will
/// fire.
fn scatter<Q: AsRef<[f32]>>(
    shards: &[Engine],
    queries: &[Q],
    k: usize,
    replies: impl Iterator<Item = Reply>,
    legs: &mut Legs,
) -> Result<(), QueryError> {
    // Pin one snapshot per shard up front: every leg of every query
    // answers against one consistent set, even if a mutation or a reindex
    // swap lands mid-flight.
    let snaps: Vec<Arc<PmLsh>> = shards.iter().map(Engine::index).collect();
    for q in queries {
        try_validate(&snaps[0], q.as_ref(), k)?;
    }
    // `k` beyond the live count is clamped (a kNN answer can never exceed
    // `n`), which also keeps an absurd client-supplied `k` from forcing a
    // giant allocation.
    let total: usize = snaps.iter().map(|s| s.len()).sum();
    let k = k.min(total);
    // The one place early stop and fan-out part ways: a lone shard holds
    // the final top-k, so it runs plain Algorithm 2; with S > 1 no leg
    // does, so each spends the pooled budget without the line-4 stop
    // (see `PmLsh::query_fanout_into` for the rank argument).
    let fanout_budget = (shards.len() > 1).then(|| pooled_budget(&snaps[0], total, k));
    let enqueued = Instant::now();
    let gathers: Vec<Arc<Mutex<Gather>>> = replies
        .map(|reply| {
            Arc::new(Mutex::new(Gather {
                top: TopK::new(k),
                stats: QueryStats::default(),
                pending: shards.len(),
                failed: false,
                reply: Some(reply),
            }))
        })
        .collect();
    let count = shards.len();
    for (s, (shard, snap)) in shards.iter().zip(&snaps).enumerate() {
        let jobs = queries.iter().zip(&gathers).map(|(q, gather)| {
            let gather = Arc::clone(gather);
            QueryJob {
                snapshot: Arc::clone(snap),
                query: q.as_ref().to_vec(),
                k: k.min(snap.len()),
                fanout_budget,
                enqueued,
                reply: Box::new(move |result| Gather::leg(&gather, s, count, result)),
            }
        });
        legs.file(shard, jobs);
    }
    Ok(())
}

/// Query legs on their way to the shard pools, grouped by shard in the
/// order they were filed.
#[derive(Default)]
pub(crate) struct Legs(Vec<(Engine, Vec<QueryJob>)>);

impl Legs {
    /// Appends `jobs` to `shard`'s group (shards are told apart by their
    /// pool, so clones of one engine share a group).
    fn file(&mut self, shard: &Engine, jobs: impl Iterator<Item = QueryJob>) {
        let held = self
            .0
            .iter_mut()
            .find(|(e, _)| Arc::ptr_eq(&e.pool, &shard.pool));
        match held {
            Some((_, queued)) => queued.extend(jobs),
            None => self.0.push((shard.clone(), jobs.collect())),
        }
    }

    /// Hands every filed leg to its shard's pool — per shard, in runs of
    /// at most `batch_size` legs, each run one pool submission and one
    /// recorded batch — and leaves `self` empty. Never blocks.
    pub(crate) fn dispatch(&mut self) {
        for (shard, jobs) in self.0.drain(..) {
            let mut jobs = jobs.into_iter();
            loop {
                let run: Vec<QueryJob> =
                    jobs.by_ref().take(shard.config.batch_size.max(1)).collect();
                if run.is_empty() {
                    break;
                }
                shard.stats.record_batch(run.len());
                shard.pool.submit_sharded(run);
            }
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("points", &self.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_stats::Rng;
    use std::time::Duration;

    fn tiny_engine(seed: u64, batch_size: usize) -> Engine {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(4, 20);
        let mut buf = [0.0f32; 4];
        for _ in 0..20 {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        Engine::new(
            PmLsh::build(ds, PmLshParams::default()),
            EngineConfig {
                threads: 1,
                batch_size,
            },
        )
    }

    /// Regression for the incoherent stats merge: summing `batches`
    /// across shards while keeping shard 0's `mean_batch` verbatim broke
    /// `mean_batch × batches == Σ batched_requests`. The merge must keep
    /// that invariant and report the worst per-shard tail.
    #[test]
    fn stats_merge_is_coherent_across_shards() {
        let engines = vec![tiny_engine(1, 32), tiny_engine(2, 32), tiny_engine(3, 32)];
        let qs = pm_lsh_core::QueryStats {
            candidates_verified: 1,
            projected_dist_computations: 1,
            rounds: 1,
        };
        // Distinct per-shard batching profiles: (batches, requests) =
        // (1, 2), (2, 12), (1, 1) — total 4 batches, 15 requests. Taking
        // shard 0's mean (2.0) would claim 8 requests; the weighted mean
        // 15/4 = 3.75 multiplies back correctly.
        engines[0].stats.record_batch(2);
        engines[1].stats.record_batch(5);
        engines[1].stats.record_batch(7);
        engines[2].stats.record_batch(1);
        // Distinct latency profiles: shard 2 is the slow leg, so the
        // merged tail must report its quantiles, not shard 0's.
        engines[0]
            .stats
            .record_query(Duration::from_micros(100), &qs);
        engines[1]
            .stats
            .record_query(Duration::from_micros(200), &qs);
        engines[2]
            .stats
            .record_query(Duration::from_millis(50), &qs);
        let per_shard: Vec<crate::EngineStats> = engines.iter().map(Engine::stats).collect();

        let sharded = ShardedEngine { shards: engines };
        let merged = sharded.stats();

        assert_eq!(merged.batches, 4);
        let total_requests = merged.mean_batch * merged.batches as f64;
        assert!(
            (total_requests - 15.0).abs() < 1e-9,
            "mean_batch × batches = {total_requests}, want 15"
        );
        assert!(
            (merged.mean_batch - 3.75).abs() < 1e-9,
            "{}",
            merged.mean_batch
        );
        let worst_p50 = per_shard.iter().map(|s| s.p50_ms).fold(0.0, f64::max);
        let worst_p99 = per_shard.iter().map(|s| s.p99_ms).fold(0.0, f64::max);
        assert_eq!(merged.p50_ms, worst_p50);
        assert_eq!(merged.p99_ms, worst_p99);
        assert!(
            merged.p99_ms > 10.0,
            "slow shard's tail lost: {}",
            merged.p99_ms
        );
        // Execution counters aggregate over all shards.
        assert_eq!(merged.query_stats.candidates_verified, 3);
        // Logical query counts still come from shard 0.
        assert_eq!(merged.queries, per_shard[0].queries);
    }

    /// The one gather path's failure contract at S = 2: panicking legs
    /// fail their query with `Internal` exactly once on every entry
    /// point, and the shard pools live to answer the next query.
    #[test]
    fn panicking_legs_fail_the_query_once_and_the_pools_survive() {
        let sharded = ShardedEngine {
            shards: vec![tiny_engine(6, 32), tiny_engine(7, 32)],
        };
        let good = [0.25f32; 4];
        let mut crashing = good;
        crashing[0] = crate::pool::CRASH_TEST_SENTINEL;

        assert_eq!(
            sharded.try_query(&crashing, 3).unwrap_err(),
            QueryError::Internal
        );

        let (tx, rx) = channel();
        let mut legs = Legs::default();
        sharded
            .submit_query(&mut legs, &crashing, 3, move |result| {
                tx.send(result).unwrap()
            })
            .expect("the sentinel passes validation");
        legs.dispatch();
        assert_eq!(rx.recv().unwrap().unwrap_err(), QueryError::Internal);
        // Two failed legs, one reply: the callback (and its sender) is
        // consumed by the single firing.
        assert!(rx.recv().is_err(), "the gather fired twice");

        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded.query_batch(&[good, crashing], 3)
        }))
        .expect_err("a crashed leg must panic the batch caller");
        assert_eq!(
            panic.downcast_ref::<&str>().copied(),
            Some("query execution panicked in the engine worker pool")
        );

        assert_eq!(sharded.try_query(&good, 3).unwrap().neighbors.len(), 3);
        assert_eq!(sharded.query_batch(&[good], 3)[0].neighbors.len(), 3);
    }

    /// The one dispatch: legs filed together go to their shard's pool in
    /// runs of at most `batch_size`, one recorded batch per run — five
    /// queries over two shards at `batch_size` 2 are ⌈5 / 2⌉ = 3
    /// submissions per shard, and every query is still answered once.
    #[test]
    fn dispatch_cuts_each_shards_legs_into_batch_size_runs() {
        let sharded = ShardedEngine {
            shards: vec![tiny_engine(8, 2), tiny_engine(9, 2)],
        };
        let (tx, rx) = channel();
        let mut legs = Legs::default();
        for i in 0..5 {
            let tx = tx.clone();
            let q = [i as f32 * 0.25; 4];
            sharded
                .submit_query(&mut legs, &q, 3, move |result| tx.send(result).unwrap())
                .expect("a valid query");
        }
        drop(tx);
        assert_eq!(sharded.stats().batches, 0, "nothing moves before dispatch");
        legs.dispatch();
        let answers: Vec<_> = rx.iter().collect();
        assert_eq!(answers.len(), 5);
        assert!(answers
            .iter()
            .all(|a| a.as_ref().unwrap().neighbors.len() == 3));
        for shard in sharded.shards() {
            let stats = shard.stats();
            assert_eq!(stats.batches, 3);
            assert!((stats.mean_batch - 5.0 / 3.0).abs() < 1e-9);
        }
        let merged = sharded.stats();
        assert_eq!(merged.batches, 6);
        assert!((merged.mean_batch - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(merged.queries, 5);
    }

    /// A reindex that finds a later shard's slot taken releases the slots
    /// it already claimed, and builds and swaps nothing.
    #[test]
    fn refused_reindex_releases_its_claims_and_changes_nothing() {
        let sharded = ShardedEngine {
            shards: vec![tiny_engine(10, 32), tiny_engine(11, 32)],
        };
        let data = Arc::new(Dataset::from_rows(vec![vec![0.5f32; 4]; 6]));
        let reindex = || {
            sharded.reindex(
                Arc::clone(&data),
                PmLshParams::default(),
                BuildOptions::default(),
            )
        };
        assert!(sharded.shards[1].snapshot.try_begin_rebuild());
        assert_eq!(reindex().unwrap_err(), ReindexError::InProgress);
        assert!(!sharded.shards[0].snapshot.is_rebuilding());
        assert_eq!(sharded.epoch(), 0);
        assert_eq!(sharded.len(), 40);

        sharded.shards[1].snapshot.end_rebuild();
        let report = reindex().expect("every slot is free");
        assert_eq!((report.epoch, report.points), (2, 6));
        assert!(!sharded.info().reindexing);
    }

    #[test]
    fn stats_merge_with_no_batches_reports_zero_mean() {
        let sharded = ShardedEngine {
            shards: vec![tiny_engine(4, 32), tiny_engine(5, 32)],
        };
        let merged = sharded.stats();
        assert_eq!(merged.batches, 0);
        assert_eq!(merged.mean_batch, 0.0);
    }
}

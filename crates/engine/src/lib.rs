//! `pm-lsh-engine` — a concurrent, batched query engine and TCP serving
//! layer over the PM-LSH index.
//!
//! The sibling crates answer one query at a time on the calling thread;
//! this crate turns the [`PmLsh`] index into a serving system. It is the
//! deployment-facing layer the paper itself stops short of (index
//! construction and query answering are Sections 4–5; serving them under
//! concurrent traffic is ours):
//!
//! * [`ShardedEngine`] is the one serving surface: `S ≥ 1` shards behind
//!   one API ([`ShardedEngine::build`], or `Engine::new(index,
//!   config).into()` for a pre-built index — a shard set of one, which
//!   `tests/sharded_parity.rs` pins bit-for-bit to the plain index).
//!   [`ShardedEngine::query`] is a blocking call that travels through the
//!   micro-batching request queue; [`ShardedEngine::query_batch`] deals a
//!   whole query set across the pool and returns results in input order.
//! * [`Engine`] is one shard's worker: the current `Arc<PmLsh>` snapshot
//!   in an atomic snapshot cell plus a fixed pool of worker threads
//!   (`std::thread` + `std::sync::mpsc`, like everything else in the
//!   workspace: no external dependencies). It mirrors none of the
//!   serving API.
//! * [`ShardedEngine::reindex`] rebuilds the index over a new dataset on
//!   background threads and atomically swaps the snapshots in. Queries
//!   are never blocked and never fail during a reindex: every request
//!   pins the current snapshot when it enters the engine (a batch pins
//!   one snapshot per shard for all its queries), so in-flight work
//!   completes on the index it started with while new work sees the new
//!   one. [`ShardedEngine::info`] reports the snapshot generation
//!   ([`IndexInfo`]).
//! * [`ShardedEngine::apply`] is the one write path, *between* rebuilds:
//!   a batch of W interleaved inserts/deletes is published copy-on-write
//!   — under the owning shard's writer lock the current snapshot is
//!   cloned once (lazily, by the first op that is admitted), patched in
//!   place and swapped in, one epoch bump per touched shard, write cost
//!   O(n) + O(W) instead of O(W·n); readers keep pinning immutable
//!   snapshots and never block on a mutation ([`BatchReport`],
//!   [`MutationError`]). [`ShardedEngine::insert`] /
//!   [`ShardedEngine::delete`] are one-op batches ([`MutationReport`]).
//!   On the wire these are the AUTH-gated `BATCH` and `INSERT`/`DELETE`
//!   verbs, which share one executor too.
//! * The micro-batcher (a channel and a collector thread) groups up to
//!   `batch_size` concurrent requests, waiting at most `max_wait` after
//!   the first, before handing them to the pool — one channel send per
//!   worker per batch instead of one per query. Enqueueing never blocks.
//! * [`EngineStats`] aggregates throughput, p50/p99 latency and the summed
//!   per-query [`QueryStats`] counters; the wire `STATS` verb and the
//!   benchmark (`benchmark/`) read them.
//! * [`ShardedEngine::try_query`] is the non-panicking query entry point:
//!   every failure mode, a mid-execution worker panic included, is a
//!   typed [`QueryError`] — what lets the TCP layer answer `ERR` lines
//!   instead of dropping clients.
//! * There is one read path: every query form is a thin wrapper over the
//!   single scatter/gather in [`sharded`].
//! * [`Router`] maps index *names* to engines so one process serves
//!   several datasets; [`serve_router`] exposes the whole map over TCP
//!   with per-connection index selection (`USE`), attach/detach verbs,
//!   optional token auth, a connection cap, and graceful drain
//!   ([`ServerConfig`], [`ServerHandle::shutdown`] → [`DrainReport`]).
//!   [`serve`] stays the one-engine convenience (see [`server`] for the
//!   exact grammar, or `docs/PROTOCOL.md` in the repository for the full
//!   specification).
//!
//! Queries on a built snapshot are pure reads, so the hot path takes no
//! locks beyond one snapshot load per request (one per *batch* for
//! [`ShardedEngine::query_batch`]); the compile-time assertions at the
//! bottom of this module pin down that [`PmLsh`] and [`Dataset`] stay
//! `Send + Sync`.
//!
//! # Quick start
//!
//! ```
//! use pm_lsh_core::{PmLsh, PmLshParams};
//! use pm_lsh_engine::{Engine, EngineConfig, ShardedEngine};
//! use pm_lsh_metric::Dataset;
//! use pm_lsh_stats::Rng;
//!
//! let mut rng = Rng::new(9);
//! let mut data = Dataset::with_capacity(32, 400);
//! let mut buf = [0.0f32; 32];
//! for _ in 0..400 {
//!     rng.fill_normal(&mut buf);
//!     data.push(&buf);
//! }
//! let queries: Vec<Vec<f32>> = (0..8).map(|i| data.point(i).to_vec()).collect();
//!
//! let index = PmLsh::build(data, PmLshParams::default());
//! let config = EngineConfig { threads: 4, ..Default::default() };
//! let engine: ShardedEngine = Engine::new(index, config).into();
//!
//! let results = engine.query_batch(&queries, 5);
//! assert_eq!(results.len(), 8);
//! assert_eq!(results[3].neighbors[0].id, 3); // input order is preserved
//! assert_eq!(engine.stats().queries, 8);
//! ```

#![warn(missing_docs)]

mod batch;
mod command;
pub mod frame;
mod pool;
mod reactor;
mod reply;
pub mod router;
pub mod server;
pub mod sharded;
mod snapshot;
mod stats;

pub use pm_lsh_core::MutOp;
pub use router::{Router, RouterError};
pub use server::{serve, serve_router, DrainReport, ServerConfig, ServerHandle};
pub use sharded::ShardedEngine;
pub use stats::EngineStats;

use crate::batch::BatchQueue;
use crate::pool::WorkerPool;
use crate::snapshot::SnapshotCell;
use crate::stats::StatsCollector;
use pm_lsh_core::{BuildOptions, MutReject, PmLsh, PmLshParams, QueryResult, QueryStats};
use pm_lsh_metric::Dataset;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads in the pool. `0` means available parallelism.
    pub threads: usize,
    /// Most requests one micro-batch may coalesce.
    pub batch_size: usize,
    /// Longest the batcher waits after a batch's first request.
    pub max_wait: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            batch_size: 32,
            max_wait: Duration::from_micros(200),
        }
    }
}

impl EngineConfig {
    /// The effective thread count (`threads`, or available parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// One shard's worker: a snapshot cell, a worker pool, a micro-batcher
/// and a statistics collector over one [`PmLsh`]. It has no serving API
/// of its own — wrap it (`Engine::new(index, config).into()`) or build a
/// [`ShardedEngine`] directly, and query, mutate, save and inspect
/// through that; [`ShardedEngine::shards`] hands the workers back for
/// snapshot inspection ([`Engine::index`]).
///
/// Cloning is cheap and shares the pool, the queue and the statistics
/// (everything is behind `Arc`s).
#[derive(Clone)]
pub struct Engine {
    snapshot: Arc<SnapshotCell>,
    pool: Arc<WorkerPool>,
    queue: Arc<BatchQueue>,
    stats: Arc<StatsCollector>,
    config: EngineConfig,
}

impl Engine {
    /// Spins up the worker pool and batcher over a built index.
    pub fn new(index: impl Into<Arc<PmLsh>>, config: EngineConfig) -> Self {
        let snapshot = Arc::new(SnapshotCell::new(index.into()));
        let stats = Arc::new(StatsCollector::new());
        let pool = Arc::new(WorkerPool::new(
            config.effective_threads(),
            Arc::clone(&stats),
        ));
        let queue = Arc::new(BatchQueue::new(
            Arc::clone(&pool),
            Arc::clone(&stats),
            config.batch_size,
            config.max_wait,
        ));
        Self {
            snapshot,
            pool,
            queue,
            stats,
            config,
        }
    }

    /// The currently served index snapshot.
    ///
    /// The returned `Arc` stays fully usable for as long as the caller
    /// holds it, even across a concurrent [`ShardedEngine::reindex`] or
    /// mutation — it just stops being *current* once a swap lands. Load
    /// it once per logical operation rather than caching it long-term.
    pub fn index(&self) -> Arc<PmLsh> {
        self.snapshot.load()
    }

    /// The snapshot generation: 0 at construction, +1 per publication (a
    /// completed reindex swap or an [`Engine::apply`] that admitted an op).
    pub(crate) fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The single write path of one shard — see [`ShardedEngine::apply`]
    /// for the contract. The writer lock is taken once, the current
    /// snapshot is cloned once — lazily, by the first op that is admitted
    /// ([`PmLsh::apply_cow`]) — all `W` ops are patched into the clone,
    /// and the result is swapped in once: one epoch bump for the whole
    /// batch. If *no* op applies, nothing is cloned, nothing is published
    /// and the epoch does not move.
    pub(crate) fn apply(&self, ops: &[MutOp]) -> Result<BatchReport, MutationError> {
        let _writer = self.snapshot.begin_write();
        if self.snapshot.is_rebuilding() {
            return Err(MutationError::ReindexInProgress);
        }
        let (current, epoch) = self.snapshot.load_with_epoch();
        let (next, results) = current.apply_cow(ops);
        let results: Vec<Result<pm_lsh_metric::PointId, MutationError>> = results
            .into_iter()
            .map(|r| r.map_err(mutation_error_for_reject))
            .collect();
        let (points, epoch) = match next {
            Some(next) => (next.len(), self.snapshot.swap(Arc::new(next))),
            None => (current.len(), epoch),
        };
        Ok(BatchReport {
            epoch,
            points,
            applied: results.iter().filter(|r| r.is_ok()).count(),
            results,
        })
    }

    /// A summary of this shard's snapshot. Snapshot fields and `epoch` are
    /// read under one lock, so the pair is always consistent;
    /// `reindexing` is inherently transient.
    pub(crate) fn info(&self) -> IndexInfo {
        let (index, epoch) = self.snapshot.load_with_epoch();
        let reindexing = self.snapshot.is_rebuilding();
        IndexInfo {
            points: index.len(),
            dim: index.data().dim(),
            m: index.params().m,
            c: index.params().c,
            epoch,
            reindexing,
            state: if reindexing { "building" } else { "serving" },
            pct: if reindexing {
                self.snapshot.progress()
            } else {
                100
            },
            shards: 1,
        }
    }

    /// Rebuilds the served index over `data` on a background thread and
    /// atomically swaps it in, without ever blocking concurrent queries:
    /// in-flight work finishes on the snapshot it started with, work
    /// arriving after the swap runs on the new one, and no query can
    /// observe a half-built index.
    ///
    /// Returns immediately with a [`ReindexTicket`]; call
    /// [`ReindexTicket::wait`] for the completion report (or drop the
    /// ticket to let the rebuild finish unobserved). Only one reindex may
    /// run at a time, and the new dataset must keep the served
    /// dimensionality — connected clients hold protocol state derived
    /// from `dim`.
    pub fn begin_reindex(
        &self,
        data: impl Into<Arc<Dataset>>,
        params: PmLshParams,
        opts: BuildOptions,
    ) -> Result<ReindexTicket, ReindexError> {
        let data = data.into();
        if data.is_empty() {
            return Err(ReindexError::EmptyDataset);
        }
        let served_dim = self.snapshot.load().data().dim();
        if data.dim() != served_dim {
            return Err(ReindexError::DimensionMismatch {
                served: served_dim,
                offered: data.dim(),
            });
        }
        // A NaN/Inf component would panic deep inside the build (pivot
        // selection compares distances with `partial_cmp().unwrap()`).
        // Validate here so a poisoned dataset file is an ERR reply on the
        // wire, not a dead build thread — the same policy as query
        // validation, and what keeps `ReindexTicket::wait`'s no-panic
        // claim true.
        if validate_points(data.as_flat()).is_err() {
            return Err(ReindexError::NonFiniteData);
        }
        if !self.snapshot.try_begin_rebuild() {
            return Err(ReindexError::InProgress);
        }
        let snapshot = Arc::clone(&self.snapshot);
        let handle = std::thread::Builder::new()
            .name("pmlsh-reindex".to_string())
            .spawn(move || {
                // Release the rebuild slot even if the build panics, so a
                // poisoned dataset cannot wedge reindexing forever.
                struct RebuildSlot(Arc<SnapshotCell>);
                impl Drop for RebuildSlot {
                    fn drop(&mut self) {
                        self.0.end_rebuild();
                    }
                }
                let _slot = RebuildSlot(Arc::clone(&snapshot));
                let start = Instant::now();
                let points = data.len();
                // Phase-boundary progress for INDEXINFO: the build itself
                // has no per-point instrumentation, so the gauge moves in
                // coarse steps — 10 entering the build, 90 when the built
                // index awaits its swap, 100 once serving resumes.
                snapshot.set_progress(10);
                let next = Arc::new(PmLsh::build_with_opts(data, params, opts));
                snapshot.set_progress(90);
                // The swap itself goes through the writer lock so it can
                // never interleave inside a mutation's load → patch →
                // swap sequence (which would silently orphan the
                // mutation); a rebuild landing *after* a mutation
                // replaces the dataset wholesale by design.
                let epoch = {
                    let _writer = snapshot.begin_write();
                    snapshot.swap(next)
                };
                ReindexReport {
                    epoch,
                    points,
                    build_secs: start.elapsed().as_secs_f64(),
                }
            });
        match handle {
            Ok(handle) => Ok(ReindexTicket { handle }),
            Err(_) => {
                self.snapshot.end_rebuild();
                Err(ReindexError::SpawnFailed)
            }
        }
    }

    /// A point-in-time snapshot of this shard's serving statistics.
    pub(crate) fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }
}

/// The numeric-validity gate for every path that feeds floats into the
/// index stack from this crate — queries (every query form), inserts
/// routed across shards ([`ShardedEngine::apply`]; a lone shard's are
/// checked by [`PmLsh::apply_cow`] itself), whole-dataset ingest
/// ([`Engine::begin_reindex`] and the TCP `ATTACH` handler). A NaN/Inf
/// smuggled past any of these panics deep inside distance kernels or pivot
/// selection on some worker thread; rejecting here, on the caller's
/// thread, turns every poisoned input into a typed error (an `ERR` line on
/// the wire).
///
/// Returns `Err(i)` with the flat index of the first non-finite component.
pub fn validate_points(values: &[f32]) -> Result<(), usize> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(i),
    }
}

/// The single source of truth for query validation (called by the one
/// scatter in [`sharded`]).
fn try_validate(snapshot: &PmLsh, q: &[f32], k: usize) -> Result<(), QueryError> {
    if q.len() != snapshot.data().dim() {
        return Err(QueryError::DimensionMismatch {
            expected: snapshot.data().dim(),
            got: q.len(),
        });
    }
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    if validate_points(q).is_err() {
        return Err(QueryError::NonFiniteComponent);
    }
    Ok(())
}

/// The panicking contract of [`ShardedEngine::query`] /
/// [`ShardedEngine::query_batch`]:
/// each [`QueryError`] maps to its historical panic message.
fn panic_for_query_error(e: QueryError) -> ! {
    match e {
        QueryError::DimensionMismatch { .. } => {
            panic!("query has wrong dimensionality for the served index")
        }
        QueryError::ZeroK => panic!("k must be positive"),
        QueryError::NonFiniteComponent => panic!("query contains a non-finite component"),
        QueryError::Internal => panic!("query execution panicked in the engine worker pool"),
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let index = self.snapshot.load();
        f.debug_struct("Engine")
            .field("points", &index.len())
            .field("dim", &index.data().dim())
            .field("epoch", &self.snapshot.epoch())
            .field("threads", &self.pool.threads())
            .field("config", &self.config)
            .finish()
    }
}

/// Why a query failed ([`ShardedEngine::try_query`]).
///
/// [`ShardedEngine::query`] turns each variant into a panic with the historical
/// message; the TCP layer turns each into an `ERR` reply line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query vector's length differs from the served dimensionality.
    DimensionMismatch {
        /// Dimensionality of the served snapshot.
        expected: usize,
        /// Components in the offered query vector.
        got: usize,
    },
    /// `k == 0` — a kNN query must request at least one neighbor.
    ZeroK,
    /// The query contains a NaN or infinite component.
    NonFiniteComponent,
    /// The worker executing the query panicked (the pool catches the
    /// panic and survives; only this query is lost). Validated inputs
    /// cannot reach this — it indicates a bug, but one the serving layer
    /// reports as `ERR internal error` instead of dropping the client.
    Internal,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query has {got} components, index dimensionality is {expected}"
                )
            }
            QueryError::ZeroK => write!(f, "k must be positive"),
            QueryError::NonFiniteComponent => {
                write!(f, "query contains a non-finite component")
            }
            QueryError::Internal => {
                write!(f, "query execution panicked in the engine worker pool")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a reindex could not start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReindexError {
    /// Another reindex is still building; retry after it completes.
    InProgress,
    /// The offered dataset's dimensionality differs from the served one.
    DimensionMismatch {
        /// Dimensionality of the snapshot currently being served.
        served: usize,
        /// Dimensionality of the dataset offered for reindexing.
        offered: usize,
    },
    /// The offered dataset holds no points (an index cannot be empty).
    EmptyDataset,
    /// The offered dataset contains a NaN or infinite component.
    NonFiniteData,
    /// The OS refused to spawn the background build thread.
    SpawnFailed,
}

impl std::fmt::Display for ReindexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReindexError::InProgress => write!(f, "a reindex is already in progress"),
            ReindexError::DimensionMismatch { served, offered } => write!(
                f,
                "dimension mismatch: serving R^{served}, offered R^{offered}"
            ),
            ReindexError::EmptyDataset => write!(f, "cannot reindex onto an empty dataset"),
            ReindexError::NonFiniteData => {
                write!(f, "dataset contains a non-finite (NaN/Inf) component")
            }
            ReindexError::SpawnFailed => write!(f, "failed to spawn the reindex thread"),
        }
    }
}

impl std::error::Error for ReindexError {}

/// Why a mutation ([`ShardedEngine::insert`] / [`ShardedEngine::delete`],
/// or one op of a [`ShardedEngine::apply`] batch)
/// was refused. The TCP layer turns each variant into an `ERR` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The offered point's length differs from the served dimensionality.
    DimensionMismatch {
        /// Dimensionality of the served snapshot.
        expected: usize,
        /// Components in the offered point.
        got: usize,
    },
    /// The offered point contains a NaN or infinite component.
    NonFiniteComponent,
    /// No live point carries this external id (never indexed, or already
    /// deleted).
    UnknownId(pm_lsh_metric::PointId),
    /// Deleting this point would empty the index; a served index is
    /// non-empty by construction (`REINDEX` onto a new dataset instead).
    WouldEmptyIndex,
    /// A background reindex is building; its swap would silently discard
    /// a concurrent mutation, so mutations wait it out.
    ReindexInProgress,
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::DimensionMismatch { expected, got } => write!(
                f,
                "point has {got} components, index dimensionality is {expected}"
            ),
            MutationError::NonFiniteComponent => {
                write!(f, "point contains a non-finite component")
            }
            MutationError::UnknownId(id) => write!(f, "unknown point id {id}"),
            MutationError::WouldEmptyIndex => {
                write!(f, "cannot delete the last indexed point")
            }
            MutationError::ReindexInProgress => {
                write!(f, "a reindex is in progress; retry once it completes")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Maps a core-layer per-op rejection ([`MutReject`]) onto the engine's
/// mutation vocabulary — the `ERR`/`FAIL` strings of the wire's
/// `INSERT`/`DELETE`/`BATCH`.
fn mutation_error_for_reject(r: MutReject) -> MutationError {
    match r {
        MutReject::WrongDim { expected, got } => MutationError::DimensionMismatch { expected, got },
        MutReject::NonFinite => MutationError::NonFiniteComponent,
        MutReject::UnknownId(id) => MutationError::UnknownId(id),
        MutReject::WouldEmpty => MutationError::WouldEmptyIndex,
    }
}

/// Summary of a published batch mutation ([`ShardedEngine::apply`]).
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// The epoch after the batch: the single publication's epoch for a
    /// monolithic engine (unchanged if no op applied), the summed
    /// per-shard epoch for a sharded one.
    pub epoch: u64,
    /// Live points after the batch.
    pub points: usize,
    /// How many ops applied (`results.iter().filter(|r| r.is_ok())`).
    pub applied: usize,
    /// Per-op outcomes in input order: the external id inserted/deleted,
    /// or why that one op was refused.
    pub results: Vec<Result<pm_lsh_metric::PointId, MutationError>>,
}

impl BatchReport {
    /// How many ops were refused.
    pub fn failed(&self) -> usize {
        self.results.len() - self.applied
    }

    /// A one-op batch's report in single-op terms: slot 0 unwrapped into
    /// a [`MutationReport`] / [`MutationError`].
    fn into_single(self) -> Result<MutationReport, MutationError> {
        Ok(MutationReport {
            id: self.results[0]?,
            epoch: self.epoch,
            points: self.points,
        })
    }
}

/// Summary of a published single-point mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// The external id inserted or deleted.
    pub id: pm_lsh_metric::PointId,
    /// The epoch the mutated snapshot was published as.
    pub epoch: u64,
    /// Live points in the published snapshot.
    pub points: usize,
}

/// Summary of a completed reindex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReindexReport {
    /// The epoch the new snapshot was published as.
    pub epoch: u64,
    /// Points in the new snapshot.
    pub points: usize,
    /// Wall-clock build time, up to and including the swap.
    pub build_secs: f64,
}

/// A running background reindex (see [`Engine::begin_reindex`]).
///
/// Dropping the ticket detaches the rebuild: it still completes and swaps,
/// just unobserved.
#[derive(Debug)]
pub struct ReindexTicket {
    handle: JoinHandle<ReindexReport>,
}

impl ReindexTicket {
    /// Blocks until the rebuild has swapped its snapshot in.
    ///
    /// # Panics
    /// Propagates a panic from the build thread (a build can only panic on
    /// arguments [`Engine::begin_reindex`] already validated, so this is a
    /// bug, not an operational error).
    pub fn wait(self) -> ReindexReport {
        self.handle.join().expect("reindex build thread panicked")
    }

    /// `true` once the background build has finished (swap included);
    /// [`ReindexTicket::wait`] will not block.
    pub fn is_done(&self) -> bool {
        self.handle.is_finished()
    }
}

/// A point-in-time description of the served snapshot, as reported by
/// [`ShardedEngine::info`] and the TCP `INDEXINFO` verb.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexInfo {
    /// Indexed points `n`.
    pub points: usize,
    /// Original-space dimensionality `d`.
    pub dim: usize,
    /// Number of Gaussian hash functions `m`.
    pub m: u32,
    /// Approximation ratio `c`.
    pub c: f64,
    /// Snapshot generation (0 = the index the engine started with).
    pub epoch: u64,
    /// `true` while a background reindex is building.
    pub reindexing: bool,
    /// `"building"` while a background reindex runs, `"serving"` otherwise
    /// (the same fact as `reindexing`, in the wire protocol's vocabulary).
    pub state: &'static str,
    /// Coarse progress percentage: 100 while serving, the rebuild's
    /// phase-boundary gauge while building (the slowest shard's gauge
    /// when sharded).
    pub pct: u8,
    /// Shards serving this logical index (1 for a monolithic engine).
    pub shards: usize,
}

impl std::fmt::Display for IndexInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "points={} dim={} m={} c={} epoch={} reindexing={} state={} pct={} shards={}",
            self.points,
            self.dim,
            self.m,
            self.c,
            self.epoch,
            self.reindexing,
            self.state,
            self.pct,
            self.shards
        )
    }
}

// The engine's whole premise is lock-free shared reads of one snapshot:
// everything it shares across threads must stay `Send + Sync`. These
// compile-time assertions (hand-rolled `static_assertions`) catch any
// future `Rc`/`Cell`/raw-pointer regression in the index stack at build
// time rather than at `thread::spawn` call sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Dataset>();
    assert_send_sync::<PmLsh>();
    assert_send_sync::<QueryResult>();
    assert_send_sync::<QueryStats>();
    assert_send_sync::<Engine>();
    assert_send_sync::<ShardedEngine>();
    assert_send_sync::<EngineStats>();
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<IndexInfo>();
    assert_send_sync::<ReindexTicket>();
    assert_send_sync::<Router>();
    assert_send_sync::<ServerConfig>();
    assert_send_sync::<QueryError>();
    assert_send_sync::<MutationError>();
    assert_send_sync::<MutationReport>();
    assert_send_sync::<MutOp>();
    assert_send_sync::<BatchReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_core::PmLshParams;
    use pm_lsh_stats::Rng;

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
    fn single_query_matches_index() {
        let data = blob(500, 16, 1);
        let q = data.point(7).to_vec();
        let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
        let engine: ShardedEngine = Engine::new(Arc::clone(&index), EngineConfig::default()).into();
        let direct = index.query(&q, 5);
        let served = engine.query(&q, 5);
        assert_eq!(served.neighbors, direct.neighbors);
        assert_eq!(served.stats, direct.stats);
        assert_eq!(engine.stats().queries, 1);
    }

    #[test]
    fn batch_preserves_order_and_matches_sequential() {
        let data = blob(600, 12, 2);
        let queries: Vec<Vec<f32>> = (0..17).map(|i| data.point(i).to_vec()).collect();
        let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
        let engine: ShardedEngine = Engine::new(
            Arc::clone(&index),
            EngineConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .into();
        let batch = engine.query_batch(&queries, 3);
        assert_eq!(batch.len(), 17);
        for (qi, q) in queries.iter().enumerate() {
            let single = index.query(q, 3);
            assert_eq!(batch[qi].neighbors, single.neighbors, "query {qi}");
            assert_eq!(batch[qi].stats, single.stats, "query {qi}");
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 17);
        assert_eq!(
            stats.query_stats,
            batch.iter().map(|r| r.stats).sum(),
            "aggregated counters must equal the per-query sum"
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let data = blob(100, 8, 3);
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .into();
        let no_queries: &[Vec<f32>] = &[];
        assert!(engine.query_batch(no_queries, 4).is_empty());
        assert_eq!(engine.stats().queries, 0);
    }

    #[test]
    fn concurrent_callers_share_one_engine() {
        let data = blob(400, 10, 4);
        let queries: Vec<Vec<f32>> = (0..24).map(|i| data.point(i).to_vec()).collect();
        let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
        let engine: ShardedEngine = Engine::new(
            Arc::clone(&index),
            EngineConfig {
                threads: 3,
                batch_size: 8,
                max_wait: Duration::from_millis(1),
            },
        )
        .into();
        std::thread::scope(|scope| {
            for chunk in queries.chunks(6) {
                let engine = engine.clone();
                let index = Arc::clone(&index);
                scope.spawn(move || {
                    for q in chunk {
                        let served = engine.query(q, 4);
                        let direct = index.query(q, 4);
                        assert_eq!(served.neighbors, direct.neighbors);
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.queries, 24);
        assert!(stats.batches >= 1 && stats.batches <= 24);
        assert!(stats.mean_batch >= 1.0);
    }

    #[test]
    fn absurd_k_is_clamped_to_n() {
        let data = blob(60, 6, 7);
        let q = data.point(0).to_vec();
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .into();
        // Would be a multi-terabyte TopK allocation if not clamped.
        let res = engine.query(&q, usize::MAX / 2);
        assert_eq!(res.neighbors.len(), 60);
        let batch = engine.query_batch(&[&q[..]], usize::MAX / 2);
        assert_eq!(batch[0].neighbors.len(), 60);
    }

    #[test]
    fn try_query_returns_typed_errors_instead_of_panicking() {
        let data = blob(80, 8, 8);
        let q = data.point(0).to_vec();
        let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
        let engine: ShardedEngine = Engine::new(
            Arc::clone(&index),
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .into();

        // The happy path is bit-identical to the panicking entry point.
        let direct = index.query(&q, 3);
        let tried = engine.try_query(&q, 3).expect("valid query");
        assert_eq!(tried.neighbors, direct.neighbors);
        assert_eq!(tried.stats, direct.stats);

        assert_eq!(
            engine.try_query(&q[..4], 3).unwrap_err(),
            QueryError::DimensionMismatch {
                expected: 8,
                got: 4
            }
        );
        assert_eq!(engine.try_query(&q, 0).unwrap_err(), QueryError::ZeroK);
        let mut poisoned = q.clone();
        poisoned[2] = f32::INFINITY;
        assert_eq!(
            engine.try_query(&poisoned, 3).unwrap_err(),
            QueryError::NonFiniteComponent
        );

        // A worker panic mid-query is Internal, not a caller panic — and
        // the pool survives to answer the next query.
        let mut crashing = q.clone();
        crashing[0] = crate::pool::CRASH_TEST_SENTINEL;
        assert_eq!(
            engine.try_query(&crashing, 3).unwrap_err(),
            QueryError::Internal
        );
        assert_eq!(engine.try_query(&q, 3).unwrap().neighbors, direct.neighbors);
    }

    #[test]
    fn validate_points_reports_first_offender() {
        assert_eq!(validate_points(&[]), Ok(()));
        assert_eq!(validate_points(&[0.0, -1.5, 3.0e30]), Ok(()));
        assert_eq!(validate_points(&[0.0, f32::NAN, f32::NAN]), Err(1));
        assert_eq!(validate_points(&[f32::NEG_INFINITY]), Err(0));
        assert_eq!(validate_points(&[1.0, 2.0, f32::INFINITY]), Err(2));
    }

    #[test]
    fn insert_and_delete_publish_new_snapshots() {
        let data = blob(200, 8, 90);
        let q = data.point(0).to_vec();
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .into();
        assert_eq!(engine.epoch(), 0);

        // Insert: fresh id, epoch bump, immediately queryable at dist 0.
        let point = vec![7.5f32; 8];
        let ins = engine.insert(&point).expect("insert");
        assert_eq!(ins.id, 200);
        assert_eq!(ins.epoch, 1);
        assert_eq!(ins.points, 201);
        assert_eq!(engine.info().points, 201);
        let res = engine.query(&point, 1);
        assert_eq!(res.neighbors[0].id, 200);
        assert_eq!(res.neighbors[0].dist, 0.0);

        // A snapshot pinned before the delete keeps answering with the
        // point; the served index no longer returns it.
        let held = engine.shards()[0].index();
        let del = engine.delete(200).expect("delete");
        assert_eq!(del.epoch, 2);
        assert_eq!(del.points, 200);
        assert!(held.contains(200), "pinned snapshot must be immutable");
        let res = engine.query(&point, 1);
        assert_ne!(res.neighbors[0].id, 200, "deleted id served");

        // Typed refusals, with the index left fully usable.
        assert_eq!(
            engine.delete(200).unwrap_err(),
            MutationError::UnknownId(200)
        );
        assert_eq!(
            engine.insert(&[1.0, 2.0]).unwrap_err(),
            MutationError::DimensionMismatch {
                expected: 8,
                got: 2
            }
        );
        let mut poisoned = point.clone();
        poisoned[3] = f32::NAN;
        assert_eq!(
            engine.insert(&poisoned).unwrap_err(),
            MutationError::NonFiniteComponent
        );
        assert_eq!(engine.epoch(), 2, "refused mutations must not publish");
        assert_eq!(engine.query(&q, 3).neighbors.len(), 3);
    }

    #[test]
    fn delete_refuses_to_empty_the_index() {
        let ds = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(ds, PmLshParams::default()),
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .into();
        engine.delete(0).expect("first delete");
        assert_eq!(
            engine.delete(1).unwrap_err(),
            MutationError::WouldEmptyIndex
        );
        assert_eq!(engine.info().points, 1);
    }

    #[test]
    fn concurrent_queries_never_fail_during_mutation_churn() {
        let data = blob(500, 10, 91);
        let queries: Vec<Vec<f32>> = (0..8).map(|i| data.point(i).to_vec()).collect();
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .into();
        std::thread::scope(|scope| {
            let mutator = {
                let engine = engine.clone();
                scope.spawn(move || {
                    let mut inserted = Vec::new();
                    for round in 0..30 {
                        let v = vec![round as f32 * 0.1; 10];
                        inserted.push(engine.insert(&v).expect("insert").id);
                        if round % 3 == 0 {
                            let id = inserted.remove(0);
                            engine.delete(id).expect("delete");
                        }
                    }
                })
            };
            for chunk in queries.chunks(2) {
                let engine = engine.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        for q in chunk {
                            let res = engine.try_query(q, 5).expect("query during churn");
                            assert_eq!(res.neighbors.len(), 5);
                        }
                    }
                });
            }
            mutator.join().expect("mutator");
        });
        // 30 inserts + 10 deletes = 40 publications.
        assert_eq!(engine.epoch(), 40);
    }

    #[test]
    #[should_panic(expected = "non-finite component")]
    fn non_finite_query_panics_on_the_caller_thread() {
        let data = blob(50, 8, 6);
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .into();
        let mut q = [0.5f32; 8];
        q[3] = f32::NAN;
        engine.query(&q, 1);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn dimension_mismatch_panics_on_the_caller_thread() {
        let data = blob(50, 8, 5);
        let engine: ShardedEngine = Engine::new(
            PmLsh::build(data, PmLshParams::default()),
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .into();
        engine.query(&[0.0f32; 4], 1);
    }
}

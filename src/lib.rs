//! # PM-LSH — fast and accurate LSH for high-dimensional approximate NN search
//!
//! A from-scratch Rust reproduction of Zheng, Zhao, Weng, Nguyen, Liu and
//! Jensen, *PM-LSH: A Fast and Accurate LSH Framework for High-Dimensional
//! Approximate NN Search*, PVLDB 13(5), 2020.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the PM-LSH index: Gaussian projections, χ² confidence
//!   intervals (Lemma 3 / Eq. 10), the `(r,c)`-ball-cover query
//!   (Algorithm 1) and the `(c,k)`-ANN query (Algorithm 2).
//! * [`pmtree`] / [`rtree`] / [`bptree`] — the index substrates (PM-tree,
//!   R-tree, B+-tree) with incremental cursors and the node-based
//!   cost models of Section 4.2.
//! * [`hash`] — p-stable hash families, collision probabilities and
//!   multi-probe perturbation sequences.
//! * [`engine`] — the serving subsystem: one serving surface over
//!   `S ≥ 1` shards ([`engine::ShardedEngine`];
//!   `Engine::new(index, config).into()` is the one-shard engine), each
//!   shard a fixed worker pool over one immutable index snapshot ([`engine::Engine`]), aggregate
//!   throughput/latency statistics ([`engine::EngineStats`]),
//!   multi-index routing by name
//!   ([`engine::Router`]), and a newline-delimited TCP protocol with
//!   optional token auth, a connection cap and graceful drain
//!   ([`engine::serve`] / [`engine::serve_router`], wire grammar in
//!   [`engine::server`]).
//! * [`baselines`] — the evaluation's competitors: SRS, QALSH, Multi-Probe
//!   LSH, R-LSH and LScan, behind one [`baselines::AnnIndex`] trait.
//! * [`persist`] — versioned, checksummed `.pmlsh` on-disk snapshots, one
//!   file per index at every shard count: [`persist::save`] /
//!   [`persist::load`] give bit-identical query answers after a restart,
//!   and the serving layer ATTACHes snapshot files instantly instead of
//!   rebuilding.
//! * [`data`] — seeded synthetic stand-ins for the paper's seven datasets,
//!   exact ground truth and the recall / overall-ratio metrics.
//! * [`stats`] / [`metric`] — numerics (χ², Φ, ECDFs, RC/LID/HV) and dense
//!   vector kernels.
//!
//! ## Quick start
//!
//! ```
//! use pm_lsh::prelude::*;
//!
//! // A seeded stand-in for the paper's Audio dataset, tiny scale.
//! let generator = PaperDataset::Audio.generator(Scale::Smoke);
//! let data = generator.dataset();
//! let queries = generator.queries(5);
//!
//! let index = PmLsh::build(data, PmLshParams::paper_defaults());
//! for q in queries.iter() {
//!     let result = index.query(q, 10);
//!     assert_eq!(result.neighbors.len(), 10);
//! }
//! ```

#![warn(missing_docs)]

pub use pm_lsh_baselines as baselines;
pub use pm_lsh_bptree as bptree;
pub use pm_lsh_core as core;
pub use pm_lsh_data as data;
pub use pm_lsh_engine as engine;
pub use pm_lsh_hash as hash;
pub use pm_lsh_metric as metric;
pub use pm_lsh_persist as persist;
pub use pm_lsh_pmtree as pmtree;
pub use pm_lsh_rtree as rtree;
pub use pm_lsh_stats as stats;

/// The most common imports in one place.
pub mod prelude {
    pub use pm_lsh_baselines::{
        AnnIndex, AnnResult, LScan, LScanParams, MultiProbe, MultiProbeParams, Qalsh, QalshParams,
        RLsh, Srs, SrsParams,
    };
    pub use pm_lsh_core::{
        BuildOptions, PmLsh, PmLshParams, QueryContext, QueryResult, QueryStats,
    };
    pub use pm_lsh_data::{
        exact_knn, exact_knn_batch, overall_ratio, recall, Generator, PaperDataset, Scale,
        SynthSpec,
    };
    pub use pm_lsh_engine::{
        serve, serve_router, DrainReport, Engine, EngineConfig, EngineStats, IndexInfo, QueryError,
        ReindexError, ReindexReport, Router, RouterError, ServerConfig, ServerHandle,
        ShardedEngine,
    };
    pub use pm_lsh_metric::{Dataset, Neighbor, PointId};
    pub use pm_lsh_persist::{PersistError, SaveReport};
    pub use pm_lsh_stats::Rng;
}

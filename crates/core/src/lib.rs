//! PM-LSH: a fast and accurate LSH framework for high-dimensional
//! approximate nearest neighbor search.
//!
//! This crate implements the primary contribution of Zheng et al.,
//! *PM-LSH* (PVLDB 13(5), 2020): `c`-approximate nearest-neighbor search
//! that (1) projects points into an `m`-dimensional space with Gaussian
//! hash functions, (2) indexes the projections, (3) estimates original
//! distances through the χ² confidence interval of Lemma 3, and (4)
//! answers queries with a sequence of range queries of growing radius
//! (Algorithms 1 and 2). The paper indexes the projections in a PM-tree;
//! this index keeps them as the column such a tree's points live in and
//! answers each range query with one sweep over it, since at the candidate
//! budgets Algorithm 2 spends the tree's traversal would pay more distances
//! than there are points (docs/ARCHITECTURE.md, "The served tree is a
//! column"). The algorithm, its answers and its guarantee are the paper's.
//!
//! # Quick start
//!
//! ```
//! use pm_lsh_core::{PmLsh, PmLshParams};
//! use pm_lsh_metric::Dataset;
//! use pm_lsh_stats::Rng;
//!
//! // 1000 Gaussian points in R^64
//! let mut rng = Rng::new(42);
//! let mut data = Dataset::with_capacity(64, 1000);
//! let mut buf = [0.0f32; 64];
//! for _ in 0..1000 {
//!     rng.fill_normal(&mut buf);
//!     data.push(&buf);
//! }
//!
//! let query = data.point(17).to_vec();
//! let index = PmLsh::build(data, PmLshParams::paper_defaults());
//! let result = index.query(&query, 10);
//! assert_eq!(result.neighbors[0].id, 17); // the point itself comes first
//! ```
//!
//! The sibling crates provide the substrates (`pm-lsh-pmtree`,
//! `pm-lsh-rtree`, `pm-lsh-bptree`, `pm-lsh-hash`), the paper's competitors
//! (`pm-lsh-baselines`) and the experiment harness (`pm-lsh-bench`).

#![warn(missing_docs)]

pub mod build;
pub mod context;
pub mod estimator_study;
pub mod index;
pub mod params;
pub mod shard;
pub mod subspace;

pub use build::BuildOptions;
pub use context::QueryContext;
pub use estimator_study::{estimator_study, Estimator, EstimatorCurve, EstimatorPoint};
pub use index::{MutOp, MutReject, PmLsh, QueryResult, QueryStats};
pub use params::{DerivedParams, PmLshParams};
pub use subspace::Subspace;

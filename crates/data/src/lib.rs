//! Datasets, ground truth and metrics for the PM-LSH experiments.
//!
//! The paper evaluates on seven real datasets (Table 3) that cannot be
//! bundled here; [`registry::PaperDataset`] provides seeded synthetic
//! stand-ins whose size, dimensionality and difficulty statistics (RC, LID,
//! HV) track the originals — the [`registry`] table lists the paper's
//! statistics, and the `table3_datasets` binary prints each stand-in's
//! beside them. [`ground_truth`] computes exact answers in parallel and
//! [`metrics`] implements the paper's overall ratio (Eq. 11) and recall
//! (Eq. 12).

#![warn(missing_docs)]

pub mod ground_truth;
pub mod io;
pub mod metrics;
pub mod registry;
pub mod synth;

pub use ground_truth::{exact_knn, exact_knn_batch};
pub use io::{read_auto, read_csv, read_fvecs, read_ivecs, write_csv, write_fvecs, IoError};
pub use metrics::{overall_ratio, recall, MetricsAccumulator, WorkloadMetrics};
pub use registry::{PaperDataset, PaperStats, Scale};
pub use synth::{Generator, SynthSpec};

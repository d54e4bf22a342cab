//! SRS (Sun et al., PVLDB 8(1)): incremental NN search in a low-dimensional
//! projected space over an R-tree.
//!
//! The state-of-the-art competitor of Section 3.1. Build: project every
//! point with `m` Gaussian hash functions and index the projections in an
//! R-tree. Query: repeatedly fetch the next projected-space NN (`incSearch`),
//! verify its original distance, and stop when either
//!
//! * the access budget `T·n` is exhausted (paper setting `T = 0.4010` at
//!   `c = 1.5`), or
//! * the early-termination test fires: with `δ` the projected distance of
//!   the point just fetched and `d_k` the current k-th best original
//!   distance, stop once `Ψ_m((c·δ/d_k)²) > p'_τ` — the probability that a
//!   point improving the `c`-approximation would already have appeared in
//!   the projected order (`Ψ_m` is the χ²(m) CDF, `p'_τ = 0.8107`).

use crate::ann_index::{AnnIndex, AnnResult};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::{euclidean, Dataset, TopK};
use pm_lsh_rtree::{RTree, RTreeConfig};
use pm_lsh_stats::{chi2_cdf, Rng};
use std::sync::Arc;

/// Configuration for [`Srs`].
#[derive(Clone, Copy, Debug)]
pub struct SrsParams {
    /// Number of Gaussian hash functions (projected dimensionality).
    pub m: u32,
    /// Approximation ratio used by the early-termination test.
    pub c: f64,
    /// Early-termination threshold `p'_τ` (paper: 0.8107).
    pub tau: f64,
    /// Maximum fraction of points accessed per query (paper: 0.4010).
    pub max_fraction: f64,
    /// Whether the χ² early-termination test may stop the enumeration
    /// before the access budget is spent. `true` is the SRS paper's
    /// guarantee-oriented algorithm; on distance-concentrated data it stops
    /// very early with a valid `c`-approximation but mediocre exact recall.
    /// The PM-LSH paper's reported SRS numbers (recall 0.81–0.93, runtime
    /// ≈ 1.1–1.3 × PM-LSH) match the budget-bound mode — see
    /// [`SrsParams::paper_operating_point`].
    pub early_termination: bool,
    /// R-tree node capacity.
    pub tree: RTreeConfig,
    /// Projection seed.
    pub seed: u64,
}

impl Default for SrsParams {
    fn default() -> Self {
        Self {
            m: 15,
            c: 1.5,
            tau: 0.8107,
            max_fraction: 0.4010,
            early_termination: true,
            tree: RTreeConfig::default(),
            seed: 0x5125_0001,
        }
    }
}

impl SrsParams {
    /// The operating point that reproduces the PM-LSH paper's Table 4 /
    /// Figs. 7–11 SRS rows: the full `T·n` access budget with the early
    /// termination disabled.
    pub fn paper_operating_point() -> Self {
        Self {
            early_termination: false,
            ..Self::default()
        }
    }
}

/// The SRS index.
pub struct Srs {
    data: Arc<Dataset>,
    projector: GaussianProjector,
    tree: RTree,
    params: SrsParams,
}

impl Srs {
    /// Projects the dataset and bulk-inserts the projections into an R-tree.
    pub fn build(data: impl Into<Arc<Dataset>>, params: SrsParams) -> Self {
        let data = data.into();
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.c > 1.0 && params.tau > 0.0 && params.tau < 1.0);
        let mut rng = Rng::new(params.seed);
        let projector = GaussianProjector::new(data.dim(), params.m as usize, &mut rng);
        let projected = projector.project_all(data.view());
        let tree = RTree::build(projected.view(), params.tree);
        Self {
            data,
            projector,
            tree,
            params,
        }
    }

    /// Builds sharing an existing projector (ablations that keep the
    /// projection fixed across algorithms).
    pub fn build_with_projector(
        data: impl Into<Arc<Dataset>>,
        projector: GaussianProjector,
        params: SrsParams,
    ) -> Self {
        let data = data.into();
        assert_eq!(projector.input_dim(), data.dim());
        assert_eq!(projector.output_dim(), params.m as usize);
        let projected = projector.project_all(data.view());
        let tree = RTree::build(projected.view(), params.tree);
        Self {
            data,
            projector,
            tree,
            params,
        }
    }

    /// The underlying R-tree (for cost-model experiments).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }
}

impl AnnIndex for Srs {
    fn name(&self) -> &'static str {
        "SRS"
    }

    fn query(&self, q: &[f32], k: usize) -> AnnResult {
        assert_eq!(q.len(), self.data.dim(), "query has wrong dimensionality");
        assert!(k >= 1, "k must be positive");
        let n = self.data.len();
        let budget = ((self.params.max_fraction * n as f64).ceil() as usize).clamp(k, n);
        let qp = self.projector.project(q);
        let mut cursor = self.tree.cursor(&qp);
        let mut top = TopK::new(k);
        let mut accessed = 0usize;

        while let Some((id, proj_d)) = cursor.next() {
            let d = euclidean(q, self.data.point_id(id));
            top.push(d, id);
            accessed += 1;
            if accessed >= budget {
                break;
            }
            if self.params.early_termination && top.is_full() {
                let dk = top.kth_dist() as f64;
                if dk <= 0.0 {
                    break; // exact duplicates found for all k slots
                }
                let x = (self.params.c * proj_d as f64 / dk).powi(2);
                if chi2_cdf(x, self.params.m) > self.params.tau {
                    break;
                }
            }
        }

        AnnResult {
            neighbors: top.into_sorted_vec(),
            candidates_verified: accessed,
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn finds_planted_neighbor() {
        let ds = blob(1500, 32, 1);
        let q = ds.point(7).to_vec();
        let srs = Srs::build(ds, SrsParams::default());
        let res = srs.query(&q, 1);
        assert_eq!(res.neighbors[0].id, 7);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }

    #[test]
    fn early_termination_beats_full_budget() {
        // Querying an indexed point should terminate far before T·n accesses:
        // the incumbent distance is 0 ⇒ the χ² test fires immediately.
        let ds = blob(4000, 24, 2);
        let q = ds.point(100).to_vec();
        let srs = Srs::build(ds, SrsParams::default());
        let res = srs.query(&q, 1);
        assert!(
            res.candidates_verified < 4000 / 5,
            "accessed {} of 4000",
            res.candidates_verified
        );
    }

    #[test]
    fn respects_access_budget() {
        let ds = blob(1000, 16, 3);
        let srs = Srs::build(
            ds,
            SrsParams {
                max_fraction: 0.05,
                tau: 0.999_999,
                ..Default::default()
            },
        );
        let mut rng = Rng::new(4);
        let mut q = vec![0.0f32; 16];
        rng.fill_normal(&mut q);
        let res = srs.query(&q, 5);
        assert!(res.candidates_verified <= 50);
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn good_recall_at_default_settings() {
        let ds = blob(3000, 32, 5);
        let queries: Vec<Vec<f32>> = (0..20).map(|i| ds.point(i * 31).to_vec()).collect();
        let srs = Srs::build(ds, SrsParams::default());
        let mut hits = 0;
        for (i, q) in queries.iter().enumerate() {
            let res = srs.query(q, 10);
            if res.neighbors.iter().any(|n| n.id as usize == i * 31) {
                hits += 1;
            }
        }
        assert!(hits >= 19, "self-hit recall {hits}/20");
    }
}

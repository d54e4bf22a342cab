//! Node-based cost model for the PM-tree (Eqs. 5–7, Section 4.2).
//!
//! The expected number of distance computations of a range query
//! `range(q, r_q)` is estimated from the dataset's distance distribution
//! `F(x)` (Eq. 4): a node behind routing entry `e` is accessed with
//! probability
//!
//! ```text
//! Pr[e] = F(e.r + r_q) · Π_i [ F(e.HR[i].max + r_q) − F(e.HR[i].min − r_q) ]
//! ```
//!
//! and each access costs one distance computation per entry of the node
//! (Eq. 7). The same model instantiated for R-trees lives in
//! `pm-lsh-rtree::cost`; together they regenerate Table 2.

use crate::block::InnerRef;
use crate::tree::PmTree;
use pm_lsh_stats::Ecdf;

/// Eq. 6: access probability of the node behind routing entry `e`.
fn access_probability(f: &Ecdf, e: InnerRef<'_>, rq: f64) -> f64 {
    let mut pr = f.cdf(e.radius as f64 + rq);
    for (min, max) in e.spans() {
        let (min, max) = (min as f64, max as f64);
        let hi = f.cdf(max + rq);
        let lo = if min - rq <= 0.0 {
            0.0
        } else {
            f.cdf(min - rq)
        };
        pr *= (hi - lo).clamp(0.0, 1.0);
    }
    pr.clamp(0.0, 1.0)
}

/// Eq. 7: expected distance computations of `range(q, rq)` over the built
/// tree, under distance distribution `f`.
///
/// The root is always accessed; every other node contributes its entry count
/// weighted by its routing entry's access probability.
pub fn expected_distance_computations(tree: &PmTree, f: &Ecdf, rq: f64) -> f64 {
    let lay = tree.layout();
    let entries_of = |node: u32| tree.nodes[node as usize].len(lay) as f64;

    let mut cc = entries_of(tree.root);
    let mut stack = vec![tree.root];
    while let Some(nid) = stack.pop() {
        let entries = &tree.nodes[nid as usize];
        if !entries.is_leaf() {
            for e in entries.inners(lay) {
                let pr = access_probability(f, e, rq);
                cc += entries_of(e.child) * pr;
                stack.push(e.child);
            }
        }
    }
    cc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{PmTree, PmTreeConfig};
    use pm_lsh_metric::Dataset;
    use pm_lsh_stats::{distance_distribution, Rng};

    fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(dim, n);
        let mut buf = vec![0.0f32; dim];
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.normal_f32() * 20.0).collect())
            .collect();
        for i in 0..n {
            let c = &centers[i % centers.len()];
            for (b, &cv) in buf.iter_mut().zip(c) {
                *b = cv + rng.normal_f32();
            }
            ds.push(&buf);
        }
        ds
    }

    #[test]
    fn cost_grows_with_radius() {
        let ds = clustered_dataset(1500, 8, 42);
        let mut rng = Rng::new(7);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        let f = distance_distribution(ds.view(), 4000, &mut rng);
        let small = expected_distance_computations(&tree, &f, f.quantile(0.01));
        let large = expected_distance_computations(&tree, &f, f.quantile(0.5));
        assert!(small > 0.0);
        assert!(large > small, "small={small} large={large}");
    }

    #[test]
    fn cost_bounded_by_full_scan_cost() {
        // The model can never predict more distance computations than
        // accessing every node in the tree.
        let ds = clustered_dataset(1000, 8, 1);
        let mut rng = Rng::new(2);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        let f = distance_distribution(ds.view(), 4000, &mut rng);
        let total_entries: f64 = (tree.nodes.iter())
            .map(|node| node.len(tree.layout()) as f64)
            .sum();
        let cc = expected_distance_computations(&tree, &f, f.max());
        assert!(cc <= total_entries + 1e-6, "cc={cc} total={total_entries}");
        // and for a selective radius, pruning should beat the full scan
        let cc_small = expected_distance_computations(&tree, &f, f.quantile(0.02));
        assert!(
            cc_small < total_entries * 0.9,
            "cc_small={cc_small} total={total_entries}"
        );
    }

    #[test]
    fn pivots_reduce_expected_cost() {
        // Hyper-rings only ever tighten Pr[e], so the s = 5 tree should not
        // cost more than the s = 0 (plain M-tree) model on the same data.
        let ds = clustered_dataset(1200, 8, 3);
        let mut rng_a = Rng::new(4);
        let mut rng_b = Rng::new(4);
        let with_pivots = PmTree::build(
            ds.view(),
            PmTreeConfig {
                num_pivots: 5,
                ..Default::default()
            },
            &mut rng_a,
        );
        let plain = PmTree::build(
            ds.view(),
            PmTreeConfig {
                num_pivots: 0,
                ..Default::default()
            },
            &mut rng_b,
        );
        let mut rng = Rng::new(5);
        let f = distance_distribution(ds.view(), 4000, &mut rng);
        let rq = f.quantile(0.08);
        let cc_pm = expected_distance_computations(&with_pivots, &f, rq);
        let cc_m = expected_distance_computations(&plain, &f, rq);
        assert!(cc_pm <= cc_m * 1.05, "pm={cc_pm} m={cc_m}");
    }
}

//! Global pivot selection.
//!
//! The paper (Section 4.1) chooses pivots "with the aim of making the overall
//! volume of the corresponding PM-tree region the smallest". As in the
//! original PM-tree work, a far-apart pivot set yields thin hyper-rings and
//! small region volume, so we use the standard farthest-point (k-center)
//! heuristic on a data sample: repeatedly pick the point maximizing its
//! minimum distance to the already chosen pivots.

use crate::projected_dist;
use pm_lsh_metric::MatrixView;
use pm_lsh_stats::Rng;

/// Selects `s` pivots from (a sample of) the dataset by farthest-point
/// traversal, returning copies of their coordinates.
///
/// The first pivot is the sampled point farthest from the sample centroid,
/// which anchors the traversal deterministically given `rng`.
pub fn select_pivots(
    view: MatrixView<'_>,
    s: usize,
    sample_size: usize,
    rng: &mut Rng,
) -> Vec<Box<[f32]>> {
    if s == 0 {
        return Vec::new();
    }
    let n = view.len();
    assert!(n > 0, "cannot select pivots from an empty dataset");
    let sample: Vec<usize> = if n <= sample_size {
        (0..n).collect()
    } else {
        rng.sample_indices(n, sample_size)
    };
    let dim = view.dim();

    // Centroid of the sample.
    let mut centroid = vec![0.0f32; dim];
    for &i in &sample {
        for (c, &v) in centroid.iter_mut().zip(view.point(i)) {
            *c += v;
        }
    }
    for c in centroid.iter_mut() {
        *c /= sample.len() as f32;
    }

    // First pivot: farthest sampled point from the centroid.
    let first = sample
        .iter()
        .copied()
        .max_by(|&a, &b| {
            projected_dist(view.point(a), &centroid)
                .partial_cmp(&projected_dist(view.point(b), &centroid))
                .unwrap()
        })
        .unwrap();

    let mut pivots: Vec<Box<[f32]>> = vec![view.point(first).into()];
    // min distance from each sampled point to the chosen pivot set
    let mut min_dist: Vec<f32> = sample
        .iter()
        .map(|&i| projected_dist(view.point(i), &pivots[0]))
        .collect();

    while pivots.len() < s {
        let (best_idx, _) = min_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let chosen = sample[best_idx];
        let pivot: Box<[f32]> = view.point(chosen).into();
        for (md, &i) in min_dist.iter_mut().zip(&sample) {
            let d = projected_dist(view.point(i), &pivot);
            if d < *md {
                *md = d;
            }
        }
        pivots.push(pivot);
    }
    pivots
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_metric::Dataset;

    #[test]
    fn zero_pivots_allowed() {
        let ds = Dataset::from_rows(vec![vec![0.0, 0.0]]);
        let mut rng = Rng::new(1);
        assert!(select_pivots(ds.view(), 0, 10, &mut rng).is_empty());
    }

    #[test]
    fn pivots_are_spread_out() {
        // Four tight clusters at square corners: with s = 4, the pivots
        // should land in four distinct clusters.
        let mut rows = Vec::new();
        let corners = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        let mut rng = Rng::new(2);
        for _ in 0..50 {
            for &(cx, cy) in &corners {
                rows.push(vec![
                    cx + rng.normal_f32() * 0.1,
                    cy + rng.normal_f32() * 0.1,
                ]);
            }
        }
        let ds = Dataset::from_rows(rows);
        let pivots = select_pivots(ds.view(), 4, 200, &mut rng);
        assert_eq!(pivots.len(), 4);
        // each pair of pivots must be far apart (different corners)
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(
                    pm_lsh_metric::euclidean(&pivots[i], &pivots[j]) > 50.0,
                    "pivots {i} and {j} collapsed"
                );
            }
        }
    }

    #[test]
    fn more_pivots_than_points_is_capped_by_duplicates() {
        // Selecting s pivots from fewer distinct points still returns s
        // entries (duplicates allowed) without panicking.
        let ds = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let mut rng = Rng::new(3);
        let pivots = select_pivots(ds.view(), 3, 10, &mut rng);
        assert_eq!(pivots.len(), 3);
    }
}

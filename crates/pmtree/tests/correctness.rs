//! Cross-checks of the PM-tree against brute force, plus structural
//! property tests.

use pm_lsh_metric::simd::kernels;
use pm_lsh_metric::{Dataset, PointId, SimdLevel};
use pm_lsh_pmtree::{PmTree, PmTreeConfig};
use pm_lsh_stats::Rng;
use proptest::prelude::*;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut ds = Dataset::with_capacity(dim, n);
    let mut buf = vec![0.0f32; dim];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    ds
}

/// The projected distance the tree measures: the scalar kernel's, on
/// every CPU.
fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    kernels::sq_dist(SimdLevel::Scalar, a, b).sqrt()
}

fn brute_range(ds: &Dataset, q: &[f32], r: f32) -> Vec<(PointId, f32)> {
    let mut out: Vec<(PointId, f32)> = ds
        .iter()
        .enumerate()
        .map(|(i, p)| (i as PointId, euclidean(q, p)))
        .filter(|&(_, d)| d <= r)
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

#[test]
fn range_query_matches_brute_force() {
    let ds = random_dataset(800, 15, 1);
    let mut rng = Rng::new(2);
    let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
    tree.verify_invariants().unwrap();

    let mut qbuf = vec![0.0f32; 15];
    for trial in 0..20 {
        rng.fill_normal(&mut qbuf);
        let r = 2.0 + (trial as f32) * 0.3;
        let got = tree.range(&qbuf, r);
        let want = brute_range(&ds, &qbuf, r);
        let got_ids: std::collections::BTreeSet<u32> = got.iter().map(|x| x.0).collect();
        let want_ids: std::collections::BTreeSet<u32> = want.iter().map(|x| x.0).collect();
        assert_eq!(got_ids, want_ids, "r={r}");
        // distances must be non-decreasing
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}

#[test]
fn knn_matches_brute_force() {
    let ds = random_dataset(600, 10, 3);
    let mut rng = Rng::new(4);
    let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);

    let mut qbuf = vec![0.0f32; 10];
    for _ in 0..15 {
        rng.fill_normal(&mut qbuf);
        let got = tree.knn(&qbuf, 10);
        assert_eq!(got.len(), 10);
        let mut all: Vec<(u32, f32)> = ds
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, euclidean(&qbuf, p)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let want_dists: Vec<f32> = all[..10].iter().map(|x| x.1).collect();
        let got_dists: Vec<f32> = got.iter().map(|x| x.1).collect();
        assert_eq!(got_dists, want_dists);
    }
}

#[test]
fn plain_mtree_without_pivots_also_correct() {
    let ds = random_dataset(500, 8, 5);
    let mut rng = Rng::new(6);
    let cfg = PmTreeConfig {
        num_pivots: 0,
        ..Default::default()
    };
    let tree = PmTree::build(ds.view(), cfg, &mut rng);
    tree.verify_invariants().unwrap();
    let mut qbuf = vec![0.0f32; 8];
    rng.fill_normal(&mut qbuf);
    let got = tree.range(&qbuf, 3.0);
    let want = brute_range(&ds, &qbuf, 3.0);
    assert_eq!(got.len(), want.len());
}

#[test]
fn radius_enlarging_cursor_never_repeats_or_misses() {
    // Algorithm 2's access pattern: pull from one cursor under radii
    // r, cr, c²r, ... and verify the union is exactly the brute-force
    // range result for the final radius, with no duplicates.
    let ds = random_dataset(700, 12, 7);
    let mut rng = Rng::new(8);
    let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);

    let mut q = vec![0.0f32; 12];
    rng.fill_normal(&mut q);
    let mut cursor = tree.cursor(&q);
    let mut seen = Vec::new();
    let mut radius = 1.0f32;
    let c = 1.5f32;
    for _ in 0..6 {
        while let Some(hit) = cursor.next_within(radius) {
            seen.push(hit);
        }
        radius *= c;
    }
    let final_radius = radius / c;
    let want = brute_range(&ds, &q, final_radius);
    assert_eq!(seen.len(), want.len(), "missed or duplicated points");
    let ids: std::collections::BTreeSet<u32> = seen.iter().map(|x| x.0).collect();
    assert_eq!(ids.len(), seen.len(), "duplicate yields");
    for w in seen.windows(2) {
        assert!(w[0].1 <= w[1].1, "cursor order violated");
    }
}

#[test]
fn cursor_visits_fewer_points_than_scan() {
    // With a selective radius, the number of exact distance computations
    // must be far below n (that is the whole point of the index).
    let ds = random_dataset(4000, 15, 9);
    let mut rng = Rng::new(10);
    let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
    let q = ds.point(0).to_vec();
    let mut cursor = tree.cursor(&q);
    let mut count = 0;
    while cursor.next_within(1.0).is_some() {
        count += 1;
    }
    let comps = cursor.distance_computations();
    assert!(comps < 4000, "distance computations {comps} not sublinear");
    assert!(count >= 1, "the query point itself must be found");
}

#[test]
fn duplicate_points_are_all_returned() {
    let mut ds = Dataset::with_capacity(4, 0);
    for _ in 0..40 {
        ds.push(&[1.0, 2.0, 3.0, 4.0]);
    }
    for i in 0..40 {
        ds.push(&[10.0 + i as f32, 0.0, 0.0, 0.0]);
    }
    let mut rng = Rng::new(11);
    let cfg = PmTreeConfig {
        capacity: 4,
        num_pivots: 2,
        pivot_sample: 64,
    };
    let tree = PmTree::build(ds.view(), cfg, &mut rng);
    tree.verify_invariants().unwrap();
    let hits = tree.range(&[1.0, 2.0, 3.0, 4.0], 0.0);
    assert_eq!(hits.len(), 40, "all duplicates must be retrievable");
}

#[test]
fn small_capacity_deep_tree_still_correct() {
    let ds = random_dataset(300, 6, 12);
    let mut rng = Rng::new(13);
    let cfg = PmTreeConfig {
        capacity: 3,
        num_pivots: 3,
        pivot_sample: 128,
    };
    let tree = PmTree::build(ds.view(), cfg, &mut rng);
    tree.verify_invariants().unwrap();
    assert!(
        tree.height() >= 3,
        "capacity 3 with 300 points must be deep"
    );
    let q = vec![0.0f32; 6];
    let got = tree.range(&q, 2.0);
    let want = brute_range(&ds, &q, 2.0);
    assert_eq!(got.len(), want.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_for_arbitrary_data(
        seed in 0u64..1000,
        n in 10usize..300,
        capacity in 3usize..10,
        pivots in 0usize..4,
    ) {
        let ds = random_dataset(n, 5, seed);
        let mut rng = Rng::new(seed ^ 0xabcd);
        let cfg = PmTreeConfig { capacity, num_pivots: pivots, pivot_sample: 64 };
        let tree = PmTree::build(ds.view(), cfg, &mut rng);
        prop_assert_eq!(tree.len(), n);
        tree.verify_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn range_always_matches_brute_force(
        seed in 0u64..1000,
        n in 10usize..250,
        radius in 0.5f32..4.0,
    ) {
        let ds = random_dataset(n, 4, seed);
        let mut rng = Rng::new(seed ^ 0x1234);
        let cfg = PmTreeConfig { capacity: 5, num_pivots: 2, pivot_sample: 64 };
        let tree = PmTree::build(ds.view(), cfg, &mut rng);
        let mut q = vec![0.0f32; 4];
        rng.fill_normal(&mut q);
        let got = tree.range(&q, radius);
        let want = brute_range(&ds, &q, radius);
        prop_assert_eq!(got.len(), want.len());
        let got_ids: std::collections::BTreeSet<u32> = got.iter().map(|x| x.0).collect();
        let want_ids: std::collections::BTreeSet<u32> = want.iter().map(|x| x.0).collect();
        prop_assert_eq!(got_ids, want_ids);
    }
}

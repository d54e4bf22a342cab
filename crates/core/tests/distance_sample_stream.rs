//! The served index is a column and bulk-loads no PM-tree, yet its
//! distance distribution F must be sampled from the RNG state the bulk load
//! it replaced left behind: F fixes every `r_min`, and with it every answer
//! and `QueryStats` counter. These tests rebuild that pipeline by hand from
//! public parts — projector, `PmTree::build` over the projected rows on the
//! same `Rng`, then `distance_distribution` — and demand F bit for bit.

use pm_lsh_core::{MutOp, PmLsh, PmLshParams};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::Dataset;
use pm_lsh_pmtree::{PmTree, PmTreeConfig};
use pm_lsh_stats::{distance_distribution, Rng};

fn gaussian(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut ds = Dataset::with_capacity(d, n);
    let mut buf = vec![0.0f32; d];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    ds
}

/// F's samples, as bit patterns, from the pipeline that bulk-loaded a tree.
fn by_hand(data: &Dataset, params: PmLshParams) -> Vec<u64> {
    let mut rng = Rng::new(params.seed);
    let projector = GaussianProjector::new(data.dim(), params.m as usize, &mut rng);
    PmTree::build(
        projector.project_all(data.view()).view(),
        params.tree,
        &mut rng,
    );
    let n = data.len();
    let pairs = params.distance_samples.min(n * (n - 1) / 2).max(1);
    let f = distance_distribution(data.view(), pairs, &mut rng);
    f.sorted_samples().iter().map(|x| x.to_bits()).collect()
}

fn built(index: &PmLsh) -> Vec<u64> {
    let f = index.distance_distribution().sorted_samples();
    f.iter().map(|x| x.to_bits()).collect()
}

fn params(num_pivots: usize, pivot_sample: usize) -> PmLshParams {
    PmLshParams {
        tree: PmTreeConfig {
            num_pivots,
            pivot_sample,
            ..PmTreeConfig::default()
        },
        distance_samples: 3000,
        ..PmLshParams::paper_defaults()
    }
}

#[test]
fn distance_distribution_follows_the_bulk_load_rng_stream() {
    let data = gaussian(700, 24, 5);
    // s = 5 with n above the pivot sample (the loader sampled), below it
    // (it took every row, no draw), and s = 0 (no pivots, no draw).
    for (num_pivots, pivot_sample) in [(5, 256), (5, 1024), (0, 256)] {
        let params = params(num_pivots, pivot_sample);
        let index = PmLsh::build(data.clone(), params);
        let what = format!("s = {num_pivots}, pivot sample {pivot_sample}");
        assert_eq!(built(&index), by_hand(&data, params), "{what}");
    }
    // The sampling draw moves F: a build that skipped it would fail above.
    assert_ne!(
        by_hand(&data, params(5, 256)),
        by_hand(&data, params(0, 256))
    );
}

#[test]
fn built_and_mutated_indexes_are_columns() {
    let data = gaussian(300, 12, 6);
    let mut index = PmLsh::build(data.clone(), PmLshParams::default());
    let is_column = |index: &PmLsh| {
        let tree = index.tree();
        (tree.node_count(), tree.height(), tree.pivots().len()) == (0, 0, 0)
    };
    assert!(is_column(&index), "built");
    let ops = [MutOp::Insert(data.point(4).to_vec()), MutOp::Delete(9)];
    let (next, _) = index.apply_cow(&ops);
    assert!(is_column(&next.expect("admitted")), "copy-on-write");
    index.insert(data.point(2));
    assert!(index.delete(0));
    assert!(is_column(&index), "mutated");
    index.tree().verify_invariants().expect("column invariants");
}

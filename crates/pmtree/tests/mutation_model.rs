//! Model-based mutation tests: a column — the mutable kind of `PmTree`,
//! the one `pm-lsh-core` serves — under random interleaved
//! insert/delete/query sequences must agree with a naive linear-scan
//! model *exactly* — same k-NN ids, same distances — and satisfy every
//! structural invariant after every single mutation.
//!
//! A column is an exact index over the projected space (the LSH
//! approximation lives a layer up, in `pm-lsh-core`), so "agrees with a
//! linear scan" is a hard equality here, not a recall target. Distances
//! are compared bit-for-bit: the column measures every projected distance
//! in the portable scalar kernel's order on every CPU, and so does the
//! model, on the same `f32` data.

use pm_lsh_metric::simd::kernels;
use pm_lsh_metric::{Dataset, PointId, SimdLevel};
use pm_lsh_pmtree::PmTree;
use pm_lsh_stats::Rng;
use proptest::prelude::*;

/// The oracle: every live `(id, vector)` pair, scanned linearly.
fn linear_knn(model: &[(PointId, Vec<f32>)], q: &[f32], k: usize) -> Vec<(PointId, f32)> {
    let dist = |v: &[f32]| kernels::sq_dist(SimdLevel::Scalar, q, v).sqrt();
    let mut all: Vec<(PointId, f32)> = model.iter().map(|(id, v)| (*id, dist(v))).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Ties inside a distance level may surface in either order from the
/// cursor's heap; normalizing both sides to (dist, id) order makes the
/// comparison exact without depending on heap insertion sequence.
fn normalized(mut hits: Vec<(PointId, f32)>) -> Vec<(PointId, f32)> {
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits
}

fn assert_tree_matches_model(
    tree: &PmTree,
    model: &[(PointId, Vec<f32>)],
    q: &[f32],
    k: usize,
    context: &str,
) {
    let got = normalized(tree.knn(q, k));
    let want = linear_knn(model, q, k);
    assert_eq!(
        got, want,
        "k-NN diverged from the linear-scan model {context}"
    );
}

/// One full random episode: build over an initial batch, then interleave
/// inserts and deletes, auditing invariants and k-NN parity after every
/// mutation. Returns how many mutations ran (so callers can assert the
/// episode was long enough to mean something).
fn run_episode(dim: usize, seed: u64, ops: usize) -> usize {
    let mut rng = Rng::new(seed);
    let n0 = 50;
    let mut ds = Dataset::with_capacity(dim, n0);
    let mut buf = vec![0.0f32; dim];
    for _ in 0..n0 {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    // Fifty rows leave the tail block two free lanes: inserts open blocks
    // and deletes give them back from the first ops on.
    let mut tree = PmTree::column(ds.view());
    let mut model: Vec<(PointId, Vec<f32>)> = ds
        .iter()
        .enumerate()
        .map(|(i, p)| (i as PointId, p.to_vec()))
        .collect();
    let mut next_id = n0 as PointId;
    tree.check_invariants();

    let mut mutations = 0;
    for op in 0..ops {
        if model.is_empty() || rng.below(10) < 6 {
            rng.fill_normal(&mut buf);
            tree.insert(&buf, next_id);
            model.push((next_id, buf.clone()));
            next_id += 1;
        } else {
            let (victim, _) = model.swap_remove(rng.below(model.len()));
            assert!(tree.delete(victim), "live id {victim} not deletable");
            assert!(
                !tree.delete(victim),
                "id {victim} deletable twice (op {op})"
            );
            assert!(!tree.contains_external(victim));
        }
        mutations += 1;
        tree.check_invariants();
        assert_eq!(tree.len(), model.len(), "live count drifted at op {op}");

        rng.fill_normal(&mut buf);
        let k = 1 + op % 7;
        assert_tree_matches_model(&tree, &model, &buf, k, &format!("at op {op}"));
    }
    mutations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Two dimensionalities x 4 seeded cases x 220 ops each, with
    // invariants and model parity asserted after every single mutation.
    #[test]
    fn interleaved_mutations_match_linear_scan_low_dim(seed in 0u64..1 << 32) {
        prop_assert!(run_episode(3, seed, 220) >= 220);
    }

    #[test]
    fn interleaved_mutations_match_linear_scan_paper_dim(seed in 0u64..1 << 32) {
        // m = 15 is the paper's projected dimensionality.
        prop_assert!(run_episode(15, seed, 220) >= 220);
    }
}

/// The batch write path a layer up applies a whole group of mutations
/// between audits. Model that here: one column takes random mutation
/// groups of width 1..=16 with no checks in between, a twin applies the
/// identical ops one at a time with invariants checked after every op,
/// and each group boundary is a checkpoint — both columns must satisfy
/// the structural invariants and answer k-NN bit-identically to each
/// other and to the linear-scan model. Deferring the audit must not
/// defer correctness.
#[test]
fn grouped_mutations_agree_with_per_op_twin_at_checkpoints() {
    let dim = 6;
    let n0 = 50;
    let mut rng = Rng::new(0xBA7C);
    let mut ds = Dataset::with_capacity(dim, n0);
    let mut buf = vec![0.0f32; dim];
    for _ in 0..n0 {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    let mut grouped = PmTree::column(ds.view());
    let mut twin = PmTree::column(ds.view());
    let mut model: Vec<(PointId, Vec<f32>)> = ds
        .iter()
        .enumerate()
        .map(|(i, p)| (i as PointId, p.to_vec()))
        .collect();
    let mut next_id = n0 as PointId;

    for round in 0..30 {
        let width = 1 + rng.below(16);
        // Plan the group against the model so in-group dependencies
        // (delete an id the model says is gone) never arise — the engine
        // layer owns per-op failure semantics; the column's contract is that
        // every op here is valid.
        let mut inserts: Vec<(PointId, Vec<f32>)> = Vec::new();
        let mut deletes: Vec<PointId> = Vec::new();
        let mut ops: Vec<Option<(PointId, Vec<f32>)>> = Vec::with_capacity(width);
        for _ in 0..width {
            if model.is_empty() || rng.below(10) < 6 {
                rng.fill_normal(&mut buf);
                inserts.push((next_id, buf.clone()));
                ops.push(Some((next_id, buf.clone())));
                model.push((next_id, buf.clone()));
                next_id += 1;
            } else {
                let (victim, _) = model.swap_remove(rng.below(model.len()));
                deletes.push(victim);
                ops.push(None);
            }
        }

        // The grouped column takes the whole width with no audits between.
        let (mut ins_it, mut del_it) = (inserts.iter(), deletes.iter());
        for op in &ops {
            match op {
                Some(_) => {
                    let (id, v) = ins_it.next().unwrap();
                    grouped.insert(v, *id);
                }
                None => {
                    let victim = del_it.next().unwrap();
                    assert!(grouped.delete(*victim), "grouped delete refused");
                }
            }
        }
        // The twin replays identically, audited after every single op.
        let (mut ins_it, mut del_it) = (inserts.iter(), deletes.iter());
        for op in &ops {
            match op {
                Some(_) => {
                    let (id, v) = ins_it.next().unwrap();
                    twin.insert(v, *id);
                }
                None => {
                    let victim = del_it.next().unwrap();
                    assert!(twin.delete(*victim), "twin delete refused");
                }
            }
            twin.check_invariants();
        }

        // Checkpoint: the deferred-audit column has nothing to hide.
        grouped.check_invariants();
        assert_eq!(grouped.len(), model.len(), "round {round}: live count");
        assert_eq!(grouped.len(), twin.len());
        rng.fill_normal(&mut buf);
        let k = 1 + round % 7;
        assert_eq!(
            normalized(grouped.knn(&buf, k)),
            normalized(twin.knn(&buf, k)),
            "round {round}: grouped column diverged from per-op twin"
        );
        assert_tree_matches_model(
            &grouped,
            &model,
            &buf,
            k,
            &format!("at group boundary {round}"),
        );
    }
}

#[test]
fn delete_unknown_and_already_deleted_ids_are_rejected() {
    let mut rng = Rng::new(7);
    let mut ds = Dataset::with_capacity(4, 30);
    let mut buf = [0.0f32; 4];
    for _ in 0..30 {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    let mut tree = PmTree::column(ds.view());
    assert!(!tree.delete(999), "never-indexed id must not delete");
    assert!(tree.delete(12));
    assert!(!tree.delete(12), "double delete must report false");
    tree.check_invariants();
    assert_eq!(tree.len(), 29);
}

#[test]
fn drain_to_empty_then_regrow() {
    let mut rng = Rng::new(11);
    let dim = 5;
    let mut ds = Dataset::with_capacity(dim, 80);
    let mut buf = vec![0.0f32; dim];
    for _ in 0..80 {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    let mut tree = PmTree::column(ds.view());

    // Delete every point in a shuffled order; the column must stay
    // consistent through every row move and end genuinely empty.
    let mut order: Vec<PointId> = (0..80).collect();
    rng.shuffle(&mut order);
    for (i, id) in order.iter().enumerate() {
        assert!(tree.delete(*id));
        tree.check_invariants();
        assert_eq!(tree.len(), 80 - 1 - i);
    }
    assert!(tree.is_empty());
    assert!(tree.knn(&vec![0.0; dim], 3).is_empty());

    // A drained column accepts new points, and stays a column.
    for id in 0..40u32 {
        rng.fill_normal(&mut buf);
        tree.insert(&buf, 1000 + id);
        tree.check_invariants();
    }
    assert_eq!((tree.len(), tree.node_count(), tree.height()), (40, 0, 0));
    let hits = tree.knn(&buf, 1);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].1, 0.0, "the just-inserted point is its own NN");
}

#[test]
fn deletions_preserve_radius_enlargement_semantics() {
    // After heavy churn the cursor's incremental range scan must still
    // yield every live point exactly once, in non-decreasing distance.
    let mut rng = Rng::new(23);
    let dim = 8;
    let mut ds = Dataset::with_capacity(dim, 200);
    let mut buf = vec![0.0f32; dim];
    for _ in 0..200 {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    let mut tree = PmTree::column(ds.view());
    for id in (0..200).step_by(3) {
        assert!(tree.delete(id));
    }
    tree.check_invariants();

    rng.fill_normal(&mut buf);
    let mut cursor = tree.cursor(&buf);
    let mut yielded = std::collections::HashSet::new();
    let mut last = 0.0f32;
    // Enlarge the radius in stages, as Algorithm 2 does.
    for radius in [0.5f32, 1.5, 4.0, f32::INFINITY] {
        while let Some((id, d)) = cursor.next_within(radius) {
            assert!(d >= last, "distance order violated after churn");
            last = d;
            assert!(yielded.insert(id), "id {id} yielded twice");
            assert!(tree.contains_external(id), "deleted id {id} yielded");
        }
    }
    assert_eq!(yielded.len(), tree.len(), "cursor missed live points");
}

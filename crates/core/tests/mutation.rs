//! Lock-step mutation tests for `PmLsh`: the dataset row store, the
//! projected column, and the id maps must stay
//! consistent through arbitrary insert/delete interleavings, and queries
//! must only ever surface live points.

use pm_lsh_core::{MutOp, MutReject, PmLsh, PmLshParams, QueryResult};
use pm_lsh_metric::{euclidean, Dataset, Neighbor};
use pm_lsh_stats::Rng;
use std::collections::{HashMap, HashSet};

/// `index.query(q, k)`, checking that the candidate stream measured every
/// live point exactly once — the column sweep's count, whatever inserts
/// and deletions did to the column.
fn query(index: &PmLsh, q: &[f32], k: usize) -> QueryResult {
    let res = index.query(q, k);
    let n = index.len() as u64;
    assert_eq!(
        res.stats.projected_dist_computations, n,
        "one per live point"
    );
    res
}

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

/// Exact k-NN over the *live* points only — the oracle a mutated index
/// is measured against.
fn exact_live_knn(index: &PmLsh, q: &[f32], k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = index
        .live_ids()
        .iter()
        .map(|&id| Neighbor::new(euclidean(q, index.data().point_id(id)), id))
        .collect();
    all.sort();
    all.truncate(k);
    all
}

#[test]
fn interleaved_mutations_keep_index_and_model_in_lock_step() {
    let d = 12;
    let data = blob(400, d, 301);
    let mut rng = Rng::new(302);
    let mut index = PmLsh::build(data.clone(), PmLshParams::default());
    // The model: external id -> vector, mirroring every mutation.
    let mut model: HashMap<u32, Vec<f32>> = data
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p.to_vec()))
        .collect();
    let mut live: Vec<u32> = (0..400).collect();
    let mut buf = vec![0.0f32; d];

    for op in 0..250 {
        if rng.bernoulli(0.5) || live.is_empty() {
            rng.fill_normal(&mut buf);
            let id = index.insert(&buf);
            assert!(
                model.insert(id, buf.clone()).is_none(),
                "external id {id} reused"
            );
            live.push(id);
            // The fresh point is its own nearest neighbor at distance 0.
            let res = query(&index, &buf, 1);
            assert_eq!(res.neighbors[0], Neighbor::new(0.0, id));
        } else {
            let victim = live.swap_remove(rng.below(live.len()));
            model.remove(&victim);
            assert!(index.delete(victim));
            assert!(!index.delete(victim), "double delete must be rejected");
            assert!(!index.contains(victim));
        }
        index.tree().check_invariants();
        assert_eq!(index.len(), live.len());

        if op % 10 == 0 {
            // Every reported neighbor must be live, with a correct
            // original-space distance.
            rng.fill_normal(&mut buf);
            let res = query(&index, &buf, 5);
            let live_set: HashSet<u32> = live.iter().copied().collect();
            for n in &res.neighbors {
                assert!(live_set.contains(&n.id), "deleted id {} returned", n.id);
                let expect = euclidean(&buf, &model[&n.id]);
                assert_eq!(n.dist, expect, "stale distance for id {}", n.id);
            }
        }
    }

    // Final cross-check: live id sets agree exactly.
    let mut got: Vec<u32> = index.live_ids().to_vec();
    got.sort_unstable();
    live.sort_unstable();
    assert_eq!(got, live);
}

/// The amortized batch path in lock-step: random batches of 1..=12 ops
/// (inserts, deletes, and occasional repeated deletes that must fail
/// `UnknownId` mid-batch) go through `apply` on one index while a twin
/// replays them one `insert`/`delete` at a time. After every batch the
/// two indexes must agree on structure, live ids, and bit-identical
/// query answers — batching changes cost, never state.
#[test]
fn apply_batches_stay_in_lock_step_with_single_op_mutations() {
    let d = 10;
    let data = blob(300, d, 341);
    let mut rng = Rng::new(342);
    let mut batched = PmLsh::build(data.clone(), PmLshParams::default());
    let mut twin = PmLsh::build(data, PmLshParams::default());
    let mut live: Vec<u32> = (0..300).collect();
    let mut buf = vec![0.0f32; d];

    for round in 0..25 {
        let width = 1 + rng.below(12);
        let mut ops: Vec<MutOp> = Vec::with_capacity(width);
        for _ in 0..width {
            // Deletes draw from the live set as of the batch's *start*,
            // so a batch can delete the same id twice — the second
            // attempt must fail UnknownId on both paths.
            if rng.bernoulli(0.55) || live.len() < 40 {
                rng.fill_normal(&mut buf);
                ops.push(MutOp::Insert(buf.clone()));
            } else {
                ops.push(MutOp::Delete(live[rng.below(live.len())]));
            }
        }

        let results = batched.apply(&ops);
        for (i, op) in ops.iter().enumerate() {
            match op {
                MutOp::Insert(p) => {
                    let id = twin.insert(p);
                    assert_eq!(
                        results[i],
                        Ok(id),
                        "round {round} op {i}: batched insert id diverged"
                    );
                    live.push(id);
                }
                MutOp::Delete(id) => match &results[i] {
                    Ok(got) => {
                        assert_eq!(got, id);
                        assert!(twin.delete(*id), "round {round} op {i}: twin refused");
                        live.retain(|x| x != id);
                    }
                    Err(MutReject::UnknownId(g)) => {
                        assert_eq!(g, id);
                        assert!(
                            !twin.delete(*id),
                            "round {round} op {i}: twin deleted what the batch refused"
                        );
                    }
                    other => panic!("round {round} op {i}: unexpected outcome {other:?}"),
                },
            }
        }

        batched.tree().check_invariants();
        assert_eq!(batched.len(), twin.len(), "round {round}: live counts");
        assert_eq!(
            batched.live_ids(),
            twin.live_ids(),
            "round {round}: live-id sequences diverged"
        );
        rng.fill_normal(&mut buf);
        let a = query(&batched, &buf, 10);
        let b = query(&twin, &buf, 10);
        assert_eq!(a.neighbors, b.neighbors, "round {round}: answers diverged");
        assert_eq!(a.stats, b.stats, "round {round}: counters diverged");
    }
}

/// `apply_cow` pays its clone only for an op that is admitted: a batch
/// whose every op is refused (or an empty one) hands back no index at
/// all — what keeps a refused `DELETE <unknown id>` O(1) when serving
/// layers route single ops through the batch path.
#[test]
fn apply_cow_clones_only_for_an_admitted_op() {
    let index = PmLsh::build(blob(20, 4, 343), PmLshParams::default());
    let refused = [
        MutOp::Delete(999),
        MutOp::Insert(vec![1.0; 3]),
        MutOp::Insert(vec![f32::NAN; 4]),
    ];
    let (next, results) = index.apply_cow(&refused);
    assert!(next.is_none(), "an all-refused batch must not clone");
    assert_eq!(
        results,
        vec![
            Err(MutReject::UnknownId(999)),
            Err(MutReject::WrongDim {
                expected: 4,
                got: 3
            }),
            Err(MutReject::NonFinite),
        ]
    );
    assert!(index.apply_cow(&[]).0.is_none());

    // An admitted op lands on a clone exactly as `apply` lands it in
    // place — same results, same structure, bit-identical answers — and
    // the receiver is untouched.
    let ops = [
        MutOp::Delete(999),
        MutOp::Delete(3),
        MutOp::Insert(vec![0.5; 4]),
        MutOp::Delete(20), // the id the insert above was given
        MutOp::Delete(3),
    ];
    let (next, results) = index.apply_cow(&ops);
    let next = next.expect("an op was admitted");
    let mut in_place = index.clone();
    assert_eq!(results, in_place.apply(&ops));
    assert_eq!(next.live_ids(), in_place.live_ids());
    next.tree().check_invariants();
    let q = [0.25f32; 4];
    let (a, b) = (query(&next, &q, 5), query(&in_place, &q, 5));
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.stats, b.stats);
    assert!(index.contains(3) && index.len() == 20, "receiver mutated");
}

#[test]
fn delete_all_then_reinsert_recovers_query_quality() {
    let d = 8;
    let data = blob(300, d, 311);
    let mut index = PmLsh::build(data.clone(), PmLshParams::default());
    for id in 0..300 {
        assert!(index.delete(id));
    }
    assert!(index.is_empty());
    index.tree().check_invariants();
    // Queries on a fully drained index answer with nothing, not a panic.
    assert!(query(&index, &vec![0.1; d], 3).neighbors.is_empty());

    // Reinsert the original vectors; they get fresh ids but identical
    // geometry, so exact self-queries must come back at distance 0.
    let mut new_ids = Vec::new();
    for p in data.iter() {
        new_ids.push(index.insert(p));
    }
    index.tree().check_invariants();
    assert_eq!(index.len(), 300);
    for (row, &id) in new_ids.iter().enumerate().step_by(29) {
        let res = query(&index, data.point(row), 1);
        assert_eq!(res.neighbors[0].dist, 0.0);
        assert_eq!(res.neighbors[0].id, id);
    }
}

#[test]
fn mutated_index_tracks_exact_knn_of_live_points() {
    // Recall of the mutated index against the exact answer over live
    // points: churn must not change what "the right answer" means.
    let d = 16;
    let data = blob(600, d, 321);
    let queries = blob(20, d, 322);
    let mut rng = Rng::new(323);
    let mut index = PmLsh::build(data, PmLshParams::paper_defaults());
    // Churn: delete 150 random points, insert 150 fresh ones.
    let mut buf = vec![0.0f32; d];
    for _ in 0..150 {
        let live = index.live_ids().to_vec();
        assert!(index.delete(live[rng.below(live.len())]));
        rng.fill_normal(&mut buf);
        index.insert(&buf);
    }
    index.tree().check_invariants();
    assert_eq!(index.len(), 600);

    let mut recall_sum = 0.0;
    for q in queries.iter() {
        let truth: HashSet<u32> = exact_live_knn(&index, q, 10).iter().map(|n| n.id).collect();
        let got = query(&index, q, 10);
        recall_sum += got
            .neighbors
            .iter()
            .filter(|n| truth.contains(&n.id))
            .count() as f64
            / 10.0;
    }
    let recall = recall_sum / queries.len() as f64;
    assert!(
        recall >= 0.8,
        "post-churn recall {recall:.3} collapsed (paper operating point)"
    );
}

#[test]
#[should_panic(expected = "wrong dimensionality")]
fn insert_rejects_wrong_dimensionality() {
    let mut index = PmLsh::build(blob(50, 6, 331), PmLshParams::default());
    index.insert(&[1.0, 2.0]);
}

#[test]
#[should_panic(expected = "non-finite")]
fn insert_rejects_non_finite_components() {
    let mut index = PmLsh::build(blob(50, 4, 332), PmLshParams::default());
    index.insert(&[1.0, f32::NAN, 0.0, 0.0]);
}

//! Snapshots taken mid-churn: an index that has absorbed an arbitrary
//! interleaving of inserts and deletes must save and load with its full
//! mutation history intact — dead rows, stable external ids, the
//! column's row order — and the restored index must keep mutating
//! correctly.

use pm_lsh_core::{MutOp, PmLsh, PmLshParams};
use pm_lsh_metric::{euclidean, Dataset, Neighbor, CHUNK_ROWS};
use pm_lsh_persist::{deserialize, serialize};
use pm_lsh_stats::Rng;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Exact k-NN over the model's live points — the oracle both the churned
/// original and its restored copy are measured against.
fn oracle_knn(model: &HashMap<u32, Vec<f32>>, q: &[f32], k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = model
        .iter()
        .map(|(&id, p)| Neighbor::new(euclidean(q, p), id))
        .collect();
    all.sort();
    all.truncate(k);
    all
}

#[test]
fn snapshot_taken_mid_churn_round_trips_with_full_fidelity() {
    let d = 10;
    let data = blob(350, d, 501);
    let mut rng = Rng::new(502);
    let mut index = PmLsh::build(data.clone(), PmLshParams::default());
    // The model: external id -> vector, mirroring every mutation.
    let mut model: HashMap<u32, Vec<f32>> = data
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p.to_vec()))
        .collect();
    let mut live: Vec<u32> = (0..350).collect();
    let mut buf = vec![0.0f32; d];

    // Churn hard enough to exercise dead rows, reused tree slots and
    // non-contiguous external ids before the snapshot is cut.
    for _ in 0..200 {
        if rng.bernoulli(0.45) || live.is_empty() {
            rng.fill_normal(&mut buf);
            let id = index.insert(&buf);
            assert!(model.insert(id, buf.clone()).is_none());
            live.push(id);
        } else {
            let victim = live.swap_remove(rng.below(live.len()));
            model.remove(&victim);
            assert!(index.delete(victim));
        }
    }
    assert!(
        index.data().len() > index.len(),
        "churn must leave dead rows behind for the test to mean anything"
    );

    // Cut the snapshot mid-history and restore it.
    let bytes = serialize(&index);
    let restored = deserialize(&bytes).expect("mid-churn snapshot must load");
    restored.tree().verify_invariants().unwrap();

    // Identity: same live ids, same vectors behind them.
    let mut want: Vec<u32> = live.clone();
    want.sort_unstable();
    let mut got: Vec<u32> = restored.live_ids().to_vec();
    got.sort_unstable();
    assert_eq!(got, want);
    for &id in &live {
        assert_eq!(restored.data().point_id(id), model[&id].as_slice());
    }

    // Fidelity: the restored copy answers *bit-identically* to the
    // original (same neighbors, same work counters), and both track the
    // exact oracle at the usual post-churn recall bar — PM-LSH is
    // c-approximate, so oracle agreement is recall, not equality.
    let mut recall_sum = 0.0;
    let nq = 25u64;
    for qi in 0..nq {
        let mut q = vec![0.0f32; d];
        Rng::new(600 + qi).fill_normal(&mut q);
        let a = index.query(&q, 10);
        let b = restored.query(&q, 10);
        assert_eq!(a.neighbors, b.neighbors, "restored index diverged");
        assert_eq!(a.stats, b.stats, "restored index did different work");
        let truth: Vec<u32> = oracle_knn(&model, &q, 10).iter().map(|n| n.id).collect();
        recall_sum += b.neighbors.iter().filter(|n| truth.contains(&n.id)).count() as f64
            / truth.len() as f64;
    }
    let recall = recall_sum / nq as f64;
    assert!(
        recall >= 0.8,
        "restored-index recall {recall:.3} collapsed vs live-point oracle"
    );

    // The restored index is not a read-only artifact: keep churning both
    // copies in lock step and they stay interchangeable.
    let mut restored = restored;
    for _ in 0..60 {
        if rng.bernoulli(0.5) || live.is_empty() {
            rng.fill_normal(&mut buf);
            let id_a = index.insert(&buf);
            let id_b = restored.insert(&buf);
            assert_eq!(id_a, id_b, "id allocation diverged after restore");
            assert!(model.insert(id_a, buf.clone()).is_none());
            live.push(id_a);
        } else {
            let victim = live.swap_remove(rng.below(live.len()));
            model.remove(&victim);
            assert!(index.delete(victim));
            assert!(restored.delete(victim));
        }
    }
    restored.tree().verify_invariants().unwrap();
    assert_eq!(index.len(), restored.len());
    for qi in 0..10u64 {
        let mut q = vec![0.0f32; d];
        Rng::new(700 + qi).fill_normal(&mut q);
        let a = index.query(&q, 5);
        let b = restored.query(&q, 5);
        assert_eq!(
            a.neighbors, b.neighbors,
            "restored index fell out of lock step after further mutations"
        );
        for n in &b.neighbors {
            assert!(model.contains_key(&n.id), "deleted id {} returned", n.id);
            assert_eq!(n.dist, euclidean(&q, &model[&n.id]));
        }
    }

    // And a snapshot of the mutated restore still round-trips.
    let again = deserialize(&serialize(&restored)).expect("second-generation snapshot");
    again.tree().verify_invariants().unwrap();
    assert_eq!(again.len(), restored.len());
}

/// The DATA section (id 3) of a one-shard image: its payload.
fn raw_section(bytes: &[u8]) -> &[u8] {
    let mut pos = 16; // magic + version + shard count
    loop {
        let id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if id == 3 {
            return &bytes[pos + 12..pos + 12 + len];
        }
        pos += 12 + len + 4;
    }
}

#[test]
fn a_tail_of_three_chunks_saves_as_rows_in_id_order_and_reloads_bit_identically() {
    let (n, d) = (300, 6);
    let data = blob(n, d, 511);
    let mut rng = Rng::new(512);
    let mut index = PmLsh::build(data.clone(), PmLshParams::default());
    // Every stored row in id order, dead ones included.
    let mut rows: Vec<Vec<f32>> = data.iter().map(<[f32]>::to_vec).collect();
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut buf = vec![0.0f32; d];
    // Publish copy-on-write, as a server does: each batch forks the last
    // snapshot, which must not move.
    while rows.len() < n + 2 * CHUNK_ROWS + 20 {
        let mut ops = Vec::new();
        for _ in 0..7 {
            if rng.bernoulli(0.7) {
                rng.fill_normal(&mut buf);
                ops.push(MutOp::Insert(buf.clone()));
            } else {
                ops.push(MutOp::Delete(live.swap_remove(rng.below(live.len()))));
            }
        }
        let before = serialize(&index);
        let (next, results) = index.apply_cow(&ops);
        assert_eq!(serialize(&index), before, "a fork moved its snapshot");
        for (op, result) in ops.iter().zip(results) {
            let id = result.expect("every planned op applies");
            if let MutOp::Insert(p) = op {
                assert_eq!(id as usize, rows.len());
                rows.push(p.clone());
                live.push(id);
            }
        }
        let next = next.expect("a batch with admitted ops publishes");
        assert!(Arc::ptr_eq(next.data().base(), index.data().base()));
        index = next;
    }
    let tail = index.data().len() - n;
    assert!(
        tail > 2 * CHUNK_ROWS && tail < 3 * CHUNK_ROWS,
        "{tail} tail rows"
    );

    let bytes = serialize(&index);
    let want: Vec<u8> = rows.concat().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(
        raw_section(&bytes),
        &want[..],
        "RAW is not the rows in id order"
    );

    let restored = deserialize(&bytes).expect("a churned snapshot loads");
    assert_eq!(
        restored.data().base().len(),
        rows.len(),
        "a load is all base"
    );
    for (id, row) in rows.iter().enumerate() {
        let got: Vec<u32> = restored
            .data()
            .point(id)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "row {id}");
    }
    assert_eq!(
        serialize(&restored),
        bytes,
        "the reload re-saves other bytes"
    );
    for qi in 0..10u64 {
        let mut q = vec![0.0f32; d];
        Rng::new(800 + qi).fill_normal(&mut q);
        let (a, b) = (index.query(&q, 10), restored.query(&q, 10));
        assert_eq!(a.neighbors, b.neighbors, "restored index diverged");
        assert_eq!(a.stats, b.stats, "restored index did different work");
    }
}

//! The principal-subspace filter changes nothing observable. (The file
//! keeps the name of the pivot-ring filter it replaced.)
//!
//! An index that keeps a principal subspace (`PmLsh::subspace`) drops a
//! candidate from verification when its coordinates in the subspace lie
//! far enough from the query's to prove the row would measure above the
//! abandon bound. Such a row could not have entered the top-k, so the same
//! index with its subspace stripped (`PmLsh::without_subspace`) must answer
//! every query form with the same neighbors, distances and `QueryStats`,
//! bit for bit: over plain queries, through a churn of `apply_cow`,
//! `insert` and `delete`, across a save/load round trip, and on the cases
//! that stress the filter's rounding margin (rows that duplicate the
//! query, a query on the mean or on a candidate, ties at the k-th
//! distance, a row inserted far outside the fitted subspace, rows scaled
//! by 10³ and 10⁻³). These tests run at the kernel level this CPU
//! dispatches to; CI runs them again under `PMLSH_FORCE_SCALAR=1`, and the
//! unit tests of `pm_lsh_core::subspace` pin the margin across every level
//! triple.
//!
//! The build keeps a subspace only where its own data says it pays, and
//! the second half of this file pins that decision on the stand-ins.

use pm_lsh::core::{MutOp, PmLsh, PmLshParams, QueryContext, Subspace};
use pm_lsh::data::{Generator, PaperDataset, Scale};
use pm_lsh::metric::Dataset;
use pm_lsh::persist::{deserialize, serialize};

/// Trevi's Smoke stand-in at a quarter of its dimension and five times its
/// rows: the same cluster geometry, at a size where the build keeps a
/// subspace (see `decisions`).
fn trevi_shaped() -> Generator {
    let mut spec = PaperDataset::Trevi.spec(Scale::Smoke);
    spec.dim = 1024;
    spec.n = 4000;
    Generator::new(spec)
}

fn scaled(data: &Dataset, by: f32) -> Dataset {
    let flat = data.as_flat().iter().map(|v| v * by).collect();
    Dataset::from_flat(flat, data.dim())
}

/// Every query form, on `a` and on `b`, must agree bit for bit.
fn assert_twins(a: &PmLsh, b: &PmLsh, queries: &[Vec<f32>], what: &str) {
    let (mut ctx_a, mut ctx_b) = (QueryContext::new(), QueryContext::new());
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 10, 50] {
            let (ra, rb) = (a.query(q, k), b.query(q, k));
            assert_eq!(ra.neighbors, rb.neighbors, "{what}: q{qi} k{k} neighbors");
            assert_eq!(ra.stats, rb.stats, "{what}: q{qi} k{k} stats");
            let dists = |r: &[pm_lsh::metric::Neighbor]| -> Vec<u32> {
                r.iter().map(|n| n.dist.to_bits()).collect()
            };
            assert_eq!(
                dists(&ra.neighbors),
                dists(&rb.neighbors),
                "{what}: q{qi} k{k}"
            );
            let budget = a.candidate_budget(k) / 2;
            let sa = a.query_fanout_into(q, k, budget, &mut ctx_a, &mut out_a);
            let sb = b.query_fanout_into(q, k, budget, &mut ctx_b, &mut out_b);
            assert_eq!((&out_a, sa), (&out_b, sb), "{what}: q{qi} k{k} fan-out");
        }
        let r = a.select_rmin(1);
        for scale in [0.5f64, 1.0, 2.0] {
            let (ba, bb) = (
                a.query_bc(q, r * scale, &mut ctx_a),
                b.query_bc(q, r * scale, &mut ctx_b),
            );
            assert_eq!(ba, bb, "{what}: q{qi} ball cover at {scale}·r_min");
        }
    }
}

/// The generator's queries, plus a query on the subspace's mean and one
/// on a data row.
fn queries_for(index: &PmLsh, generator: &Generator) -> Vec<Vec<f32>> {
    let mut queries: Vec<Vec<f32>> = generator.queries(12).iter().map(<[f32]>::to_vec).collect();
    queries.push(index.subspace().expect("a subspace").mean().to_vec());
    queries.push(index.data().point(17).to_vec());
    queries
}

/// Every float of a subspace, as bits, and its two bounds.
fn bits(sub: &Subspace) -> (Vec<u32>, [u64; 2]) {
    let floats = (sub.mean().iter())
        .chain(sub.basis().as_flat())
        .chain(sub.table().runs().flatten());
    let bits = floats.map(|v| v.to_bits()).collect();
    (bits, [sub.sigma().to_bits(), sub.radius().to_bits()])
}

#[test]
fn a_subspace_and_its_stripped_twin_answer_alike() {
    let generator = trevi_shaped();
    let with = PmLsh::build(generator.dataset(), PmLshParams::paper_defaults());
    let sub = with
        .subspace()
        .expect("the Trevi-shaped build keeps a subspace");
    assert_eq!(sub.basis().len(), 1024 / 64);
    assert_eq!(sub.table().len(), with.data().len());
    let without = with.clone().without_subspace();
    assert!(without.subspace().is_none());
    let queries = queries_for(&with, &generator);
    assert_twins(&with, &without, &queries, "built");

    // Rows that duplicate a query, and twelve rows tied at one distance from
    // it, so the k-th distance of k = 10 is shared by rows on both sides of
    // the cut.
    let q = queries[0].clone();
    let near: Vec<f32> = q.iter().map(|v| v + 0.01).collect();
    let mut ops: Vec<MutOp> = (0..3).map(|_| MutOp::Insert(q.clone())).collect();
    ops.extend((0..12).map(|_| MutOp::Insert(near.clone())));
    ops.extend([MutOp::Delete(5), MutOp::Delete(1)]);
    let (a, ra) = with.apply_cow(&ops);
    let (b, rb) = without.apply_cow(&ops);
    assert_eq!(ra, rb);
    let (mut a, mut b) = (a.expect("admitted"), b.expect("admitted"));
    assert_eq!(a.subspace().unwrap().table().len(), a.data().len());
    assert!(
        b.subspace().is_none(),
        "an insert into a stripped twin adds no subspace"
    );
    assert_twins(&a, &b, &queries, "after apply_cow");

    // Single-op churn across a chunk boundary of the table's tail, and a
    // row far outside the fitted subspace: `ρ` grows to cover it.
    let extra = generator.queries(70);
    for (i, row) in extra.iter().enumerate() {
        assert_eq!(a.insert(row), b.insert(row));
        if i % 9 == 0 {
            assert_eq!(a.delete(i as u32 * 3), b.delete(i as u32 * 3));
        }
    }
    let radius = a.subspace().unwrap().radius();
    let far: Vec<f32> = (q.iter().enumerate())
        .map(|(j, v)| v + if j % 2 == 0 { 1e3 } else { -1e3 })
        .collect();
    assert_eq!(a.insert(&far), b.insert(&far));
    assert!(
        a.subspace().unwrap().radius() > radius,
        "ρ covers the far row"
    );
    assert_eq!(a.subspace().unwrap().table().len(), a.data().len());
    let mut churned = queries.clone();
    churned.extend([extra.point(64).to_vec(), far]);
    assert_twins(&a, &b, &churned, "after insert and delete");

    // A save/load round trip keeps the subspace, and keeps the twin without.
    let loaded = deserialize(&serialize(&a)).expect("round trip");
    let sub_l = loaded.subspace().expect("the subspace loads");
    assert_eq!(
        bits(a.subspace().unwrap()),
        bits(sub_l),
        "it loads as saved"
    );
    let loaded_b = deserialize(&serialize(&b)).expect("round trip");
    assert!(
        loaded_b.subspace().is_none(),
        "an absent subspace stays absent"
    );
    assert_twins(&loaded, &loaded_b, &churned, "after a round trip");
}

#[test]
fn scaled_rows_keep_the_filter_exact() {
    let generator = trevi_shaped();
    let data = generator.dataset();
    let base: Vec<Vec<f32>> = generator.queries(8).iter().map(<[f32]>::to_vec).collect();
    for by in [1e3f32, 1e-3] {
        let with = PmLsh::build(scaled(&data, by), PmLshParams::paper_defaults());
        assert!(
            with.subspace().is_some(),
            "rows scaled by {by} keep a subspace"
        );
        let without = with.clone().without_subspace();
        let mut queries: Vec<Vec<f32>> = base
            .iter()
            .map(|q| q.iter().map(|v| v * by).collect())
            .collect();
        queries.push(with.data().point(3).to_vec());
        assert_twins(&with, &without, &queries, &format!("rows scaled by {by}"));
    }
}

#[test]
fn decisions() {
    // Where the data's variance spreads over many more than d/64
    // directions, no gap beats the k-th distance and the table would be
    // pure cost.
    for dataset in [PaperDataset::Audio, PaperDataset::Deep, PaperDataset::Cifar] {
        let index = PmLsh::build(
            dataset.generator(Scale::Smoke).dataset(),
            PmLshParams::paper_defaults(),
        );
        assert!(
            index.subspace().is_none(),
            "{} keeps a subspace",
            dataset.name()
        );
    }
    // Trevi's Smoke stand-in lies near a low-dimensional subspace, but at
    // n = 800 a query verifies 234 candidates and pays 64 dot products of
    // 4 096 floats: the table costs more than it saves (a forced one,
    // +20 % a query), and the build keeps none.
    let trevi = PmLsh::build(
        PaperDataset::Trevi.generator(Scale::Smoke).dataset(),
        PmLshParams::paper_defaults(),
    );
    assert!(
        trevi.subspace().is_none(),
        "Trevi at n = 800 keeps a subspace"
    );
    let shaped = PmLsh::build(trevi_shaped().dataset(), PmLshParams::paper_defaults());
    assert!(
        shaped.subspace().is_some(),
        "the Trevi-shaped stand-in keeps none"
    );
    // Below 64 dimensions there are no directions to keep.
    let rows = (0..200)
        .map(|i| [(i % 7) as f32, i as f32].repeat(24))
        .collect();
    let small = PmLsh::build(Dataset::from_rows(rows), PmLshParams::paper_defaults());
    assert!(small.subspace().is_none());
}

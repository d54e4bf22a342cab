//! The pivot ring changes nothing observable.
//!
//! An index that keeps a ring (`PmLsh::ring`) drops a candidate from
//! verification when its ring gap proves the row would measure above the
//! abandon bound. Such a row could not have entered the top-k, so the same
//! index with its ring stripped (`PmLsh::without_ring`) must answer every
//! query form with the same neighbors, distances and `QueryStats`, bit for
//! bit: over plain queries, through a churn of `apply_cow`, `insert` and
//! `delete`, across a save/load round trip, and on the cases that stress
//! the ring's rounding margin (rows that duplicate the query, a query on a
//! pivot or on a candidate, ties at the k-th distance, rows scaled by 10³
//! and 10⁻³). These tests run at the kernel level this CPU dispatches to;
//! CI runs them again under `PMLSH_FORCE_SCALAR=1`, and the unit tests of
//! `pm_lsh_core::ring` pin the margin across every level pair.
//!
//! The build keeps a ring only where its own data says it pays, and the
//! second half of this file pins that decision on the stand-ins.

use pm_lsh::core::{MutOp, PmLsh, PmLshParams, QueryContext};
use pm_lsh::data::{Generator, PaperDataset, Scale};
use pm_lsh::metric::Dataset;
use pm_lsh::persist::{deserialize, serialize};

/// Trevi's Smoke stand-in at a quarter of its dimension and five times its
/// rows: the same cluster geometry, at a size where the build keeps a
/// ring (at Trevi's own n = 800, the 64 pivot distances a query pays
/// outweigh what its 235 candidates can save; see `decisions`).
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

/// The generator's queries, plus a query on a pivot row and on a data row.
fn queries_for(index: &PmLsh, generator: &Generator) -> Vec<Vec<f32>> {
    let mut queries: Vec<Vec<f32>> = generator.queries(12).iter().map(<[f32]>::to_vec).collect();
    let pivot = index.ring().expect("a ring").pivots()[0];
    queries.push(index.data().point_id(pivot).to_vec());
    queries.push(index.data().point(17).to_vec());
    queries
}

#[test]
fn a_ring_and_its_stripped_twin_answer_alike() {
    let generator = trevi_shaped();
    let with = PmLsh::build(generator.dataset(), PmLshParams::paper_defaults());
    let ring = with.ring().expect("the Trevi-shaped build keeps a ring");
    assert_eq!(ring.pivots().len(), 1024 / 64);
    assert_eq!(ring.table().len(), with.data().len());
    let without = with.clone().without_ring();
    assert!(without.ring().is_none());
    let queries = queries_for(&with, &generator);
    assert_twins(&with, &without, &queries, "built");

    // Rows that duplicate a query, and twelve rows tied at one distance from
    // it, so the k-th distance of k = 10 is shared by rows on both sides of
    // the cut.
    let q = queries[0].clone();
    let near: Vec<f32> = q.iter().map(|v| v + 0.01).collect();
    let mut ops: Vec<MutOp> = (0..3).map(|_| MutOp::Insert(q.clone())).collect();
    ops.extend((0..12).map(|_| MutOp::Insert(near.clone())));
    ops.extend([
        MutOp::Delete(5),
        MutOp::Delete(with.ring().unwrap().pivots()[1]),
    ]);
    let (a, ra) = with.apply_cow(&ops);
    let (b, rb) = without.apply_cow(&ops);
    assert_eq!(ra, rb);
    let (mut a, mut b) = (a.expect("admitted"), b.expect("admitted"));
    assert_eq!(a.ring().unwrap().table().len(), a.data().len());
    assert!(
        b.ring().is_none(),
        "an insert into a stripped twin adds no ring"
    );
    assert_twins(&a, &b, &queries, "after apply_cow");

    // Single-op churn across a chunk boundary of the table's tail.
    let extra = generator.queries(70);
    for (i, row) in extra.iter().enumerate() {
        assert_eq!(a.insert(row), b.insert(row));
        if i % 9 == 0 {
            assert_eq!(a.delete(i as u32 * 3), b.delete(i as u32 * 3));
        }
    }
    assert_eq!(a.ring().unwrap().table().len(), a.data().len());
    let mut churned = queries.clone();
    churned.push(extra.point(64).to_vec());
    assert_twins(&a, &b, &churned, "after insert and delete");

    // A save/load round trip keeps the ring, and keeps the twin without.
    let loaded = deserialize(&serialize(&a)).expect("round trip");
    let (ring_a, ring_l) = (a.ring().unwrap(), loaded.ring().expect("the ring loads"));
    assert_eq!(ring_a.pivots(), ring_l.pivots());
    let bits = |r: &pm_lsh::core::PivotRing| -> Vec<u32> {
        r.table().runs().flatten().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(ring_a), bits(ring_l), "the table loads as saved");
    let loaded_b = deserialize(&serialize(&b)).expect("round trip");
    assert!(loaded_b.ring().is_none(), "an absent ring stays absent");
    assert_twins(&loaded, &loaded_b, &churned, "after a round trip");
}

#[test]
fn scaled_rows_keep_the_filter_exact() {
    let generator = trevi_shaped();
    let data = generator.dataset();
    let base: Vec<Vec<f32>> = generator.queries(8).iter().map(<[f32]>::to_vec).collect();
    for by in [1e3f32, 1e-3] {
        let with = PmLsh::build(scaled(&data, by), PmLshParams::paper_defaults());
        assert!(with.ring().is_some(), "rows scaled by {by} keep a ring");
        let without = with.clone().without_ring();
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
    // Where the data separates little, no ring gap beats the k-th
    // distance and the table would be pure cost.
    for dataset in [PaperDataset::Audio, PaperDataset::Deep, PaperDataset::Cifar] {
        let index = PmLsh::build(
            dataset.generator(Scale::Smoke).dataset(),
            PmLshParams::paper_defaults(),
        );
        assert!(index.ring().is_none(), "{} keeps a ring", dataset.name());
    }
    // Trevi's Smoke stand-in separates well, but at n = 800 a query
    // verifies 235 candidates and pays 64 pivot distances of 4 096 floats:
    // the ring costs more than it saves, and the build keeps none.
    let trevi = PmLsh::build(
        PaperDataset::Trevi.generator(Scale::Smoke).dataset(),
        PmLshParams::paper_defaults(),
    );
    assert!(trevi.ring().is_none(), "Trevi at n = 800 keeps a ring");
    let shaped = PmLsh::build(trevi_shaped().dataset(), PmLshParams::paper_defaults());
    assert!(
        shaped.ring().is_some(),
        "the Trevi-shaped stand-in keeps none"
    );
    // Below 64 dimensions there are no pivots to keep.
    let rows = (0..200)
        .map(|i| [(i % 7) as f32, i as f32].repeat(24))
        .collect();
    let small = PmLsh::build(Dataset::from_rows(rows), PmLshParams::paper_defaults());
    assert!(small.ring().is_none());
}

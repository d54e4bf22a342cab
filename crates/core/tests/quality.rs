//! Statistical quality tests for PM-LSH: Theorem 1's c²-guarantee, recall on
//! seeded data, and Theorem 2's sublinear probing behaviour.

use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::{euclidean, Dataset, RowStore, TopK};
use pm_lsh_pmtree::PmTree;
use pm_lsh_stats::Rng;

fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let centers: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..d).map(|_| rng.normal_f32() * 8.0).collect())
        .collect();
    let mut ds = Dataset::with_capacity(d, n);
    let mut buf = vec![0.0f32; d];
    for i in 0..n {
        let c = &centers[i % centers.len()];
        for (b, &cv) in buf.iter_mut().zip(c) {
            *b = cv + rng.normal_f32();
        }
        ds.push(&buf);
    }
    ds
}

fn exact_knn(ds: &RowStore, q: &[f32], k: usize) -> Vec<pm_lsh_metric::Neighbor> {
    let mut top = TopK::new(k);
    for i in 0..ds.len() {
        top.push(euclidean(q, ds.point(i)), i as u32);
    }
    top.into_sorted_vec()
}

#[test]
fn c2_guarantee_holds_with_margin() {
    // Theorem 1: a c-run returns a c²-ANN with probability >= 1/2 - 1/e.
    // Empirically PM-LSH does far better; require >= 80% success over 60
    // queries (the guarantee floor is ~13%).
    let n = 4000;
    let d = 32;
    let data = clustered(n, d, 100);
    let queries = clustered(60, d, 101);
    let params = PmLshParams::default(); // faithful Eq. 10, c = 1.5
    let c2 = params.c * params.c;
    let index = PmLsh::build(data, params);

    let mut success = 0;
    for q in queries.iter() {
        let truth = exact_knn(index.data(), q, 1);
        let res = index.query(q, 1);
        let got = res.neighbors[0].dist as f64;
        if got <= c2 * truth[0].dist as f64 + 1e-6 {
            success += 1;
        }
    }
    assert!(success >= 48, "c² guarantee met only {success}/60 times");
}

#[test]
fn high_recall_with_paper_beta() {
    // With the paper's β = 0.2809 operating point, recall@10 on an easy
    // clustered dataset should be high (Table 4 reports 0.88–0.99). As in
    // the paper, queries are drawn from the data distribution: hold out the
    // last rows of one generated set instead of sampling fresh clusters.
    let n = 3000;
    let d = 48;
    let all = clustered(n + 25, d, 200);
    let ids: Vec<u32> = (0..n as u32).collect();
    let data = all.gather(&ids);
    let qids: Vec<u32> = (n as u32..(n + 25) as u32).collect();
    let queries = all.gather(&qids);
    let index = PmLsh::build(data, PmLshParams::paper_defaults());

    let mut recall_sum = 0.0;
    for q in queries.iter() {
        let truth = exact_knn(index.data(), q, 10);
        let truth_ids: std::collections::HashSet<u32> = truth.iter().map(|n| n.id).collect();
        let res = index.query(q, 10);
        let hits = res
            .neighbors
            .iter()
            .filter(|n| truth_ids.contains(&n.id))
            .count();
        recall_sum += hits as f64 / 10.0;
    }
    let recall = recall_sum / queries.len() as f64;
    assert!(recall >= 0.8, "recall {recall}");
}

#[test]
fn candidate_budget_respected() {
    // Theorem 2: the verification cost is O(βn), so candidates verified must
    // never exceed βn + k.
    let n = 2000;
    let data = clustered(n, 24, 300);
    let queries = clustered(10, 24, 301);
    let params = PmLshParams::paper_defaults();
    let beta = params.derive().beta;
    let index = PmLsh::build(data, params);
    for q in queries.iter() {
        let k = 5;
        let res = index.query(q, k);
        let budget = (beta * n as f64).ceil() as usize + k;
        assert!(
            res.stats.candidates_verified <= budget,
            "verified {} > budget {budget}",
            res.stats.candidates_verified
        );
        assert!(res.stats.rounds >= 1);
    }
}

#[test]
fn probing_is_sublinear_in_n() {
    // The PM-tree's own range query: quadrupling n should not grow the
    // share of the tree a selective radius pays distances for (O(log n +
    // βn) with small β — the βn term dominates, so normalize by n). The
    // index itself sweeps its column, paying exactly n per query, so this
    // measures a tree bulk-loaded over the index's projected rows, from the
    // RNG state the build's projector leaves, at each query's first-round
    // radius t·r_min.
    let d = 16;
    let params = PmLshParams::default();
    let mut per_n = Vec::new();
    for (seed, n) in [(400u64, 2000usize), (401, 8000)] {
        let data = clustered(n, d, seed);
        let queries = clustered(8, d, seed + 50);
        let index = PmLsh::build(data.clone(), params);
        let mut rng = Rng::new(params.seed);
        let projector = GaussianProjector::new(d, params.m as usize, &mut rng);
        let projected = projector.project_all(data.view());
        let tree = PmTree::build(projected.view(), params.tree, &mut rng);
        let radius = (index.derived().t * index.select_rmin(10)) as f32;
        let mut comps = 0u64;
        for q in queries.iter() {
            assert_eq!(
                index.query(q, 10).stats.projected_dist_computations,
                n as u64
            );
            let mut cursor = tree.cursor(&index.project(q));
            while cursor.next_within(radius).is_some() {}
            comps += cursor.distance_computations();
        }
        per_n.push(comps as f64 / (8.0 * n as f64));
    }
    assert!(
        per_n[0] < 1.0,
        "the radius is not selective: {:.3}",
        per_n[0]
    );
    // fraction of the tree touched should not grow with n
    assert!(
        per_n[1] <= per_n[0] * 1.3,
        "probe fraction grew: n=2000 -> {:.3}, n=8000 -> {:.3}",
        per_n[0],
        per_n[1]
    );
}

#[test]
fn query_with_c_trades_time_for_quality() {
    // Larger c ⇒ smaller candidate budget ⇒ fewer verifications (Fig. 10's
    // time axis); smaller c ⇒ better expected ratio.
    let data = clustered(3000, 32, 500);
    let queries = clustered(15, 32, 501);
    let index = PmLsh::build(data, PmLshParams::default());

    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    let mut verified_tight = 0usize;
    let mut verified_loose = 0usize;
    for q in queries.iter() {
        verified_tight += index
            .query_into(q, 10, 1.2, &mut ctx, &mut out)
            .candidates_verified;
        verified_loose += index
            .query_into(q, 10, 2.0, &mut ctx, &mut out)
            .candidates_verified;
    }
    assert!(
        verified_loose < verified_tight,
        "loose c verified {verified_loose} >= tight {verified_tight}"
    );
}

#[test]
fn bc_query_statistical_contract() {
    // (r, c)-BC: when it answers, the point is within c·r with at least
    // constant probability (Lemma 5). Count violations over many queries.
    let data = clustered(2000, 16, 600);
    let queries = clustered(40, 16, 601);
    let params = PmLshParams::default();
    let c = params.c;
    let index = PmLsh::build(data, params);

    let mut ctx = QueryContext::new();
    let mut answered = 0usize;
    let mut violations = 0usize;
    for q in queries.iter() {
        let r_star = exact_knn(index.data(), q, 1)[0].dist as f64;
        let r = r_star * 1.1; // ball is non-empty
        if let (Some(hit), _) = index.query_bc(q, r, &mut ctx) {
            answered += 1;
            if hit.dist as f64 > c * r + 1e-6 {
                violations += 1;
            }
        }
    }
    assert!(
        answered >= 20,
        "BC query answered only {answered}/40 non-empty balls"
    );
    // E1 ∧ E2 holds w.p. >= 1/2 - 1/e; in practice violations are rare.
    assert!(
        violations * 5 <= answered,
        "{violations}/{answered} violations"
    );
}

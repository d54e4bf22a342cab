//! Query hot-path bench: before/after the allocation-free, SIMD,
//! early-abandoning verification refactor.
//!
//! Two workloads bracket the hot path's regimes: Audio (d = 192,
//! traversal-heavy) and Trevi (d = 4096, where candidate verification in
//! the original space dominates — the `βn` term of Theorem 2). For each,
//! three configurations answer the identical query stream:
//!
//! * `reference` — the pre-refactor path kept verbatim in
//!   `pm_lsh_core::reference` (fresh allocations per query, full
//!   distance + sqrt for every candidate);
//! * `fresh-context` — the refactored path through `PmLsh::query`
//!   (early-abandoning squared-distance verification, but a new
//!   `QueryContext` per call);
//! * `reused-context` — the refactored path through
//!   `PmLsh::query_into` with one long-lived context (the engine worker
//!   configuration: zero steady-state allocation of scratch).
//!
//! Every configuration's `neighbors` **and** `QueryStats` are asserted
//! bit-identical to the reference before any number is reported — the
//! refactor must buy speed, never answers.
//!
//! A second table per dataset times the two candidate sources of the
//! PM-tree cursor alone: the index's tree, marked for sweeping its point
//! column, against a standalone clone that runs the textbook range
//! traversal. Each drains every query's first round, the radius
//! `t·select_rmin(k)`: at the index's pinned paper β, then for
//! c ∈ {1.2, 1.5, 2, 3} with β re-derived by Eq. 10 as
//! `PmLsh::query_into` re-derives it for its `c` (an index built at that c starts
//! from that radius). A smaller β is a more selective radius, where the
//! traversal's pruning pays most. The two sources' yields are asserted
//! equal before either is timed. The tables on stdout are the whole
//! output; the served-path trajectory lives in `BENCHMARK.json`.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_QUERIES`,
//! `PMLSH_FORCE_SCALAR=1` (pin the scalar kernels).

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams, QueryContext, QueryResult};
use pm_lsh_data::PaperDataset;
use pm_lsh_metric::{simd, Dataset, PointId};
use pm_lsh_pmtree::{CursorScratch, PmTree};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 3;
/// The approximation ratios the candidate-source table sweeps.
const CS: [f64; 4] = [1.2, 1.5, 2.0, 3.0];

fn main() {
    let scale = scale_from_env();
    println!(
        "query hot path — scale {scale:?}, k = {K}, simd = {}\n",
        simd::active_level()
    );

    for ds in [PaperDataset::Audio, PaperDataset::Trevi] {
        run_dataset(ds, scale);
    }
}

fn run_dataset(ds: PaperDataset, scale: pm_lsh_data::Scale) {
    let generator = ds.generator(scale);
    let data = Arc::new(generator.dataset());
    let queries = generator.queries(queries_from_env());
    println!(
        "{} — n = {}, d = {}, {} queries",
        ds.name(),
        data.len(),
        data.dim(),
        queries.len()
    );

    let index = PmLsh::build(Arc::clone(&data), PmLshParams::paper_defaults());

    // --- reference (pre-refactor) -----------------------------------------
    let mut reference: Vec<QueryResult> = Vec::new();
    let mut ref_best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let r: Vec<QueryResult> = queries
            .iter()
            .map(|q| index.query_reference(q, K))
            .collect();
        ref_best_s = ref_best_s.min(start.elapsed().as_secs_f64());
        reference = r;
    }

    // --- refactored, fresh context per query ------------------------------
    let mut fresh_best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let r: Vec<QueryResult> = queries.iter().map(|q| index.query(q, K)).collect();
        fresh_best_s = fresh_best_s.min(start.elapsed().as_secs_f64());
        assert_parity(&r, &reference, "fresh-context");
    }

    // --- refactored, one reused context (engine-worker configuration) -----
    let mut reused_best_s = f64::INFINITY;
    let mut ctx = QueryContext::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        let r: Vec<QueryResult> = queries
            .iter()
            .map(|q| {
                let mut neighbors = Vec::new();
                let stats = index.query_into(q, K, index.params().c, &mut ctx, &mut neighbors);
                QueryResult { neighbors, stats }
            })
            .collect();
        reused_best_s = reused_best_s.min(start.elapsed().as_secs_f64());
        assert_parity(&r, &reference, "reused-context");
    }

    let nq = queries.len() as f64;
    let total_candidates: usize = reference.iter().map(|r| r.stats.candidates_verified).sum();
    // Per-candidate verification cost: whole-query time over verified
    // candidates. The refactor attacks exactly this number (early
    // abandonment + no allocation between candidates).
    let ns_per_cand = |secs: f64| secs * 1e9 / total_candidates as f64;
    let (ref_qps, fresh_qps, reused_qps) = (nq / ref_best_s, nq / fresh_best_s, nq / reused_best_s);

    let mut table = Table::new(&[
        "configuration",
        "queries/s",
        "speedup",
        "ns/candidate",
        "identical",
    ]);
    table.row(vec![
        "reference (pre-refactor)".into(),
        f(ref_qps, 0),
        "1.00x".into(),
        f(ns_per_cand(ref_best_s), 0),
        "-".into(),
    ]);
    table.row(vec![
        "fresh-context".into(),
        f(fresh_qps, 0),
        format!("{:.2}x", fresh_qps / ref_qps),
        f(ns_per_cand(fresh_best_s), 0),
        "yes".into(),
    ]);
    table.row(vec![
        "reused-context".into(),
        f(reused_qps, 0),
        format!("{:.2}x", reused_qps / ref_qps),
        f(ns_per_cand(reused_best_s), 0),
        "yes".into(),
    ]);
    print!("{}", table.render());
    println!(
        "mean candidates verified per query: {:.1}\n",
        total_candidates as f64 / nq
    );
    compare_sources(&index, &data, &queries);
}

/// Times the sweep against the traversal at each first-round radius; see
/// the module docs.
fn compare_sources(index: &PmLsh, data: &Arc<Dataset>, queries: &Dataset) {
    let sweeping = index.tree();
    let mut traversing = sweeping.clone();
    traversing.set_leaf_sweep(false);
    let projected: Vec<Vec<f32>> = queries.iter().map(|q| index.project(q)).collect();
    let nq = projected.len() as f64;
    // (c, β, first-round radius t·r_min): the index's own pinned operating
    // point, then an index built at each c with β derived by Eq. 10.
    let mut points = vec![(
        format!("{} pinned", index.params().c),
        index.derived().beta,
        index.derived().t * index.select_rmin(K),
    )];
    for c in CS {
        let params = PmLshParams {
            c,
            beta_override: None,
            ..*index.params()
        };
        let at_c = PmLsh::build(Arc::clone(data), params);
        let radius = at_c.derived().t * at_c.select_rmin(K);
        points.push((f(c, 1), at_c.derived().beta, radius));
    }
    let mut table = Table::new(&[
        "c",
        "beta",
        "yields/query",
        "traversal dists/query",
        "traversal us",
        "sweep us",
        "sweep/traversal",
    ]);
    for (c, beta, radius) in points {
        let radius = radius as f32;
        let (mut yields, mut paid) = (0, 0);
        for qp in &projected {
            let (hits, dists) = drain(&traversing, qp, radius);
            let (swept, n) = drain(sweeping, qp, radius);
            assert_eq!(hits, swept, "c = {c}: the sweep yielded differently");
            assert_eq!(n, sweeping.len() as u64, "c = {c}: one distance per point");
            yields += hits.len();
            paid += dists;
        }
        let traversal_us = time_drains(&traversing, &projected, radius);
        let sweep_us = time_drains(sweeping, &projected, radius);
        table.row(vec![
            c,
            f(beta, 4),
            f(yields as f64 / nq, 0),
            f(paid as f64 / nq, 0),
            f(traversal_us, 0),
            f(sweep_us, 0),
            format!("{:.2}", sweep_us / traversal_us),
        ]);
    }
    println!(
        "candidate sources at the first-round radius (n = {}, k = {K})",
        sweeping.len()
    );
    print!("{}", table.render());
    println!();
}

/// Every yield of `tree`'s cursor within `radius`, and what it paid.
fn drain(tree: &PmTree, qp: &[f32], radius: f32) -> (Vec<(PointId, f32)>, u64) {
    let mut cursor = tree.cursor(qp);
    let mut hits = Vec::new();
    while let Some(hit) = cursor.next_within(radius) {
        hits.push(hit);
    }
    (hits, cursor.distance_computations())
}

/// Best-of-`REPEATS` µs per query to drain every query's cursor within
/// `radius`, over one recycled scratch (as the index runs it).
fn time_drains(tree: &PmTree, projected: &[Vec<f32>], radius: f32) -> f64 {
    let mut scratch = CursorScratch::new();
    let mut best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for qp in projected {
            let mut cursor = tree.cursor_with_scratch(qp, scratch);
            while let Some(hit) = cursor.next_within(radius) {
                black_box(hit);
            }
            scratch = cursor.recycle();
        }
        best_s = best_s.min(start.elapsed().as_secs_f64());
    }
    best_s * 1e6 / projected.len() as f64
}

fn assert_parity(got: &[QueryResult], reference: &[QueryResult], label: &str) {
    for (qi, (g, r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(
            g.neighbors, r.neighbors,
            "{label}: neighbors diverged from reference at query {qi}"
        );
        assert_eq!(
            g.stats, r.stats,
            "{label}: stats diverged from reference at query {qi}"
        );
    }
}

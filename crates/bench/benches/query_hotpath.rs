//! Query hot-path bench: the served path with a fresh context per query
//! against the same path over one reused context.
//!
//! Two workloads bracket the hot path's regimes: Audio (d = 192,
//! traversal-heavy) and Trevi (d = 4096, where candidate verification in
//! the original space dominates — the `βn` term of Theorem 2). For each,
//! two configurations answer the identical query stream:
//!
//! * `fresh-context` — `PmLsh::query`, a new `QueryContext` and result
//!   vector per call (the 1.00× row);
//! * `reused-context` — `PmLsh::query_into` with one long-lived context
//!   (the engine worker configuration: zero steady-state allocation of
//!   scratch).
//!
//! Each configuration answers the stream in `PASSES` timed passes, the
//! two interleaved in ABBA order so that load drifting on a shared box
//! lands on both alike, and the table prints each one's median and
//! quartiles over its passes; the speedup column is the median (and
//! quartiles) of the per-pass ratios. The reused context's `neighbors`
//! **and** `QueryStats` are asserted bit-identical to the fresh
//! context's on every pass.
//! That the answers are Algorithm 2's is `tests/hotpath_parity.rs`'s
//! job, against a linear scan.
//!
//! A second table per dataset times the two candidate sources of the
//! PM-tree cursor alone: the index's column, which sweeps, against a tree
//! bulk-loaded over the same projected rows (`PmTree::build`, from the RNG
//! state the build's projector leaves), which runs the textbook range
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
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::{simd, Dataset, PointId};
use pm_lsh_pmtree::{CursorScratch, PmTree};
use pm_lsh_stats::{Ecdf, Rng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
/// Timed passes per configuration in the context comparison.
const PASSES: usize = 7;
/// Best-of passes per candidate source in the candidate-source table.
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

    let fresh = || -> Vec<QueryResult> { queries.iter().map(|q| index.query(q, K)).collect() };
    let mut ctx = QueryContext::new();
    let mut reused = || -> Vec<QueryResult> {
        queries
            .iter()
            .map(|q| {
                let mut neighbors = Vec::new();
                let stats = index.query_into(q, K, index.params().c, &mut ctx, &mut neighbors);
                QueryResult { neighbors, stats }
            })
            .collect()
    };
    let want = fresh();
    let (mut fresh_s, mut reused_s) = (Vec::new(), Vec::new());
    for pass in 0..PASSES {
        // ABBA: fresh first on even passes, reused first on odd ones.
        for reused_turn in [pass % 2 == 1, pass % 2 == 0] {
            let start = Instant::now();
            if reused_turn {
                let got = reused();
                reused_s.push(start.elapsed().as_secs_f64());
                assert_parity(&got, &want);
            } else {
                black_box(fresh());
                fresh_s.push(start.elapsed().as_secs_f64());
            }
        }
    }

    let nq = queries.len() as f64;
    let total_candidates: usize = want.iter().map(|r| r.stats.candidates_verified).sum();
    let speedups: Vec<f64> = fresh_s.iter().zip(&reused_s).map(|(f, r)| f / r).collect();
    let mut table = Table::new(&[
        "configuration",
        "queries/s",
        "q/s q1-q3",
        "speedup",
        "speedup q1-q3",
        "ns/candidate",
        "identical",
    ]);
    for (name, secs, speedup, identical) in [
        ("fresh-context", &fresh_s, None, "-"),
        ("reused-context", &reused_s, Some(&speedups), "yes"),
    ] {
        let [q1, med, q3] = quartiles(secs);
        let (speedup, speedup_iqr) = match speedup {
            Some(ratios) => {
                let [lo, mid, hi] = quartiles(ratios);
                (format!("{mid:.2}x"), format!("{lo:.2}-{hi:.2}x"))
            }
            None => ("1.00x".into(), "-".into()),
        };
        table.row(vec![
            name.into(),
            f(nq / med, 0),
            // The slower quartile of pass times first, as queries/s.
            format!("{}-{}", f(nq / q3, 0), f(nq / q1, 0)),
            speedup,
            speedup_iqr,
            // Per-candidate cost: whole-query time over verified candidates.
            f(med * 1e9 / total_candidates as f64, 0),
            identical.into(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "{PASSES} passes each; mean candidates verified per query: {:.1}\n",
        total_candidates as f64 / nq
    );
    compare_sources(&index, &data, &queries);
}

/// Times the sweep against the traversal at each first-round radius; see
/// the module docs.
fn compare_sources(index: &PmLsh, data: &Arc<Dataset>, queries: &Dataset) {
    let sweeping = index.tree();
    let p = index.params();
    let mut rng = Rng::new(p.seed);
    let projector = GaussianProjector::new(data.dim(), p.m as usize, &mut rng);
    let rows = projector.project_all(data.view());
    let traversing = PmTree::build(rows.view(), p.tree, &mut rng);
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

/// The first quartile, median and third quartile of `values`.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let ecdf = Ecdf::new(values.to_vec());
    [0.25, 0.5, 0.75].map(|p| ecdf.quantile(p))
}

fn assert_parity(reused: &[QueryResult], fresh: &[QueryResult]) {
    for (qi, (got, want)) in reused.iter().zip(fresh).enumerate() {
        assert_eq!(
            got.neighbors, want.neighbors,
            "reused-context: neighbors diverged from fresh-context at query {qi}"
        );
        assert_eq!(
            got.stats, want.stats,
            "reused-context: stats diverged from fresh-context at query {qi}"
        );
    }
}

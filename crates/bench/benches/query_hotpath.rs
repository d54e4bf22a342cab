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
//!   `PmLsh::query_with_context` with one long-lived context (the engine
//!   worker configuration: zero steady-state allocation).
//!
//! Every configuration's `neighbors` **and** `QueryStats` are asserted
//! bit-identical to the reference before any number is reported — the
//! refactor must buy speed, never answers. The table on stdout is the
//! whole output; the served-path trajectory lives in `BENCHMARK.json`.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_QUERIES`,
//! `PMLSH_FORCE_SCALAR=1` (pin the scalar kernels).

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams, QueryContext, QueryResult};
use pm_lsh_data::PaperDataset;
use pm_lsh_metric::simd;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 3;

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
            .map(|q| index.query_with_context(q, K, &mut ctx))
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

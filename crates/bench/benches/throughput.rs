//! Engine scaling bench: `ShardedEngine::query_batch` throughput at 1/2/4/8
//! workers against the sequential `PmLsh::query` baseline, on the Audio
//! smoke stand-in. The engine must add concurrency without changing
//! answers, so every configuration's neighbor sets are checked for bit
//! equality against the sequential run before its throughput is reported.
//!
//! Speedup is bounded by the machine: on `available_parallelism() == 1`
//! (a single-core CI box) every configuration necessarily lands near 1×,
//! and the run reports that instead of pretending to scale.

use pm_lsh_bench::{f, Table};
use pm_lsh_core::{PmLsh, PmLshParams, QueryResult};
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_engine::{Engine, EngineConfig, ShardedEngine};
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const N_QUERIES: usize = 200;
const REPEATS: usize = 3;

fn main() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = Arc::new(generator.dataset());
    let queries = generator.queries(N_QUERIES);
    let query_vecs: Vec<&[f32]> = queries.iter().collect();
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "engine throughput — Audio smoke: n = {}, d = {}, {} queries, k = {K}, {cores} core(s)\n",
        data.len(),
        data.dim(),
        queries.len()
    );

    let index = Arc::new(PmLsh::build(
        Arc::clone(&data),
        PmLshParams::paper_defaults(),
    ));

    // Sequential baseline: best of REPEATS full passes.
    let mut sequential: Vec<QueryResult> = Vec::new();
    let mut seq_best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let results: Vec<QueryResult> = query_vecs.iter().map(|q| index.query(q, K)).collect();
        seq_best_s = seq_best_s.min(start.elapsed().as_secs_f64());
        sequential = results;
    }
    let seq_qps = queries.len() as f64 / seq_best_s;

    // p50/p99 are enqueue-to-completion latencies: the whole burst enters
    // the engine at once, so they reflect queue position under the burst
    // (and shrink with worker count), not bare per-query execution time.
    let mut table = Table::new(&[
        "configuration",
        "queries/s",
        "speedup",
        "p50 ms",
        "p99 ms",
        "identical",
    ]);
    table.row(vec![
        "sequential".into(),
        f(seq_qps, 0),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    for workers in [1usize, 2, 4, 8] {
        let engine: ShardedEngine = Engine::new(
            Arc::clone(&index),
            EngineConfig {
                threads: workers,
                ..Default::default()
            },
        )
        .into();
        let mut best_s = f64::INFINITY;
        let mut results: Vec<QueryResult> = Vec::new();
        for _ in 0..REPEATS {
            let start = Instant::now();
            let r = engine.query_batch(&query_vecs, K);
            best_s = best_s.min(start.elapsed().as_secs_f64());
            results = r;
        }
        let identical = results
            .iter()
            .zip(&sequential)
            .all(|(a, b)| a.neighbors == b.neighbors && a.stats == b.stats);
        assert!(
            identical,
            "{workers}-worker batch diverged from the sequential answers"
        );
        let stats = engine.stats();
        let qps = queries.len() as f64 / best_s;
        table.row(vec![
            format!("engine x{workers}"),
            f(qps, 0),
            format!("{:.2}x", qps / seq_qps),
            f(stats.p50_ms, 3),
            f(stats.p99_ms, 3),
            "yes".into(),
        ]);
    }

    print!("{}", table.render());
    if cores < 4 {
        println!(
            "\nnote: only {cores} core(s) available — speedup is pinned near 1x here; \
             on >= 4 cores the 4-worker row exceeds 2x."
        );
    }
}

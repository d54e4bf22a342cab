//! The engine's core contract: concurrency must never change answers.
//! Every configuration is checked bit-for-bit against sequential
//! `PmLsh::query` on the seeded Audio smoke stand-in.

use pm_lsh_core::{PmLsh, PmLshParams, QueryResult, QueryStats};
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_engine::{Engine, EngineConfig, ShardedEngine};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 10;

fn audio_workload(n_queries: usize) -> (Arc<PmLsh>, Vec<Vec<f32>>, Vec<QueryResult>) {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let queries: Vec<Vec<f32>> = generator
        .queries(n_queries)
        .iter()
        .map(|q| q.to_vec())
        .collect();
    let index = Arc::new(PmLsh::build(data, PmLshParams::paper_defaults()));
    let sequential: Vec<QueryResult> = queries.iter().map(|q| index.query(q, K)).collect();
    (index, queries, sequential)
}

#[test]
fn four_worker_batch_is_bit_identical_to_sequential() {
    let (index, queries, sequential) = audio_workload(40);
    let engine: ShardedEngine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .into();
    let batch = engine.query_batch(&queries, K);
    assert_eq!(batch.len(), sequential.len());
    for (qi, (got, want)) in batch.iter().zip(&sequential).enumerate() {
        assert_eq!(
            got.neighbors, want.neighbors,
            "query {qi}: neighbor sets diverged"
        );
        assert_eq!(
            got.stats, want.stats,
            "query {qi}: execution counters diverged"
        );
    }
}

#[test]
fn every_pool_size_agrees_with_every_other() {
    let (index, queries, sequential) = audio_workload(20);
    for threads in [1usize, 2, 3, 8] {
        let engine: ShardedEngine = Engine::new(
            Arc::clone(&index),
            EngineConfig {
                threads,
                ..Default::default()
            },
        )
        .into();
        let batch = engine.query_batch(&queries, K);
        for (got, want) in batch.iter().zip(&sequential) {
            assert_eq!(got.neighbors, want.neighbors, "{threads} workers diverged");
        }
    }
}

#[test]
fn micro_batched_single_queries_match_sequential() {
    let (index, queries, sequential) = audio_workload(16);
    let engine: ShardedEngine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 4,
            batch_size: 4,
            max_wait: Duration::from_micros(500),
        },
    )
    .into();
    // Issue the queries from concurrent caller threads so the batcher has
    // something to coalesce.
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in queries.chunks(4).enumerate() {
            let engine = engine.clone();
            let expected = &sequential[chunk_idx * 4..];
            scope.spawn(move || {
                for (i, q) in chunk.iter().enumerate() {
                    let got = engine.query(q, K);
                    assert_eq!(got.neighbors, expected[i].neighbors);
                    assert_eq!(got.stats, expected[i].stats);
                }
            });
        }
    });
    assert_eq!(engine.stats().queries, queries.len() as u64);
}

#[test]
fn engine_stats_equal_the_summed_query_stats() {
    let (index, queries, sequential) = audio_workload(25);
    let engine: ShardedEngine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .into();
    let batch = engine.query_batch(&queries, K);
    let summed: QueryStats = batch.iter().map(|r| r.stats).sum();
    let expected: QueryStats = sequential.iter().map(|r| r.stats).sum();
    let stats = engine.stats();
    assert_eq!(stats.query_stats, summed);
    assert_eq!(stats.query_stats, expected);
    assert_eq!(stats.queries, queries.len() as u64);
    assert!(stats.qps > 0.0);
    assert!(stats.p50_ms <= stats.p99_ms);
    assert!(stats.mean_ms > 0.0);
}

#[test]
fn results_keep_input_order_under_adversarial_sharding() {
    // More workers than queries, then batch smaller than the worker count:
    // order must survive any sharding.
    let (index, queries, sequential) = audio_workload(5);
    let engine: ShardedEngine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 16,
            ..Default::default()
        },
    )
    .into();
    let batch = engine.query_batch(&queries, K);
    for (got, want) in batch.iter().zip(&sequential) {
        assert_eq!(got.neighbors, want.neighbors);
    }
}

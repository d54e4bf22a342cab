//! Shard-scaling bench: build time and copy-on-write mutation latency of
//! the scatter-gather [`ShardedEngine`] at `S ∈ {1, 2, 4, 8}`.
//!
//! The sharded engine's two structural promises are (a) build
//! parallelism beyond the `s ≈ 5` pivot regions — `S` shard trees build
//! on `S` OS threads — and (b) `O(n/S)` single-point mutations, because
//! copy-on-write publication clones only the owning shard. This bench
//! measures both against the `S = 1` monolith on the paper datasets.
//!
//! Parity comes before performance: for every `S`, the per-shard fan-out
//! budgets must sum to at least the monolithic `⌈β·n⌉ + k` and the
//! scatter-gather answers must recall at least as much as the monolith's
//! against the linear-scan oracle on the measured query stream — the
//! same inequalities `crates/engine/tests/sharded_parity.rs` enforces —
//! before any timing is reported.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_QUERIES`,
//! `PMLSH_FORCE_SCALAR=1`.

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table};
use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_data::{exact_knn_batch, recall, PaperDataset};
use pm_lsh_engine::{Engine, EngineConfig, ShardedEngine};
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 3;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Insert/delete pairs timed per repeat.
const MUTATION_PAIRS: usize = 25;

fn main() {
    let scale = scale_from_env();
    println!("sharded engine scaling — scale {scale:?}, k = {K}, S ∈ {SHARD_COUNTS:?}\n");

    for ds in [PaperDataset::Audio, PaperDataset::Trevi] {
        run_dataset(ds, scale);
    }
}

fn run_dataset(ds: PaperDataset, scale: pm_lsh_data::Scale) {
    let generator = ds.generator(scale);
    let data = generator.dataset();
    let queries = generator.queries(queries_from_env());
    println!(
        "{} — n = {}, d = {}, {} queries",
        ds.name(),
        data.len(),
        data.dim(),
        queries.len()
    );

    let params = PmLshParams::paper_defaults();
    let truth = exact_knn_batch(data.view(), queries.view(), K, 0);
    let avg_recall = |engine: &ShardedEngine| -> f64 {
        queries
            .iter()
            .zip(&truth)
            .map(|(q, t)| recall(&engine.query(q, K).neighbors, t))
            .sum::<f64>()
            / queries.len() as f64
    };

    // The monolithic reference: built once, queried for the recall floor.
    let mono: ShardedEngine =
        Engine::new(PmLsh::build(data.clone(), params), EngineConfig::default()).into();
    let mono_budget = mono.candidate_budget(K);
    let mono_recall = avg_recall(&mono);

    let mut table = Table::new(&[
        "shards",
        "build (s)",
        "insert (µs)",
        "delete (µs)",
        "recall",
    ]);
    for shards in SHARD_COUNTS {
        // --- build: min-of-REPEATS wall clock --------------------------------
        let mut engine: Option<ShardedEngine> = None;
        let mut build_best_s = f64::INFINITY;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let built = ShardedEngine::build(
                &data,
                params,
                BuildOptions::default(),
                shards,
                EngineConfig::default(),
            );
            build_best_s = build_best_s.min(start.elapsed().as_secs_f64());
            engine = Some(built);
        }
        let engine = engine.unwrap();

        // --- parity before performance ---------------------------------------
        assert!(
            engine.candidate_budget(K) >= mono_budget,
            "{} S={shards}: summed fan-out budget {} below monolithic {mono_budget}",
            ds.name(),
            engine.candidate_budget(K)
        );
        let sharded_recall = avg_recall(&engine);
        assert!(
            sharded_recall >= mono_recall - 1e-6,
            "{} S={shards}: recall {sharded_recall:.4} below monolithic {mono_recall:.4}",
            ds.name()
        );

        // --- mutation latency: O(n/S) copy-on-write clones -------------------
        let probe = data.point(0).to_vec();
        let mut insert_best_us = f64::INFINITY;
        let mut delete_best_us = f64::INFINITY;
        for _ in 0..REPEATS {
            let mut inserted = Vec::with_capacity(MUTATION_PAIRS);
            let start = Instant::now();
            for _ in 0..MUTATION_PAIRS {
                inserted.push(engine.insert(&probe).expect("bench insert").id);
            }
            let insert_us = start.elapsed().as_secs_f64() * 1e6 / MUTATION_PAIRS as f64;
            let start = Instant::now();
            for id in inserted {
                engine.delete(id).expect("bench delete");
            }
            let delete_us = start.elapsed().as_secs_f64() * 1e6 / MUTATION_PAIRS as f64;
            insert_best_us = insert_best_us.min(insert_us);
            delete_best_us = delete_best_us.min(delete_us);
        }

        table.row(vec![
            shards.to_string(),
            f(build_best_s, 3),
            f(insert_best_us, 1),
            f(delete_best_us, 1),
            format!("{sharded_recall:.4}"),
        ]);
    }
    print!("{}", table.render());
    println!();
}

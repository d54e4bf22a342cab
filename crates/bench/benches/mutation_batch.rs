//! Batch-mutation bench: amortized [`ShardedEngine::apply`] (one shard)
//! against a lock-step single-op twin issuing the identical ops through
//! [`ShardedEngine::insert`]/[`ShardedEngine::delete`].
//!
//! Every single-op mutation pays a copy-on-write clone of the snapshot.
//! The clone shares the raw rows: an insert copies at most the one
//! 64-row tail chunk it appends to (O(64·d)), and a delete copies no row.
//! The projected column (`n·m` floats, no node since the served index
//! stopped bulk-loading a PM-tree) and its id map are still copied whole,
//! O(n), so `W` ops cost O(W·n). A batch takes the writer lock once,
//! clones once, patches all `W` ops into the clone, and publishes once:
//! O(n) + O(W). This bench measures
//! that amortization at batch widths `W ∈ {4, 16, 64, 256}` over a fixed
//! op budget, on the Audio paper dataset.
//!
//! Parity comes before performance: for every width, an untimed pass
//! runs the exact op schedule through `apply` on one engine and one op
//! at a time on a twin built over the identical data, asserting per-op
//! outcomes, live counts, epoch discipline (one bump per batch vs one
//! per op), and bit-identical k-NN answers at every batch boundary.
//! Only then are fresh engines timed. The wide-batch speedup must clear
//! 5× — the floor the amortization argument promises.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_FORCE_SCALAR=1`.

use pm_lsh_bench::{f, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_data::PaperDataset;
use pm_lsh_engine::{Engine, EngineConfig, MutOp, ShardedEngine};
use pm_lsh_stats::Rng;
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 3;
const WIDTHS: [usize; 4] = [4, 16, 64, 256];
/// Mutations per width: every width replays this many ops, split into
/// `TOTAL_OPS / W` batches, so each row times the same amount of work.
const TOTAL_OPS: usize = 512;
/// Widths at or above this must show the promised ≥5× amortization.
const SPEEDUP_FLOOR_WIDTH: usize = 64;
const SPEEDUP_FLOOR: f64 = 5.0;

/// A fresh one-shard engine over a clone of the immutable base index.
fn engine_over(base: &PmLsh) -> ShardedEngine {
    Engine::new(base.clone(), EngineConfig::default()).into()
}

fn main() {
    let scale = scale_from_env();
    let ds = PaperDataset::Audio;
    let generator = ds.generator(scale);
    let data = generator.dataset();
    let (n, d) = (data.len(), data.dim());
    println!(
        "batched vs single-op mutations — {} at scale {scale:?}, n = {n}, d = {d}, \
         {TOTAL_OPS} ops per width, W ∈ {WIDTHS:?}\n",
        ds.name()
    );

    // One build; timed runs restart from clones of this immutable base.
    let base = PmLsh::build(data, PmLshParams::paper_defaults());

    let mut table = Table::new(&[
        "width",
        "batches",
        "batched (µs/op)",
        "single (µs/op)",
        "speedup",
    ]);
    for width in WIDTHS {
        let batches = plan_schedule(n, d, width);
        assert_parity(&base, &batches, width);

        // --- timing: min-of-REPEATS over fresh engines ----------------------
        let mut batched_best = f64::INFINITY;
        let mut single_best = f64::INFINITY;
        for _ in 0..REPEATS {
            let engine = engine_over(&base);
            let start = Instant::now();
            for batch in &batches {
                let report = engine.apply(batch).expect("bench batch apply");
                assert_eq!(report.failed(), 0, "planned op refused during timing");
            }
            batched_best = batched_best.min(start.elapsed().as_secs_f64() * 1e6);

            let engine = engine_over(&base);
            let start = Instant::now();
            for batch in &batches {
                for op in batch {
                    match op {
                        MutOp::Insert(p) => {
                            engine.insert(p).expect("bench single insert");
                        }
                        MutOp::Delete(id) => {
                            engine.delete(*id).expect("bench single delete");
                        }
                    }
                }
            }
            single_best = single_best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        let batched_us = batched_best / TOTAL_OPS as f64;
        let single_us = single_best / TOTAL_OPS as f64;
        let speedup = single_best / batched_best;
        if width >= SPEEDUP_FLOOR_WIDTH {
            assert!(
                speedup >= SPEEDUP_FLOOR,
                "W={width}: batched speedup {speedup:.2}× below the {SPEEDUP_FLOOR}× floor"
            );
        }

        table.row(vec![
            width.to_string(),
            batches.len().to_string(),
            f(batched_us, 1),
            f(single_us, 1),
            format!("{speedup:.1}x"),
        ]);
    }
    print!("{}", table.render());
}

/// Plans `TOTAL_OPS / width` batches of `width` mixed ops. Deletes are
/// drawn from a live-id model that evolves as the schedule is planned
/// (external ids are assigned sequentially and never reused, so the
/// model predicts every insert's id), which makes every op valid on
/// both the batched and the single-op path — timing never branches
/// into failure handling.
fn plan_schedule(n: usize, d: usize, width: usize) -> Vec<Vec<MutOp>> {
    let mut rng = Rng::new(0xBA7C_0000 + width as u64);
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut next_id = n as u32;
    let mut buf = vec![0.0f32; d];
    let mut batches = Vec::with_capacity(TOTAL_OPS / width);
    for _ in 0..TOTAL_OPS / width {
        let mut batch = Vec::with_capacity(width);
        for _ in 0..width {
            if rng.bernoulli(0.5) || live.len() < n / 2 {
                rng.fill_normal(&mut buf);
                batch.push(MutOp::Insert(buf.clone()));
                live.push(next_id);
                next_id += 1;
            } else {
                let victim = live.swap_remove(rng.below(live.len()));
                batch.push(MutOp::Delete(victim));
            }
        }
        batches.push(batch);
    }
    batches
}

/// The untimed lock-step pass: `apply` on one engine, one op at a time
/// on a twin over identical data. Identical build → identical
/// projections → answers must match bit for bit at every boundary.
fn assert_parity(base: &PmLsh, batches: &[Vec<MutOp>], width: usize) {
    let batched = engine_over(base);
    let single = engine_over(base);
    let mut rng = Rng::new(0xC0FFEE + width as u64);
    let mut probe = vec![0.0f32; base.data().dim()];
    let mut ops_done = 0u64;

    for (round, batch) in batches.iter().enumerate() {
        let report = batched.apply(batch).expect("parity batch apply");
        assert_eq!(report.failed(), 0, "W={width} round {round}: op refused");
        for (i, op) in batch.iter().enumerate() {
            let got = match op {
                MutOp::Insert(p) => single.insert(p).expect("parity single insert"),
                MutOp::Delete(id) => single.delete(*id).expect("parity single delete"),
            };
            assert_eq!(
                report.results[i],
                Ok(got.id),
                "W={width} round {round} op {i}: outcomes diverged"
            );
        }
        ops_done += batch.len() as u64;

        // Epoch discipline: one bump per batch vs one per op.
        assert_eq!(batched.epoch(), round as u64 + 1, "W={width}: batch epochs");
        assert_eq!(single.epoch(), ops_done, "W={width}: single-op epochs");
        assert_eq!(
            report.points,
            single.info().points,
            "W={width}: live counts"
        );

        rng.fill_normal(&mut probe);
        let a = batched.query(&probe, K);
        let b = single.query(&probe, K);
        assert_eq!(
            a.neighbors, b.neighbors,
            "W={width} round {round}: answers diverged"
        );
        assert_eq!(
            a.stats, b.stats,
            "W={width} round {round}: query counters diverged"
        );
    }
}

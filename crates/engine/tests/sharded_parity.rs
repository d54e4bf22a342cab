//! Equivalence harness for the sharded scatter-gather engine: a
//! [`ShardedEngine`] over a round-robin partition must answer at least as
//! well as the monolithic (one-shard) engine it replaces, against a
//! linear-scan oracle, for each of its query entry points — `query`,
//! `query_batch` and `query_bc` — and for the TCP wire, plus the
//! budget-sum inequality the module docs claim, exact-id parity where the
//! budgets make answers deterministic, and a save→load→parity leg for the
//! one-file sharded snapshot. The monolith is a plain [`PmLsh`], asked
//! through its own `query` and `query_bc`.

use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams, QueryContext};
use pm_lsh_data::{exact_knn_batch, recall, PaperDataset, Scale};
use pm_lsh_engine::server::parse_ok_response;
use pm_lsh_engine::{serve, Engine, EngineConfig, ShardedEngine};
use pm_lsh_metric::Dataset;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const K: usize = 10;

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..Default::default()
    }
}

fn smoke(ds: PaperDataset, nq: usize) -> (Dataset, Dataset) {
    let generator = ds.generator(Scale::Smoke);
    (generator.dataset(), generator.queries(nq))
}

fn avg_recall(
    results: &[Vec<pm_lsh_metric::Neighbor>],
    truth: &[Vec<pm_lsh_metric::Neighbor>],
) -> f64 {
    results
        .iter()
        .zip(truth)
        .map(|(found, t)| recall(found, t))
        .sum::<f64>()
        / results.len() as f64
}

/// The §4.4 budget survives partitioning: every fan-out leg spends the
/// *pooled* monolithic budget `B = min(⌈β·n⌉ + k, n)` clamped to its
/// shard's live count, so the per-shard budgets sum to
/// `Σ_s min(B, n_s) ≥ min(B, Σ_s n_s) = B` — at least the monolithic
/// budget — and [`ShardedEngine::candidate_budget`] is exactly that sum.
#[test]
fn per_shard_budgets_sum_to_at_least_the_monolithic_budget() {
    for ds in [PaperDataset::Audio, PaperDataset::Trevi] {
        let (data, _) = smoke(ds, 1);
        let params = PmLshParams::paper_defaults();
        let mono = PmLsh::build(data.clone(), params);
        for shards in [2, 3, 4, 7, 8] {
            let sharded =
                ShardedEngine::build(&data, params, BuildOptions::default(), shards, config(1));
            // k = 1 (tight), a typical k, a k past the clamp, and k ≥ n.
            for k in [1, K, 1000, data.len() + 5] {
                // Same data, no deletions: the pooled budget over the
                // shard set equals the monolithic index's own budget.
                let pooled = mono.candidate_budget(k);
                let summed: usize = sharded
                    .shards()
                    .iter()
                    .map(|shard| pooled.min(shard.index().len()))
                    .sum();
                assert_eq!(
                    summed,
                    sharded.candidate_budget(k),
                    "{ds:?} S={shards} k={k}: candidate_budget is not the per-shard sum"
                );
                assert!(
                    summed >= pooled,
                    "{ds:?} S={shards} k={k}: summed shard budget {summed} fell below \
                     the monolithic {pooled}"
                );
            }
        }
    }
}

/// The headline guarantee: on Audio and Trevi smoke data, partitioned
/// serving never costs recall against the linear-scan oracle — every
/// fan-out leg spends the pooled budget without the shard-local line-4
/// stop, so the merged candidate pool is a superset of the monolith's.
/// Checked for `query` and `query_batch` (which must also agree with each
/// other bit-for-bit: same snapshots, same merge).
#[test]
fn sharded_recall_never_below_monolithic_on_paper_datasets() {
    for ds in [PaperDataset::Audio, PaperDataset::Trevi] {
        let (data, queries) = smoke(ds, 40);
        let truth = exact_knn_batch(data.view(), queries.view(), K, 0);
        let params = PmLshParams::paper_defaults();
        let mono: ShardedEngine = Engine::new(PmLsh::build(data.clone(), params), config(2)).into();
        let mono_results: Vec<_> = queries.iter().map(|q| mono.query(q, K).neighbors).collect();
        let mono_recall = avg_recall(&mono_results, &truth);

        for shards in [1, 2, 4, 8] {
            let sharded =
                ShardedEngine::build(&data, params, BuildOptions::default(), shards, config(2));
            let single: Vec<_> = queries
                .iter()
                .map(|q| sharded.query(q, K).neighbors)
                .collect();
            let query_vecs: Vec<&[f32]> = queries.iter().collect();
            let batch = sharded.query_batch(&query_vecs, K);
            for (qi, (one, many)) in single.iter().zip(&batch).enumerate() {
                assert_eq!(
                    one, &many.neighbors,
                    "{ds:?} S={shards} query {qi}: query and query_batch diverged"
                );
            }
            let sharded_recall = avg_recall(&single, &truth);
            // The 1e-6 slack absorbs the tolerance-tested AVX2 kernel; the
            // comparison is recall-vs-recall, not id-vs-id, because the
            // superset candidate pool can (correctly) surface a better
            // neighbor that displaces a member of the monolithic answer.
            assert!(
                sharded_recall >= mono_recall - 1e-6,
                "{ds:?} S={shards}: sharded recall {sharded_recall:.4} fell below \
                 monolithic {mono_recall:.4}"
            );
        }
    }
}

/// With `k` = the live point count the per-shard budget clamps to `n_s`,
/// every shard verifies every one of its points with the early-abandon
/// bound still infinite, and the merged answer is the *exact* ranking of
/// all points by `(dist, id)` — so monolith and every shard count must
/// agree bit-for-bit, and recall against the oracle is exactly 1.
#[test]
fn exhaustive_k_is_bit_identical_across_shard_counts() {
    let (data, queries) = smoke(PaperDataset::Audio, 8);
    let k = data.len();
    let params = PmLshParams::paper_defaults();
    let truth = exact_knn_batch(data.view(), queries.view(), k, 0);
    let mono: ShardedEngine = Engine::new(PmLsh::build(data.clone(), params), config(2)).into();
    let mono_results: Vec<_> = queries.iter().map(|q| mono.query(q, k).neighbors).collect();
    for (qi, found) in mono_results.iter().enumerate() {
        assert_eq!(found.len(), k);
        assert!(
            (recall(found, &truth[qi]) - 1.0).abs() < 1e-12,
            "query {qi}: exhaustive monolithic query missed oracle points"
        );
    }
    for shards in [2, 3, 4] {
        let sharded =
            ShardedEngine::build(&data, params, BuildOptions::default(), shards, config(2));
        for (qi, q) in queries.iter().enumerate() {
            let merged = sharded.query(q, k).neighbors;
            assert_eq!(
                merged, mono_results[qi],
                "S={shards} query {qi}: exhaustive sharded answer is not bit-identical \
                 to the monolith"
            );
        }
    }
}

/// `query_bc` (Algorithm 1) under sharding: each shard spends its own
/// `⌈β·n_s⌉ + 1` cap and the closest hit wins, so across a query batch
/// the fan-out must succeed at least as often as the monolith (the caps
/// truncate each shard's candidate stream differently, so the comparison
/// is success-rate, not hit-for-hit), and every returned hit must be a
/// real point at its real distance.
#[test]
fn query_bc_success_rate_never_below_monolithic() {
    let (data, queries) = smoke(PaperDataset::Audio, 60);
    let params = PmLshParams::paper_defaults();
    // r = the true NN distance (plus epsilon): a point within r always
    // exists, so Lemma 5 gives every engine a constant success floor.
    let truth = exact_knn_batch(data.view(), queries.view(), 1, 0);
    let radii: Vec<f64> = truth
        .iter()
        .map(|t| f64::from(t[0].dist) * 1.01 + 1e-6)
        .collect();
    let mono = PmLsh::build(data.clone(), params);
    let mut ctx = QueryContext::new();
    let mono_hits = queries
        .iter()
        .zip(&radii)
        .filter(|(q, &r)| mono.query_bc(q, r, &mut ctx).0.is_some())
        .count();
    for shards in [2, 4] {
        let sharded =
            ShardedEngine::build(&data, params, BuildOptions::default(), shards, config(1));
        let mut hits = 0;
        for (qi, (q, &r)) in queries.iter().zip(&radii).enumerate() {
            if let (Some(n), _) = sharded.query_bc(q, r) {
                hits += 1;
                let id = n.id as usize;
                assert!(id < data.len(), "S={shards} query {qi}: ghost id {id}");
                let expect = data
                    .point(id)
                    .iter()
                    .zip(q)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt();
                assert!(
                    (n.dist - expect).abs() <= 1e-3 * expect.max(1.0),
                    "S={shards} query {qi}: reported dist {} but point {id} is {expect} away",
                    n.dist
                );
            }
        }
        assert!(
            hits >= mono_hits,
            "S={shards}: ball-cover hit {hits}/{} queries, monolith hit {mono_hits}",
            queries.len()
        );
    }
}

/// One shard is the degenerate case: a `ShardedEngine` wrapping one
/// snapshot must be bit-for-bit the plain [`PmLsh`] underneath on every
/// entry point — neighbors and every `QueryStats` counter — mutations
/// included.
#[test]
fn single_shard_is_bitwise_the_monolithic_engine() {
    let (data, queries) = smoke(PaperDataset::Trevi, 12);
    let index = Arc::new(PmLsh::build(data, PmLshParams::paper_defaults()));
    let sharded: ShardedEngine = Engine::new(Arc::clone(&index), config(2)).into();
    assert_eq!(sharded.shard_count(), 1);
    assert_eq!(sharded.len(), index.len());
    assert_eq!(sharded.candidate_budget(K), index.candidate_budget(K));

    let query_vecs: Vec<&[f32]> = queries.iter().collect();
    let sharded_batch = sharded.query_batch(&query_vecs, K);
    let mut ctx = QueryContext::new();
    for (qi, q) in queries.iter().enumerate() {
        let mono = index.query(q, K);
        let one = sharded.query(q, K);
        assert_eq!(
            (one.neighbors, one.stats),
            (mono.neighbors.clone(), mono.stats)
        );
        assert_eq!(sharded_batch[qi].neighbors, mono.neighbors);
        assert_eq!(sharded_batch[qi].stats, mono.stats);
        assert_eq!(sharded.query_bc(q, 1.0), index.query_bc(q, 1.0, &mut ctx));
    }

    // Mutations: the engine copies-on-write from the same snapshot a
    // plain clone starts from, so lock-step mutations report identical
    // ids and counts, one epoch per publication.
    let mut mono = PmLsh::clone(&index);
    let point = vec![0.125f32; sharded.dim()];
    let b = sharded.insert(&point).expect("sharded insert");
    assert_eq!(
        (mono.insert(&point), 1, mono.len()),
        (b.id, b.epoch, b.points)
    );
    let b = sharded.delete(b.id).expect("sharded delete");
    assert!(mono.delete(b.id));
    assert_eq!((2, mono.len()), (b.epoch, b.points));
    assert_eq!(sharded.epoch(), 2);
    for q in queries.iter() {
        let (one, mono) = (sharded.query(q, K), mono.query(q, K));
        assert_eq!((one.neighbors, one.stats), (mono.neighbors, mono.stats));
    }

    let info = sharded.info();
    assert_eq!(info.shards, 1);
    assert_eq!(info.points, mono.len());
}

/// The wire entry point: a served `ShardedEngine` answers `QUERY`
/// bit-identically to the in-process scatter-gather, and `INDEXINFO`
/// reports the shard count.
#[test]
fn wire_queries_match_in_process_sharded_answers() {
    let (data, queries) = smoke(PaperDataset::Audio, 8);
    let points = data.len();
    let sharded = ShardedEngine::build(
        &data,
        PmLshParams::paper_defaults(),
        BuildOptions::default(),
        4,
        config(2),
    );
    let handle = serve(sharded.clone(), ("127.0.0.1", 0)).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    let info = roundtrip("INDEXINFO");
    assert!(
        info.contains(&format!("points={points}")) && info.ends_with("shards=4"),
        "INDEXINFO must report the shard count: {info}"
    );

    for (qi, q) in queries.iter().enumerate() {
        let mut line = format!("QUERY {K}");
        for v in q {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        let served = parse_ok_response(&roundtrip(&line)).expect("OK reply");
        let direct: Vec<(u32, f32)> = sharded
            .query(q, K)
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        assert_eq!(served, direct, "query {qi}: wire answer diverged");
    }

    assert_eq!(roundtrip("QUIT"), "BYE");
    handle.shutdown();
}

/// Save→load→parity for the sharded snapshot: `save` at `S > 1` writes
/// one `.pmlsh` file and no per-shard siblings, `load` restores the whole
/// set, and the restored engine answers bit-identically — shard count,
/// global ids and distances all preserved.
#[test]
fn sharded_snapshot_roundtrip_preserves_answers() {
    let (data, queries) = smoke(PaperDataset::Trevi, 12);
    let sharded = ShardedEngine::build(
        &data,
        PmLshParams::paper_defaults(),
        BuildOptions::default(),
        3,
        config(1),
    );
    let before: Vec<_> = queries
        .iter()
        .map(|q| sharded.query(q, K).neighbors)
        .collect();

    let path = std::env::temp_dir().join(format!(
        "pmlsh-sharded-roundtrip-{}.pmlsh",
        std::process::id()
    ));
    let report = sharded.save(&path).expect("sharded save");
    assert_eq!(report.points as usize, sharded.len());
    assert!(pm_lsh_persist::is_pmlsh_file(&path));
    let mut sibling = path.as_os_str().to_os_string();
    sibling.push(".s0");
    assert!(
        !std::path::Path::new(&sibling).exists(),
        "an S=3 save must write one file, not one per shard"
    );

    let restored = ShardedEngine::load(&path, config(1)).expect("sharded load");
    assert_eq!(restored.shard_count(), 3);
    assert_eq!(restored.len(), sharded.len());
    assert_eq!(restored.candidate_budget(K), sharded.candidate_budget(K));
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            restored.query(q, K).neighbors,
            before[qi],
            "query {qi}: restored sharded engine diverged from the saved one"
        );
    }

    let _ = std::fs::remove_file(&path);
}

/// A re-save that fails leaves the previous shard set whole: the load
/// after it holds the old set's shards or the new set's, never a mix.
/// The directory blocks the temp file a per-shard save of shard 1 writes.
#[test]
fn failed_resave_leaves_the_previous_set_whole() {
    let (data, _) = smoke(PaperDataset::Audio, 0);
    let params = PmLshParams::paper_defaults();
    let set = |n: usize| {
        let part = Dataset::from_flat(data.as_flat()[..n * data.dim()].to_vec(), data.dim());
        ShardedEngine::build(&part, params, BuildOptions::default(), 2, config(1))
    };
    let path =
        std::env::temp_dir().join(format!("pmlsh-failed-resave-{}.pmlsh", std::process::id()));
    set(400).save(&path).expect("save set A");
    let mut blocker = path.as_os_str().to_os_string();
    blocker.push(format!(".s1.tmp.{}", std::process::id()));
    std::fs::create_dir_all(&blocker).unwrap();

    let resaved = set(600).save(&path);
    let loaded = ShardedEngine::load(&path, config(1)).expect("load after re-save");
    let sizes: Vec<usize> = loaded.shards().iter().map(|s| s.index().len()).collect();
    let want = if resaved.is_ok() {
        [300, 300]
    } else {
        [200, 200]
    };
    assert_eq!(
        sizes,
        want,
        "re-save returned {:?}",
        resaved.map(|r| r.points)
    );

    std::fs::remove_dir(&blocker).unwrap();
    let _ = std::fs::remove_file(&path);
}

//! Save→load→query parity: a snapshot round-trip must be invisible to
//! every query entry point — same neighbors, same distances, same
//! [`QueryStats`] counters, bit for bit.

use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_metric::Dataset;
use pm_lsh_persist::{
    deserialize, deserialize_shards, is_pmlsh_file, load, load_shards, save, save_shards,
    serialize, serialize_shards,
};
use pm_lsh_stats::Rng;

fn audio_smoke() -> (PmLsh, Dataset) {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let index = PmLsh::build(generator.dataset(), PmLshParams::paper_defaults());
    (index, generator.queries(40))
}

/// An index over `n` Gaussian points in `R^8`.
fn blob_index(n: usize, seed: u64) -> PmLsh {
    let mut rng = Rng::new(seed);
    let mut data = Dataset::with_capacity(8, n);
    let mut buf = [0.0f32; 8];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        data.push(&buf);
    }
    PmLsh::build(data, PmLshParams::default())
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pmlsh-roundtrip-{tag}-{}.pmlsh",
        std::process::id()
    ))
}

fn assert_query_parity(original: &PmLsh, restored: &PmLsh, queries: &pm_lsh_metric::Dataset) {
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 10, 50] {
            let want = original.query(q, k);
            let got = restored.query(q, k);
            assert_eq!(got.neighbors, want.neighbors, "q{qi} k{k} neighbors");
            assert_eq!(got.stats, want.stats, "q{qi} k{k} stats");
        }
    }

    let base = original.select_rmin(10);
    assert_eq!(base.to_bits(), restored.select_rmin(10).to_bits(), "r_min");
    let (mut want_ctx, mut got_ctx) = (QueryContext::new(), QueryContext::new());
    let mut hits = 0usize;
    for (qi, q) in queries.iter().enumerate().take(20) {
        for scale in [0.25f64, 0.5, 1.0, 2.0] {
            let r = base * scale;
            let want = original.query_bc(q, r, &mut want_ctx);
            let got = restored.query_bc(q, r, &mut got_ctx);
            assert_eq!(got, want, "q{qi} r{r} ball cover");
            hits += want.is_some() as usize;
        }
    }
    assert!(hits > 0, "ball-cover parity never exercised a hit");

    let (mut want, mut got) = (Vec::new(), Vec::new());
    let c = original.params().c;
    for (qi, q) in queries.iter().enumerate() {
        let w = original.query_into(q, 10, c, &mut want_ctx, &mut want);
        let g = restored.query_into(q, 10, c, &mut got_ctx, &mut got);
        assert_eq!(got, want, "reused-context q{qi} neighbors");
        assert_eq!(g, w, "reused-context q{qi} stats");
    }
}

#[test]
fn in_memory_round_trip_is_bit_identical() {
    let (index, queries) = audio_smoke();
    let restored = deserialize(&serialize(&index)).expect("round trip");
    assert_eq!(restored.len(), index.len());
    restored
        .tree()
        .verify_invariants()
        .expect("tree invariants");
    assert_query_parity(&index, &restored, &queries);
}

#[test]
fn serialization_is_deterministic_and_stable() {
    let (index, _) = audio_smoke();
    let first = serialize(&index);
    assert_eq!(first, serialize(&index), "same index, same bytes");
    let reloaded = deserialize(&first).expect("round trip");
    assert_eq!(
        first,
        serialize(&reloaded),
        "a loaded snapshot re-saves byte-identically"
    );
}

#[test]
fn file_round_trip_via_save_and_load() {
    let (index, queries) = audio_smoke();
    let path = temp_path("file");
    let report = save(&index, &path).expect("save");
    assert_eq!(report.points, index.len() as u64);
    assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
    assert!(is_pmlsh_file(&path));

    let restored = load(&path).expect("load");
    assert_query_parity(&index, &restored, &queries);
    std::fs::remove_file(&path).unwrap();
    assert!(!is_pmlsh_file(&path), "missing file never sniffs as .pmlsh");
}

#[test]
fn round_trip_preserves_mutation_ability() {
    // A restored index is a first-class citizen: it accepts further
    // inserts/deletes and keeps answering correctly.
    let (index, queries) = audio_smoke();
    let mut restored = deserialize(&serialize(&index)).expect("round trip");
    let probe = queries.point(0).to_vec();
    let id = restored.insert(&probe);
    let hit = restored.query(&probe, 1).neighbors[0];
    assert_eq!(hit.id, id, "fresh insert is its own nearest neighbor");
    assert!(restored.delete(id));
    restored
        .tree()
        .verify_invariants()
        .expect("tree invariants");
}

#[test]
fn sharded_set_round_trips_in_order() {
    let shards: Vec<PmLsh> = (0..3).map(|k| blob_index(120, 500 + k)).collect();
    let path = temp_path("sharded");
    let report = save_shards(&shards, &path).expect("save");
    assert_eq!(report.points, 360);
    assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
    assert!(is_pmlsh_file(&path));

    let loaded = load_shards(&path).expect("load");
    assert_eq!(loaded.len(), 3);
    for (k, (orig, back)) in shards.iter().zip(&loaded).enumerate() {
        let q = orig.data().point(5);
        let (a, b) = (orig.query(q, 7), back.query(q, 7));
        assert_eq!(a.neighbors, b.neighbors, "shard {k} diverged");
        assert_eq!(a.stats, b.stats, "shard {k} did different work");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn one_shard_set_is_the_single_index_format() {
    let index = blob_index(200, 600);
    let image = serialize(&index);
    assert_eq!(serialize_shards(&[&index]), image);
    let set = deserialize_shards(&image).expect("one-shard set");
    assert_eq!(set.len(), 1);
    assert_eq!(serialize(&set[0]), image);
}

#[test]
fn concurrent_saves_to_one_path_never_collide() {
    // Two saves of one path in flight must not share a temp file: each
    // returns Ok and the file left behind is whole, one index or the other.
    let (a, b) = (blob_index(150, 700), blob_index(220, 701));
    let images = [serialize(&a), serialize(&b)];
    let path = temp_path("concurrent");
    let start = std::sync::Barrier::new(2);
    let save_after_start = |index: &PmLsh| {
        start.wait();
        save(index, &path)
    };
    for round in 0..20 {
        std::thread::scope(|s| {
            let saves = [
                s.spawn(|| save_after_start(&a)),
                s.spawn(|| save_after_start(&b)),
            ];
            for (who, h) in saves.into_iter().enumerate() {
                h.join()
                    .unwrap()
                    .unwrap_or_else(|e| panic!("round {round} save {who}: {e}"));
            }
        });
    }
    let last = serialize(&load(&path).expect("final file loads"));
    assert!(images.contains(&last), "the final file is neither index");
    std::fs::remove_file(&path).unwrap();
}

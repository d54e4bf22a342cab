//! Save→load→query parity: a snapshot round-trip must be invisible to
//! every query entry point — same neighbors, same distances, same
//! [`QueryStats`] counters, bit for bit.

use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_persist::{deserialize, is_pmlsh_file, serialize, Snapshot};

fn audio_smoke() -> (PmLsh, pm_lsh_metric::Dataset) {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let index = PmLsh::build(generator.dataset(), PmLshParams::paper_defaults());
    (index, generator.queries(40))
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
    let mut hits = 0usize;
    for (qi, q) in queries.iter().enumerate().take(20) {
        for scale in [0.25f64, 0.5, 1.0, 2.0] {
            let r = base * scale;
            let want = original.query_bc(q, r);
            let got = restored.query_bc(q, r);
            assert_eq!(got, want, "q{qi} r{r} ball cover");
            hits += want.is_some() as usize;
        }
    }
    assert!(hits > 0, "ball-cover parity never exercised a hit");

    let (mut want_ctx, mut got_ctx) = (QueryContext::new(), QueryContext::new());
    for (qi, q) in queries.iter().enumerate() {
        let w = original.query_with_context(q, 10, &mut want_ctx);
        let g = restored.query_with_context(q, 10, &mut got_ctx);
        assert_eq!(g.neighbors, w.neighbors, "reused-context q{qi} neighbors");
        assert_eq!(g.stats, w.stats, "reused-context q{qi} stats");
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
fn file_round_trip_via_extension_trait() {
    let (index, queries) = audio_smoke();
    let path = std::env::temp_dir().join(format!(
        "pmlsh-roundtrip-{}-{:x}.pmlsh",
        std::process::id(),
        index.len()
    ));
    let report = index.save(&path).expect("save");
    assert_eq!(report.points, index.len() as u64);
    assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
    assert!(is_pmlsh_file(&path));

    let restored = PmLsh::load(&path).expect("load");
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

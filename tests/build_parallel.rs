//! Builds must be reproducible: one loader serves every thread count, so a
//! plain `PmLsh::build` and a `BuildOptions` build on any number of threads
//! are required to be the same index — the same answers and counters on
//! every query and the same snapshot bytes (exercised through the facade on
//! the Audio smoke stand-in).

use pm_lsh::persist::serialize;
use pm_lsh::prelude::*;
use std::sync::Arc;

#[test]
fn one_and_four_thread_builds_answer_identically_on_audio_smoke() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let queries = generator.queries(50);
    let params = PmLshParams::paper_defaults();

    let one = PmLsh::build_with_opts(data.clone(), params, BuildOptions::with_threads(1));
    let four = PmLsh::build_with_opts(data.clone(), params, BuildOptions::with_threads(4));

    assert_eq!(one.len(), data.len());
    assert_eq!(four.len(), data.len());
    for (qi, q) in queries.iter().enumerate() {
        let a = one.query(q, 10);
        let b = four.query(q, 10);
        assert_eq!(
            a.neighbors, b.neighbors,
            "query {qi}: 4-thread build returned different k-NN results"
        );
        assert_eq!(
            a.stats, b.stats,
            "query {qi}: 4-thread build traversed a different tree"
        );
    }
}

#[test]
fn plain_and_threaded_builds_are_bit_identical() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = Arc::new(generator.dataset());
    let queries = generator.queries(30);
    let params = PmLshParams::paper_defaults();

    let plain = PmLsh::build(Arc::clone(&data), params);
    let bytes = serialize(&plain);
    for opts in [
        BuildOptions::with_threads(1),
        BuildOptions::with_threads(4),
        BuildOptions::all_cores(),
    ] {
        let threaded = PmLsh::build_with_opts(Arc::clone(&data), params, opts);
        for (qi, q) in queries.iter().enumerate() {
            let (a, b) = (plain.query(q, 10), threaded.query(q, 10));
            assert_eq!(a.neighbors, b.neighbors, "{opts:?}, query {qi}");
            assert_eq!(a.stats, b.stats, "{opts:?}, query {qi}");
        }
        assert!(
            serialize(&threaded) == bytes,
            "{opts:?}: snapshot bytes differ"
        );
    }
}

//! Result parity of the refactored query hot path against the
//! pre-refactor implementation (`PmLsh::*_reference`), on the Audio smoke
//! dataset.
//!
//! The hot-path PR changed *how* every candidate distance is computed
//! (early-abandoning squared-distance kernels), *where* the working memory
//! lives (reused `QueryContext` instead of per-query allocation) and *who*
//! runs the query (batch chunks and engine workers share contexts). None
//! of that may change a single answer or a single counter: for every entry
//! point, `neighbors` and the full `QueryStats` (candidates verified,
//! projected distance computations, rounds) must be identical to the old
//! code, which is preserved verbatim in `pm_lsh_core::reference`.
//!
//! The reference keeps its own Algorithm 2 loop, verification and top-k,
//! but pulls candidates from the same `PmTree::cursor` of `index.tree()` as
//! the hot path — the leaf sweep, since the index marks its tree for
//! sweeping — so candidate-order parity (ascending projected distance,
//! ties by id) and the projected distance count (the live count `n`) hold
//! by construction; what these tests compare is everything after the
//! cursor. That the sweep yields what the range traversal yields is the
//! cursor's own differential test (`pm-lsh-pmtree`, `cursor.rs`).

use pm_lsh::prelude::*;

fn audio_smoke() -> (PmLsh, Dataset) {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let queries = generator.queries(40);
    let index = PmLsh::build(data, PmLshParams::paper_defaults());
    (index, queries)
}

#[test]
fn query_matches_reference_fresh_and_reused() {
    let (index, queries) = audio_smoke();
    let mut ctx = QueryContext::new();
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 10, 50] {
            let reference = index.query_reference(q, k);
            let fresh = index.query(q, k);
            assert_eq!(fresh.neighbors, reference.neighbors, "q{qi} k{k} fresh");
            assert_eq!(fresh.stats, reference.stats, "q{qi} k{k} fresh stats");
            let reused = index.query_with_context(q, k, &mut ctx);
            assert_eq!(reused.neighbors, reference.neighbors, "q{qi} k{k} reused");
            assert_eq!(reused.stats, reference.stats, "q{qi} k{k} reused stats");
        }
    }
}

#[test]
fn query_with_c_matches_reference() {
    let (index, queries) = audio_smoke();
    for (qi, q) in queries.iter().enumerate().take(15) {
        for c in [1.2f64, 2.0, 3.0] {
            let reference = index.query_with_c_reference(q, 10, c);
            let got = index.query_with_c(q, 10, c);
            assert_eq!(got.neighbors, reference.neighbors, "q{qi} c{c}");
            assert_eq!(got.stats, reference.stats, "q{qi} c{c} stats");
        }
    }
}

#[test]
fn query_bc_matches_reference() {
    let (index, queries) = audio_smoke();
    let base = index.select_rmin(10);
    let mut ctx = QueryContext::new();
    let mut hits = 0usize;
    for (qi, q) in queries.iter().enumerate().take(20) {
        for scale in [0.25f64, 0.5, 1.0, 2.0] {
            let r = base * scale;
            let reference = index.query_bc_reference(q, r);
            assert_eq!(index.query_bc(q, r), reference, "q{qi} r{r}");
            assert_eq!(
                index.query_bc_with_context(q, r, &mut ctx),
                reference,
                "q{qi} r{r} reused"
            );
            hits += reference.is_some() as usize;
        }
    }
    assert!(
        hits > 0,
        "ball-cover parity needs at least one non-None case"
    );
}

#[test]
fn query_batch_matches_reference() {
    // The whole query set through one reused context, as an engine worker
    // runs a batch shard.
    let (index, queries) = audio_smoke();
    let mut ctx = QueryContext::new();
    for (qi, q) in queries.iter().enumerate() {
        let got = index.query_with_context(q, 10, &mut ctx);
        let reference = index.query_reference(q, 10);
        assert_eq!(got.neighbors, reference.neighbors, "q{qi}");
        assert_eq!(got.stats, reference.stats, "q{qi} stats");
    }
}

#[test]
fn one_context_survives_mixed_workloads() {
    // A single context serving interleaved k values, c values and
    // ball-cover queries (the engine-worker lifecycle) never contaminates
    // a later answer with an earlier query's state.
    let (index, queries) = audio_smoke();
    let mut ctx = QueryContext::new();
    let r = index.select_rmin(5);
    for (qi, q) in queries.iter().enumerate().take(12) {
        let k = 1 + (qi % 20);
        let reference = index.query_reference(q, k);
        let got = index.query_with_context(q, k, &mut ctx);
        assert_eq!(got.neighbors, reference.neighbors, "q{qi} k{k}");
        assert_eq!(got.stats, reference.stats, "q{qi} k{k} stats");
        assert_eq!(
            index.query_bc_with_context(q, r, &mut ctx),
            index.query_bc_reference(q, r),
            "q{qi} bc"
        );
    }
}

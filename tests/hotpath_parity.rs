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
//! and reads the same cursor of `index.tree()` as a stream: it verifies
//! candidates one by one in yield order (ascending projected distance,
//! ties by id) until the budget runs out. The hot path reads each round
//! as a set — the budget cut keeps the first `budget − verified` by that
//! order — and verifies it in ascending row id. Nothing makes the two
//! agree by construction; these tests are what shows that set-order
//! verification reproduces yield-order verification, including where the
//! cut falls inside a group of bit-equal projected distances. That a set
//! is what the stream would have yielded, and that the sweep yields what
//! the range traversal yields, are the cursor's own differential tests
//! (`pm-lsh-pmtree`, `cursor.rs`). The fan-out leg, which has no
//! reference, is pinned against a linear scan instead.

use pm_lsh::metric::euclidean;
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

#[test]
fn budget_cuts_inside_tie_groups_match_reference() {
    // Every row three times over: projected distances come in groups of
    // three bit-equal ones, so a budget cut can fall inside a group, where
    // only the id tie-break decides which copies are verified.
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let base = generator.dataset();
    let mut data = Dataset::with_capacity(base.dim(), 3 * base.len());
    for _ in 0..3 {
        base.iter().for_each(|row| data.push(row));
    }
    let index = PmLsh::build(data, PmLshParams::paper_defaults());
    let queries = generator.queries(20);
    let base_r = index.select_rmin(10);
    let mut straddles = 0;
    for (qi, q) in queries.iter().enumerate() {
        let mut cursor = index.tree().cursor(&index.project(q));
        let yields: Vec<_> = std::iter::from_fn(|| cursor.next_within(f32::INFINITY)).collect();
        for k in [1usize, 10, 50] {
            let reference = index.query_reference(q, k);
            let got = index.query(q, k);
            assert_eq!(got.neighbors, reference.neighbors, "q{qi} k{k}");
            assert_eq!(got.stats, reference.stats, "q{qi} k{k} stats");
            let reference = index.query_with_c_reference(q, k, 2.0);
            let got_c = index.query_with_c(q, k, 2.0);
            assert_eq!(got_c.neighbors, reference.neighbors, "q{qi} k{k} c2");
            assert_eq!(got_c.stats, reference.stats, "q{qi} k{k} c2 stats");
            // Verified the first v yields, and the (v+1)-th ties with the
            // v-th: the cut split a group.
            let v = got.stats.candidates_verified;
            straddles += usize::from(v < yields.len() && yields[v - 1].1 == yields[v].1);
        }
        for scale in [0.5f64, 1.0, 2.0] {
            let r = base_r * scale;
            assert_eq!(
                index.query_bc(q, r),
                index.query_bc_reference(q, r),
                "q{qi} r{r}"
            );
        }
    }
    assert!(straddles > 0, "no budget cut fell inside a tie group");
}

#[test]
fn fanout_leg_verifies_the_projected_prefix() {
    // A fan-out leg has no line-4 stop, so what it verifies depends on
    // its budget alone: the first min(B, n) live rows ranked by
    // (projected distance, id). Its answer is the exact top-k of those;
    // at k = n that is the whole verified set. The index is churned
    // first: deleted rows leave holes in the row store, and inserted
    // copies of every odd live row tie with their originals.
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let mut index = PmLsh::build(data.clone(), PmLshParams::paper_defaults());
    for id in (0..data.len() as PointId).step_by(7) {
        assert!(index.delete(id));
    }
    for row in (1..data.len()).step_by(2).filter(|row| row % 7 != 0) {
        index.insert(data.point(row));
    }
    let n = index.len();
    let projected: Vec<(PointId, Vec<f32>)> = (index.live_ids().iter())
        .map(|&id| (id, index.project(index.data().point_id(id))))
        .collect();

    let k = 10;
    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    for (qi, q) in generator.queries(10).iter().enumerate() {
        let qp = index.project(q);
        let mut ranked: Vec<(f32, PointId)> = (projected.iter())
            .map(|(id, p)| (euclidean(&qp, p), *id))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for budget in [1, k, index.candidate_budget(k), n - 1, n, 2 * n] {
            let prefix = budget.min(n);
            let mut want: Vec<Neighbor> = (ranked[..prefix].iter())
                .map(|&(_, id)| Neighbor::new(euclidean(q, index.data().point_id(id)), id))
                .collect();
            want.sort();
            for k in [k, n] {
                let stats = index.query_fanout_into(q, k, budget, &mut ctx, &mut out);
                let what = format!("q{qi} B{budget} k{k}");
                assert_eq!(stats.candidates_verified, prefix, "{what}");
                assert_eq!(out, want[..k.min(prefix)], "{what}");
            }
        }
    }
}

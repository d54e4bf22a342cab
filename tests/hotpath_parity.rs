//! Result parity of every query form against a linear-scan reference, on
//! the Audio smoke dataset.
//!
//! One routine serves `query`, `query_into`, `query_fanout_into` and
//! `query_bc`: it sweeps the index's projected column, takes each round
//! of the range query `B(q', t·r)` as a set (the budget cut keeps the first
//! `budget − verified` by `(projected dist, id)`), verifies the set with
//! early-abandoning squared-distance kernels over a reused `QueryContext`
//! — while its top-k is not full, the round's nearest 16·k first, then the
//! rest in row order — and stops as the form says. None of that may show
//! in an answer or a counter, so every case compares `neighbors` (for
//! `query_bc`, its one answer) and the full `QueryStats` against
//! [`Reference`], which knows only the algorithm:
//!
//! * every live point, ranked by `(projected distance, id)` — the order in
//!   which growing balls reach them, ties split by id — with the projected
//!   distance measured as the sweep measures it, in the portable scalar
//!   kernel's order, so the ranking is the same on every CPU;
//! * the radius schedule of Algorithms 1 and 2 replayed over that ranking:
//!   each round takes the next ranked points within `t·r`, up to the
//!   budget, and verifies them in full;
//! * the answer is the exact `(dist, id)` top-k of the verified set;
//!   `candidates_verified` is its size, `rounds` the rounds replayed, and
//!   `projected_dist_computations` the live count (the sweep measures each
//!   live point once).
//!
//! Each test also asserts that its cases reach the branches it is there
//! for: a second round, a line-4 stop, a budget cut (also one inside a
//! group of bit-equal projected distances), a warm split whose boundary
//! falls inside such a group, a ball-cover hit and miss, and every form on
//! a churned index.

use pm_lsh::metric::simd::kernels;
use pm_lsh::metric::{euclidean, SimdLevel};
use pm_lsh::prelude::*;

fn audio_smoke() -> (PmLsh, Dataset) {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let queries = generator.queries(40);
    let index = PmLsh::build(data, PmLshParams::paper_defaults());
    (index, queries)
}

/// A query form, as the index's one search routine tells them apart.
#[derive(Clone, Copy, Debug)]
enum Form {
    /// Algorithm 2 (`query`, `query_into`).
    Ann { k: usize, c: f64 },
    /// One shard's leg of a fan-out query (`query_fanout_into`): the
    /// caller's budget, no line-4 stop.
    Fanout { k: usize, budget: usize },
    /// Algorithm 1 (`query_bc`): one ball, cap `⌈βn⌉ + 1`.
    BallCover { r: f64 },
}

/// How a replayed search ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    /// Algorithm 2 line 4: the k-th verified point lies within `c·r`.
    Line4,
    /// The budget ran out; `split_tie` when the cut fell between two
    /// bit-equal projected distances, where only the id decides.
    Budget { split_tie: bool },
    /// Algorithm 1 judged its one ball below the cap.
    OneBall,
    /// Every live point was verified within the budget.
    Exhausted,
}

/// What the index must answer for one case, and how the replay got there.
struct Replay {
    neighbors: Vec<Neighbor>,
    stats: QueryStats,
    stop: Stop,
    /// A round was large enough for the index to verify its nearest
    /// [`WARM_PER_K`]·k first, and its w-th and (w+1)-th points by
    /// `(projected dist, id)` have bit-equal projected distances, so only
    /// the id decides which side of the split each falls on.
    warm_tie: bool,
}

impl Replay {
    /// The `query_bc` answer: the best point and the counters.
    fn answer(&self) -> (Option<Neighbor>, QueryStats) {
        (self.neighbors.first().copied(), self.stats)
    }
}

/// How many nearest points per neighbor sought the index verifies first in
/// a round that begins with fewer than k points verified.
const WARM_PER_K: usize = 16;

/// The linear-scan reference over one index: every live point, projected
/// once.
struct Reference<'a> {
    index: &'a PmLsh,
    projected: Vec<(PointId, Vec<f32>)>,
}

impl<'a> Reference<'a> {
    fn new(index: &'a PmLsh) -> Self {
        let projected = (index.live_ids().iter())
            .map(|&id| (id, index.project(index.data().point_id(id))))
            .collect();
        Reference { index, projected }
    }

    /// Every live point ranked for `q` by `(projected distance, id)`.
    fn rank<'q>(&self, q: &'q [f32]) -> Ranked<'a, 'q> {
        let qp = self.index.project(q);
        let mut order: Vec<(f32, PointId)> = (self.projected.iter())
            .map(|(id, p)| (kernels::sq_dist(SimdLevel::Scalar, &qp, p).sqrt(), *id))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ranked {
            index: self.index,
            q,
            order,
        }
    }
}

/// One query's ranking, which every case of that query replays.
struct Ranked<'a, 'q> {
    index: &'a PmLsh,
    q: &'q [f32],
    order: Vec<(f32, PointId)>,
}

impl Ranked<'_, '_> {
    /// Algorithms 1 and 2 over the ranking, with the parameters the index
    /// derives for `form`.
    fn replay(&self, form: Form) -> Replay {
        let index = self.index;
        let params = *index.params();
        let n = index.len();
        let (k, c) = match form {
            Form::Ann { k, c } => (k, c),
            Form::Fanout { k, .. } => (k, params.c),
            Form::BallCover { .. } => (1, params.c),
        };
        // Eq. 10 re-derives t and β for a per-query c.
        let derived = if c == params.c {
            index.derived()
        } else {
            PmLshParams {
                c,
                beta_override: None,
                ..params
            }
            .derive()
        };
        let beta_n = (derived.beta * n as f64).ceil() as usize;
        let (budget, mut r) = match form {
            Form::Ann { .. } => ((beta_n + k).min(n), index.select_rmin(k)),
            Form::Fanout { budget, .. } => (budget.min(n), index.select_rmin(k)),
            Form::BallCover { r } => (beta_n + 1, r),
        };

        let mut verified: Vec<Neighbor> = Vec::new();
        let mut rounds = 0;
        let mut warm_tie = false;
        let stop = loop {
            rounds += 1;
            let line4 = matches!(form, Form::Ann { .. });
            if line4 && verified.len() >= k && verified[k - 1].dist as f64 <= c * r {
                break Stop::Line4;
            }
            let radius = (derived.t * r) as f32;
            let round: Vec<Neighbor> = (self.order[verified.len()..].iter())
                .take(budget - verified.len())
                .take_while(|&&(proj, _)| proj <= radius)
                .map(|&(_, id)| Neighbor::new(euclidean(self.q, index.data().point_id(id)), id))
                .collect();
            let (start, w) = (verified.len(), WARM_PER_K * k);
            if start < k && round.len() > w {
                warm_tie |= self.order[start + w - 1].0 == self.order[start + w].0;
            }
            verified.extend(round);
            verified.sort();
            let taken = verified.len();
            if taken >= budget {
                let split_tie = taken < n && self.order[taken - 1].0 == self.order[taken].0;
                break Stop::Budget { split_tie };
            }
            if matches!(form, Form::BallCover { .. }) {
                break Stop::OneBall;
            }
            if taken == n {
                break Stop::Exhausted;
            }
            r *= c;
        };

        let stats = QueryStats {
            candidates_verified: verified.len(),
            projected_dist_computations: n as u64,
            rounds,
        };
        // Algorithm 1 lines 6–9: below the cap, the best verified point
        // answers only from inside B(q, c·r).
        if stop == Stop::OneBall && verified.first().is_some_and(|b| b.dist as f64 > c * r) {
            verified.clear();
        }
        verified.truncate(k);
        Replay {
            neighbors: verified,
            stats,
            stop,
            warm_tie,
        }
    }
}

/// Asserts one served answer against the reference's replay of its case.
fn assert_same(neighbors: &[Neighbor], stats: QueryStats, want: &Replay, what: &str) {
    assert_eq!(neighbors, &want.neighbors[..], "{what}: neighbors");
    assert_eq!(stats, want.stats, "{what}: stats");
}

/// Asserts that some replayed case of a test is `what`.
fn reaches(seen: &[Replay], what: &str, case: impl Fn(&Replay) -> bool) {
    assert!(seen.iter().any(case), "no case reached {what}");
}

#[test]
fn query_matches_reference_fresh_and_reused() {
    let (index, queries) = audio_smoke();
    let reference = Reference::new(&index);
    let c = index.params().c;
    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    let mut seen = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let ranked = reference.rank(q);
        for k in [1usize, 10, 50] {
            let want = ranked.replay(Form::Ann { k, c });
            let fresh = index.query(q, k);
            assert_same(
                &fresh.neighbors,
                fresh.stats,
                &want,
                &format!("q{qi} k{k} fresh"),
            );
            let stats = index.query_into(q, k, c, &mut ctx, &mut out);
            assert_same(&out, stats, &want, &format!("q{qi} k{k} reused"));
            seen.push(want);
        }
    }
    reaches(&seen, "a line-4 stop", |r| r.stop == Stop::Line4);
    reaches(&seen, "a budget cut", |r| {
        matches!(r.stop, Stop::Budget { .. })
    });
}

#[test]
fn query_with_c_matches_reference() {
    let (index, queries) = audio_smoke();
    let reference = Reference::new(&index);
    let mut out = Vec::new();
    let mut seen = Vec::new();
    for (qi, q) in queries.iter().enumerate().take(15) {
        let ranked = reference.rank(q);
        for c in [1.2f64, 2.0, 3.0] {
            let want = ranked.replay(Form::Ann { k: 10, c });
            let stats = index.query_into(q, 10, c, &mut QueryContext::new(), &mut out);
            assert_same(&out, stats, &want, &format!("q{qi} c{c}"));
            seen.push(want);
        }
    }
    reaches(&seen, "a second round", |r| r.stats.rounds >= 2);
}

#[test]
fn query_bc_matches_reference() {
    let (index, queries) = audio_smoke();
    let reference = Reference::new(&index);
    let base = index.select_rmin(10);
    let mut ctx = QueryContext::new();
    let mut seen = Vec::new();
    for (qi, q) in queries.iter().enumerate().take(20) {
        let ranked = reference.rank(q);
        for scale in [0.25f64, 0.5, 1.0, 2.0] {
            let r = base * scale;
            let want = ranked.replay(Form::BallCover { r });
            let fresh = index.query_bc(q, r, &mut QueryContext::new());
            assert_eq!(fresh, want.answer(), "q{qi} r{r}");
            assert_eq!(
                index.query_bc(q, r, &mut ctx),
                want.answer(),
                "q{qi} r{r} reused"
            );
            seen.push(want);
        }
    }
    reaches(&seen, "a ball-cover hit", |r| r.answer().0.is_some());
    reaches(&seen, "a ball-cover miss", |r| r.answer().0.is_none());
    reaches(&seen, "the ball-cover cap", |r| {
        matches!(r.stop, Stop::Budget { .. })
    });
    reaches(&seen, "a ball below the cap", |r| r.stop == Stop::OneBall);
}

#[test]
fn query_batch_matches_reference() {
    // The whole query set through one reused context, as an engine worker
    // runs a batch shard.
    let (index, queries) = audio_smoke();
    let reference = Reference::new(&index);
    let c = index.params().c;
    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    for (qi, q) in queries.iter().enumerate() {
        let want = reference.rank(q).replay(Form::Ann { k: 10, c });
        let stats = index.query_into(q, 10, c, &mut ctx, &mut out);
        assert_same(&out, stats, &want, &format!("q{qi}"));
    }
}

#[test]
fn one_context_survives_mixed_workloads() {
    // A single context serving interleaved k values and ball-cover queries
    // (the engine-worker lifecycle) never contaminates a later answer with
    // an earlier query's state.
    let (index, queries) = audio_smoke();
    let reference = Reference::new(&index);
    let c = index.params().c;
    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    let r = index.select_rmin(5);
    for (qi, q) in queries.iter().enumerate().take(12) {
        let ranked = reference.rank(q);
        let k = 1 + (qi % 20);
        let stats = index.query_into(q, k, c, &mut ctx, &mut out);
        assert_same(
            &out,
            stats,
            &ranked.replay(Form::Ann { k, c }),
            &format!("q{qi} k{k}"),
        );
        let want = ranked.replay(Form::BallCover { r });
        assert_eq!(index.query_bc(q, r, &mut ctx), want.answer(), "q{qi} bc");
    }
}

#[test]
fn budget_cuts_inside_tie_groups_match_reference() {
    // Every row three times over: projected distances come in groups of
    // three bit-equal ones, so a budget cut can fall inside a group, where
    // only the id tie-break decides which copies are verified, and so can
    // the boundary of a round's warm split, where only the id decides
    // which copies are verified first.
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let base = generator.dataset();
    let mut data = Dataset::with_capacity(base.dim(), 3 * base.len());
    for _ in 0..3 {
        base.iter().for_each(|row| data.push(row));
    }
    let index = PmLsh::build(data, PmLshParams::paper_defaults());
    let reference = Reference::new(&index);
    let c = index.params().c;
    let base_r = index.select_rmin(10);
    let mut out = Vec::new();
    let (mut seen, mut fanout) = (Vec::new(), Vec::new());
    for (qi, q) in generator.queries(20).iter().enumerate() {
        let ranked = reference.rank(q);
        for k in [1usize, 10, 50] {
            let want = ranked.replay(Form::Ann { k, c });
            let got = index.query(q, k);
            assert_same(&got.neighbors, got.stats, &want, &format!("q{qi} k{k}"));
            seen.push(want);
            let want = ranked.replay(Form::Ann { k, c: 2.0 });
            let stats = index.query_into(q, k, 2.0, &mut QueryContext::new(), &mut out);
            assert_same(&out, stats, &want, &format!("q{qi} k{k} c2"));
            seen.push(want);
            let budget = index.candidate_budget(k);
            let want = ranked.replay(Form::Fanout { k, budget });
            let stats = index.query_fanout_into(q, k, budget, &mut QueryContext::new(), &mut out);
            assert_same(&out, stats, &want, &format!("q{qi} k{k} B{budget}"));
            fanout.push(want);
        }
        for scale in [0.5f64, 1.0, 2.0] {
            let r = base_r * scale;
            let want = ranked.replay(Form::BallCover { r });
            let got = index.query_bc(q, r, &mut QueryContext::new());
            assert_eq!(got, want.answer(), "q{qi} r{r}");
        }
    }
    let split_tie = Stop::Budget { split_tie: true };
    reaches(&seen, "a budget cut inside a tie group", |r| {
        r.stop == split_tie
    });
    reaches(&seen, "an Ann warm split inside a tie group", |r| {
        r.warm_tie
    });
    reaches(&fanout, "a fan-out warm split inside a tie group", |r| {
        r.warm_tie
    });
}

#[test]
fn churned_index_matches_reference() {
    // Deleted rows leave holes in the row store, and inserted copies of
    // every odd live row tie with their originals. A fan-out leg has no
    // line-4 stop, so its budget alone decides what it verifies: the first
    // min(B, n) live rows by (projected distance, id); at k = n its answer
    // is that whole set.
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let mut index = PmLsh::build(data.clone(), PmLshParams::paper_defaults());
    for id in (0..data.len() as PointId).step_by(7) {
        assert!(index.delete(id));
    }
    for row in (1..data.len()).step_by(2).filter(|row| row % 7 != 0) {
        index.insert(data.point(row));
    }
    let (n, c) = (index.len(), index.params().c);
    assert!(index.data().len() > n, "the row store keeps no hole");
    let reference = Reference::new(&index);
    let base_r = index.select_rmin(10);
    let (mut ctx, mut out) = (QueryContext::new(), Vec::new());
    let (mut ann, mut fanout, mut ball) = (Vec::new(), Vec::new(), Vec::new());
    for (qi, q) in generator.queries(10).iter().enumerate() {
        let ranked = reference.rank(q);
        for k in [1usize, 10, 50] {
            let want = ranked.replay(Form::Ann { k, c });
            let stats = index.query_into(q, k, c, &mut ctx, &mut out);
            assert_same(&out, stats, &want, &format!("q{qi} k{k}"));
            ann.push(want);
        }
        for budget in [1, 10, index.candidate_budget(10), n - 1, n, 2 * n] {
            for k in [10, n] {
                let want = ranked.replay(Form::Fanout { k, budget });
                let stats = index.query_fanout_into(q, k, budget, &mut ctx, &mut out);
                assert_same(&out, stats, &want, &format!("q{qi} B{budget} k{k}"));
                fanout.push(want);
            }
        }
        for scale in [0.5f64, 1.0, 2.0] {
            let r = base_r * scale;
            let want = ranked.replay(Form::BallCover { r });
            assert_eq!(index.query_bc(q, r, &mut ctx), want.answer(), "q{qi} r{r}");
            ball.push(want);
        }
    }
    reaches(&ann, "an Ann budget cut", |r| {
        matches!(r.stop, Stop::Budget { .. })
    });
    reaches(&ann, "an Ann line-4 stop", |r| r.stop == Stop::Line4);
    let split_tie = Stop::Budget { split_tie: true };
    reaches(&fanout, "a fan-out cut inside a tie group", |r| {
        r.stop == split_tie
    });
    reaches(&ball, "a ball-cover hit", |r| r.answer().0.is_some());
    reaches(&ball, "a ball-cover miss", |r| r.answer().0.is_none());
}

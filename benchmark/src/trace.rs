//! The traced run (`--trace 1`): the head of the workload issued at
//! successive depths with a span around every call, a stage replay of
//! Algorithm 2 built from public functions only, a write-layer phase and
//! a few micro-kernels — every per-layer metric, measured from outside.
//!
//! Depths, per query: wire round trip (both framings) →
//! `ShardedEngine::query` → `PmLsh::query_into` on the pinned snapshot
//! (per-shard `query_fanout_into` legs when sharded) → the replay, whose
//! spans hang off the core span and are the stages: `hash.project`, `pmtree.traverse`,
//! `metric.verify`. The replay must return bit-identical neighbours and
//! `QueryStats`, or the run is incorrect.

use crate::check::{self, bit_equal};
use crate::json::Json;
use crate::run::{self, engine_config, params};
use crate::stats::{median, percentile};
use crate::wire::{self, Client, Framing};
use crate::workload::{self, Op, Setup, Spec, BATCH_OPS};
use crate::{Options, Outcome};
use pm_lsh_core::shard::to_global;
use pm_lsh_core::{MutOp, PmLsh, QueryContext, QueryStats};
use pm_lsh_data::Generator;
use pm_lsh_engine::{frame, Engine, ShardedEngine};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_metric::{sq_dist, sq_dist_within, Neighbor, TopK};
use pm_lsh_pmtree::{CursorScratch, PmTree};
use pm_lsh_stats::Rng;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::sync::Arc;
use std::time::Instant;

/// Queries traced at every depth (and as many again untraced, for the
/// overhead ratio).
const TRACED_QUERIES: usize = 300;
/// Candidate `(query row, id)` pairs kept for `metric.kernel_ns_stream`.
const STREAM_LOG_CAP: usize = 200_000;

/// One timed call. `parent` is the span that caused it: depths are issued
/// one after another, not nested in time, so the tree is logical.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query: u32,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// In-memory span recorder; nothing is written until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, query: u32) -> u32 {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Duration of span `id` in µs.
    fn us(&self, id: u32) -> f64 {
        self.spans[id as usize].ns() / 1e3
    }
}

/// A layer's self time: its span's duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.ns();
        }
    }
    own
}

/// The squared-domain admission bound `PmLsh::query_into` derives from the
/// current k-th distance (private there; restated here because the replay
/// must abandon exactly the candidates the index abandons).
fn abandon_bound(kth: f32) -> f32 {
    if kth == f32::INFINITY {
        f32::INFINITY
    } else {
        (kth * kth).next_up().next_up()
    }
}

/// Buffers the replay reuses across queries, like `QueryContext`.
struct ReplayScratch {
    cursor: CursorScratch,
    qp: Vec<f32>,
    top: TopK,
    round: Vec<u32>,
}

struct Replayed {
    neighbors: Vec<Neighbor>,
    stats: QueryStats,
    abandoned: usize,
    /// Span ids of the stages, for aggregation.
    stages: Vec<u32>,
}

/// Algorithm 2 from public functions only, one span per stage call.
/// `fanout` is the pooled budget of a scatter-gather leg (which also drops
/// the line-4 early stop), `None` for a monolithic query.
#[allow(clippy::too_many_arguments)]
fn replay(
    index: &PmLsh,
    q: &[f32],
    k: usize,
    fanout: Option<usize>,
    scratch: &mut ReplayScratch,
    tr: &mut Tracer,
    parent: u32,
    query: u32,
    mut log: Option<&mut Vec<u32>>,
) -> Replayed {
    let c = index.params().c;
    let derived = index.derived();
    let budget = fanout.map_or_else(|| index.candidate_budget(k), |b| b.min(index.len()));
    let mut stages = Vec::new();

    let span = tr.begin("hash.project", Some(parent), query);
    scratch.qp.resize(index.params().m as usize, 0.0);
    index.projector().project_into(q, &mut scratch.qp);
    tr.end(span);
    stages.push(span);

    let span = tr.begin("pmtree.traverse", Some(parent), query);
    let mut cursor = index
        .tree()
        .cursor_with_scratch(&scratch.qp, std::mem::take(&mut scratch.cursor));
    tr.end(span);
    stages.push(span);

    let top = &mut scratch.top;
    top.reset(k);
    let (mut verified, mut rounds, mut abandoned) = (0usize, 0u32, 0usize);
    let mut r = index.select_rmin(k);
    let mut bound = f32::INFINITY;
    loop {
        rounds += 1;
        if fanout.is_none() && top.is_full() && (top.kth_dist() as f64) <= c * r {
            break;
        }
        let proj_radius = (derived.t * r) as f32;
        // The traversal does not depend on what verification finds, so a
        // round's candidates can be drained first and verified after: same
        // calls, same order, same counters as the interleaved original.
        let span = tr.begin("pmtree.traverse", Some(parent), query);
        scratch.round.clear();
        while verified + scratch.round.len() < budget {
            match cursor.next_within(proj_radius) {
                Some((id, _)) => scratch.round.push(id),
                None => break,
            }
        }
        tr.end(span);
        stages.push(span);

        let span = tr.begin("metric.verify", Some(parent), query);
        for &id in &scratch.round {
            let sq = sq_dist_within(q, index.data().point_id(id), bound);
            if sq <= bound {
                if top.push(sq.sqrt(), id) && top.is_full() {
                    bound = abandon_bound(top.kth_dist());
                }
            } else {
                abandoned += 1;
            }
        }
        verified += scratch.round.len();
        tr.end(span);
        stages.push(span);
        if let Some(log) = log.as_deref_mut() {
            log.extend_from_slice(&scratch.round);
        }

        if verified >= budget || cursor.is_exhausted() {
            break;
        }
        r *= c;
    }
    let stats = QueryStats {
        candidates_verified: verified,
        projected_dist_computations: cursor.distance_computations(),
        rounds,
    };
    scratch.cursor = cursor.recycle();
    let mut neighbors = Vec::new();
    top.drain_sorted_into(&mut neighbors);
    Replayed {
        neighbors,
        stats,
        abandoned,
        stages,
    }
}

/// The pooled fan-out budget `ShardedEngine` hands every leg:
/// `min(⌈β·n⌉ + k, n)` over all shards' live points.
fn pooled_budget(snaps: &[Arc<PmLsh>], k: usize) -> usize {
    let total: usize = snaps.iter().map(|s| s.len()).sum();
    ((snaps[0].derived().beta * total as f64).ceil() as usize + k).min(total)
}

/// Per-query figures the traced pass collects (µs unless named otherwise).
#[derive(Default)]
struct Samples {
    wire: Vec<f64>,
    wire_alt: Vec<f64>,
    engine: Vec<f64>,
    core: Vec<f64>,
    straggle: Vec<f64>,
    project: Vec<f64>,
    traverse: Vec<f64>,
    verify: Vec<f64>,
    candidates: usize,
    proj_dists: u64,
    rounds: u64,
    abandoned: usize,
    budget: usize,
    /// Stage time summed over every leg (the p50 lists hold the slowest leg's).
    traverse_total: f64,
    verify_total: f64,
    /// Per query: its wire, engine and slowest core span.
    layer_spans: Vec<[u32; 3]>,
    wire_insert: Vec<f64>,
    wire_delete: Vec<f64>,
    wire_batch: Vec<f64>,
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, 50.0)
    }
}

/// Median wall time of `f` over `reps` calls, in nanoseconds per call,
/// each call timing `inner` iterations.
fn time_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&samples)
}

/// `f`'s result and how many seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `f`'s result and how many microseconds it took.
fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, secs) = timed(f);
    (out, secs * 1e6)
}

/// Queries traced per depth before moving one depth in.
const TRACE_BLOCK: usize = 5;

/// What the per-block depth passes share.
struct Depths<'a> {
    spec: &'a Spec,
    script: &'a workload::Script,
    requests: &'a wire::Packed,
    shards: usize,
    scratch: ReplayScratch,
    ctx: QueryContext,
    /// `(query row, local id)` in shard 0's verification order.
    stream_log: Vec<(u32, u32)>,
    /// Stays `true` while every replay equals `query_into` bit for bit.
    matched: bool,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Depths<'_> {
    fn note(&mut self, text: String) {
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }

    /// Issues the queries at ops `block` at every depth, one pass per depth.
    fn trace_block(
        &mut self,
        block: std::ops::Range<usize>,
        native: &mut Client,
        alt: &mut Client,
        engine: &ShardedEngine,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> io::Result<()> {
        let (spec, script, shards, k) = (self.spec, self.script, self.shards, self.spec.k);
        let rows: Vec<u32> = block
            .clone()
            .map(|i| match script.ops[i] {
                Op::Query(row) => row,
                _ => unreachable!("a block holds only queries"),
            })
            .collect();
        let query = |j: usize| script.queries.point(rows[j] as usize);
        let mut reply = Vec::new();

        // Depth 1: the wire, in the workload's framing.
        let mut wire_spans = Vec::new();
        let mut wire_answers = Vec::new();
        for (j, i) in block.clone().enumerate() {
            reply.clear();
            let span = tr.begin("wire", None, rows[j]);
            native.roundtrip(self.requests.get(i), &mut reply)?;
            tr.end(span);
            wire_spans.push(span);
            wire_answers.push(wire::decode_neighbors(spec.framing, &reply));
        }
        // ... and in the other framing, for the two shell figures.
        let mut alt_spans = Vec::new();
        let mut alt_answers = Vec::new();
        let mut request = Vec::new();
        for (j, &row) in rows.iter().enumerate() {
            request.clear();
            wire::encode_query(spec.framing.other(), k, query(j), &mut request);
            reply.clear();
            let span = tr.begin("wire.alt_framing", None, row);
            alt.roundtrip(&request, &mut reply)?;
            tr.end(span);
            alt_spans.push(span);
            alt_answers.push(wire::decode_neighbors(spec.framing.other(), &reply));
        }
        self.attempted += 2 * rows.len();

        // Depth 2: the engine, no sockets.
        let mut engine_spans = Vec::new();
        let mut engine_answers = Vec::new();
        for j in 0..rows.len() {
            let span = tr.begin("engine.query", Some(wire_spans[j]), rows[j]);
            engine_answers.push(engine.query(query(j), k));
            tr.end(span);
            engine_spans.push(span);
        }

        // Depth 3: the pinned snapshot(s), no engine. No write lands inside
        // a block, so one pin serves all of it.
        let snaps: Vec<Arc<PmLsh>> = engine.shards().iter().map(|e| e.index()).collect();
        let fanout = (shards > 1).then(|| pooled_budget(&snaps, k));
        let mut core_spans: Vec<Vec<u32>> = Vec::new();
        let mut core_answers = Vec::new();
        let mut core_stats = Vec::new();
        let mut found = Vec::new();
        for j in 0..rows.len() {
            let mut spans = Vec::new();
            let mut stats = QueryStats::default();
            let mut top = TopK::new(k);
            for (shard, snap) in snaps.iter().enumerate() {
                let leg_k = k.min(snap.len());
                let span = tr.begin("core.query", Some(engine_spans[j]), rows[j]);
                let leg = match fanout {
                    None => {
                        snap.query_into(query(j), leg_k, snap.params().c, &mut self.ctx, &mut found)
                    }
                    Some(b) => {
                        snap.query_fanout_into(query(j), leg_k, b, &mut self.ctx, &mut found)
                    }
                };
                tr.end(span);
                spans.push(span);
                stats.merge(&leg);
                for n in &found {
                    top.push(n.dist, to_global(n.id, shard, shards));
                }
            }
            core_spans.push(spans);
            core_answers.push(top.into_sorted_vec());
            core_stats.push(stats);
        }

        // Depth 4: the stage replay; its spans are children of the core
        // span, so what they do not cover is `core.query`'s self time.
        for j in 0..rows.len() {
            let mut stats = QueryStats::default();
            let mut top = TopK::new(k);
            let mut legs: Vec<(f64, [f64; 3], u32)> = Vec::new();
            for (shard, snap) in snaps.iter().enumerate() {
                let core_span = core_spans[j][shard];
                let mut ids = Vec::new();
                let keep = shard == 0 && self.stream_log.len() < STREAM_LOG_CAP;
                let r = replay(
                    snap,
                    query(j),
                    k.min(snap.len()),
                    fanout,
                    &mut self.scratch,
                    tr,
                    core_span,
                    rows[j],
                    keep.then_some(&mut ids),
                );
                self.stream_log
                    .extend(ids.into_iter().map(|id| (rows[j], id)));
                stats.merge(&r.stats);
                s.abandoned += r.abandoned;
                for n in &r.neighbors {
                    top.push(n.dist, to_global(n.id, shard, shards));
                }
                let mut stage = [0.0; 3];
                for id in r.stages {
                    let slot = match tr.spans[id as usize].name {
                        "hash.project" => 0,
                        "pmtree.traverse" => 1,
                        _ => 2,
                    };
                    stage[slot] += tr.us(id);
                }
                s.traverse_total += stage[1];
                s.verify_total += stage[2];
                legs.push((tr.us(core_span), stage, core_span));
            }
            let replayed = top.into_sorted_vec();

            let answer = &engine_answers[j];
            let all_equal = [&wire_answers[j], &alt_answers[j]]
                .iter()
                .all(|a| a.as_ref().is_ok_and(|a| bit_equal(a, &answer.neighbors)))
                && bit_equal(&answer.neighbors, &core_answers[j])
                && answer.stats == core_stats[j];
            if !all_equal {
                self.failed += 1;
                self.note(format!(
                    "query {}: wire / engine / core answers differ",
                    rows[j]
                ));
            }
            if !(bit_equal(&core_answers[j], &replayed) && core_stats[j] == stats) {
                self.matched = false;
                self.note(format!(
                    "query {}: stage replay diverged from query_into",
                    rows[j]
                ));
            }

            // The slowest leg blocks the answer; its stages are the query's.
            let (slowest, stage, slowest_span) = legs
                .iter()
                .copied()
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one shard");
            let mean_leg = legs.iter().map(|l| l.0).sum::<f64>() / legs.len() as f64;
            s.layer_spans
                .push([wire_spans[j], engine_spans[j], slowest_span]);
            s.wire.push(tr.us(wire_spans[j]));
            s.wire_alt.push(tr.us(alt_spans[j]));
            s.engine.push(tr.us(engine_spans[j]));
            s.core.push(slowest);
            s.straggle.push(slowest - mean_leg);
            s.project.push(stage[0]);
            s.traverse.push(stage[1]);
            s.verify.push(stage[2]);
            s.candidates += core_stats[j].candidates_verified;
            s.proj_dists += core_stats[j].projected_dist_computations;
            s.rounds += u64::from(core_stats[j].rounds);
            s.budget = fanout.unwrap_or_else(|| snaps[0].candidate_budget(k));
        }
        Ok(())
    }
}

pub fn run(spec: &Spec, opts: &Options) -> io::Result<Outcome> {
    let traced = if opts.quick {
        TRACED_QUERIES / 20
    } else {
        TRACED_QUERIES
    };
    let writes = if opts.quick {
        spec.layer_writes.min(2)
    } else {
        spec.layer_writes
    };
    let gen = Generator::new(spec.synth());
    let corpus = gen.dataset();
    let shape = spec.scaled(opts.seconds, false);
    let script = workload::script(spec, &gen, shape, opts.seed, 2 * traced);
    let requests = workload::encode(spec, &script);
    let p = params();
    let k = spec.k;
    let mut out_metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, value: f64| out_metrics.push((name, value));

    // ---- build-side layers, one call each -------------------------------
    let mut rng = Rng::new(p.seed);
    let projector = GaussianProjector::new(corpus.dim(), p.m as usize, &mut rng);
    let (projected, project_all_s) = timed(|| projector.project_all_threaded(corpus.view(), 1));
    let (tree, tree_build_s) = timed(|| PmTree::build(projected.view(), p.tree, &mut rng));
    drop((tree, projected));
    let owned = corpus.clone();
    let (index0, core_build_s) = timed(|| PmLsh::build(owned, p));
    let snapshot = opts.scratch.join(format!("{}.pmlsh", spec.name));
    let (saved, save_s) = timed(|| pm_lsh_persist::save(&index0, &snapshot));
    let saved = saved.map_err(io::Error::other)?;
    let (loaded, load_s) = timed(|| pm_lsh_persist::load(&snapshot));
    let loaded = loaded.map_err(io::Error::other)?;
    let file = std::fs::read(&snapshot)?;
    let crc_ns = time_ns(3, 1, || {
        black_box(pm_lsh_persist::crc32(black_box(&file)));
    });
    put("hash.project_all_s", project_all_s);
    put("pmtree.build_s", tree_build_s);
    put("core.build_s", core_build_s);
    put("persist.save_s", save_s);
    put("persist.load_s", load_s);
    put(
        "persist.bytes_per_point",
        saved.bytes as f64 / corpus.len() as f64,
    );
    put("persist.crc_gbps", file.len() as f64 / crc_ns);
    drop(file);

    // ---- serve the workload's flavour of the index ----------------------
    let engine: ShardedEngine = match spec.setup {
        Setup::Build => {
            drop(loaded);
            Engine::new(index0, engine_config()).into()
        }
        // The attach flavour serves what came back from disk.
        Setup::Attach => {
            drop(index0);
            Engine::new(loaded, engine_config()).into()
        }
        Setup::Sharded(shards) => {
            drop((index0, loaded));
            run::build_sharded(&corpus, shards)
        }
    };
    let mut hosted = run::host(spec, &corpus, &snapshot, Some(engine))?;
    put("server.start_s", hosted.setup_s);
    let mut alt = Client::connect(hosted.addr())?;
    alt.hello(spec.framing.other())?;
    let shards = spec.shards();
    let mut failed = 0usize;
    let mut attempted = 0usize;

    // ---- untraced pass: the second half of the list's queries -----------
    let split = script
        .query_ops()
        .nth(traced)
        .map_or(script.ops.len(), |(i, _)| i);
    let untraced_ops: Vec<usize> = script
        .query_ops()
        .filter(|(i, _)| *i >= split)
        .map(|(i, _)| i)
        .collect();
    let mut reply = Vec::new();
    let start = Instant::now();
    for &i in &untraced_ops {
        reply.clear();
        hosted.client.roundtrip(requests.get(i), &mut reply)?;
        attempted += 1;
        if wire::decode_neighbors(spec.framing, &reply).is_err() {
            failed += 1;
        }
    }
    let untraced_qps = untraced_ops.len() as f64 / start.elapsed().as_secs_f64();

    // ---- traced pass -----------------------------------------------------
    // Runs of consecutive queries are traced block-wise: one pass per depth
    // over the whole block, so every depth runs against the cache state a
    // stream of queries leaves behind — not right after a re-issue of the
    // same query one layer up, which would flatter the inner layers.
    let mut tr = Tracer::new();
    let mut s = Samples::default();
    let mut depths = Depths {
        spec,
        script: &script,
        requests: &requests,
        shards: spec.shards(),
        scratch: ReplayScratch {
            cursor: CursorScratch::new(),
            qp: Vec::new(),
            top: TopK::new(1),
            round: Vec::new(),
        },
        ctx: QueryContext::new(),
        stream_log: Vec::new(),
        matched: true,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let mut i = 0;
    while i < split {
        if matches!(script.ops[i], Op::Query(_)) {
            let start = i;
            while i < split && i - start < TRACE_BLOCK && matches!(script.ops[i], Op::Query(_)) {
                i += 1;
            }
            depths.trace_block(
                start..i,
                &mut hosted.client,
                &mut alt,
                &hosted.engine,
                &mut tr,
                &mut s,
            )?;
            continue;
        }
        // deep_churn's writes run over the wire only, so the engine's
        // epoch advances exactly as in the measured run.
        let (name, samples, per) = match script.ops[i] {
            Op::Insert(_) => ("wire.insert", &mut s.wire_insert, 1.0),
            Op::Delete(_) => ("wire.delete", &mut s.wire_delete, 1.0),
            _ => ("wire.batch", &mut s.wire_batch, BATCH_OPS as f64),
        };
        reply.clear();
        let span = tr.begin(name, None, i as u32);
        hosted.client.roundtrip(requests.get(i), &mut reply)?;
        tr.end(span);
        samples.push(tr.us(span) / per);
        depths.attempted += 1;
        if !reply.starts_with(b"OK") {
            depths.failed += 1;
            depths.note(format!("op {i}: '{}'", String::from_utf8_lossy(&reply)));
        }
        i += 1;
    }
    attempted += depths.attempted;
    failed += depths.failed;
    let Depths {
        stream_log,
        matched,
        mut notes,
        ..
    } = depths;
    let queries = s.wire.len() as f64;
    let traced_qps = queries / (s.wire.iter().sum::<f64>() / 1e6);
    put("engine.mean_batch", hosted.engine.stats().mean_batch);

    // ---- write-layer phase ----------------------------------------------
    let text = if spec.framing == Framing::Text {
        &mut hosted.client
    } else {
        &mut alt
    };
    let layer = write_layer(&gen, &hosted.engine, text, writes, &mut s)?;
    attempted += layer.attempted;
    failed += layer.failed;
    for (name, value) in layer.metrics {
        put(name, value);
    }

    // ---- micro-kernels ---------------------------------------------------
    let snap = hosted.engine.shards()[0].index();
    let q0 = script.queries.point(0).to_vec();
    let inner = (200_000 / corpus.dim()).max(10);
    let mut framed = Vec::new();
    frame::encode_query(k as u32, &q0, &mut framed);
    put(
        "frame.decode_query_ns",
        time_ns(5, inner, || {
            black_box(frame::decode_request(black_box(&framed[4..])).is_ok());
        }),
    );
    let answer: Vec<Neighbor> = (0..k as u32).map(|i| Neighbor::new(i as f32, i)).collect();
    let mut encoded = Vec::new();
    put(
        "frame.encode_ok_ns",
        time_ns(5, 2_000, || {
            encoded.clear();
            frame::encode_ok(black_box(&answer), &mut encoded);
        }),
    );
    let mut qp = vec![0.0f32; p.m as usize];
    put(
        "hash.project_ns",
        time_ns(5, inner, || {
            snap.projector()
                .project_into(black_box(&q0), black_box(&mut qp))
        }),
    );
    let row0 = snap.data().point(0);
    put(
        "metric.kernel_ns_hot",
        time_ns(5, inner * 10, || {
            black_box(sq_dist(black_box(&q0), black_box(row0)));
        }),
    );
    let stream = Instant::now();
    for &(row, id) in &stream_log {
        black_box(sq_dist(
            script.queries.point(row as usize),
            snap.data().point_id(id),
        ));
    }
    put(
        "metric.kernel_ns_stream",
        stream.elapsed().as_nanos() as f64 / stream_log.len().max(1) as f64,
    );
    let mut dists = vec![0.0f32; 100_000];
    Rng::new(1).fill_normal(&mut dists);
    let mut top = TopK::new(k);
    put(
        "metric.topk_push_ns",
        time_ns(5, 1, || {
            top.reset(k);
            for (i, d) in dists.iter().enumerate() {
                black_box(top.push(d.abs(), i as u32));
            }
        }) / dists.len() as f64,
    );
    let mut ping = Vec::new();
    match spec.framing {
        Framing::Text => ping.extend_from_slice(b"PING\n"),
        Framing::Binary => frame::encode_ping(&mut ping),
    }
    let mut rtts = Vec::new();
    for _ in 0..200 {
        reply.clear();
        let (sent, us) = timed_us(|| hosted.client.roundtrip(&ping, &mut reply));
        sent?;
        rtts.push(us);
    }
    put("server.ping_rtt_us", p50(&rtts));
    put("pmtree.height", snap.tree().height() as f64);
    put("pmtree.node_count", snap.tree().node_count() as f64);
    let invariants = check::invariants(&hosted.engine);
    drop(alt);
    drop(hosted);

    // ---- aggregate -------------------------------------------------------
    let (wire50, alt50, engine50, core50) =
        (p50(&s.wire), p50(&s.wire_alt), p50(&s.engine), p50(&s.core));
    let (project50, traverse50, verify50) = (p50(&s.project), p50(&s.traverse), p50(&s.verify));
    let (text50, binary50) = match spec.framing {
        Framing::Text => (wire50, alt50),
        Framing::Binary => (alt50, wire50),
    };
    let candidates = s.candidates as f64;
    put("server.shell_text_us", text50 - engine50);
    put("server.shell_binary_us", binary50 - engine50);
    put("wire.insert_us", p50(&s.wire_insert));
    put("wire.delete_us", p50(&s.wire_delete));
    put("wire.batch_us_per_op", p50(&s.wire_batch));
    put("engine.query_us", engine50);
    put("engine.dispatch_us", engine50 - core50);
    put("engine.gather_us", p50(&s.straggle));
    put(
        "engine.fanout_work_ratio",
        candidates / queries / s.budget as f64,
    );
    put("core.query_us", core50);
    put("core.self_us", core50 - project50 - traverse50 - verify50);
    put("core.candidates_per_query", candidates / queries);
    put("core.rounds_per_query", s.rounds as f64 / queries);
    put("core.budget", s.budget as f64);
    put(
        "core.budget_fill",
        candidates / shards as f64 / queries / s.budget as f64,
    );
    put("pmtree.traverse_us", traverse50);
    put(
        "pmtree.traverse_ns_per_candidate",
        s.traverse_total * 1e3 / candidates,
    );
    put("pmtree.proj_dists_per_query", s.proj_dists as f64 / queries);
    put(
        "pmtree.proj_dists_per_candidate",
        s.proj_dists as f64 / candidates,
    );
    put("metric.verify_us", verify50);
    put(
        "metric.verify_ns_per_candidate",
        s.verify_total * 1e3 / candidates,
    );
    put("metric.abandon_share", s.abandoned as f64 / candidates);
    put(
        "metric.bytes_per_query",
        candidates / queries * corpus.dim() as f64 * 4.0,
    );
    put("trace.replay_match", f64::from(u8::from(matched)));
    put("trace.overhead_ratio", traced_qps / untraced_qps);

    // Stage table: rows are differences of p50s, so they sum to the wire
    // p50 by construction; core.self is the only residual.
    // Beside each, the median of the span's own self time (span minus
    // children) as a cross-check that does not telescope.
    let own = self_times_ns(&tr.spans);
    let own50 = |layer: usize| {
        p50(&s
            .layer_spans
            .iter()
            .map(|ids| own[ids[layer] as usize] / 1e3)
            .collect::<Vec<_>>())
    };
    let rows = [
        (
            "server shell (wire - engine)",
            wire50 - engine50,
            Some(own50(0)),
        ),
        ("engine.dispatch", engine50 - core50, Some(own50(1))),
        (
            "core.self",
            core50 - project50 - traverse50 - verify50,
            Some(own50(2)),
        ),
        ("hash.project", project50, None),
        ("pmtree.traverse", traverse50, None),
        ("metric.verify", verify50, None),
    ];
    eprintln!(
        "stage table, {} ({} traced queries, p50 us):",
        spec.name,
        s.wire.len()
    );
    for (name, us, own) in rows {
        let own = own.map_or(String::new(), |o| format!("  span self p50 {o:.1}"));
        eprintln!(
            "  {name:<30} {us:>10.1}  {:>5.1} %{own}",
            100.0 * us / wire50
        );
    }
    eprintln!(
        "  {:<30} {:>10.1}  (wire p50 {wire50:.1})",
        "sum",
        rows.iter().map(|r| r.1).sum::<f64>()
    );

    if let Err(e) = &invariants {
        notes.push(format!("verify_invariants: {e}"));
    }
    if !matched {
        failed += 1;
    }
    write_spans(
        &opts.out.join(format!("trace-{}.jsonl", spec.name)),
        &tr.spans,
    )?;

    let mut out = Outcome::new(failed == 0 && notes.is_empty(), attempted, failed, notes);
    for (name, value) in out_metrics {
        out.metric(name, value);
    }
    out.info("traced_wire_p50_us", wire50);
    out.info("untraced_qps", untraced_qps);
    out.count("traced_queries", s.wire.len());
    out.count("untraced_queries", untraced_ops.len());
    out.count("spans", tr.spans.len());
    out.count("layer_writes", writes);
    Ok(out)
}

struct LayerResult {
    metrics: Vec<(&'static str, f64)>,
    attempted: usize,
    failed: usize,
}

/// Times each write path once from every depth it has: wire verb, engine
/// call, `PmLsh::apply` on a cloned snapshot, `PmTree::insert`/`delete`.
/// Small sample counts on purpose (see `Spec::layer_writes`); these feed
/// per-layer metrics, which carry no bound.
fn write_layer(
    gen: &Generator,
    engine: &ShardedEngine,
    text: &mut Client,
    writes: usize,
    s: &mut Samples,
) -> io::Result<LayerResult> {
    let batches = (writes / 4).max(1);
    let half = BATCH_OPS / 2;
    let points = gen.points(
        2 * writes + 4 * batches * half + 2 * half,
        &mut Rng::new(77).fork(4),
    );
    let mut next = 0;
    let mut fresh = |count: usize| -> Vec<&[f32]> {
        let rows = (next..next + count).map(|i| points.point(i)).collect();
        next += count;
        rows
    };
    let mut out = LayerResult {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let exchange =
        |text: &mut Client, request: &[u8], out: &mut LayerResult| -> io::Result<(String, f64)> {
            let mut reply = Vec::new();
            let (sent, us) = timed_us(|| text.roundtrip(request, &mut reply));
            sent?;
            out.attempted += 1;
            if !reply.starts_with(b"OK") {
                out.failed += 1;
            }
            Ok((String::from_utf8_lossy(&reply).into_owned(), us))
        };
    let id_of = |reply: &str| -> Option<u32> {
        reply
            .split_ascii_whitespace()
            .find_map(|f| f.strip_prefix("id=")?.parse().ok())
    };

    // Single inserts, wire and engine alternating so both sides meet the
    // same allocator and cache state; then the deletes of what they added.
    let (mut wire_insert, mut wire_delete, mut wire_batch) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire_ids = Vec::new();
    let mut engine_insert = Vec::new();
    let mut engine_ids = Vec::new();
    // An insert goes to the shard with the fewest rows, so on two shards a
    // fixed order would send every wire insert to one shard and every
    // engine insert to the other; the order swaps every pair, and both
    // sides meet both shards.
    for (i, pair) in fresh(2 * writes).chunks(2).enumerate() {
        for (point, over_wire) in pair.iter().zip([i % 2 == 0, i % 2 == 1]) {
            if over_wire {
                let mut req = b"INSERT".to_vec();
                wire::push_components(point, &mut req);
                req.push(b'\n');
                let (reply, us) = exchange(text, &req, &mut out)?;
                wire_insert.push(us);
                wire_ids.extend(id_of(&reply));
            } else {
                let (report, us) = timed_us(|| engine.insert(point));
                engine_insert.push(us);
                engine_ids.push(report.map_err(io::Error::other)?.id);
            }
        }
    }
    let mut engine_delete = Vec::new();
    for id in engine_ids {
        let (deleted, us) = timed_us(|| engine.delete(id));
        deleted.map_err(io::Error::other)?;
        engine_delete.push(us);
    }
    for id in wire_ids {
        let (_, us) = exchange(text, format!("DELETE {id}\n").as_bytes(), &mut out)?;
        wire_delete.push(us);
    }

    // Batches of 32 inserts + 32 deletes; the victims are a pool inserted
    // (untimed) for the purpose, so the corpus is left alone.
    let pool: Vec<MutOp> = fresh(2 * batches * half)
        .into_iter()
        .map(|p| MutOp::Insert(p.to_vec()))
        .collect();
    let report = engine.apply(&pool).map_err(io::Error::other)?;
    let mut victims = report.results.into_iter().filter_map(Result::ok);
    let mut engine_batch = Vec::new();
    for _ in 0..batches {
        let mut ops = Vec::with_capacity(BATCH_OPS);
        for (p, victim) in fresh(half).into_iter().zip(&mut victims) {
            ops.push(MutOp::Insert(p.to_vec()));
            ops.push(MutOp::Delete(victim));
        }
        let (applied, us) = timed_us(|| engine.apply(&ops));
        applied.map_err(io::Error::other)?;
        engine_batch.push(us / ops.len() as f64);
    }
    for _ in 0..batches {
        let mut req = format!("BATCH {BATCH_OPS}\n").into_bytes();
        for (p, victim) in fresh(half).into_iter().zip(&mut victims) {
            req.extend_from_slice(b"INSERT");
            wire::push_components(p, &mut req);
            req.extend_from_slice(format!("\nDELETE {victim}\n").as_bytes());
        }
        let (_, us) = exchange(text, &req, &mut out)?;
        wire_batch.push(us / BATCH_OPS as f64);
    }

    // Core and tree depth, on a private clone of shard 0's snapshot.
    let snap = engine.shards()[0].index();
    let (mut clone, clone_s) = timed(|| PmLsh::clone(&snap));
    let mut ops: Vec<MutOp> = Vec::with_capacity(BATCH_OPS);
    let local_victims: Vec<u32> = clone.live_ids()[..half].to_vec();
    for (p, victim) in fresh(half).into_iter().zip(local_victims) {
        ops.push(MutOp::Insert(p.to_vec()));
        ops.push(MutOp::Delete(victim));
    }
    let (applied, apply_s) = timed(|| clone.apply(&ops));
    if applied.iter().any(Result::is_err) {
        out.failed += 1;
    }
    let mut tree = snap.tree().clone();
    let first_id = snap.data().len() as u32;
    let projected: Vec<Vec<f32>> = fresh(half).into_iter().map(|p| snap.project(p)).collect();
    let mut tree_insert = Vec::new();
    for (i, proj) in projected.iter().enumerate() {
        tree_insert.push(timed_us(|| tree.insert(proj, first_id + i as u32)).1);
    }
    let mut tree_delete = Vec::new();
    for i in 0..projected.len() as u32 {
        let (removed, us) = timed_us(|| tree.delete(first_id + i));
        tree_delete.push(us);
        if !removed {
            out.failed += 1;
        }
    }
    // The wire figures of a workload that writes come from its own script
    // (writes landing between queries, caches cold); elsewhere from here.
    for (script, layer) in [
        (&mut s.wire_insert, &wire_insert),
        (&mut s.wire_delete, &wire_delete),
        (&mut s.wire_batch, &wire_batch),
    ] {
        if script.is_empty() {
            script.clone_from(layer);
        }
    }
    // The shell compares like with like: both sides back to back, here.
    let wire_insert = p50(&wire_insert);
    out.metrics = vec![
        ("engine.insert_us", p50(&engine_insert)),
        ("engine.delete_us", p50(&engine_delete)),
        ("engine.batch_us_per_op", p50(&engine_batch)),
        ("engine.clone_us", clone_s * 1e6),
        ("server.write_shell_us", wire_insert - p50(&engine_insert)),
        ("core.apply_us_per_op", apply_s * 1e6 / BATCH_OPS as f64),
        ("pmtree.insert_us", p50(&tree_insert)),
        ("pmtree.delete_us", p50(&tree_delete)),
    ];
    Ok(out)
}

/// One span per line, written once, after everything was measured.
fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let mut row = Json::obj();
        row.set("id", id)
            .set("name", s.name)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns)
            .set(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            )
            .set("query", s.query as usize);
        writeln!(file, "{}", row.render())?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("wire", 0, 1000, None),
            span("engine.query", 1000, 1700, Some(0)),
            span("core.query", 1700, 2200, Some(1)),
            span("hash.project", 2200, 2250, Some(2)),
            span("metric.verify", 2250, 2550, Some(2)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![300.0, 200.0, 150.0, 50.0, 300.0]
        );
        // Self times of a chain sum back to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<f64>(), 1000.0);
    }

    #[test]
    fn replay_is_bit_identical_to_query_into() {
        let spec = workload::find("audio_wire").unwrap();
        let gen = Generator::new(spec.synth());
        let index = PmLsh::build(gen.dataset(), params());
        let queries = gen.points(40, &mut Rng::new(5));
        let mut tr = Tracer::new();
        let mut scratch = ReplayScratch {
            cursor: CursorScratch::new(),
            qp: Vec::new(),
            top: TopK::new(1),
            round: Vec::new(),
        };
        let mut ctx = QueryContext::new();
        let mut found = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            for fanout in [None, Some(300)] {
                let stats = match fanout {
                    None => index.query_into(q, 10, index.params().c, &mut ctx, &mut found),
                    Some(b) => index.query_fanout_into(q, 10, b, &mut ctx, &mut found),
                };
                let root = tr.begin("replay", None, i as u32);
                let r = replay(
                    &index,
                    q,
                    10,
                    fanout,
                    &mut scratch,
                    &mut tr,
                    root,
                    i as u32,
                    None,
                );
                tr.end(root);
                assert!(
                    bit_equal(&r.neighbors, &found),
                    "query {i} fanout {fanout:?}"
                );
                assert_eq!(r.stats, stats, "query {i} fanout {fanout:?}");
                assert!(r.abandoned <= stats.candidates_verified);
            }
        }
        let own = self_times_ns(&tr.spans);
        assert!(
            own.iter().all(|ns| *ns >= 0.0),
            "stages fit inside their replay span"
        );
    }
}

//! Model-based mutation testing for the sharded engine: a
//! [`ShardedEngine`] at `S ∈ {1, 2, 4}` runs a long random interleaving
//! of inserts, deletes and queries in lock-step with a monolithic twin
//! and a naive id→vector model, asserting after every step that the two
//! engines report identical mutation ids, live counts and (offset-
//! corrected) epochs — the global-id bijection of `pm_lsh_core::shard`
//! made observable. Checkpoints audit the live-id sets three ways
//! (monolith vs shards vs model), run the column's structural invariants
//! on every shard, and demand bit-identical exhaustive-k answers. A
//! reindex leg rebuilds both engines over the materialized live set and
//! proves the id sequence starts over identically, then keeps churning.
//! A batched leg drives the amortized `apply` path through the same
//! lock-step discipline: random mixed batches (with in-batch dependent
//! deletes, ghost ids and wrong-dimensionality inserts) go to a
//! monolithic and a sharded engine as single `apply` calls while a
//! single-op oracle replays them one `insert`/`delete` at a time —
//! per-op outcomes must agree three ways, and the batch path must
//! publish once per batch instead of once per op.

use pm_lsh_core::shard::{owner, to_global, to_local};
use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_engine::{serve, Engine, EngineConfig, MutationError, ShardedEngine};
use pm_lsh_metric::{Dataset, PointId};
use pm_lsh_stats::Rng;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn blob(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut ds = Dataset::with_capacity(d, n);
    let mut buf = vec![0.0f32; d];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    ds
}

fn config() -> EngineConfig {
    EngineConfig {
        threads: 2,
        ..Default::default()
    }
}

/// The full-state audit run at checkpoints: live-id sets equal three
/// ways, structural invariants on every shard's tree, and a bit-identical
/// exhaustive-k answer from both engines.
fn checkpoint(
    mono: &ShardedEngine,
    sharded: &ShardedEngine,
    model: &BTreeMap<PointId, Vec<f32>>,
    rng: &mut Rng,
    tag: &str,
) {
    let shards = sharded.shard_count();
    let model_ids: BTreeSet<PointId> = model.keys().copied().collect();
    let mono_ids: BTreeSet<PointId> = mono.shards()[0]
        .index()
        .live_ids()
        .iter()
        .copied()
        .collect();
    assert_eq!(mono_ids, model_ids, "{tag}: monolithic live-id set drifted");

    let mut sharded_ids = BTreeSet::new();
    for (s, shard) in sharded.shards().iter().enumerate() {
        let snap = shard.index();
        snap.tree()
            .verify_invariants()
            .unwrap_or_else(|e| panic!("{tag}: shard {s} invariant violated: {e}"));
        for &local in snap.live_ids() {
            let global = to_global(local, s, shards);
            assert!(
                sharded_ids.insert(global),
                "{tag}: global id {global} appears in two shards"
            );
        }
    }
    assert_eq!(sharded_ids, model_ids, "{tag}: sharded live-id set drifted");

    // Exhaustive k: every shard verifies all of its points, so the merged
    // answer is the exact (dist, id) ranking — identical to the monolith
    // ranking the same vectors under the same ids.
    let dim = sharded.dim();
    let mut q = vec![0.0f32; dim];
    rng.fill_normal(&mut q);
    let k = model.len();
    assert_eq!(
        sharded.query(&q, k).neighbors,
        mono.query(&q, k).neighbors,
        "{tag}: exhaustive-k answers diverged"
    );
}

/// ~160 random interleaved operations per shard count, every one
/// asserted in lock-step, plus the reindex leg.
#[test]
fn interleaved_mutations_stay_in_lockstep_with_a_monolithic_twin() {
    let dim = 12;
    let n0 = 96;
    for shards in [1usize, 2, 4] {
        let data = blob(n0, dim, 0xA11CE + shards as u64);
        let params = PmLshParams::default();
        let mono: ShardedEngine = Engine::new(PmLsh::build(data.clone(), params), config()).into();
        let sharded =
            ShardedEngine::build(&data, params, BuildOptions::default(), shards, config());
        let mut model: BTreeMap<PointId, Vec<f32>> = data
            .iter()
            .enumerate()
            .map(|(i, p)| (i as PointId, p.to_vec()))
            .collect();
        let mut rng = Rng::new(7 + shards as u64);
        let mut buf = vec![0.0f32; dim];
        // The sharded epoch is the *sum* of shard epochs: +1 per mutation
        // like the monolith, but +S per reindex — the offset tracks the
        // divergence the reindex leg introduces.
        let mut epoch_offset = 0u64;

        let step = |mono: &ShardedEngine,
                    sharded: &ShardedEngine,
                    model: &mut BTreeMap<PointId, Vec<f32>>,
                    rng: &mut Rng,
                    buf: &mut Vec<f32>,
                    epoch_offset: u64,
                    op: usize| {
            let roll = rng.below(10);
            // Keep every shard comfortably populated so WouldEmptyIndex
            // stays out of reach of the random walk.
            if roll < 4 || model.len() <= 6 * shards {
                rng.fill_normal(buf);
                let a = mono.insert(buf).expect("monolithic insert");
                let b = sharded.insert(buf).expect("sharded insert");
                assert_eq!(
                    (a.id, a.points),
                    (b.id, b.points),
                    "S={shards} op {op}: insert reports diverged"
                );
                assert_eq!(
                    a.epoch + epoch_offset,
                    b.epoch,
                    "S={shards} op {op}: insert epochs diverged"
                );
                let s = owner(b.id, shards);
                assert!(
                    sharded.shards()[s].index().contains(to_local(b.id, shards)),
                    "S={shards} op {op}: id {} not found on its owning shard {s}",
                    b.id
                );
                model.insert(b.id, buf.clone());
            } else if roll < 8 {
                let ids: Vec<PointId> = model.keys().copied().collect();
                let victim = ids[rng.below(ids.len())];
                let a = mono.delete(victim).expect("monolithic delete");
                let b = sharded.delete(victim).expect("sharded delete");
                assert_eq!(
                    (a.id, a.points),
                    (b.id, b.points),
                    "S={shards} op {op}: delete reports diverged"
                );
                assert_eq!(
                    a.epoch + epoch_offset,
                    b.epoch,
                    "S={shards} op {op}: delete epochs diverged"
                );
                assert!(
                    !sharded.shards()[owner(victim, shards)]
                        .index()
                        .contains(to_local(victim, shards)),
                    "S={shards} op {op}: id {victim} still live on its shard"
                );
                model.remove(&victim);
            } else if roll == 8 {
                // A ghost id: both engines must reject it with the same
                // *global* id in the error (the shard speaks local ids;
                // the sharded engine must translate back).
                let ghost = 1_000_000 + op as PointId;
                for (which, outcome) in [
                    ("monolithic", mono.delete(ghost)),
                    ("sharded", sharded.delete(ghost)),
                ] {
                    assert!(
                        matches!(outcome, Err(MutationError::UnknownId(g)) if g == ghost),
                        "S={shards} op {op}: {which} ghost delete not UnknownId({ghost})"
                    );
                }
            } else {
                checkpoint(mono, sharded, model, rng, &format!("S={shards} op {op}"));
            }
        };

        for op in 0..120 {
            step(
                &mono,
                &sharded,
                &mut model,
                &mut rng,
                &mut buf,
                epoch_offset,
                op,
            );
        }
        checkpoint(
            &mono,
            &sharded,
            &model,
            &mut rng,
            &format!("S={shards} pre-reindex"),
        );

        // Reindex leg: materialize the live set (ascending id order) and
        // rebuild both engines over it. Ids restart at 0..n-1 on both
        // sides — same vectors under the same ids — so parity continues.
        let mut fresh = Dataset::with_capacity(dim, model.len());
        for v in model.values() {
            fresh.push(v);
        }
        let ra = mono
            .reindex(fresh.clone(), params, BuildOptions::default())
            .expect("monolithic reindex");
        let rb = sharded
            .reindex(fresh.clone(), params, BuildOptions::default())
            .expect("sharded reindex");
        assert_eq!(
            ra.points, rb.points,
            "S={shards}: reindex point counts diverged"
        );
        model = fresh
            .iter()
            .enumerate()
            .map(|(i, p)| (i as PointId, p.to_vec()))
            .collect();
        // A reindex bumps every shard's epoch: re-measure the offset once
        // instead of modeling S-1 here, so the assertion stays meaningful
        // even if epoch bookkeeping changes.
        epoch_offset = sharded.epoch() - mono.epoch();
        checkpoint(
            &mono,
            &sharded,
            &model,
            &mut rng,
            &format!("S={shards} post-reindex"),
        );

        for op in 120..160 {
            step(
                &mono,
                &sharded,
                &mut model,
                &mut rng,
                &mut buf,
                epoch_offset,
                op,
            );
        }
        checkpoint(
            &mono,
            &sharded,
            &model,
            &mut rng,
            &format!("S={shards} final"),
        );
    }
}

/// The amortized batch path under the same lock-step discipline as the
/// single-op walk: random batches of 1..=12 mixed ops — including
/// in-batch dependent deletes (a second delete of the same id must fail
/// as `UnknownId` *inside* the batch), ghost ids and wrong-dimensionality
/// inserts — are applied as one `apply` call to a monolithic engine and
/// a sharded engine, then replayed one `insert`/`delete` at a time on a
/// single-op oracle. Per-op outcomes (assigned ids and errors) must
/// agree three ways after every batch; checkpoints audit live-id sets,
/// tree invariants and exhaustive-k answers; and the batch path must
/// publish once per non-empty batch where the oracle publishes once per
/// applied op.
#[test]
fn batched_mutations_stay_in_lockstep_with_single_op_oracles() {
    let dim = 10;
    let n0 = 80;
    for shards in [1usize, 2, 4] {
        let data = blob(n0, dim, 0xBA7C + shards as u64);
        let params = PmLshParams::default();
        let mono: ShardedEngine = Engine::new(PmLsh::build(data.clone(), params), config()).into();
        let sharded =
            ShardedEngine::build(&data, params, BuildOptions::default(), shards, config());
        let oracle: ShardedEngine =
            Engine::new(PmLsh::build(data.clone(), params), config()).into();
        let mut model: BTreeMap<PointId, Vec<f32>> = data
            .iter()
            .enumerate()
            .map(|(i, p)| (i as PointId, p.to_vec()))
            .collect();
        let mut rng = Rng::new(0xFACE + shards as u64);
        let mut buf = vec![0.0f32; dim];
        let mut published = 0u64;
        let mut applied_total = 0u64;

        for round in 0..12 {
            let width = 1 + rng.below(12);
            let live: Vec<PointId> = model.keys().copied().collect();
            let mut ops: Vec<pm_lsh_engine::MutOp> = Vec::with_capacity(width);
            for j in 0..width {
                let roll = rng.below(10);
                // Deletes stay rare enough that no shard can drain: a
                // batch removes at most `width` points from a live set
                // kept well above `6 * shards + width`.
                if roll < 5 || live.len() <= 6 * shards + width {
                    rng.fill_normal(&mut buf);
                    ops.push(pm_lsh_engine::MutOp::Insert(buf.clone()));
                } else if roll < 8 {
                    // May pick the same victim twice in one batch — the
                    // second delete must fail UnknownId mid-batch, on
                    // every path.
                    let victim = live[rng.below(live.len())];
                    ops.push(pm_lsh_engine::MutOp::Delete(victim));
                } else if roll == 8 {
                    let ghost = 1_000_000 + (round * 16 + j) as PointId;
                    ops.push(pm_lsh_engine::MutOp::Delete(ghost));
                } else {
                    ops.push(pm_lsh_engine::MutOp::Insert(vec![0.25; dim + 1]));
                }
            }

            let mono_report = mono.apply(&ops).expect("monolithic batch");
            let sharded_report = sharded.apply(&ops).expect("sharded batch");
            assert_eq!(
                mono_report.results, sharded_report.results,
                "S={shards} round {round}: batched per-op outcomes diverged"
            );
            assert_eq!(
                mono_report.points, sharded_report.points,
                "S={shards} round {round}: batched point counts diverged"
            );

            // Replay one op at a time on the oracle; every outcome —
            // assigned id or exact error — must match the batch's.
            for (i, op) in ops.iter().enumerate() {
                let outcome = match op {
                    pm_lsh_engine::MutOp::Insert(p) => oracle.insert(p).map(|r| r.id),
                    pm_lsh_engine::MutOp::Delete(id) => oracle.delete(*id).map(|r| r.id),
                };
                assert_eq!(
                    outcome, mono_report.results[i],
                    "S={shards} round {round} op {i}: single-op oracle disagreed"
                );
                match (&mono_report.results[i], op) {
                    (Ok(id), pm_lsh_engine::MutOp::Insert(p)) => {
                        model.insert(*id, p.clone());
                    }
                    (Ok(id), pm_lsh_engine::MutOp::Delete(_)) => {
                        model.remove(id);
                    }
                    (Err(_), _) => {}
                }
            }
            if mono_report.applied > 0 {
                published += 1;
            }
            assert_eq!(
                mono.epoch(),
                published,
                "S={shards} round {round}: a batch must publish exactly once"
            );
            applied_total += mono_report.applied as u64;
            assert_eq!(
                oracle.epoch(),
                applied_total,
                "S={shards} round {round}: the oracle publishes once per applied op"
            );

            if round % 3 == 2 {
                checkpoint(
                    &mono,
                    &sharded,
                    &model,
                    &mut rng,
                    &format!("S={shards} round {round}"),
                );
            }
        }
        checkpoint(
            &mono,
            &sharded,
            &model,
            &mut rng,
            &format!("S={shards} batched final"),
        );
        assert!(
            oracle.epoch() > mono.epoch(),
            "S={shards}: the single-op oracle must pay more publications than the batch path"
        );
    }
}

/// One request/reply exchange over an open wire connection.
fn exchange(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn parse_inserted_id(reply: &str) -> PointId {
    let field = reply
        .split_whitespace()
        .find_map(|f| f.strip_prefix("id="))
        .unwrap_or_else(|| panic!("no id= field in INSERT reply: {reply}"));
    field.parse().expect("id= field must be numeric")
}

/// Cross-checks one wire mutation against the in-process view: the
/// global id's liveness on its owning shard (`id mod S`, under
/// `to_local`) matches what the wire claimed, and every shard's tree
/// invariants hold.
fn audit(sharded: &ShardedEngine, id: PointId, expect_live: bool, context: &str) {
    let shards = sharded.shard_count();
    let s = owner(id, shards);
    for (other, shard) in sharded.shards().iter().enumerate() {
        let snap = shard.index();
        snap.tree()
            .verify_invariants()
            .unwrap_or_else(|e| panic!("{context}: shard {other} invariant violated: {e}"));
        if other == s {
            assert_eq!(
                snap.contains(to_local(id, shards)),
                expect_live,
                "{context}: id {id} liveness on owning shard {s} contradicts the wire"
            );
        }
        // A foreign shard holding the same *local* row is a different
        // global id (to_global differs); nothing to assert there beyond
        // the invariants.
    }
}

/// A random `INSERT`/`DELETE` walk over an open wire connection,
/// auditing shard routing, id uniqueness and invariants after every
/// verb.
#[allow(clippy::too_many_arguments)]
fn wire_walk(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    sharded: &ShardedEngine,
    rng: &mut Rng,
    live: &mut BTreeSet<PointId>,
    dim: usize,
    ops: usize,
    tag: &str,
) {
    let mut buf = vec![0.0f32; dim];
    for op in 0..ops {
        if rng.below(10) < 6 {
            rng.fill_normal(&mut buf);
            let mut line = "INSERT".to_string();
            for v in &buf {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            let reply = exchange(reader, writer, &line);
            assert!(reply.starts_with("OK id="), "{tag} op {op}: {reply}");
            let id = parse_inserted_id(&reply);
            assert!(
                live.insert(id),
                "{tag} op {op}: server reissued live global id {id}"
            );
            audit(sharded, id, true, &format!("{tag} op {op} after INSERT"));
        } else {
            let ids: Vec<PointId> = live.iter().copied().collect();
            let victim = ids[rng.below(ids.len())];
            let reply = exchange(reader, writer, &format!("DELETE {victim}"));
            assert!(
                reply.starts_with(&format!("OK deleted {victim} ")),
                "{tag} op {op}: {reply}"
            );
            live.remove(&victim);
            audit(
                sharded,
                victim,
                false,
                &format!("{tag} op {op} after DELETE"),
            );
        }
    }
}

/// Satellite property: mutations arriving over TCP land on the owning
/// shard. A served `S = 3` engine takes a random `INSERT`/`DELETE` walk
/// over the wire; after every verb the test cross-checks the server's
/// reply against the in-process view — the reported global id lives on
/// (exactly) shard `id mod S` under `to_local(id)`, global ids never
/// repeat while live, and every shard's tree invariants hold. An
/// in-process reindex then restarts the id sequence, and the wire keeps
/// mutating against the fresh ids.
#[test]
fn wire_mutations_land_on_the_owning_shard() {
    let dim = 8;
    let shards = 3;
    let data = blob(60, dim, 0xBEEF);
    let sharded = ShardedEngine::build(
        &data,
        PmLshParams::default(),
        BuildOptions::default(),
        shards,
        config(),
    );
    let handle = serve(sharded.clone(), ("127.0.0.1", 0)).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut rng = Rng::new(0xD1CE);
    let mut live: BTreeSet<PointId> = (0..60).collect();
    wire_walk(
        &mut reader,
        &mut writer,
        &sharded,
        &mut rng,
        &mut live,
        dim,
        60,
        "pre-reindex",
    );

    // Reindex the served engine in-process (the server clones share the
    // shards): ids restart at 0..n-1, and the wire walk continues against
    // the fresh sequence.
    let mut fresh = Dataset::with_capacity(dim, live.len());
    let mut scratch = vec![0.0f32; dim];
    for _ in 0..live.len() {
        rng.fill_normal(&mut scratch);
        fresh.push(&scratch);
    }
    let n = fresh.len();
    sharded
        .reindex(fresh, PmLshParams::default(), BuildOptions::default())
        .expect("reindex under the server");
    live = (0..n as PointId).collect();
    for &id in &live {
        audit(&sharded, id, true, "post-reindex");
    }

    // The next insert continues the monolithic id sequence: id == n.
    rng.fill_normal(&mut scratch);
    let mut line = "INSERT".to_string();
    for v in &scratch {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    let reply = exchange(&mut reader, &mut writer, &line);
    let id = parse_inserted_id(&reply);
    assert_eq!(
        id, n as PointId,
        "post-reindex id sequence must restart exactly where a monolith's would"
    );
    live.insert(id);
    audit(&sharded, id, true, "post-reindex first INSERT");
    wire_walk(
        &mut reader,
        &mut writer,
        &sharded,
        &mut rng,
        &mut live,
        dim,
        40,
        "post-reindex",
    );

    assert_eq!(exchange(&mut reader, &mut writer, "QUIT"), "BYE");
    handle.shutdown();
}

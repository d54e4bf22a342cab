//! The amortized batch write path: `ShardedEngine::apply` pays one
//! copy-on-write clone and one epoch bump for a whole batch, answers
//! bit-identically to the same ops applied one at a time, and the wire
//! `BATCH` verb carries all of it end to end — all-or-nothing syntax,
//! per-op semantic FAIL lines, and auth gating included. Since the wire
//! `INSERT`/`DELETE` verbs run through the same executor as a one-op
//! `BATCH`, this file also pins their reply lines as golden strings and
//! holds a `BATCH 1` twin server to bit-equality with the single verbs.

use pm_lsh_core::{BuildOptions, MutOp, PmLsh, PmLshParams};
use pm_lsh_engine::{
    serve, serve_router, Engine, EngineConfig, MutationError, Router, ServerConfig, ShardedEngine,
};
use pm_lsh_metric::Dataset;
use pm_lsh_stats::Rng;
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

fn engine_over(data: Dataset) -> ShardedEngine {
    Engine::new(
        PmLsh::build(data, PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .into()
}

/// A batch of W mutations does exactly ONE publication: the epoch moves
/// from e to e+1, never e+W.
#[test]
fn one_batch_means_one_epoch_bump() {
    let extra = blob(40, 6, 11);
    let engine = engine_over(blob(300, 6, 10));
    assert_eq!(engine.epoch(), 0);

    let mut ops: Vec<MutOp> = (0..16)
        .map(|i| MutOp::Insert(extra.point(i).to_vec()))
        .collect();
    ops.extend([3u32, 7, 11, 13].map(MutOp::Delete));
    let w = ops.len();

    let report = engine.apply(&ops).expect("batch applies");
    assert_eq!(
        engine.epoch(),
        1,
        "{w} ops must publish once, not {w} times"
    );
    assert_eq!(report.epoch, 1);
    assert_eq!(report.applied, w);
    assert_eq!(report.failed(), 0);
    assert_eq!(report.points, 300 + 16 - 4);

    // A second batch bumps to exactly 2.
    let report = engine
        .apply(&[MutOp::Insert(extra.point(20).to_vec())])
        .unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(engine.epoch(), 2);

    // An empty batch and an all-rejected batch publish nothing.
    let report = engine.apply(&[]).unwrap();
    assert_eq!(report.epoch, 2, "empty batch must not move the epoch");
    assert_eq!(report.applied, 0);
    let report = engine
        .apply(&[MutOp::Delete(999_999), MutOp::Insert(vec![1.0, 2.0])])
        .unwrap();
    assert_eq!(report.applied, 0);
    assert_eq!(report.failed(), 2);
    assert_eq!(
        engine.epoch(),
        2,
        "a batch with zero applied ops must not publish"
    );
}

/// The batched engine answers every query bit-identically to a twin that
/// applied the same ops one `insert`/`delete` at a time — the amortized
/// path changes cost, never answers.
#[test]
fn batched_engine_matches_single_op_twin_bit_for_bit() {
    let data = blob(400, 8, 20);
    let extra = blob(30, 8, 21);
    let batched = engine_over(data.clone());
    let twin = engine_over(data);

    let ops: Vec<MutOp> = vec![
        MutOp::Insert(extra.point(0).to_vec()),
        MutOp::Delete(5),
        MutOp::Insert(extra.point(1).to_vec()),
        MutOp::Insert(extra.point(2).to_vec()),
        MutOp::Delete(400), // the id op 0 just inserted
        MutOp::Delete(17),
    ];
    let report = batched.apply(&ops).expect("batch applies");
    assert_eq!(report.applied, 6);
    for op in &ops {
        match op {
            MutOp::Insert(p) => {
                twin.insert(p).expect("twin insert");
            }
            MutOp::Delete(id) => {
                twin.delete(*id).expect("twin delete");
            }
        }
    }
    // Cost asymmetry is the whole point: 1 publication vs 6.
    assert_eq!(batched.epoch(), 1);
    assert_eq!(twin.epoch(), 6);

    let a = batched.info();
    let b = twin.info();
    assert_eq!(a.points, b.points);
    for qi in 0..12 {
        let q = extra.point(qi % extra.len());
        let x = batched.query(q, 10);
        let y = twin.query(q, 10);
        assert_eq!(x.neighbors, y.neighbors, "query {qi}: neighbors diverged");
        assert_eq!(x.stats, y.stats, "query {qi}: execution counters diverged");
    }
}

/// Semantic refusals fail only their own op; the survivors apply and the
/// batch still publishes exactly once.
#[test]
fn semantic_failures_poison_only_their_own_op() {
    let engine = engine_over(blob(200, 6, 30));
    let ops = vec![
        MutOp::Insert(vec![1.0; 5]),      // wrong dimensionality
        MutOp::Insert(vec![f32::NAN; 6]), // non-finite component
        MutOp::Insert(vec![0.5; 6]),      // fine -> id 200
        MutOp::Delete(200),               // fine: deletes the new point
        MutOp::Delete(4242),              // unknown id
    ];
    let report = engine.apply(&ops).expect("batch applies");
    assert_eq!(
        report.results,
        vec![
            Err(MutationError::DimensionMismatch {
                expected: 6,
                got: 5
            }),
            Err(MutationError::NonFiniteComponent),
            Ok(200),
            Ok(200),
            Err(MutationError::UnknownId(4242)),
        ]
    );
    assert_eq!(report.applied, 2);
    assert_eq!(report.failed(), 3);
    assert_eq!(report.points, 200);
    assert_eq!(engine.epoch(), 1, "two ops applied: exactly one bump");
}

/// The sharded batch path assigns the same external ids as the monolith
/// (the interleaved bijection preserves the id sequence) and matches a
/// sharded twin that applied the same ops one at a time, query for query.
#[test]
fn sharded_batch_matches_monolith_ids_and_single_op_twin_answers() {
    let data = blob(360, 8, 40);
    let extra = blob(24, 8, 41);
    let ops: Vec<MutOp> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                MutOp::Delete((i * 17) as u32 % 360)
            } else {
                MutOp::Insert(extra.point(i).to_vec())
            }
        })
        .collect();

    let mono = engine_over(data.clone());
    let mono_report = mono.apply(&ops).expect("monolith batch");

    for shards in [2usize, 4] {
        let config = EngineConfig {
            threads: 1,
            ..Default::default()
        };
        let batched = ShardedEngine::build(
            &data,
            PmLshParams::default(),
            BuildOptions::default(),
            shards,
            config,
        );
        let twin = ShardedEngine::build(
            &data,
            PmLshParams::default(),
            BuildOptions::default(),
            shards,
            config,
        );
        let epoch_before = batched.epoch();
        let report = batched.apply(&ops).expect("sharded batch");
        assert_eq!(
            report.results, mono_report.results,
            "S={shards}: per-op outcomes diverged from the monolith"
        );
        assert_eq!(report.points, mono_report.points);
        let touched = shards.min(ops.len());
        assert!(
            report.epoch > epoch_before && report.epoch <= epoch_before + touched as u64,
            "S={shards}: epoch moved by {}, expected 1..={touched}",
            report.epoch - epoch_before
        );
        for op in &ops {
            match op {
                MutOp::Insert(p) => {
                    twin.insert(p).expect("twin insert");
                }
                MutOp::Delete(id) => {
                    twin.delete(*id).expect("twin delete");
                }
            }
        }
        assert_eq!(batched.len(), twin.len());
        for qi in 0..10 {
            let q = extra.point(qi % extra.len());
            let x = batched.query(q, 10);
            let y = twin.query(q, 10);
            assert_eq!(
                x.neighbors, y.neighbors,
                "S={shards}, query {qi}: batched shards diverged from single-op twin"
            );
        }
    }
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    recv_line(reader)
}

fn recv_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

/// The wire `BATCH` verb end to end: ops arrive split across writes, the
/// reply comes once after the last op line, the epoch bumps exactly once,
/// semantic failures come back as FAIL lines, one malformed line rejects
/// the whole batch unapplied, and mid-batch lines are never commands.
#[test]
fn wire_batch_roundtrip() {
    let engine = engine_over(blob(300, 6, 50));
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    assert!(roundtrip(&mut reader, &mut writer, "INDEXINFO").contains("epoch=0"));

    // Header, then each op line in its own write with a pause between:
    // the server must buffer until the count is met and reply exactly
    // once, after the last line.
    writer.write_all(b"BATCH 3\n").unwrap();
    for op in [
        "INSERT 1 2 3 4 5 6\n",
        "INSERT 9 9 9 9 9 9\n",
        "DELETE 300\n", // the id the first op just created
    ] {
        std::thread::sleep(std::time::Duration::from_millis(20));
        writer.write_all(op.as_bytes()).unwrap();
    }
    assert_eq!(
        recv_line(&mut reader),
        "OK applied=3 failed=0 epoch=1 points=301"
    );
    let info = roundtrip(&mut reader, &mut writer, "INDEXINFO");
    assert!(
        info.contains("epoch=1") && info.contains("points=301"),
        "one batch must mean one epoch bump: {info}"
    );
    // The surviving insert is served immediately.
    assert_eq!(
        roundtrip(&mut reader, &mut writer, "QUERY 1 9 9 9 9 9 9"),
        "OK 301:0"
    );

    // Semantic failure: its FAIL line follows the summary; the good op
    // still applies and the batch still publishes once.
    assert_eq!(
        roundtrip(
            &mut reader,
            &mut writer,
            "BATCH 2\nDELETE 300\nINSERT 1 1 1 1 1 1"
        ),
        "OK applied=1 failed=1 epoch=2 points=302"
    );
    assert_eq!(recv_line(&mut reader), "FAIL 0 unknown point id 300");

    // Syntactic failure: all-or-nothing. The valid DELETE on line 1 must
    // NOT apply, the epoch must not move, the connection stays usable.
    assert_eq!(
        roundtrip(
            &mut reader,
            &mut writer,
            "BATCH 2\nINSERT 1 2 nan 4 5 6\nDELETE 301"
        ),
        "ERR batch line 0: bad vector component 'nan'"
    );
    let info = roundtrip(&mut reader, &mut writer, "INDEXINFO");
    assert!(
        info.contains("epoch=2") && info.contains("points=302"),
        "a rejected batch must apply nothing: {info}"
    );

    // Mid-batch, every line is an op — even a verb like QUIT.
    assert_eq!(
        roundtrip(&mut reader, &mut writer, "BATCH 1\nQUIT"),
        "ERR batch line 0: unknown batch op 'QUIT' (INSERT or DELETE)"
    );
    assert_eq!(roundtrip(&mut reader, &mut writer, "PING"), "PONG");

    // Header validation happens before any op line is consumed.
    for (header, want) in [
        ("BATCH", "ERR BATCH needs a positive op count"),
        ("BATCH 0", "ERR BATCH needs a positive op count"),
        ("BATCH x", "ERR BATCH needs a positive op count"),
        ("BATCH 2 3", "ERR BATCH takes exactly one op count"),
        ("BATCH 4097", "ERR BATCH accepts at most 4096 ops"),
    ] {
        assert_eq!(&roundtrip(&mut reader, &mut writer, header), want);
    }

    assert_eq!(roundtrip(&mut reader, &mut writer, "QUIT"), "BYE");
    handle.shutdown();
}

/// `BATCH` is auth-gated like the other mutating verbs: the op lines are
/// consumed either way, but nothing applies before `AUTH`.
#[test]
fn wire_batch_requires_auth() {
    let engine = engine_over(blob(200, 6, 60));
    let router = Router::with_engine("default", engine).unwrap();
    let config = ServerConfig {
        auth_token: Some("sekrit".to_string()),
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    assert_eq!(
        roundtrip(&mut reader, &mut writer, "BATCH 1\nINSERT 1 2 3 4 5 6"),
        "ERR authentication required (AUTH <token>)"
    );
    let info = roundtrip(&mut reader, &mut writer, "INDEXINFO");
    assert!(
        info.contains("epoch=0") && info.contains("points=200"),
        "an unauthenticated batch must apply nothing: {info}"
    );

    assert_eq!(
        roundtrip(&mut reader, &mut writer, "AUTH sekrit"),
        "OK authenticated"
    );
    assert_eq!(
        roundtrip(&mut reader, &mut writer, "BATCH 1\nINSERT 1 2 3 4 5 6"),
        "OK applied=1 failed=0 epoch=1 points=201"
    );

    handle.shutdown();
}

/// The batch path composes with the rest of the engine: snapshots taken
/// by concurrent readers stay self-consistent while batches land. The
/// writer waits for a query to get through before each batch, so every
/// batch lands under a live reader.
#[test]
fn concurrent_queries_see_consistent_snapshots_across_batches() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    let data = blob(400, 8, 70);
    let extra = blob(64, 8, 71);
    let engine = engine_over(data);
    let q = extra.point(0).to_vec();
    let (stop, served) = (AtomicBool::new(false), AtomicU64::new(0));

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            while !stop.load(Relaxed) {
                let r = engine.query(&q, 5);
                assert_eq!(r.neighbors.len(), 5);
                served.fetch_add(1, Relaxed);
            }
        });

        for round in 0..8 {
            let before = served.load(Relaxed);
            while served.load(Relaxed) == before {
                assert!(!reader.is_finished(), "the reader stopped querying");
                std::thread::yield_now();
            }
            let ops: Vec<MutOp> = (0..8)
                .map(|i| MutOp::Insert(extra.point(round * 8 + i).to_vec()))
                .collect();
            let report = engine.apply(&ops).expect("batch applies");
            assert_eq!(report.applied, 8);
            assert_eq!(report.epoch, round as u64 + 1);
        }
        stop.store(true, Relaxed);
        reader.join().expect("reader thread");
    });
    assert!(served.into_inner() >= 8, "fewer queries than batches");
    assert_eq!(engine.epoch(), 8);
    assert_eq!(engine.info().points, 400 + 64);
}

/// One served index plus a wire connection to it.
struct Wire {
    engine: ShardedEngine,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    _handle: pm_lsh_engine::ServerHandle,
}

impl Wire {
    fn serve(engine: ShardedEngine, config: ServerConfig) -> Self {
        let router = Router::with_engine("default", engine.clone()).unwrap();
        let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind port 0");
        let stream = TcpStream::connect(handle.addr()).unwrap();
        Self {
            engine,
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            _handle: handle,
        }
    }

    fn over(data: &Dataset, shards: usize) -> Self {
        let config = EngineConfig {
            threads: 1,
            ..Default::default()
        };
        let engine = ShardedEngine::build(
            data,
            PmLshParams::default(),
            BuildOptions::default(),
            shards,
            config,
        );
        Self::serve(engine, ServerConfig::default())
    }

    /// One request (possibly several lines), one reply line. A single
    /// write: line and newline in two would stall ~40 ms on Nagle's
    /// algorithm meeting the delayed ACK.
    fn send(&mut self, request: &str) -> String {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        recv_line(&mut self.reader)
    }

    /// Every shard's live ids, in storage order.
    fn live_ids(&self) -> Vec<Vec<u32>> {
        self.engine
            .shards()
            .iter()
            .map(|s| s.index().live_ids().to_vec())
            .collect()
    }
}

/// A wire `INSERT v` / `DELETE id` and a `BATCH 1` carrying the same op
/// are one executor: twin servers fed one or the other end with equal
/// ids, epochs and points, refuse the same ops with the same message,
/// and answer follow-up `QUERY`s byte for byte — at S = 1, 2 and 4.
#[test]
fn wire_single_ops_match_a_batch_of_one_twin() {
    let data = blob(240, 6, 80);
    let extra = blob(12, 6, 81);
    let line = |v: &[f32]| {
        let fields: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        fields.join(" ")
    };
    // Inserts, deletes of built and of freshly inserted points, and one
    // refusal of each kind (a refused op must move nothing on either side).
    let mut ops: Vec<String> = Vec::new();
    for i in 0..12 {
        ops.push(format!("INSERT {}", line(extra.point(i))));
        if i % 3 == 1 {
            ops.push(format!("DELETE {}", i * 19));
            ops.push(format!("DELETE {}", 240 + i));
        }
    }
    ops.push("DELETE 7".to_string());
    ops.push("DELETE 7".to_string()); // second time: unknown id
    ops.push("INSERT 1 2 3".to_string()); // wrong dimensionality

    for shards in [1usize, 2, 4] {
        let mut single = Wire::over(&data, shards);
        let mut batched = Wire::over(&data, shards);
        for op in &ops {
            let a = single.send(op);
            let b = batched.send(&format!("BATCH 1\n{op}"));
            let tail = a.split_once(" epoch=").map(|(_, tail)| tail.to_string());
            match (a.strip_prefix("ERR "), tail) {
                (Some(message), _) => {
                    assert!(
                        b.starts_with("OK applied=0 failed=1 epoch="),
                        "S={shards}, {op}: {a} vs {b}"
                    );
                    assert_eq!(recv_line(&mut batched.reader), format!("FAIL 0 {message}"));
                }
                (None, Some(tail)) => {
                    assert_eq!(b, format!("OK applied=1 failed=0 epoch={tail}"), "{op}");
                }
                (None, None) => panic!("S={shards}, {op}: unexpected reply {a}"),
            }
            assert_eq!(single.send("INDEXINFO"), batched.send("INDEXINFO"), "{op}");
        }
        assert_eq!(single.live_ids(), batched.live_ids(), "S={shards}");
        assert_eq!(single.engine.epoch(), batched.engine.epoch());
        for qi in 0..extra.len() {
            let query = format!("QUERY 10 {}", line(extra.point(qi)));
            let reply = single.send(&query);
            assert!(reply.starts_with("OK "), "{reply}");
            assert_eq!(reply, batched.send(&query), "S={shards}, query {qi}");
        }
    }
}

/// Every `INSERT` / `DELETE` reply line of PROTOCOL.md — both successes
/// and the whole error catalogue — as golden strings, so the executor the
/// single verbs share with `BATCH` cannot reword one.
#[test]
fn wire_single_op_reply_lines_are_golden() {
    let two = Dataset::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    let engine = engine_over(two);
    let config = ServerConfig {
        auth_token: Some("sekrit".to_string()),
        ..Default::default()
    };
    let mut wire = Wire::serve(engine, config);
    for (request, want) in [
        ("INSERT 1 1 1", "ERR authentication required (AUTH <token>)"),
        ("DELETE 0", "ERR authentication required (AUTH <token>)"),
        // The gate answers before the arguments are judged; a BATCH
        // header alone is validated first.
        ("INSERT", "ERR authentication required (AUTH <token>)"),
        ("DELETE x y", "ERR authentication required (AUTH <token>)"),
        ("BATCH 1\nFROB", "ERR authentication required (AUTH <token>)"),
        ("BATCH 0", "ERR BATCH needs a positive op count"),
        ("AUTH sekrit", "OK authenticated"),
        ("BATCH 1\nINSERT 1 nan 3", "ERR batch line 0: bad vector component 'nan'"),
        ("BATCH 2\nDELETE 0\nDELETE", "ERR batch line 1: DELETE needs a point id"),
        ("BATCH 1\nQUERY 1 1 2 3", "ERR batch line 0: unknown batch op 'QUERY' (INSERT or DELETE)"),
        ("INSERT", "ERR INSERT needs <v1> ... <vd>"),
        ("INSERT 1 nan 3", "ERR bad vector component 'nan'"),
        ("INSERT 1 1e39 3", "ERR bad vector component '1e39'"),
        ("INSERT 1 2 3 4", "ERR point has 4 components, index dimensionality is 3"),
        ("DELETE", "ERR DELETE needs a point id"),
        ("DELETE x", "ERR DELETE needs a point id"),
        ("DELETE -1", "ERR DELETE needs a point id"),
        ("DELETE 1 2", "ERR DELETE takes exactly one point id"),
        ("DELETE 99999", "ERR unknown point id 99999"),
        ("INSERT 7 8 9", "OK id=2 epoch=1 points=3"),
        ("DELETE 2", "OK deleted 2 epoch=2 points=2"),
        ("DELETE 2", "ERR unknown point id 2"),
        ("DELETE 0", "OK deleted 0 epoch=3 points=1"),
        ("DELETE 1", "ERR cannot delete the last indexed point"),
        ("INDEXINFO", "INDEXINFO name=default points=1 dim=3 m=15 c=1.5 epoch=3 reindexing=false state=serving pct=100 shards=1"),
    ] {
        assert_eq!(wire.send(request), want, "{request}");
    }
    // Unreachable through the text grammar (the parser already refuses
    // non-finite floats) but part of the catalogue: the engine's wording.
    assert_eq!(
        format!("ERR {}", MutationError::NonFiniteComponent),
        "ERR point contains a non-finite component"
    );

    // Mid-rebuild refusal, for the single verbs and for BATCH alike. The
    // requests go out once the rebuild holds its slot; the build takes
    // far longer than three round trips, and should it ever win the race
    // the gauge says so and the check is skipped, never wrong.
    let engine = wire.engine.clone();
    let rebuilding = std::thread::spawn(move || {
        let rebuild = blob(20_000, 3, 82);
        engine.reindex(rebuild, PmLshParams::default(), BuildOptions::default())
    });
    while !wire.engine.info().reindexing && !rebuilding.is_finished() {
        std::thread::yield_now();
    }
    let replies = [
        wire.send("INSERT 1 2 3"),
        wire.send("DELETE 1"),
        wire.send("BATCH 1\nINSERT 1 2 3"),
    ];
    if wire.engine.info().reindexing {
        for reply in replies {
            assert_eq!(
                reply,
                "ERR a reindex is in progress; retry once it completes"
            );
        }
    }
    rebuilding.join().unwrap().expect("reindex");
    assert_eq!(
        format!("ERR {}", MutationError::ReindexInProgress),
        "ERR a reindex is in progress; retry once it completes"
    );
}

//! Live snapshot swap: queries issued while `ShardedEngine::reindex` runs must
//! all complete successfully against the old or the new snapshot — never
//! error, never block until the build finishes — and the TCP `REINDEX` /
//! `INDEXINFO` verbs must drive the same machinery end to end.

use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_engine::{
    serve, serve_router, Engine, EngineConfig, ReindexError, Router, ServerConfig, ShardedEngine,
};
use pm_lsh_metric::Dataset;
use pm_lsh_stats::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

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

#[test]
fn queries_during_reindex_complete_against_old_or_new_snapshot() {
    let d = 16;
    let old_data = blob(1500, d, 100);
    let new_data = blob(2300, d, 101);
    let queries = blob(40, d, 102);
    let params = PmLshParams::default();

    let engine: ShardedEngine = Engine::new(
        PmLsh::build(old_data.clone(), params),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .into();
    assert_eq!(engine.epoch(), 0);

    // Hammer the engine from several threads for the whole duration of a
    // background reindex. Every query must return a full, well-formed
    // answer; a dropped reply channel (worker panic) or a half-built
    // snapshot would fail loudly here.
    let stop = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    let max_len = old_data.len().max(new_data.len());
    let report = std::thread::scope(|scope| {
        for t in 0..3usize {
            let engine = engine.clone();
            let queries = &queries;
            let stop = &stop;
            let completed = &completed;
            scope.spawn(move || {
                let mut qi = t;
                while !stop.load(Ordering::Relaxed) {
                    let q = queries.point(qi % queries.len());
                    let res = engine.query(q, 5);
                    assert_eq!(res.neighbors.len(), 5, "short answer during reindex");
                    assert!(
                        res.neighbors.iter().all(|n| n.dist.is_finite()),
                        "non-finite distance during reindex"
                    );
                    // Ids must be valid for whichever snapshot answered.
                    assert!(
                        res.neighbors.iter().all(|n| (n.id as usize) < max_len),
                        "neighbor id out of range for both snapshots"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                    qi += 3;
                }
            });
        }

        let report = engine
            .reindex(new_data.clone(), params, BuildOptions::with_threads(2))
            .expect("reindex must start");
        // Let the query threads observe the new snapshot for a few rounds.
        for q in queries.iter().take(5) {
            let _ = engine.query(q, 5);
        }
        stop.store(true, Ordering::Relaxed);
        report
    });

    assert_eq!(report.epoch, 1);
    assert_eq!(report.points, new_data.len());
    assert!(
        completed.load(Ordering::Relaxed) > 0,
        "no concurrent queries ran"
    );
    assert_eq!(engine.epoch(), 1);

    // After the swap the engine answers exactly like a fresh build over
    // the new dataset.
    let fresh = PmLsh::build_with_opts(new_data.clone(), params, BuildOptions::with_threads(2));
    for q in queries.iter().take(10) {
        assert_eq!(engine.query(q, 5).neighbors, fresh.query(q, 5).neighbors);
    }

    let info = engine.info();
    assert_eq!(info.points, new_data.len());
    assert_eq!(info.epoch, 1);
    assert!(!info.reindexing);
}

#[test]
fn reindex_rejects_bad_datasets_and_serializes_rebuilds() {
    let d = 8;
    let engine: ShardedEngine = Engine::new(
        PmLsh::build(blob(300, d, 200), PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .into();

    let wrong_dim = blob(100, d + 1, 201);
    assert_eq!(
        engine
            .reindex(wrong_dim, PmLshParams::default(), BuildOptions::default())
            .err(),
        Some(ReindexError::DimensionMismatch {
            served: d,
            offered: d + 1
        })
    );

    let empty = Dataset::with_capacity(d, 0);
    assert_eq!(
        engine
            .reindex(empty, PmLshParams::default(), BuildOptions::default())
            .err(),
        Some(ReindexError::EmptyDataset)
    );

    // A poisoned dataset file (NaN component) must be a typed error, not a
    // panic on the background build thread.
    let mut poisoned = blob(100, d, 210);
    poisoned.point_mut(42)[3] = f32::NAN;
    assert_eq!(
        engine
            .reindex(poisoned, PmLshParams::default(), BuildOptions::default())
            .err(),
        Some(ReindexError::NonFiniteData)
    );

    // Two sequential reindexes both land, bumping the epoch each time.
    for expected_epoch in 1..=2u64 {
        let report = engine
            .reindex(
                blob(400, d, 202 + expected_epoch),
                PmLshParams::default(),
                BuildOptions::default(),
            )
            .expect("sequential reindex");
        assert_eq!(report.epoch, expected_epoch);
    }
    assert_eq!(engine.epoch(), 2);
}

/// Two callers reindex one two-shard engine at once: A onto a large
/// dataset, B over and over onto a small one. A reindex claims every
/// shard before it builds, so afterwards both shards serve one and the
/// same dataset, only the calls that landed moved the epoch (two shard
/// swaps each), and the rebuild slots are free again.
#[test]
fn concurrent_reindexes_never_mix_datasets() {
    let d = 8;
    let (params, opts) = (PmLshParams::default(), BuildOptions::with_threads(1));
    let large = Arc::new(blob(20_000, d, 500));
    let small = Arc::new(blob(3_000, d, 501));
    let config = EngineConfig {
        threads: 1,
        ..Default::default()
    };
    for run in 0..8u64 {
        let engine = ShardedEngine::build(&blob(200, d, 502 + run), params, opts, 2, config);
        let a_done = AtomicBool::new(false);
        let landed = std::thread::scope(|scope| {
            let b = scope.spawn(|| {
                let mut landed = 0u64;
                while !a_done.load(Ordering::Relaxed) {
                    match engine.reindex(Arc::clone(&small), params, opts) {
                        Ok(_) => landed += 1,
                        Err(ReindexError::InProgress) => std::thread::yield_now(),
                        Err(e) => panic!("run {run}: B's reindex refused: {e}"),
                    }
                }
                landed
            });
            let a = engine.reindex(Arc::clone(&large), params, opts);
            a_done.store(true, Ordering::Relaxed);
            let landed = b.join().expect("caller B");
            match a {
                Ok(_) => landed + 1,
                Err(ReindexError::InProgress) => landed,
                Err(e) => panic!("run {run}: A's reindex refused: {e}"),
            }
        });

        let first = |s: usize| engine.shards()[s].index().data().point(0).to_vec();
        let served = if first(0) == large.point(0) {
            &large
        } else {
            &small
        };
        for s in 0..2 {
            assert_eq!(first(s), served.point(s), "run {run}: shard {s} mixed");
        }
        assert_eq!(engine.len(), served.len(), "run {run}");
        assert_eq!(
            engine.epoch(),
            2 * landed,
            "run {run}: a refused reindex swapped a shard"
        );
        let report = engine
            .reindex(Arc::clone(&small), params, opts)
            .expect("the slots were released");
        assert_eq!(report.epoch, 2 * landed + 2);
        assert!(!engine.info().reindexing);
    }
}

#[test]
fn tcp_reindex_and_indexinfo_roundtrip() {
    let d = 12;
    let old_data = blob(500, d, 300);
    let new_data = blob(800, d, 301);
    let params = PmLshParams::default();

    // The REINDEX verb loads a server-side file; write the new dataset to
    // a unique temp path the server process (us) can read.
    let path = std::env::temp_dir().join(format!(
        "pmlsh-reindex-test-{}-{}.fvecs",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    pm_lsh_data::write_fvecs(&path, &new_data).expect("write temp fvecs");

    let engine: ShardedEngine =
        Engine::new(PmLsh::build(old_data, params), EngineConfig::default()).into();
    let handle = serve(engine.clone(), ("127.0.0.1", 0)).expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    let info = exchange("INDEXINFO\n");
    assert!(
        info.starts_with("INDEXINFO name=default points=500") && info.contains("epoch=0"),
        "unexpected pre-reindex info: {info}"
    );

    let reply = exchange(&format!("REINDEX {}\n", path.display()));
    assert!(
        reply.starts_with("OK index=default epoch=1 points=800"),
        "unexpected REINDEX reply: {reply}"
    );

    let info = exchange("INDEXINFO\n");
    assert!(
        info.starts_with("INDEXINFO name=default points=800") && info.contains("epoch=1"),
        "unexpected post-reindex info: {info}"
    );

    // Errors come back as ERR lines and leave the connection usable.
    let reply = exchange("REINDEX /nonexistent/nope.fvecs\n");
    assert!(reply.starts_with("ERR"), "missing file must ERR: {reply}");
    assert_eq!(exchange("PING\n"), "PONG");

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// With `ServerConfig::auth_token` set, every mutating verb (`REINDEX`,
/// `ATTACH`, `DETACH`) answers `ERR authentication required` until the
/// connection presents the right `AUTH <token>`; read-only verbs stay
/// open throughout.
#[test]
fn auth_gates_mutating_verbs() {
    let d = 10;
    let old_data = blob(400, d, 400);
    let new_data = blob(600, d, 401);
    let path = std::env::temp_dir().join(format!(
        "pmlsh-auth-test-{}-{}.fvecs",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    pm_lsh_data::write_fvecs(&path, &new_data).expect("write temp fvecs");

    let engine: ShardedEngine = Engine::new(
        PmLsh::build(old_data, PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .into();
    let router = Router::with_engine("main", engine).unwrap();
    let config = ServerConfig {
        auth_token: Some("sekrit-token".to_string()),
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    // Read-only verbs never need auth.
    assert_eq!(exchange("PING"), "PONG");
    assert!(exchange("INDEXINFO").starts_with("INDEXINFO name=main points=400"));

    // Mutating verbs are locked until AUTH.
    let denied = "ERR authentication required (AUTH <token>)";
    assert_eq!(exchange(&format!("REINDEX {}", path.display())), denied);
    assert_eq!(
        exchange(&format!("ATTACH other {}", path.display())),
        denied
    );
    assert_eq!(exchange("DETACH main"), denied);

    // A wrong token does not unlock (and the connection stays usable).
    assert_eq!(exchange("AUTH wrong-token"), "ERR bad token");
    assert_eq!(exchange(&format!("REINDEX {}", path.display())), denied);

    // The right token unlocks this connection.
    assert_eq!(exchange("AUTH sekrit-token"), "OK authenticated");
    let reply = exchange(&format!("REINDEX {}", path.display()));
    assert!(
        reply.starts_with("OK index=main epoch=1 points=600"),
        "authenticated REINDEX failed: {reply}"
    );
    assert!(exchange(&format!("ATTACH other {}", path.display()))
        .starts_with("OK attached other points=600"));
    assert_eq!(exchange("DETACH other"), "OK detached other");

    // Auth is per-connection: a fresh connection starts locked again.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut fresh = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    assert_eq!(fresh("DETACH main"), denied);

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

//! Loopback tests of the TCP serving layer: a server on port 0, 100
//! concurrent client queries with recall checked against the sequential
//! in-process run, graceful-drain semantics, the connection cap, and
//! multi-index routing parity.

use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_data::{exact_knn_batch, recall, PaperDataset, Scale};
use pm_lsh_engine::server::parse_ok_response;
use pm_lsh_engine::{
    serve, serve_router, Engine, EngineConfig, Router, ServerConfig, ShardedEngine,
};
use pm_lsh_metric::{Dataset, Neighbor};
use pm_lsh_stats::Rng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 10;
const CLIENTS: usize = 10;
const QUERIES_PER_CLIENT: usize = 10;

fn query_line(q: &[f32], k: usize) -> String {
    let mut line = format!("QUERY {k}");
    for v in q {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line.push('\n');
    line
}

#[test]
fn hundred_concurrent_tcp_queries_match_sequential_recall() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = Arc::new(generator.dataset());
    let queries = generator.queries(CLIENTS * QUERIES_PER_CLIENT);
    let index = Arc::new(PmLsh::build(
        Arc::clone(&data),
        PmLshParams::paper_defaults(),
    ));

    let engine: ShardedEngine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .into();
    let handle = serve(engine.clone(), ("127.0.0.1", 0)).expect("bind port 0");
    let addr = handle.addr();

    // CLIENTS threads, each its own connection, QUERIES_PER_CLIENT each.
    let mut tcp_neighbors: Vec<Option<Vec<Neighbor>>> = vec![None; queries.len()];
    std::thread::scope(|scope| {
        let chunks: Vec<(usize, Vec<Vec<f32>>)> = (0..CLIENTS)
            .map(|ci| {
                let start = ci * QUERIES_PER_CLIENT;
                let qs = (start..start + QUERIES_PER_CLIENT)
                    .map(|qi| queries.point(qi).to_vec())
                    .collect();
                (start, qs)
            })
            .collect();
        let mut handles = Vec::new();
        for (start, qs) in chunks {
            handles.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect to loopback server");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut answers = Vec::with_capacity(qs.len());
                for q in &qs {
                    writer.write_all(query_line(q, K).as_bytes()).unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    let pairs = parse_ok_response(response.trim()).expect("OK response");
                    answers.push(
                        pairs
                            .into_iter()
                            .map(|(id, dist)| Neighbor::new(dist, id))
                            .collect(),
                    );
                }
                (start, answers)
            }));
        }
        for h in handles {
            let (start, answers) = h.join().expect("client thread");
            for (i, a) in answers.into_iter().enumerate() {
                tcp_neighbors[start + i] = Some(a);
            }
        }
    });

    let truth = exact_knn_batch(data.view(), queries.view(), K, 0);
    let nq = queries.len() as f64;
    let mut tcp_recall = 0.0;
    let mut seq_recall = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        let served = tcp_neighbors[qi].as_ref().expect("every query answered");
        let sequential = index.query(q, K).neighbors;
        // The engine adds transport, not approximation: same ids in order.
        assert_eq!(
            served.iter().map(|n| n.id).collect::<Vec<_>>(),
            sequential.iter().map(|n| n.id).collect::<Vec<_>>(),
            "query {qi}: TCP ids diverged from sequential"
        );
        tcp_recall += recall(served, &truth[qi]);
        seq_recall += recall(&sequential, &truth[qi]);
    }
    assert!(
        tcp_recall / nq >= seq_recall / nq - 1e-9,
        "TCP recall {:.4} fell below sequential {:.4}",
        tcp_recall / nq,
        seq_recall / nq
    );
    assert_eq!(engine.stats().queries, queries.len() as u64);

    handle.shutdown();
}

#[test]
fn protocol_control_commands_and_errors() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let data = generator.dataset();
    let dim = data.dim();
    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::paper_defaults()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim().to_string()
    };

    assert_eq!(roundtrip("PING"), "PONG");
    assert!(roundtrip("STATS").starts_with("STATS index=default queries="));
    assert!(roundtrip("FROB 1 2 3").starts_with("ERR unknown command"));
    assert!(roundtrip("QUERY").starts_with("ERR QUERY needs"));
    assert!(roundtrip("QUERY 0 1.0").starts_with("ERR QUERY needs"));
    assert!(roundtrip("QUERY 3 1.0 2.0").starts_with("ERR query has 2 components"));
    assert!(roundtrip("QUERY 3 nan").starts_with("ERR bad vector component"));

    // PROTOCOL.md's "Error replies" catalogue as golden lines: on an open
    // server with an index attached, every verb words its own argument
    // errors (and tolerates what it always tolerated).
    for (request, want) in [
        ("FROB 1 2 3", "ERR unknown command 'FROB'"),
        ("ping", "ERR unknown command 'ping'"),
        ("PING extra", "PONG"),
        ("HELLO gopher", "ERR HELLO supports: text, binary"),
        ("HELLO text binary", "ERR HELLO supports: text, binary"),
        ("HELLO", "OK text"),
        ("LISTINDEXES", "INDEXES default"),
        ("QUERY", "ERR QUERY needs a positive integer k"),
        ("QUERY x", "ERR QUERY needs a positive integer k"),
        ("QUERY -1 1.0", "ERR QUERY needs a positive integer k"),
        ("QUERY 0 abc", "ERR QUERY needs a positive integer k"),
        ("QUERY 1 abc", "ERR bad vector component 'abc'"),
        ("QUERY 1 1 inf", "ERR bad vector component 'inf'"),
        (
            "QUERY 1",
            "ERR query has 0 components, index dimensionality is 192",
        ),
        (
            "QUERY 1 1 2",
            "ERR query has 2 components, index dimensionality is 192",
        ),
        ("USE", "ERR USE needs an index name"),
        ("USE a b", "ERR USE takes exactly one index name"),
        ("USE deep", "ERR unknown index 'deep' (see LISTINDEXES)"),
        ("USE default", "OK using default"),
        ("AUTH", "ERR AUTH needs a token"),
        (
            "AUTH a b",
            "ERR AUTH takes exactly one (whitespace-free) token",
        ),
        ("AUTH anything", "OK authentication not required"),
        (
            "ATTACH",
            "ERR ATTACH needs <name> <path> (both whitespace-free)",
        ),
        (
            "ATTACH extra",
            "ERR ATTACH needs <name> <path> (both whitespace-free)",
        ),
        (
            "ATTACH extra a b",
            "ERR ATTACH needs <name> <path> (both whitespace-free)",
        ),
        (
            "ATTACH bad/name x.fvecs",
            "ERR invalid index name 'bad/name' (1..=64 chars of [A-Za-z0-9_.-])",
        ),
        (
            "ATTACH default x.fvecs",
            "ERR an index named 'default' is already attached",
        ),
        ("DETACH", "ERR DETACH needs an index name"),
        ("DETACH a b", "ERR DETACH takes exactly one index name"),
        ("DETACH deep", "ERR unknown index 'deep'"),
        ("REINDEX", "ERR REINDEX needs a dataset file path"),
        (
            "REINDEX a b",
            "ERR REINDEX takes exactly one (whitespace-free) path",
        ),
        ("SAVE", "ERR SAVE needs a destination file path"),
        (
            "SAVE a b",
            "ERR SAVE takes exactly one (whitespace-free) path",
        ),
        ("INSERT", "ERR INSERT needs <v1> ... <vd>"),
        ("DELETE", "ERR DELETE needs a point id"),
        ("DELETE 1 2", "ERR DELETE takes exactly one point id"),
        ("BATCH", "ERR BATCH needs a positive op count"),
        ("BATCH 2 3", "ERR BATCH takes exactly one op count"),
        ("BATCH 4097", "ERR BATCH accepts at most 4096 ops"),
        (
            "BATCH 1\nFROB",
            "ERR batch line 0: unknown batch op 'FROB' (INSERT or DELETE)",
        ),
        ("BATCH 2\nDELETE 0\n", "ERR batch line 1: empty op line"),
    ] {
        assert_eq!(roundtrip(request), want, "{request}");
    }
    // The I/O failures carry the OS's wording after the path.
    for (request, prefix) in [
        (
            "ATTACH extra /nonexistent/x.fvecs",
            "ERR reading /nonexistent/x.fvecs: ",
        ),
        (
            "REINDEX /nonexistent/x.fvecs",
            "ERR reading /nonexistent/x.fvecs: ",
        ),
        (
            "SAVE /nonexistent/x.pmlsh",
            "ERR saving /nonexistent/x.pmlsh: ",
        ),
    ] {
        let reply = roundtrip(request);
        assert!(reply.starts_with(prefix), "{request}: {reply}");
    }

    // A well-formed query still works on the same connection after errors.
    let q = vec![0.25f32; dim];
    let ok = roundtrip(query_line(&q, 3).trim());
    let pairs = parse_ok_response(&ok).expect("OK after ERRs");
    assert_eq!(pairs.len(), 3);

    // An absurd k is clamped to the indexed point count, not allocated.
    let huge = roundtrip(query_line(&q, 999_999_999_999_999).trim());
    let pairs = parse_ok_response(&huge).expect("OK for huge k");
    assert_eq!(pairs.len(), 2000, "k beyond n must clamp to n");

    assert_eq!(roundtrip("QUIT"), "BYE");
    handle.shutdown();

    // Error precedence with nothing attached (and no token configured, so
    // the connection may mutate): the index-routed mutating verbs answer
    // the missing index before their own arguments; QUERY answers its
    // arguments first; ATTACH/DETACH/BATCH headers never look at an index.
    let handle = serve_router(Router::new(), ("127.0.0.1", 0), ServerConfig::default())
        .expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };
    let no_index = "ERR no index attached (ATTACH one, then USE it)";
    for (request, want) in [
        ("LISTINDEXES", "INDEXES"),
        ("QUERY x", "ERR QUERY needs a positive integer k"),
        ("QUERY 1 abc", "ERR bad vector component 'abc'"),
        ("QUERY 1 1 2", no_index),
        ("STATS", no_index),
        ("INDEXINFO", no_index),
        ("REINDEX", no_index),
        ("REINDEX a b", no_index),
        ("SAVE", no_index),
        ("SAVE a b", no_index),
        ("INSERT", no_index),
        ("INSERT 1 nan", no_index),
        ("DELETE", no_index),
        ("DELETE 1 2", no_index),
        ("BATCH 1\nFROB", no_index),
        ("BATCH 0", "ERR BATCH needs a positive op count"),
        (
            "ATTACH",
            "ERR ATTACH needs <name> <path> (both whitespace-free)",
        ),
        ("DETACH", "ERR DETACH needs an index name"),
        ("DETACH a b", "ERR DETACH takes exactly one index name"),
        ("PING", "PONG"),
    ] {
        assert_eq!(roundtrip(request), want, "{request}");
    }
    handle.shutdown();
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let engine = Engine::new(
        PmLsh::build(generator.dataset(), PmLshParams::paper_defaults()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // Stream far past the per-line cap without ever sending a newline.
    let blob = vec![b'9'; 1 << 20];
    // The server may close mid-write; either way it must answer ERR first.
    let _ = writer.write_all(&blob);
    let _ = writer.flush();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.starts_with("ERR line exceeds"),
        "expected length-cap rejection, got '{}'",
        response.trim()
    );
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed after an oversized line");
    handle.shutdown();
}

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

/// Graceful drain: a `QUERY` already inside the engine when `shutdown`
/// lands must complete, its full `OK` reply must arrive intact, the
/// connection then learns `ERR server shutting down`, and a post-drain
/// connect is refused.
#[test]
fn drain_delivers_inflight_reply_before_closing() {
    let data = blob(800, 16, 50);
    let q = data.point(3).to_vec();
    let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
    // A wide-open micro-batch window: a single query parks in the batcher
    // for ~800 ms before executing, guaranteeing it is still in flight
    // when shutdown begins.
    let engine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 1,
            batch_size: 64,
            max_wait: Duration::from_millis(800),
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");
    let addr = handle.addr();

    let mut line = String::from("QUERY 5");
    for v in &q {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line.push('\n');

    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let mut next = String::new();
        reader.read_line(&mut next).unwrap();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        (
            reply.trim_end().to_string(),
            next.trim_end().to_string(),
            rest,
        )
    });

    // Let the handler read the line and park the query in the batcher,
    // then drain: shutdown must block until the reply has been written.
    std::thread::sleep(Duration::from_millis(250));
    let report = handle.shutdown();
    assert!(report.drained, "drain did not complete: {report:?}");
    assert_eq!(report.forced, 0, "no socket should need force-closing");

    let (reply, next, rest) = client.join().expect("client thread");
    let served = parse_ok_response(&reply).expect("intact OK reply across shutdown");
    let direct = index.query(&q, 5);
    assert_eq!(
        served.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        direct.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        "drained reply diverged from the in-process answer"
    );
    assert_eq!(next, "ERR server shutting down");
    assert!(rest.is_empty(), "connection must close after the drain ERR");

    // The listener is gone: a fresh connect is refused (or, if the OS
    // races the close, closes without ever answering).
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut reader = BufReader::new(&stream);
        (&stream).write_all(b"PING\n").ok();
        let mut response = String::new();
        let n = reader.read_line(&mut response).unwrap_or(0);
        assert_eq!(n, 0, "server answered '{}' after drain", response.trim());
    }
}

/// The thread-per-connection model is no longer unbounded: connection
/// `max_connections + 1` is answered `ERR server at connection capacity`
/// and closed, while the established connections keep being served.
#[test]
fn connection_cap_rejects_excess_connections() {
    let engine = Engine::new(
        PmLsh::build(blob(300, 8, 51), PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let router = Router::with_engine("default", engine).unwrap();
    let config = ServerConfig {
        max_connections: 2,
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind port 0");
    let addr = handle.addr();

    let mut keep = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(addr).expect("connect under the cap");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // A PING roundtrip proves the connection is registered and live
        // before the next connect races in.
        writer.write_all(b"PING\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "PONG");
        keep.push((reader, writer));
    }
    assert_eq!(handle.connections(), 2);

    let over = TcpStream::connect(addr).expect("TCP connect still succeeds");
    let mut reader = BufReader::new(over);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR server at connection capacity");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "over-cap connection must be closed");

    // The capped-out rejection did not disturb established connections.
    let (reader, writer) = &mut keep[0];
    writer.write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "PONG");

    // Closing a slot frees capacity for the next connect.
    keep.pop();
    // The handler notices the close within its drain-poll read timeout.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.connections() > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.connections(), 1, "closed connection never reaped");
    let stream = TcpStream::connect(addr).expect("connect after a slot freed");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream).write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "PONG");

    handle.shutdown();
}

/// Multi-index routing: one server, two datasets of different
/// dimensionality. `USE` switches the connection's current index, routed
/// answers are bit-identical to direct `PmLsh::query` on each index, and
/// `INDEXINFO`/`STATS` report per-index state.
#[test]
fn multi_index_routing_matches_direct_queries() {
    let data_a = blob(700, 12, 60);
    let data_b = blob(900, 24, 61);
    let queries_a: Vec<Vec<f32>> = (0..5).map(|i| data_a.point(i).to_vec()).collect();
    let queries_b: Vec<Vec<f32>> = (0..5).map(|i| data_b.point(i).to_vec()).collect();
    let index_a = Arc::new(PmLsh::build(data_a, PmLshParams::default()));
    let index_b = Arc::new(PmLsh::build(data_b, PmLshParams::default()));

    let config = EngineConfig {
        threads: 2,
        ..Default::default()
    };
    let router = Router::new();
    router
        .attach("alpha", Engine::new(Arc::clone(&index_a), config))
        .unwrap();
    router
        .attach("beta", Engine::new(Arc::clone(&index_b), config))
        .unwrap();
    let handle =
        serve_router(router.clone(), ("127.0.0.1", 0), ServerConfig::default()).expect("bind");

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };
    let query_for = |q: &[f32]| {
        let mut line = String::from("QUERY 4");
        for v in q {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        line
    };
    let assert_parity = |reply: &str, direct: &pm_lsh_core::QueryResult| {
        let served = parse_ok_response(reply).expect("OK reply");
        let expect: Vec<(u32, f32)> = direct.neighbors.iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(served, expect, "routed answer not bit-identical to direct");
    };

    assert_eq!(roundtrip("LISTINDEXES"), "INDEXES alpha,beta");

    // New connections start on the first-attached (default) index.
    let info = roundtrip("INDEXINFO");
    assert!(
        info.starts_with("INDEXINFO name=alpha points=700 dim=12"),
        "unexpected default-index info: {info}"
    );
    for q in &queries_a {
        assert_parity(&roundtrip(&query_for(q)), &index_a.query(q, 4));
    }

    // Switching indexes re-routes queries AND the protocol's notion of d.
    assert_eq!(roundtrip("USE beta"), "OK using beta");
    let info = roundtrip("INDEXINFO");
    assert!(
        info.starts_with("INDEXINFO name=beta points=900 dim=24"),
        "unexpected post-USE info: {info}"
    );
    for q in &queries_b {
        assert_parity(&roundtrip(&query_for(q)), &index_b.query(q, 4));
    }
    // A query with the OLD index's dimensionality is now a protocol error.
    assert!(roundtrip(&query_for(&queries_a[0]))
        .starts_with("ERR query has 12 components, index dimensionality is 24"));

    // Per-index stats: beta served 6 queries (5 OK + the 12-component
    // attempt never reached the engine), alpha served 5.
    assert!(roundtrip("STATS").starts_with("STATS index=beta queries=5 "));
    assert_eq!(roundtrip("USE alpha"), "OK using alpha");
    assert!(roundtrip("STATS").starts_with("STATS index=alpha queries=5 "));

    assert_eq!(
        roundtrip("USE gamma"),
        "ERR unknown index 'gamma' (see LISTINDEXES)"
    );

    // Detach is visible on this same connection's next routed command.
    assert_eq!(roundtrip("DETACH beta"), "OK detached beta");
    assert_eq!(roundtrip("LISTINDEXES"), "INDEXES alpha");
    assert_eq!(
        roundtrip("USE beta"),
        "ERR unknown index 'beta' (see LISTINDEXES)"
    );
    assert_eq!(roundtrip("DETACH beta"), "ERR unknown index 'beta'");

    // AUTH without a configured token is a no-op courtesy.
    assert_eq!(roundtrip("AUTH anything"), "OK authentication not required");

    assert_eq!(roundtrip("QUIT"), "BYE");
    handle.shutdown();
}

/// Wire `ATTACH` loads a server-side file, builds with the server's
/// attach parameters, and serves answers bit-identical to a direct build
/// with the same options.
#[test]
fn wire_attach_builds_and_serves_a_new_index() {
    let base = blob(300, 8, 70);
    let extra = blob(400, 10, 71);
    let queries: Vec<Vec<f32>> = (0..4).map(|i| extra.point(i).to_vec()).collect();

    let path = std::env::temp_dir().join(format!(
        "pmlsh-attach-test-{}-{}.fvecs",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    pm_lsh_data::write_fvecs(&path, &extra).expect("write temp fvecs");

    let engine = Engine::new(
        PmLsh::build(base, PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    let reply = roundtrip(&format!("ATTACH extra {}", path.display()));
    assert!(
        reply.starts_with("OK attached extra points=400 dim=10"),
        "unexpected ATTACH reply: {reply}"
    );
    assert_eq!(roundtrip("LISTINDEXES"), "INDEXES default,extra");
    assert!(roundtrip(&format!("ATTACH extra {}", path.display()))
        .starts_with("ERR an index named 'extra' is already attached"));
    assert!(roundtrip("ATTACH bad/name nowhere.fvecs").starts_with("ERR invalid index name"));

    assert_eq!(roundtrip("USE extra"), "OK using extra");
    // ATTACH builds with ServerConfig::attach_params on all cores; the
    // parallel bulk load is thread-count invariant, so a direct build
    // with the same options must answer bit-identically.
    let direct = PmLsh::build_with_opts(
        Arc::new(extra.clone()),
        ServerConfig::default().attach_params,
        BuildOptions::all_cores(),
    );
    for q in &queries {
        let mut line = String::from("QUERY 3");
        for v in q {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        let served = parse_ok_response(&roundtrip(&line)).expect("OK reply");
        let expect: Vec<(u32, f32)> = direct
            .query(q, 3)
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        assert_eq!(served, expect, "attached index diverged from direct build");
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A vector INSERTed over TCP is returned by the very next QUERY without
/// any reindex, DELETE makes it vanish again, and every mutation bumps
/// the epoch INDEXINFO reports.
#[test]
fn wire_insert_query_delete_roundtrip() {
    let data = blob(300, 6, 80);
    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::default()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    let vector = "0.5 -1.25 2 0.75 -0.5 3.5";
    assert!(roundtrip("INDEXINFO").contains("points=300"));
    assert!(roundtrip("INDEXINFO").contains("epoch=0"));

    // INSERT publishes a new snapshot; the id comes back on the wire.
    assert_eq!(
        roundtrip(&format!("INSERT {vector}")),
        "OK id=300 epoch=1 points=301"
    );
    let info = roundtrip("INDEXINFO");
    assert!(
        info.contains("points=301") && info.contains("epoch=1"),
        "INDEXINFO must observe the insert: {info}"
    );

    // The inserted vector is its own nearest neighbor, no reindex needed.
    let hits = parse_ok_response(&roundtrip(&format!("QUERY 1 {vector}"))).unwrap();
    assert_eq!(hits, vec![(300, 0.0)]);

    // DELETE removes it and bumps the epoch again.
    assert_eq!(roundtrip("DELETE 300"), "OK deleted 300 epoch=2 points=300");
    let info = roundtrip("INDEXINFO");
    assert!(
        info.contains("points=300") && info.contains("epoch=2"),
        "INDEXINFO must observe the delete: {info}"
    );
    let hits = parse_ok_response(&roundtrip(&format!("QUERY 5 {vector}"))).unwrap();
    assert!(
        hits.iter().all(|&(id, _)| id != 300),
        "deleted id still served: {hits:?}"
    );

    assert_eq!(roundtrip("QUIT"), "BYE");
    handle.shutdown();
}

/// Malformed `INSERT`/`DELETE` lines: each gets its *specific* `ERR`
/// reply, publishes nothing (the epoch never moves), and leaves both the
/// connection and the index fully usable.
#[test]
fn malformed_mutations_get_specific_errors_and_change_nothing() {
    let data = blob(200, 6, 81);
    let good_query = format!(
        "QUERY 3 {}",
        data.point(0)
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let router = Router::with_engine("default", engine).unwrap();
    let config = ServerConfig {
        auth_token: Some("sekrit".to_string()),
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind port 0");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    // Mutations before AUTH are refused wholesale — well-formed or not:
    // the auth gate answers before any gated verb's arguments are judged.
    // Only a BATCH header is validated first (no op line follows a bad
    // one, so there is nothing to consume).
    for unauthed in [
        "INSERT 1 2 3 4 5 6",
        "DELETE 0",
        "INSERT",
        "INSERT 1 nan",
        "DELETE",
        "DELETE 1 2",
        "ATTACH",
        "ATTACH a b c",
        "DETACH",
        "DETACH a b",
        "REINDEX",
        "REINDEX a b",
        "SAVE",
        "SAVE a b",
        "BATCH 2\nFROB\nDELETE x",
    ] {
        assert_eq!(
            roundtrip(unauthed),
            "ERR authentication required (AUTH <token>)",
            "for request '{unauthed}'"
        );
    }
    for (header, want) in [
        ("BATCH 0", "ERR BATCH needs a positive op count"),
        ("BATCH 1 2", "ERR BATCH takes exactly one op count"),
        ("BATCH 4097", "ERR BATCH accepts at most 4096 ops"),
    ] {
        assert_eq!(roundtrip(header), want);
    }
    assert_eq!(roundtrip("AUTH sekrit"), "OK authenticated");

    // One malformed line per failure mode, each with its own message.
    let table: &[(&str, &str)] = &[
        ("INSERT", "ERR INSERT needs <v1> ... <vd>"),
        (
            "INSERT 1 2",
            "ERR point has 2 components, index dimensionality is 6",
        ),
        (
            "INSERT 1 2 3 4 5 6 7",
            "ERR point has 7 components, index dimensionality is 6",
        ),
        ("INSERT 1 2 nan 4 5 6", "ERR bad vector component 'nan'"),
        ("INSERT 1 2 inf 4 5 6", "ERR bad vector component 'inf'"),
        ("INSERT 1 2 x 4 5 6", "ERR bad vector component 'x'"),
        ("DELETE", "ERR DELETE needs a point id"),
        ("DELETE abc", "ERR DELETE needs a point id"),
        ("DELETE -3", "ERR DELETE needs a point id"),
        ("DELETE 5 6", "ERR DELETE takes exactly one point id"),
        ("DELETE 99999", "ERR unknown point id 99999"),
        // Authenticated, the gated verbs word their own arity errors.
        (
            "ATTACH a b c",
            "ERR ATTACH needs <name> <path> (both whitespace-free)",
        ),
        ("DETACH a b", "ERR DETACH takes exactly one index name"),
        ("REINDEX", "ERR REINDEX needs a dataset file path"),
        ("SAVE", "ERR SAVE needs a destination file path"),
        (
            "BATCH 1\nINSERT",
            "ERR batch line 0: INSERT needs <v1> ... <vd>",
        ),
        (
            "BATCH 2\nDELETE 0\nDELETE 1 2",
            "ERR batch line 1: DELETE takes exactly one point id",
        ),
    ];
    for (request, want) in table {
        assert_eq!(&roundtrip(request), want, "for request '{request}'");
        // Nothing was published and the connection still serves.
        let info = roundtrip("INDEXINFO");
        assert!(
            info.contains("points=200") && info.contains("epoch=0"),
            "'{request}' must not mutate anything, got: {info}"
        );
    }

    // The connection and the index survived the whole gauntlet.
    assert_eq!(roundtrip("PING"), "PONG");
    let hits = parse_ok_response(&roundtrip(&good_query)).unwrap();
    assert_eq!(hits.len(), 3);
    assert_eq!(hits[0].1, 0.0);

    // And a *valid* mutation still works afterwards.
    assert_eq!(
        roundtrip("INSERT 9 9 9 9 9 9"),
        "OK id=200 epoch=1 points=201"
    );

    assert_eq!(roundtrip("QUIT"), "BYE");
    handle.shutdown();
}

#[test]
fn shutdown_stops_accepting() {
    let generator = PaperDataset::Audio.generator(Scale::Smoke);
    let engine = Engine::new(
        PmLsh::build(generator.dataset(), PmLshParams::paper_defaults()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");
    let addr = handle.addr();
    handle.shutdown();
    // The listener is gone: either the connection is refused outright or
    // it closes without ever answering.
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut reader = BufReader::new(&stream);
        (&stream).write_all(b"PING\n").ok();
        let mut response = String::new();
        let n = reader.read_line(&mut response).unwrap_or(0);
        assert_eq!(n, 0, "server answered '{}' after shutdown", response.trim());
    }
}

/// [`ServerHandle::set_auth_token`] swaps the accepted token without a
/// restart: the old token is rejected afterwards, the new one accepted,
/// connections that already authenticated stay authenticated, and
/// `None` turns the gate off entirely.
#[test]
fn auth_token_hot_swap() {
    let data = blob(200, 6, 90);
    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let router = Router::with_engine("default", engine).unwrap();
    let config = ServerConfig {
        auth_token: Some("old-token".to_string()),
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind port 0");
    let addr = handle.addr();

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), line: &str) -> String {
        conn.1.write_all(line.as_bytes()).unwrap();
        conn.1.write_all(b"\n").unwrap();
        let mut response = String::new();
        conn.0.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    let mut veteran = connect();
    assert_eq!(
        roundtrip(&mut veteran, "AUTH old-token"),
        "OK authenticated"
    );

    handle.set_auth_token(Some("new-token".to_string()));

    // A fresh connection: the old token is dead, the new one works.
    let mut fresh = connect();
    assert_eq!(roundtrip(&mut fresh, "AUTH old-token"), "ERR bad token");
    assert_eq!(roundtrip(&mut fresh, "AUTH new-token"), "OK authenticated");

    // The veteran's authenticated state survived the swap: a mutating
    // verb goes through without re-authing.
    assert_eq!(
        roundtrip(&mut veteran, "INSERT 1 2 3 4 5 6"),
        "OK id=200 epoch=1 points=201"
    );

    // Swapping to None opens the server entirely.
    handle.set_auth_token(None);
    let mut open = connect();
    assert_eq!(
        roundtrip(&mut open, "AUTH whatever"),
        "OK authentication not required"
    );
    assert_eq!(
        roundtrip(&mut open, "DELETE 200"),
        "OK deleted 200 epoch=2 points=200"
    );

    handle.shutdown();
}

/// Per-index connection quotas: at `max_connections_per_index` live
/// connections on one index, further accepts (against the default index)
/// are refused and `USE` into the full index errors without disturbing
/// the connection's current selection.
#[test]
fn per_index_connection_quota() {
    let config = EngineConfig {
        threads: 1,
        ..Default::default()
    };
    let router = Router::new();
    router
        .attach(
            "alpha",
            Engine::new(
                PmLsh::build(blob(200, 6, 91), PmLshParams::default()),
                config,
            ),
        )
        .unwrap();
    router
        .attach(
            "beta",
            Engine::new(
                PmLsh::build(blob(200, 8, 92), PmLshParams::default()),
                config,
            ),
        )
        .unwrap();
    let server_config = ServerConfig {
        max_connections_per_index: 2,
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), server_config).expect("bind port 0");
    let addr = handle.addr();

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), line: &str) -> String {
        conn.1.write_all(line.as_bytes()).unwrap();
        conn.1.write_all(b"\n").unwrap();
        let mut response = String::new();
        conn.0.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    // Two connections fill the default index's quota (PING roundtrips
    // prove both are admitted before the third races in).
    let mut first = connect();
    let mut second = connect();
    assert_eq!(roundtrip(&mut first, "PING"), "PONG");
    assert_eq!(roundtrip(&mut second, "PING"), "PONG");

    // The third is refused at accept — the default index is full.
    let over = TcpStream::connect(addr).expect("TCP connect still succeeds");
    let mut reader = BufReader::new(over);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR index 'alpha' at connection capacity");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "over-quota connection must be closed");

    // USE moves a connection's slot between quotas: alpha frees up...
    assert_eq!(roundtrip(&mut first, "USE beta"), "OK using beta");
    let mut third = connect();
    assert_eq!(roundtrip(&mut third, "PING"), "PONG");

    // ...and a full target index rejects the switch while leaving the
    // connection on its current index, fully serviceable.
    assert_eq!(roundtrip(&mut second, "USE beta"), "OK using beta");
    assert_eq!(
        roundtrip(&mut third, "USE beta"),
        "ERR index 'beta' at connection capacity"
    );
    let info = roundtrip(&mut third, "INDEXINFO");
    assert!(
        info.starts_with("INDEXINFO name=alpha"),
        "a refused USE must not move the connection: {info}"
    );

    // Closing a quota holder frees the slot once the reactor reaps it.
    drop(second);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.connections() > 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(roundtrip(&mut third, "USE beta"), "OK using beta");

    handle.shutdown();
}

/// Satellite of the sharded engine: a scatter-gather query already
/// fanned out across `S = 4` shards when `shutdown_within` fires must
/// complete every leg, merge, and deliver its full `OK` reply intact —
/// the drain counts a logical query as in-flight until the *gather* is
/// done, not any single shard's leg.
#[test]
fn drain_completes_inflight_scatter_gather_query() {
    let data = blob(800, 16, 52);
    let q = data.point(5).to_vec();
    // The same wide-open micro-batch window as the monolithic drain
    // test, but per shard: each of the four fan-out legs parks in its
    // own shard's batcher for ~800 ms, so shutdown provably lands while
    // the fan-out is mid-flight.
    let sharded = pm_lsh_engine::ShardedEngine::build(
        &data,
        PmLshParams::default(),
        BuildOptions::default(),
        4,
        EngineConfig {
            threads: 1,
            batch_size: 64,
            max_wait: Duration::from_millis(800),
        },
    );
    let handle = serve(sharded.clone(), ("127.0.0.1", 0)).expect("bind port 0");
    let addr = handle.addr();

    let mut line = String::from("QUERY 5");
    for v in &q {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line.push('\n');

    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let mut next = String::new();
        reader.read_line(&mut next).unwrap();
        (reply.trim_end().to_string(), next.trim_end().to_string())
    });

    // Let the handler enqueue all four legs, then drain mid-fan-out.
    std::thread::sleep(Duration::from_millis(250));
    let report = handle.shutdown_within(Duration::from_secs(30));
    assert!(report.drained, "drain did not complete: {report:?}");
    assert_eq!(report.forced, 0, "no socket should need force-closing");

    let (reply, next) = client.join().expect("client thread");
    let served = parse_ok_response(&reply).expect("intact OK reply across shutdown");
    let direct: Vec<(u32, f32)> = sharded
        .query(&q, 5)
        .neighbors
        .iter()
        .map(|n| (n.id, n.dist))
        .collect();
    assert_eq!(
        served, direct,
        "drained scatter-gather reply diverged from the in-process answer"
    );
    assert_eq!(next, "ERR server shutting down");
}

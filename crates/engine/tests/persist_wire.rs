//! Wire-level persistence: the `SAVE` verb, instant `ATTACH` of `.pmlsh`
//! snapshots, corrupt-snapshot hardening at the protocol boundary, and
//! the `INDEXINFO` state/progress fields.

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_engine::{serve_router, Engine, EngineConfig, Router, ServerConfig, ShardedEngine};
use pm_lsh_metric::Dataset;
use pm_lsh_persist::crc32;
use pm_lsh_stats::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pmlsh-{tag}-{}-{}.pmlsh",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn exchange(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

fn query_line(q: &[f32], k: usize) -> String {
    let mut line = format!("QUERY {k}");
    for v in q {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line
}

/// SAVE a served index over the wire, ATTACH the snapshot under a new
/// name, and demand bit-identical answers from both — the tier-1 gate of
/// the persistence feature, exercised end to end through TCP.
#[test]
fn save_then_attach_answers_bit_identically() {
    let data = blob(800, 24, 71);
    let queries: Vec<Vec<f32>> = (0..12).map(|i| data.point(i).to_vec()).collect();
    let index = Arc::new(PmLsh::build(data, PmLshParams::default()));
    let engine = Engine::new(
        Arc::clone(&index),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let router = Router::with_engine("main", engine).unwrap();
    let config = ServerConfig {
        auth_token: Some("snap-token".to_string()),
        ..Default::default()
    };
    let handle = serve_router(router, ("127.0.0.1", 0), config).expect("bind");
    let mut client = Client::connect(handle.addr());
    let path = temp_path("wire-save");

    // SAVE writes server-side files, so it is auth-gated like the other
    // mutating verbs.
    assert_eq!(
        client.exchange(&format!("SAVE {}", path.display())),
        "ERR authentication required (AUTH <token>)"
    );
    assert_eq!(client.exchange("AUTH snap-token"), "OK authenticated");

    let reply = client.exchange(&format!("SAVE {}", path.display()));
    assert!(
        reply.starts_with("OK saved main points=800 bytes="),
        "unexpected SAVE reply: {reply}"
    );
    let on_disk = std::fs::read(&path).expect("snapshot written");
    assert!(
        reply.contains(&format!("bytes={}", on_disk.len())),
        "reported size must match the file: {reply} vs {}",
        on_disk.len()
    );
    // A one-shard engine's SAVE and `serialize` of its index are one writer.
    assert!(on_disk == pm_lsh_persist::serialize(&index));

    // ATTACH auto-detects the snapshot by magic and serves it without a
    // rebuild.
    let reply = client.exchange(&format!("ATTACH restored {}", path.display()));
    assert!(
        reply.starts_with("OK attached restored points=800 dim=24"),
        "unexpected ATTACH reply: {reply}"
    );

    // Bit-identical answers from the restored index, through the same
    // protocol: Rust's float Display is shortest-round-trip, so equal
    // reply strings mean equal f32 distances.
    let mut main_replies = Vec::new();
    assert_eq!(client.exchange("USE main"), "OK using main");
    for q in &queries {
        main_replies.push(client.exchange(&query_line(q, 10)));
    }
    assert_eq!(client.exchange("USE restored"), "OK using restored");
    for (qi, q) in queries.iter().enumerate() {
        let restored_reply = client.exchange(&query_line(q, 10));
        assert_eq!(
            restored_reply, main_replies[qi],
            "restored index diverged on query {qi}"
        );
        assert!(restored_reply.starts_with("OK "), "{restored_reply}");
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Every way a snapshot file can be corrupt must come back as a one-line
/// `ERR` — the connection (and the server) stay fully usable.
#[test]
fn corrupt_snapshot_attach_is_an_err_line_not_a_disconnect() {
    let data = blob(300, 12, 72);
    let index = PmLsh::build(data, PmLshParams::default());
    let good = pm_lsh_persist::serialize(&index);

    let engine = Engine::new(
        index,
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let router = Router::with_engine("main", engine).unwrap();
    let handle = serve_router(router, ("127.0.0.1", 0), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr());

    // Truncated mid-section (magic intact, so the snapshot loader owns it).
    let truncated = &good[..good.len() / 2];
    // One flipped bit with the magic intact: the whole-file CRC catches it.
    let mut flipped = good.clone();
    flipped[good.len() / 3] ^= 0x40;
    // A future format version, checksums re-signed so only the version
    // gate can reject it.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&999u32.to_le_bytes());
    let end = future.len() - 4;
    let crc = crc32(&future[..end]);
    future[end..].copy_from_slice(&crc.to_le_bytes());
    // Not a snapshot at all (no magic, and not valid fvecs/csv either).
    let garbage = b"definitely not a snapshot, nor a dataset".to_vec();

    let cases: [(&str, &[u8], &str); 4] = [
        ("truncated", truncated, "truncated"),
        ("bit-flipped", &flipped, "checksum"),
        ("future-version", &future, "version"),
        ("garbage", &garbage, ""),
    ];
    for (tag, bytes, expect) in cases {
        let path = temp_path(&format!("corrupt-{tag}"));
        std::fs::write(&path, bytes).unwrap();
        let reply = client.exchange(&format!("ATTACH bad {}", path.display()));
        assert!(reply.starts_with("ERR"), "{tag}: expected ERR, got {reply}");
        assert!(
            reply.contains(expect),
            "{tag}: reply should mention '{expect}': {reply}"
        );
        // The handler survived; nothing got attached.
        assert_eq!(client.exchange("PING"), "PONG", "{tag}");
        assert_eq!(client.exchange("LISTINDEXES"), "INDEXES main", "{tag}");
        let _ = std::fs::remove_file(&path);
    }

    handle.shutdown();
}

/// `INDEXINFO` reports `state=` and `pct=`: `building` with a coarse
/// percentage while a reindex runs, `serving pct=100` otherwise.
#[test]
fn indexinfo_reports_state_and_progress() {
    let served: ShardedEngine = Engine::new(
        PmLsh::build(blob(400, 16, 73), PmLshParams::default()),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .into();

    // Serving steady state, both in-process and over the wire.
    let info = served.info();
    assert_eq!(info.state, "serving");
    assert_eq!(info.pct, 100);
    let router = Router::with_engine("main", served.clone()).unwrap();
    let handle = serve_router(router, ("127.0.0.1", 0), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr());
    let line = client.exchange("INDEXINFO");
    assert!(
        line.ends_with("reindexing=false state=serving pct=100 shards=1"),
        "unexpected INDEXINFO: {line}"
    );

    // During a rebuild the state flips to building with pct < 100. The
    // build is fast, so observing it is a race we only assert on when won;
    // the terminal state after the swap is checked unconditionally.
    let rebuilding = {
        let served = served.clone();
        std::thread::spawn(move || {
            served.reindex(
                blob(20_000, 16, 74),
                PmLshParams::default(),
                pm_lsh_core::BuildOptions::with_threads(1),
            )
        })
    };
    let mut observed_building = false;
    while !rebuilding.is_finished() {
        let info = served.info();
        if info.reindexing {
            assert_eq!(info.state, "building", "{info:?}");
            assert!(info.pct < 100, "{info:?}");
            observed_building = true;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    rebuilding.join().unwrap().expect("reindex");
    assert!(
        observed_building,
        "a 20k-point single-threaded build finished before one poll"
    );
    let info = served.info();
    assert_eq!(info.state, "serving");
    assert_eq!(info.pct, 100);
    let line = client.exchange("INDEXINFO");
    assert!(
        line.contains("points=20000") && line.ends_with("state=serving pct=100 shards=1"),
        "unexpected post-reindex INDEXINFO: {line}"
    );

    handle.shutdown();
}

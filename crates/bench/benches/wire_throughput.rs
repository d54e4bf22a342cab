//! Wire-protocol throughput: newline text vs length-prefixed binary
//! framing against a live serving reactor, at 1 / 64 / 1000 concurrent
//! connections.
//!
//! The scenario is a query client fleet: the server runs in-process on a
//! loopback listener, every connection is a real non-blocking socket
//! registered with the epoll reactor, and a small pool of client threads
//! drives round-trip QUERYs across the open connections (serving 1000
//! connections does not take 1000 threads on either side — the bench
//! asserts the process's total thread count stays far below the
//! connection count while the 1000-connection level is live).
//!
//! Before any number is reported, text and binary replies are asserted
//! bit-identical — same neighbor ids, same f32 distance bits — on a
//! shared query prefix. The timed loop then measures end-to-end protocol
//! cost per framing: request encode, server decode, engine query, reply
//! encode, client decode. On Trevi (d = 4096) a text QUERY renders and
//! reparses ~4096 ASCII floats per round trip where the binary frame
//! moves the same 16 KiB as raw little-endian bytes; the run asserts
//! binary achieves at least 2x the text throughput there.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_FORCE_SCALAR=1`.

use pm_lsh_bench::{f, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_data::PaperDataset;
use pm_lsh_engine::router::Router;
use pm_lsh_engine::server::parse_ok_response;
use pm_lsh_engine::{frame, serve_router, Engine, EngineConfig, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const QUERY_POOL: usize = 64;
const PARITY_QUERIES: usize = 32;
/// Timed round trips per (framing, connection-level) run.
const REQUESTS_PER_RUN: usize = 384;
const CLIENT_THREADS: usize = 8;
/// Ceiling on the whole process's thread count while 1000 connections
/// are live — the reactor must not scale threads with connections.
const MAX_PROCESS_THREADS: usize = 100;
const MIN_TREVI_SPEEDUP: f64 = 2.0;

struct Run {
    framing: &'static str,
    conns: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

struct Report {
    dataset: &'static str,
    runs: Vec<Run>,
}

/// One client connection; in binary mode it has already negotiated
/// `HELLO binary`.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(handle: &ServerHandle, binary: bool) -> Conn {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).ok();
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        };
        if binary {
            assert_eq!(conn.text_roundtrip("HELLO binary"), "OK binary");
        }
        conn
    }

    fn text_roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(!reply.is_empty(), "server closed the connection");
        reply.trim_end().to_string()
    }

    /// One timed text QUERY round trip; returns the neighbor count.
    fn query_text(&mut self, k: usize, q: &[f32]) -> usize {
        let mut line = String::with_capacity(16 + q.len() * 10);
        line.push_str("QUERY ");
        line.push_str(&k.to_string());
        for v in q {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        line.push('\n');
        let reply = self.text_roundtrip(line.trim_end());
        parse_ok_response(&reply)
            .unwrap_or_else(|_| panic!("bad reply: {reply}"))
            .len()
    }

    /// One timed binary QUERY round trip; returns the neighbor count.
    fn query_binary(&mut self, k: usize, q: &[f32]) -> usize {
        let mut framed = Vec::with_capacity(16 + q.len() * 4);
        frame::encode_query(k as u32, q, &mut framed);
        self.writer.write_all(&framed).expect("send frame");
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix).expect("frame length");
        let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
        self.reader.read_exact(&mut payload).expect("frame payload");
        match frame::decode_reply(&payload).expect("well-formed reply") {
            frame::Reply::Ok(pairs) => pairs.len(),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Soft fd limit, minus headroom, split two ways: each loopback
/// connection burns two descriptors in this single-process bench
/// (client end + server end).
fn max_conns_by_fd_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let soft = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1024);
    (soft.saturating_sub(128) / 2).max(1)
}

/// `Threads:` from /proc/self/status (0 when unavailable).
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let scale = scale_from_env();
    let conn_cap = max_conns_by_fd_limit();
    let mut levels: Vec<usize> = [1usize, 64, 1000]
        .into_iter()
        .map(|l| l.min(conn_cap))
        .collect();
    levels.dedup();
    if conn_cap < 1000 {
        println!("fd soft limit clamps the top level to {conn_cap} connections");
    }
    println!(
        "wire throughput, text vs binary framing — scale {scale:?}, k = {K}, \
         {REQUESTS_PER_RUN} round trips per run, levels {levels:?}\n"
    );

    let reports: Vec<Report> = [PaperDataset::Audio, PaperDataset::Trevi]
        .into_iter()
        .map(|ds| run_dataset(ds, scale, &levels))
        .collect();

    // The headline gate: on the widest dataset the binary framing must
    // at least halve the protocol cost. Compared at one connection,
    // where the measurement is a pure serial round-trip cost.
    let trevi = reports.iter().find(|r| r.dataset == "Trevi").unwrap();
    let text_qps = best_qps(trevi, "text", 1);
    let binary_qps = best_qps(trevi, "binary", 1);
    let speedup = binary_qps / text_qps;
    println!("Trevi d=4096, 1 connection: binary {speedup:.2}x text throughput");
    assert!(
        speedup >= MIN_TREVI_SPEEDUP,
        "binary framing is only {speedup:.2}x text on Trevi (gate: {MIN_TREVI_SPEEDUP}x)"
    );
}

fn best_qps(report: &Report, framing: &str, conns: usize) -> f64 {
    report
        .runs
        .iter()
        .find(|r| r.framing == framing && r.conns == conns)
        .map(|r| r.qps)
        .expect("run present")
}

fn run_dataset(ds: PaperDataset, scale: pm_lsh_data::Scale, levels: &[usize]) -> Report {
    let generator = ds.generator(scale);
    let data = generator.dataset();
    let (n, d) = (data.len(), data.dim());
    let queries: Arc<Vec<Vec<f32>>> = Arc::new(
        generator
            .queries(QUERY_POOL)
            .iter()
            .map(|q| q.to_vec())
            .collect(),
    );
    println!("{} — n = {n}, d = {d}", ds.name());

    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::paper_defaults()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let router = Router::new();
    router.attach(ds.name(), engine).expect("attach");
    let handle = serve_router(
        router,
        ("127.0.0.1", 0),
        ServerConfig {
            max_connections: 2048,
            ..Default::default()
        },
    )
    .expect("bind port 0");

    // Parity before performance: text and binary replies must carry the
    // same ids and the same f32 distance bits for the same queries.
    {
        let mut text = Conn::open(&handle, false);
        let mut binary = Conn::open(&handle, true);
        for (qi, q) in queries.iter().take(PARITY_QUERIES).enumerate() {
            let mut line = format!("QUERY {K}");
            for v in q {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            let reply = text.text_roundtrip(&line);
            let text_pairs = parse_ok_response(&reply).expect("OK reply");

            let mut framed = Vec::new();
            frame::encode_query(K as u32, q, &mut framed);
            binary.writer.write_all(&framed).expect("send frame");
            let mut prefix = [0u8; 4];
            binary.reader.read_exact(&mut prefix).expect("frame length");
            let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
            binary.reader.read_exact(&mut payload).expect("payload");
            let bin_pairs = match frame::decode_reply(&payload).expect("reply") {
                frame::Reply::Ok(pairs) => pairs,
                other => panic!("query {qi}: unexpected {other:?}"),
            };

            assert_eq!(bin_pairs.len(), text_pairs.len(), "query {qi}: count");
            for (b, t) in bin_pairs.iter().zip(&text_pairs) {
                assert_eq!(b.0, u64::from(t.0), "query {qi}: id diverged");
                assert_eq!(
                    b.1.to_bits(),
                    t.1.to_bits(),
                    "query {qi}: distance bits diverged"
                );
            }
        }
    }

    let mut runs = Vec::new();
    let mut table = Table::new(&["framing", "conns", "qps", "p50 ms", "p99 ms"]);
    for &framing in &["text", "binary"] {
        for &level in levels {
            let run = run_level(&handle, framing, level, Arc::clone(&queries));
            table.row(vec![
                framing.into(),
                run.conns.to_string(),
                f(run.qps, 0),
                f(run.p50_ms, 3),
                f(run.p99_ms, 3),
            ]);
            runs.push(run);
        }
    }
    print!("{}", table.render());
    println!();

    let report = handle.shutdown_within(std::time::Duration::from_secs(10));
    assert!(
        report.drained,
        "bench connections did not drain: {report:?}"
    );
    Report {
        dataset: ds.name(),
        runs,
    }
}

fn run_level(
    handle: &ServerHandle,
    framing: &'static str,
    level: usize,
    queries: Arc<Vec<Vec<f32>>>,
) -> Run {
    let binary = framing == "binary";
    // All connections open before the timer; each stays open for the
    // whole run so the reactor holds `level` registered sockets.
    let conns: Vec<Conn> = (0..level).map(|_| Conn::open(handle, binary)).collect();

    if level >= 1000 {
        let threads = process_threads();
        assert!(
            threads > 0 && threads < MAX_PROCESS_THREADS,
            "{threads} process threads while serving {level} connections \
             (reactor must not scale threads with connections)"
        );
        println!("  {level} live connections served by a {threads}-thread process");
    }

    // Split the connections across a fixed client pool; every thread
    // owns its slice exclusively and round-robins requests over it.
    let workers = CLIENT_THREADS.min(level);
    let mut slices: Vec<Vec<Conn>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, conn) in conns.into_iter().enumerate() {
        slices[i % workers].push(conn);
    }
    let per_worker = REQUESTS_PER_RUN.div_ceil(workers);

    let wall = Instant::now();
    let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = slices
        .into_iter()
        .enumerate()
        .map(|(w, mut slice)| {
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_worker);
                let span = slice.len();
                for i in 0..per_worker {
                    let conn = &mut slice[i % span];
                    let q = &queries[(w * per_worker + i) % queries.len()];
                    let start = Instant::now();
                    let got = if binary {
                        conn.query_binary(K, q)
                    } else {
                        conn.query_text(K, q)
                    };
                    latencies.push(start.elapsed().as_secs_f64() * 1e3);
                    assert!(got > 0, "empty result set");
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = wall.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    Run {
        framing,
        conns: level,
        qps: latencies.len() as f64 / elapsed,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

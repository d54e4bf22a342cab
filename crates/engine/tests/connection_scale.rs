//! The reactor does not scale threads with connections: 1 000 live
//! connections are served by a process with fewer than 100 threads.
//!
//! One test in its own binary on purpose — `/proc/self/status` counts
//! every thread of the process, and the sibling tests of `loopback.rs`
//! run their own worker pools concurrently.

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_engine::{serve, Engine, EngineConfig};
use pm_lsh_metric::Dataset;
use pm_lsh_stats::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TARGET_CONNS: usize = 1000;
const MAX_PROCESS_THREADS: usize = 100;

/// Soft fd limit minus headroom, halved: each loopback connection costs
/// two descriptors in this one process (client end + server end).
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

#[test]
fn thousand_live_connections_are_served_by_a_bounded_thread_count() {
    let (n, d) = (200, 8);
    let mut rng = Rng::new(7);
    let mut data = Dataset::with_capacity(d, n);
    let mut row = vec![0.0f32; d];
    for _ in 0..n {
        rng.fill_normal(&mut row);
        data.push(&row);
    }
    let engine = Engine::new(
        PmLsh::build(data, PmLshParams::default()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let handle = serve(engine, ("127.0.0.1", 0)).expect("bind port 0");

    // Every connection answers a PING before the next one opens, so all
    // of them are accepted and registered with the reactor at once.
    let level = TARGET_CONNS.min(max_conns_by_fd_limit());
    let conns: Vec<TcpStream> = (0..level)
        .map(|i| {
            let mut stream = TcpStream::connect(handle.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream.write_all(b"PING\n").expect("send PING");
            let mut reply = [0u8; 5];
            stream.read_exact(&mut reply).expect("read PONG");
            assert_eq!(&reply, b"PONG\n", "connection {i}");
            stream
        })
        .collect();
    assert_eq!(handle.connections(), level);

    let threads = process_threads();
    assert!(
        threads > 0 && threads < MAX_PROCESS_THREADS,
        "{threads} process threads while serving {level} connections \
         (the reactor must not scale threads with connections)"
    );
    println!("{level} live connections served by a {threads}-thread process");

    // The clients stay connected: the drain itself must close them.
    let report = handle.shutdown_within(Duration::from_secs(10));
    assert!(report.drained, "connections did not drain: {report:?}");
    drop(conns);
}

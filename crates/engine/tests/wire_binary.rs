//! Loopback tests of the binary wire mode: `HELLO binary` negotiation,
//! bit-exact text-vs-binary parity, and a hostile-frame gauntlet proving
//! that no malformed, truncated, oversized or mid-frame-disconnected
//! input can panic the reactor or wedge other connections.

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_engine::frame;
use pm_lsh_engine::server::parse_ok_response;
use pm_lsh_engine::{
    serve, serve_router, Engine, EngineConfig, Router, ServerConfig, ServerHandle,
};
use pm_lsh_metric::Dataset;
use pm_lsh_stats::Rng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

fn serve_blob(n: usize, d: usize, seed: u64) -> ServerHandle {
    let engine = Engine::new(
        PmLsh::build(blob(n, d, seed), PmLshParams::default()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    serve(engine, ("127.0.0.1", 0)).expect("bind port 0")
}

/// A loopback client already switched to binary mode.
struct BinClient {
    stream: TcpStream,
}

impl BinClient {
    fn connect(handle: &ServerHandle) -> Self {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"HELLO binary\n").unwrap();
        let mut ack = Vec::new();
        // The ack is the last text line; read byte-wise so no frame bytes
        // are swallowed by a buffered reader.
        loop {
            let mut b = [0u8; 1];
            stream.read_exact(&mut b).expect("HELLO ack byte");
            if b[0] == b'\n' {
                break;
            }
            ack.push(b[0]);
        }
        assert_eq!(ack, b"OK binary");
        Self { stream }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Reads one reply frame; `None` on a clean close.
    fn read_reply(&mut self) -> Option<frame::Reply> {
        let mut prefix = [0u8; 4];
        match self.stream.read_exact(&mut prefix) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return None,
            Err(e) => panic!("reading frame length: {e}"),
        }
        let len = u32::from_le_bytes(prefix) as usize;
        assert!(len <= 1 << 20, "implausible reply frame length {len}");
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload).expect("frame payload");
        Some(frame::decode_reply(&payload).expect("well-formed reply frame"))
    }

    fn query(&mut self, k: u32, q: &[f32]) -> Option<frame::Reply> {
        let mut framed = Vec::new();
        frame::encode_query(k, q, &mut framed);
        self.send_raw(&framed);
        self.read_reply()
    }

    /// `true` when the server closed the connection (EOF on read).
    fn at_eof(&mut self) -> bool {
        let mut b = [0u8; 1];
        matches!(self.stream.read(&mut b), Ok(0))
    }
}

/// A loopback client that stays on the default text framing.
struct TextClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TextClient {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn recv_line(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    fn exchange(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.recv_line()
    }
}

#[test]
fn hello_negotiation_and_ping() {
    let handle = serve_blob(200, 8, 100);

    // Text HELLO variants first, on a text connection.
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
    assert_eq!(roundtrip("HELLO"), "OK text");
    assert_eq!(roundtrip("HELLO text"), "OK text");
    assert_eq!(
        roundtrip("HELLO gopher"),
        "ERR HELLO supports: text, binary"
    );
    // Still text after the failed negotiation.
    assert_eq!(roundtrip("PING"), "PONG");

    // Binary PING over a negotiated connection.
    let mut bin = BinClient::connect(&handle);
    let mut framed = Vec::new();
    frame::encode_ping(&mut framed);
    bin.send_raw(&framed);
    assert_eq!(bin.read_reply(), Some(frame::Reply::Pong));

    handle.shutdown();
}

/// The tentpole parity claim: for the same queries, binary OK frames
/// carry bit-for-bit the ids and distances of the text replies.
#[test]
fn binary_and_text_replies_are_bit_identical() {
    let d = 24;
    let handle = serve_blob(600, d, 101);
    let queries: Vec<Vec<f32>> = {
        let ds = blob(16, d, 102);
        (0..ds.len()).map(|i| ds.point(i).to_vec()).collect()
    };

    // Text answers.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut text_answers: Vec<Vec<(u32, f32)>> = Vec::new();
    for q in &queries {
        let mut line = String::from("QUERY 5");
        for v in q {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        line.push('\n');
        writer.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        text_answers.push(parse_ok_response(response.trim()).expect("OK reply"));
    }

    // Binary answers for the same queries.
    let mut bin = BinClient::connect(&handle);
    for (qi, q) in queries.iter().enumerate() {
        match bin.query(5, q).expect("reply frame") {
            frame::Reply::Ok(pairs) => {
                let text = &text_answers[qi];
                assert_eq!(pairs.len(), text.len(), "query {qi}: result count");
                for (b, t) in pairs.iter().zip(text) {
                    assert_eq!(b.0, u64::from(t.0), "query {qi}: id");
                    // Text floats survive the round-trip exactly (Rust's
                    // float formatting is shortest-roundtrip), so parity
                    // here is bit-parity, not almost-equality.
                    assert_eq!(
                        b.1.to_bits(),
                        t.1.to_bits(),
                        "query {qi}: distance bits diverged"
                    );
                }
            }
            other => panic!("query {qi}: unexpected reply {other:?}"),
        }
    }

    handle.shutdown();
}

/// Semantically bad but well-framed queries get an ERR frame and the
/// connection lives on, mirroring the text protocol's behavior.
#[test]
fn well_framed_bad_queries_err_without_closing() {
    let d = 8;
    let handle = serve_blob(200, d, 103);
    let mut bin = BinClient::connect(&handle);

    // NaN component.
    let mut q = vec![0.5f32; d];
    q[3] = f32::NAN;
    match bin.query(3, &q).expect("reply") {
        frame::Reply::Err(msg) => assert_eq!(msg, "query contains a non-finite component"),
        other => panic!("unexpected reply {other:?}"),
    }
    // Dimension mismatch.
    match bin.query(3, &[1.0, 2.0]).expect("reply") {
        frame::Reply::Err(msg) => {
            assert_eq!(msg, "query has 2 components, index dimensionality is 8");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // k = 0.
    match bin.query(0, &vec![0.5f32; d]).expect("reply") {
        frame::Reply::Err(msg) => assert_eq!(msg, "QUERY needs a positive integer k"),
        other => panic!("unexpected reply {other:?}"),
    }

    // The connection survived all three and still answers.
    match bin.query(3, &vec![0.5f32; d]).expect("reply") {
        frame::Reply::Ok(pairs) => assert_eq!(pairs.len(), 3),
        other => panic!("unexpected reply {other:?}"),
    }

    // One wording, two framings: every QUERY failure both can express
    // comes back as an ERR frame whose message is the text line minus
    // `ERR ` — on this server, on one with nothing attached, and for the
    // drain notice.
    let empty = serve_router(Router::new(), ("127.0.0.1", 0), ServerConfig::default())
        .expect("bind port 0");
    let mut text = TextClient::connect(&handle);
    let mut text_empty = TextClient::connect(&empty);
    let mut bin_empty = BinClient::connect(&empty);
    for (on_empty, k, q) in [
        (false, 3u32, &[1.0f32, 2.0][..]),
        (false, 3, &[]),
        (false, 0, &[0.5; 8]),
        (true, 3, &[1.0, 2.0]),
    ] {
        let (bin, text) = if on_empty {
            (&mut bin_empty, &mut text_empty)
        } else {
            (&mut bin, &mut text)
        };
        let components: Vec<String> = q.iter().map(|v| format!(" {v}")).collect();
        let line = text.exchange(&format!("QUERY {k}{}", components.concat()));
        match bin.query(k, q).expect("reply") {
            frame::Reply::Err(msg) => assert_eq!(format!("ERR {msg}"), line, "k={k} q={q:?}"),
            other => panic!("k={k} q={q:?}: unexpected reply {other:?}"),
        }
    }
    for (handle, mut bin, mut text) in [(handle, bin, text), (empty, bin_empty, text_empty)] {
        handle.shutdown();
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => {
                assert_eq!(msg, "server shutting down");
                assert_eq!(text.recv_line(), format!("ERR {msg}"));
            }
            other => panic!("drain notice: unexpected {other:?}"),
        }
    }
}

/// The hostile-frame gauntlet: every malformed input either earns an ERR
/// frame followed by a close, or a clean close — never a panic, never a
/// wedged reactor. A fresh connection proves the server outlived each
/// round.
#[test]
fn hostile_frames_never_wedge_the_server() {
    let d = 8;
    let handle = serve_blob(200, d, 104);
    let good = vec![0.5f32; d];

    // Round 1: oversized length prefix (0xFFFFFFFF) → ERR + close.
    {
        let mut bin = BinClient::connect(&handle);
        bin.send_raw(&0xFFFF_FFFFu32.to_le_bytes());
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => assert_eq!(msg, "frame exceeds protocol maximum"),
            other => panic!("oversized frame: unexpected {other:?}"),
        }
        assert!(
            bin.at_eof(),
            "connection must close after an oversized frame"
        );
    }

    // Round 2: zero-length frame → ERR (empty frame) + close.
    {
        let mut bin = BinClient::connect(&handle);
        bin.send_raw(&0u32.to_le_bytes());
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => assert_eq!(msg, "empty frame"),
            other => panic!("empty frame: unexpected {other:?}"),
        }
        assert!(bin.at_eof());
    }

    // Round 3: unknown opcode → ERR + close.
    {
        let mut bin = BinClient::connect(&handle);
        bin.send_raw(&1u32.to_le_bytes());
        bin.send_raw(&[0x7F]);
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => assert_eq!(msg, "unknown opcode 127"),
            other => panic!("unknown opcode: unexpected {other:?}"),
        }
        assert!(bin.at_eof());
    }

    // Round 4: QUERY whose d disagrees with the byte count → ERR + close.
    {
        let mut bin = BinClient::connect(&handle);
        let mut payload = vec![frame::OP_QUERY];
        payload.extend_from_slice(&3u32.to_le_bytes()); // k
        payload.extend_from_slice(&100u32.to_le_bytes()); // d: promises 100
        payload.extend_from_slice(&1.0f32.to_le_bytes()); // delivers 1
        bin.send_raw(&(payload.len() as u32).to_le_bytes());
        bin.send_raw(&payload);
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => {
                assert!(msg.contains("disagree"), "got: {msg}");
            }
            other => panic!("d mismatch: unexpected {other:?}"),
        }
        assert!(bin.at_eof());
    }

    // Round 5: truncated frame then disconnect → clean close, no reply.
    {
        let mut bin = BinClient::connect(&handle);
        let mut framed = Vec::new();
        frame::encode_query(3, &good, &mut framed);
        bin.send_raw(&framed[..framed.len() / 2]);
        drop(bin); // mid-frame disconnect
    }

    // Round 6: only half a length prefix then disconnect.
    {
        let mut bin = BinClient::connect(&handle);
        bin.send_raw(&[0x10, 0x00]);
        drop(bin);
    }

    // Round 7: a PING with a body → ERR + close.
    {
        let mut bin = BinClient::connect(&handle);
        bin.send_raw(&2u32.to_le_bytes());
        bin.send_raw(&[frame::OP_PING, 0xAA]);
        match bin.read_reply() {
            Some(frame::Reply::Err(msg)) => assert!(msg.contains("malformed"), "got: {msg}"),
            other => panic!("PING body: unexpected {other:?}"),
        }
        assert!(bin.at_eof());
    }

    // After the whole gauntlet the server still serves fresh connections
    // in both framings.
    let mut bin = BinClient::connect(&handle);
    match bin.query(3, &good).expect("reply") {
        frame::Reply::Ok(pairs) => assert_eq!(pairs.len(), 3),
        other => panic!("post-gauntlet query: unexpected {other:?}"),
    }
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "PONG");

    let report = handle.shutdown();
    assert!(
        report.drained,
        "gauntlet left connections wedged: {report:?}"
    );
}

/// Pipelined binary queries on one connection come back in order —
/// serial per-connection processing is a protocol guarantee, not luck.
#[test]
fn pipelined_binary_queries_answer_in_order() {
    let d = 8;
    let handle = serve_blob(400, d, 105);
    let queries: Vec<Vec<f32>> = {
        let ds = blob(8, d, 106);
        (0..ds.len()).map(|i| ds.point(i).to_vec()).collect()
    };

    let mut bin = BinClient::connect(&handle);
    // Write all eight frames before reading a single reply.
    let mut all = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        frame::encode_query((i + 1) as u32, q, &mut all);
    }
    bin.send_raw(&all);
    for (i, _q) in queries.iter().enumerate() {
        match bin.read_reply().expect("reply") {
            frame::Reply::Ok(pairs) => {
                // k = i+1 tags each reply with its request's position.
                assert_eq!(pairs.len(), i + 1, "reply {i} out of order");
            }
            other => panic!("reply {i}: unexpected {other:?}"),
        }
    }

    handle.shutdown();
}

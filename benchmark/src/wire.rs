//! The benchmark's wire client: one blocking loopback connection that
//! sends pre-encoded request bytes and reads exactly one reply.

use pm_lsh_engine::frame;
use pm_lsh_metric::Neighbor;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits for reply bytes before it declares the server
/// stalled. The slowest legitimate op (a Trevi `INSERT` copying 190 MiB,
/// in a contended minute) stays under 3 s.
///
/// Why there is a timeout at all: in ~1.5 million closed-loop ops of this
/// PR's A/A runs the reactor wedged once — every thread idle, no byte in
/// flight, the completed reply sitting in the completion queue until any
/// unrelated event (a new connection) woke the reactor, and the same again
/// one op later. That is a serving bug for a robustness issue to chase
/// (it behaves like `Waker::pending` stuck at `true`); a benchmark run has
/// to end within the driver's limit regardless.
const STALL: Duration = Duration::from_secs(10);

/// Which framing a connection speaks after its handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    Text,
    Binary,
}

impl Framing {
    pub fn other(self) -> Self {
        match self {
            Framing::Text => Framing::Binary,
            Framing::Binary => Framing::Text,
        }
    }
}

/// Byte strings stored back to back: the pre-encoded requests of an op
/// list, or the replies to them.
#[derive(Default)]
pub struct Packed {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Packed {
    pub fn with_capacity(items: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(items),
        }
    }

    /// Appends one item: whatever `fill` pushes onto the buffer.
    pub fn push_with<T>(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        let out = fill(&mut self.bytes);
        self.ends.push(self.bytes.len());
        out
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

pub struct Client {
    stream: TcpStream,
    /// Bytes read but not yet consumed (a reply never straddles requests
    /// in a closed loop, but a `read` may return less than one reply).
    buf: Vec<u8>,
    framing: Framing,
}

fn short_reply() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-reply")
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, STALL)
    }

    fn connect_with(addr: SocketAddr, stall: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(stall))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            framing: Framing::Text,
        })
    }

    /// Hangs up (the server sees EOF); later calls fail.
    pub fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Sends one text control line and returns the reply line.
    pub fn control(&mut self, line: &str) -> io::Result<String> {
        assert_eq!(self.framing, Framing::Text, "control lines are text-only");
        let mut reply = Vec::new();
        self.roundtrip(format!("{line}\n").as_bytes(), &mut reply)?;
        String::from_utf8(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// `control`, but anything except a reply starting with `expect` is an error.
    pub fn expect(&mut self, line: &str, expect: &str) -> io::Result<String> {
        let reply = self.control(line)?;
        if reply.starts_with(expect) {
            Ok(reply)
        } else {
            let shown: String = line.chars().take(40).collect();
            Err(io::Error::other(format!("'{shown}' answered '{reply}'")))
        }
    }

    /// Negotiates `framing` (a no-op for text, the connection default).
    pub fn hello(&mut self, framing: Framing) -> io::Result<()> {
        if framing == Framing::Binary {
            self.expect("HELLO binary", "OK binary")?;
            self.framing = Framing::Binary;
        }
        Ok(())
    }

    /// Writes `request` and appends exactly one reply to `reply`: the text
    /// line without its newline (a `BATCH` reply keeps its `FAIL` lines,
    /// newline-joined), or the binary payload without its length prefix.
    pub fn roundtrip(&mut self, request: &[u8], reply: &mut Vec<u8>) -> io::Result<()> {
        self.stream.write_all(request)?;
        match self.framing {
            Framing::Text => {
                let start = reply.len();
                self.read_line(reply)?;
                for _ in 0..batch_failures(&reply[start..]) {
                    reply.push(b'\n');
                    self.read_line(reply)?;
                }
            }
            Framing::Binary => {
                self.fill(4)?;
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                self.fill(4 + len)?;
                reply.extend_from_slice(&self.buf[4..4 + len]);
                self.buf.drain(..4 + len);
            }
        }
        Ok(())
    }

    /// Reads until `self.buf` holds at least `want` bytes.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 14];
        while self.buf.len() < want {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(short_reply()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                // A socket read timeout surfaces as either kind.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server stalled: no reply bytes for 10 s",
                    ));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn read_line(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        let mut scanned = 0;
        loop {
            if let Some(at) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + at;
                out.extend_from_slice(&self.buf[..end]);
                self.buf.drain(..=end);
                return Ok(());
            }
            scanned = self.buf.len();
            self.fill(scanned + 1)?;
        }
    }
}

/// `failed=<f>` of a `BATCH` summary line — how many `FAIL` lines follow.
fn batch_failures(line: &[u8]) -> usize {
    std::str::from_utf8(line)
        .ok()
        .filter(|l| l.starts_with("OK applied="))
        .and_then(|l| {
            l.split_ascii_whitespace()
                .find_map(|f| f.strip_prefix("failed="))
        })
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Appends the request bytes of `QUERY k q` in `framing`.
pub fn encode_query(framing: Framing, k: usize, q: &[f32], out: &mut Vec<u8>) {
    match framing {
        Framing::Text => {
            out.extend_from_slice(format!("QUERY {k}").as_bytes());
            push_components(q, out);
            out.push(b'\n');
        }
        Framing::Binary => frame::encode_query(k as u32, q, out),
    }
}

/// Appends ` v1 v2 ... vd`. `{}` prints the shortest decimal that parses
/// back to the same `f32`, so text framing carries the exact bits.
pub fn push_components(v: &[f32], out: &mut Vec<u8>) {
    for c in v {
        out.push(b' ');
        out.extend_from_slice(c.to_string().as_bytes());
    }
}

/// Decodes a query reply in `framing` into neighbours; `Err` carries the
/// server's `ERR` text or what was malformed.
pub fn decode_neighbors(framing: Framing, reply: &[u8]) -> Result<Vec<Neighbor>, String> {
    match framing {
        Framing::Text => {
            let line = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
            let pairs = pm_lsh_engine::server::parse_ok_response(line)?;
            Ok(pairs
                .into_iter()
                .map(|(id, dist)| Neighbor::new(dist, id))
                .collect())
        }
        Framing::Binary => match frame::decode_reply(reply).map_err(|e| e.to_string())? {
            frame::Reply::Ok(pairs) => pairs
                .into_iter()
                .map(|(id, dist)| {
                    u32::try_from(id)
                        .map(|id| Neighbor::new(dist, id))
                        .map_err(|_| format!("id {id} exceeds PointId"))
                })
                .collect(),
            frame::Reply::Err(msg) => Err(format!("ERR {msg}")),
            frame::Reply::Pong => Err("PONG in place of a query reply".into()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_summary_names_its_fail_lines() {
        assert_eq!(
            batch_failures(b"OK applied=62 failed=2 epoch=5 points=9"),
            2
        );
        assert_eq!(
            batch_failures(b"OK applied=64 failed=0 epoch=5 points=9"),
            0
        );
        assert_eq!(batch_failures(b"OK 3:0.5"), 0);
        assert_eq!(batch_failures(b"ERR nope"), 0);
    }

    #[test]
    fn text_query_round_trips_exact_bits() {
        let q = [0.1f32, -3.4028235e38, 1.0e-45, 7.0];
        let mut out = Vec::new();
        encode_query(Framing::Text, 3, &q, &mut out);
        let line = std::str::from_utf8(&out).unwrap();
        let back: Vec<f32> = line
            .split_ascii_whitespace()
            .skip(2)
            .map(|f| f.parse().unwrap())
            .collect();
        assert_eq!(back, q);
    }

    #[test]
    fn a_silent_server_is_a_timeout_not_a_hang() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client =
            Client::connect_with(listener.local_addr().unwrap(), Duration::from_millis(50))
                .unwrap();
        let (_held_open, _) = listener.accept().unwrap();
        let err = client.control("PING").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn decodes_both_framings() {
        let want = vec![Neighbor::new(0.5, 3), Neighbor::new(1.25, 17)];
        assert_eq!(
            decode_neighbors(Framing::Text, b"OK 3:0.5,17:1.25").unwrap(),
            want
        );
        let mut framed = Vec::new();
        frame::encode_ok(&want, &mut framed);
        assert_eq!(
            decode_neighbors(Framing::Binary, &framed[4..]).unwrap(),
            want
        );
        assert!(decode_neighbors(Framing::Text, b"ERR boom").is_err());
    }
}

//! TCP serving layer: an event-driven reactor speaking a
//! newline-delimited text protocol (with an optional length-prefixed
//! binary mode) over a [`Router`] of named engines, with graceful drain,
//! connection caps, and optional token authentication.
//!
//! # Wire protocol
//!
//! One request per line, one response line per request, UTF-8, fields
//! separated by single spaces:
//!
//! ```text
//! QUERY <k> <v1> ... <vd>  ->  OK <id>:<dist>,<id>:<dist>,...
//! PING                     ->  PONG
//! HELLO [text|binary]      ->  OK text | OK binary (switches framing)
//! STATS                    ->  STATS index=<name> <EngineStats as one line>
//! INDEXINFO                ->  INDEXINFO name=<name> points=... dim=... m=... c=... epoch=... reindexing=... state=... pct=... shards=...
//! LISTINDEXES              ->  INDEXES <name1>,<name2>,...   (sorted; bare "INDEXES" when empty)
//! USE <name>               ->  OK using <name>
//! AUTH <token>             ->  OK authenticated
//! ATTACH <name> <path>     ->  OK attached <name> points=<n> dim=<d> secs=<s>   (auth-gated)
//! DETACH <name>            ->  OK detached <name>                               (auth-gated)
//! REINDEX <path>           ->  OK index=<name> epoch=<e> points=<n> secs=<s>    (auth-gated)
//! INSERT <v1> ... <vd>     ->  OK id=<id> epoch=<e> points=<n>                  (auth-gated)
//! DELETE <id>              ->  OK deleted <id> epoch=<e> points=<n>             (auth-gated)
//! BATCH <count>            ->  OK applied=<a> failed=<f> epoch=<e> points=<n>   (auth-gated;
//!                              <count> op lines follow, then the reply + <f> FAIL lines)
//! SAVE <path>              ->  OK saved <name> points=<n> bytes=<b> secs=<s>    (auth-gated)
//! QUIT                     ->  BYE (and the server closes the connection)
//! anything else            ->  ERR <message>
//! ```
//!
//! `HELLO binary` switches the connection to the length-prefixed binary
//! frame format of [`crate::frame`] — the server answers `OK binary` in
//! text and both directions speak frames from the next byte on. Binary
//! mode carries `QUERY` and `PING` only; everything else (attach,
//! auth, index management) stays on text connections. Text remains the
//! default: a client that never says `HELLO` sees the protocol above,
//! byte for byte.
//!
//! `QUERY`, `STATS`, `INDEXINFO`, `REINDEX`, `INSERT`, `DELETE` and
//! `SAVE` operate on the connection's *current* index — the router's
//! default at connect time, switched with `USE`. When
//! [`ServerConfig::auth_token`] is set, the mutating verbs
//! (`REINDEX`/`ATTACH`/`DETACH`/`INSERT`/`DELETE`) and `SAVE` (which
//! writes server-side files) answer `ERR authentication required` until
//! the connection sends a matching `AUTH <token>`; without a configured
//! token they are open (and `AUTH` answers `OK authentication not
//! required`). [`ServerHandle::set_auth_token`] swaps the accepted token
//! at runtime without a restart.
//!
//! `ATTACH` auto-detects the file format: a `.pmlsh` snapshot (by magic
//! bytes — see `pm-lsh-persist`) is loaded directly and serves within
//! milliseconds with its saved parameters; a sharded manifest (also by
//! magic bytes) restores the whole shard set as one [`ShardedEngine`];
//! fvecs/csv datasets are built from scratch with
//! [`ServerConfig::attach_params`].
//! `INSERT`/`DELETE` publish a fresh snapshot per call (each bumps the
//! `INDEXINFO` epoch); a `QUERY` after an `OK` reply observes the
//! mutation.
//!
//! `BATCH <count>` amortizes that cost: the `count` lines that follow
//! (each a bare `INSERT <v1> ... <vd>` or `DELETE <id>`, at most
//! `BATCH_MAX_OPS` of them) are collected without being interpreted as
//! top-level commands, syntactically validated *all-or-nothing* (any
//! malformed line answers one `ERR batch line <i>: ...` and nothing
//! applies), then applied through [`ShardedEngine::apply`] as one copy-on-write
//! publication — the epoch bumps once per batch, not once per op. The
//! reply is one `OK applied=<a> failed=<f> epoch=<e> points=<n>` line
//! followed by exactly `f` lines `FAIL <op-index> <message>` for ops the
//! engine refused semantically (wrong dimensionality, non-finite after
//! parse, unknown id, would-empty); the rest of the batch still applies.
//! `BATCH` is text-only and auth-gated like the other mutating verbs.
//!
//! Malformed input never takes the server down: every parse failure is an
//! `ERR` response, every I/O failure closes only that connection, a `k`
//! beyond the indexed point count is clamped, and request lines are
//! capped at `max(512, 64 + 32·d)` bytes of the current index (512 with
//! none selected; binary frames at [`crate::frame::frame_cap`]). The
//! full specification, with a worked `nc` transcript, lives in
//! `docs/PROTOCOL.md`.
//!
//! # Serving reactor
//!
//! One `pmlsh-reactor` thread owns every socket. It runs a readiness
//! loop over the `crate::reactor` poller (epoll on Linux): the
//! listener, a self-pipe waker, and all live connections are registered
//! under tokens, and the thread sleeps in `epoll_wait` until one of them
//! has something to say — no per-connection threads, no polling.
//!
//! * **Non-blocking I/O with backpressure** — each connection carries a
//!   read buffer (capped at its line/frame cap) and a write buffer.
//!   Read interest is suspended while a request is in flight or the
//!   write buffer is past its high-water mark, so a slow or flooding
//!   client throttles itself, never the reactor.
//! * **Query offload** — `QUERY` is validated inline, then submitted to
//!   the engine's worker pool with a completion callback; the callback
//!   formats the reply on the worker thread and wakes the reactor to
//!   write it out. Slow verbs (`ATTACH`/`REINDEX`/`INSERT`/`DELETE`/
//!   `BATCH`/`SAVE`/`DETACH`) run on one-off `pmlsh-op` threads the
//!   same way.
//!   Either way a connection has at most one request in flight; replies
//!   keep request order by construction.
//! * **Connection caps** — at [`ServerConfig::max_connections`] live
//!   connections, further accepts are answered
//!   `ERR server at connection capacity` and closed;
//!   [`ServerConfig::max_connections_per_index`] bounds how many
//!   connections may sit on one index (enforced at accept for the
//!   default index and on `USE`).
//! * **Accept-error backoff** — persistent `accept()` failures (e.g. fd
//!   exhaustion, `EMFILE`) deregister the listener and re-register after
//!   an exponential backoff (capped at [`MAX_ACCEPT_BACKOFF`]) instead
//!   of busy-looping at 100% CPU.
//! * **Graceful drain** — [`ServerHandle::shutdown`] flips the stop flag
//!   and wakes the reactor, which refuses the accept backlog with
//!   `ERR server shutting down`, closes the listener, tells every idle
//!   connection the same, and lets in-flight requests finish — replies
//!   in progress arrive intact, *then* the shutdown notice. There is no
//!   polling interval: drain begins at the next readiness wakeup.
//!   Whoever is still alive at the drain deadline has its socket
//!   force-closed. The outcome is reported as a [`DrainReport`].
//!
//! Binding port 0 picks a free port — [`ServerHandle::addr`] reports it,
//! which is how the loopback tests run without port clashes.

use crate::frame;
use crate::reactor::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};
use crate::router::Router;
use crate::{Engine, EngineConfig, QueryError, ShardedEngine};
use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_metric::Neighbor;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest sleep between consecutive failing `accept()` calls.
pub const MAX_ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long a failed `AUTH` guess stalls its connection (and only its
/// connection) before the `ERR bad token` reply — an online brute-force
/// throttle, implemented as a reactor timer, not a sleeping thread.
const AUTH_THROTTLE: Duration = Duration::from_millis(100);

/// Write-buffer high-water mark: past this many un-flushed reply bytes a
/// connection's read interest is suspended until the peer drains.
const WRITE_HIGH_WATER: usize = 64 * 1024;

/// Most op lines one `BATCH <count>` request may carry. Bounds how much
/// a single connection can buffer server-side before the batch applies.
const BATCH_MAX_OPS: usize = 4096;

/// First token pair of a successful `BATCH` reply:
/// `OK applied=<a> failed=<f> epoch=<e> points=<n>`.
const BATCH_OK_PREFIX: &str = "OK applied=";

/// Prefix of each per-op failure line following a `BATCH` reply:
/// `FAIL <op-index> <message>` — exactly `failed` of them.
const BATCH_FAIL_PREFIX: &str = "FAIL ";

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the waker pipe's read end.
const WAKER: u64 = 1;
/// First token handed to an accepted connection (monotonic, never
/// reused, so a stale completion can never hit a recycled connection).
const FIRST_CONN: u64 = 2;

/// Serving-layer knobs (the engine itself is tuned via [`EngineConfig`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Most simultaneous live connections; further accepts are answered
    /// `ERR server at connection capacity` and closed.
    pub max_connections: usize,
    /// Most simultaneous live connections whose *current* index is the
    /// same one — a noisy tenant cannot starve every other index of
    /// connection slots. Enforced at accept time (against the default
    /// index) and on `USE`. The default (`usize::MAX`) disables the
    /// quota.
    pub max_connections_per_index: usize,
    /// How long [`ServerHandle::shutdown`] (and the handle's `Drop`)
    /// waits for in-flight connections before force-closing them.
    pub drain_timeout: Duration,
    /// When set, `REINDEX`/`ATTACH`/`DETACH` require a prior
    /// `AUTH <token>` on the same connection. Swappable at runtime with
    /// [`ServerHandle::set_auth_token`].
    pub auth_token: Option<String>,
    /// Index parameters for datasets attached over the wire
    /// (`ATTACH <name> <path>`).
    pub attach_params: PmLshParams,
    /// Engine configuration (worker pool, batcher) for engines created by
    /// wire `ATTACH` — each attached index runs its own pool.
    pub attach_engine_config: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            max_connections_per_index: usize::MAX,
            drain_timeout: Duration::from_secs(5),
            auth_token: None,
            attach_params: PmLshParams::default(),
            attach_engine_config: EngineConfig::default(),
        }
    }
}

/// How a shutdown's drain went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` when no live connection remains (cleanly or after forcing).
    pub drained: bool,
    /// Connections whose sockets had to be force-closed at the deadline.
    pub forced: usize,
}

/// A running server: the reactor thread and the shutdown switch.
///
/// Dropping the handle drains the server with the configured
/// [`ServerConfig::drain_timeout`]; call [`ServerHandle::join`] instead to
/// serve until the process dies.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections right now.
    pub fn connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Replaces the accepted `AUTH` token without a restart. Connections
    /// that already authenticated stay authenticated; new `AUTH`
    /// attempts (and the auth state of new connections) are judged
    /// against the new value. `None` turns authentication off.
    pub fn set_auth_token(&self, token: Option<String>) {
        *self.shared.auth.write().expect("auth token lock poisoned") = token;
    }

    /// Blocks until the reactor thread exits (i.e. forever, unless another
    /// handle clone... there is none — effectively: serve until killed).
    pub fn join(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }

    /// Gracefully drains with the configured
    /// [`ServerConfig::drain_timeout`]: stops accepting, lets every
    /// in-flight request finish and its reply arrive intact, tells each
    /// connection `ERR server shutting down`, and waits for them to
    /// close. Connections still alive at the deadline are force-closed.
    pub fn shutdown(mut self) -> DrainReport {
        let timeout = self.shared.config.drain_timeout;
        self.drain(timeout)
    }

    /// [`ServerHandle::shutdown`] with an explicit drain deadline.
    pub fn shutdown_within(mut self, timeout: Duration) -> DrainReport {
        self.drain(timeout)
    }

    fn drain(&mut self, timeout: Duration) -> DrainReport {
        *self
            .shared
            .drain_timeout
            .lock()
            .expect("drain timeout lock poisoned") = timeout;
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        self.shared
            .report
            .lock()
            .expect("drain report lock poisoned")
            .take()
            .unwrap_or(DrainReport {
                // The reactor died without reporting (a panic): the best
                // available answer is whether anything is still live.
                drained: self.shared.live.load(Ordering::SeqCst) == 0,
                forced: 0,
            })
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            let timeout = self.shared.config.drain_timeout;
            self.drain(timeout);
        }
    }
}

/// Serves a single engine under the index name `"default"` with a default
/// [`ServerConfig`] — the one-dataset convenience over [`serve_router`].
/// Accepts a plain [`Engine`] (serving it as a single shard) or a
/// [`ShardedEngine`].
pub fn serve(
    engine: impl Into<ShardedEngine>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    let router = Router::with_engine("default", engine)
        .expect("'default' is a valid index name for a fresh router");
    serve_router(router, addr, ServerConfig::default())
}

/// Binds `addr` (e.g. `("127.0.0.1", 0)` or `"0.0.0.0:7878"`) and serves
/// every index attached to `router` — including ones attached or detached
/// while running — until the returned handle is shut down or dropped.
pub fn serve_router(
    router: Router,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let (waker, waker_rx) = wake_pair()?;
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    poller.add(waker_rx.fd(), WAKER, Interest::READ)?;
    let shared = Arc::new(Shared {
        router,
        auth: RwLock::new(config.auth_token.clone()),
        drain_timeout: Mutex::new(config.drain_timeout),
        config,
        stop: AtomicBool::new(false),
        live: AtomicUsize::new(0),
        completions: Mutex::new(Vec::new()),
        waker,
        report: Mutex::new(None),
    });
    let reactor = Reactor {
        shared: Arc::clone(&shared),
        poller,
        waker_rx,
        listener: Some(listener),
        accept_errors: 0,
        accept_resume: None,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        timers: Vec::new(),
        per_index: HashMap::new(),
        draining: false,
        drain_deadline: None,
        forced: 0,
        events: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("pmlsh-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(thread),
    })
}

/// A finished off-reactor operation (a worker-pool query or a `pmlsh-op`
/// thread) waiting for the reactor to write its reply bytes out.
#[derive(Debug)]
struct Completion {
    /// The connection's poller token.
    conn: u64,
    /// The fully formatted reply (text line or binary frame).
    reply: Vec<u8>,
}

/// Everything the reactor, the worker completions and the handle share.
#[derive(Debug)]
struct Shared {
    router: Router,
    config: ServerConfig,
    /// The live auth token — [`ServerHandle::set_auth_token`] writes,
    /// `AUTH` handling reads. Separate from `config.auth_token` (the
    /// boot value) so a swap needs no restart.
    auth: RwLock<Option<String>>,
    stop: AtomicBool,
    live: AtomicUsize,
    /// The deadline [`ServerHandle::drain`] wants; read by the reactor
    /// when the stop flag lands.
    drain_timeout: Mutex<Duration>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    report: Mutex<Option<DrainReport>>,
}

impl Shared {
    /// Queues `reply` for `conn` and wakes the reactor. Callable from any
    /// thread; a reply for a connection that died in the meantime is
    /// silently dropped by the reactor.
    fn complete(&self, conn: u64, reply: Vec<u8>) {
        self.completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion { conn, reply });
        self.waker.wake();
    }
}

/// Sleep after the `n`-th consecutive `accept()` error (n >= 1):
/// 500 µs doubling up to [`MAX_ACCEPT_BACKOFF`]. Under persistent fd
/// exhaustion (`EMFILE`) an unthrottled accept loop spins a full core;
/// this bounds it to ~20 attempts/s while recovering in one successful
/// accept.
fn accept_backoff(consecutive_errors: u32) -> Duration {
    let base = Duration::from_micros(500);
    let doublings = consecutive_errors.saturating_sub(1).min(10);
    (base * 2u32.pow(doublings)).min(MAX_ACCEPT_BACKOFF)
}

/// Answers a connection the server will not serve with a final `ERR` line
/// and closes it. Best-effort: a refusal must never block the reactor on
/// a slow peer.
fn refuse(mut stream: TcpStream, message: &[u8]) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(message);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection protocol state (cloned into `pmlsh-op` threads for
/// offloaded verbs, so it must stay cheap to copy).
#[derive(Clone, Debug)]
struct ConnState {
    /// The index `QUERY`/`STATS`/`INDEXINFO`/`REINDEX` route to. Starts
    /// at the router's default; switched with `USE`. The name can go
    /// stale (`DETACH`), in which case routed verbs answer `ERR`.
    index: Option<String>,
    /// `true` once the connection may use mutating verbs — immediately
    /// when no auth token is configured, after a correct `AUTH`
    /// otherwise.
    authed: bool,
    /// The current index's dimensionality (0 with none selected), cached
    /// per connection so the per-request path costs no snapshot load — a
    /// snapshot invariant (reindex rejects dimension changes), refreshed
    /// on `USE`.
    dim: usize,
    /// Request-line byte cap, derived from `dim` (512 floor).
    line_cap: usize,
    /// Binary-frame payload cap, derived from `dim` (512 floor).
    frame_cap: usize,
}

impl ConnState {
    /// Points this connection at `engine` under `name` (or at nothing).
    fn select(&mut self, name: Option<String>, engine: Option<&ShardedEngine>) {
        self.index = name;
        self.dim = engine.map_or(0, ShardedEngine::dim);
        // A legitimate line is `QUERY <k> <v1..vd>`: ~32 bytes per float
        // is generous; the 512-byte floor leaves room for ATTACH/REINDEX
        // paths even at tiny dimensionalities (and with no index selected
        // at all).
        self.line_cap = (64 + 32 * self.dim).max(512);
        self.frame_cap = frame::frame_cap(self.dim);
    }
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet consumed as requests.
    buf_in: Vec<u8>,
    /// Reply bytes not yet written; `out_pos` is how far the socket got.
    buf_out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// `true` after `HELLO binary`: requests and replies are frames.
    binary: bool,
    /// A request is off on a worker/op thread; input is paused until its
    /// completion arrives (which also keeps replies in request order).
    inflight: bool,
    /// Mid-`BATCH` accumulation: `Some((expected, ops))` from a valid
    /// `BATCH <count>` header until `expected` op lines have arrived —
    /// lines collected here are never interpreted as top-level commands.
    /// The whole request gets one reply, delivered after the last line.
    batch: Option<(usize, Vec<String>)>,
    /// The peer finished writing (read returned 0).
    eof: bool,
    /// No further requests will be accepted; close once `buf_out` flushes.
    closing: bool,
    /// The interest currently registered in the poller.
    interest: Interest,
}

impl Conn {
    /// Flushed everything it ever will — safe to close.
    fn done(&self) -> bool {
        self.closing && self.out_pos >= self.buf_out.len()
    }

    /// How many input bytes may accumulate before reads pause. Enough
    /// for any single legal request plus its delimiter/prefix;
    /// pipelined requests beyond it simply wait in the kernel buffer.
    fn in_cap(&self) -> usize {
        if self.binary {
            self.state.frame_cap + 4
        } else {
            self.state.line_cap + 1
        }
    }

    /// Queues a text reply line (text-mode verbs only).
    fn reply_line(&mut self, line: &str) {
        self.buf_out.extend_from_slice(line.as_bytes());
        self.buf_out.push(b'\n');
    }

    /// Queues an error reply in the connection's current framing.
    /// `prefixed` is the text form (`ERR ...`); binary mode strips the
    /// prefix and sends the message as an ERR frame.
    fn reply_err(&mut self, prefixed: &str) {
        if self.binary {
            let message = prefixed.strip_prefix("ERR ").unwrap_or(prefixed);
            frame::encode_err(message, &mut self.buf_out);
        } else {
            self.reply_line(prefixed);
        }
    }

    /// Declares the connection unusable (hard I/O error): drop any
    /// unwritable replies and let `done()` close it.
    fn mark_dead(&mut self) {
        self.closing = true;
        self.buf_out.clear();
        self.out_pos = 0;
    }
}

/// One parsed request, either framing.
enum WireRequest {
    Line(String),
    Frame(frame::Request),
}

/// The event loop: owns the poller, the listener, and every connection.
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    waker_rx: WakeReceiver,
    /// `None` once a drain closed it.
    listener: Option<TcpListener>,
    accept_errors: u32,
    /// `Some(when)` while the listener is deregistered after accept
    /// errors; re-registered once `when` passes.
    accept_resume: Option<Instant>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Pending delayed replies (the failed-`AUTH` throttle): when each
    /// fires, the reply is delivered like a completion.
    timers: Vec<(Instant, u64, Vec<u8>)>,
    /// Live connections per current index name — the
    /// [`ServerConfig::max_connections_per_index`] quota ledger.
    per_index: HashMap<String, usize>,
    draining: bool,
    drain_deadline: Option<Instant>,
    forced: usize,
    events: Vec<Event>,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    self.force_close_all();
                }
            }
            if self.draining && self.conns.is_empty() {
                *self
                    .shared
                    .report
                    .lock()
                    .expect("drain report lock poisoned") = Some(DrainReport {
                    drained: true,
                    forced: self.forced,
                });
                return;
            }
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                // epoll_wait fails only on programming errors (EBADF,
                // EINVAL); there is no serving without a poller.
                self.force_close_all();
                *self
                    .shared
                    .report
                    .lock()
                    .expect("drain report lock poisoned") = Some(DrainReport {
                    drained: true,
                    forced: self.forced,
                });
                return;
            }
            for &event in &events {
                match event.token {
                    WAKER => self.waker_rx.drain(&self.shared.waker),
                    LISTENER => self.accept_ready(),
                    _ => self.handle_conn_event(event),
                }
            }
            self.events = events;
            self.run_completions();
            self.run_timers();
            self.maybe_resume_accept();
        }
    }

    /// How long the next `wait` may sleep: until the earliest timer,
    /// accept-backoff expiry, or drain deadline (forever if none).
    fn next_timeout(&self) -> Option<Duration> {
        let mut deadline: Option<Instant> = None;
        for (when, _, _) in &self.timers {
            deadline = Some(deadline.map_or(*when, |d| d.min(*when)));
        }
        if let Some(when) = self.accept_resume {
            deadline = Some(deadline.map_or(when, |d| d.min(when)));
        }
        if let Some(when) = self.drain_deadline {
            deadline = Some(deadline.map_or(when, |d| d.min(when)));
        }
        deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    // -- accept path ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accept_errors = 0;
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent failure (EMFILE and friends): silence the
                    // listener in the poller and retry after a backoff,
                    // so the reactor keeps serving live connections at
                    // full speed instead of spinning on accept().
                    self.accept_errors += 1;
                    let _ = self.poller.delete(listener.as_raw_fd());
                    self.accept_resume = Some(Instant::now() + accept_backoff(self.accept_errors));
                    return;
                }
            }
        }
    }

    /// Re-registers a backed-off listener once its resume time passes.
    fn maybe_resume_accept(&mut self) {
        let Some(resume) = self.accept_resume else {
            return;
        };
        if Instant::now() < resume {
            return;
        }
        match self.listener.as_ref() {
            Some(listener) => {
                match self
                    .poller
                    .add(listener.as_raw_fd(), LISTENER, Interest::READ)
                {
                    Ok(()) => self.accept_resume = None,
                    Err(_) => self.accept_resume = Some(Instant::now() + MAX_ACCEPT_BACKOFF),
                }
            }
            None => self.accept_resume = None,
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.draining || self.shared.stop.load(Ordering::SeqCst) {
            refuse(stream, b"ERR server shutting down\n");
            return;
        }
        if self.conns.len() >= self.shared.config.max_connections {
            refuse(stream, b"ERR server at connection capacity\n");
            return;
        }
        let default = self.shared.router.default_name();
        if let Some(name) = default.as_deref() {
            if self.index_full(name) {
                refuse(
                    stream,
                    format!("ERR index '{name}' at connection capacity\n").as_bytes(),
                );
                return;
            }
        }
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            // Nothing was counted yet; dropping the stream is the whole
            // cleanup.
            return;
        }
        let mut state = ConnState {
            index: None,
            authed: self
                .shared
                .auth
                .read()
                .expect("auth token lock poisoned")
                .is_none(),
            dim: 0,
            line_cap: 0,
            frame_cap: 0,
        };
        let engine = default
            .as_deref()
            .and_then(|name| self.shared.router.get(name));
        state.select(default, engine.as_ref());
        if let Some(name) = state.index.clone() {
            *self.per_index.entry(name).or_insert(0) += 1;
        }
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.conns.insert(
            token,
            Conn {
                stream,
                token,
                buf_in: Vec::new(),
                buf_out: Vec::new(),
                out_pos: 0,
                state,
                binary: false,
                inflight: false,
                batch: None,
                eof: false,
                closing: false,
                interest: Interest::READ,
            },
        );
    }

    fn index_full(&self, name: &str) -> bool {
        self.per_index.get(name).copied().unwrap_or(0)
            >= self.shared.config.max_connections_per_index
    }

    fn release_quota(&mut self, name: &str) {
        if let Some(count) = self.per_index.get_mut(name) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.per_index.remove(name);
            }
        }
    }

    // -- connection events ------------------------------------------------

    fn handle_conn_event(&mut self, event: Event) {
        // Remove-operate-reinsert keeps the borrow checker out of the
        // way: every helper below gets `&mut self` and the owned Conn.
        let Some(mut conn) = self.conns.remove(&event.token) else {
            return;
        };
        let mut dead = false;
        if event.readable {
            dead = self.do_read(&mut conn);
        } else if event.hangup {
            // HUP/ERR with read interest suspended (a request in flight,
            // or write backpressure): the peer fully vanished.
            dead = true;
        }
        if !dead && event.writable {
            self.try_flush(&mut conn);
        }
        self.finish(conn, dead);
    }

    /// Reinserts a connection with refreshed poller interest, or closes
    /// it when it is dead or has said everything it ever will.
    fn finish(&mut self, mut conn: Conn, dead: bool) {
        if dead || conn.done() {
            self.close_conn(conn);
        } else {
            self.update_interest(&mut conn);
            self.conns.insert(conn.token, conn);
        }
    }

    /// Drains the socket into `buf_in` (up to the input cap) and
    /// processes whatever requests completed. Returns `true` when the
    /// connection suffered a hard read error.
    fn do_read(&mut self, conn: &mut Conn) -> bool {
        let mut scratch = [0u8; 16384];
        loop {
            if conn.buf_in.len() > conn.in_cap() {
                // Backpressure: stop reading; the level-triggered poller
                // re-fires once processing makes room.
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => conn.buf_in.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        self.process_input(conn);
        false
    }

    /// Consumes complete requests from `buf_in` (at most one in flight at
    /// a time), then applies the drain/EOF epilogue and flushes.
    ///
    /// The drain flag is only consulted once the buffered complete
    /// requests are handled: a request the client already finished
    /// writing is answered even if the drain lands first — the protocol
    /// promises that every owed reply is delivered before
    /// `ERR server shutting down`. (A client that keeps the pipeline
    /// saturated can ride that promise only until the drain deadline
    /// force-closes its socket.)
    fn process_input(&mut self, conn: &mut Conn) {
        while !conn.inflight && !conn.closing {
            match self.take_request(conn) {
                Some(request) => self.handle_request(conn, request),
                None => break,
            }
        }
        if !conn.inflight && !conn.closing {
            if self.draining {
                conn.reply_err("ERR server shutting down");
                conn.closing = true;
            } else if conn.eof {
                conn.closing = true;
            }
        }
        self.try_flush(conn);
    }

    /// Extracts one complete request from `buf_in`, if any. Protocol
    /// violations (oversized line/frame, malformed frame) queue their
    /// `ERR` and mark the connection closing.
    fn take_request(&mut self, conn: &mut Conn) -> Option<WireRequest> {
        if conn.binary {
            return self.take_frame(conn);
        }
        let cap = conn.state.line_cap;
        let window = conn.buf_in.len().min(cap + 1);
        if let Some(i) = conn.buf_in[..window].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.buf_in.drain(..=i).collect();
            return Some(WireRequest::Line(
                String::from_utf8_lossy(&line).into_owned(),
            ));
        }
        if conn.buf_in.len() > cap {
            conn.reply_line("ERR line exceeds protocol maximum");
            conn.closing = true;
            return None;
        }
        if conn.eof && !conn.buf_in.is_empty() {
            // A final unterminated line still gets answered.
            let line = std::mem::take(&mut conn.buf_in);
            return Some(WireRequest::Line(
                String::from_utf8_lossy(&line).into_owned(),
            ));
        }
        None
    }

    fn take_frame(&mut self, conn: &mut Conn) -> Option<WireRequest> {
        if conn.buf_in.len() < 4 {
            // A truncated length prefix at EOF is a clean close, not an
            // error: the peer simply hung up between frames.
            return None;
        }
        let len = u32::from_le_bytes(conn.buf_in[..4].try_into().expect("4-byte slice")) as usize;
        if len > conn.state.frame_cap {
            conn.reply_err("ERR frame exceeds protocol maximum");
            conn.closing = true;
            return None;
        }
        if conn.buf_in.len() < 4 + len {
            // Mid-frame EOF: nothing sensible to answer; close cleanly.
            return None;
        }
        let mut framed: Vec<u8> = conn.buf_in.drain(..4 + len).collect();
        let payload = framed.split_off(4);
        match frame::decode_request(&payload) {
            Ok(request) => Some(WireRequest::Frame(request)),
            Err(e) => {
                conn.reply_err(&format!("ERR {e}"));
                conn.closing = true;
                None
            }
        }
    }

    fn handle_request(&mut self, conn: &mut Conn, request: WireRequest) {
        match request {
            WireRequest::Line(text) => self.handle_line(conn, &text),
            WireRequest::Frame(frame::Request::Ping) => frame::encode_pong(&mut conn.buf_out),
            WireRequest::Frame(frame::Request::Query { k, query }) => {
                self.start_query(conn, query, k as usize);
            }
        }
    }

    fn handle_line(&mut self, conn: &mut Conn, line: &str) {
        if conn.batch.is_some() {
            // Mid-BATCH: this line is an op, never a command — even a
            // line that spells "QUIT" is just a (malformed) op.
            return self.accumulate_batch(conn, line);
        }
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let mut fields = line.split_ascii_whitespace();
        match fields.next() {
            Some("QUERY") => {
                let k: usize = match fields.next().map(str::parse) {
                    Some(Ok(k)) if k >= 1 => k,
                    _ => return conn.reply_line("ERR QUERY needs a positive integer k"),
                };
                // Sized off the connection's cached dimensionality so a
                // well-formed high-d query never reallocates mid-parse.
                let mut query = Vec::with_capacity(conn.state.dim.max(16));
                for field in fields {
                    match field.parse::<f32>() {
                        Ok(v) if v.is_finite() => query.push(v),
                        _ => {
                            return conn.reply_line(&format!("ERR bad vector component '{field}'"))
                        }
                    }
                }
                self.start_query(conn, query, k);
            }
            Some("PING") => conn.reply_line("PONG"),
            Some("HELLO") => match (fields.next(), fields.next()) {
                (None, _) | (Some("text"), None) => {
                    conn.binary = false;
                    conn.reply_line("OK text");
                }
                (Some("binary"), None) => {
                    // The acknowledgement itself is text; everything
                    // after it speaks frames.
                    conn.reply_line("OK binary");
                    conn.binary = true;
                }
                _ => conn.reply_line("ERR HELLO supports: text, binary"),
            },
            Some("STATS") => match current_engine(&self.shared, &conn.state) {
                Ok((name, engine)) => {
                    conn.reply_line(&format!("STATS index={name} {}", engine.stats()));
                }
                Err(err) => conn.reply_line(&err),
            },
            Some("INDEXINFO") => match current_engine(&self.shared, &conn.state) {
                Ok((name, engine)) => {
                    conn.reply_line(&format!("INDEXINFO name={name} {}", engine.info()));
                }
                Err(err) => conn.reply_line(&err),
            },
            Some("LISTINDEXES") => {
                let names = self.shared.router.names();
                conn.reply_line(&if names.is_empty() {
                    "INDEXES".to_string()
                } else {
                    format!("INDEXES {}", names.join(","))
                });
            }
            Some("USE") => self.answer_use(conn, fields),
            Some("AUTH") => self.answer_auth(conn, fields),
            Some("BATCH") => {
                let count: usize = match fields.next().map(str::parse) {
                    Some(Ok(c)) if c >= 1 => c,
                    _ => return conn.reply_line("ERR BATCH needs a positive op count"),
                };
                if fields.next().is_some() {
                    return conn.reply_line("ERR BATCH takes exactly one op count");
                }
                if count > BATCH_MAX_OPS {
                    return conn
                        .reply_line(&format!("ERR BATCH accepts at most {BATCH_MAX_OPS} ops"));
                }
                // No header ack: the single reply comes once all `count`
                // op lines have arrived (and been validated + applied).
                conn.batch = Some((count, Vec::with_capacity(count.min(256))));
            }
            Some("ATTACH" | "DETACH" | "REINDEX" | "SAVE") => {
                let line = line.to_string();
                self.offload(conn, move |shared, state| answer_slow(&line, shared, state));
            }
            // A single-op mutation is a one-line batch through the same
            // executor; only the reply wording differs.
            Some("INSERT" | "DELETE") => {
                let op = [line.to_string()];
                self.offload(conn, move |shared, state| {
                    answer_mutation(&op, false, shared, state)
                });
            }
            Some("QUIT") => {
                conn.reply_line("BYE");
                conn.closing = true;
            }
            Some(other) => conn.reply_line(&format!("ERR unknown command '{other}'")),
            None => {}
        }
    }

    fn answer_use<'a>(&mut self, conn: &mut Conn, mut fields: impl Iterator<Item = &'a str>) {
        let Some(name) = fields.next() else {
            return conn.reply_line("ERR USE needs an index name");
        };
        if fields.next().is_some() {
            return conn.reply_line("ERR USE takes exactly one index name");
        }
        match self.shared.router.get(name) {
            Some(engine) => {
                if conn.state.index.as_deref() == Some(name) {
                    // Re-selecting the current index refreshes the cached
                    // dimensionality without touching the quota ledger.
                    conn.state.select(Some(name.to_string()), Some(&engine));
                    return conn.reply_line(&format!("OK using {name}"));
                }
                if self.index_full(name) {
                    return conn.reply_line(&format!("ERR index '{name}' at connection capacity"));
                }
                if let Some(old) = conn.state.index.clone() {
                    self.release_quota(&old);
                }
                *self.per_index.entry(name.to_string()).or_insert(0) += 1;
                conn.state.select(Some(name.to_string()), Some(&engine));
                conn.reply_line(&format!("OK using {name}"));
            }
            None => conn.reply_line(&format!("ERR unknown index '{name}' (see LISTINDEXES)")),
        }
    }

    fn answer_auth<'a>(&mut self, conn: &mut Conn, mut fields: impl Iterator<Item = &'a str>) {
        let Some(token) = fields.next() else {
            return conn.reply_line("ERR AUTH needs a token");
        };
        if fields.next().is_some() {
            return conn.reply_line("ERR AUTH takes exactly one (whitespace-free) token");
        }
        let expected = self
            .shared
            .auth
            .read()
            .expect("auth token lock poisoned")
            .clone();
        match expected.as_deref() {
            None => conn.reply_line("OK authentication not required"),
            Some(expected) if token_matches(expected, token) => {
                conn.state.authed = true;
                conn.reply_line("OK authenticated");
            }
            Some(_) => {
                // Throttle online brute force: one failed guess costs
                // this connection (and only this connection) a beat. The
                // delay is a reactor timer — nobody sleeps.
                conn.inflight = true;
                self.timers.push((
                    Instant::now() + AUTH_THROTTLE,
                    conn.token,
                    b"ERR bad token\n".to_vec(),
                ));
            }
        }
    }

    /// Submits a validated-enough `QUERY` to the engine's worker pool
    /// with a completion callback that formats the reply off-reactor.
    fn start_query(&mut self, conn: &mut Conn, query: Vec<f32>, k: usize) {
        let engine = match current_engine(&self.shared, &conn.state) {
            Ok((_name, engine)) => engine,
            Err(err) => return conn.reply_err(&err),
        };
        let shared = Arc::clone(&self.shared);
        let token = conn.token;
        let binary = conn.binary;
        let submitted = engine.submit_query(&query, k, move |result| {
            let reply = match result {
                Ok(result) => {
                    if binary {
                        let mut out = Vec::new();
                        frame::encode_ok(&result.neighbors, &mut out);
                        out
                    } else {
                        format_ok_text(&result.neighbors)
                    }
                }
                Err(e) => {
                    let message = query_err_message(&e);
                    if binary {
                        let mut out = Vec::new();
                        frame::encode_err(&message, &mut out);
                        out
                    } else {
                        format!("ERR {message}\n").into_bytes()
                    }
                }
            };
            shared.complete(token, reply);
        });
        match submitted {
            Ok(()) => conn.inflight = true,
            // Validation failed synchronously (dimension mismatch, k=0,
            // NaN component): an ERR reply, and the connection lives on.
            Err(e) => conn.reply_err(&format!("ERR {}", query_err_message(&e))),
        }
    }

    /// Runs slow work (`ATTACH`/`DETACH`/`REINDEX`/`SAVE` and every
    /// mutation — builds, file I/O, engine teardown, copy-on-write
    /// clones) on a one-off thread so the reactor keeps serving every
    /// other connection meanwhile. `work` returns the whole reply, which
    /// may span several lines (a `BATCH` summary plus its `FAIL` lines).
    fn offload(
        &mut self,
        conn: &mut Conn,
        work: impl FnOnce(&Shared, &ConnState) -> String + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        let state = conn.state.clone();
        let token = conn.token;
        let spawned = std::thread::Builder::new()
            .name("pmlsh-op".to_string())
            .spawn(move || {
                let mut reply = work(&shared, &state).into_bytes();
                reply.push(b'\n');
                shared.complete(token, reply);
            });
        match spawned {
            Ok(_) => conn.inflight = true,
            // Out of threads: fail the request, not the connection.
            Err(_) => conn.reply_line("ERR internal error"),
        }
    }

    /// Collects one op line of an in-progress `BATCH`; once the header's
    /// count is reached, the whole batch is offloaded as one unit.
    fn accumulate_batch(&mut self, conn: &mut Conn, line: &str) {
        let Some((expected, mut ops)) = conn.batch.take() else {
            return;
        };
        ops.push(line.trim().to_string());
        if ops.len() < expected {
            conn.batch = Some((expected, ops));
        } else {
            self.offload(conn, move |shared, state| {
                answer_mutation(&ops, true, shared, state)
            });
        }
    }

    // -- completions and timers -------------------------------------------

    fn run_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned"),
        );
        for completion in completions {
            self.deliver(completion.conn, completion.reply);
        }
    }

    fn run_timers(&mut self) {
        let now = Instant::now();
        let mut due = Vec::new();
        self.timers.retain_mut(|(when, token, reply)| {
            if *when <= now {
                due.push((*token, std::mem::take(reply)));
                false
            } else {
                true
            }
        });
        for (token, reply) in due {
            self.deliver(token, reply);
        }
    }

    /// Hands an off-reactor reply to its connection and resumes request
    /// processing (buffered pipelined requests, drain/EOF epilogue). A
    /// reply for a connection that died in the meantime is dropped.
    fn deliver(&mut self, token: u64, reply: Vec<u8>) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        conn.inflight = false;
        conn.buf_out.extend_from_slice(&reply);
        self.process_input(&mut conn);
        self.finish(conn, false);
    }

    // -- writes and lifecycle ---------------------------------------------

    /// Writes as much of `buf_out` as the socket accepts right now. Hard
    /// errors mark the connection dead (see [`Conn::mark_dead`]).
    fn try_flush(&mut self, conn: &mut Conn) {
        while conn.out_pos < conn.buf_out.len() {
            match conn.stream.write(&conn.buf_out[conn.out_pos..]) {
                Ok(0) => return conn.mark_dead(),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return conn.mark_dead(),
            }
        }
        if conn.out_pos >= conn.buf_out.len() {
            conn.buf_out.clear();
            conn.out_pos = 0;
        }
    }

    /// Re-derives what the poller should watch for this connection and
    /// applies it if it changed.
    fn update_interest(&mut self, conn: &mut Conn) {
        let pending = conn.buf_out.len() - conn.out_pos;
        let want = Interest {
            // No reads while a request is in flight (serial processing,
            // natural backpressure), while closing, after EOF, or while
            // the peer is too slow draining replies.
            read: !conn.inflight && !conn.closing && !conn.eof && pending < WRITE_HIGH_WATER,
            write: pending > 0,
        };
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if let Some(name) = conn.state.index.as_deref() {
            let name = name.to_string();
            self.release_quota(&name);
        }
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        // Dropping the stream closes the socket.
    }

    // -- drain -------------------------------------------------------------

    /// Starts the graceful drain: refuse the accept backlog, close the
    /// listener (later connects get ECONNREFUSED), and tell every idle
    /// connection `ERR server shutting down`. In-flight connections get
    /// the same notice right after their owed reply is delivered.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(
            Instant::now()
                + *self
                    .shared
                    .drain_timeout
                    .lock()
                    .expect("drain timeout lock poisoned"),
        );
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
            loop {
                match listener.accept() {
                    Ok((stream, _)) => refuse(stream, b"ERR server shutting down\n"),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break, // WouldBlock: backlog emptied
                }
            }
        }
        self.accept_resume = None;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            self.process_input(&mut conn);
            self.finish(conn, false);
        }
    }

    /// The drain deadline passed: close whatever is left, counting each
    /// casualty.
    fn force_close_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.remove(&token) {
                self.forced += 1;
                self.close_conn(conn);
            }
        }
    }
}

/// The text `OK` line for a neighbor list, newline included.
fn format_ok_text(neighbors: &[Neighbor]) -> Vec<u8> {
    let mut out = String::with_capacity(16 * neighbors.len() + 4);
    out.push_str("OK ");
    for (i, n) in neighbors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", n.id, n.dist));
    }
    out.push('\n');
    out.into_bytes()
}

/// The unprefixed error message for a failed query — shared by text
/// (`ERR <message>`) and binary (ERR frame) replies.
fn query_err_message(e: &QueryError) -> String {
    match e {
        QueryError::DimensionMismatch { expected, got } => {
            format!("query has {got} components, index dimensionality is {expected}")
        }
        QueryError::ZeroK => "QUERY needs a positive integer k".to_string(),
        QueryError::NonFiniteComponent => "query contains a non-finite component".to_string(),
        QueryError::Internal => "internal error".to_string(),
    }
}

/// Dispatches an offloaded slow verb on a `pmlsh-op` thread. `line` is
/// the whole trimmed request; the caller guaranteed its verb is one of
/// the offloaded set.
fn answer_slow(line: &str, shared: &Shared, conn: &ConnState) -> String {
    let mut fields = line.split_ascii_whitespace();
    match fields.next() {
        Some("ATTACH") => answer_attach(fields, shared, conn),
        Some("DETACH") => answer_detach(fields, shared, conn),
        Some("REINDEX") => answer_reindex(fields, shared, conn),
        Some("SAVE") => answer_save(fields, shared, conn),
        _ => "ERR internal error".to_string(),
    }
}

/// Resolves the connection's current index to a live engine, or the `ERR`
/// line explaining why it cannot.
fn current_engine(shared: &Shared, conn: &ConnState) -> Result<(String, ShardedEngine), String> {
    let Some(name) = conn.index.as_deref() else {
        return Err("ERR no index attached (ATTACH one, then USE it)".to_string());
    };
    match shared.router.get(name) {
        Some(engine) => Ok((name.to_string(), engine)),
        None => Err(format!(
            "ERR index '{name}' is not attached (see LISTINDEXES)"
        )),
    }
}

/// The `ERR` line for an unauthenticated mutating verb, if any.
fn auth_err(conn: &ConnState) -> Option<String> {
    if conn.authed {
        None
    } else {
        Some("ERR authentication required (AUTH <token>)".to_string())
    }
}

/// Length-then-bytes comparison that always scans the full candidate, so
/// the timing of a failed `AUTH` does not leak how much of the token
/// matched.
fn token_matches(expected: &str, offered: &str) -> bool {
    let expected = expected.as_bytes();
    let offered = offered.as_bytes();
    if expected.is_empty() {
        // An empty configured token matches nothing — and must not be
        // indexed by the scan below. (The CLI rejects an empty
        // --auth-token outright; this keeps a programmatic Some("")
        // locked rather than panicking the handler.)
        return false;
    }
    let mut diff = expected.len() ^ offered.len();
    for (i, &b) in offered.iter().enumerate() {
        diff |= usize::from(b ^ expected[i % expected.len()]);
    }
    diff == 0
}

fn answer_attach<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    shared: &Shared,
    conn: &ConnState,
) -> String {
    if let Some(err) = auth_err(conn) {
        return err;
    }
    let (Some(name), Some(path), None) = (fields.next(), fields.next(), fields.next()) else {
        return "ERR ATTACH needs <name> <path> (both whitespace-free)".to_string();
    };
    // Fail the cheap checks before the expensive build. The final
    // Router::attach re-checks both (another connection may have raced an
    // attach of the same name), so TOCTOU costs a wasted build, never an
    // inconsistent router.
    if let Err(e) = Router::validate_name(name) {
        return format!("ERR {e}");
    }
    if shared.router.get(name).is_some() {
        return format!("ERR an index named '{name}' is already attached");
    }
    // A sharded manifest (detected by magic bytes, not extension)
    // restores every shard file it names and serves them as one
    // scatter-gather engine — the set a wire `SAVE` of a sharded index
    // wrote.
    if pm_lsh_persist::is_manifest_file(path) {
        let start = Instant::now();
        let engine = match pm_lsh_persist::load_sharded(path) {
            Ok(shards) => ShardedEngine::from_indexes(shards, shared.config.attach_engine_config),
            Err(e) => return format!("ERR reading {path}: {e}"),
        };
        let points = engine.len();
        let dim = engine.dim();
        return match shared.router.attach(name, engine) {
            Ok(()) => format!(
                "OK attached {name} points={points} dim={dim} secs={:.3}",
                start.elapsed().as_secs_f64()
            ),
            Err(e) => format!("ERR {e}"),
        };
    }
    // A `.pmlsh` snapshot (detected by magic bytes, not extension) skips
    // the build entirely: the index inside is already constructed, with
    // its own saved parameters, and serves as soon as it deserializes.
    if pm_lsh_persist::is_pmlsh_file(path) {
        let start = Instant::now();
        let index = match pm_lsh_persist::load(path) {
            Ok(index) => index,
            Err(e) => return format!("ERR reading {path}: {e}"),
        };
        let points = index.len();
        let dim = index.data().dim();
        let engine = Engine::new(index, shared.config.attach_engine_config);
        return match shared.router.attach(name, engine) {
            Ok(()) => format!(
                "OK attached {name} points={points} dim={dim} secs={:.3}",
                start.elapsed().as_secs_f64()
            ),
            Err(e) => format!("ERR {e}"),
        };
    }
    let data = match pm_lsh_data::read_auto(path, None) {
        Ok(data) => data,
        Err(e) => return format!("ERR reading {path}: {e}"),
    };
    if data.is_empty() {
        return "ERR cannot attach an empty dataset".to_string();
    }
    // A NaN/Inf component would panic deep inside the build, which runs
    // on this op thread — the client would see a bare `ERR internal`
    // instead of this diagnosis. Name the poisoned row so a
    // multi-gigabyte file is debuggable from the reply alone.
    if let Err(flat) = crate::validate_points(data.as_flat()) {
        return format!(
            "ERR dataset contains a non-finite (NaN/Inf) component at row {} component {}",
            flat / data.dim(),
            flat % data.dim()
        );
    }
    let start = Instant::now();
    let points = data.len();
    let dim = data.dim();
    let index = PmLsh::build_with_opts(
        Arc::new(data),
        shared.config.attach_params,
        BuildOptions::all_cores(),
    );
    let engine = Engine::new(index, shared.config.attach_engine_config);
    match shared.router.attach(name, engine) {
        Ok(()) => format!(
            "OK attached {name} points={points} dim={dim} secs={:.3}",
            start.elapsed().as_secs_f64()
        ),
        Err(e) => format!("ERR {e}"),
    }
}

fn answer_detach<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    shared: &Shared,
    conn: &ConnState,
) -> String {
    if let Some(err) = auth_err(conn) {
        return err;
    }
    let Some(name) = fields.next() else {
        return "ERR DETACH needs an index name".to_string();
    };
    if fields.next().is_some() {
        return "ERR DETACH takes exactly one index name".to_string();
    }
    match shared.router.detach(name) {
        // Dropping the engine joins its worker pools — which is exactly
        // why DETACH runs on an op thread, not on the reactor.
        Ok(_engine) => format!("OK detached {name}"),
        Err(e) => format!("ERR {e}"),
    }
}

/// Executes `REINDEX <path>` against the connection's current index:
/// loads the server-side dataset file, rebuilds with that snapshot's
/// parameters on all cores, and swaps. Returns the one-line wire reply.
fn answer_reindex<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    shared: &Shared,
    conn: &ConnState,
) -> String {
    if let Some(err) = auth_err(conn) {
        return err;
    }
    let (name, engine) = match current_engine(shared, conn) {
        Ok(pair) => pair,
        Err(err) => return err,
    };
    let Some(path) = fields.next() else {
        return "ERR REINDEX needs a dataset file path".to_string();
    };
    if fields.next().is_some() {
        return "ERR REINDEX takes exactly one (whitespace-free) path".to_string();
    }
    let data = match pm_lsh_data::read_auto(path, None) {
        Ok(data) => data,
        Err(e) => return format!("ERR reading {path}: {e}"),
    };
    // Keep the serving parameters; only the dataset changes. The build
    // runs on the op thread, so this connection blocks while every
    // other connection keeps being served.
    let params = engine.params();
    match engine.reindex(data, params, BuildOptions::all_cores()) {
        Ok(report) => format!(
            "OK index={name} epoch={} points={} secs={:.3}",
            report.epoch, report.points, report.build_secs
        ),
        Err(e) => format!("ERR {e}"),
    }
}

/// The one wire mutation executor, against the connection's current
/// index: a lone `INSERT <v1> ... <vd>` / `DELETE <id>` line
/// (`batch == false`) or the op lines of a completed `BATCH`. Auth-gates,
/// syntactically validates every line *all-or-nothing* (one malformed
/// line fails the whole request — `ERR <message>` for a single op,
/// `ERR batch line <i>: <message>` for a batch — and nothing applies),
/// then applies the parsed ops through [`ShardedEngine::apply`]: one
/// copy-on-write clone and one epoch bump per request (per touched shard
/// when sharded). A single op answers `OK id=...` / `OK deleted ...` or
/// its refusal as `ERR <message>`. In a batch, semantic refusals (wrong
/// dimensionality, unknown id, would-empty) fail only their own op: they
/// come back as `FAIL <op-index> <message>` lines after the `OK` summary
/// while the rest of the batch applies.
fn answer_mutation(lines: &[String], batch: bool, shared: &Shared, conn: &ConnState) -> String {
    if let Some(err) = auth_err(conn) {
        return err;
    }
    let (_name, engine) = match current_engine(shared, conn) {
        Ok(pair) => pair,
        Err(err) => return err,
    };
    let mut ops = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match parse_batch_op(line, conn.dim) {
            Ok(op) => ops.push(op),
            Err(msg) if batch => return format!("ERR batch line {i}: {msg}"),
            Err(msg) => return format!("ERR {msg}"),
        }
    }
    let report = match engine.apply(&ops) {
        Ok(report) => report,
        Err(e) => return format!("ERR {e}"),
    };
    let (epoch, points) = (report.epoch, report.points);
    if !batch {
        return match (&ops[0], report.results[0]) {
            (_, Err(e)) => format!("ERR {e}"),
            (crate::MutOp::Insert(_), Ok(id)) => {
                format!("OK id={id} epoch={epoch} points={points}")
            }
            (crate::MutOp::Delete(_), Ok(id)) => {
                format!("OK deleted {id} epoch={epoch} points={points}")
            }
        };
    }
    let mut out = format!(
        "{BATCH_OK_PREFIX}{} failed={} epoch={epoch} points={points}",
        report.applied,
        report.failed(),
    );
    for (i, result) in report.results.iter().enumerate() {
        if let Err(e) = result {
            out.push_str(&format!("\n{BATCH_FAIL_PREFIX}{i} {e}"));
        }
    }
    out
}

/// Parses one mutation line — a top-level `INSERT <v1> ... <vd>` /
/// `DELETE <id>` request or a `BATCH` op line, one grammar for both
/// (finite float components, a `u32` id). `dim` only sizes the parse
/// buffer; a wrong-dimensionality insert is the engine's per-op call.
fn parse_batch_op(line: &str, dim: usize) -> Result<crate::MutOp, String> {
    let mut fields = line.split_ascii_whitespace();
    match fields.next() {
        Some("INSERT") => {
            let mut point = Vec::with_capacity(dim.max(16));
            for field in fields {
                match field.parse::<f32>() {
                    Ok(v) if v.is_finite() => point.push(v),
                    _ => return Err(format!("bad vector component '{field}'")),
                }
            }
            if point.is_empty() {
                return Err("INSERT needs <v1> ... <vd>".to_string());
            }
            Ok(crate::MutOp::Insert(point))
        }
        Some("DELETE") => {
            let id = match fields.next().map(str::parse::<u32>) {
                Some(Ok(id)) => id,
                _ => return Err("DELETE needs a point id".to_string()),
            };
            if fields.next().is_some() {
                return Err("DELETE takes exactly one point id".to_string());
            }
            Ok(crate::MutOp::Delete(id))
        }
        Some(other) => Err(format!("unknown batch op '{other}' (INSERT or DELETE)")),
        None => Err("empty op line".to_string()),
    }
}

/// Executes `SAVE <path>` against the connection's current index: pins
/// the served snapshot and writes it to a server-side `.pmlsh` file
/// (atomic tmp-file + rename). Serialization runs on the op thread with
/// no engine locks held, so every other connection keeps being served;
/// the saved snapshot excludes mutations that land mid-save.
/// Auth-gated: it writes files on the server's filesystem.
fn answer_save<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    shared: &Shared,
    conn: &ConnState,
) -> String {
    if let Some(err) = auth_err(conn) {
        return err;
    }
    let (name, engine) = match current_engine(shared, conn) {
        Ok(pair) => pair,
        Err(err) => return err,
    };
    let Some(path) = fields.next() else {
        return "ERR SAVE needs a destination file path".to_string();
    };
    if fields.next().is_some() {
        return "ERR SAVE takes exactly one (whitespace-free) path".to_string();
    }
    let start = Instant::now();
    match engine.save(path) {
        Ok(report) => format!(
            "OK saved {name} points={} bytes={} secs={:.3}",
            report.points,
            report.bytes,
            start.elapsed().as_secs_f64()
        ),
        Err(e) => format!("ERR saving {path}: {e}"),
    }
}

/// Parses one `OK` response line back into `(id, dist)` pairs — the client
/// half of the protocol, used by `pmlsh` tooling and the loopback tests.
pub fn parse_ok_response(line: &str) -> Result<Vec<(u32, f32)>, String> {
    let rest = line
        .strip_prefix("OK")
        .ok_or_else(|| format!("expected 'OK ...', got '{line}'"))?
        .trim();
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    rest.split(',')
        .map(|pair| {
            let (id, dist) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed neighbor '{pair}'"))?;
            Ok((
                id.parse().map_err(|_| format!("bad id '{id}'"))?,
                dist.parse().map_err(|_| format!("bad distance '{dist}'"))?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_metric::Dataset;
    use pm_lsh_stats::Rng;
    use std::io::{BufRead, BufReader};

    #[test]
    fn parse_ok_roundtrip() {
        let parsed = parse_ok_response("OK 3:0.5,17:1.25,9:2").unwrap();
        assert_eq!(parsed, vec![(3, 0.5), (17, 1.25), (9, 2.0)]);
        assert!(parse_ok_response("ERR nope").is_err());
        assert!(parse_ok_response("OK").unwrap().is_empty());
        assert!(parse_ok_response("OK 1:x").is_err());
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_micros(500));
        assert_eq!(accept_backoff(2), Duration::from_millis(1));
        assert_eq!(accept_backoff(3), Duration::from_millis(2));
        let capped = accept_backoff(30);
        assert_eq!(capped, MAX_ACCEPT_BACKOFF);
        // Monotone non-decreasing all the way up.
        for n in 1..32 {
            assert!(accept_backoff(n) <= accept_backoff(n + 1));
        }
    }

    #[test]
    fn token_matching() {
        assert!(token_matches("sekrit", "sekrit"));
        assert!(!token_matches("sekrit", "sekri"));
        assert!(!token_matches("sekrit", "sekrit2"));
        assert!(!token_matches("sekrit", ""));
        // An empty configured token matches nothing — and a non-empty
        // guess against it must not panic the handler (regression: the
        // scan used to index expected[0] of an empty slice).
        assert!(!token_matches("", ""));
        assert!(!token_matches("", "x"));
        assert!(!token_matches("", "anything-at-all"));
    }

    /// Every connection alive when a shutdown lands — idle, mid-line,
    /// whatever — must be answered `ERR server shutting down` and closed,
    /// not abandoned without a byte; and the drain must report clean.
    #[test]
    fn connections_alive_at_shutdown_get_an_err_line() {
        let handle =
            serve_router(Router::new(), ("127.0.0.1", 0), ServerConfig::default()).unwrap();
        let addr = handle.addr();
        let mut clients: Vec<(BufReader<TcpStream>, TcpStream)> = (0..3)
            .map(|_| {
                let stream = TcpStream::connect(addr).unwrap();
                (BufReader::new(stream.try_clone().unwrap()), stream)
            })
            .collect();
        // A PING roundtrip per client proves all three are admitted.
        for (reader, writer) in &mut clients {
            writer.write_all(b"PING\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "PONG");
        }
        let report = handle.shutdown();
        assert!(report.drained);
        assert_eq!(report.forced, 0, "idle connections drain without force");
        for (reader, _writer) in &mut clients {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "ERR server shutting down");
            let mut rest = Vec::new();
            std::io::Read::read_to_end(reader, &mut rest).unwrap();
            assert!(rest.is_empty(), "connection must close after the ERR line");
        }
        // The listener is gone: a fresh connect cannot be served. (It
        // either fails outright or is closed without a served reply.)
        if let Ok(mut late) = TcpStream::connect(addr) {
            late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 64];
            assert!(!matches!(late.read(&mut buf), Ok(n) if n > 0 && buf.starts_with(b"PONG")));
        }
    }

    /// A worker-pool panic must surface as `ERR internal error` on the
    /// wire — the connection survives and keeps answering — instead of
    /// the raw disconnect clients used to see.
    #[test]
    fn worker_panic_is_an_err_reply_not_a_disconnect() {
        let mut rng = Rng::new(41);
        let mut ds = Dataset::with_capacity(8, 120);
        let mut buf = [0.0f32; 8];
        for _ in 0..120 {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        let engine = Engine::new(
            PmLsh::build(ds, PmLshParams::default()),
            EngineConfig {
                threads: 1,
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
        let query = "QUERY 3 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8";
        // 8e30 parses to exactly pool::CRASH_TEST_SENTINEL, the
        // test-only fault injection that panics the drawing worker.
        let crashing = "QUERY 3 8e30 0.2 0.3 0.4 0.5 0.6 0.7 0.8";

        assert_eq!(roundtrip(crashing), "ERR internal error");

        // The worker caught the panic; the connection AND the pool are
        // still serviceable.
        assert_eq!(roundtrip("PING"), "PONG");
        assert!(roundtrip(query).starts_with("OK "));
        handle.shutdown();
    }
}

//! TCP serving layer: an event-driven reactor speaking a
//! newline-delimited text protocol (with an optional length-prefixed
//! binary mode) over a [`Router`] of named engines, with graceful drain,
//! connection caps, and optional token authentication.
//!
//! A request passes three layers that each know one thing:
//! `crate::command` (the wire grammar — the *only* tokenizer — turns a
//! line or a decoded frame into a typed `Command` plus the checks that
//! outrank its arguments), the executor in this module (one auth gate,
//! one current-index lookup, then inline / worker-pool / `pmlsh-op`
//! dispatch, both framings alike), and `crate::reply` (the one encoder
//! that knows `ERR <message>` from an ERR frame). The protocol itself is
//! specified in `docs/PROTOCOL.md` and summarized in `command.rs`.
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
//! * **Query offload** — `QUERY` is validated inline and scattered into
//!   legs with a completion callback. The legs of every `QUERY` one
//!   readiness pass runs are handed to the shard pools together, once,
//!   just before the reactor sleeps again — no thread hand-off and no
//!   timer in between. The callback encodes the reply on the worker
//!   thread and wakes the reactor to write it out. Slow verbs
//!   (`ATTACH`/`REINDEX`/`INSERT`/`DELETE`/`BATCH`/`SAVE`/`DETACH`) run
//!   on one-off `pmlsh-op` threads the same way.
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

pub use crate::command::parse_mut_op;
use crate::command::{from_frame, parse_line, Command, Gate, Request};
use crate::frame;
use crate::reactor::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};
use crate::reply::{encode, Reply};
use crate::router::Router;
use crate::sharded::Legs;
use crate::{EngineConfig, MutOp, QueryError, ShardedEngine};
use pm_lsh_core::{BuildOptions, PmLshParams};
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
/// a single connection can buffer server-side before the batch applies:
/// `BATCH_MAX_OPS` lines of at most `line_cap` bytes each.
pub(crate) const BATCH_MAX_OPS: usize = 4096;

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
    /// Engine configuration (worker pool, submission size) for engines
    /// created by wire `ATTACH` — each attached index runs its own pool.
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
/// Accepts a plain [`Engine`](crate::Engine) (serving it as a single
/// shard) or a [`ShardedEngine`].
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
    let reactor = Reactor::new(listener, router, config)?;
    let shared = Arc::clone(&reactor.shared);
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
    /// The fully encoded reply (text line or binary frame).
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
    /// The `AUTH` token accepted right now (`None`: authentication off).
    fn token(&self) -> std::sync::RwLockReadGuard<'_, Option<String>> {
        self.auth.read().expect("auth token lock poisoned")
    }

    /// Encodes `reply` in the connection's framing — here, on the calling
    /// worker/op thread — queues it for `conn` and wakes the reactor. A
    /// reply for a connection that died in the meantime is silently
    /// dropped by the reactor.
    fn complete(&self, conn: u64, reply: Reply, binary: bool) {
        let mut bytes = Vec::new();
        encode(reply, binary, &mut bytes);
        self.completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion { conn, reply: bytes });
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

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet consumed as requests.
    buf_in: Vec<u8>,
    /// Reply bytes not yet written; `out_pos` is how far the socket got.
    buf_out: Vec<u8>,
    out_pos: usize,
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
    /// `true` after `HELLO binary`: requests and replies are frames.
    binary: bool,
    /// A request is off on a worker/op thread; input is paused until its
    /// completion arrives (which also keeps replies in request order).
    inflight: bool,
    /// Mid-`BATCH` accumulation: `Some((owed, lines))` from a valid
    /// `BATCH <count>` header until the `owed` count of op lines still to
    /// come reaches zero — lines collected here are never interpreted as
    /// top-level commands. The whole request gets one reply, delivered
    /// after the last line. `lines` is `None` on a connection that may
    /// not mutate: `authed` cannot change mid-batch (op lines are never
    /// commands), so the batch will answer `ERR authentication required`
    /// whatever it holds, and an unauthenticated peer must not be able
    /// to make the server buffer `BATCH_MAX_OPS` × `line_cap` bytes for
    /// it. Such lines are counted, never stored.
    batch: Option<(usize, Option<Vec<String>>)>,
    /// The peer finished writing (read returned 0).
    eof: bool,
    /// No further requests will be accepted; close once `buf_out` flushes.
    closing: bool,
    /// The interest currently registered in the poller.
    interest: Interest,
}

impl Conn {
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

    /// Flushed everything it ever will — safe to close.
    fn done(&self) -> bool {
        self.closing && self.out_pos >= self.buf_out.len()
    }

    /// How many input bytes may accumulate before reads pause. Enough
    /// for any single legal request plus its delimiter/prefix;
    /// pipelined requests beyond it simply wait in the kernel buffer.
    fn in_cap(&self) -> usize {
        if self.binary {
            self.frame_cap + 4
        } else {
            self.line_cap + 1
        }
    }

    /// Queues a reply in the connection's current framing.
    fn reply(&mut self, reply: Reply) {
        encode(reply, self.binary, &mut self.buf_out);
    }

    /// Declares the connection unusable (hard I/O error): drop any
    /// unwritable replies and let `done()` close it.
    fn mark_dead(&mut self) {
        self.closing = true;
        self.buf_out.clear();
        self.out_pos = 0;
    }
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
    /// Legs of the `QUERY`s run since the last `wait`, dispatched to the
    /// shard pools just before the next one.
    legs: Legs,
}

impl Reactor {
    fn new(listener: TcpListener, router: Router, config: ServerConfig) -> std::io::Result<Self> {
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
        Ok(Reactor {
            shared,
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
            legs: Legs::default(),
        })
    }

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
            // Everything this pass ran is in: hand its query legs over
            // before sleeping, so none waits on the next wakeup.
            self.legs.dispatch();
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
        let mut conn = Conn {
            stream,
            token,
            buf_in: Vec::new(),
            buf_out: Vec::new(),
            out_pos: 0,
            index: None,
            authed: self.shared.token().is_none(),
            dim: 0,
            line_cap: 0,
            frame_cap: 0,
            binary: false,
            inflight: false,
            batch: None,
            eof: false,
            closing: false,
            interest: Interest::READ,
        };
        let engine = default
            .as_deref()
            .and_then(|name| self.shared.router.get(name));
        conn.select(default, engine.as_ref());
        if let Some(name) = conn.index.clone() {
            *self.per_index.entry(name).or_insert(0) += 1;
        }
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.conns.insert(token, conn);
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
            let Some(request) = self.take_request(conn) else {
                break;
            };
            match self.execute(conn, request) {
                Ok(Some(reply)) => conn.reply(reply),
                Ok(None) => {}
                Err(message) => conn.reply(Reply::Err(message)),
            }
        }
        if !conn.inflight && !conn.closing {
            if self.draining {
                conn.reply(Reply::Err("server shutting down".to_string()));
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
    fn take_request(&mut self, conn: &mut Conn) -> Option<Request> {
        if conn.binary {
            return self.take_frame(conn);
        }
        loop {
            let line = self.take_line(conn)?;
            let Some((owed, lines)) = conn.batch.as_mut() else {
                match parse_line(&line, conn.dim) {
                    Some(request) => return Some(request),
                    None => continue, // blank lines get no reply
                }
            };
            // Mid-BATCH: this line is an op, never a command — even a
            // line that spells "QUIT" is just a (malformed) op. Once the
            // header's count is reached the batch is one request.
            if let Some(lines) = lines {
                lines.push(line);
            }
            *owed -= 1;
            if *owed == 0 {
                let ops = Command::BatchOps(lines.take().unwrap_or_default());
                conn.batch = None;
                return Some((Gate::Mutate, Ok(ops)));
            }
        }
    }

    fn take_line(&mut self, conn: &mut Conn) -> Option<String> {
        let cap = conn.line_cap;
        let window = conn.buf_in.len().min(cap + 1);
        let line: Vec<u8> = if let Some(i) = conn.buf_in[..window].iter().position(|&b| b == b'\n')
        {
            conn.buf_in.drain(..=i).collect()
        } else if conn.buf_in.len() > cap {
            conn.reply(Reply::Err("line exceeds protocol maximum".to_string()));
            conn.closing = true;
            return None;
        } else if conn.eof && !conn.buf_in.is_empty() {
            // A final unterminated line still gets answered.
            std::mem::take(&mut conn.buf_in)
        } else {
            return None;
        };
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    fn take_frame(&mut self, conn: &mut Conn) -> Option<Request> {
        if conn.buf_in.len() < 4 {
            // A truncated length prefix at EOF is a clean close, not an
            // error: the peer simply hung up between frames.
            return None;
        }
        let len = u32::from_le_bytes(conn.buf_in[..4].try_into().expect("4-byte slice")) as usize;
        if len > conn.frame_cap {
            conn.reply(Reply::Err("frame exceeds protocol maximum".to_string()));
            conn.closing = true;
            return None;
        }
        if conn.buf_in.len() < 4 + len {
            // Mid-frame EOF: nothing sensible to answer; close cleanly.
            return None;
        }
        let decoded = frame::decode_request(&conn.buf_in[4..4 + len]);
        conn.buf_in.drain(..4 + len);
        match decoded {
            Ok(request) => Some(from_frame(request)),
            Err(e) => {
                conn.reply(Reply::Err(e.to_string()));
                conn.closing = true;
                None
            }
        }
    }

    // -- the executor -----------------------------------------------------

    /// Executes one request of either framing. Errors win in the order
    /// the request's [`Gate`] states — the one auth gate, the one
    /// current-index lookup, then the arguments' own verdict — and a
    /// verb then runs where its cost belongs: inline, on the engine's
    /// worker pools (`QUERY`, dispatched at the end of the pass), or on a
    /// `pmlsh-op` thread (builds, file I/O, engine teardown, copy-on-write
    /// clones). `Ok(None)` means no
    /// reply *yet*: it arrives as a completion or a timer, or the request
    /// (a `BATCH` header) is still collecting its lines.
    fn execute(&mut self, conn: &mut Conn, request: Request) -> Result<Option<Reply>, String> {
        let (gate, command) = request;
        if gate.auth() && !conn.authed {
            return Err("authentication required (AUTH <token>)".to_string());
        }
        let current = if gate.index() {
            Some(current_engine(&self.shared, conn.index.as_deref())?)
        } else {
            None
        };
        let current = move || current.expect("the grammar gates every routed verb on the index");
        Ok(Some(match command? {
            Command::Query(k, query) => {
                let (_name, engine) = current();
                let (shared, token, binary) = (Arc::clone(&self.shared), conn.token, conn.binary);
                // Validation failing synchronously (dimension mismatch,
                // k = 0, NaN component) is an ERR reply; the connection
                // lives on. Otherwise the reply is encoded off-reactor.
                engine
                    .submit_query(&mut self.legs, &query, k, move |result| {
                        let reply = match result {
                            Ok(result) => Reply::Neighbors(result.neighbors),
                            Err(e) => Reply::Err(query_err_message(&e)),
                        };
                        shared.complete(token, reply, binary);
                    })
                    .map_err(|e| query_err_message(&e))?;
                conn.inflight = true;
                return Ok(None);
            }
            Command::Ping => Reply::Pong,
            Command::Hello(binary) => {
                // The acknowledgement itself is text; everything after
                // it speaks the negotiated framing.
                conn.binary = binary;
                Reply::Line(if binary { "OK binary" } else { "OK text" }.to_string())
            }
            Command::Stats => {
                let (name, engine) = current();
                Reply::Line(format!("STATS index={name} {}", engine.stats()))
            }
            Command::IndexInfo => {
                let (name, engine) = current();
                Reply::Line(format!("INDEXINFO name={name} {}", engine.info()))
            }
            Command::ListIndexes => {
                // Sorted names; a bare `INDEXES` when there are none.
                let names = self.shared.router.names().join(",");
                Reply::Line(format!("INDEXES {names}").trim_end().to_string())
            }
            Command::Use(name) => self.answer_use(conn, &name)?,
            Command::Auth(token) => return Ok(self.answer_auth(conn, &token)),
            Command::Batch(count) => {
                // No header ack: the single reply comes once all `count`
                // op lines have arrived (and been validated + applied).
                let lines = conn.authed.then(|| Vec::with_capacity(count.min(256)));
                conn.batch = Some((count, lines));
                return Ok(None);
            }
            Command::Attach(name, path) => {
                return self.offload(conn, move |shared| answer_attach(shared, &name, &path));
            }
            Command::Detach(name) => {
                return self.offload(conn, move |shared| {
                    // Dropping the engine joins its worker pools — which
                    // is exactly why DETACH runs on an op thread.
                    let _engine = shared.router.detach(&name).map_err(|e| e.to_string())?;
                    Ok(format!("OK detached {name}"))
                });
            }
            Command::Reindex(path) => {
                let (name, engine) = current();
                return self.offload(conn, move |_| answer_reindex(&name, &engine, &path));
            }
            Command::Save(path) => {
                let (name, engine) = current();
                return self.offload(conn, move |_| answer_save(&name, &engine, &path));
            }
            // A single-op mutation is a one-line batch through the same
            // executor; only the reply wording differs.
            Command::Mutate(op) => {
                let (_name, engine) = current();
                return self.offload(conn, move |_| answer_mutation(&engine, &[op], false));
            }
            Command::BatchOps(lines) => {
                let (_name, engine) = current();
                return self.offload(conn, move |_| {
                    // Syntax is all-or-nothing: the first malformed line
                    // fails the whole batch before anything applies.
                    let ops: Vec<MutOp> = (lines.iter().enumerate())
                        .map(|(i, line)| {
                            parse_mut_op(line).map_err(|msg| format!("batch line {i}: {msg}"))
                        })
                        .collect::<Result<_, _>>()?;
                    answer_mutation(&engine, &ops, true)
                });
            }
            Command::Quit => {
                conn.closing = true;
                Reply::Bye
            }
        }))
    }

    fn answer_use(&mut self, conn: &mut Conn, name: &str) -> Result<Reply, String> {
        let Some(engine) = self.shared.router.get(name) else {
            return Err(format!("unknown index '{name}' (see LISTINDEXES)"));
        };
        // Re-selecting the current index only refreshes the cached
        // dimensionality; a switch goes through the quota ledger.
        if conn.index.as_deref() != Some(name) {
            if self.index_full(name) {
                return Err(format!("index '{name}' at connection capacity"));
            }
            if let Some(old) = conn.index.clone() {
                self.release_quota(&old);
            }
            *self.per_index.entry(name.to_string()).or_insert(0) += 1;
        }
        conn.select(Some(name.to_string()), Some(&engine));
        Ok(Reply::Line(format!("OK using {name}")))
    }

    fn answer_auth(&mut self, conn: &mut Conn, token: &str) -> Option<Reply> {
        let expected = self.shared.token().clone();
        let line = match expected.as_deref() {
            None => "OK authentication not required",
            Some(expected) if token_matches(expected, token) => {
                conn.authed = true;
                "OK authenticated"
            }
            Some(_) => {
                // Throttle online brute force: one failed guess costs
                // this connection (and only this connection) a beat. The
                // delay is a reactor timer — nobody sleeps.
                conn.inflight = true;
                let mut reply = Vec::new();
                encode(Reply::Err("bad token".to_string()), conn.binary, &mut reply);
                self.timers
                    .push((Instant::now() + AUTH_THROTTLE, conn.token, reply));
                return None;
            }
        };
        Some(Reply::Line(line.to_string()))
    }

    /// Runs slow work on a one-off thread so the reactor keeps serving
    /// every other connection meanwhile. `work` returns the whole reply
    /// (which may span several lines: a `BATCH` summary plus its `FAIL`
    /// lines) or the error message.
    fn offload(
        &mut self,
        conn: &mut Conn,
        work: impl FnOnce(&Shared) -> Result<String, String> + Send + 'static,
    ) -> Result<Option<Reply>, String> {
        let shared = Arc::clone(&self.shared);
        let (token, binary) = (conn.token, conn.binary);
        std::thread::Builder::new()
            .name("pmlsh-op".to_string())
            .spawn(move || {
                let reply = work(&shared).map_or_else(Reply::Err, Reply::Line);
                shared.complete(token, reply, binary);
            })
            // Out of threads: fail the request, not the connection.
            .map_err(|_| "internal error".to_string())?;
        conn.inflight = true;
        Ok(None)
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
        if let Some(name) = conn.index.as_deref() {
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

/// The unprefixed error message for a failed query — one wording for
/// both framings.
fn query_err_message(e: &QueryError) -> String {
    match e {
        QueryError::ZeroK => "QUERY needs a positive integer k".to_string(),
        QueryError::Internal => "internal error".to_string(),
        // A wrong dimensionality and a non-finite component are worded
        // for the wire already.
        QueryError::DimensionMismatch { .. } | QueryError::NonFiniteComponent => e.to_string(),
    }
}

/// Resolves a connection's current index to a live engine, or the
/// message explaining why it cannot.
fn current_engine(shared: &Shared, index: Option<&str>) -> Result<(String, ShardedEngine), String> {
    let name = index.ok_or("no index attached (ATTACH one, then USE it)")?;
    match shared.router.get(name) {
        Some(engine) => Ok((name.to_string(), engine)),
        None => Err(format!("index '{name}' is not attached (see LISTINDEXES)")),
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

// The handlers below run on `pmlsh-op` threads, past the executor's
// gates, and answer `Ok(reply line)` or `Err(unprefixed message)`.

/// `ATTACH <name> <path>`: opens `path` as an engine
/// ([`ShardedEngine::open`]: a snapshot, or a dataset built on all cores)
/// and attaches it under `name`.
fn answer_attach(shared: &Shared, name: &str, path: &str) -> Result<String, String> {
    // Fail the cheap checks before the expensive build. The final
    // Router::attach re-checks both (another connection may have raced an
    // attach of the same name), so TOCTOU costs a wasted build, never an
    // inconsistent router.
    Router::validate_name(name).map_err(|e| e.to_string())?;
    if shared.router.get(name).is_some() {
        return Err(format!("an index named '{name}' is already attached"));
    }
    let start = Instant::now();
    let engine = ShardedEngine::open(
        path,
        shared.config.attach_params,
        BuildOptions::all_cores(),
        1,
        shared.config.attach_engine_config,
    )?;
    let (points, dim) = (engine.len(), engine.dim());
    shared
        .router
        .attach(name, engine)
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "OK attached {name} points={points} dim={dim} secs={:.3}",
        start.elapsed().as_secs_f64()
    ))
}

/// `REINDEX <path>` against the connection's current index: reads the
/// server-side dataset file through [`crate::read_dataset`] (as `ATTACH`
/// does), rebuilds with that snapshot's parameters on all cores, and
/// swaps.
fn answer_reindex(name: &str, engine: &ShardedEngine, path: &str) -> Result<String, String> {
    let data = crate::read_dataset(path)?;
    // Keep the serving parameters; only the dataset changes. The build
    // runs on the op thread, so this connection blocks while every
    // other connection keeps being served.
    let report = engine
        .reindex(data, engine.params(), BuildOptions::all_cores())
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "OK index={name} epoch={} points={} secs={:.3}",
        report.epoch, report.points, report.build_secs
    ))
}

/// The one wire mutation handler, against the connection's current
/// index: a lone `INSERT <v1> ... <vd>` / `DELETE <id>` (`batch ==
/// false`) or the parsed ops of a completed `BATCH`, applied through
/// [`ShardedEngine::apply`]: one copy-on-write clone and one epoch bump
/// per request (per touched shard when sharded). A single op answers
/// `OK id=...` / `OK deleted ...` or its refusal as the error. In a
/// batch, semantic refusals (wrong dimensionality, unknown id,
/// would-empty) fail only their own op: they come back as
/// `FAIL <op-index> <message>` lines after the `OK` summary while the
/// rest of the batch applies.
fn answer_mutation(engine: &ShardedEngine, ops: &[MutOp], batch: bool) -> Result<String, String> {
    let report = engine.apply(ops).map_err(|e| e.to_string())?;
    let (epoch, points) = (report.epoch, report.points);
    if !batch {
        let id = report.results[0].map_err(|e| e.to_string())?;
        return Ok(match ops[0] {
            MutOp::Insert(_) => format!("OK id={id} epoch={epoch} points={points}"),
            MutOp::Delete(_) => format!("OK deleted {id} epoch={epoch} points={points}"),
        });
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
    Ok(out)
}

/// `SAVE <path>` against the connection's current index: pins the served
/// snapshot and writes it to a server-side `.pmlsh` file (atomic
/// tmp-file + rename). Serialization runs on the op thread with no
/// engine locks held, so every other connection keeps being served; the
/// saved snapshot excludes mutations that land mid-save. Auth-gated: it
/// writes files on the server's filesystem.
fn answer_save(name: &str, engine: &ShardedEngine, path: &str) -> Result<String, String> {
    let start = Instant::now();
    let report = engine
        .save(path)
        .map_err(|e| format!("saving {path}: {e}"))?;
    Ok(format!(
        "OK saved {name} points={} bytes={} secs={:.3}",
        report.points,
        report.bytes,
        start.elapsed().as_secs_f64()
    ))
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
    use crate::Engine;
    use pm_lsh_core::PmLsh;
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

    /// An unauthenticated connection's `BATCH` is answered `ERR
    /// authentication required` whatever its op lines say, so its `Conn`
    /// counts them and holds none of their bytes; one that may mutate
    /// keeps every line for the op thread. The reply and the
    /// consumed-lines rule are the same either way.
    #[test]
    fn unauthenticated_pending_batch_holds_no_line_bytes() {
        for (token, stored, want) in [
            (
                Some("sekrit"),
                false,
                "ERR authentication required (AUTH <token>)\n",
            ),
            (
                None,
                true,
                "ERR no index attached (ATTACH one, then USE it)\n",
            ),
        ] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let config = ServerConfig {
                auth_token: token.map(str::to_string),
                ..Default::default()
            };
            let mut reactor = Reactor::new(listener, Router::new(), config).unwrap();
            reactor.accept_ready();
            let mut conn = reactor.conns.remove(&FIRST_CONN).expect("admitted");

            conn.buf_in
                .extend_from_slice(b"BATCH 3\nINSERT 1 2 3\nQUIT\n");
            reactor.process_input(&mut conn);
            let (owed, lines) = conn.batch.as_ref().expect("mid-batch");
            assert_eq!(*owed, 1);
            assert_eq!(lines.as_ref().map(Vec::len), stored.then_some(2));
            assert!(conn.buf_out.is_empty(), "no reply before the last op line");

            conn.buf_in.extend_from_slice(b"DELETE 0\nPING\n");
            reactor.process_input(&mut conn);
            assert!(conn.batch.is_none() && !conn.closing);
            let mut reader = BufReader::new(client);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, format!("{want}PONG\n"));
        }
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

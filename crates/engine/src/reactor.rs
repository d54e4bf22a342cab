//! lint: hot-path
//!
//! The readiness-notification core under the TCP serving layer: a
//! std-only `epoll(7)` wrapper (raw syscalls through `std::os::fd`, no
//! external crates) plus the self-pipe waker that lets worker-pool
//! completions interrupt a blocked `epoll_wait`.
//!
//! The serving reactor in [`crate::server`] is a single event loop over
//! non-blocking sockets; this module is the thin platform seam it stands
//! on. Three pieces:
//!
//! * [`Poller`] — register/modify/deregister file descriptors under a
//!   caller-chosen `u64` token and [`Interest`], then [`Poller::wait`]
//!   for readiness [`Event`]s with an optional timeout. Level-triggered
//!   on purpose: the reactor never has to remember whether it finished
//!   draining a socket, it just gets woken again.
//! * [`Waker`] / [`WakeReceiver`] — an anonymous pipe
//!   (`std::io::pipe`, both ends non-blocking). Any thread calls
//!   [`Waker::wake`]; the reactor registers the read end like any other
//!   fd and [`WakeReceiver::drain`]s it when it fires. A `pending` flag
//!   collapses wake storms into one pipe byte, so completing a thousand
//!   queries costs one `write(2)`, not a full pipe.
//!
//! Backends: `epoll` on Linux/Android, `poll(2)` on the other unixes
//! (the workspace has no libc dependency, so both declare their own
//! `extern "C"` prototypes — the constants are the stable kernel ABI).

#[cfg(not(unix))]
compile_error!(
    "the pm-lsh serving reactor needs a unix readiness API (epoll/poll); \
     non-unix platforms are not supported"
);

use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What a registered file descriptor wants to be woken for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF, or a peer half-close) is waiting to be read.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// The peer is gone (`EPOLLHUP`/`EPOLLERR`); reported even with an
    /// empty [`Interest`], which is what lets the reactor notice a
    /// vanished client while a request of theirs is still in flight.
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// epoll backend (Linux/Android)
// ---------------------------------------------------------------------------

#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    use std::ffi::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`. Packed on x86-64 (the kernel ABI), naturally
    /// aligned everywhere else — the same definition libc ships.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }
}

/// The readiness selector (epoll backend).
#[cfg(any(target_os = "linux", target_os = "android"))]
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: std::os::fd::OwnedFd,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
impl Poller {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; the flag is a valid value.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        let epfd = unsafe { std::os::fd::FromRawFd::from_raw_fd(fd) };
        Ok(Self { epfd })
    }

    fn bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.read {
            // RDHUP rides along with read interest so a half-closing peer
            // surfaces as "readable" (the read then returns 0).
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    fn ctl(
        &self,
        op: std::ffi::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: Self::bits(interest),
            data: token,
        };
        // SAFETY: `ev` is a live stack value for the duration of the call;
        // the kernel validates the fds and op.
        if unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with `interest`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`; its token stops firing.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::default())
    }

    /// Blocks for up to `timeout` (forever on `None`) and fills `events`
    /// with whatever became ready. An interrupted wait returns success
    /// with no events — the caller's loop re-derives its deadlines.
    pub(crate) fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        let timeout_ms: std::ffi::c_int = match timeout {
            None => -1,
            // Round up: a 0 ms wait on a sub-millisecond deadline would
            // spin the loop at 100% CPU until the deadline passes.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int,
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: `buf` holds exactly the 64 entries we advertise; the
        // kernel writes at most that many.
        let n = unsafe { sys::epoll_wait(self.epfd.as_raw_fd(), buf.as_mut_ptr(), 64, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in buf.iter().take(n as usize) {
            let (bits, token) = (ev.events, ev.data);
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// poll(2) backend (other unixes — macOS and the BSDs)
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
mod sys {
    use std::ffi::{c_int, c_short, c_uint};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0x0004;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }
}

/// The readiness selector (portable `poll(2)` backend).
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
#[derive(Debug, Default)]
pub(crate) struct Poller {
    regs: std::sync::Mutex<Vec<(RawFd, u64, Interest)>>,
}

#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
impl Poller {
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self::default())
    }

    /// Registers `fd` under `token` with `interest`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // lint: allow(hot-path) -- portable poll(2) fallback, not the Linux epoll production path
        self.regs
            .lock()
            .expect("poller registrations poisoned")
            .push((fd, token, interest));
        Ok(())
    }

    /// Replaces the interest of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // lint: allow(hot-path) -- portable poll(2) fallback, not the Linux epoll production path
        let mut regs = self.regs.lock().expect("poller registrations poisoned");
        match regs.iter_mut().find(|(f, _, _)| *f == fd) {
            Some(reg) => {
                *reg = (fd, token, interest);
                Ok(())
            }
            None => Err(io::Error::from(io::ErrorKind::NotFound)),
        }
    }

    /// Deregisters `fd`; its token stops firing.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        // lint: allow(hot-path) -- portable poll(2) fallback, not the Linux epoll production path
        self.regs
            .lock()
            .expect("poller registrations poisoned")
            .retain(|(f, _, _)| *f != fd);
        Ok(())
    }

    /// Blocks for up to `timeout` (forever on `None`) and fills `events`.
    pub(crate) fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        // lint: allow(hot-path) -- portable poll(2) fallback, not the Linux epoll production path
        let regs = self
            .regs
            .lock()
            .expect("poller registrations poisoned")
            .clone();
        let mut fds: Vec<sys::PollFd> = regs
            .iter()
            .map(|&(fd, _, interest)| {
                let mut ev = 0;
                if interest.read {
                    ev |= sys::POLLIN;
                }
                if interest.write {
                    ev |= sys::POLLOUT;
                }
                sys::PollFd {
                    fd,
                    events: ev,
                    revents: 0,
                }
            })
            .collect();
        let timeout_ms: std::ffi::c_int = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int,
        };
        // SAFETY: `fds` is a live Vec whose length matches the count we pass.
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_uint, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (pfd, &(_, token, _)) in fds.iter().zip(&regs) {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                hangup: pfd.revents & (sys::POLLHUP | sys::POLLERR) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The waker (shared by both backends)
// ---------------------------------------------------------------------------

/// Puts `fd` into non-blocking mode (the workspace-local
/// `set_nonblocking` for fds std does not expose one on, i.e. pipes).
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no pointer argument; the kernel validates `fd`.
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: F_SETFL takes a plain flag word, no pointers.
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The write half of the reactor's self-pipe: any thread may call
/// [`Waker::wake`] to interrupt a blocked [`Poller::wait`]. Cheap to call
/// from worker completions — consecutive wakes between two reactor
/// iterations collapse into one pipe byte.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: PipeWriter,
    pending: AtomicBool,
}

impl Waker {
    /// Makes the reactor's current (or next) `wait` return promptly.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // The write end is non-blocking: a full pipe means wakeups are
            // already queued beyond any doubt, so a dropped byte is fine —
            // as is EPIPE after the reactor has exited.
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// The read half of the self-pipe, owned by the reactor thread and
/// registered in its [`Poller`] like any socket.
#[derive(Debug)]
pub(crate) struct WakeReceiver {
    rx: PipeReader,
}

impl WakeReceiver {
    /// The fd to register in the poller (read interest).
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Empties the pipe and re-arms `waker` — in that order. A wake that
    /// lands before the flag clears is a no-op (the flag is still set),
    /// which is safe only because the caller looks at its completion
    /// queue *after* `drain` returns: whatever that waker announced was
    /// queued before its `wake`, hence before the clear. A wake after the
    /// clear writes a fresh byte and re-fires the poller. Clearing first
    /// loses wakeups for good: a wake between the clear and the read has
    /// its byte swallowed while the flag stays set, and every later wake
    /// is then a no-op on an empty pipe.
    pub(crate) fn drain(&self, waker: &Waker) {
        self.empty_pipe();
        waker.pending.store(false, Ordering::SeqCst);
    }

    /// The read half of [`WakeReceiver::drain`].
    fn empty_pipe(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

/// A connected [`Waker`]/[`WakeReceiver`] pair over a fresh anonymous
/// pipe, both ends non-blocking.
pub(crate) fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (rx, tx) = io::pipe()?;
    set_nonblocking(rx.as_raw_fd())?;
    set_nonblocking(tx.as_raw_fd())?;
    Ok((
        Waker {
            tx,
            pending: AtomicBool::new(false),
        },
        WakeReceiver { rx },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn wait_times_out_without_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let (waker, receiver) = wake_pair().unwrap();
        poller.add(receiver.fd(), 7, Interest::READ).unwrap();
        let waker = std::sync::Arc::new(waker);
        let wake_from_afar = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            wake_from_afar.wake();
            wake_from_afar.wake(); // storms collapse into one byte
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        // Join before draining: a wake that lands after the drain is allowed
        // to write a fresh byte (by design), which would re-fire the poller.
        handle.join().unwrap();
        receiver.drain(&waker);
        // Drained and re-armed: the next wait times out quietly...
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // ...and the next wake fires again.
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1);
    }

    /// The lost-wakeup schedule, replayed deterministically by driving the
    /// two halves of `drain` by hand with a wake between them and one
    /// after. Clearing the flag before the read lets the read swallow the
    /// middle wake's byte while the flag stays set, so the last wake writes
    /// nothing and a reactor blocked in `wait` never hears of it.
    #[test]
    fn a_wake_that_lands_mid_drain_does_not_silence_the_next_one() {
        let poller = Poller::new().unwrap();
        let (waker, receiver) = wake_pair().unwrap();
        poller.add(receiver.fd(), 7, Interest::READ).unwrap();

        waker.wake(); // the byte that sent the reactor into drain
        receiver.empty_pipe();
        waker.wake(); // lands between the halves: flag still set, no byte
        waker.pending.store(false, Ordering::SeqCst);
        waker.wake(); // a completion queued after the drain

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(events.len(), 1, "the post-drain wake left no byte behind");
        assert!(events[0].token == 7 && events[0].readable);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), 1, Interest::READ).unwrap();

        let client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(
                server_side.as_raw_fd(),
                2,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();
        // A fresh socket is writable immediately.
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));

        // Drop write interest: an idle socket stops reporting entirely.
        poller
            .modify(server_side.as_raw_fd(), 2, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == 2));

        // Peer data arrives -> readable; peer close -> readable (EOF).
        use std::io::Write as _;
        let mut client = client;
        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));

        poller.delete(server_side.as_raw_fd()).unwrap();
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 2),
            "deleted fds stay silent"
        );
    }
}

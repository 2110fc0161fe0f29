//! The fd-readiness reactor: `poll(2)` over child-process pipes and
//! sockets.
//!
//! Besides self-waking futures, external solver processes need a second
//! kind of event source: a future that cannot progress until a child's
//! stdout has bytes. Busy-wait
//! polling would burn a core per shard worker, so the reactor turns fd
//! readiness into wakes:
//!
//! * a future that hits `EWOULDBLOCK` registers its fd and waker with
//!   [`FdReactor::register`] (via the [`readable`] future) and returns
//!   `Pending` — its wake flag stays clear;
//! * when a poll round finds no runnable task, the driver calls
//!   [`FdReactor::poll_io`], which **blocks in `poll(2)`** until some
//!   registered fd is readable (or a deadline passes) and wakes exactly
//!   the tasks whose fds fired;
//! * the woken tasks retry their reads on the next poll round.
//!
//! Registrations are one-shot (level-triggered edges are re-armed by the
//! future re-registering on its next `WouldBlock`), and every registration
//! may carry a **deadline**: `poll_io` never sleeps past the earliest one
//! and wakes expired waiters, which is how per-query solver timeouts fire
//! without a timer thread. One fd may carry many registrations at once —
//! a persistent solver session multiplexes several pending query futures
//! onto one child stdout — and a readiness event wakes **all** of them
//! (each re-checks its own completion and re-arms if still waiting); a
//! future resolved by any other wake source deregisters its entry by
//! token so nothing stale ever fires. The reactor is single-threaded by
//! design, like the rest of the executor — share it within a worker via
//! `Rc`.
//!
//! Nothing here is pipe-specific: any pollable fd rides the same loop.
//! The distributed coordinator (`o4a-dist`) registers a non-blocking TCP
//! *listener* fd (readable ⇒ a worker is waiting in `accept(2)`) and its
//! accepted *stream* fds (readable ⇒ a worker frame arrived) alongside
//! its heartbeat deadlines — elastic scale-out through the very same
//! `poll(2)` call that drives solver pipes.

use std::cell::RefCell;
use std::io::{self, Read};
use std::os::unix::io::RawFd;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

// Hand-rolled libc subset (the workspace builds offline, without the libc
// crate): `poll(2)` and the fcntl calls needed for non-blocking pipes.
// Linux-only values, like the rest of this repository's toolchain.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
}

/// Puts `fd` into non-blocking mode, so reads return `WouldBlock` instead
/// of stalling the single-threaded executor.
///
/// # Errors
///
/// The underlying `fcntl(2)` errors (e.g. a closed fd).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with F_GETFL/F_SETFL only reads/writes the fd's status
    // flags; an invalid fd is reported through errno, not UB.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Which readiness a registration waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// The fd has bytes to read (or hit EOF/error) — `POLLIN`.
    Read,
    /// The fd can accept writes without blocking — `POLLOUT`.
    Write,
}

impl Interest {
    fn events(self) -> i16 {
        match self {
            Interest::Read => POLLIN,
            Interest::Write => POLLOUT,
        }
    }
}

struct Entry {
    token: u64,
    fd: RawFd,
    events: i16,
    waker: Waker,
    deadline: Option<Instant>,
    registered_at: Instant,
}

/// A `poll(2)`-based readiness reactor over pipe fds.
///
/// Holds one-shot `(fd, waker, deadline)` registrations; [`poll_io`]
/// blocks until readiness or deadline and wakes the affected tasks. See
/// the module docs for how this slots into the executor's no-busy-wait
/// argument.
///
/// **Fan-out contract:** one fd may carry *several* registrations at
/// once — a persistent solver session multiplexes many pending query
/// futures onto one child stdout — and a single readiness event wakes
/// *every* registration on that fd. A future whose reply is instead
/// completed by a sibling (which drained the shared stream) must
/// [`deregister`](FdReactor::deregister) its entry when it resolves;
/// [`FdReady`] does this automatically, so a stale registration can
/// never make a later [`poll_io`] wake a task that no longer exists.
///
/// [`poll_io`]: FdReactor::poll_io
#[derive(Default)]
pub struct FdReactor {
    entries: RefCell<Vec<Entry>>,
    next_token: std::cell::Cell<u64>,
    last_poll: std::cell::Cell<Option<Instant>>,
}

impl FdReactor {
    /// Creates an empty reactor.
    pub fn new() -> FdReactor {
        FdReactor::default()
    }

    /// Number of live registrations.
    pub fn registered(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Registers a one-shot waiter: `waker` fires when `fd` reaches the
    /// requested readiness (or hits hup/error), or when `deadline`
    /// passes, whichever comes first. The registration is consumed by
    /// the wake. Returns a token for [`deregister`](FdReactor::deregister)
    /// — callers whose future can resolve through another wake source
    /// (e.g. a session sibling completing their reply) must cancel the
    /// entry on resolution so it cannot fire stale.
    pub fn register(
        &self,
        fd: RawFd,
        interest: Interest,
        waker: Waker,
        deadline: Option<Instant>,
    ) -> u64 {
        let token = self.next_token.get();
        self.next_token.set(token + 1);
        self.entries.borrow_mut().push(Entry {
            token,
            fd,
            events: interest.events(),
            waker,
            deadline,
            registered_at: Instant::now(),
        });
        token
    }

    /// A human-readable dump of every live registration plus the age of
    /// the last [`poll_io`](FdReactor::poll_io) — the deadlock
    /// post-mortem the in-flight pool attaches to its panic (a stuck
    /// pipeline is invisible without knowing *which* fds were armed and
    /// whether the reactor ever ran).
    pub fn debug_dump(&self) -> String {
        let now = Instant::now();
        let mut out = match self.last_poll.get() {
            Some(at) => format!(
                "reactor: last poll_io {}ms ago, {} registration(s)",
                now.duration_since(at).as_millis(),
                self.registered(),
            ),
            None => format!(
                "reactor: poll_io never ran, {} registration(s)",
                self.registered()
            ),
        };
        for e in self.entries.borrow().iter() {
            let interest = if e.events & POLLOUT != 0 {
                "write"
            } else {
                "read"
            };
            let deadline = match e.deadline {
                Some(d) if d <= now => {
                    format!(", deadline expired {}ms ago", (now - d).as_millis())
                }
                Some(d) => format!(", deadline in {}ms", (d - now).as_millis()),
                None => String::new(),
            };
            out.push_str(&format!(
                "\n  token {} fd {} ({interest}) armed {}ms ago{deadline}",
                e.token,
                e.fd,
                now.duration_since(e.registered_at).as_millis(),
            ));
        }
        out
    }

    /// Cancels a registration by token. A no-op when the entry already
    /// fired (one-shot registrations are removed by the wake), so
    /// resolve-time cleanup is always safe to call.
    pub fn deregister(&self, token: u64) {
        self.entries.borrow_mut().retain(|e| e.token != token);
    }

    /// Waits for readiness: blocks in `poll(2)` until at least one
    /// registered fd is readable (or closed, or errored) or a deadline
    /// expires, then wakes and removes the fired registrations.
    ///
    /// Returns the number of tasks woken — `0` only when the reactor has
    /// no registrations, or when `max_wait` elapsed first. With
    /// `max_wait = None` the sleep is bounded by the earliest registered
    /// deadline alone (and is indefinite when there is none: a reply must
    /// arrive, a deadline must be set, or the caller has a deadlock).
    ///
    /// # Errors
    ///
    /// The underlying `poll(2)` errors (`EINTR` is retried internally).
    pub fn poll_io(&self, max_wait: Option<Duration>) -> io::Result<usize> {
        self.last_poll.set(Some(Instant::now()));
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::counter("reactor.polls").inc();
        }
        if self.entries.borrow().is_empty() {
            return Ok(0);
        }
        let deadline = self
            .entries
            .borrow()
            .iter()
            .filter_map(|e| e.deadline)
            .min();
        let hard_stop = max_wait.map(|w| Instant::now() + w);

        let mut fds: Vec<PollFd> = self
            .entries
            .borrow()
            .iter()
            .map(|e| PollFd {
                fd: e.fd,
                events: e.events,
                revents: 0,
            })
            .collect();
        loop {
            // Recomputed each pass so an EINTR retry waits only the
            // *remaining* time — periodic signals must not stretch a
            // per-query deadline.
            let now = Instant::now();
            let timeout_ms = match (deadline, hard_stop) {
                (Some(d), Some(s)) => wait_millis(d.min(s).saturating_duration_since(now)),
                (Some(d), None) => wait_millis(d.saturating_duration_since(now)),
                (None, Some(s)) => wait_millis(s.saturating_duration_since(now)),
                (None, None) => -1, // block until readiness
            };
            // SAFETY: `fds` outlives the call and `nfds` matches its length.
            let rc = unsafe {
                poll(
                    fds.as_mut_ptr(),
                    fds.len() as core::ffi::c_ulong,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }

        let now = Instant::now();
        let mut woken = 0;
        self.entries.borrow_mut().retain_mut(|entry| {
            let fired = fds.iter().any(|p| {
                p.fd == entry.fd && p.revents & (entry.events | POLLERR | POLLHUP | POLLNVAL) != 0
            });
            let expired = entry.deadline.is_some_and(|d| d <= now);
            if fired || expired {
                entry.waker.wake_by_ref();
                woken += 1;
                false
            } else {
                true
            }
        });
        Ok(woken)
    }
}

/// `poll(2)` timeout for a remaining wait, rounded **up** so a deadline is
/// never spun on at sub-millisecond granularity.
fn wait_millis(d: Duration) -> i32 {
    let round_up = u128::from(!d.subsec_nanos().is_multiple_of(1_000_000));
    (d.as_millis() + round_up).min(i32::MAX as u128) as i32
}

/// A future that resolves once `fd` is (probably) ready for the
/// requested [`Interest`] — or once `deadline` has passed; the caller
/// distinguishes the two by checking the clock and retrying its I/O.
/// Spurious resolutions are benign: the I/O returns `WouldBlock` again
/// and the caller awaits a fresh [`readable`]/[`writable`].
///
/// The future may also be resolved by an *external* wake (a session
/// sibling completing this task's reply and waking it directly); it then
/// deregisters its reactor entry so the stale registration cannot fire
/// later. Dropping an armed `FdReady` deregisters too.
pub struct FdReady<'r> {
    reactor: &'r FdReactor,
    fd: RawFd,
    interest: Interest,
    deadline: Option<Instant>,
    token: Option<u64>,
    armed: bool,
}

/// Creates a one-shot read-readiness future on `reactor` for `fd`.
pub fn readable(reactor: &FdReactor, fd: RawFd, deadline: Option<Instant>) -> FdReady<'_> {
    ready_for(reactor, fd, Interest::Read, deadline)
}

/// Creates a one-shot write-readiness future on `reactor` for `fd`.
pub fn writable(reactor: &FdReactor, fd: RawFd, deadline: Option<Instant>) -> FdReady<'_> {
    ready_for(reactor, fd, Interest::Write, deadline)
}

fn ready_for(
    reactor: &FdReactor,
    fd: RawFd,
    interest: Interest,
    deadline: Option<Instant>,
) -> FdReady<'_> {
    FdReady {
        reactor,
        fd,
        interest,
        deadline,
        token: None,
        armed: false,
    }
}

impl std::future::Future for FdReady<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.armed {
            // Woken — by the reactor (readiness or deadline, which
            // consumed the entry) or by an external waker (entry still
            // live: cancel it so it cannot fire stale).
            if let Some(token) = self.token.take() {
                self.reactor.deregister(token);
            }
            Poll::Ready(())
        } else {
            let token =
                self.reactor
                    .register(self.fd, self.interest, cx.waker().clone(), self.deadline);
            self.token = Some(token);
            self.armed = true;
            Poll::Pending
        }
    }
}

impl Drop for FdReady<'_> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.reactor.deregister(token);
        }
    }
}

/// Drains currently-available bytes from a non-blocking reader into `buf`.
///
/// Returns `Ok(Some(n))` for `n` bytes appended (`n = 0` means end of
/// stream: the peer closed, e.g. a dead child process), or `Ok(None)` when
/// the read would block and the caller should await [`readable`].
///
/// # Errors
///
/// Real read errors (`WouldBlock` and `Interrupted` are absorbed).
pub fn read_available(reader: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    loop {
        match reader.read(&mut chunk) {
            // EOF after data defers its signal to the caller's next call
            // (which reads 0 bytes again and gets `Some(0)`).
            Ok(0) => return Ok(Some(total)),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if total > 0 { Ok(Some(total)) } else { Ok(None) };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes as much of `buf` as the non-blocking writer accepts.
///
/// Returns the number of bytes written — less than `buf.len()` means the
/// pipe is full and the caller should await [`writable`] before retrying
/// the remainder.
///
/// # Errors
///
/// Real write errors, e.g. `EPIPE` from a dead reader (`WouldBlock` and
/// `Interrupted` are absorbed).
pub fn write_available(writer: &mut impl std::io::Write, buf: &[u8]) -> io::Result<usize> {
    let mut written = 0usize;
    while written < buf.len() {
        match writer.write(&buf[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// Flushes the front of a pending output buffer into a non-blocking
/// writer, compacting `buf` down to the unwritten tail.
///
/// Returns `true` when the buffer fully drained, `false` when the
/// writer stalled (`WouldBlock`) and the caller should await
/// [`writable`] — or, for best-effort client sockets like the scope
/// plane's, simply retry on the next reactor pass.
///
/// # Errors
///
/// Real write errors, e.g. `EPIPE` from a hung-up peer.
pub fn flush_outbuf(writer: &mut impl std::io::Write, buf: &mut Vec<u8>) -> io::Result<bool> {
    if buf.is_empty() {
        return Ok(true);
    }
    let written = write_available(writer, buf)?;
    if written > 0 {
        buf.drain(..written);
    }
    Ok(buf.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_on_with, InFlightPool};
    use std::io::Write;
    use std::process::{Command, Stdio};

    /// Spawns a child that prints `reply` after `delay_ms`, returning the
    /// child and its stdout fd.
    fn chatter(reply: &str, delay_ms: u64) -> std::process::Child {
        Command::new("sh")
            .arg("-c")
            .arg(format!(
                "sleep {}; printf '{}'",
                delay_ms as f64 / 1e3,
                reply
            ))
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sh")
    }

    #[test]
    fn readable_resolves_when_child_writes() {
        use std::os::unix::io::AsRawFd;
        let mut child = chatter("hello", 30);
        let mut stdout = child.stdout.take().unwrap();
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd).unwrap();
        let reactor = FdReactor::new();
        let mut buf = Vec::new();
        let got = block_on_with(
            async {
                loop {
                    match read_available(&mut stdout, &mut buf).unwrap() {
                        Some(0) => break,    // EOF: child exited
                        Some(_) => continue, // keep draining
                        None => readable(&reactor, fd, None).await,
                    }
                }
                String::from_utf8(buf.clone()).unwrap()
            },
            || {
                reactor.poll_io(None).unwrap();
            },
        );
        assert_eq!(got, "hello");
        child.wait().unwrap();
        assert_eq!(reactor.registered(), 0, "registrations are one-shot");
    }

    #[test]
    fn deadline_wakes_without_readiness() {
        // A pipe nobody ever writes to: only the deadline can wake us.
        use std::os::unix::io::AsRawFd;
        let mut child = Command::new("sleep")
            .arg("5")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sleep");
        let stdout = child.stdout.take().unwrap();
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd).unwrap();
        let reactor = FdReactor::new();
        let deadline = Instant::now() + Duration::from_millis(40);
        let started = Instant::now();
        block_on_with(
            async {
                readable(&reactor, fd, Some(deadline)).await;
            },
            || {
                reactor.poll_io(None).unwrap();
            },
        );
        assert!(
            Instant::now() >= deadline,
            "woke before the deadline with no data"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "deadline ignored: slept toward the child's exit"
        );
        child.kill().ok();
        child.wait().ok();
    }

    #[test]
    fn pool_idle_hook_drives_fd_futures() {
        use std::os::unix::io::AsRawFd;
        // Two children with inverted delays: completions arrive out of
        // submission order, through the pool's idle hook.
        let mut kids: Vec<_> = [("b", 60), ("a", 15)]
            .iter()
            .map(|(reply, delay)| chatter(reply, *delay))
            .collect();
        let reactor = FdReactor::new();
        let mut streams: Vec<_> = kids
            .iter_mut()
            .map(|c| {
                let s = c.stdout.take().unwrap();
                set_nonblocking(s.as_raw_fd()).unwrap();
                s
            })
            .collect();
        let mut pool: InFlightPool<String> = InFlightPool::new(2);
        for (i, stdout) in streams.iter_mut().enumerate() {
            let fd = stdout.as_raw_fd();
            let reactor = &reactor;
            pool.submit(i as u64, async move {
                let mut buf = Vec::new();
                loop {
                    match read_available(stdout, &mut buf).unwrap() {
                        Some(0) => break,
                        Some(_) => continue,
                        None => readable(reactor, fd, None).await,
                    }
                }
                String::from_utf8(buf).unwrap()
            });
        }
        let mut done = Vec::new();
        while !pool.is_empty() {
            for (index, reply) in pool.wait_any_with(|| {
                reactor.poll_io(None).unwrap();
            }) {
                done.push((index, reply));
            }
        }
        done.sort();
        assert_eq!(
            done,
            vec![(0, "b".to_string()), (1, "a".to_string())],
            "both replies arrived through the reactor"
        );
        for k in &mut kids {
            k.wait().unwrap();
        }
    }

    #[test]
    fn poll_io_on_empty_reactor_is_a_noop() {
        let reactor = FdReactor::new();
        assert_eq!(reactor.poll_io(Some(Duration::from_millis(1))).unwrap(), 0);
    }

    /// The fan-out contract: several futures pending on ONE fd (a
    /// persistent solver session multiplexing many queries onto one child
    /// stdout) are all woken by a single readiness event.
    #[test]
    fn one_readable_fd_wakes_every_registered_waiter() {
        use std::os::unix::io::AsRawFd;
        let mut child = chatter("x", 25);
        let stdout = child.stdout.take().unwrap();
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd).unwrap();
        let reactor = FdReactor::new();
        let mut pool: InFlightPool<u64> = InFlightPool::new(3);
        for i in 0..3u64 {
            let reactor = &reactor;
            pool.submit(i, async move {
                readable(reactor, fd, None).await;
                i
            });
        }
        // One poll round parks all three on the same fd.
        assert!(pool.poll_round().is_empty());
        assert_eq!(reactor.registered(), 3, "three waiters on one fd");
        let woken = reactor.poll_io(None).unwrap();
        assert_eq!(woken, 3, "one readiness event wakes every waiter");
        let mut done: Vec<u64> = pool.poll_round().into_iter().map(|(i, _)| i).collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2]);
        child.wait().unwrap();
    }

    /// A future resolved by an external wake (not the reactor) cancels
    /// its registration on resolution — and a dropped armed future
    /// cancels too — so no stale entry can wake a dead task later.
    #[test]
    fn externally_woken_fd_future_deregisters_its_entry() {
        use crate::WakeFlag;
        use std::future::Future;
        use std::os::unix::io::AsRawFd;
        let mut child = Command::new("sleep")
            .arg("5")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sleep");
        let stdout = child.stdout.take().unwrap();
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd).unwrap();
        let reactor = FdReactor::new();
        let flag = WakeFlag::new();
        let waker = flag.waker();
        let mut cx = Context::from_waker(&waker);
        {
            let mut fut = std::pin::pin!(readable(&reactor, fd, None));
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            assert_eq!(reactor.registered(), 1);
            // External wake — e.g. a session sibling that drained the
            // shared stream delivered this task's reply directly.
            waker.wake_by_ref();
            assert!(fut.as_mut().poll(&mut cx).is_ready());
            assert_eq!(
                reactor.registered(),
                0,
                "spurious resolution must deregister the stale entry"
            );
        }
        {
            let mut fut = std::pin::pin!(readable(&reactor, fd, None));
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            assert_eq!(reactor.registered(), 1);
        } // dropped while armed
        assert_eq!(reactor.registered(), 0, "drop must deregister");
        child.kill().ok();
        child.wait().ok();
    }

    /// Sockets ride the reactor exactly like pipes: a non-blocking TCP
    /// listener's fd reports readable when a connection is queued, so
    /// `accept(2)` readiness can share the coordinator's `poll(2)` loop.
    #[test]
    fn tcp_listener_accept_readiness_rides_the_reactor() {
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let fd = listener.as_raw_fd();
        let reactor = FdReactor::new();
        // Nobody has connected: accept would block, so park on the fd,
        // with a deadline proving the wake is readiness, not a timeout.
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        let connector = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            TcpStream::connect(addr).unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = block_on_with(
            async {
                loop {
                    match listener.accept() {
                        Ok(_) => break true,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if Instant::now() >= deadline {
                                break false;
                            }
                            readable(&reactor, fd, Some(deadline)).await;
                        }
                        Err(e) => panic!("accept: {e}"),
                    }
                }
            },
            || {
                reactor.poll_io(None).unwrap();
            },
        );
        assert!(accepted, "listener readiness never fired");
        connector.join().unwrap();
        assert_eq!(reactor.registered(), 0);
    }

    /// An accepted non-blocking TCP stream delivers read readiness
    /// through the reactor like a child's stdout pipe does — the
    /// coordinator's worker frames arrive through this path.
    #[test]
    fn tcp_stream_read_readiness_rides_the_reactor() {
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut peer = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(25));
            peer.write_all(b"frame\n").unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = stream.as_raw_fd();
        let reactor = FdReactor::new();
        let mut buf = Vec::new();
        let got = block_on_with(
            async {
                loop {
                    match read_available(&mut stream, &mut buf).unwrap() {
                        Some(0) => break, // peer closed after writing
                        Some(_) if buf.ends_with(b"\n") => break,
                        Some(_) => continue,
                        None => readable(&reactor, fd, None).await,
                    }
                }
                String::from_utf8(buf.clone()).unwrap()
            },
            || {
                reactor.poll_io(None).unwrap();
            },
        );
        assert_eq!(got, "frame\n");
        writer.join().unwrap();
        assert_eq!(reactor.registered(), 0);
    }

    #[test]
    fn write_end_close_reports_readable_eof() {
        use std::os::unix::io::AsRawFd;
        // `true` exits immediately without writing: POLLHUP must wake us so
        // the dead-child case is a wake, not a hang.
        let mut child = Command::new("true")
            .stdout(Stdio::piped())
            .stdin(Stdio::piped())
            .spawn()
            .expect("spawn true");
        // Keep a handle so the write end closes on child exit only.
        child.stdin.take().unwrap().flush().ok();
        let mut stdout = child.stdout.take().unwrap();
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd).unwrap();
        let reactor = FdReactor::new();
        let eof = block_on_with(
            async {
                loop {
                    match read_available(&mut stdout, &mut Vec::new()).unwrap() {
                        Some(0) => break true,
                        Some(_) => continue,
                        None => readable(&reactor, fd, None).await,
                    }
                }
            },
            || {
                reactor.poll_io(None).unwrap();
            },
        );
        assert!(eof);
        child.wait().unwrap();
    }

    #[test]
    fn flush_outbuf_compacts_to_the_unwritten_tail() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();

        let mut small = b"hello".to_vec();
        assert!(flush_outbuf(&mut a, &mut small).unwrap());
        assert!(small.is_empty());
        let mut got = [0u8; 5];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");

        // Overwhelm the kernel buffer: the helper reports a stall and
        // keeps exactly the unwritten tail queued.
        let mut big = vec![7u8; 16 << 20];
        assert!(!flush_outbuf(&mut a, &mut big).unwrap(), "16 MiB can't fit");
        let stalled_len = big.len();
        assert!(stalled_len > 0 && stalled_len < 16 << 20);

        // Draining the peer lets the next flush make progress.
        let mut sink = vec![0u8; 1 << 20];
        let drained = b.read(&mut sink).unwrap();
        assert!(drained > 0);
        flush_outbuf(&mut a, &mut big).unwrap();
        assert!(big.len() < stalled_len, "flush resumed after the drain");
    }
}

//! The one wire between the coordinator and its workers: TCP.
//!
//! The control protocol ([`crate::protocol`]) is JSONL; this module
//! carries it over sockets. The coordinator always binds a listener and
//! every worker *joins* by connecting (`dist_worker --connect
//! host:port`) — the ones it spawned itself over loopback, and any it
//! did not. Membership is elastic: a worker may connect mid-campaign
//! and immediately pull the next lease, or leave and have its lease
//! re-issued. Shutdown is an explicit `goodbye` frame, because a closed
//! socket alone cannot tell "campaign complete" from "coordinator
//! died".
//!
//! Each worker is one `Link` on the coordinator: a non-blocking socket
//! whose fd rides the `o4a-executor` `poll(2)` reactor plus a
//! line-oriented send path. Socket *writes* poll for writability with a
//! deadline, since a peer that keeps its receive window shut for
//! seconds while being sent a few hundred bytes of frame is as dead as
//! a closed one.

use o4a_executor::{read_available, set_nonblocking, write_available};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// A socket write that cannot complete within this window means the
/// peer stopped reading frames entirely — treat it like a dead peer.
const SEND_DEADLINE: Duration = Duration::from_secs(10);

/// Coordinator-side connection to one worker: an accepted socket,
/// switched to non-blocking.
pub(crate) struct Link {
    stream: TcpStream,
}

impl Link {
    /// Wraps an accepted socket, switching it to non-blocking so it can
    /// ride the reactor.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Link> {
        set_nonblocking(stream.as_raw_fd())?;
        Ok(Link { stream })
    }

    /// The fd whose read-readiness the reactor polls.
    pub(crate) fn read_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Drains up to `limit` bytes of whatever the worker has sent (see
    /// [`o4a_executor::read_available`]): `Some(0)` is EOF/hangup,
    /// `None` means nothing available right now. `limit` must be nonzero,
    /// or the empty read would look like EOF.
    pub(crate) fn read_available(
        &mut self,
        buf: &mut Vec<u8>,
        limit: usize,
    ) -> io::Result<Option<usize>> {
        read_available(&mut (&mut self.stream).take(limit as u64), buf)
    }

    /// Sends one protocol line (newline appended), retrying a full send
    /// buffer up to [`SEND_DEADLINE`].
    pub(crate) fn send_line(&mut self, line: &str) -> io::Result<()> {
        let bytes = format!("{line}\n");
        send_all(&mut self.stream, bytes.as_bytes())
    }
}

/// Writes all of `bytes` to a non-blocking socket, sleeping briefly on
/// a full send buffer, erroring past [`SEND_DEADLINE`]. Frames are tiny
/// (a lease is under 1 KiB), so the loop body runs once on any healthy
/// peer.
fn send_all(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + SEND_DEADLINE;
    let mut sent = 0usize;
    while sent < bytes.len() {
        sent += write_available(stream, &bytes[sent..])?;
        if sent < bytes.len() {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "worker stopped reading frames",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(())
}

/// The coordinator's accept socket: non-blocking, so accept-readiness
/// rides the same reactor poll as worker frames.
pub(crate) struct Listener {
    inner: TcpListener,
    addr: String,
}

impl Listener {
    /// Binds `addr` non-blocking, recording the actual local address
    /// (resolving port 0 to the kernel's pick).
    pub(crate) fn bind(addr: &str) -> io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        let addr = inner.local_addr()?.to_string();
        Ok(Listener { inner, addr })
    }

    /// The actual listen address (`host:port`, port never 0).
    pub(crate) fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The fd whose accept-readiness the reactor polls (`POLLIN` on a
    /// listening socket means a connection is waiting).
    pub(crate) fn fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }

    /// Accepts one pending connection, `None` when nothing is queued.
    pub(crate) fn accept(&self) -> io::Result<Option<TcpStream>> {
        match self.inner.accept() {
            Ok((stream, _peer)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Worker-side connect with retry: the coordinator may not be up yet
/// (or may be *restarting* — the whole point of the checkpoint), so the
/// worker keeps knocking every 100 ms until `window` elapses.
///
/// The returned stream is left **blocking**: the worker is a
/// synchronous lease-serving loop, not a reactor.
///
/// # Errors
///
/// The last connection error once `window` is exhausted.
pub fn connect_with_retry(addr: &str, window: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + window;
    loop {
        // Re-resolve per attempt; resolution failures count as attempts.
        let result = addr
            .to_socket_addrs()
            .and_then(|mut addrs| {
                addrs.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "address resolved empty")
                })
            })
            .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_secs(2)));
        match result {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("no coordinator at {addr} within {window:?}: {e}"),
                ));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    #[test]
    fn listener_resolves_port_zero_and_accepts() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        assert!(!addr.ends_with(":0"), "port 0 must resolve: {addr}");
        assert!(listener.accept().unwrap().is_none(), "no one connected yet");

        let client = connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
        // Accept is non-blocking; the connect may take a beat to land in
        // the accept queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(stream) = listener.accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline, "accept never saw the connect");
            std::thread::sleep(Duration::from_millis(5));
        };
        drop(client);
        drop(accepted);
    }

    #[test]
    fn tcp_link_round_trips_lines() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let client = connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(stream) = listener.accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        };

        let mut link = Link::new(accepted).unwrap();
        link.send_line("{\"t\":\"goodbye\",\"worker\":1}").unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"t\":\"goodbye\",\"worker\":1}\n");

        // The other direction, via the non-blocking drain helper.
        let mut client = reader.into_inner();
        client.write_all(b"hello-line\n").unwrap();
        drop(client);
        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match link.read_available(&mut buf, usize::MAX).unwrap() {
                Some(0) => break, // EOF after the payload
                _ => {
                    if buf.ends_with(b"hello-line\n") {
                        break;
                    }
                    assert!(Instant::now() < deadline, "payload never arrived");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert!(buf.starts_with(b"hello-line\n"));
    }

    #[test]
    fn connect_with_retry_gives_up_past_the_window() {
        // Bind-then-drop guarantees a port with no listener.
        let doomed = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = connect_with_retry(&doomed, Duration::from_millis(200)).unwrap_err();
        assert!(err.to_string().contains("no coordinator"), "{err}");
    }
}

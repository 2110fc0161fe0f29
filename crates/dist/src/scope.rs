//! o4a-scope: the coordinator's live observatory plane.
//!
//! A read-only HTTP/1.1 status server that rides the same `poll(2)`
//! reactor as the fleet itself — no thread, no runtime, no extra
//! wakeups beyond the tick the fleet listener already pays. Two
//! endpoints:
//!
//! * `GET /status` — one JSON snapshot of the fleet ([`ScopeStatus`]):
//!   lease churn, per-worker live throughput, running coverage maxima.
//! * `GET /metrics` — Prometheus text exposition of the coordinator's
//!   merged [`o4a_obs::metrics::MetricsSnapshot`] plus fleet gauges.
//!
//! The plane is **observation only**: it never feeds scheduling, and a
//! slow, stuck, or malicious client costs the campaign nothing — a
//! client whose backlog passes [`OUTBUF_CAP`] is dropped, every write
//! is non-blocking, and every error path is "forget the client".
//! The scope-on ≡ scope-off gauntlet in
//! `crates/bench/tests/scope_plane.rs` pins the stronger claim: a
//! campaign polled on both endpoints merges bit-identical results to
//! one that was never watched.

use crate::protocol::CacheCounters;
use crate::transport::Listener;
use o4a_exec::json::{obj, Json};
use o4a_executor::{flush_outbuf, read_available, set_nonblocking, FdReactor, Interest};
use o4a_obs::serve::{http_response, parse_request, MAX_REQUEST_BYTES};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::task::Waker;

/// A scope client that stops reading while this many response bytes
/// queue up is dropped — the observatory never buffers unboundedly for
/// a stalled observer.
pub const OUTBUF_CAP: usize = 256 * 1024;

/// One accepted observer connection.
struct ScopeClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// A one-shot response is queued: close once `outbuf` drains.
    closing: bool,
    /// The request was consumed — later inbound bytes are ignored.
    done_reading: bool,
    /// The peer closed its side (EOF).
    peer_closed: bool,
}

impl ScopeClient {
    fn new(stream: TcpStream) -> ScopeClient {
        ScopeClient {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            closing: false,
            done_reading: false,
            peer_closed: false,
        }
    }

    /// Reads what the peer sent — at most one byte past the request cap
    /// per pass, so a flooding client cannot grow `inbuf` further. Input
    /// after the request is read the same way, then discarded.
    fn read_pass(&mut self) {
        loop {
            let room = (MAX_REQUEST_BYTES + 1).saturating_sub(self.inbuf.len());
            if room == 0 {
                break;
            }
            let mut bounded = (&mut self.stream).take(room as u64);
            match read_available(&mut bounded, &mut self.inbuf) {
                Ok(Some(0)) => {
                    self.peer_closed = true;
                    // EOF before a full request: nothing to answer,
                    // close once any backlog drains.
                    if !self.done_reading && !self.closing {
                        self.closing = true;
                    }
                    break;
                }
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    self.peer_closed = true;
                    self.closing = true;
                    self.outbuf.clear();
                    break;
                }
            }
        }
        if self.done_reading {
            self.inbuf.clear();
        }
    }
}

/// The status plane: a non-blocking listener plus its observer
/// connections, serviced inside the coordinator's lease loop.
pub struct ScopeServer {
    listener: Listener,
    clients: Vec<ScopeClient>,
}

impl ScopeServer {
    /// Binds the observatory at `addr` (`host:port`; port 0 picks a
    /// free one, resolved in [`ScopeServer::local_addr`]).
    pub fn bind(addr: &str) -> io::Result<ScopeServer> {
        Ok(ScopeServer {
            listener: Listener::bind(addr)?,
            clients: Vec::new(),
        })
    }

    /// The actual listen address (port never 0).
    pub fn local_addr(&self) -> &str {
        self.listener.local_addr()
    }

    /// Registers the listener and every client fd on the fleet reactor.
    /// Tokens append to `tokens` for the caller's deregister pass.
    pub fn register(&self, reactor: &FdReactor, waker: &Waker, tokens: &mut Vec<u64>) {
        tokens.push(reactor.register(self.listener.fd(), Interest::Read, waker.clone(), None));
        for client in &self.clients {
            tokens.push(reactor.register(
                client.stream.as_raw_fd(),
                Interest::Read,
                waker.clone(),
                None,
            ));
            if !client.outbuf.is_empty() {
                tokens.push(reactor.register(
                    client.stream.as_raw_fd(),
                    Interest::Write,
                    waker.clone(),
                    None,
                ));
            }
        }
    }

    /// One service pass: accept observers, read and answer requests,
    /// flush backlogs, drop the dead. `status` and `metrics` render the
    /// respective payloads and are invoked at most once per pass — only
    /// when a request for that endpoint actually arrived.
    ///
    /// Entirely best-effort: client errors drop the client, never the
    /// campaign.
    pub fn service(
        &mut self,
        mut status: impl FnMut() -> String,
        mut metrics: impl FnMut() -> String,
    ) {
        while let Ok(Some(stream)) = self.listener.accept() {
            if set_nonblocking(stream.as_raw_fd()).is_err() {
                continue;
            }
            self.clients.push(ScopeClient::new(stream));
        }
        let mut status_body: Option<String> = None;
        let mut metrics_body: Option<String> = None;
        for client in &mut self.clients {
            if !client.peer_closed {
                client.read_pass();
            }
            if !client.done_reading && !client.peer_closed && !client.closing {
                // Past the cap `parse_request` answers `Some(Err)`: 400.
                match parse_request(&client.inbuf) {
                    None => {}
                    Some(Err(_)) => {
                        client.outbuf =
                            http_response(400, "Bad Request", "text/plain", "bad request\n");
                        client.closing = true;
                        client.done_reading = true;
                    }
                    Some(Ok(req)) => {
                        client.done_reading = true;
                        match (req.method.as_str(), req.path.as_str()) {
                            ("GET", "/status") => {
                                let body = status_body.get_or_insert_with(&mut status);
                                client.outbuf = http_response(200, "OK", "application/json", body);
                                client.closing = true;
                            }
                            ("GET", "/metrics") => {
                                let body = metrics_body.get_or_insert_with(&mut metrics);
                                client.outbuf =
                                    http_response(200, "OK", "text/plain; version=0.0.4", body);
                                client.closing = true;
                            }
                            ("GET", _) => {
                                client.outbuf = http_response(
                                    404,
                                    "Not Found",
                                    "text/plain",
                                    "unknown endpoint (try /status, /metrics)\n",
                                );
                                client.closing = true;
                            }
                            _ => {
                                client.outbuf = http_response(
                                    405,
                                    "Method Not Allowed",
                                    "text/plain",
                                    "read-only plane: GET only\n",
                                );
                                client.closing = true;
                            }
                        }
                    }
                }
            }
        }
        self.flush();
    }

    /// Non-blocking write pass; retires clients that errored, closed,
    /// finished their one-shot response, or fell too far behind.
    fn flush(&mut self) {
        self.clients.retain_mut(|client| {
            match flush_outbuf(&mut client.stream, &mut client.outbuf) {
                Err(_) => false,
                Ok(drained) => {
                    if client.outbuf.len() > OUTBUF_CAP {
                        return false; // observer stopped observing
                    }
                    // Retired once its response is delivered.
                    !(client.closing && drained)
                }
            }
        });
    }

    /// Connected observers (test / diagnostics hook).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }
}

/// One live worker's row in [`ScopeStatus`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeWorker {
    /// Worker id (spawn sequence).
    pub worker: u32,
    /// The shard it currently holds, if any.
    pub lease: Option<u32>,
    /// Cases across its completed leases.
    pub cases: u64,
    /// Heartbeat progress of the in-flight lease.
    pub lease_cases: u64,
    /// Leases run to completion.
    pub leases_completed: u32,
    /// Latest self-reported throughput (cases/sec).
    pub cases_per_sec: f64,
    /// Milliseconds since the last frame from this worker.
    pub last_heard_ms: u64,
    /// Milliseconds since the worker was spawned.
    pub wall_ms: u64,
}

/// The `GET /status` document: everything a fleet dashboard needs to
/// render one refresh.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScopeStatus {
    /// Shards in the plan.
    pub shards: u32,
    /// Configured fleet strength.
    pub workers: u32,
    /// Shards completed so far.
    pub shards_done: u32,
    /// Shards still queued (granted-but-running shards are neither).
    pub shards_pending: u32,
    /// Worker processes spawned by the coordinator.
    pub workers_spawned: u32,
    /// Workers that died or were killed as wedged.
    pub worker_deaths: u32,
    /// Lease frames sent.
    pub leases_granted: u64,
    /// Leases re-issued after a worker died.
    pub leases_reissued: u64,
    /// Fleet verdict-cache counters so far.
    pub cache: CacheCounters,
    /// Running per-solver line-coverage maxima (percent), from `done`
    /// frames. Empty until the first traced lease completes.
    pub coverage: BTreeMap<String, f64>,
    /// Live workers, in id order.
    pub fleet: Vec<ScopeWorker>,
    /// Campaign wall-clock so far, milliseconds.
    pub elapsed_ms: u64,
}

impl ScopeStatus {
    /// Serializes to the `/status` JSON document (one line).
    pub fn to_json(&self) -> Json {
        let fleet = self
            .fleet
            .iter()
            .map(|w| {
                obj(vec![
                    ("worker", Json::U64(u64::from(w.worker))),
                    (
                        "lease",
                        w.lease.map_or(Json::Null, |s| Json::U64(u64::from(s))),
                    ),
                    ("cases", Json::U64(w.cases)),
                    ("lease_cases", Json::U64(w.lease_cases)),
                    ("leases_completed", Json::U64(u64::from(w.leases_completed))),
                    ("cases_per_sec", Json::F64(w.cases_per_sec)),
                    ("last_heard_ms", Json::U64(w.last_heard_ms)),
                    ("wall_ms", Json::U64(w.wall_ms)),
                ])
            })
            .collect();
        obj(vec![
            ("shards", Json::U64(u64::from(self.shards))),
            ("workers", Json::U64(u64::from(self.workers))),
            ("shards_done", Json::U64(u64::from(self.shards_done))),
            ("shards_pending", Json::U64(u64::from(self.shards_pending))),
            (
                "workers_spawned",
                Json::U64(u64::from(self.workers_spawned)),
            ),
            ("worker_deaths", Json::U64(u64::from(self.worker_deaths))),
            ("leases_granted", Json::U64(self.leases_granted)),
            ("leases_reissued", Json::U64(self.leases_reissued)),
            (
                "cache",
                obj(vec![
                    ("hits", Json::U64(self.cache.hits)),
                    ("misses", Json::U64(self.cache.misses)),
                ]),
            ),
            (
                "coverage",
                Json::Obj(
                    self.coverage
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            ("fleet", Json::Arr(fleet)),
            ("elapsed_ms", Json::U64(self.elapsed_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_exec::json::parse;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    fn sample() -> ScopeStatus {
        ScopeStatus {
            shards: 8,
            workers: 2,
            shards_done: 3,
            shards_pending: 2,
            workers_spawned: 0,
            worker_deaths: 1,
            leases_granted: 6,
            leases_reissued: 2,
            cache: CacheCounters {
                hits: 10,
                misses: 4,
            },
            coverage: BTreeMap::from([("oxiz".to_string(), 61.5), ("cervo".to_string(), 58.0)]),
            fleet: vec![
                ScopeWorker {
                    worker: 7,
                    lease: Some(5),
                    cases: 120,
                    lease_cases: 33,
                    leases_completed: 2,
                    cases_per_sec: 41.5,
                    last_heard_ms: 120,
                    wall_ms: 9001,
                },
                ScopeWorker {
                    worker: 9,
                    lease: None,
                    cases: 80,
                    lease_cases: 0,
                    leases_completed: 1,
                    cases_per_sec: 4.0,
                    last_heard_ms: 2600,
                    wall_ms: 8200,
                },
            ],
            elapsed_ms: 9500,
        }
    }

    /// The `/status` line parses back to the very document it encodes:
    /// every float, integer and `null` lease survives the text.
    #[test]
    fn status_round_trips_through_json() {
        let status = sample().to_json();
        let back = parse(&status.to_line()).expect("parse");
        assert_eq!(back, status);
        let fleet = back.get("fleet").and_then(Json::as_arr).expect("fleet");
        assert_eq!(fleet.len(), 2);
        assert_eq!(
            fleet[0].get("cases_per_sec").and_then(Json::as_f64),
            Some(41.5)
        );
        assert_eq!(fleet[1].get("lease"), Some(&Json::Null));
    }

    /// Drives a real socket through the server without any reactor:
    /// service() is non-blocking, so a test can just interleave it with
    /// blocking client I/O.
    fn serve_until<F: FnMut(&mut ScopeServer)>(mut step: F, server: &mut ScopeServer, passes: u32) {
        for _ in 0..passes {
            step(server);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn service_default(server: &mut ScopeServer) {
        server.service(
            || sample().to_json().to_line(),
            || "# TYPE o4a_up gauge\no4a_up 1\n".to_string(),
        );
    }

    fn read_to_end_lossy(stream: &mut TcpStream) -> String {
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn status_endpoint_serves_one_json_document() {
        let mut server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = TcpStream::connect(&addr).expect("connect");
        client
            .write_all(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        serve_until(service_default, &mut server, 20);
        let reply = read_to_end_lossy(&mut client);
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("application/json"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).expect("body");
        let status = parse(body).expect("body parses");
        assert_eq!(status.get("shards").and_then(Json::as_u64), Some(8));
        assert_eq!(server.client_count(), 0, "one-shot client retired");
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let mut server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = TcpStream::connect(&addr).expect("connect");
        client.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        serve_until(service_default, &mut server, 20);
        let reply = read_to_end_lossy(&mut client);
        assert!(reply.contains("200 OK"), "{reply}");
        assert!(reply.contains("# TYPE o4a_up gauge"), "{reply}");
    }

    #[test]
    fn unknown_path_gets_404_and_bad_method_gets_405() {
        let mut server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let mut c1 = TcpStream::connect(&addr).expect("connect");
        c1.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut c2 = TcpStream::connect(&addr).expect("connect");
        c2.write_all(b"POST /status HTTP/1.1\r\n\r\n").unwrap();
        let mut c3 = TcpStream::connect(&addr).expect("connect");
        c3.write_all(b"GET /events HTTP/1.1\r\n\r\n").unwrap();
        serve_until(service_default, &mut server, 20);
        assert!(read_to_end_lossy(&mut c1).contains("404"));
        assert!(read_to_end_lossy(&mut c2).contains("405"));
        assert!(
            read_to_end_lossy(&mut c3).contains("404"),
            "no event stream"
        );
    }

    /// A client streaming a megabyte with no blank line: its buffer never
    /// holds more than one byte past the cap, however much is waiting on
    /// the socket, and the server answers it 400.
    #[test]
    fn flooding_client_is_refused_at_the_request_cap() {
        let flood = |addr: String| {
            std::thread::spawn(move || {
                let mut client = TcpStream::connect(&addr).expect("connect");
                let chunk = vec![b'a'; 64 * 1024];
                for _ in 0..16 {
                    if client.write_all(&chunk).is_err() {
                        break; // the server answered and hung up
                    }
                }
                client
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                read_to_end_lossy(&mut client)
            })
        };

        // One client, read pass by pass.
        let server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let flooder = flood(server.local_addr().to_string());
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            if let Some(stream) = server.listener.accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline, "flooder never connected");
            std::thread::sleep(Duration::from_millis(5));
        };
        set_nonblocking(stream.as_raw_fd()).unwrap();
        let mut client = ScopeClient::new(stream);
        while client.inbuf.len() <= MAX_REQUEST_BYTES {
            // Let the socket fill well past the cap before each pass.
            std::thread::sleep(Duration::from_millis(20));
            client.read_pass();
            assert!(
                client.inbuf.len() <= MAX_REQUEST_BYTES + 1,
                "inbuf grew to {} bytes",
                client.inbuf.len()
            );
            assert!(Instant::now() < deadline, "the flood never arrived");
        }
        assert!(matches!(parse_request(&client.inbuf), Some(Err(_))));
        drop(client);
        flooder.join().unwrap();

        // The same flood against the whole service: a 400.
        let mut server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let flooder = flood(server.local_addr().to_string());
        while !flooder.is_finished() {
            service_default(&mut server);
            assert!(Instant::now() < deadline, "flooding client never answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = flooder.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
    }
}

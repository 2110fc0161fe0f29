//! o4a-scope: the coordinator's live observatory plane.
//!
//! A read-only HTTP/1.1 + SSE status server that rides the same
//! `poll(2)` reactor as the fleet itself — no thread, no runtime, no
//! extra wakeups beyond the accept tick the fleet listener already pays.
//! Three endpoints:
//!
//! * `GET /status` — one JSON snapshot of the fleet ([`ScopeStatus`]):
//!   lease churn, per-worker live throughput (raw + EWMA), running
//!   coverage maxima, straggler warnings.
//! * `GET /metrics` — Prometheus text exposition of the coordinator's
//!   merged [`o4a_obs::metrics::MetricsSnapshot`] plus fleet gauges.
//! * `GET /events` — an SSE stream of campaign milestones (leases
//!   granted / completed / re-issued, workers joining and dying,
//!   findings, coverage movement, straggler transitions).
//!
//! The plane is **observation only**: it never feeds scheduling, and a
//! slow, stuck, or malicious client costs the campaign nothing — a
//! client whose backlog passes [`OUTBUF_CAP`] is dropped, every write
//! is non-blocking, and every error path is "forget the client".
//! The scope-on ≡ scope-off gauntlet in
//! `crates/bench/tests/scope_plane.rs` pins the stronger claim: a
//! campaign polled on all three endpoints merges bit-identical results
//! to one that was never watched.

use crate::coordinator::{DistStats, WorkerSummary};
use crate::protocol::CacheCounters;
use crate::transport::Listener;
use o4a_exec::json::{obj, parse, Json};
use o4a_executor::{flush_outbuf, read_available, set_nonblocking, FdReactor, Interest};
use o4a_obs::serve::{http_response, parse_request, sse_event, sse_preamble, MAX_REQUEST_BYTES};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::task::Waker;
use std::time::{Duration, Instant};

/// A scope client that stops reading while this many response bytes
/// queue up is dropped — the observatory never buffers unboundedly for
/// a stalled observer.
pub const OUTBUF_CAP: usize = 256 * 1024;

/// One accepted observer connection.
struct ScopeClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Subscribed to `/events`: keep the connection open and append
    /// broadcast frames forever.
    sse: bool,
    /// A one-shot response is queued: close once `outbuf` drains.
    closing: bool,
    /// The request was consumed — later inbound bytes are ignored.
    done_reading: bool,
    /// The peer closed its side (EOF) — an SSE subscriber hanging up.
    peer_closed: bool,
}

impl ScopeClient {
    fn new(stream: TcpStream) -> ScopeClient {
        ScopeClient {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            sse: false,
            closing: false,
            done_reading: false,
            peer_closed: false,
        }
    }

    /// Reads what the peer sent — at most one byte past the request cap
    /// per pass, so a flooding client cannot grow `inbuf` further. An SSE
    /// subscriber's input is read the same way, then discarded.
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

    /// Registers the listener (with a `tick` deadline so accepts, SSE
    /// flushes, and straggler sweeps stay timely) and every client fd
    /// on the fleet reactor. Tokens append to `tokens` for the caller's
    /// deregister pass.
    pub fn register(
        &self,
        reactor: &FdReactor,
        waker: &Waker,
        tick: Duration,
        tokens: &mut Vec<u64>,
    ) {
        tokens.push(reactor.register(
            self.listener.fd(),
            Interest::Read,
            waker.clone(),
            Some(Instant::now() + tick),
        ));
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

    /// One service pass: accept joiners, read and answer requests,
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
                            ("GET", "/events") => {
                                client.outbuf = sse_preamble();
                                client.sse = true;
                            }
                            ("GET", _) => {
                                client.outbuf = http_response(
                                    404,
                                    "Not Found",
                                    "text/plain",
                                    "unknown endpoint (try /status, /metrics, /events)\n",
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

    /// Appends one SSE frame to every `/events` subscriber and tries to
    /// flush it out immediately.
    pub fn broadcast(&mut self, event: &str, data: &Json) {
        if !self.clients.iter().any(|c| c.sse) {
            return;
        }
        let frame = sse_event(event, &data.to_line());
        for client in &mut self.clients {
            if client.sse {
                client.outbuf.extend_from_slice(&frame);
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
                    if client.closing && drained {
                        return false; // response delivered
                    }
                    if client.sse && client.peer_closed {
                        return false; // subscriber hung up
                    }
                    true
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
    /// Worker id (spawn sequence for a spawned worker, self-reported for
    /// a joined one).
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
    /// Smoothed throughput (EWMA over heartbeats) — what the straggler
    /// detector compares across the fleet.
    pub ewma_cases_per_sec: f64,
    /// Milliseconds since the last frame from this worker.
    pub last_heard_ms: u64,
    /// Milliseconds since the worker joined.
    pub wall_ms: u64,
    /// Flagged by the straggler detector this instant.
    pub straggler: bool,
}

/// The `GET /status` document: everything a fleet dashboard needs to
/// render one refresh, JSON-serializable both ways so `dist_top` can
/// reconstruct a [`DistStats`] and reuse the bench renderer.
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
    /// Leases re-issued after death/churn.
    pub leases_reissued: u64,
    /// `hello` handshakes from workers that joined on their own.
    pub workers_joined: u64,
    /// `re-adopt` handshakes honoured.
    pub workers_readopted: u64,
    /// Voluntary `goodbye`s.
    pub workers_left: u64,
    /// Completions credited from `re-adopt` frames.
    pub shards_readopted: u64,
    /// Resumed from a checkpoint.
    pub resumed: bool,
    /// Fleet verdict-cache counters so far.
    pub cache: CacheCounters,
    /// Running per-solver line-coverage maxima (percent), from `done`
    /// frames. Empty until the first traced lease completes.
    pub coverage: BTreeMap<String, f64>,
    /// Live workers, in id order.
    pub fleet: Vec<ScopeWorker>,
    /// Current straggler/stall warnings, human-readable.
    pub warnings: Vec<String>,
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
                    ("ewma_cases_per_sec", Json::F64(w.ewma_cases_per_sec)),
                    ("last_heard_ms", Json::U64(w.last_heard_ms)),
                    ("wall_ms", Json::U64(w.wall_ms)),
                    ("straggler", Json::Bool(w.straggler)),
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
            ("workers_joined", Json::U64(self.workers_joined)),
            ("workers_readopted", Json::U64(self.workers_readopted)),
            ("workers_left", Json::U64(self.workers_left)),
            ("shards_readopted", Json::U64(self.shards_readopted)),
            ("resumed", Json::Bool(self.resumed)),
            (
                "cache",
                obj(vec![
                    ("hits", Json::U64(self.cache.hits)),
                    ("misses", Json::U64(self.cache.misses)),
                    ("prefix_reuses", Json::U64(self.cache.prefix_reuses)),
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
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
            ("elapsed_ms", Json::U64(self.elapsed_ms)),
        ])
    }

    /// Parses a `/status` body back into a snapshot — what `dist_top`
    /// runs on every refresh.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first missing or mistyped
    /// field.
    pub fn from_json_text(text: &str) -> Result<ScopeStatus, String> {
        let json = parse(text.trim())?;
        let u32_of = |key: &str| -> Result<u32, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .map(|n| n.min(u64::from(u32::MAX)) as u32)
                .ok_or_else(|| format!("status: missing or non-integer `{key}`"))
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("status: missing or non-integer `{key}`"))
        };
        let cache = match json.get("cache") {
            Some(c) => CacheCounters {
                hits: c.get("hits").and_then(Json::as_u64).unwrap_or(0),
                misses: c.get("misses").and_then(Json::as_u64).unwrap_or(0),
                prefix_reuses: c.get("prefix_reuses").and_then(Json::as_u64).unwrap_or(0),
            },
            None => CacheCounters::default(),
        };
        let mut coverage = BTreeMap::new();
        if let Some(Json::Obj(map)) = json.get("coverage") {
            for (solver, pct) in map {
                let pct = pct
                    .as_f64()
                    .ok_or_else(|| format!("status: non-numeric coverage for `{solver}`"))?;
                coverage.insert(solver.clone(), pct);
            }
        }
        let mut fleet = Vec::new();
        for row in json
            .get("fleet")
            .and_then(Json::as_arr)
            .ok_or("status: missing `fleet` array")?
        {
            let field = |key: &str| -> Result<u64, String> {
                row.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("status: fleet row missing `{key}`"))
            };
            fleet.push(ScopeWorker {
                worker: field("worker")? as u32,
                lease: match row.get("lease") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or("status: fleet row `lease` is not an integer")?
                            as u32,
                    ),
                },
                cases: field("cases")?,
                lease_cases: field("lease_cases")?,
                leases_completed: field("leases_completed")? as u32,
                cases_per_sec: row
                    .get("cases_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                ewma_cases_per_sec: row
                    .get("ewma_cases_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                last_heard_ms: field("last_heard_ms")?,
                wall_ms: field("wall_ms")?,
                straggler: matches!(row.get("straggler"), Some(Json::Bool(true))),
            });
        }
        let mut warnings = Vec::new();
        if let Some(rows) = json.get("warnings").and_then(Json::as_arr) {
            for w in rows {
                warnings.push(w.as_str().ok_or("status: non-string warning")?.to_string());
            }
        }
        Ok(ScopeStatus {
            shards: u32_of("shards")?,
            workers: u32_of("workers")?,
            shards_done: u32_of("shards_done")?,
            shards_pending: u32_of("shards_pending")?,
            workers_spawned: u32_of("workers_spawned")?,
            worker_deaths: u32_of("worker_deaths")?,
            leases_granted: u64_of("leases_granted")?,
            leases_reissued: u64_of("leases_reissued")?,
            workers_joined: u64_of("workers_joined")?,
            workers_readopted: u64_of("workers_readopted")?,
            workers_left: u64_of("workers_left")?,
            shards_readopted: u64_of("shards_readopted")?,
            resumed: matches!(json.get("resumed"), Some(Json::Bool(true))),
            cache,
            coverage,
            fleet,
            warnings,
            elapsed_ms: u64_of("elapsed_ms")?,
        })
    }

    /// Projects the snapshot onto a [`DistStats`] (live workers become
    /// the per-worker rows) so `dist_top` reuses the bench renderer
    /// verbatim.
    pub fn to_dist_stats(&self) -> DistStats {
        DistStats {
            shards: self.shards,
            workers: self.workers,
            workers_spawned: self.workers_spawned,
            worker_deaths: self.worker_deaths,
            leases_granted: self.leases_granted,
            leases_reissued: self.leases_reissued,
            workers_joined: self.workers_joined,
            workers_readopted: self.workers_readopted,
            workers_left: self.workers_left,
            shards_readopted: self.shards_readopted,
            resumed: self.resumed,
            cache: self.cache,
            coverage: self.coverage.clone(),
            per_worker: self
                .fleet
                .iter()
                .map(|w| WorkerSummary {
                    worker: w.worker,
                    journal: std::path::PathBuf::new(),
                    leases_completed: w.leases_completed,
                    cases: w.cases,
                    wall: Duration::from_millis(w.wall_ms),
                    clean_exit: true,
                    last_cases_per_sec: w.cases_per_sec,
                    metrics: None,
                })
                .collect(),
            ..DistStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

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
            workers_joined: 3,
            workers_readopted: 1,
            workers_left: 1,
            shards_readopted: 1,
            resumed: true,
            cache: CacheCounters {
                hits: 10,
                misses: 4,
                prefix_reuses: 2,
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
                    ewma_cases_per_sec: 39.25,
                    last_heard_ms: 120,
                    wall_ms: 9001,
                    straggler: false,
                },
                ScopeWorker {
                    worker: 9,
                    lease: None,
                    cases: 80,
                    lease_cases: 0,
                    leases_completed: 1,
                    cases_per_sec: 4.0,
                    ewma_cases_per_sec: 4.5,
                    last_heard_ms: 2600,
                    wall_ms: 8200,
                    straggler: true,
                },
            ],
            warnings: vec!["worker 9 straggling: ewma 4.5 cases/sec vs fleet median 39.2".into()],
            elapsed_ms: 9500,
        }
    }

    #[test]
    fn status_round_trips_through_json() {
        let status = sample();
        let line = status.to_json().to_line();
        let back = ScopeStatus::from_json_text(&line).expect("parse");
        assert_eq!(back, status);
    }

    #[test]
    fn status_projects_onto_dist_stats_for_the_renderer() {
        let stats = sample().to_dist_stats();
        assert_eq!(stats.shards, 8);
        assert_eq!(stats.leases_reissued, 2);
        assert_eq!(stats.per_worker.len(), 2);
        assert_eq!(stats.per_worker[0].worker, 7);
        assert_eq!(stats.per_worker[0].cases, 120);
        assert_eq!(stats.coverage.get("oxiz"), Some(&61.5));
    }

    #[test]
    fn corrupt_status_is_refused_with_a_field_name() {
        let err = ScopeStatus::from_json_text("{\"fleet\":[],\"shards\":\"eight\"}").unwrap_err();
        assert!(err.contains("shards"), "unhelpful error: {err}");
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
        let status = ScopeStatus::from_json_text(body).expect("body parses");
        assert_eq!(status.shards, 8);
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
        serve_until(service_default, &mut server, 20);
        assert!(read_to_end_lossy(&mut c1).contains("404"));
        assert!(read_to_end_lossy(&mut c2).contains("405"));
    }

    #[test]
    fn events_endpoint_streams_broadcasts() {
        let mut server = ScopeServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = TcpStream::connect(&addr).expect("connect");
        client.write_all(b"GET /events HTTP/1.1\r\n\r\n").unwrap();
        serve_until(service_default, &mut server, 20);
        assert_eq!(server.client_count(), 1, "subscriber stays connected");
        server.broadcast(
            "lease",
            &obj(vec![("shard", Json::U64(3)), ("worker", Json::U64(1))]),
        );
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = String::new();
        let mut buf = [0u8; 4096];
        while !got.contains("event: lease") {
            let n = client.read(&mut buf).expect("sse bytes");
            assert!(n > 0, "stream closed before the event arrived");
            got.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
        assert!(got.contains("text/event-stream"), "{got}");
        assert!(got.contains("data: {\"shard\":3,\"worker\":1}"), "{got}");
        drop(client);
        serve_until(service_default, &mut server, 20);
        assert_eq!(server.client_count(), 0, "hung-up subscriber retired");
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

//! The worker side of a distributed campaign: a lease-execution loop
//! around [`o4a_exec::run_shard_lease`], over one TCP connection to the
//! coordinator.
//!
//! A worker process *connects* to the coordinator that spawned it,
//! introduces itself with `hello` (its id, its findings journal, and the
//! fleet secret it was handed), then serves leases until told to stop:
//! each `lease` frame names one shard of the campaign plan, the worker
//! runs it with the repo's standard shard engine (every finding fsync'd
//! into the worker's own journal the moment it is recorded), and the
//! `done` frame goes out only **after** the shard's completion record
//! is durable. Heartbeat `progress` frames flow while the shard runs so
//! the coordinator's per-worker deadline can tell a slow worker from a
//! wedged one.
//!
//! Only an explicit `goodbye` ends the loop cleanly. A connection the
//! coordinator closes without one ends it with an error: the coordinator
//! is gone, and with it the campaign this worker served.
//!
//! Crash injection (for the recovery gauntlet) lives here too: a worker
//! configured with [`CrashInjection`] dies abruptly — mid-lease, after
//! its journal already holds any findings discovered so far — the first
//! time it reaches the named shard. A token file makes the crash
//! once-per-campaign: the re-issued lease (on this or any other worker)
//! finds the token and runs to completion, which is exactly the
//! kill-mid-lease scenario the merge must absorb losslessly.

use crate::protocol::{CacheCounters, Frame, TraceBatch, FLEET_SECRET_ENV, MAX_FRAME_BYTES};
use crate::transport::connect_with_retry;
use o4a_core::{Fuzzer, TestCase};
use o4a_exec::json::Json;
use o4a_exec::{run_shard_lease, ExecConfig, FindingsStore, StoreSession};
use o4a_obs::journal::read_line;
use o4a_obs::metrics::MetricsSnapshot;
use o4a_obs::trace::TraceEvent;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cases between `progress` heartbeats.
pub const DEFAULT_PROGRESS_EVERY: u64 = 16;

/// How long a worker keeps dialing the coordinator. Its coordinator
/// binds the listener before spawning it, so the first dial normally
/// lands.
const CONNECT_WINDOW: Duration = Duration::from_secs(10);

/// Most trace events one `progress` heartbeat carries; the remainder
/// stays queued for later frames (and the `done` frame flushes the
/// queue), so heartbeats stay small no matter how chatty a lease is.
pub const TRACE_BATCH_EVENTS: usize = 2048;

/// Most trace events a `done` frame carries: one full trace ring. Events
/// still queued beyond it are shed into the batch's `dropped` count, which
/// keeps every frame under [`crate::protocol::MAX_FRAME_BYTES`].
pub const DONE_TRACE_EVENTS: usize = o4a_obs::trace::DEFAULT_RING_CAPACITY;

/// Deterministic die-mid-lease injection for the crash-recovery
/// gauntlet.
#[derive(Clone, Debug)]
pub struct CrashInjection {
    /// Crash while running this shard.
    pub shard: u32,
    /// ... after generating this many cases of it (mid-lease).
    pub after_cases: u64,
    /// Once-only latch: the crash fires only if atomically creating this
    /// file succeeds, so a campaign crashes exactly once no matter which
    /// worker (or respawn) reaches the shard first.
    pub token: PathBuf,
}

/// Worker-process configuration (everything the binary's command line
/// carries).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The findings journal this worker appends to. Unique per worker
    /// *process* — a respawned worker gets a fresh journal, so a crashed
    /// predecessor's torn tail can never sit in the middle of a live
    /// file.
    pub journal: PathBuf,
    /// Worker id, echoed in the `hello` frame.
    pub worker_id: u32,
    /// Cases between `progress` heartbeats.
    pub progress_every: u64,
    /// Optional die-mid-lease injection.
    pub crash: Option<CrashInjection>,
    /// Artificial per-case latency in milliseconds — the "slow machine"
    /// knob that keeps a lease running long enough to crash or observe
    /// mid-way. Pure wall-clock drag on the instrumentation wrapper: the
    /// engine's virtual time and RNG never see it, so a slow worker's
    /// shard results stay bit-identical to a fast worker's.
    pub slow_case_ms: u64,
}

impl WorkerConfig {
    /// A worker bound to `journal` with default heartbeat cadence and no
    /// fault injection.
    pub fn new(journal: impl Into<PathBuf>, worker_id: u32) -> WorkerConfig {
        WorkerConfig {
            journal: journal.into(),
            worker_id,
            progress_every: DEFAULT_PROGRESS_EVERY,
            crash: None,
            slow_case_ms: 0,
        }
    }
}

/// Wraps the shard's fuzzer to tap the case stream: heartbeats every
/// `every` cases, the optional crash injection, and the slow-machine
/// latency, all riding `next_case` so no engine code changes. The inner
/// fuzzer's RNG usage is untouched — instrumentation cannot perturb the
/// campaign.
struct Instrumented<'a, W: Write> {
    inner: &'a mut dyn Fuzzer,
    out: &'a mut W,
    shard: u32,
    cases: u64,
    every: u64,
    /// When the lease started, for the live cases/sec in heartbeats.
    /// Wall-clock flows *out* of the engine here, never back in.
    started: Instant,
    crash: Option<&'a CrashInjection>,
    slow_case_ms: u64,
    /// The lease asked for trace piggyback (fleet-merged tracing).
    trace: bool,
    /// Ring drainage waiting for frame space, owned by the lease server
    /// so nothing is lost between heartbeats or leases.
    trace_spill: &'a mut VecDeque<TraceEvent>,
    /// Ring-overflow drops not yet reported in a batch.
    trace_shed: &'a mut u64,
}

/// Throughput over the lease so far; zero before the clock has
/// measurably advanced.
fn rate(cases: u64, since: Instant) -> f64 {
    let secs = since.elapsed().as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        cases as f64 / secs
    }
}

/// The worker's cumulative metrics, attached to outbound frames only
/// when `O4A_METRICS` is on (frames stay small otherwise).
fn metrics_attachment() -> Option<MetricsSnapshot> {
    if o4a_obs::metrics_enabled() {
        Some(o4a_obs::metrics::snapshot())
    } else {
        None
    }
}

/// Cuts the next trace batch for an outbound frame: drains this
/// process's ring into `spill`, then takes up to `limit` events off the
/// front (drain order is the deterministic `(ts, tid)` order). Returns
/// `None` — and touches nothing — unless the lease asked for piggyback,
/// and `None` when there is nothing to report, so scope-off campaigns
/// keep the exact pre-scope wire bytes.
fn trace_attachment(
    requested: bool,
    spill: &mut VecDeque<TraceEvent>,
    shed: &mut u64,
    limit: usize,
) -> Option<TraceBatch> {
    if !requested {
        return None;
    }
    let (events, dropped) = o4a_obs::trace::drain_events();
    spill.extend(events);
    *shed += dropped;
    if spill.is_empty() && *shed == 0 {
        return None;
    }
    let take = spill.len().min(limit);
    Some(TraceBatch {
        pid: u64::from(std::process::id()),
        epoch_unix_micros: o4a_obs::trace::epoch_unix_micros(),
        dropped: std::mem::take(shed),
        events: spill.drain(..take).collect(),
    })
}

impl<W: Write> Fuzzer for Instrumented<'_, W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        self.inner.setup(rng)
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        if let Some(crash) = self.crash {
            if crash.shard == self.shard && self.cases == crash.after_cases && latch(crash) {
                // Die like a segfault: no unwinding, no flushes. Findings
                // journaled so far are already fsync'd; the in-flight
                // shard has no completion record and re-runs elsewhere.
                eprintln!(
                    "dist worker: injected crash mid-lease (shard {})",
                    self.shard
                );
                std::process::exit(9);
            }
        }
        if self.slow_case_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.slow_case_ms));
        }
        self.cases += 1;
        if self.cases.is_multiple_of(self.every) {
            // Heartbeat only; a failed write means the coordinator is
            // gone — the next read of the connection says so.
            // The lease's cache counters live in the shard stats, which
            // only exist once the lease completes — heartbeats carry the
            // zero pair (omitted on the wire), the `done` frame the real
            // one.
            let frame = Frame::Progress {
                shard: self.shard,
                cases: self.cases,
                cases_per_sec: rate(self.cases, self.started),
                metrics: metrics_attachment(),
                cache: CacheCounters::default(),
                trace: trace_attachment(
                    self.trace,
                    self.trace_spill,
                    self.trace_shed,
                    TRACE_BATCH_EVENTS,
                ),
            };
            let _ = writeln!(self.out, "{}", frame.to_line());
            let _ = self.out.flush();
        }
        self.inner.next_case(rng)
    }
}

/// Atomically claims the crash token; true when this process should die.
fn latch(crash: &CrashInjection) -> bool {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&crash.token)
        .is_ok()
}

/// The transport-agnostic lease engine: owns the journal session (one
/// per process) and the trace spill between frames.
struct LeaseServer<'f, F> {
    factory: &'f F,
    cfg: &'f WorkerConfig,
    store: FindingsStore,
    session: Option<(Json, StoreSession)>,
    /// Drained-but-unsent trace events (see [`trace_attachment`]).
    trace_spill: VecDeque<TraceEvent>,
    /// Ring drops not yet reported in a batch.
    trace_shed: u64,
}

impl<F> LeaseServer<'_, F>
where
    F: Fn(u32) -> Box<dyn Fuzzer>,
{
    /// Serves one lease to completion and returns its `done` frame; the
    /// caller owns sending it.
    ///
    /// # Errors
    ///
    /// Journal I/O errors and leases from a different campaign than this
    /// worker's journal.
    fn serve(
        &mut self,
        shard: u32,
        plan: &crate::protocol::CampaignPlan,
        trace_requested: bool,
        out: &mut impl Write,
    ) -> io::Result<Frame> {
        let plan_fingerprint = plan.to_json();
        let sink = match &self.session {
            Some((known, sink)) => {
                if *known != plan_fingerprint {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "lease belongs to a different campaign than this worker's journal",
                    ));
                }
                sink
            }
            None => {
                let (sink, _completed) = self.store.resume_or_create(&plan.config, plan.shards)?;
                &self.session.insert((plan_fingerprint, sink)).1
            }
        };

        // Transport knobs (inflight, external solver command) come from
        // this worker's environment — the overlap/pipe equivalence laws
        // guarantee they cannot change results, only throughput.
        let exec = ExecConfig {
            shards: plan.shards,
            ..ExecConfig::from_env()
        };
        let mut fuzzer = (self.factory)(shard);
        let started = Instant::now();
        let result = {
            let _span = o4a_obs::trace::span("dist", "lease.serve").arg("shard", u64::from(shard));
            let mut instrumented = Instrumented {
                inner: fuzzer.as_mut(),
                out,
                shard,
                cases: 0,
                every: self.cfg.progress_every.max(1),
                started,
                crash: self.cfg.crash.as_ref(),
                slow_case_ms: self.cfg.slow_case_ms,
                trace: trace_requested,
                trace_spill: &mut self.trace_spill,
                trace_shed: &mut self.trace_shed,
            };
            run_shard_lease(&mut instrumented, &plan.config, &exec, shard, Some(sink))
        };
        // `run_shard_lease` journaled `shard_done` (fsync'd) through the
        // sink before returning — only now may the coordinator learn the
        // lease is complete.
        // The done frame flushes the trace spill (the lease span just
        // closed, so its events are in the ring now), shedding whatever
        // exceeds `DONE_TRACE_EVENTS`, and carries the shard's final
        // per-solver coverage for the scope plane's live view. Both stay
        // off the wire unless the lease asked.
        let coverage: BTreeMap<String, f64> = if trace_requested {
            result
                .final_coverage
                .iter()
                .map(|(id, cov)| (id.name().to_string(), cov.line_pct))
                .collect()
        } else {
            BTreeMap::new()
        };
        Ok(Frame::Done {
            shard,
            cases: result.stats.cases,
            findings: result.findings.len() as u64,
            cases_per_sec: rate(result.stats.cases, started),
            metrics: metrics_attachment(),
            cache: CacheCounters {
                hits: result.stats.cache_hits,
                misses: result.stats.cache_misses,
            },
            trace: trace_attachment(
                trace_requested,
                &mut self.trace_spill,
                &mut self.trace_shed,
                DONE_TRACE_EVENTS,
            )
            .map(|mut batch| {
                batch.dropped += self.trace_spill.len() as u64;
                self.trace_spill.clear();
                batch
            }),
            coverage,
        })
    }
}

/// Runs the worker loop: connect to the coordinator at `addr`,
/// introduce this worker with `hello`, and serve leases. Returns `Ok`
/// when the coordinator says `goodbye`.
///
/// `factory(shard)` builds the fuzzer for each lease — it must be the
/// same factory every worker of the campaign uses, or shard results stop
/// being a pure function of the plan. The fleet secret comes from
/// [`FLEET_SECRET_ENV`].
///
/// # Errors
///
/// A coordinator that cannot be reached or closes the connection without
/// `goodbye`, protocol violations, and journal I/O errors.
pub fn run_worker<F>(factory: F, cfg: &WorkerConfig, addr: &str) -> io::Result<()>
where
    F: Fn(u32) -> Box<dyn Fuzzer>,
{
    // First-install-wins: a host that already installed an ObsConfig
    // programmatically (tests) keeps it; otherwise the worker's own
    // environment decides.
    o4a_obs::init_from_env();
    // Flushes this process's trace ring and metrics registry on every
    // return path — goodbye, lost coordinator, protocol error, or a
    // panicking lease. Only a hard crash (the injected `exit(9)`) loses
    // the ring, and that is best-effort by design.
    let _drain = o4a_obs::DrainGuard::new();
    let secret = std::env::var(FLEET_SECRET_ENV)
        .ok()
        .filter(|s| !s.is_empty());
    let mut server = LeaseServer {
        factory: &factory,
        cfg,
        store: FindingsStore::new(&cfg.journal),
        session: None,
        trace_spill: VecDeque::new(),
        trace_shed: 0,
    };
    let stream = connect_with_retry(addr, CONNECT_WINDOW)?;
    let mut out = stream.try_clone()?;
    let hello = Frame::Hello {
        worker: cfg.worker_id,
        journal: cfg.journal.display().to_string(),
        secret,
    };
    writeln!(out, "{}", hello.to_line())?;
    out.flush()?;
    o4a_obs::trace::event(
        "dist",
        "worker.connect",
        &[("worker", u64::from(cfg.worker_id))],
    );

    let mut reader = BufReader::new(stream);
    while let Some(line) = read_frame(&mut reader).map_err(rejected)? {
        if line.trim().is_empty() {
            continue;
        }
        match Frame::from_line(&line).map_err(rejected)? {
            Frame::Lease { shard, plan, trace } => {
                let done = server.serve(shard, &plan, trace, &mut out)?;
                writeln!(out, "{}", done.to_line())?;
                out.flush()?;
            }
            Frame::Goodbye { .. } => return Ok(()),
            _ => {
                return Err(rejected(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "worker expects only lease/goodbye frames from the coordinator",
                )));
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "the coordinator closed the connection without goodbye",
    ))
}

/// Reads one frame line from the coordinator, at most
/// [`MAX_FRAME_BYTES`] of it, so a peer cannot grow this buffer without
/// bound. `Ok(None)` is a lost connection: end of stream, a read error,
/// or a frame cut off mid-line by the coordinator dying.
///
/// # Errors
///
/// `InvalidData` for a frame over the cap or not UTF-8 — a malformed
/// frame.
fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let limit = MAX_FRAME_BYTES as u64 + 1;
    let terminated = match read_line(&mut Read::take(reader, limit), &mut buf, MAX_FRAME_BYTES) {
        Ok((0, _)) | Err(_) => return Ok(None),
        Ok((_, terminated)) => terminated,
    };
    if !terminated {
        if buf.len() <= MAX_FRAME_BYTES {
            return Ok(None);
        }
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("coordinator frame longer than {MAX_FRAME_BYTES} bytes"),
        ));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Counts a malformed coordinator frame in `dist.rejected_frames`, as
/// the coordinator counts a worker's.
fn rejected(e: io::Error) -> io::Error {
    if o4a_obs::metrics_enabled() {
        o4a_obs::metrics::counter("dist.rejected_frames").inc();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn frames_are_bounded_and_utf8() {
        let mut ok = Cursor::new(b"{\"t\":\"goodbye\"}\n{\"t\":\"le".to_vec());
        assert_eq!(
            read_frame(&mut ok).unwrap().as_deref(),
            Some("{\"t\":\"goodbye\"}")
        );
        assert_eq!(read_frame(&mut ok).unwrap(), None, "a cut frame is EOF");

        let mut latin1 = Cursor::new(b"{\"t\":\"caf\xe9\"}\n".to_vec());
        let err = read_frame(&mut latin1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The read stops one byte past the cap, whatever the peer sends.
        let mut flood = BufReader::new(io::repeat(b'x').take(MAX_FRAME_BYTES as u64 + 4096));
        let err = read_frame(&mut flood).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let unread = flood.buffer().len() as u64 + flood.get_ref().limit();
        assert_eq!(unread, 4095, "read past the cap");
    }

    /// A frame one byte over the cap is refused; a frame at the cap,
    /// read in socket-sized chunks, comes back in a buffer that never grew
    /// past one byte more than the cap.
    #[test]
    fn frame_buffer_grows_no_further_than_the_cap() {
        let frame = |len: usize| {
            let mut bytes = vec![b'x'; len];
            bytes.push(b'\n');
            BufReader::new(Cursor::new(bytes))
        };
        let err = read_frame(&mut frame(MAX_FRAME_BYTES + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let line = read_frame(&mut frame(MAX_FRAME_BYTES))
            .unwrap()
            .expect("a frame at the cap");
        assert_eq!(line.len(), MAX_FRAME_BYTES);
        assert!(
            line.capacity() <= MAX_FRAME_BYTES + 1,
            "capacity {} for a {MAX_FRAME_BYTES}-byte frame",
            line.capacity()
        );
    }

    /// A non-UTF-8 frame, or a connection closed right after `hello`
    /// with no `goodbye`, ends the worker with an error after its one
    /// connection: the fake coordinator says `goodbye` to a second
    /// connection, which must never come.
    #[test]
    fn malformed_frame_is_refused_not_reconnected() {
        let inputs: [(&[u8], io::ErrorKind); 2] = [
            (b"\xff\xfe\n", io::ErrorKind::InvalidData),
            (b"", io::ErrorKind::UnexpectedEof),
        ];
        for (first_reply, kind) in inputs {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let server = std::thread::spawn(move || {
                let mut hellos = 0;
                for stream in listener.incoming() {
                    let mut stream = stream.unwrap();
                    let mut hello = String::new();
                    if BufReader::new(&stream).read_line(&mut hello).is_err() || hello.is_empty() {
                        break; // the test's unblocking connect
                    }
                    hellos += 1;
                    let reply = if hellos == 1 {
                        first_reply.to_vec()
                    } else {
                        format!("{}\n", Frame::Goodbye { worker: 0 }.to_line()).into_bytes()
                    };
                    stream.write_all(&reply).unwrap();
                    // Dropping the stream closes the connection.
                }
                hellos
            });
            let journal = std::env::temp_dir()
                .join(format!("o4a-worker-malformed-{}.jsonl", std::process::id()));
            let factory = |_shard: u32| -> Box<dyn Fuzzer> { unreachable!("no lease is sent") };
            let result = run_worker(factory, &WorkerConfig::new(&journal, 0), &addr);
            drop(TcpStream::connect(&addr));
            assert_eq!(server.join().unwrap(), 1, "the worker reconnected");
            let err = result.expect_err("the worker must end with an error");
            assert_eq!(err.kind(), kind, "{err}");
            let _ = std::fs::remove_file(&journal);
        }
    }
}

//! The coordinator: owns the shard plan, spawns a fleet of workers that
//! connect back to its loopback TCP listener, hands them shard leases,
//! and merges the journals it assigned them.
//!
//! ## Lease scheduling
//!
//! Shards are **dynamic leases**, not a static split: the coordinator
//! keeps a queue of unassigned shards and grants the front of it to
//! whichever worker is idle. That is work stealing by construction —
//! a worker that finishes early immediately pulls the next shard, so
//! the long tail of a skewed plan spreads across the fleet instead of
//! serializing on one unlucky static assignment. Because a shard result
//! is a pure function of `(config, shards, shard)`
//! ([`o4a_exec::run_shard_lease`]), *which* worker runs a shard — and
//! how many times a lease bounces between dying workers — cannot show
//! up in the merged result.
//!
//! ## Failure handling
//!
//! Worker sockets ride the `poll(2)` reactor from `o4a-executor`, and
//! every outstanding lease carries a **deadline**: a worker that neither
//! heartbeats nor completes within [`DistConfig::heartbeat_timeout`] is
//! killed like a crashed one. Either way the lease goes back to the
//! front of the queue (a re-issue), the coordinator tops its fleet back
//! up to strength, and the dead worker's journal is kept for the final
//! merge — shards it *completed* are scavenged from it; the shard it
//! died inside has no completion record and is therefore re-derived
//! from scratch by the re-issued lease (`FindingsStore`'s dedup-on-load
//! law guarantees the half-journaled findings of the dead attempt cannot
//! leak in).
//!
//! ## Membership
//!
//! The coordinator spawns `<cmd> --connect <addr> --journal <path>
//! --worker <id>` children and keeps [`DistConfig::workers`] of them
//! alive (a child counts from its spawn; one that exits or stays silent
//! before its `hello` is killed at the heartbeat deadline and charged to
//! [`DistConfig::max_respawns`]). Each child gets a per-run secret in its
//! environment and must echo it in its `hello`, naming a child still
//! waiting to join; any other `hello` is answered with `goodbye`
//! (counted as `dist.rejected_hellos`). Nothing is granted before a
//! `hello`, and the journals merged at the end are the paths assigned at
//! spawn — never a path a peer announces.

use crate::protocol::{
    CacheCounters, CampaignPlan, Frame, TraceBatch, FLEET_SECRET_ENV, MAX_FRAME_BYTES,
};
use crate::scope::{ScopeServer, ScopeStatus, ScopeWorker};
use crate::transport::{Link, Listener};
use o4a_core::{CampaignConfig, CampaignResult};
use o4a_exec::{merge_shard_results, FindingsStore};
use o4a_executor::{FdReactor, Interest, WakeFlag};
use o4a_obs::metrics::MetricsSnapshot;
use o4a_obs::trace::{TraceEvent, TraceMeta};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::string::FromUtf8Error;
use std::time::{Duration, Instant};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Fleet configuration for one distributed campaign.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Fleet strength: how many worker processes the coordinator keeps
    /// running while unassigned work remains.
    pub workers: u32,
    /// The worker command line (program + args). The coordinator spawns
    /// its fleet from it, appending `--connect <addr> --journal <path>
    /// --worker <id>` to each spawn, so any binary honouring that
    /// contract (the reference one is
    /// `crates/bench/src/bin/dist_worker.rs`) can serve leases. Must not
    /// be empty.
    pub worker_command: Vec<String>,
    /// Directory for the workers' findings journals (`worker-<n>.jsonl`,
    /// one per process). Created if absent; should be fresh per
    /// campaign.
    pub journal_dir: PathBuf,
    /// A leased worker that neither heartbeats nor completes within this
    /// window is presumed wedged: killed, lease re-issued. Must comfortably
    /// exceed the worker's heartbeat cadence (a `progress` frame every
    /// [`crate::worker::DEFAULT_PROGRESS_EVERY`] cases). Doubles as the
    /// patience for a connection or spawned child that never says
    /// `hello`.
    pub heartbeat_timeout: Duration,
    /// Replacement-spawn budget past the initial fleet. When worker
    /// deaths exhaust it with shards still unfinished, the campaign
    /// fails instead of thrashing forever.
    pub max_respawns: u32,
    /// Extra environment variables for every spawned worker (e.g.
    /// `O4A_TRACE`/`O4A_METRICS` to turn observability on fleet-wide
    /// without mutating the coordinator's own environment).
    pub envs: Vec<(String, String)>,
    /// The listen address the workers connect to (`host:port`; the
    /// default `127.0.0.1:0` picks a free loopback port).
    pub listen: String,
    /// `host:port` for the o4a-scope observatory ([`crate::scope`]):
    /// `GET /status` and `GET /metrics` served off the coordinator's own
    /// reactor. `None` (default) runs dark — no listener, no extra
    /// wakeups. Read-only either way: the scope-on ≡ scope-off gauntlet
    /// pins that watching a campaign cannot change its merged result.
    pub scope: Option<String>,
}

impl DistConfig {
    /// A fleet of 4 workers running `worker_command`, listening on
    /// `127.0.0.1:0`, journaling under `journal_dir`, with a 30 s
    /// heartbeat deadline and 8 respawns.
    pub fn new(worker_command: Vec<String>, journal_dir: impl Into<PathBuf>) -> DistConfig {
        DistConfig {
            workers: 4,
            worker_command,
            journal_dir: journal_dir.into(),
            heartbeat_timeout: Duration::from_secs(30),
            max_respawns: 8,
            envs: Vec::new(),
            listen: "127.0.0.1:0".to_string(),
            scope: None,
        }
    }

    /// Replaces the fleet strength.
    pub fn with_workers(mut self, workers: u32) -> DistConfig {
        self.workers = workers;
        self
    }

    /// Replaces the heartbeat deadline.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> DistConfig {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Replaces the respawn budget.
    pub fn with_max_respawns(mut self, max_respawns: u32) -> DistConfig {
        self.max_respawns = max_respawns;
        self
    }

    /// Adds an environment variable to every worker spawn.
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> DistConfig {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Replaces the listen address (`host:port`; port 0 picks a free
    /// one).
    pub fn with_listen(mut self, listen: impl Into<String>) -> DistConfig {
        self.listen = listen.into();
        self
    }

    /// Opens the o4a-scope observatory at `addr` (see
    /// [`DistConfig::scope`]; port 0 picks a free one).
    pub fn with_scope(mut self, addr: impl Into<String>) -> DistConfig {
        self.scope = Some(addr.into());
        self
    }

    /// Applies the coordinator environment knobs, tolerantly — unset or
    /// unparsable values leave the current setting untouched, matching
    /// [`o4a_exec::ExecConfig::from_env`]:
    ///
    /// * `O4A_DIST_WORKERS` — fleet strength (≥ 1)
    /// * `O4A_DIST_HEARTBEAT_MS` — heartbeat deadline, milliseconds (≥ 1)
    /// * `O4A_DIST_MAX_RESPAWNS` — respawn budget
    /// * `O4A_DIST_LISTEN` — the listen address
    /// * `O4A_SCOPE` — serve the o4a-scope observatory on this
    ///   `host:port`
    pub fn with_env_overrides(mut self) -> DistConfig {
        if let Some(workers) = parse_env_u64("O4A_DIST_WORKERS") {
            if workers >= 1 {
                self.workers = workers.min(u32::MAX as u64) as u32;
            }
        }
        if let Some(ms) = parse_env_u64("O4A_DIST_HEARTBEAT_MS") {
            if ms >= 1 {
                self.heartbeat_timeout = Duration::from_millis(ms);
            }
        }
        if let Some(respawns) = parse_env_u64("O4A_DIST_MAX_RESPAWNS") {
            self.max_respawns = respawns.min(u32::MAX as u64) as u32;
        }
        if let Ok(listen) = std::env::var("O4A_DIST_LISTEN") {
            if !listen.trim().is_empty() {
                self.listen = listen.trim().to_string();
            }
        }
        if let Ok(addr) = std::env::var("O4A_SCOPE") {
            if !addr.trim().is_empty() {
                self.scope = Some(addr.trim().to_string());
            }
        }
        self
    }
}

/// `Some(n)` only for a set, non-empty, parsable value.
fn parse_env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// What one worker process did, for the fleet summary.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Spawn-sequence id of the worker (also its journal file's number).
    pub worker: u32,
    /// The findings journal assigned to the worker at spawn.
    pub journal: PathBuf,
    /// Leases this worker ran to completion.
    pub leases_completed: u32,
    /// Cases executed across its completed leases.
    pub cases: u64,
    /// Wall-clock lifetime of the process, from its spawn.
    pub wall: Duration,
    /// False when the worker died (or was killed as wedged) instead of
    /// exiting on shutdown.
    pub clean_exit: bool,
    /// Last in-flight throughput the worker reported (cases/sec from
    /// its latest `progress` or `done` frame; 0 before the first one).
    pub last_cases_per_sec: f64,
    /// The worker's latest cumulative metrics snapshot, present only
    /// when the worker ran with `O4A_METRICS` on.
    pub metrics: Option<MetricsSnapshot>,
}

impl WorkerSummary {
    /// Completed-lease throughput in cases per wall-clock second.
    pub fn cases_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cases as f64 / secs
        }
    }
}

/// Coordinator-level counters for one distributed campaign — the lease
/// churn the merged [`o4a_core::CampaignStats`] also carries (as
/// transport counters) plus the per-worker breakdown the bench summary
/// renders.
#[derive(Clone, Debug, Default)]
pub struct DistStats {
    /// Shards in the campaign plan.
    pub shards: u32,
    /// Configured fleet strength.
    pub workers: u32,
    /// Worker processes spawned (initial fleet + replacements).
    pub workers_spawned: u32,
    /// Workers that died or were killed as wedged.
    pub worker_deaths: u32,
    /// Lease frames sent (re-issues included).
    pub leases_granted: u64,
    /// Leases re-issued after their holder died.
    pub leases_reissued: u64,
    /// Per-worker summaries, in worker-id order.
    pub per_worker: Vec<WorkerSummary>,
    /// Fleet-wide metrics: every worker's final snapshot merged
    /// (snapshots are cumulative per process, so summing one per
    /// process is lossless). Empty unless workers ran with
    /// `O4A_METRICS` on.
    pub fleet_metrics: MetricsSnapshot,
    /// Fleet-wide verdict-cache counters, summed off completed leases'
    /// `done` frames. Informational (the merged
    /// [`o4a_core::CampaignStats`] carries the same pair, reconstructed
    /// from the journals); zero when the `O4A_CACHE` knob is off in the
    /// workers.
    pub cache: CacheCounters,
    /// Running per-solver line-coverage maxima (percent) off completed
    /// leases' `done` frames — the scope plane's live coverage view.
    /// Empty unless fleet tracing was on (the coordinator ran with
    /// `O4A_TRACE`).
    pub coverage: BTreeMap<String, f64>,
    /// The fleet-merged Chrome trace (one file, one lane per worker
    /// process, coordinator included), written into the journal dir at
    /// campaign end. `None` unless fleet tracing was on.
    pub fleet_trace: Option<PathBuf>,
}

/// A finished distributed campaign: the merged result (bit-identical to
/// a single-process [`o4a_exec::run_campaign_sharded`] of the same plan,
/// modulo transport counters) plus the fleet statistics.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// The merged campaign result.
    pub result: CampaignResult,
    /// Fleet and lease statistics.
    pub stats: DistStats,
}

/// One live connection: a worker-to-be until its `hello`, then a fleet
/// member backed by the child process it proved to be.
struct Worker {
    id: u32,
    /// The connection's number, in accept order: what the log calls a
    /// peer that has not said `hello`.
    conn: u64,
    /// The spawned process behind this connection, claimed by an
    /// accepted `hello`; `None` before it — nothing is granted until then.
    child: Option<Child>,
    link: Link,
    buf: Vec<u8>,
    /// The journal assigned to the child at spawn.
    journal: PathBuf,
    lease: Option<u32>,
    /// Cases executed across *completed* leases (what the summary
    /// reports); heartbeat progress of the in-flight lease accumulates
    /// in `lease_cases` and is folded in — once — by the `done` frame.
    cases: u64,
    lease_cases: u64,
    leases_completed: u32,
    /// Latest reported throughput / metrics snapshot (observability
    /// passthrough; the coordinator never schedules on either).
    live_rate: f64,
    latest_metrics: Option<MetricsSnapshot>,
    last_heard: Instant,
    spawned_at: Instant,
    eof: bool,
}

impl Worker {
    /// A freshly accepted connection.
    fn accepted(link: Link, conn: u64) -> Worker {
        let now = Instant::now();
        Worker {
            id: u32::MAX,
            conn,
            child: None,
            link,
            buf: Vec::new(),
            journal: PathBuf::new(),
            lease: None,
            cases: 0,
            lease_cases: 0,
            leases_completed: 0,
            live_rate: 0.0,
            latest_metrics: None,
            last_heard: now,
            spawned_at: now,
            eof: false,
        }
    }

    /// Said an accepted `hello`: a fleet member.
    fn greeted(&self) -> bool {
        self.child.is_some()
    }

    /// How the log names this peer.
    fn label(&self) -> String {
        peer_label(self.greeted().then_some(self.id), self.conn)
    }

    fn fd(&self) -> std::os::unix::io::RawFd {
        self.link.read_fd()
    }

    fn send_lease(&mut self, shard: u32, plan: &CampaignPlan, trace: bool) -> io::Result<()> {
        let frame = Frame::Lease {
            shard,
            plan: plan.clone(),
            trace,
        };
        self.link.send_line(&frame.to_line())
    }

    fn into_summary(mut self, clean_exit: bool) -> WorkerSummary {
        // Reap unconditionally; kill first so a child that stopped
        // talking but kept running cannot block the coordinator.
        if let Some(child) = self.child.as_mut() {
            if !clean_exit {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        WorkerSummary {
            worker: self.id,
            journal: self.journal,
            leases_completed: self.leases_completed,
            cases: self.cases,
            wall: self.spawned_at.elapsed(),
            clean_exit,
            last_cases_per_sec: self.live_rate,
            metrics: self.latest_metrics,
        }
    }
}

/// A spawned worker process that has not said `hello` yet: it holds a
/// place in the fleet but has no connection.
struct Spawned {
    id: u32,
    child: Child,
    journal: PathBuf,
    at: Instant,
}

impl Spawned {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The journal the coordinator assigns to worker `id`.
fn journal_path(dist: &DistConfig, id: u32) -> PathBuf {
    dist.journal_dir.join(format!("worker-{id}.jsonl"))
}

/// Spawns worker `id` against the coordinator's listener at `addr`,
/// handing it `secret` through its environment.
fn spawn_worker(dist: &DistConfig, id: u32, addr: &str, secret: &str) -> io::Result<Spawned> {
    let journal = journal_path(dist, id);
    // The coordinator owns the journal dir: a stale file under an
    // assigned name would resume a previous campaign (or refuse a
    // different one), so clear it.
    let _ = std::fs::remove_file(&journal);
    let (program, args) = dist.worker_command.split_first().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "empty worker command: the coordinator spawns every worker",
        )
    })?;
    let child = Command::new(program)
        .args(args)
        .arg("--connect")
        .arg(addr)
        .arg("--journal")
        .arg(&journal)
        .arg("--worker")
        .arg(id.to_string())
        .envs(dist.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .env(FLEET_SECRET_ENV, secret)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    o4a_obs::trace::event("dist", "worker.spawn", &[("worker", u64::from(id))]);
    Ok(Spawned {
        id,
        child,
        journal,
        at: Instant::now(),
    })
}

/// Mints the per-run fleet secret: 128 bits from the kernel's CSPRNG,
/// hex-encoded.
fn mint_secret() -> io::Result<String> {
    let mut bytes = [0u8; 16];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut bytes)?;
    Ok(bytes.iter().map(|b| format!("{b:02x}")).collect())
}

/// How a peer's stream stood after [`drain_frames`].
#[derive(Debug, PartialEq, Eq)]
enum Drained {
    /// Still connected; any torn frame tail stays buffered.
    Open,
    /// End of stream: the peer closed or died, or its connection failed
    /// (a reset). Frames read before the failure are still returned.
    Closed,
    /// The peer's unterminated frame outgrew [`MAX_FRAME_BYTES`]; its
    /// buffer has been freed.
    Oversized,
}

/// One frame line off the wire; `Err` for a line that is not UTF-8 — a
/// malformed frame.
type FrameLine = Result<String, FromUtf8Error>;

/// Reads what a peer has sent and pops its complete frame lines. Reading
/// stops once `buf` holds one byte more than [`MAX_FRAME_BYTES`], so a
/// peer flooding bytes cannot grow it further before its frames are split
/// off and its torn tail is checked against the cap.
///
/// A read error loses this one peer, never the campaign: a worker that
/// sends its last frames and exits with a lease still unread resets its
/// connection, and those frames must still count.
fn drain_frames(link: &mut Link, buf: &mut Vec<u8>) -> (Vec<FrameLine>, Drained) {
    let mut drained = Drained::Open;
    loop {
        let room = (MAX_FRAME_BYTES + 1).saturating_sub(buf.len());
        if room == 0 {
            break;
        }
        match link.read_available(buf, room) {
            Ok(Some(0)) | Err(_) => {
                drained = Drained::Closed;
                break;
            }
            Ok(Some(_)) => continue,
            Ok(None) => break,
        }
    }
    let lines = take_lines(buf);
    if buf.len() > MAX_FRAME_BYTES {
        *buf = Vec::new();
        drained = Drained::Oversized;
    }
    (lines, drained)
}

/// Pops complete lines off the front of `buf`, leaving a partial
/// trailing line in place. One pass over the complete lines and a single
/// `drain`, so a burst of frames costs linear time. A line that is not
/// UTF-8 comes out as `Err`, never repaired into a frame that parses.
fn take_lines(buf: &mut Vec<u8>) -> Vec<FrameLine> {
    let Some(last) = buf.iter().rposition(|&b| b == b'\n') else {
        return Vec::new();
    };
    let lines = buf[..last]
        .split(|&b| b == b'\n')
        .map(|line| String::from_utf8(line.to_vec()))
        .collect();
    buf.drain(..=last);
    lines
}

/// Everything the fleet loop tracks besides the live connections, kept
/// outside the loop so an error path can still retire the fleet.
struct FleetState {
    pending: VecDeque<u32>,
    done: BTreeSet<u32>,
    /// The secret a `hello` must echo.
    secret: String,
    /// Spawned children that have not said `hello` yet.
    unjoined: Vec<Spawned>,
    /// Connections accepted so far.
    connections: u64,
}

/// A peer's name in the log: its worker id once its `hello` was
/// accepted, else its connection number.
fn peer_label(worker: Option<u32>, conn: u64) -> String {
    match worker {
        Some(id) => format!("worker {id}"),
        None => format!("connection {conn} (no hello yet)"),
    }
}

/// One worker process's accumulated trace-ring batches, keyed by pid in
/// [`ScopeCtx::parts`] — becomes one lane of the fleet-merged Chrome
/// trace.
#[derive(Default)]
struct TracePart {
    epoch_unix_micros: u64,
    dropped: u64,
    events: Vec<TraceEvent>,
}

/// Everything the scope plane adds to the lease loop: the optional
/// HTTP server, the fleet-trace piggyback switch, and the per-pid trace
/// accumulation. All observation — nothing in here feeds scheduling.
struct ScopeCtx {
    server: Option<ScopeServer>,
    /// Leases ask workers to piggyback their trace rings (set when the
    /// coordinator itself runs with tracing on).
    trace: bool,
    parts: BTreeMap<u64, TracePart>,
    started: Instant,
}

impl ScopeCtx {
    /// Folds one piggybacked batch into its process's lane.
    fn absorb(&mut self, batch: Option<TraceBatch>) {
        let Some(batch) = batch else { return };
        let part = self.parts.entry(batch.pid).or_default();
        part.epoch_unix_micros = batch.epoch_unix_micros;
        part.dropped += batch.dropped;
        part.events.extend(batch.events);
    }
}

/// Renders the `GET /status` snapshot from the loop's live state.
fn build_status(
    stats: &DistStats,
    live: &[Worker],
    state: &FleetState,
    started: Instant,
) -> ScopeStatus {
    let now = Instant::now();
    let mut fleet: Vec<ScopeWorker> = live
        .iter()
        .filter(|w| w.greeted())
        .map(|w| ScopeWorker {
            worker: w.id,
            lease: w.lease,
            cases: w.cases,
            lease_cases: w.lease_cases,
            leases_completed: w.leases_completed,
            cases_per_sec: w.live_rate,
            last_heard_ms: now.duration_since(w.last_heard).as_millis() as u64,
            wall_ms: now.duration_since(w.spawned_at).as_millis() as u64,
        })
        .collect();
    fleet.sort_by_key(|w| w.worker);
    ScopeStatus {
        shards: stats.shards,
        workers: stats.workers,
        shards_done: state.done.len() as u32,
        shards_pending: state.pending.len() as u32,
        workers_spawned: stats.workers_spawned,
        worker_deaths: stats.worker_deaths,
        leases_granted: stats.leases_granted,
        leases_reissued: stats.leases_reissued,
        cache: stats.cache,
        coverage: stats.coverage.clone(),
        fleet,
        elapsed_ms: started.elapsed().as_millis() as u64,
    }
}

/// Renders the `GET /metrics` Prometheus text: the coordinator's own
/// snapshot merged with every worker's latest, plus fleet gauges that
/// are present even when `O4A_METRICS` is off everywhere (so the
/// endpoint is never empty).
fn build_metrics(stats: &DistStats, live: &[Worker], state: &FleetState) -> String {
    let mut merged = o4a_obs::metrics::snapshot();
    for summary in &stats.per_worker {
        if let Some(metrics) = &summary.metrics {
            merged.merge(metrics);
        }
    }
    for worker in live {
        if let Some(metrics) = &worker.latest_metrics {
            merged.merge(metrics);
        }
    }
    let mut gauges: Vec<(String, f64)> = vec![
        (
            "fleet_workers_live".into(),
            live.iter().filter(|w| w.greeted() && !w.eof).count() as f64,
        ),
        ("fleet_shards_total".into(), f64::from(stats.shards)),
        ("fleet_shards_done".into(), state.done.len() as f64),
        ("fleet_shards_pending".into(), state.pending.len() as f64),
        ("fleet_leases_granted".into(), stats.leases_granted as f64),
        ("fleet_leases_reissued".into(), stats.leases_reissued as f64),
        ("fleet_worker_deaths".into(), f64::from(stats.worker_deaths)),
    ];
    for (solver, pct) in &stats.coverage {
        gauges.push((format!("coverage_line_pct_{solver}"), *pct));
    }
    o4a_obs::serve::render_prometheus(&merged, &gauges)
}

/// Runs `config`, split into `shards` deterministic shards, across a
/// spawned fleet of workers, and merges their journals into one campaign
/// result.
///
/// The merged result is **bit-identical** to the same plan executed by
/// a single process ([`o4a_exec::run_campaign_sharded`] with
/// `exec.shards = shards`) in findings, final coverage maps, hourly
/// snapshot series, and statistics modulo the transport counters —
/// regardless of fleet size, lease scheduling, or workers dying
/// mid-campaign (their leases re-issue and re-derive the shard
/// deterministically). The coordinator folds its own fleet churn into
/// the merged stats' transport counters: worker processes into
/// `processes_spawned`/`process_respawns`, lease churn into
/// `leases_granted`/`leases_reissued`.
///
/// # Errors
///
/// `InvalidInput` for an empty [`DistConfig::worker_command`]; listener,
/// worker-spawn and journal I/O errors; and a fleet that keeps dying
/// until [`DistConfig::max_respawns`] is exhausted.
pub fn run_distributed(
    config: &CampaignConfig,
    shards: u32,
    dist: &DistConfig,
) -> io::Result<DistReport> {
    assert!(shards >= 1, "a campaign needs at least one shard");
    assert!(dist.workers >= 1, "a fleet needs at least one worker");
    o4a_obs::init_from_env();
    std::fs::create_dir_all(&dist.journal_dir)?;

    let plan = CampaignPlan {
        config: config.clone(),
        shards,
    };
    let mut stats = DistStats {
        shards,
        workers: dist.workers,
        ..DistStats::default()
    };
    let mut state = FleetState {
        pending: (0..shards).collect(),
        done: BTreeSet::new(),
        secret: mint_secret()?,
        unjoined: Vec::new(),
        connections: 0,
    };

    let listener = Listener::bind(&dist.listen)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot listen on {}: {e}", dist.listen)))?;

    // The scope plane: bound before the first lease so an observer can
    // watch the whole campaign. Failing to bind *is* an error (the user
    // asked for an observatory at a specific address); everything after
    // the bind is best-effort.
    let scope_server = match &dist.scope {
        None => None,
        Some(addr) => {
            let server = ScopeServer::bind(addr).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot open scope plane on {addr}: {e}"))
            })?;
            eprintln!(
                "o4a-scope: observatory on http://{}/status",
                server.local_addr()
            );
            Some(server)
        }
    };
    let mut scope_ctx = ScopeCtx {
        server: scope_server,
        trace: o4a_obs::trace_enabled(),
        parts: BTreeMap::new(),
        started: Instant::now(),
    };

    let mut live: Vec<Worker> = Vec::new();
    if let Err(e) = drive_fleet(
        dist,
        &plan,
        &mut stats,
        &mut live,
        &mut state,
        &listener,
        &mut scope_ctx,
    ) {
        // No worker process outlives the campaign: kill and reap the
        // fleet before surfacing the error.
        for mut spawned in state.unjoined.drain(..) {
            spawned.kill();
        }
        for worker in live.drain(..) {
            if worker.greeted() {
                stats.per_worker.push(worker.into_summary(false));
            }
        }
        return Err(e);
    }

    // Shutdown: an explicit goodbye to every member, so it exits knowing
    // the campaign is over. A child still starting up has nothing to say
    // goodbye to, and a connection that never introduced itself is just
    // closed.
    for mut spawned in state.unjoined.drain(..) {
        spawned.kill();
    }
    for mut worker in live.into_iter().filter(Worker::greeted) {
        let farewell = Frame::Goodbye { worker: worker.id };
        let deadline = Instant::now() + Duration::from_secs(10);
        let clean = worker.link.send_line(&farewell.to_line()).is_ok()
            && worker
                .child
                .as_mut()
                .is_some_and(|child| exits_by(child, deadline));
        stats.per_worker.push(worker.into_summary(clean));
    }
    stats.per_worker.sort_by_key(|w| w.worker);
    for summary in &stats.per_worker {
        if let Some(metrics) = &summary.metrics {
            stats.fleet_metrics.merge(metrics);
        }
    }

    // Merge the journal of every worker ever spawned — completed shards
    // of dead workers are scavenged, their half-run shard re-derived by
    // the re-issued lease.
    let journals: Vec<PathBuf> = (0..stats.workers_spawned)
        .map(|id| journal_path(dist, id))
        .collect();
    let completed = FindingsStore::merge_from(config, shards, &journals)?;
    for shard in 0..shards {
        if !completed.contains_key(&shard) {
            return Err(bad(format!(
                "shard {shard} reported done but is missing from the merged journals"
            )));
        }
    }
    let ordered: Vec<CampaignResult> = completed.into_values().collect();
    let mut result = merge_shard_results(config, &ordered);
    result.stats.processes_spawned += stats.workers_spawned as u64;
    result.stats.process_respawns += stats.worker_deaths as u64;
    result.stats.leases_granted += stats.leases_granted;
    result.stats.leases_reissued += stats.leases_reissued;
    // Fleet-merged tracing: the piggybacked worker rings plus the
    // coordinator's own become one Chrome trace with a lane per
    // process. The coordinator's ring is folded in here, so its events
    // land on the shared timeline instead of a separate file.
    if scope_ctx.trace {
        let (events, dropped) = o4a_obs::trace::drain_events();
        if !events.is_empty() || dropped > 0 {
            let own = scope_ctx
                .parts
                .entry(u64::from(std::process::id()))
                .or_default();
            own.epoch_unix_micros = o4a_obs::trace::epoch_unix_micros();
            own.dropped += dropped;
            own.events.extend(events);
        }
        let parts: Vec<(TraceMeta, Vec<TraceEvent>)> = std::mem::take(&mut scope_ctx.parts)
            .into_iter()
            .map(|(pid, part)| {
                (
                    TraceMeta {
                        pid,
                        epoch_unix_micros: part.epoch_unix_micros,
                        events: part.events.len() as u64,
                        dropped: part.dropped,
                    },
                    part.events,
                )
            })
            .collect();
        if !parts.is_empty() {
            match o4a_obs::trace::export_chrome_trace_parts(&parts) {
                Ok(body) => {
                    let path = dist.journal_dir.join("fleet-trace.json");
                    match std::fs::write(&path, body) {
                        Ok(()) => stats.fleet_trace = Some(path),
                        Err(e) => eprintln!("o4a-scope: cannot write fleet trace: {e}"),
                    }
                }
                Err(e) => eprintln!("o4a-scope: fleet trace export failed: {e}"),
            }
        }
    }
    // The coordinator's own trace/metrics (lease lifecycle, spawns) go
    // to its configured obs dir; workers drained their own before the
    // clean exit above. Best-effort, like every obs path.
    if let Err(e) = o4a_obs::drain() {
        eprintln!("o4a-obs: coordinator drain failed: {e}");
    }
    Ok(DistReport { result, stats })
}

/// Counts one worker death — `wedged` for a worker killed at its
/// deadline — in the stats, the trace and the metrics.
fn note_death(stats: &mut DistStats, worker: u32, wedged: bool) {
    stats.worker_deaths += 1;
    let name = if wedged {
        "worker.wedged"
    } else {
        "worker.death"
    };
    o4a_obs::trace::event("dist", name, &[("worker", u64::from(worker))]);
    if o4a_obs::metrics_enabled() {
        o4a_obs::metrics::counter("dist.worker_deaths").inc();
    }
}

/// Waits until `deadline` for `child` to exit; true for a successful
/// exit.
fn exits_by(child: &mut Child, deadline: Instant) -> bool {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Err(_) => return false,
            Ok(None) if Instant::now() >= deadline => return false,
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The longest the loop sleeps with no frame arriving, so what no frame
/// announces — a child exiting before its `hello`, a lease send that
/// failed — is handled promptly rather than at the next deadline.
const TICK: Duration = Duration::from_millis(250);

/// The lease loop: runs until every shard is done, or errors with the
/// fleet in whatever state it reached — the caller owns `live` and
/// `state.unjoined` and must retire (kill + reap) whatever is left on
/// either path.
fn drive_fleet(
    dist: &DistConfig,
    plan: &CampaignPlan,
    stats: &mut DistStats,
    live: &mut Vec<Worker>,
    state: &mut FleetState,
    listener: &Listener,
    scope: &mut ScopeCtx,
) -> io::Result<()> {
    let reactor = FdReactor::new();
    let waker = WakeFlag::new().waker();
    let shards = plan.shards;

    loop {
        // Retire the dead and wedged workers (no frame within the
        // deadline while holding a lease), re-queueing their leases.
        // Connections that never said hello within the same deadline are
        // dropped without ceremony.
        let now = Instant::now();
        let mut i = 0;
        while i < live.len() {
            let stale = now.duration_since(live[i].last_heard) > dist.heartbeat_timeout;
            let dead = live[i].eof;
            let wedged = live[i].lease.is_some() && stale;
            let ghost = !live[i].greeted() && stale;
            if !(dead || wedged || ghost) {
                i += 1;
                continue;
            }
            let mut worker = live.swap_remove(i);
            if !worker.greeted() {
                // Never joined: nothing to re-queue, nothing to report.
                continue;
            }
            if wedged && !dead {
                // The wedge-kill is the one retirement an operator will
                // want to post-mortem: enumerate what the coordinator
                // knew when it pulled the trigger.
                eprintln!(
                    "o4a-dist: killing wedged worker {}: {:.1}s since last frame \
                     (deadline {:.1}s), holding shard {}, {} cases into the lease, \
                     last rate {:.1} cases/sec",
                    worker.id,
                    now.duration_since(worker.last_heard).as_secs_f64(),
                    dist.heartbeat_timeout.as_secs_f64(),
                    worker.lease.map_or(-1_i64, i64::from),
                    worker.lease_cases,
                    worker.live_rate,
                );
            }
            note_death(stats, worker.id, !dead);
            if let Some(shard) = worker.lease.take() {
                state.pending.push_front(shard);
                stats.leases_reissued += 1;
                o4a_obs::trace::event(
                    "dist",
                    "lease.reissue",
                    &[
                        ("shard", u64::from(shard)),
                        ("worker", u64::from(worker.id)),
                    ],
                );
                if o4a_obs::metrics_enabled() {
                    o4a_obs::metrics::counter("dist.leases_reissued").inc();
                }
            }
            stats.per_worker.push(worker.into_summary(false));
        }

        // Spawned children that exited, or stayed silent past the
        // deadline, before their hello: killed and counted as deaths, so
        // their replacements are charged to the respawn budget.
        state.unjoined.retain_mut(|child| {
            let exited = !matches!(child.child.try_wait(), Ok(None));
            if !exited && now.duration_since(child.at) <= dist.heartbeat_timeout {
                return true;
            }
            eprintln!(
                "o4a-dist: worker {} {} before its hello",
                child.id,
                if exited { "exited" } else { "stayed silent" }
            );
            note_death(stats, child.id, false);
            child.kill();
            false
        });

        if state.done.len() == shards as usize {
            return Ok(());
        }

        // Top the fleet back up while unassigned work remains. Children
        // count from their spawn, joined or not.
        loop {
            let joined = live.iter().filter(|w| w.greeted());
            let idle = joined.clone().filter(|w| w.lease.is_none()).count();
            let strength = joined.count() + state.unjoined.len();
            if idle + state.unjoined.len() >= state.pending.len()
                || strength >= dist.workers as usize
            {
                break;
            }
            if stats.workers_spawned >= dist.workers + dist.max_respawns {
                return Err(io::Error::other(format!(
                    "worker fleet keeps dying: {} spawns exhausted with {} of {} shards unfinished",
                    stats.workers_spawned,
                    shards as usize - state.done.len(),
                    shards
                )));
            }
            let child = spawn_worker(
                dist,
                stats.workers_spawned,
                listener.local_addr(),
                &state.secret,
            )?;
            stats.workers_spawned += 1;
            state.unjoined.push(child);
        }

        // Grant: idle workers pull the queue front (work stealing).
        for worker in live.iter_mut() {
            if worker.lease.is_some() || worker.eof || !worker.greeted() {
                continue;
            }
            let Some(&shard) = state.pending.front() else {
                break;
            };
            match worker.send_lease(shard, plan, scope.trace) {
                Ok(()) => {
                    state.pending.pop_front();
                    worker.lease = Some(shard);
                    worker.last_heard = Instant::now();
                    stats.leases_granted += 1;
                    o4a_obs::trace::event(
                        "dist",
                        "lease.grant",
                        &[
                            ("shard", u64::from(shard)),
                            ("worker", u64::from(worker.id)),
                        ],
                    );
                    if o4a_obs::metrics_enabled() {
                        o4a_obs::metrics::counter("dist.leases_granted").inc();
                    }
                }
                // A broken pipe is a death notice; the retire pass picks
                // the worker up next iteration and the shard stays queued.
                Err(_) => worker.eof = true,
            }
        }

        // Wait for frames: every worker socket rides the poll(2) reactor —
        // leased workers with their heartbeat deadline attached, pre-hello
        // connections with their cull deadline — and so does the accept
        // socket (whose POLLIN means a child is connecting), with a short
        // tick that also covers the deadlines of children still starting
        // up, so the bookkeeping above stays fresh.
        let mut tokens = Vec::with_capacity(live.len() + 1);
        for worker in live.iter().filter(|w| !w.eof) {
            let deadline = (worker.lease.is_some() || !worker.greeted())
                .then(|| worker.last_heard + dist.heartbeat_timeout);
            tokens.push(reactor.register(worker.fd(), Interest::Read, waker.clone(), deadline));
        }
        let tick = state
            .unjoined
            .iter()
            .map(|child| child.at + dist.heartbeat_timeout)
            .fold(Instant::now() + TICK, Instant::min);
        tokens.push(reactor.register(listener.fd(), Interest::Read, waker.clone(), Some(tick)));
        // The scope plane rides the same poll: its listener and clients
        // with their read/write readiness.
        if let Some(server) = scope.server.as_ref() {
            server.register(&reactor, &waker, &mut tokens);
        }
        reactor.poll_io(None)?;
        for token in tokens {
            reactor.deregister(token);
        }

        // Accept connecting children (every queued connect, not just one
        // per wake).
        while let Some(stream) = listener.accept()? {
            // A connection dead between accept and fcntl is dropped; its
            // child dies or stays silent and is culled above.
            state.connections += 1;
            if let Ok(link) = Link::new(stream) {
                live.push(Worker::accepted(link, state.connections));
            }
        }

        // Answer whatever the observatory's clients asked: read-only over
        // the campaign state, and the payload closures run at most once
        // per pass — only when a matching request actually arrived.
        if let Some(server) = scope.server.as_mut() {
            let started = scope.started;
            server.service(
                || {
                    build_status(stats, live, state, started)
                        .to_json()
                        .to_line()
                },
                || build_metrics(stats, live, state),
            );
        }

        // Drain and handle frames.
        for worker in live.iter_mut() {
            if worker.eof {
                continue;
            }
            let (lines, drained) = drain_frames(&mut worker.link, &mut worker.buf);
            match drained {
                Drained::Open => {}
                Drained::Closed => worker.eof = true,
                Drained::Oversized => {
                    // Past any legitimate frame: drop the peer through the
                    // death path, which re-issues its lease.
                    eprintln!(
                        "o4a-dist: dropping {}: frame longer than {MAX_FRAME_BYTES} bytes",
                        worker.label()
                    );
                    if o4a_obs::metrics_enabled() {
                        o4a_obs::metrics::counter("dist.rejected_frames").inc();
                    }
                    worker.eof = true;
                }
            }
            for line in lines {
                worker.last_heard = Instant::now();
                let frame = match &line {
                    Ok(text) => Frame::from_line(text),
                    Err(e) => Err(bad(format!("frame is not UTF-8: {e}"))),
                };
                match frame {
                    Ok(Frame::Hello {
                        worker: wid,
                        secret,
                        ..
                    }) if !worker.greeted() => {
                        // Only the coordinator's own children are
                        // admitted: the right secret, naming a child
                        // still waiting to join.
                        let child = state
                            .unjoined
                            .iter()
                            .position(|c| c.id == wid)
                            .filter(|_| secret.as_deref() == Some(state.secret.as_str()));
                        let Some(idx) = child else {
                            eprintln!(
                                "o4a-dist: refusing hello from worker {wid}: \
                                 not a child of this coordinator"
                            );
                            if o4a_obs::metrics_enabled() {
                                o4a_obs::metrics::counter("dist.rejected_hellos").inc();
                            }
                            let refusal = Frame::Goodbye { worker: wid };
                            let _ = worker.link.send_line(&refusal.to_line());
                            worker.eof = true;
                            break;
                        };
                        let child = state.unjoined.swap_remove(idx);
                        worker.id = wid;
                        worker.child = Some(child.child);
                        worker.journal = child.journal;
                        worker.spawned_at = child.at;
                    }
                    Ok(Frame::Progress {
                        shard,
                        cases,
                        cases_per_sec,
                        metrics,
                        trace,
                        ..
                    }) if worker.greeted() => {
                        if worker.lease == Some(shard) {
                            worker.lease_cases = cases;
                            worker.live_rate = cases_per_sec;
                            if metrics.is_some() {
                                worker.latest_metrics = metrics;
                            }
                            scope.absorb(trace);
                        }
                    }
                    Ok(Frame::Done {
                        shard,
                        cases,
                        cases_per_sec,
                        metrics,
                        cache,
                        trace,
                        coverage,
                        ..
                    }) if worker.lease == Some(shard) => {
                        worker.lease = None;
                        worker.lease_cases = 0;
                        worker.leases_completed += 1;
                        worker.cases += cases;
                        worker.live_rate = cases_per_sec;
                        if metrics.is_some() {
                            worker.latest_metrics = metrics;
                        }
                        scope.absorb(trace);
                        // Coverage converges upward as shards complete:
                        // keep the running maximum per solver.
                        for (solver, pct) in coverage {
                            let best = stats.coverage.entry(solver).or_insert(0.0);
                            *best = best.max(pct);
                        }
                        stats.cache.hits += cache.hits;
                        stats.cache.misses += cache.misses;
                        state.done.insert(shard);
                        o4a_obs::trace::event(
                            "dist",
                            "lease.done",
                            &[
                                ("shard", u64::from(shard)),
                                ("worker", u64::from(worker.id)),
                                ("cases", cases),
                            ],
                        );
                    }
                    // A peer speaking garbage or non-UTF-8, sending any
                    // frame but `hello` first, a second `hello`, a frame
                    // only the coordinator may send, or completing a
                    // shard it does not hold is as trustworthy as a dead
                    // one: retire it and re-issue its lease.
                    _ => {
                        let shown = match &line {
                            Ok(text) => text.chars().take(120).collect::<String>(),
                            Err(e) => String::from_utf8_lossy(e.as_bytes())
                                .chars()
                                .take(120)
                                .collect(),
                        };
                        eprintln!(
                            "o4a-dist: dropping {}: rejected frame {shown}",
                            worker.label()
                        );
                        if o4a_obs::metrics_enabled() {
                            o4a_obs::metrics::counter("dist.rejected_frames").inc();
                        }
                        worker.eof = true;
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A burst of complete frames followed by a torn one: every complete
    /// line comes out in order (empty lines included), and the torn tail
    /// stays buffered until its newline arrives.
    #[test]
    fn take_lines_splits_a_burst_and_keeps_the_torn_tail() {
        let frames: Vec<String> = (0..10_000)
            .map(|i| match i % 3 {
                0 => String::new(),
                _ => format!("{{\"type\":\"heartbeat\",\"worker\":{i}}}"),
            })
            .collect();
        let mut buf = Vec::new();
        for frame in &frames {
            buf.extend_from_slice(frame.as_bytes());
            buf.push(b'\n');
        }
        buf.extend_from_slice(b"{\"type\":\"do");
        let frames: Vec<FrameLine> = frames.into_iter().map(Ok).collect();
        assert_eq!(take_lines(&mut buf), frames);
        assert_eq!(buf, b"{\"type\":\"do");
        assert!(
            take_lines(&mut buf).is_empty(),
            "a torn line is not a frame"
        );

        buf.extend_from_slice(b"ne\"}\n");
        assert_eq!(
            take_lines(&mut buf),
            vec![Ok("{\"type\":\"done\"}".to_string())]
        );
        assert!(buf.is_empty());
    }

    /// A line with bytes that are not UTF-8 inside a JSON string is a
    /// malformed frame: it comes out as `Err`, not as a frame that parses
    /// with U+FFFD in place of the bytes, and the lines around it are
    /// untouched.
    #[test]
    fn take_lines_refuses_a_non_utf8_line() {
        let mut buf = b"{\"journal\":\"caf\xe9\",\"t\":\"hello\",\"worker\":0}\n{\"t\":\"goodbye\",\"worker\":0}\n"
            .to_vec();
        let lines = take_lines(&mut buf);
        assert_eq!(lines.len(), 2);
        let err = lines[0]
            .as_ref()
            .expect_err("a non-UTF-8 line is malformed");
        assert!(err.as_bytes().ends_with(b"\"worker\":0}"));
        assert_eq!(lines[1].as_deref(), Ok("{\"t\":\"goodbye\",\"worker\":0}"));
        assert!(buf.is_empty());
    }

    /// A peer dropped before its `hello` is named by its connection, not
    /// by the placeholder id it holds until then.
    #[test]
    fn peers_without_a_hello_are_named_by_connection() {
        assert_eq!(peer_label(Some(3), 9), "worker 3");
        assert_eq!(peer_label(None, 4), "connection 4 (no hello yet)");
    }

    #[test]
    fn peer_that_never_sends_a_newline_is_dropped_at_the_frame_cap() {
        use crate::transport::{connect_with_retry, Listener};
        use std::io::Write;

        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let flood = std::thread::spawn(move || {
            let mut peer = connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
            // One honest frame, then bytes that never end a line; the
            // writes fail once the coordinator side hangs up.
            let _ = peer.write_all(b"{\"t\":\"hello\"}\n");
            let chunk = vec![b'x'; 1 << 16];
            while peer.write_all(&chunk).is_ok() {}
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let accepted = loop {
            if let Some(stream) = listener.accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline, "peer never connected");
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut link = Link::new(accepted).unwrap();
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            let (got, drained) = drain_frames(&mut link, &mut buf);
            lines.extend(got);
            match drained {
                Drained::Open => {
                    assert!(buf.len() <= MAX_FRAME_BYTES, "buffer grew past the cap");
                    assert!(Instant::now() < deadline, "cap never tripped");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Drained::Oversized => break,
                Drained::Closed => panic!("flooding peer hung up"),
            }
        }
        assert_eq!(lines, vec![Ok("{\"t\":\"hello\"}".to_string())]);
        assert_eq!(buf.capacity(), 0, "the oversized tail is freed");
        drop(link);
        flood.join().unwrap();
    }

    /// A peer that sends its last frame and exits with a lease still
    /// unread resets its connection. The frame is read, and the reset
    /// closes this one peer instead of failing the campaign.
    #[test]
    fn reset_after_goodbye_keeps_the_goodbye() {
        use crate::transport::{connect_with_retry, Listener};
        use std::io::Write;

        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let peer =
            std::thread::spawn(move || connect_with_retry(&addr, Duration::from_secs(5)).unwrap());
        let deadline = Instant::now() + Duration::from_secs(30);
        let accepted = loop {
            if let Some(stream) = listener.accept().unwrap() {
                break stream;
            }
            assert!(Instant::now() < deadline, "peer never connected");
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut peer = peer.join().unwrap();
        let mut link = Link::new(accepted).unwrap();
        link.send_line("{\"t\":\"lease\"}").unwrap();
        peer.write_all(b"{\"t\":\"goodbye\",\"worker\":0}\n")
            .unwrap();
        // Closing with the lease unread sends a reset, not a FIN.
        drop(peer);

        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            let (got, drained) = drain_frames(&mut link, &mut buf);
            lines.extend(got);
            match drained {
                Drained::Open => {
                    assert!(Instant::now() < deadline, "the reset never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Drained::Closed => break,
                Drained::Oversized => panic!("a one-frame peer is not oversized"),
            }
        }
        assert_eq!(
            lines,
            vec![Ok("{\"t\":\"goodbye\",\"worker\":0}".to_string())]
        );
    }

    /// There is no fleet without a worker command: an empty one is refused
    /// up front, not waited on.
    #[test]
    fn empty_worker_command_is_invalid_input() {
        let dir = std::env::temp_dir().join(format!("o4a-empty-cmd-{}", std::process::id()));
        let dist = DistConfig::new(Vec::new(), dir.join("journals"));
        let started = Instant::now();
        let err = run_distributed(&CampaignConfig::default(), 1, &dist)
            .expect_err("an empty worker command cannot run a campaign");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn base() -> DistConfig {
        DistConfig::new(vec!["worker".into()], "/tmp/o4a-env-test")
    }

    /// All env-override coverage lives in ONE test: `#[test]`s share the
    /// process, and `std::env` is process-global.
    #[test]
    fn env_overrides_parse_tolerantly() {
        let keys = [
            "O4A_DIST_WORKERS",
            "O4A_DIST_HEARTBEAT_MS",
            "O4A_DIST_MAX_RESPAWNS",
            "O4A_DIST_LISTEN",
            "O4A_SCOPE",
        ];
        for key in keys {
            std::env::remove_var(key);
        }

        // Unset: everything keeps its builder value.
        let cfg = base()
            .with_workers(3)
            .with_heartbeat_timeout(Duration::from_millis(1234))
            .with_env_overrides();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(1234));
        assert_eq!(cfg.max_respawns, 8);
        assert_eq!(cfg.listen, "127.0.0.1:0");
        assert!(cfg.scope.is_none());

        // Invalid values: ignored, not errors — a campaign must not die
        // to a typo'd shell export.
        std::env::set_var("O4A_DIST_WORKERS", "zero");
        std::env::set_var("O4A_DIST_HEARTBEAT_MS", "-5");
        std::env::set_var("O4A_DIST_MAX_RESPAWNS", "8.5");
        std::env::set_var("O4A_DIST_LISTEN", "   ");
        std::env::set_var("O4A_SCOPE", "  ");
        let cfg = base().with_workers(3).with_env_overrides();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.heartbeat_timeout, Duration::from_secs(30));
        assert_eq!(cfg.max_respawns, 8);
        assert_eq!(
            cfg.listen, "127.0.0.1:0",
            "blank O4A_DIST_LISTEN is ignored"
        );
        assert!(cfg.scope.is_none(), "blank O4A_SCOPE stays dark");

        // Zero workers is invalid too (a fleet needs one).
        std::env::set_var("O4A_DIST_WORKERS", "0");
        assert_eq!(base().with_workers(3).with_env_overrides().workers, 3);

        // Valid values land, whitespace trimmed.
        std::env::set_var("O4A_DIST_WORKERS", " 6 ");
        std::env::set_var("O4A_DIST_HEARTBEAT_MS", "250");
        std::env::set_var("O4A_DIST_MAX_RESPAWNS", "0");
        std::env::set_var("O4A_DIST_LISTEN", " 127.0.0.1:4747 ");
        std::env::set_var("O4A_SCOPE", " 127.0.0.1:9090 ");
        let cfg = base().with_env_overrides();
        assert_eq!(cfg.scope.as_deref(), Some("127.0.0.1:9090"));
        assert_eq!(cfg.workers, 6);
        assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(250));
        assert_eq!(
            cfg.max_respawns, 0,
            "an explicit zero respawn budget is valid"
        );
        assert_eq!(cfg.listen, "127.0.0.1:4747");

        for key in keys {
            std::env::remove_var(key);
        }
    }

    #[test]
    fn with_env_accumulates_worker_environment() {
        let cfg = base()
            .with_env("O4A_TRACE", "/tmp/t")
            .with_env("O4A_METRICS", "/tmp/m");
        assert_eq!(
            cfg.envs,
            vec![
                ("O4A_TRACE".to_string(), "/tmp/t".to_string()),
                ("O4A_METRICS".to_string(), "/tmp/m".to_string()),
            ]
        );
    }
}

//! The process/pipe solver backend: drive a **real external solver
//! binary** (Z3, cvc5, or the deterministic mock in
//! `crates/bench/src/bin/mock_solver.rs`) over stdin/stdout pipes.
//!
//! [`PipeSolver`] implements [`SmtSolver`] and offers
//! an asynchronous [`PipeSolver::check_async`]: it spawns the solver
//! command, writes SMT-LIB scripts (the same printed text the in-process
//! engines consume) to the child's stdin, and incrementally parses
//! `sat`/`unsat`/`unknown`/model replies from its stdout through the fd
//! reactor in `o4a-executor` — so a shard worker keeps `K` queries in
//! flight without threads or busy-waiting. This is the only solver
//! backend with asynchronous checks: the in-process engines are CPU-bound
//! on the calling thread, so keeping queries in flight against them
//! overlaps nothing. Reply parsing is **torn-read safe**: [`ReplyParser`]
//! consumes bytes in whatever chunks the pipe delivers and only releases
//! complete lines / balanced s-expressions.
//!
//! Every lane drives **one persistent incremental session**: each query
//! becomes a `(push 1)` / script / `(get-model)` / `(pop 1)` frame on a
//! single child, `K` frames in flight on one stream. The child answers
//! frames in wire order, so a FIFO of pending query ids maps the shared
//! reply stream back to the query futures (an id → completion map hands
//! results over out of poll order); spawn and prologue costs are paid
//! once per lane instead of once per query.
//!
//! Failure containment is the point of the backend:
//!
//! * a child that closes its stdout (crashed, killed, OOMed) yields an
//!   [`Outcome::Crash`] finding with signature `<solver>::pipe::process-died`
//!   and is respawned for the next query;
//! * a child that stops answering is killed at the **per-query deadline**
//!   and yields `<solver>::pipe::wedged` — a wedged solver becomes a
//!   finding, never a hung shard worker. (This wall-clock wedge is
//!   distinct from the solver *answering* `timeout` from its own internal
//!   budget, which maps to [`Outcome::Timeout`] as usual.)
//! * a reply stream that can never complete — a model slot that does not
//!   open with `(`, or more than [`MAX_REPLY_BYTES`] of unconsumed reply
//!   — retires the child at once with the response the deadline would
//!   have given, so a babbling child costs neither the deadline's wait
//!   nor unbounded memory.
//!
//! The wire protocol shared by the mock solver and real solvers is
//! documented in `crates/solvers/README.md`; the [`mock`] module holds
//! the deterministic reply logic the mock binary serves.

use crate::coverage::{universe, Universe};
use crate::response::{CrashInfo, CrashKind, Outcome, SolveStats, SolverId, SolverResponse};
use crate::versions::CommitIdx;
use crate::{CoverageMap, SmtSolver};
use o4a_executor::{
    block_on_with, read_available, set_nonblocking, write_available, FdReactor, Interest,
};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::pin::Pin;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Default per-query wall-clock deadline. Generous next to mock latencies
/// (milliseconds) so the deadline only ever fires on a genuinely wedged
/// process; campaign drivers override it via `O4A_SOLVER_TIMEOUT_MS`.
pub const DEFAULT_QUERY_TIMEOUT: Duration = Duration::from_secs(10);

// ------------------------------------------------------------- PipeCommand

/// A parsed solver command line: program plus arguments.
///
/// The string form (the `O4A_SOLVER_CMD` knob) is whitespace-split — no
/// shell quoting — and may contain the placeholder `{lane}`, which
/// [`PipeCommand::for_lane`] substitutes with the solver-lane index so
/// each lane of a differential campaign can get a differently-seeded
/// process (e.g. `mock_solver --seed 7 --lane {lane}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeCommand {
    program: String,
    args: Vec<String>,
}

impl PipeCommand {
    /// Parses a whitespace-separated command line; `None` when empty.
    pub fn parse(cmdline: &str) -> Option<PipeCommand> {
        let mut parts = cmdline.split_whitespace().map(str::to_string);
        let program = parts.next()?;
        Some(PipeCommand {
            program,
            args: parts.collect(),
        })
    }

    /// Substitutes `{lane}` in every argument (and the program).
    pub fn for_lane(&self, lane: usize) -> PipeCommand {
        let sub = |s: &String| s.replace("{lane}", &lane.to_string());
        PipeCommand {
            program: sub(&self.program),
            args: self.args.iter().map(sub).collect(),
        }
    }

    /// The program to spawn.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The arguments passed to it.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// The command line as one whitespace-joined string — the form the
    /// verdict cache keys on (a differently seeded or differently
    /// flagged solver is a different answer function).
    pub fn cmdline(&self) -> String {
        let mut line = self.program.clone();
        for arg in &self.args {
            line.push(' ');
            line.push_str(arg);
        }
        line
    }

    fn spawn(&self) -> io::Result<SolverProcess> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let fd = stdout.as_raw_fd();
        set_nonblocking(fd)?;
        // stdin is non-blocking too: a child that stops *reading* must
        // hit the per-query deadline, not hang the worker in write(2).
        let stdin_fd = stdin.as_raw_fd();
        set_nonblocking(stdin_fd)?;
        // Prologue: make `(get-model)` legal on real solvers. The mock
        // ignores lines it does not recognize, real solvers answer
        // success silently (print-success defaults to false). A fresh
        // pipe always has room for these few bytes.
        let _ = write_available(&mut stdin, b"(set-option :produce-models true)\n");
        Ok(SolverProcess {
            child,
            stdin,
            stdout,
            fd,
            stdin_fd,
            parser: ReplyParser::new(),
        })
    }
}

/// One live child process plus its incremental reply buffer.
struct SolverProcess {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    fd: RawFd,
    stdin_fd: RawFd,
    parser: ReplyParser,
}

impl Drop for SolverProcess {
    fn drop(&mut self) {
        // Kill is a no-op on an already-exited child; wait reaps either
        // way so retired processes never accumulate as zombies.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ------------------------------------------------------------- ReplyParser

/// The most reply bytes a lane buffers unconsumed: the same 32 MiB as the
/// distributed fleet's frame cap. A child whose pending reply outgrows it
/// is retired instead of being read further.
pub const MAX_REPLY_BYTES: usize = 32 << 20;

/// Incremental parser for solver replies arriving over a pipe.
///
/// Pipes deliver bytes at arbitrary boundaries — mid-token, mid-line,
/// mid-model. The parser buffers [`feed`](ReplyParser::feed)s and only
/// releases **complete units**: [`take_line`](ReplyParser::take_line)
/// needs the terminating newline, [`take_sexp`](ReplyParser::take_sexp)
/// needs the balancing close paren (string literals, with SMT-LIB's `""`
/// escape, are skipped opaquely). Parsing is therefore invariant under
/// how reads tear — the property `torn_reads_parse_identically` proves.
/// An unfinished scan resumes where it stopped, so a unit arriving over
/// many reads costs one pass over its bytes, not one per read.
#[derive(Debug, Default)]
pub struct ReplyParser {
    buf: Vec<u8>,
    scan: Scan,
}

/// Where the last unfinished scan of [`ReplyParser`] stopped. Consuming
/// bytes from the buffer resets it.
#[derive(Clone, Copy, Debug, Default)]
enum Scan {
    /// Nothing scanned yet.
    #[default]
    Fresh,
    /// The first `n` buffered bytes hold no newline.
    Line(usize),
    /// `buf[..pos]` opens an s-expression at `buf[0]` that is still
    /// `depth` parens deep (inside a string literal when `in_string`).
    Sexp {
        pos: usize,
        depth: usize,
        in_string: bool,
    },
}

impl ReplyParser {
    /// Creates an empty parser.
    pub fn new() -> ReplyParser {
        ReplyParser::default()
    }

    /// Appends raw bytes from the pipe.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads what `reader` has available straight into the buffer, never
    /// past one byte over [`MAX_REPLY_BYTES`] — the same contract as
    /// [`read_available`], and `Ok(None)` once the buffer is full.
    pub fn fill(&mut self, reader: impl io::Read) -> io::Result<Option<usize>> {
        let room = (MAX_REPLY_BYTES + 1).saturating_sub(self.buf.len());
        if room == 0 {
            return Ok(None);
        }
        read_available(&mut reader.take(room as u64), &mut self.buf)
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once the unconsumed bytes pass [`MAX_REPLY_BYTES`].
    pub fn overflowed(&self) -> bool {
        self.buf.len() > MAX_REPLY_BYTES
    }

    /// True when the next unit can never be an s-expression: its first
    /// non-whitespace byte has arrived and is not `(`.
    pub fn sexp_impossible(&self) -> bool {
        self.buf
            .iter()
            .find(|b| !b.is_ascii_whitespace())
            .is_some_and(|&b| b != b'(')
    }

    /// Drops the first `n` bytes, which invalidates any resumable scan.
    fn consume(&mut self, n: usize) -> Vec<u8> {
        self.scan = Scan::Fresh;
        self.buf.drain(..n).collect()
    }

    /// Releases the next complete **non-empty** line, without its
    /// terminator, or `None` until one is fully buffered.
    pub fn take_line(&mut self) -> Option<String> {
        loop {
            let from = match self.scan {
                Scan::Line(n) => n,
                _ => 0,
            };
            let Some(nl) = self.buf[from..].iter().position(|&b| b == b'\n') else {
                self.scan = Scan::Line(self.buf.len());
                return None;
            };
            let line = self.consume(from + nl + 1);
            let text = String::from_utf8_lossy(&line).trim().to_string();
            if !text.is_empty() {
                return Some(text);
            }
        }
    }

    /// Releases the next complete balanced s-expression (leading
    /// whitespace skipped), or `None` until one is fully buffered. The
    /// buffer's first non-whitespace byte must be `(`.
    pub fn take_sexp(&mut self) -> Option<String> {
        let (mut i, mut depth, mut in_string) = match self.scan {
            Scan::Sexp {
                pos,
                depth,
                in_string,
            } => (pos, depth, in_string),
            _ => {
                // Leading whitespace never belongs to a unit: drop it, so
                // the scan below can resume from a fixed start.
                let start = self
                    .buf
                    .iter()
                    .take_while(|b| b.is_ascii_whitespace())
                    .count();
                if start > 0 {
                    self.consume(start);
                }
                if self.buf.first() != Some(&b'(') {
                    return None;
                }
                (0, 0, false)
            }
        };
        while i < self.buf.len() {
            let b = self.buf[i];
            if in_string {
                if b == b'"' {
                    // `""` escapes a quote inside SMT-LIB strings. A quote
                    // that ends the buffer closes the string; should the
                    // next read open with `"`, that reopens it — the same
                    // state the escape leaves.
                    if self.buf.get(i + 1) == Some(&b'"') {
                        i += 1;
                    } else {
                        in_string = false;
                    }
                }
            } else {
                match b {
                    b'"' => in_string = true,
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            let sexp = self.consume(i + 1);
                            return Some(String::from_utf8_lossy(&sexp).into_owned());
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        self.scan = Scan::Sexp {
            pos: i,
            depth,
            in_string,
        };
        None
    }
}

/// Extracts the quoted message from an `(error "msg")` reply line.
fn error_message(reply: &str) -> String {
    reply
        .split('"')
        .nth(1)
        .unwrap_or("solver error")
        .to_string()
}

/// Parses a `(get-model)` reply into a [`o4a_smtlib::Model`].
///
/// Accepts both the classic `(model (define-fun ...) ...)` shape and the
/// bare `((define-fun ...) ...)` newer Z3 emits. Constant definitions
/// with literal (closed) bodies become model entries; anything the
/// golden evaluator cannot fold to a value — or n-ary definitions — is
/// skipped, which degrades a model-validation opportunity, never a
/// sat/unsat verdict.
pub fn parse_model_reply(text: &str) -> Option<o4a_smtlib::Model> {
    let inner = text.trim().strip_prefix('(')?.strip_suffix(')')?;
    let rest = inner.trim_start();
    let rest = match rest.strip_prefix("model") {
        Some(r) if r.is_empty() || r.starts_with(|c: char| c.is_whitespace() || c == '(') => r,
        _ => rest,
    };
    let script = o4a_smtlib::parse_script(rest).ok()?;
    let empty_model = o4a_smtlib::Model::new();
    let defs = std::collections::BTreeMap::new();
    let cfg = o4a_smtlib::eval::DomainConfig::default();
    let ev = o4a_smtlib::eval::Evaluator::new(&empty_model, &defs, &cfg, 10_000);
    let mut model = o4a_smtlib::Model::new();
    for cmd in script.commands {
        if let o4a_smtlib::Command::DefineFun(name, params, _, body) = cmd {
            if params.is_empty() {
                if let Ok(value) = ev.eval(&body) {
                    model.set_const(name, value);
                }
            }
        }
    }
    Some(model)
}

// ------------------------------------------------------------ verdict cache

/// Normalizes a script to the exact text the answer is a function of —
/// the same rules [`mock::fingerprint`] applies before hashing: strip
/// `(set-option …)` lines (transport prologue), trim every line, drop
/// empty ones, join with `\n`.
///
/// This is the **reconstructed scope-stack script** seen through the
/// solver's eyes: the session's `(push 1)`/`(pop 1)` framing, whitespace
/// placement and the `(set-option …)` prologue all normalize away, so one
/// semantic query has exactly one normalized form however the frame that
/// carried it was laid out.
pub fn normalized_script(text: &str) -> String {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("(set-option"))
        .collect::<Vec<&str>>()
        .join("\n")
}

/// The content address of one solver query: solver identity + version +
/// the resolved lane command + the [`normalized_script`]. Two queries
/// with equal keys are guaranteed (by the purity contract external
/// solvers must keep — see `crates/solvers/README.md`) to produce equal
/// wire replies, which is what makes a cache hit ≡ a fresh solve.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// The solver lane's [`SolverId`] name.
    pub solver: String,
    /// The solver version (commit index) the lane stands in for.
    pub commit: u32,
    /// The resolved (post-`{lane}` substitution) command line — a
    /// differently seeded mock, or a different binary, is a different
    /// answer function.
    pub command: String,
    /// The normalized script text.
    pub script: String,
}

impl CacheKey {
    /// A 64-bit digest of the key (FNV-1a over every field, finalized
    /// with SplitMix64). Stored in journal records for grouping and
    /// debugging; lookups always compare the **full fields**, so a
    /// digest collision can never alias two distinct queries.
    pub fn digest(&self) -> u64 {
        let mut h =
            0xcbf2_9ce4_8422_2325u64 ^ u64::from(self.commit).wrapping_mul(0x0100_0000_01b3);
        for part in [&self.solver, &self.command, &self.script] {
            for &b in part.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            // Field separator: "ab"+"c" and "a"+"bc" must not collide.
            h ^= 0x1f;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        splitmix64(h)
    }
}

/// One cached **wire-level** reply — what the transport read off the
/// pipe, not the decoded [`SolverResponse`]. A hit replays the reply
/// through the same decode path a live reply takes, so the response a
/// hit produces (verdict, parsed model, error text, crash signature) is
/// bit-identical to what the fresh solve returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedReply {
    /// A complete verdict (with the model-slot s-expression after `sat`;
    /// empty when the model was lost or the verdict carries none).
    Answered {
        /// The verdict line (`sat`/`unsat`/`unknown`/`timeout`, or an
        /// unrecognized token, which decodes to the same parse error a
        /// fresh solve reports).
        verdict: String,
        /// The model-slot s-expression (empty unless one was read).
        model_sexp: String,
    },
    /// The child died serving this query — deterministic for solvers
    /// that crash as a pure function of the script (the crash-injection
    /// gauntlet's mock), so the crash finding replays exactly.
    Died {
        /// True when the per-query deadline fired (wedge), false for EOF.
        wedged: bool,
    },
    /// An `(error "msg")` verdict.
    Error(String),
}

/// A campaign-wide verdict/model cache the pipe backend consults before
/// dispatching a query and feeds after a fresh solve. Implemented by
/// `o4a-cache`'s fsync'd JSONL store; the trait lives here so the
/// transport depends only on the interface. Spawn *failures* are never
/// cached — they are environmental, not a property of the query.
pub trait VerdictCache {
    /// The cached wire reply for `key`, if one is known.
    fn lookup(&self, key: &CacheKey) -> Option<CachedReply>;
    /// Records a fresh wire reply. Implementations must be crash-safe:
    /// a process killed mid-record may lose the entry, never corrupt
    /// the store.
    fn record(&self, key: &CacheKey, reply: &CachedReply);
}

// -------------------------------------------------------------- SolverMode

/// The transport a [`PipeSolver`] lane uses. There is one: the persistent
/// session. The enum exists only so the frozen benchmark harness, which
/// names `SolverMode::Session`, keeps compiling; it goes with the next
/// benchmark change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverMode {
    /// One persistent incremental session per lane: every query is a
    /// `(push 1)` … `(pop 1)` scope on a single long-lived child.
    #[default]
    Session,
}

// ----------------------------------------------------------------- Session

/// One query outstanding on a persistent session.
struct SessionQuery {
    /// Script text, kept verbatim so the query can be **replayed** onto a
    /// respawned process when a sibling's crash takes the session down.
    text: String,
    /// Waker of the owning future, stored on await — the sibling that
    /// drains the shared stream hands completions over through it.
    waker: Option<Waker>,
}

/// A finished session query, parked in the id → completion map until its
/// owning future claims it.
enum SessionReply {
    /// A complete frame reply: the verdict line plus the model-slot
    /// s-expression (every session frame carries `(get-model)`, so the
    /// stream stays framed even for non-`sat` verdicts).
    Answered { verdict: String, model_sexp: String },
    /// The child died (EOF) or wedged (deadline) while this query's
    /// frame was at the head of the reply queue.
    Died(PipeDeath),
    /// An `(error …)` verdict: the stream can no longer be trusted to
    /// sit on a frame boundary, so the session was retired around this
    /// query.
    Error(String),
    /// The session process could not be (re)spawned.
    SpawnFailed(String),
}

/// Per-lane persistent-session state: one child, many scopes in flight.
///
/// `pending` holds query ids in **wire order** — the child answers
/// frames strictly in the order their `(check-sat)`s entered its stdin,
/// which is what maps replies on the single shared stream back to
/// queries. `completed` is the id → result map futures claim from, in
/// whatever order the executor polls them.
#[derive(Default)]
struct Session {
    proc: Option<SolverProcess>,
    /// Request bytes the child's stdin pipe has not yet accepted. Frames
    /// are appended whole, so concurrent queries can never interleave
    /// mid-frame.
    outbuf: Vec<u8>,
    pending: VecDeque<u64>,
    queries: BTreeMap<u64, SessionQuery>,
    completed: BTreeMap<u64, SessionReply>,
    /// The head frame's verdict line, once read, while its model slot is
    /// still incomplete on the stream.
    head_verdict: Option<String>,
    /// When the current head frame reached the head of the queue — the
    /// start of its **service clock**. The per-query timeout measures
    /// time the child spends on a frame, not time since enqueue, so
    /// frames queued behind slow-but-progressing siblings are never
    /// spuriously blamed as wedged.
    head_since: Option<Instant>,
    next_id: u64,
}

/// SplitMix64 finalizer — the standard seed-expansion hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// -------------------------------------------------------------- PipeSolver

/// An external solver lane behind the [`SmtSolver`] interface
/// and the asynchronous [`PipeSolver::check_async`].
///
/// One `PipeSolver` plays one solver lane of a differential campaign: it
/// reports the [`SolverId`] it stands in for and drives one persistent
/// `(push 1)` / `(pop 1)` incremental session on a child spawned from its
/// [`PipeCommand`], killing and respawning the child on crash or wedge.
/// External processes report no coverage, so coverage maps stay empty
/// and per-query deltas are empty maps.
pub struct PipeSolver {
    id: SolverId,
    commit: CommitIdx,
    command: PipeCommand,
    reactor: Rc<FdReactor>,
    timeout: Duration,
    session: RefCell<Session>,
    cache: Option<Rc<dyn VerdictCache>>,
    empty_coverage: CoverageMap,
    universe: &'static Universe,
    spawned: Cell<u64>,
    respawns: Cell<u64>,
    scopes: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// How a child became unusable mid-query.
enum PipeDeath {
    /// stdout hit end-of-file: the process died.
    Eof,
    /// The per-query deadline passed with no complete reply.
    Wedged,
}

impl PipeSolver {
    /// Creates a lane over `command`, sharing `reactor` with the driver
    /// that blocks in [`FdReactor::poll_io`] while queries are in flight.
    pub fn new(
        command: PipeCommand,
        id: SolverId,
        commit: CommitIdx,
        reactor: Rc<FdReactor>,
    ) -> PipeSolver {
        PipeSolver {
            id,
            commit,
            command,
            reactor,
            timeout: DEFAULT_QUERY_TIMEOUT,
            session: RefCell::new(Session::default()),
            cache: None,
            empty_coverage: CoverageMap::new(),
            universe: universe(id),
            spawned: Cell::new(0),
            respawns: Cell::new(0),
            scopes: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// A self-contained lane with its own private reactor — the sync
    /// [`SmtSolver::check`] entry point drives it transparently.
    pub fn standalone(command: PipeCommand, id: SolverId, commit: CommitIdx) -> PipeSolver {
        PipeSolver::new(command, id, commit, Rc::new(FdReactor::new()))
    }

    /// Replaces the per-query wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> PipeSolver {
        self.timeout = timeout;
        self
    }

    /// Attaches a verdict cache: every query is looked up before
    /// dispatch (a hit replays the cached wire reply through the normal
    /// decode path, touching no process) and every fresh wire reply is
    /// recorded. Default: no cache — the lookup/record hooks do not
    /// exist, so caching off is provably a no-op.
    pub fn with_cache(mut self, cache: Rc<dyn VerdictCache>) -> PipeSolver {
        self.cache = Some(cache);
        self
    }

    /// The per-query deadline in force.
    pub fn query_timeout(&self) -> Duration {
        self.timeout
    }

    /// The reactor this lane registers readiness with.
    pub fn reactor(&self) -> &Rc<FdReactor> {
        &self.reactor
    }

    /// Child processes spawned so far (including respawns).
    pub fn processes_spawned(&self) -> u64 {
        self.spawned.get()
    }

    /// Processes retired and replaced: **every** retirement — death,
    /// wedge, error-desync, an unparseable or oversized reply, or an idle
    /// exit — so that `processes_spawned ≤ lanes + respawns` holds for
    /// any solver.
    pub fn respawns(&self) -> u64 {
        self.respawns.get()
    }

    /// Incremental `(push 1)` scopes opened on the persistent session —
    /// one per query (crash replays are not re-counted, so the counter
    /// is a pure function of the query stream).
    pub fn scopes_pushed(&self) -> u64 {
        self.scopes.get()
    }

    /// Queries answered from the verdict cache (no process touched).
    pub fn cache_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Queries that missed the cache and went to a live solve (zero
    /// when no cache is attached — uncached queries are not misses).
    pub fn cache_misses(&self) -> u64 {
        self.misses.get()
    }

    /// The content address of one query on this lane.
    fn cache_key(&self, text: &str) -> CacheKey {
        CacheKey {
            solver: self.id.name().to_string(),
            commit: self.commit,
            command: self.command.cmdline(),
            script: normalized_script(text),
        }
    }

    fn spawn_counted(&self) -> io::Result<SolverProcess> {
        let proc = self.command.spawn()?;
        self.spawned.set(self.spawned.get() + 1);
        o4a_obs::trace::event("pipe", "spawn", &[]);
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::counter("pipe.spawns").inc();
        }
        Ok(proc)
    }

    /// Charges one process retirement: the deterministic transport
    /// counter (part of the campaign's churn invariant) plus the
    /// write-only observability channels.
    fn note_respawn(&self) {
        self.respawns.set(self.respawns.get() + 1);
        o4a_obs::trace::event("pipe", "respawn", &[]);
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::counter("pipe.respawns").inc();
        }
    }

    /// [`parse_model_reply`] with the parse time recorded (reply parsing
    /// is the coordinator-side cost of a query, distinct from the
    /// child's solve latency).
    fn timed_parse_model(text: &str) -> Option<o4a_smtlib::Model> {
        let timer = o4a_obs::metrics::start_timer();
        let model = parse_model_reply(text);
        o4a_obs::metrics::record_elapsed("pipe.reply_parse_micros", timer);
        model
    }

    /// The crash-finding response for a dead or wedged child (no counter
    /// side effects — the caller decides when a respawn is charged).
    fn death_response(&self, death: &PipeDeath) -> SolverResponse {
        let (reason, kind) = match death {
            PipeDeath::Eof => ("process-died", CrashKind::SegFault),
            PipeDeath::Wedged => ("wedged", CrashKind::InternalException),
        };
        SolverResponse {
            outcome: Outcome::Crash(CrashInfo {
                signature: format!("{}::pipe::{}", self.id.name(), reason),
                kind,
            }),
            model: None,
            stats: SolveStats::default(),
        }
    }

    /// Answers one script asynchronously — the response is identical to
    /// what [`SmtSolver::check`] returns. Many checks against one lane may
    /// be in flight at once: `&self` suffices, because the lane's state
    /// sits behind interior mutability on the single-threaded executor.
    pub async fn check_async(&self, text: &str) -> SolverResponse {
        let timer = o4a_obs::metrics::start_timer();
        let _span = o4a_obs::trace::span("pipe", "query.session").arg("bytes", text.len() as u64);
        let response = match &self.cache {
            Some(cache) => {
                let cache = Rc::clone(cache);
                self.run_query_caching(&cache, text).await
            }
            None => self.run_query_session(text).await.0,
        };
        o4a_obs::metrics::record_elapsed("pipe.query_micros", timer);
        response
    }

    /// The cache-wrapped query path: look the key up before dispatch —
    /// a hit replays the recorded wire reply through [`Self::decode_cached_reply`]
    /// (the same decode a live reply takes, so the response is
    /// bit-identical to the fresh solve's) — and record the wire reply
    /// of a miss. Spawn failures return no wire reply and are never
    /// cached.
    async fn run_query_caching(&self, cache: &Rc<dyn VerdictCache>, text: &str) -> SolverResponse {
        let key = self.cache_key(text);
        let lookup_timer = o4a_obs::metrics::start_timer();
        let cached = cache.lookup(&key);
        o4a_obs::metrics::record_elapsed("cache.lookup_micros", lookup_timer);
        if let Some(reply) = cached {
            self.hits.set(self.hits.get() + 1);
            o4a_obs::trace::event("cache", "hit", &[("digest", key.digest())]);
            if o4a_obs::metrics_enabled() {
                o4a_obs::metrics::counter("cache.hits").inc();
            }
            return self.decode_cached_reply(reply);
        }
        self.misses.set(self.misses.get() + 1);
        o4a_obs::trace::event("cache", "miss", &[("digest", key.digest())]);
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::counter("cache.misses").inc();
        }
        let (response, wire) = self.run_query_session(text).await;
        if let Some(reply) = wire {
            cache.record(&key, &reply);
        }
        response
    }

    /// Replays a cached wire reply through the same decode logic a live
    /// reply takes. No process is touched and no transport counter
    /// (spawns, respawns, scopes) moves — the hit is free by
    /// construction, and since `sans_transport` scrubs those counters
    /// anyway, cached and fresh campaigns stay bit-identical.
    fn decode_cached_reply(&self, reply: CachedReply) -> SolverResponse {
        match reply {
            CachedReply::Answered {
                verdict,
                model_sexp,
            } => Self::decode_verdict(&verdict, &model_sexp),
            CachedReply::Died { wedged } => self.death_response(&if wedged {
                PipeDeath::Wedged
            } else {
                PipeDeath::Eof
            }),
            CachedReply::Error(msg) => SolverResponse::error(msg),
        }
    }

    /// Decodes a verdict line plus its model-slot text into the
    /// response — the single mapping the live and the cache-hit paths
    /// share, so one wire reply can only ever mean one response.
    fn decode_verdict(verdict: &str, model_sexp: &str) -> SolverResponse {
        let outcome = match verdict {
            "sat" => {
                return SolverResponse {
                    outcome: Outcome::Sat,
                    model: if model_sexp.is_empty() {
                        None
                    } else {
                        Self::timed_parse_model(model_sexp)
                    },
                    stats: SolveStats::default(),
                }
            }
            "unsat" => Outcome::Unsat,
            "unknown" => Outcome::Unknown,
            "timeout" => Outcome::Timeout,
            other => return SolverResponse::error(format!("unrecognized solver reply '{other}'")),
        };
        SolverResponse {
            outcome,
            model: None,
            stats: SolveStats::default(),
        }
    }

    /// The incremental frame one query occupies on the session stream.
    /// `(get-model)` rides in every frame — the verdict is not known when
    /// the frame is written, and a fixed verdict-line + model-sexp shape
    /// per frame is what keeps the shared stream parseable (real solvers
    /// answer the model request after `unsat` with an `(error …)`
    /// s-expression, which parses and is discarded).
    fn frame(text: &str) -> Vec<u8> {
        let mut frame = Vec::with_capacity(text.len() + 40);
        frame.extend_from_slice(b"(push 1)\n");
        frame.extend_from_slice(text.as_bytes());
        frame.extend_from_slice(b"\n(get-model)\n(pop 1)\n");
        frame
    }

    /// Admits one query to the session: assigns its id, appends its
    /// frame whole to the outgoing buffer, and queues it in wire order.
    /// A session process is spawned on first use (or after a loss whose
    /// replay set was empty).
    fn session_enqueue(&self, text: &str) -> u64 {
        let mut guard = self.session.borrow_mut();
        let s = &mut *guard;
        let id = s.next_id;
        s.next_id += 1;
        if s.proc.is_none() {
            match self.spawn_counted() {
                Ok(proc) => s.proc = Some(proc),
                Err(e) => {
                    s.completed.insert(
                        id,
                        SessionReply::SpawnFailed(format!(
                            "failed to spawn solver process '{}': {e}",
                            self.command.program()
                        )),
                    );
                    return id;
                }
            }
        }
        s.outbuf.extend_from_slice(&Self::frame(text));
        if s.pending.is_empty() {
            // This frame is the head: its service clock starts now.
            s.head_since = Some(Instant::now());
        }
        s.pending.push_back(id);
        s.queries.insert(
            id,
            SessionQuery {
                text: text.to_string(),
                waker: None,
            },
        );
        self.scopes.set(self.scopes.get() + 1);
        o4a_obs::trace::event("pipe", "session.push", &[("id", id)]);
        id
    }

    /// Parks a finished reply in the completion map and wakes the owning
    /// future (it may have gone `Pending` before a sibling drained the
    /// stream on its behalf).
    fn session_complete(s: &mut Session, id: u64, reply: SessionReply) {
        if let Some(query) = s.queries.remove(&id) {
            if let Some(waker) = query.waker {
                waker.wake();
            }
        }
        s.completed.insert(id, reply);
    }

    /// Claims this query's completion, if a pump has produced it.
    fn session_take(&self, id: u64) -> Option<SessionReply> {
        self.session.borrow_mut().completed.remove(&id)
    }

    /// Drives the session's I/O once: flushes queued request bytes,
    /// drains available reply bytes, and parses complete frames —
    /// verdict line, then model s-expression — off the single stream in
    /// wire order, handing each to its owner through the completion map.
    /// EOF mid-stream becomes a head death (see
    /// [`session_fail_head`](Self::session_fail_head)).
    fn session_pump(&self) {
        let mut guard = self.session.borrow_mut();
        let s = &mut *guard;
        if s.proc.is_none() {
            return;
        }
        if !s.outbuf.is_empty() {
            let proc = s.proc.as_mut().expect("checked above");
            // Whatever the pipe does not accept stays queued (waiters
            // register write interest while outbuf is non-empty); a
            // write error is EPIPE from a dead child, and the read path
            // is the judge of death (complete replies may already be
            // buffered).
            if let Ok(n) = write_available(&mut proc.stdin, &s.outbuf) {
                s.outbuf.drain(..n);
            }
        }
        let eof = {
            let proc = s.proc.as_mut().expect("checked above");
            matches!(proc.parser.fill(&mut proc.stdout), Ok(Some(0)) | Err(_))
        };
        let mut fail: Option<SessionReply> = None;
        while !s.pending.is_empty() {
            if s.head_verdict.is_none() {
                match s.proc.as_mut().and_then(|p| p.parser.take_line()) {
                    Some(line) => s.head_verdict = Some(line),
                    None => break,
                }
            }
            if s.head_verdict
                .as_deref()
                .is_some_and(|v| v.starts_with("(error"))
            {
                let verdict = s.head_verdict.take().expect("checked above");
                fail = Some(SessionReply::Error(error_message(&verdict)));
                break;
            }
            match s.proc.as_mut().and_then(|p| p.parser.take_sexp()) {
                Some(model_sexp) => {
                    let verdict = s.head_verdict.take().expect("set above");
                    let id = s.pending.pop_front().expect("loop guard");
                    // The next frame (if any) becomes the head: its
                    // service clock starts only now that the child is
                    // free to work on it.
                    s.head_since = (!s.pending.is_empty()).then(Instant::now);
                    o4a_obs::trace::event("pipe", "session.pop", &[("id", id)]);
                    Self::session_complete(
                        s,
                        id,
                        SessionReply::Answered {
                            verdict,
                            model_sexp,
                        },
                    );
                }
                None => break,
            }
        }
        if fail.is_none() && !s.pending.is_empty() {
            // A model slot that cannot open, or a reply past the cap, can
            // never complete: retire the child now with the response the
            // deadline would give later (a verdict already read survives).
            let parser = &s.proc.as_ref().expect("checked above").parser;
            if parser.overflowed() || (s.head_verdict.is_some() && parser.sexp_impossible()) {
                fail = Some(SessionReply::Died(PipeDeath::Wedged));
            }
        }
        if fail.is_none() && eof {
            if s.pending.is_empty() {
                // The child exited while idle: nothing to blame it on —
                // retire it and respawn on the next query (counted as a
                // respawn so the churn invariant stays exact).
                self.note_respawn();
                s.proc = None;
                s.outbuf.clear();
                s.head_verdict = None;
            } else {
                fail = Some(SessionReply::Died(PipeDeath::Eof));
            }
        }
        if let Some(reply) = fail {
            self.session_fail_head(s, reply);
        }
    }

    /// Retires the session process around a failed head query: the head
    /// gets `reply`, the child is killed and reaped, and every other
    /// pending query is **replayed** — re-framed onto a fresh process,
    /// in the same wire order — so one query's crash costs exactly one
    /// finding; in-flight siblings are never lost and never duplicated.
    /// Only the prologue (written by spawn) is re-sent besides the
    /// replayed frames.
    ///
    /// A verdict line that already crossed the pipe survives the death:
    /// losing the child mid-frame costs the **model, never the verdict**,
    /// so the head reports its verdict (model-less) and only a frame with
    /// no verdict yet becomes the crash finding.
    fn session_fail_head(&self, s: &mut Session, reply: SessionReply) {
        // Every retirement counts as a respawn — death, wedge, or an
        // error-desync retire alike — so the churn invariant
        // `processes_spawned ≤ lanes + process_respawns` holds for any
        // solver, including ones that answer `(error …)`.
        self.note_respawn();
        let head_reply = match s.head_verdict.take() {
            Some(verdict) if matches!(reply, SessionReply::Died(_)) => SessionReply::Answered {
                verdict,
                model_sexp: String::new(),
            },
            _ => reply,
        };
        s.proc = None; // Drop kills (if needed) and reaps
        s.outbuf.clear();
        s.head_since = None;
        if let Some(head) = s.pending.pop_front() {
            Self::session_complete(s, head, head_reply);
        }
        let rest: Vec<u64> = s.pending.drain(..).collect();
        if rest.is_empty() {
            return;
        }
        match self.spawn_counted() {
            Ok(proc) => {
                s.proc = Some(proc);
                // The first replayed frame is the new head; its service
                // clock starts with the fresh process.
                s.head_since = Some(Instant::now());
                for id in rest {
                    let query = s.queries.get_mut(&id).expect("pending queries are live");
                    let frame = Self::frame(&query.text);
                    s.outbuf.extend_from_slice(&frame);
                    s.pending.push_back(id);
                    // Wake the owner so it re-arms against the fresh
                    // process (write interest for the replayed frames,
                    // refreshed head deadline).
                    if let Some(waker) = query.waker.take() {
                        waker.wake();
                    }
                }
            }
            Err(e) => {
                let msg = format!(
                    "failed to spawn solver process '{}': {e}",
                    self.command.program()
                );
                for id in rest {
                    Self::session_complete(s, id, SessionReply::SpawnFailed(msg.clone()));
                }
            }
        }
    }

    /// Fires the wall-clock wedge: when the **head** frame's service
    /// clock (time since the child picked it up, not time since enqueue)
    /// exceeds the per-query timeout with no complete reply, the child
    /// is stuck on it — kill, blame the head, replay the rest. Only the
    /// head has a running clock, so every waiter's deadline wake lands
    /// here and the blame falls on the frame the child was actually
    /// processing; frames queued behind slow-but-answering siblings are
    /// never spuriously wedged.
    fn session_check_wedge(&self) {
        let mut guard = self.session.borrow_mut();
        let s = &mut *guard;
        if s.pending.is_empty() {
            return;
        }
        let expired = s
            .head_since
            .is_some_and(|since| Instant::now() >= since + self.timeout);
        if expired {
            self.session_fail_head(s, SessionReply::Died(PipeDeath::Wedged));
        }
    }

    /// Maps a claimed session completion to its response plus the wire
    /// reply the verdict cache records. Both go through the same
    /// [`CachedReply`] decode a hit takes, so a cached replay of this
    /// query is bit-identical by construction; spawn failures are
    /// environmental and produce no cacheable reply.
    fn finish_session_reply(&self, reply: SessionReply) -> (SolverResponse, Option<CachedReply>) {
        let wire = match reply {
            SessionReply::Answered {
                verdict,
                model_sexp,
            } => CachedReply::Answered {
                verdict,
                model_sexp,
            },
            SessionReply::Died(death) => CachedReply::Died {
                wedged: matches!(death, PipeDeath::Wedged),
            },
            SessionReply::Error(msg) => CachedReply::Error(msg),
            SessionReply::SpawnFailed(msg) => return (SolverResponse::error(msg), None),
        };
        (self.decode_cached_reply(wire.clone()), Some(wire))
    }

    /// One query's life on the persistent session: enqueue the frame,
    /// then pump the shared stream until this id's completion appears —
    /// every waiter is a demultiplexer, whichever polls first does the
    /// parsing and wakes the others through the completion map.
    async fn run_query_session(&self, text: &str) -> (SolverResponse, Option<CachedReply>) {
        let id = self.session_enqueue(text);
        loop {
            self.session_pump();
            if let Some(reply) = self.session_take(id) {
                return self.finish_session_reply(reply);
            }
            self.session_check_wedge();
            if let Some(reply) = self.session_take(id) {
                return self.finish_session_reply(reply);
            }
            SessionWait {
                solver: self,
                id,
                armed: false,
                tokens: [None, None],
            }
            .await;
        }
    }
}

/// The session's combined readiness wait: read interest on the child's
/// stdout, write interest on its stdin while request bytes are queued,
/// and the owner's per-query deadline — whichever fires first. On first
/// poll it parks the owner's waker in the session (so a sibling that
/// drains the stream can deliver this query's completion directly) and
/// registers with the reactor; on resolution or drop it deregisters
/// whatever it armed, so no stale registration survives to wake a
/// finished task.
struct SessionWait<'s> {
    solver: &'s PipeSolver,
    id: u64,
    armed: bool,
    tokens: [Option<u64>; 2],
}

impl Future for SessionWait<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if this.armed {
            for slot in &mut this.tokens {
                if let Some(token) = slot.take() {
                    this.solver.reactor.deregister(token);
                }
            }
            return Poll::Ready(());
        }
        let mut guard = this.solver.session.borrow_mut();
        let s = &mut *guard;
        if s.completed.contains_key(&this.id) {
            return Poll::Ready(());
        }
        match s.queries.get_mut(&this.id) {
            Some(query) => query.waker = Some(cx.waker().clone()),
            // Not pending and not completed cannot happen; resolve and
            // let the caller's loop re-examine the session.
            None => return Poll::Ready(()),
        }
        let Some(proc) = s.proc.as_ref() else {
            // No live process (a replay's respawn failed moments ago):
            // resolve so the loop re-checks the completion map.
            return Poll::Ready(());
        };
        // Every waiter arms the HEAD frame's service deadline (the only
        // clock that can expire): whoever wakes on it runs the wedge
        // check, and the blame lands on the frame the child was actually
        // processing. If the head changes while this waiter is parked,
        // its registered deadline is merely early — a benign spurious
        // wake followed by re-arming against the new head's clock.
        let deadline = s.head_since.map(|since| since + this.solver.timeout);
        this.tokens[0] = Some(this.solver.reactor.register(
            proc.fd,
            Interest::Read,
            cx.waker().clone(),
            deadline,
        ));
        if !s.outbuf.is_empty() {
            this.tokens[1] = Some(this.solver.reactor.register(
                proc.stdin_fd,
                Interest::Write,
                cx.waker().clone(),
                deadline,
            ));
        }
        this.armed = true;
        Poll::Pending
    }
}

impl Drop for SessionWait<'_> {
    fn drop(&mut self) {
        for slot in &mut self.tokens {
            if let Some(token) = slot.take() {
                self.solver.reactor.deregister(token);
            }
        }
    }
}

impl SmtSolver for PipeSolver {
    fn id(&self) -> SolverId {
        self.id
    }

    fn commit(&self) -> CommitIdx {
        self.commit
    }

    fn check(&mut self, text: &str) -> SolverResponse {
        let reactor = Rc::clone(&self.reactor);
        block_on_with(self.check_async(text), move || {
            let _ = reactor.poll_io(None);
        })
    }

    fn coverage(&self) -> &CoverageMap {
        &self.empty_coverage
    }

    fn universe(&self) -> &Universe {
        self.universe
    }

    fn reset_coverage(&mut self) {}
}

// -------------------------------------------------------------------- mock

/// The deterministic mock solver: the reply logic behind
/// `crates/bench/src/bin/mock_solver.rs`.
///
/// Every decision — outcome, model values, injected latency, crash
/// injection — is a **pure hash of the script text** (plus the seeded
/// configuration), never of per-process state like a query counter. That
/// purity is what makes the serial ≡ K-in-flight equivalence law hold
/// over the pipe transport: which frames share a process, and which are
/// replayed onto a respawned one after a sibling's crash, depends on the
/// overlap width `K`, so any process-local state would leak scheduling
/// into answers.
pub mod mock {
    use super::splitmix64;
    use std::io::{BufRead, Write};

    /// Mock behavior knobs, normally parsed from argv by
    /// [`config_from_args`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MockConfig {
        /// Answer-stream seed (fold the lane in via `--lane`).
        pub seed: u64,
        /// Crash (abrupt process exit mid-reply) on scripts whose
        /// fingerprint is `0 (mod crash_mod)`; `0` disables injection.
        pub crash_mod: u64,
        /// Max injected reply latency in milliseconds (`0`: reply
        /// immediately); per-script value is seeded, not random.
        pub latency_ms: u64,
        /// Scripts containing this marker wedge the process: it reads on
        /// but never answers (exercises the per-query deadline).
        pub wedge_on: Option<String>,
        /// Force every decided answer to this token (`sat`/`unsat`/...)
        /// instead of hashing — crash/wedge injection still applies.
        pub force: Option<String>,
    }

    /// What the mock does with one `(check-sat)` request.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MockReply {
        /// Answer `token` after `latency_ms` of injected latency.
        Answer {
            /// The reply token (`sat`, `unsat`, `unknown`, `timeout`).
            token: String,
            /// Injected latency before the reply is written.
            latency_ms: u64,
        },
        /// Emit `partial` (a torn reply prefix) and exit abruptly.
        Crash {
            /// Bytes flushed before the abrupt exit.
            partial: &'static str,
        },
        /// Stop answering (but keep reading) forever.
        Wedge,
    }

    /// FNV-1a over the normalized script, finalized with SplitMix64 — the
    /// per-script fingerprint every decision derives from.
    ///
    /// Normalization strips `(set-option …)` lines (the pipe backend's
    /// prologue sits in the base scope below every frame) and surrounding
    /// whitespace, so a script answers the same on a fresh process as on
    /// one that has served many frames — without this, which frames land
    /// on a respawned process (a function of crashes and the overlap
    /// width K) would leak into answers and break the equivalence law.
    pub fn fingerprint(seed: u64, script: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x0100_0000_01b3);
        for line in script
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("(set-option"))
        {
            for &b in line.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        splitmix64(h)
    }

    /// Decides the reply for one script. Pure: equal `(config, script)`
    /// always produce equal replies, on any process, in any order.
    pub fn reply_for(config: &MockConfig, script: &str) -> MockReply {
        if let Some(marker) = &config.wedge_on {
            if !marker.is_empty() && script.contains(marker.as_str()) {
                return MockReply::Wedge;
            }
        }
        let h = fingerprint(config.seed, script);
        if config.crash_mod > 0 && h.is_multiple_of(config.crash_mod) {
            return MockReply::Crash { partial: "(mo" };
        }
        let token = match &config.force {
            Some(t) => t.clone(),
            None => match h % 100 {
                0..=44 => "sat",
                45..=89 => "unsat",
                90..=96 => "unknown",
                _ => "timeout",
            }
            .to_string(),
        };
        let latency_ms = if config.latency_ms == 0 {
            0
        } else {
            splitmix64(h ^ 0x1a7e) % (config.latency_ms + 1)
        };
        MockReply::Answer { token, latency_ms }
    }

    /// Builds the `(model ...)` reply for a script answered `sat`:
    /// seeded `Int`/`Bool` values for every `(declare-const ...)` the
    /// script contains (other sorts are skipped). The values need not
    /// satisfy the formula — an unsatisfying model is a deterministic
    /// invalid-model finding, which is a feature for the test gauntlet.
    pub fn model_for(config: &MockConfig, script: &str) -> String {
        let mut out = String::from("(model\n");
        let script_fp = fingerprint(config.seed, script);
        for (name, sort) in declared_consts(script) {
            let h = splitmix64(script_fp ^ fingerprint(7, &name));
            let value = match sort.as_str() {
                "Int" => o4a_smtlib::Value::Int((h % 21) as i128 - 10),
                "Bool" => o4a_smtlib::Value::Bool(h & 1 == 0),
                _ => continue,
            };
            out.push_str(&format!("  (define-fun {name} () {sort} {value})\n"));
        }
        out.push(')');
        out
    }

    /// Scans a script for `(declare-const name Sort)` occurrences with a
    /// simple (non-parsing) tokenizer — all the mock needs.
    fn declared_consts(script: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut rest = script;
        while let Some(at) = rest.find("(declare-const") {
            rest = &rest[at + "(declare-const".len()..];
            let mut tokens = rest
                .split(|c: char| c.is_whitespace() || c == ')')
                .filter(|t| !t.is_empty());
            if let (Some(name), Some(sort)) = (tokens.next(), tokens.next()) {
                out.push((name.to_string(), sort.to_string()));
            }
        }
        out
    }

    /// How a [`serve`] loop ended.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MockExit {
        /// stdin closed: the driver is done with this process.
        Eof,
        /// Crash injection fired: the caller should exit abruptly (the
        /// binary uses a non-zero exit code).
        Crash,
    }

    /// The mock's request loop: reads SMT-LIB requests from `input`,
    /// writes protocol replies to `output`. Requests are delimited by the
    /// commands the pipe backend sends — `(check-sat)` (answers the
    /// current scope stack), `(get-model)`, and the **strict incremental
    /// pair `(push 1)` / `(pop 1)`** the session frames every query with;
    /// anything else (options, prologue, assertions) is absorbed into the
    /// current scope's text.
    ///
    /// Scope semantics: the mock keeps a stack of script segments.
    /// `(push 1)` opens a scope, `(pop 1)` discards the top one, and a
    /// `(check-sat)` answers for the **reconstructed scope-stack script**
    /// — the concatenation of every live scope, bottom to top. Every
    /// decision is a pure function of that reconstruction (plus the
    /// seeded config), so *when* a frame is served relative to its
    /// session siblings cannot leak into its answer — the purity the
    /// serial ≡ K-in-flight law stands on. Since [`fingerprint`] strips
    /// `(set-option …)` lines, a script checked inside one pushed scope
    /// on a prologue-only base answers exactly like the bare script
    /// ([`reply_for`] and [`model_for`] of its text).
    ///
    /// # Errors
    ///
    /// I/O errors on `input`/`output` (a closed pipe ends the process
    /// anyway).
    pub fn serve(
        config: &MockConfig,
        input: impl std::io::Read,
        mut output: impl Write,
    ) -> std::io::Result<MockExit> {
        let mut reader = std::io::BufReader::new(input);
        let mut buf: Vec<u8> = Vec::new();
        let mut scopes: Vec<String> = vec![String::new()];
        let mut last_script = String::new();
        loop {
            while let Some((marker, end)) = earliest_marker(&buf) {
                let marker_len = marker.needle().len();
                let segment = String::from_utf8_lossy(&buf[..end - marker_len]).into_owned();
                buf.drain(..end);
                scopes
                    .last_mut()
                    .expect("scope stack never empties")
                    .push_str(&segment);
                match marker {
                    Marker::Push => scopes.push(String::new()),
                    Marker::Pop => {
                        scopes.pop();
                        if scopes.is_empty() {
                            // Over-popping is a driver bug; stay servable.
                            scopes.push(String::new());
                        }
                    }
                    Marker::CheckSat => {
                        let script = scopes.join("\n").trim().to_string();
                        match reply_for(config, &script) {
                            MockReply::Wedge => loop {
                                // Keep reading (so the peer's writes never
                                // block) but never answer.
                                let n = reader.fill_buf()?.len();
                                if n == 0 {
                                    return Ok(MockExit::Eof);
                                }
                                reader.consume(n);
                            },
                            MockReply::Crash { partial } => {
                                output.write_all(partial.as_bytes())?;
                                output.flush()?;
                                return Ok(MockExit::Crash);
                            }
                            MockReply::Answer { token, latency_ms } => {
                                if latency_ms > 0 {
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        latency_ms,
                                    ));
                                }
                                writeln!(output, "{token}")?;
                                output.flush()?;
                                last_script = script;
                            }
                        }
                    }
                    Marker::GetModel => {
                        writeln!(output, "{}", model_for(config, &last_script))?;
                        output.flush()?;
                    }
                }
            }
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Ok(MockExit::Eof);
            }
            let n = chunk.len();
            buf.extend_from_slice(chunk);
            reader.consume(n);
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Marker {
        CheckSat,
        GetModel,
        Push,
        Pop,
    }

    impl Marker {
        fn needle(self) -> &'static [u8] {
            match self {
                Marker::CheckSat => b"(check-sat)",
                Marker::GetModel => b"(get-model)",
                Marker::Push => b"(push 1)",
                Marker::Pop => b"(pop 1)",
            }
        }
    }

    /// Finds the earliest fully-buffered request delimiter; returns it
    /// with the index just past its closing paren.
    fn earliest_marker(buf: &[u8]) -> Option<(Marker, usize)> {
        let find = |needle: &[u8]| {
            buf.windows(needle.len())
                .position(|w| w == needle)
                .map(|i| i + needle.len())
        };
        [
            Marker::CheckSat,
            Marker::GetModel,
            Marker::Push,
            Marker::Pop,
        ]
        .into_iter()
        .filter_map(|m| find(m.needle()).map(|i| (m, i)))
        .min_by_key(|&(_, i)| i)
    }

    /// Parses the mock binary's argv (`--seed N --lane N --crash-mod N
    /// --latency-ms N --wedge-on STR --answer TOKEN`). The lane folds
    /// into the seed so differential lanes answer independently.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown or malformed flags.
    pub fn config_from_args(args: impl Iterator<Item = String>) -> Result<MockConfig, String> {
        let mut config = MockConfig::default();
        let mut lane = 0u64;
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match flag.as_str() {
                "--seed" => {
                    config.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?
                }
                "--lane" => {
                    lane = value("--lane")?
                        .parse()
                        .map_err(|e| format!("bad --lane: {e}"))?
                }
                "--crash-mod" => {
                    config.crash_mod = value("--crash-mod")?
                        .parse()
                        .map_err(|e| format!("bad --crash-mod: {e}"))?
                }
                "--latency-ms" => {
                    config.latency_ms = value("--latency-ms")?
                        .parse()
                        .map_err(|e| format!("bad --latency-ms: {e}"))?
                }
                "--wedge-on" => config.wedge_on = Some(value("--wedge-on")?),
                "--answer" => config.force = Some(value("--answer")?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        config.seed ^= lane.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::mock::{
        config_from_args, fingerprint, model_for, reply_for, serve, MockConfig, MockExit, MockReply,
    };
    use super::*;
    use o4a_smtlib::{Symbol, Value};

    // ------------------------------------------------------ reply parsing

    /// A reply stream covering every unit: an outcome line, a multi-line
    /// model with negative values and an embedded `)` inside a string,
    /// and an error line.
    const REPLY: &str = "sat\n(model\n  (define-fun x () Int (- 3))\n  \
                         (define-fun s () String \"a)b\")\n  \
                         (define-fun b () Bool true)\n)\n(error \"oops (here)\")\n";

    fn drain(parser: &mut ReplyParser) -> (Option<String>, Option<String>, Option<String>) {
        let line = parser.take_line();
        let sexp = parser.take_sexp();
        let err = parser.take_line();
        (line, sexp, err)
    }

    #[test]
    fn whole_delivery_parses() {
        let mut parser = ReplyParser::new();
        parser.feed(REPLY.as_bytes());
        let (line, sexp, err) = drain(&mut parser);
        assert_eq!(line.as_deref(), Some("sat"));
        let sexp = sexp.expect("model sexp");
        assert!(sexp.starts_with("(model"));
        assert!(sexp.ends_with(')'));
        assert!(sexp.contains("\"a)b\""));
        assert_eq!(err.as_deref(), Some("(error \"oops (here)\")"));
        assert_eq!(parser.buffered(), 0);
    }

    /// The torn-read law: replies split at **every** byte boundary (all
    /// two-way and a sweep of three-way splits) parse identically to
    /// whole-line delivery — including splits mid-token, mid-string, and
    /// mid-model.
    #[test]
    fn torn_reads_parse_identically() {
        let bytes = REPLY.as_bytes();
        let mut reference = ReplyParser::new();
        reference.feed(bytes);
        let expected = drain(&mut reference);
        for i in 0..=bytes.len() {
            let mut parser = ReplyParser::new();
            parser.feed(&bytes[..i]);
            parser.feed(&bytes[i..]);
            assert_eq!(drain(&mut parser), expected, "two-way split at {i}");
        }
        for i in (0..=bytes.len()).step_by(3) {
            for j in (i..=bytes.len()).step_by(7) {
                let mut parser = ReplyParser::new();
                parser.feed(&bytes[..i]);
                parser.feed(&bytes[i..j]);
                parser.feed(&bytes[j..]);
                assert_eq!(drain(&mut parser), expected, "three-way split {i}/{j}");
            }
        }
    }

    /// Byte-at-a-time delivery — the most extreme tearing — and no
    /// premature release at any prefix.
    #[test]
    fn byte_at_a_time_never_releases_early() {
        let bytes = REPLY.as_bytes();
        let mut parser = ReplyParser::new();
        let mut units: Vec<String> = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            parser.feed(&[b]);
            // The outcome line completes exactly at its newline.
            if units.is_empty() {
                if let Some(line) = parser.take_line() {
                    assert_eq!(i, REPLY.find('\n').unwrap(), "line released early/late");
                    units.push(line);
                }
            } else if units.len() == 1 {
                if let Some(sexp) = parser.take_sexp() {
                    units.push(sexp);
                }
            }
        }
        assert_eq!(units[0], "sat");
        assert!(units[1].contains("define-fun b"));
    }

    #[test]
    fn model_reply_round_trips_values() {
        let model = parse_model_reply(
            "(model\n  (define-fun x () Int (- 3))\n  (define-fun y () Int 7)\n  \
             (define-fun b () Bool true)\n)",
        )
        .expect("parse");
        assert_eq!(model.get_const(&Symbol::new("x")), Some(&Value::Int(-3)));
        assert_eq!(model.get_const(&Symbol::new("y")), Some(&Value::Int(7)));
        assert_eq!(model.get_const(&Symbol::new("b")), Some(&Value::Bool(true)));
    }

    #[test]
    fn bare_z3_style_model_reply_parses() {
        let model = parse_model_reply("(\n  (define-fun x () Int 2)\n)").expect("bare model form");
        assert_eq!(model.get_const(&Symbol::new("x")), Some(&Value::Int(2)));
        // And an empty model is a model.
        assert_eq!(parse_model_reply("(model\n)").expect("empty").len(), 0);
    }

    #[test]
    fn pipe_command_parses_and_substitutes_lanes() {
        let cmd = PipeCommand::parse("mock_solver --seed 7 --lane {lane}").unwrap();
        assert_eq!(cmd.program(), "mock_solver");
        assert_eq!(cmd.for_lane(3).args(), ["--seed", "7", "--lane", "3"]);
        assert_eq!(PipeCommand::parse("  \t "), None);
    }

    // ------------------------------------------------------------- mock

    #[test]
    fn mock_replies_are_pure_functions_of_the_script() {
        let config = MockConfig {
            seed: 42,
            latency_ms: 5,
            ..MockConfig::default()
        };
        let script = "(declare-const x Int)(assert (> x 0))(check-sat)";
        assert_eq!(reply_for(&config, script), reply_for(&config, script));
        // Leading/trailing whitespace (what request segmentation can
        // add) never changes the answer.
        assert_eq!(
            reply_for(&config, &format!("\n\n{script}\n")),
            reply_for(&config, script)
        );
        // Different lanes answer independently.
        let lane0 = config_from_args(
            ["--seed", "42", "--lane", "0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let lane1 = config_from_args(
            ["--seed", "42", "--lane", "1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_ne!(
            fingerprint(lane0.seed, script),
            fingerprint(lane1.seed, script)
        );
    }

    #[test]
    fn mock_outcomes_cover_the_protocol() {
        let config = MockConfig {
            seed: 7,
            ..MockConfig::default()
        };
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let script = format!("(assert (= {i} {i}))(check-sat)");
            if let MockReply::Answer { token, .. } = reply_for(&config, &script) {
                seen.insert(token);
            }
        }
        for token in ["sat", "unsat", "unknown", "timeout"] {
            assert!(seen.contains(token), "{token} never drawn in 200 scripts");
        }
    }

    #[test]
    fn mock_crash_injection_is_deterministic() {
        let config = MockConfig {
            seed: 13,
            crash_mod: 4,
            ..MockConfig::default()
        };
        let crashes: Vec<bool> = (0..64)
            .map(|i| {
                let script = format!("(assert (> x {i}))(check-sat)");
                matches!(reply_for(&config, &script), MockReply::Crash { .. })
            })
            .collect();
        assert!(crashes.iter().any(|&c| c), "crash-mod 4 never fired in 64");
        assert!(!crashes.iter().all(|&c| c), "crash-mod 4 always fired");
        let again: Vec<bool> = (0..64)
            .map(|i| {
                let script = format!("(assert (> x {i}))(check-sat)");
                matches!(reply_for(&config, &script), MockReply::Crash { .. })
            })
            .collect();
        assert_eq!(crashes, again);
    }

    #[test]
    fn mock_serve_speaks_the_wire_protocol_in_memory() {
        let config = MockConfig {
            seed: 1,
            force: Some("sat".into()),
            ..MockConfig::default()
        };
        let request = "(declare-const x Int)(assert (> x 1))(check-sat)\n(get-model)\n";
        let mut output = Vec::new();
        let exit = serve(&config, request.as_bytes(), &mut output).unwrap();
        assert_eq!(exit, MockExit::Eof);
        let mut parser = ReplyParser::new();
        parser.feed(&output);
        assert_eq!(parser.take_line().as_deref(), Some("sat"));
        let model = parse_model_reply(&parser.take_sexp().expect("model reply")).unwrap();
        assert!(
            model.get_const(&Symbol::new("x")).is_some(),
            "declared const interpreted"
        );
    }

    #[test]
    fn mock_model_values_are_seeded_and_stable() {
        let config = MockConfig {
            seed: 3,
            ..MockConfig::default()
        };
        let script = "(declare-const a Int)(declare-const p Bool)(check-sat)";
        let a = model_for(&config, script);
        assert_eq!(a, model_for(&config, script));
        let model = parse_model_reply(&a).unwrap();
        assert!(model.get_const(&Symbol::new("a")).is_some());
        assert!(model.get_const(&Symbol::new("p")).is_some());
    }

    // ------------------------------------------- live processes (POSIX sh)

    fn lane(cmdline: &str) -> PipeSolver {
        PipeSolver::standalone(
            PipeCommand::parse(cmdline).unwrap(),
            SolverId::OxiZ,
            crate::TRUNK_COMMIT,
        )
    }

    #[test]
    fn wedged_process_is_killed_at_the_deadline() {
        // `sleep` reads nothing and answers nothing: only the per-query
        // deadline can end this check.
        let mut solver = lane("sleep 30").with_timeout(Duration::from_millis(120));
        let started = Instant::now();
        let response = solver.check("(check-sat)");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "deadline did not fire"
        );
        match response.outcome {
            Outcome::Crash(info) => {
                assert_eq!(info.signature, "oxiz::pipe::wedged");
                assert_eq!(info.kind, CrashKind::InternalException);
            }
            other => panic!("expected wedge crash, got {other}"),
        }
        assert_eq!(solver.respawns(), 1);
        // The wedged child must actually be gone, and the next query gets
        // a fresh process.
        let before = solver.processes_spawned();
        let _ = solver.check("(check-sat)");
        assert_eq!(solver.processes_spawned(), before + 1);
    }

    #[test]
    fn child_that_stops_reading_stdin_cannot_hang_the_worker() {
        // `sleep` never reads its stdin. With a script larger than the
        // pipe's capacity, a blocking writer would stall in write(2)
        // forever; the session's frame stays queued behind non-blocking
        // writes, so the per-query deadline fires and reports a wedge.
        let mut solver = lane("sleep 30").with_timeout(Duration::from_millis(250));
        let huge = format!(
            "(assert (= 1 1)) ; {}\n(check-sat)",
            "x".repeat(4 * 1024 * 1024) // » any pipe buffer
        );
        let started = Instant::now();
        let response = solver.check(&huge);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "write-side wedge hung past the deadline"
        );
        match response.outcome {
            Outcome::Crash(info) => assert_eq!(info.signature, "oxiz::pipe::wedged"),
            other => panic!("expected wedge crash, got {other}"),
        }
    }

    #[test]
    fn unsat_line_from_a_plain_process_parses() {
        // An `echo`-style one-shot "solver".
        let mut solver = lane("echo unsat");
        let response = solver.check("(assert false)(check-sat)");
        assert_eq!(response.outcome, Outcome::Unsat);
    }

    // --------------------------------------------- multiplexed streams

    /// A session stream interleaves several pending scopes' replies on
    /// one pipe: verdict line, model s-expression, verdict line, model
    /// s-expression, … The torn-read law must hold for the whole
    /// multiplexed stream: splits at **every** byte boundary (all
    /// two-way, plus a three-way sweep) release exactly the same units.
    #[test]
    fn multiplexed_session_replies_parse_identically_under_torn_reads() {
        // Three frames' worth of replies, with the adversarial content
        // of the single-reply sweep: negative values, a `)` inside a
        // string, a model for a non-sat verdict (session frames always
        // carry a model slot).
        let stream = "sat\n(model\n  (define-fun x () Int (- 3))\n  \
                      (define-fun s () String \"a)b\")\n)\n\
                      unsat\n(model\n)\n\
                      timeout\n(model\n  (define-fun b () Bool true)\n)\n";
        let bytes = stream.as_bytes();
        // The session reply discipline: line, sexp, line, sexp, ...
        fn drain_frames(parser: &mut ReplyParser) -> Vec<(Option<String>, Option<String>)> {
            (0..3)
                .map(|_| (parser.take_line(), parser.take_sexp()))
                .collect()
        }
        let mut reference = ReplyParser::new();
        reference.feed(bytes);
        let expected = drain_frames(&mut reference);
        assert!(
            expected.iter().all(|(l, s)| l.is_some() && s.is_some()),
            "reference stream must hold three complete frames"
        );
        assert_eq!(reference.buffered(), 1, "trailing newline stays buffered");
        for i in 0..=bytes.len() {
            let mut parser = ReplyParser::new();
            parser.feed(&bytes[..i]);
            parser.feed(&bytes[i..]);
            assert_eq!(drain_frames(&mut parser), expected, "two-way split at {i}");
        }
        for i in (0..=bytes.len()).step_by(3) {
            for j in (i..=bytes.len()).step_by(7) {
                let mut parser = ReplyParser::new();
                parser.feed(&bytes[..i]);
                parser.feed(&bytes[i..j]);
                parser.feed(&bytes[j..]);
                assert_eq!(
                    drain_frames(&mut parser),
                    expected,
                    "three-way split {i}/{j}"
                );
            }
        }
    }

    /// No frame releases early: a partial second verdict (or a model with
    /// an unbalanced paren) stays buffered while the first frame is
    /// already claimable.
    #[test]
    fn pending_frame_never_borrows_from_an_incomplete_sibling() {
        let mut parser = ReplyParser::new();
        parser.feed(b"sat\n(model (define-fun x () Int 1))\nunsa");
        assert_eq!(parser.take_line().as_deref(), Some("sat"));
        assert!(parser.take_sexp().is_some());
        assert_eq!(parser.take_line(), None, "torn 'unsat' must not release");
        parser.feed(b"t\n(model (define-fun y () Int 2)");
        assert_eq!(parser.take_line().as_deref(), Some("unsat"));
        assert_eq!(parser.take_sexp(), None, "unbalanced model must wait");
        parser.feed(b")\n");
        assert!(parser.take_sexp().unwrap().contains("define-fun y"));
    }

    // ------------------------------------------------- mock scope stack

    /// The mock answers a session frame (`(push 1)` script `(get-model)`
    /// `(pop 1)` on a prologue-only base) exactly as [`reply_for`] and
    /// [`model_for`] answer the bare script — what a freshly spawned
    /// process sent only that script would say. The reconstructed
    /// scope-stack script is what gets fingerprinted (the text up to the
    /// `(check-sat)`), and the prologue and framing commands never reach
    /// the hash.
    #[test]
    fn mock_session_frames_answer_like_spawn_requests() {
        let config = MockConfig {
            seed: 23,
            ..MockConfig::default()
        };
        let bodies = [
            "(declare-const x Int)\n(assert (> x 3))",
            "(declare-const p Bool)\n(assert p)",
            "(assert (= 1 2))",
            "(declare-const y Int)\n(assert (< y 0))",
        ];
        let mut request = String::from("(set-option :produce-models true)\n");
        for body in &bodies {
            let frame = PipeSolver::frame(&format!("{body}\n(check-sat)"));
            request.push_str(std::str::from_utf8(&frame).unwrap());
        }
        let mut output = Vec::new();
        serve(&config, request.as_bytes(), &mut output).unwrap();
        let mut parser = ReplyParser::new();
        parser.feed(&output);
        let mut verdicts = std::collections::BTreeSet::new();
        for (i, body) in bodies.iter().enumerate() {
            let MockReply::Answer { token, .. } = reply_for(&config, body) else {
                panic!("script {i} must be answered");
            };
            assert_eq!(
                parser.take_line().as_ref(),
                Some(&token),
                "verdict of script {i}"
            );
            assert_eq!(
                parser.take_sexp(),
                Some(model_for(&config, body)),
                "model of script {i}"
            );
            verdicts.insert(token);
        }
        assert_eq!(parser.take_line(), None, "one reply per frame");
        assert!(verdicts.len() > 1, "the sweep drew one verdict only");
    }

    /// Scope reconstruction is a stack: a check-sat inside a pushed
    /// scope sees base + scope, and after the pop the same base-level
    /// script answers as if the scope never existed.
    #[test]
    fn mock_scope_stack_reconstructs_and_unwinds() {
        let config = MockConfig {
            seed: 9,
            ..MockConfig::default()
        };
        let base = "(declare-const x Int)\n(assert (> x 0))";
        let extra = "(assert (< x 10))";
        // One session: check base, then check base+extra inside a scope,
        // then check base again after the pop.
        let request =
            format!("{base}\n(check-sat)\n(push 1)\n{extra}\n(check-sat)\n(pop 1)\n(check-sat)\n");
        let mut output = Vec::new();
        serve(&config, request.as_bytes(), &mut output).unwrap();
        let mut parser = ReplyParser::new();
        parser.feed(&output);
        let first = parser.take_line().unwrap();
        let stacked = parser.take_line().unwrap();
        let unwound = parser.take_line().unwrap();
        // The base-only verdicts agree with reply_for of the base text...
        let expect = |script: &str| match reply_for(&config, script) {
            MockReply::Answer { token, .. } => token,
            other => panic!("expected an answer, got {other:?}"),
        };
        assert_eq!(first, expect(base));
        assert_eq!(unwound, expect(base), "pop must unwind the scope");
        // ...and the stacked verdict hashes the joined stack.
        assert_eq!(stacked, expect(&format!("{base}\n{extra}")));
    }

    // --------------------------------------------- live session lanes

    /// A POSIX-sh responder that speaks the session protocol: `sat` for
    /// every `(check-sat)` line, an empty model for every `(get-model)`.
    /// Commands must arrive on their own lines (the tests' scripts put
    /// `(check-sat)` on one).
    const SH_SESSION_SOLVER: &str = r#"while read -r line; do
        case "$line" in
            "(check-sat)") echo sat;;
            "(get-model)") echo "(model )";;
        esac
    done"#;

    fn sh_session_lane() -> PipeSolver {
        PipeSolver::standalone(
            PipeCommand {
                program: "sh".into(),
                args: vec!["-c".into(), SH_SESSION_SOLVER.into()],
            },
            SolverId::OxiZ,
            crate::TRUNK_COMMIT,
        )
    }

    #[test]
    fn session_reuses_one_process_across_queries() {
        let mut solver = sh_session_lane();
        for i in 0..3 {
            let response = solver.check(&format!("(assert (> x {i}))\n(check-sat)"));
            assert_eq!(response.outcome, Outcome::Sat, "query {i}");
        }
        assert_eq!(
            solver.processes_spawned(),
            1,
            "one persistent process serves every query"
        );
        assert_eq!(solver.respawns(), 0);
        assert_eq!(solver.scopes_pushed(), 3, "one (push 1) scope per query");
    }

    #[test]
    fn session_multiplexes_overlapped_queries_on_one_process() {
        use o4a_executor::InFlightPool;
        let solver = sh_session_lane();
        let reactor = Rc::clone(solver.reactor());
        let texts: Vec<String> = (0..4)
            .map(|i| format!("(assert (> x {i}))\n(check-sat)"))
            .collect();
        let mut pool: InFlightPool<SolverResponse> = InFlightPool::new(4);
        for (i, text) in texts.iter().enumerate() {
            pool.submit(i as u64, solver.check_async(text));
        }
        let mut done = 0;
        while !pool.is_empty() {
            for (_, response) in pool.wait_any_with(|| {
                reactor.poll_io(None).unwrap();
            }) {
                assert_eq!(response.outcome, Outcome::Sat);
                done += 1;
            }
        }
        assert_eq!(done, 4);
        assert_eq!(
            solver.processes_spawned(),
            1,
            "four in-flight scopes share one process"
        );
        assert_eq!(solver.scopes_pushed(), 4);
    }

    /// The per-query timeout is a **service clock**: frames queued
    /// behind slow-but-answering siblings on the one session stream must
    /// not be blamed as wedged just because their wait in the queue
    /// exceeds the timeout. Four frames at ~300 ms of service each take
    /// ~1.2 s total — past the 600 ms timeout from any enqueue-based
    /// view — yet every one answers, with zero respawns.
    #[test]
    fn session_queue_wait_does_not_count_against_the_wedge_deadline() {
        use o4a_executor::InFlightPool;
        let responder = r#"while read -r line; do
            case "$line" in
                "(check-sat)") sleep 0.3; echo sat;;
                "(get-model)") echo "(model )";;
            esac
        done"#;
        let solver = PipeSolver::standalone(
            PipeCommand {
                program: "sh".into(),
                args: vec!["-c".into(), responder.into()],
            },
            SolverId::OxiZ,
            crate::TRUNK_COMMIT,
        )
        .with_timeout(Duration::from_millis(600));
        let reactor = Rc::clone(solver.reactor());
        let texts: Vec<String> = (0..4)
            .map(|i| format!("(assert (> x {i}))\n(check-sat)"))
            .collect();
        let mut pool: InFlightPool<SolverResponse> = InFlightPool::new(4);
        for (i, text) in texts.iter().enumerate() {
            pool.submit(i as u64, solver.check_async(text));
        }
        while !pool.is_empty() {
            for (i, response) in pool.wait_any_with(|| {
                reactor.poll_io(None).unwrap();
            }) {
                assert_eq!(
                    response.outcome,
                    Outcome::Sat,
                    "queued frame {i} was blamed for its siblings' service time"
                );
            }
        }
        assert_eq!(solver.respawns(), 0, "no frame may be spuriously wedged");
        assert_eq!(solver.processes_spawned(), 1);
    }

    /// A verdict that already crossed the pipe survives the child's
    /// death: dying between the verdict line and the model s-expression
    /// costs the model, never the verdict — the same contract the spawn
    /// transport keeps for its model round trip.
    #[test]
    fn session_verdict_survives_death_before_the_model() {
        let mut solver = PipeSolver::standalone(
            PipeCommand {
                program: "sh".into(),
                args: vec![
                    "-c".into(),
                    // Answer the first (check-sat) with a verdict, then
                    // die before the model slot.
                    r#"while read -r line; do
                        case "$line" in "(check-sat)") echo sat; exit 0;; esac
                    done"#
                        .into(),
                ],
            },
            SolverId::OxiZ,
            crate::TRUNK_COMMIT,
        );
        let response = solver.check("(assert true)\n(check-sat)");
        assert_eq!(
            response.outcome,
            Outcome::Sat,
            "a received verdict must not be rewritten into a crash finding"
        );
        assert_eq!(response.model, None, "the model died with the child");
        assert_eq!(
            solver.respawns(),
            1,
            "the dead child still counts as a lost process"
        );
    }

    #[test]
    fn session_process_death_is_a_crash_finding_and_lane_recovers() {
        // `true` exits immediately: the first query dies, the next one
        // respawns the session (against `true` again, so it dies too —
        // what recovers is the *lane*, not the binary).
        let mut solver = lane("true");
        let response = solver.check("(assert true)\n(check-sat)");
        match response.outcome {
            Outcome::Crash(info) => {
                assert_eq!(info.signature, "oxiz::pipe::process-died");
                assert_eq!(info.kind, CrashKind::SegFault);
            }
            other => panic!("expected crash, got {other}"),
        }
        assert_eq!(solver.respawns(), 1);
        let before = solver.processes_spawned();
        let _ = solver.check("(check-sat)");
        assert_eq!(
            solver.processes_spawned(),
            before + 1,
            "the lane respawns the session for the next query"
        );
    }

    #[test]
    fn session_error_verdict_maps_to_parse_error_and_retires_the_child() {
        let mut solver = PipeSolver::standalone(
            PipeCommand {
                program: "sh".into(),
                args: vec!["-c".into(), r#"printf '(error "out of memory")\n'"#.into()],
            },
            SolverId::Cervo,
            crate::TRUNK_COMMIT,
        );
        let response = solver.check("(check-sat)");
        assert_eq!(
            response.outcome,
            Outcome::ParseError("out of memory".into())
        );
        assert_eq!(solver.respawns(), 1, "an error desyncs the stream");
    }

    #[test]
    fn session_spawn_failure_is_an_error_response() {
        let mut solver = lane("/nonexistent/solver-binary");
        for _ in 0..2 {
            let response = solver.check("(check-sat)");
            assert!(matches!(response.outcome, Outcome::ParseError(_)));
        }
        assert_eq!(
            solver.processes_spawned(),
            0,
            "each query retries the spawn"
        );
    }

    /// A child that answers a verdict and then babbles — `yes` prints `y`
    /// forever — can never fill the model slot. The lane retires it as
    /// soon as the slot opens with anything but `(`, with the response
    /// the deadline would give, instead of buffering the stream until the
    /// deadline.
    #[test]
    fn babbling_child_is_retired_without_waiting_for_the_deadline() {
        let mut solver = lane("yes").with_timeout(Duration::from_secs(30));
        let started = Instant::now();
        let response = solver.check("(check-sat)");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a babbling child held the query for {:?}",
            started.elapsed()
        );
        assert_eq!(
            response.outcome,
            Outcome::ParseError("unrecognized solver reply 'y'".into())
        );
        assert_eq!(solver.respawns(), 1);
    }

    /// A model slot that opens and never closes — `yes (` prints `(`
    /// forever — is cut off at [`MAX_REPLY_BYTES`]: bounded memory, and
    /// the query returns long before its deadline.
    #[test]
    fn unclosed_model_slot_is_retired_at_the_reply_cap() {
        let mut solver = lane("yes (").with_timeout(Duration::from_secs(30));
        let started = Instant::now();
        let response = solver.check("(check-sat)");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "an unclosed model slot held the query for {:?}",
            started.elapsed()
        );
        assert_eq!(
            response.outcome,
            Outcome::ParseError("unrecognized solver reply '('".into())
        );
        assert_eq!(solver.respawns(), 1);
    }

    /// Canonical session replies: a verdict line, then the model slot —
    /// a `(model …)` with a negative value, a `)` and a `""` inside a
    /// string, an empty model, and an error line that ends the reply.
    const SESSION_REPLIES: [&str; 4] = [
        "sat\n(model\n  (define-fun x () Int (- 3))\n  \
         (define-fun s () String \"a)\"\"b\")\n)\n",
        "unsat\n(model\n)\n",
        "unknown\n(model\n  (define-fun p () Bool true)\n)\n",
        "(error \"oops (here)\")\n",
    ];

    /// What one read of a session reply can give, the way a lane reads
    /// it: wait for more bytes, an error line, a verdict with its model
    /// slot, or the documented retirement (a model slot that can never
    /// open, or more than [`MAX_REPLY_BYTES`] unconsumed).
    #[derive(Debug, PartialEq)]
    enum Read {
        Waiting,
        Error(String),
        Answered(String, String),
        Retire,
    }

    fn read_reply(parser: &mut ReplyParser, verdict: &mut Option<String>) -> Read {
        if verdict.is_none() {
            *verdict = parser.take_line();
        }
        let Some(line) = verdict.as_deref() else {
            return if parser.overflowed() {
                Read::Retire
            } else {
                Read::Waiting
            };
        };
        if line.starts_with("(error") {
            return Read::Error(error_message(line));
        }
        match parser.take_sexp() {
            Some(sexp) => Read::Answered(verdict.take().expect("read above"), sexp),
            None if parser.overflowed() || parser.sexp_impossible() => Read::Retire,
            None => Read::Waiting,
        }
    }

    /// A splitmix64 stream: the sweeps' seeded source of flips and splits.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn hostile_replies_truncated_at_every_offset_wait() {
        for reply in SESSION_REPLIES {
            let bytes = reply.as_bytes();
            let mut parser = ReplyParser::new();
            parser.feed(bytes);
            let expected = read_reply(&mut parser, &mut None);
            assert!(matches!(expected, Read::Answered(..) | Read::Error(_)));
            // A cut before the reply completes — a line at its newline, a
            // model slot at its closing paren — waits: a valid prefix is
            // never retired and never releases a unit early.
            let last = if expected == Read::Error(error_message(reply)) {
                bytes.len()
            } else {
                reply.trim_end().len()
            };
            for cut in 0..bytes.len() {
                let mut parser = ReplyParser::new();
                parser.feed(&bytes[..cut]);
                let got = read_reply(&mut parser, &mut None);
                if cut < last {
                    assert_eq!(got, Read::Waiting, "{reply:?} cut at {cut}");
                } else {
                    assert_eq!(got, expected, "{reply:?} cut at {cut}");
                }
                assert!(parser.buffered() <= cut);
            }
        }
    }

    #[test]
    fn hostile_replies_with_seeded_bit_flips_degrade_as_documented() {
        let mut state = 0x0f11_9b17;
        let (mut answered, mut retired) = (0, 0);
        for round in 0..4000 {
            let mut bytes = SESSION_REPLIES[round % SESSION_REPLIES.len()]
                .as_bytes()
                .to_vec();
            for _ in 0..1 + splitmix(&mut state) % 3 {
                let at = (splitmix(&mut state) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (splitmix(&mut state) % 8);
            }
            let mut parser = ReplyParser::new();
            let mut verdict = None;
            let mut fed = 0;
            for chunk in bytes.chunks(1 + (splitmix(&mut state) % 9) as usize) {
                parser.feed(chunk);
                fed += chunk.len();
                assert!(parser.buffered() <= fed);
                match read_reply(&mut parser, &mut verdict) {
                    Read::Waiting => continue,
                    Read::Error(_) => {}
                    Read::Answered(line, sexp) => {
                        answered += 1;
                        assert!(!line.is_empty() && !line.contains('\n'));
                        assert!(sexp.starts_with('(') && sexp.ends_with(')'), "{sexp:?}");
                    }
                    Read::Retire => retired += 1,
                }
                break;
            }
        }
        assert!(
            answered > 0 && retired > 0,
            "{answered} answered, {retired} retired"
        );
    }

    #[test]
    fn hostile_replies_one_byte_past_the_cap_retire() {
        // An unterminated verdict line and an unclosed model slot, each
        // one byte past the cap: the buffer stops there and the read
        // retires; at the cap it still waits.
        for (verdict, filler) in [(None, b'a'), (Some("sat".to_string()), b'(')] {
            for len in [MAX_REPLY_BYTES, MAX_REPLY_BYTES + 1] {
                let mut parser = ReplyParser::new();
                let flood = io::Read::take(io::repeat(filler), len as u64);
                assert_eq!(parser.fill(flood).unwrap(), Some(len));
                let mut verdict = verdict.clone();
                let read = read_reply(&mut parser, &mut verdict);
                let want = if len > MAX_REPLY_BYTES {
                    Read::Retire
                } else {
                    Read::Waiting
                };
                assert_eq!(read, want, "{len} bytes of {:?}", filler as char);
                assert!(parser.buffered() <= MAX_REPLY_BYTES + 1);
            }
        }
    }

    #[test]
    fn fill_stops_one_byte_past_the_reply_cap() {
        let mut parser = ReplyParser::new();
        let mut flood = std::io::repeat(b'(');
        assert_eq!(parser.fill(&mut flood).unwrap(), Some(MAX_REPLY_BYTES + 1));
        assert!(parser.overflowed());
        assert_eq!(
            parser.fill(&mut flood).unwrap(),
            None,
            "a full buffer reads nothing"
        );
        assert_eq!(parser.take_sexp(), None);
    }

    // ------------------------------------------ verdict cache: key purity

    fn key_of(script: &str) -> CacheKey {
        CacheKey {
            solver: "oxiz".into(),
            commit: crate::TRUNK_COMMIT,
            command: "mock_solver --seed 7 --lane 0".into(),
            script: normalized_script(script),
        }
    }

    /// A multi-line script whose lines exercise every normalization
    /// rule: indentation, interior blank lines, a transport prologue
    /// line, trailing whitespace.
    const KEY_SCRIPT: &str = "(set-logic QF_LIA)\n(declare-const x Int)\n\
                              (declare-const y Int)\n(assert (> x 0))\n\
                              (assert (< y 10))\n(assert (= (+ x y) 7))\n(check-sat)";

    #[test]
    fn normalized_script_strips_exactly_the_transport_noise() {
        // Prologue lines, padding, and indentation vanish...
        let noisy =
            "(set-option :produce-models true)\n\n  (assert (> x 0))  \n\n\t(check-sat)\n\n";
        assert_eq!(normalized_script(noisy), "(assert (> x 0))\n(check-sat)");
        // ...but content is untouched: no reordering, no case folding.
        assert_eq!(
            normalized_script("(check-sat)\n(assert p)"),
            "(check-sat)\n(assert p)"
        );
    }

    /// Satellite property: the cache key is a pure function of the
    /// **reconstructed scope-stack script**. Sweep every way of cutting
    /// the script into stacked scopes at line boundaries (all two-way
    /// cuts, plus a three-way sweep); the stack joins with `\n` exactly
    /// like the solver-side reconstruction, and every layout must yield
    /// the one key the whole script yields — and the same mock
    /// fingerprint, which ties key identity to answer identity.
    #[test]
    fn cache_key_is_pure_under_scope_replay_sweeps() {
        let reference = key_of(KEY_SCRIPT);
        let lines: Vec<&str> = KEY_SCRIPT.lines().collect();
        let stack_key = |scopes: &[&[&str]]| {
            let joined = scopes
                .iter()
                .map(|scope| scope.join("\n"))
                .collect::<Vec<String>>()
                .join("\n");
            (key_of(&joined), fingerprint(7, &joined))
        };
        let expected_fp = fingerprint(7, KEY_SCRIPT);
        for i in 0..=lines.len() {
            let (key, fp) = stack_key(&[&lines[..i], &lines[i..]]);
            assert_eq!(key, reference, "two-scope cut at line {i}");
            assert_eq!(fp, expected_fp, "fingerprint diverged at cut {i}");
            assert_eq!(key.digest(), reference.digest());
            for j in i..=lines.len() {
                let (key, _) = stack_key(&[&lines[..i], &lines[i..j], &lines[j..]]);
                assert_eq!(key, reference, "three-scope cut {i}/{j}");
            }
        }
    }

    /// Satellite property, torn-frame half: whitespace padding between
    /// scopes, prologue `(set-option …)` lines injected at any line
    /// boundary, and indentation (what framing, replays, and held-prefix
    /// layouts can add around the text) never mint a second key for the
    /// same semantic query.
    #[test]
    fn cache_key_is_pure_under_torn_frame_padding() {
        let reference = key_of(KEY_SCRIPT);
        let lines: Vec<&str> = KEY_SCRIPT.lines().collect();
        for i in 0..=lines.len() {
            for noise in ["", "\n\n", "  \t \n", "(set-option :produce-models true)\n"] {
                let mut padded = String::new();
                for (n, line) in lines.iter().enumerate() {
                    if n == i {
                        padded.push_str(noise);
                    }
                    padded.push_str("   ");
                    padded.push_str(line);
                    padded.push_str("  \n");
                }
                if i == lines.len() {
                    padded.push_str(noise);
                }
                assert_eq!(key_of(&padded), reference, "noise {noise:?} at line {i}");
            }
        }
    }

    /// Every field of the key separates queries: same script under a
    /// different solver, commit, or resolved command line is a different
    /// key (and digest) — a differently seeded mock is a different
    /// answer function and must never alias.
    #[test]
    fn cache_key_fields_all_separate() {
        let base = key_of(KEY_SCRIPT);
        let variants = [
            CacheKey {
                solver: "cervo".into(),
                ..base.clone()
            },
            CacheKey {
                commit: base.commit + 1,
                ..base.clone()
            },
            CacheKey {
                command: "mock_solver --seed 7 --lane 1".into(),
                ..base.clone()
            },
            CacheKey {
                script: normalized_script("(assert false)\n(check-sat)"),
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, base, "variant {i} aliased the base key");
            assert_ne!(v.digest(), base.digest(), "variant {i} digest collided");
        }
        // Field boundaries are hashed: moving a byte across the
        // solver/command seam changes the digest.
        let shifted = CacheKey {
            solver: "oxizm".into(),
            command: "ock_solver --seed 7 --lane 0".into(),
            ..base.clone()
        };
        assert_ne!(shifted.digest(), base.digest(), "field seam collapsed");
    }

    // ------------------------------------------ verdict cache: transport

    /// An in-memory [`VerdictCache`] for transport tests: a plain map
    /// plus lookup/record counters.
    #[derive(Default)]
    struct MemCache {
        entries: RefCell<std::collections::BTreeMap<CacheKey, CachedReply>>,
        recorded: Cell<u64>,
    }

    impl VerdictCache for MemCache {
        fn lookup(&self, key: &CacheKey) -> Option<CachedReply> {
            self.entries.borrow().get(key).cloned()
        }
        fn record(&self, key: &CacheKey, reply: &CachedReply) {
            self.recorded.set(self.recorded.get() + 1);
            self.entries.borrow_mut().insert(key.clone(), reply.clone());
        }
    }

    #[test]
    fn session_cache_hit_reproduces_the_fresh_response() {
        let cache = Rc::new(MemCache::default());
        let mut solver = sh_session_lane().with_cache(Rc::clone(&cache) as Rc<dyn VerdictCache>);
        let script = "(assert (> x 1))\n(check-sat)";
        let fresh = solver.check(script);
        assert_eq!(fresh.outcome, Outcome::Sat);
        assert_eq!((solver.cache_hits(), solver.cache_misses()), (0, 1));
        assert_eq!(cache.recorded.get(), 1);
        let (pushed, spawned) = (solver.scopes_pushed(), solver.processes_spawned());
        let hit = solver.check(script);
        assert_eq!(hit, fresh, "a hit must be bit-identical to the fresh solve");
        assert_eq!(
            (solver.scopes_pushed(), solver.processes_spawned()),
            (pushed, spawned),
            "a hit must not touch a process or occupy a session frame"
        );
        assert_eq!((solver.cache_hits(), solver.cache_misses()), (1, 1));
        assert_eq!(cache.recorded.get(), 1, "hits are not re-recorded");
        // Padding the script re-hits the same entry: the key is the
        // normalized script, not the raw text.
        let padded = solver.check("\n  (assert (> x 1))\n\n(check-sat)  \n");
        assert_eq!(padded, fresh);
        assert_eq!(solver.cache_hits(), 2);
    }

    #[test]
    fn cached_death_replays_the_crash_finding_without_a_respawn() {
        let cache = Rc::new(MemCache::default());
        let mut solver = lane("true").with_cache(Rc::clone(&cache) as Rc<dyn VerdictCache>);
        let script = "(assert true)\n(check-sat)";
        let fresh = solver.check(script);
        assert!(matches!(fresh.outcome, Outcome::Crash(_)));
        assert_eq!(solver.respawns(), 1);
        let hit = solver.check(script);
        assert_eq!(hit, fresh, "the crash finding must replay exactly");
        assert_eq!(
            solver.respawns(),
            1,
            "replaying a cached death is not a process loss"
        );
        assert_eq!(solver.cache_hits(), 1);
    }

    #[test]
    fn spawn_failures_are_never_cached() {
        let cache = Rc::new(MemCache::default());
        let mut solver = lane("/nonexistent/solver-binary")
            .with_cache(Rc::clone(&cache) as Rc<dyn VerdictCache>);
        let response = solver.check("(check-sat)");
        assert!(matches!(response.outcome, Outcome::ParseError(_)));
        assert_eq!(
            cache.recorded.get(),
            0,
            "environmental failure must not poison the store"
        );
        // Both attempts miss: the failure is retried, never replayed.
        let _ = solver.check("(check-sat)");
        assert_eq!(solver.cache_misses(), 2);
        assert_eq!(solver.cache_hits(), 0);
    }
}

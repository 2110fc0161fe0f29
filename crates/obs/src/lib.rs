//! Deterministic-safe observability for the Once4All stack.
//!
//! Everything here is built around one invariant: **observation must
//! never perturb the campaign**. The engine's serial ≡ any-topology
//! bit-identity law means a traced run must produce the same findings,
//! coverage, and hourly series as an untraced one — so this crate only
//! ever *reads* wall-clock time (never feeds it back into scheduling),
//! buffers into bounded per-thread rings (never blocks the recording
//! thread on I/O), and defers all file writes to explicit [`drain`]
//! points at campaign/worker shutdown.
//!
//! Four layers:
//!
//! - [`trace`] — spans and instant events into thread-local ring
//!   buffers, drained to per-process JSONL files and mergeable into one
//!   Chrome trace-event document across a distributed fleet.
//! - [`metrics`] — named counters and log2-bucket histograms, captured
//!   as [`metrics::MetricsSnapshot`]s that merge losslessly and ride on
//!   dist `progress`/`done` frames.
//! - [`json`] — the workspace's serde-free line-JSON codec (also used
//!   by the findings store and the dist wire protocol; re-exported by
//!   `o4a-exec` for compatibility).
//! - [`journal`] — the durable JSONL journal framing (header check,
//!   fsync'd appends, torn-tail replay) under the findings store and the
//!   verdict cache.
//!
//! Both tracing and metrics are off by default; when off, every entry
//! point is one relaxed atomic load. Enable programmatically with
//! [`install`] (tests, embedding) or from `O4A_TRACE` / `O4A_METRICS`
//! with [`init_from_env`] (binaries).

pub mod journal;
pub mod json;
pub mod metrics;
pub mod serve;
pub mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What to observe and where drained files go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record trace spans/events.
    pub trace: bool,
    /// Record counters/histograms.
    pub metrics: bool,
    /// Directory for drained `trace-*.jsonl` / `metrics-*.jsonl` files
    /// (created on first drain). `None` keeps data in memory — callers
    /// can still [`trace::drain_events`] / [`metrics::snapshot`].
    pub dir: Option<PathBuf>,
    /// Per-thread trace ring capacity in events.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            trace: false,
            metrics: false,
            dir: None,
            ring_capacity: trace::DEFAULT_RING_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Everything off (the no-overhead default).
    pub fn disabled() -> ObsConfig {
        ObsConfig::default()
    }

    /// Tracing and metrics on, draining into `dir`.
    pub fn enabled_in(dir: impl Into<PathBuf>) -> ObsConfig {
        ObsConfig {
            trace: true,
            metrics: true,
            dir: Some(dir.into()),
            ..ObsConfig::default()
        }
    }

    /// Reads the `O4A_TRACE` / `O4A_METRICS` knobs. Each accepts:
    /// unset, empty, or `0` — off; `1` — on; any other value — on, with
    /// the value used as the output directory. When both are on with
    /// only one directory between them, they share it; when neither
    /// names one, `o4a-obs` under the working directory is used.
    pub fn from_env() -> ObsConfig {
        fn knob(name: &str) -> (bool, Option<PathBuf>) {
            match std::env::var(name) {
                Err(_) => (false, None),
                Ok(v) if v.is_empty() || v == "0" => (false, None),
                Ok(v) if v == "1" => (true, None),
                Ok(v) => (true, Some(PathBuf::from(v))),
            }
        }
        let (trace, trace_dir) = knob("O4A_TRACE");
        let (metrics, metrics_dir) = knob("O4A_METRICS");
        let dir = (trace || metrics).then(|| {
            trace_dir
                .or(metrics_dir)
                .unwrap_or_else(|| "o4a-obs".into())
        });
        ObsConfig {
            trace,
            metrics,
            dir,
            ..ObsConfig::default()
        }
    }
}

struct State {
    config: ObsConfig,
    drains: u64,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// True when trace recording is on — the fast-path gate, one relaxed
/// load.
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// True when metrics recording is on — the fast-path gate, one relaxed
/// load.
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// True once [`install`] or [`init_from_env`] has run.
pub fn installed() -> bool {
    STATE.lock().unwrap().is_some()
}

fn apply(state: &mut Option<State>, config: ObsConfig) {
    TRACE_ON.store(config.trace, Ordering::Relaxed);
    METRICS_ON.store(config.metrics, Ordering::Relaxed);
    trace::set_ring_capacity(config.ring_capacity);
    let drains = state.as_ref().map_or(0, |s| s.drains);
    *state = Some(State { config, drains });
}

/// Installs a configuration, replacing any previous one. Buffered data
/// is kept; only the gates and drain directory change.
pub fn install(config: ObsConfig) {
    apply(&mut STATE.lock().unwrap(), config);
}

/// Installs from the environment knobs — but only if nothing was
/// installed yet, so an explicit [`install`] (tests, embedders) always
/// wins over the ambient environment. Binaries call this once at
/// startup; engines call it again harmlessly.
pub fn init_from_env() {
    let mut state = STATE.lock().unwrap();
    if state.is_none() {
        apply(&mut state, ObsConfig::from_env());
    }
}

/// Returns everything to the uninstalled, disabled, empty state
/// (tests and back-to-back equivalence runs).
pub fn uninstall() {
    let mut state = STATE.lock().unwrap();
    TRACE_ON.store(false, Ordering::Relaxed);
    METRICS_ON.store(false, Ordering::Relaxed);
    *state = None;
    drop(state);
    let _ = trace::drain_events();
    metrics::reset();
}

/// What one [`drain`] wrote.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrainReport {
    /// The trace JSONL file, when tracing was on.
    pub trace_file: Option<PathBuf>,
    /// The metrics JSONL file, when metrics were on.
    pub metrics_file: Option<PathBuf>,
    /// Events written to the trace file.
    pub events: usize,
    /// Events lost to full rings before this drain.
    pub dropped: u64,
}

/// Flushes buffered observability data to fsync'd JSONL files in the
/// configured directory: `trace-<pid>-<seq>.jsonl` (buffers are emptied)
/// and `metrics-<pid>-<seq>.jsonl` (a cumulative snapshot; registered
/// values keep counting). Returns `Ok(None)` when observability is
/// uninstalled, fully disabled, or has nowhere to write — so engines can
/// call this unconditionally at shutdown.
///
/// # Errors
///
/// Propagates directory-creation and file-write errors.
pub fn drain() -> std::io::Result<Option<DrainReport>> {
    let mut state = STATE.lock().unwrap();
    let Some(s) = state.as_mut() else {
        return Ok(None);
    };
    if !s.config.trace && !s.config.metrics {
        return Ok(None);
    }
    let Some(dir) = s.config.dir.clone() else {
        return Ok(None);
    };
    let seq = s.drains;
    s.drains += 1;
    let trace_on = s.config.trace;
    let metrics_on = s.config.metrics;
    drop(state);

    std::fs::create_dir_all(&dir)?;
    let pid = std::process::id();
    let mut report = DrainReport::default();
    if trace_on {
        let (events, dropped) = trace::drain_events();
        let path = dir.join(format!("trace-{pid}-{seq}.jsonl"));
        trace::write_trace_file(&path, &events, dropped)?;
        report.events = events.len();
        report.dropped = dropped;
        report.trace_file = Some(path);
    }
    if metrics_on {
        let path = dir.join(format!("metrics-{pid}-{seq}.jsonl"));
        metrics::write_metrics_file(&path, &metrics::snapshot())?;
        report.metrics_file = Some(path);
    }
    Ok(Some(report))
}

/// RAII form of the [`drain`] barrier: drains when dropped, including
/// on unwind, so a panicking worker still flushes its trace ring and
/// metrics registry before the process dies.
///
/// Create one at the top of a scope that records observability data
/// (an engine run, a worker lease loop); the drop at scope exit
/// replaces the explicit `drain()` call — and unlike that call it also
/// fires when the scope unwinds. Drain errors are reported to stderr
/// (a drop has nowhere to return them) exactly like the explicit
/// call sites did. Call [`DrainGuard::finish`] instead when the final
/// [`DrainReport`] is needed.
#[derive(Debug, Default)]
pub struct DrainGuard {
    disarmed: bool,
}

impl DrainGuard {
    /// Arms a guard; [`drain`] runs when it drops.
    pub fn new() -> DrainGuard {
        DrainGuard::default()
    }

    /// Drains now and disarms the guard, returning what was written.
    ///
    /// # Errors
    ///
    /// Propagates [`drain`] errors.
    pub fn finish(mut self) -> std::io::Result<Option<DrainReport>> {
        self.disarmed = true;
        drain()
    }
}

impl Drop for DrainGuard {
    fn drop(&mut self) {
        if self.disarmed {
            return;
        }
        if let Err(e) = drain() {
            eprintln!("o4a-obs: drain failed: {e}");
        }
    }
}

/// The `trace-*.jsonl` / `metrics-*.jsonl` files under `dir`, sorted —
/// what a coordinator merges after a fleet finishes.
///
/// # Errors
///
/// Propagates directory-read errors.
pub fn observability_files(dir: &Path) -> std::io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let mut traces = Vec::new();
    let mut metrics_files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".jsonl") {
            continue;
        }
        if name.starts_with("trace-") {
            traces.push(path);
        } else if name.starts_with("metrics-") {
            metrics_files.push(path);
        }
    }
    traces.sort();
    metrics_files.sort();
    Ok((traces, metrics_files))
}

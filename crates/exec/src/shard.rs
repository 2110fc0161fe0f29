//! Campaign sharding, the worker pool, and the shard-merge semantics.
//!
//! A campaign splits into `N` deterministic shards. Shard `i` runs the
//! full virtual duration with RNG seed `config.seed ^ i` (shard 0 of a
//! 1-shard plan is therefore bit-identical to the serial campaign) and a
//! case cap of `ceil(max_cases / N)`. Shards model independent fuzzing
//! machines running concurrently: each pays its own fuzzer setup and owns
//! its own solver instances, so shard execution order — and whether shards
//! run on one thread or many — cannot affect any result.
//!
//! The merge semantics (see `crates/exec/README.md` for the full model):
//!
//! * **stats** — field-wise sum ([`o4a_core::CampaignStats::merge`]).
//! * **findings** — concatenation in ascending shard order.
//! * **coverage** — union of the raw per-solver [`CoverageMap`]s;
//!   final percentages are recomputed from the union.
//! * **snapshots** — per hour: cases sum across shards, deduplicated
//!   issues recomputed from all findings discovered up to that hour, and
//!   per-solver coverage recomputed from the **union of the shards'
//!   hour-`h` raw maps** ([`o4a_core::CampaignResult::hourly_coverage`])
//!   — exact, like the final union. Shards reconstructed from journals
//!   that predate the per-hour delta records lack the raw maps; the
//!   merge then falls back to the per-shard maximum, a documented lower
//!   bound.

use o4a_core::{
    dedup_refs, CampaignConfig, CampaignResult, CampaignStats, CampaignStepper, CoveragePoint,
    Finding, Fuzzer, HourlySnapshot, StepOutcome,
};
use o4a_solvers::coverage::universe;
use o4a_solvers::CoverageMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads drive the shard queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker; shards run back to back on the calling thread.
    Serial,
    /// A fixed worker count (clamped to the number of shards).
    Threads(usize),
    /// One worker per available CPU (clamped to the number of shards).
    Auto,
}

impl Parallelism {
    /// Resolves the worker count for `jobs` queued jobs.
    pub fn workers(self, jobs: usize) -> usize {
        let cap = jobs.max(1);
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.clamp(1, cap),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, cap),
        }
    }
}

/// Execution knob for the sharded engine.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Number of deterministic shards (≥ 1).
    pub shards: u32,
    /// Worker pool sizing.
    pub parallelism: Parallelism,
    /// Overlapped solver queries per shard worker (the `O4A_INFLIGHT`
    /// knob, ≥ 1): the pipe backend keeps up to `inflight` cases in
    /// flight ([`crate::run_shard_piped`]) with results bit-identical to
    /// `1`. Ignored without [`ExecConfig::solver_cmd`].
    pub inflight: usize,
    /// External solver command (the `O4A_SOLVER_CMD` knob). When set,
    /// every shard worker drives **solver processes over pipes**
    /// ([`crate::run_shard_piped`]) instead of the in-process engines:
    /// the command is whitespace-split and `{lane}` in any argument
    /// becomes the solver-lane index. `None` (the default) keeps the
    /// in-process backends.
    pub solver_cmd: Option<String>,
    /// Per-query wall-clock deadline for the pipe backend, in
    /// milliseconds (the `O4A_SOLVER_TIMEOUT_MS` knob). `None` uses
    /// [`o4a_solvers::pipe::DEFAULT_QUERY_TIMEOUT`]. Ignored without
    /// [`ExecConfig::solver_cmd`].
    pub solver_timeout_ms: Option<u64>,
    /// Verdict-cache directory (the `O4A_CACHE` knob). When set, pipe
    /// lanes consult the campaign-wide content-addressed cache before
    /// every query and record every fresh wire reply; per-shard journals
    /// in the directory merge on load like findings journals. `None`
    /// (the default) is a no-op. Ignored without
    /// [`ExecConfig::solver_cmd`].
    pub cache_dir: Option<std::path::PathBuf>,
    /// Coordinator checkpoint path (the `O4A_CHECKPOINT` knob).
    /// Consumed by the distributed layer (`o4a-dist`): when set, the
    /// coordinator journals lease state there fsync-per-record and a
    /// killed coordinator resumes the campaign from it. The in-process
    /// engines ignore it — a single process already has the
    /// [`crate::FindingsStore`] journal for kill/resume.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shards: 1,
            parallelism: Parallelism::Auto,
            inflight: 1,
            solver_cmd: None,
            solver_timeout_ms: None,
            cache_dir: None,
            checkpoint: None,
        }
    }
}

impl ExecConfig {
    /// Reads the engine knobs from the environment: `O4A_SHARDS` (shard
    /// count, default 1 — the paper's serial protocol), `O4A_WORKERS`
    /// (worker threads; `1` forces [`Parallelism::Serial`], unset means
    /// [`Parallelism::Auto`]), `O4A_INFLIGHT` (overlapped queries per
    /// worker over the pipe backend, default 1), `O4A_SOLVER_CMD`
    /// (external solver command; unset or blank keeps the in-process
    /// engines), `O4A_SOLVER_TIMEOUT_MS` (per-query deadline),
    /// `O4A_CACHE` (verdict-cache directory; unset or blank means no
    /// cache), and `O4A_CHECKPOINT` (coordinator checkpoint path,
    /// consumed by `o4a-dist`; unset or blank means no checkpoint).
    /// Invalid or zero values fall back to defaults.
    pub fn from_env() -> ExecConfig {
        fn parse<T: std::str::FromStr + PartialOrd + From<u8>>(name: &str) -> Option<T> {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<T>().ok())
                .filter(|n| *n >= T::from(1))
        }
        let parallelism = match parse::<usize>("O4A_WORKERS") {
            Some(1) => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
            None => Parallelism::Auto,
        };
        ExecConfig {
            shards: parse::<u32>("O4A_SHARDS").unwrap_or(1),
            parallelism,
            inflight: parse::<usize>("O4A_INFLIGHT").unwrap_or(1),
            solver_cmd: std::env::var("O4A_SOLVER_CMD")
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty()),
            solver_timeout_ms: parse::<u64>("O4A_SOLVER_TIMEOUT_MS"),
            cache_dir: std::env::var("O4A_CACHE")
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from),
            checkpoint: std::env::var("O4A_CHECKPOINT")
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from),
        }
    }
}

/// The RNG seed of one shard: `base ⊕ shard-index`. The XOR keeps shard 0
/// on the serial campaign's stream; `StdRng`'s SplitMix64 seed expansion
/// decorrelates the neighbouring indices.
pub fn shard_seed(base: u64, shard: u32) -> u64 {
    base ^ shard as u64
}

/// The configuration of shard `shard` in a `shards`-way plan.
///
/// Panics when `shards` is zero or `shard` is outside the plan.
pub fn shard_config(config: &CampaignConfig, shards: u32, shard: u32) -> CampaignConfig {
    assert!(shards >= 1, "a campaign needs at least one shard");
    assert!(
        shard < shards,
        "shard {shard} outside the {shards}-way plan"
    );
    CampaignConfig {
        seed: shard_seed(config.seed, shard),
        max_cases: config.max_cases.div_ceil(shards as usize),
        ..config.clone()
    }
}

/// Splits a campaign into `shards` deterministic shard configurations.
///
/// Panics when `shards` is zero.
pub fn shard_configs(config: &CampaignConfig, shards: u32) -> Vec<CampaignConfig> {
    (0..shards)
        .map(|i| shard_config(config, shards, i))
        .collect()
}

/// Observer of shard progress — the persistence hook the findings store
/// implements. Callbacks may arrive from any worker thread, interleaved
/// across shards, but per shard they arrive in campaign order with
/// `on_shard_complete` last.
pub trait FindingSink: Sync {
    /// A new finding was recorded by `shard`.
    fn on_finding(&self, shard: u32, finding: &Finding);
    /// `shard` ran to completion with `result`.
    fn on_shard_complete(&self, shard: u32, result: &CampaignResult);
}

/// Runs `f(0..jobs)` on `workers` scoped threads, returning results in job
/// order. Panics in a job propagate to the caller.
pub fn parallel_map<T, F>(jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs);
    if workers == 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs one shard to completion, reporting findings to `sink` as they are
/// discovered (the crash-durable persistence point).
pub fn run_shard(
    fuzzer: &mut dyn Fuzzer,
    shard_config: &CampaignConfig,
    shard: u32,
    sink: Option<&dyn FindingSink>,
) -> CampaignResult {
    let mut rng = StdRng::seed_from_u64(shard_config.seed);
    let mut stepper = CampaignStepper::new(shard_config);
    stepper.charge_setup(fuzzer.setup(&mut rng));
    while let StepOutcome::Ran { recorded_finding } = stepper.step(fuzzer, &mut rng) {
        if recorded_finding {
            if let Some(sink) = sink {
                let finding = stepper.findings().last().expect("finding just recorded");
                sink.on_finding(shard, finding);
            }
        }
    }
    let result = stepper.finish(fuzzer.name());
    if let Some(sink) = sink {
        sink.on_shard_complete(shard, &result);
    }
    result
}

/// The external-process backend `exec` selects, if any.
fn pipe_backend_of(exec: &ExecConfig) -> Option<crate::overlap::PipeBackend> {
    exec.solver_cmd.as_ref().map(|cmd| {
        let mut backend = crate::overlap::PipeBackend::new(cmd.clone());
        if let Some(dir) = &exec.cache_dir {
            backend = backend.with_cache_dir(dir);
        }
        match exec.solver_timeout_ms {
            Some(ms) => backend.with_timeout(std::time::Duration::from_millis(ms)),
            None => backend,
        }
    })
}

/// Runs **one shard of an `exec.shards`-way campaign plan** to completion
/// — the lease-granular entry point. [`run_campaign_sharded`] drives it
/// once per shard on its thread pool; a distributed worker process
/// (`o4a-dist`) calls it once per *lease*, journaling through `sink`.
/// Either way the shard executes identically, down to the transport the
/// engine knobs select (the in-process serial loop, or external solver
/// processes over pipes with `inflight` queries in flight), so a shard
/// result is a pure
/// function of `(config, exec.shards, shard)` — the property that makes
/// dynamic lease assignment and crash re-issue invisible in merged
/// results.
///
/// # Panics
///
/// Panics when `shard >= exec.shards` (or `exec.shards` is zero).
pub fn run_shard_lease(
    fuzzer: &mut dyn Fuzzer,
    config: &CampaignConfig,
    exec: &ExecConfig,
    shard: u32,
    sink: Option<&dyn FindingSink>,
) -> CampaignResult {
    let _span = o4a_obs::trace::span("exec", "shard.lease")
        .arg("shard", u64::from(shard))
        .arg("inflight", exec.inflight.max(1) as u64);
    let cfg = shard_config(config, exec.shards, shard);
    if let Some(backend) = pipe_backend_of(exec) {
        // The pipe transport always goes through the overlapped loop;
        // `inflight = 1` is serial submission over the same plumbing.
        crate::overlap::run_shard_piped(fuzzer, &cfg, shard, sink, exec.inflight.max(1), &backend)
    } else {
        run_shard(fuzzer, &cfg, shard, sink)
    }
}

/// Runs a campaign split into shards on a worker pool and merges the shard
/// results. `factory(i)` builds the fuzzer for shard `i` — each shard owns
/// an independent instance, so fuzzers need not be `Send`.
pub fn run_campaign_sharded<F>(
    factory: F,
    config: &CampaignConfig,
    exec: &ExecConfig,
) -> CampaignResult
where
    F: Fn(u32) -> Box<dyn Fuzzer> + Sync,
{
    run_campaign_sharded_with(&factory, config, exec, None, BTreeMap::new())
}

/// The full-control variant behind [`run_campaign_sharded`]: streams
/// findings into `sink` and skips shards already present in `completed`
/// (resume support; the completed results are merged as-is).
pub fn run_campaign_sharded_with<F>(
    factory: &F,
    config: &CampaignConfig,
    exec: &ExecConfig,
    sink: Option<&dyn FindingSink>,
    completed: BTreeMap<u32, CampaignResult>,
) -> CampaignResult
where
    F: Fn(u32) -> Box<dyn Fuzzer> + Sync,
{
    o4a_obs::init_from_env();
    // The engine-level drain barrier, RAII form: flush every worker
    // thread's trace ring and the metrics registry to the configured
    // directory when this scope exits — including on a panicking shard,
    // so the trace leading up to the failure survives. A campaign with
    // observability off (the default) skips all I/O; a write failure
    // must not cost campaign results, so the guard reports it to stderr
    // instead of propagating.
    let _drain = o4a_obs::DrainGuard::new();
    let todo: Vec<u32> = (0..exec.shards)
        .filter(|shard| !completed.contains_key(shard))
        .collect();
    let workers = exec.parallelism.workers(todo.len());
    let fresh = parallel_map(todo.len(), workers, |j| {
        let shard = todo[j];
        let mut fuzzer = factory(shard);
        run_shard_lease(fuzzer.as_mut(), config, exec, shard, sink)
    });

    let mut by_shard = completed;
    for (j, result) in fresh.into_iter().enumerate() {
        by_shard.insert(todo[j], result);
    }
    let ordered: Vec<CampaignResult> = by_shard.into_values().collect();
    let timer = o4a_obs::metrics::start_timer();
    let merged = merge_shard_results(config, &ordered);
    o4a_obs::metrics::record_elapsed("exec.merge_micros", timer);
    merged
}

/// Merges per-shard campaign results (in ascending shard order) into one
/// aggregate result, per the crate-level merge semantics.
///
/// Panics when `shard_results` is empty.
pub fn merge_shard_results(
    config: &CampaignConfig,
    shard_results: &[CampaignResult],
) -> CampaignResult {
    assert!(!shard_results.is_empty(), "nothing to merge");

    let mut stats = CampaignStats::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut coverage: BTreeMap<_, CoverageMap> = BTreeMap::new();
    for shard in shard_results {
        stats.merge(&shard.stats);
        findings.extend(shard.findings.iter().cloned());
        for (&solver, map) in &shard.coverage {
            coverage.entry(solver).or_default().merge(map);
        }
    }

    let mut final_coverage = BTreeMap::new();
    let mut covered_functions = BTreeMap::new();
    for (&solver, map) in &coverage {
        final_coverage.insert(solver, CoveragePoint::of(solver, map));
        covered_functions.insert(
            solver,
            map.covered_function_names(universe(solver))
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
    }

    // The hourly series merges losslessly when every shard carries its
    // per-hour raw maps (always true for freshly-run shards; journals
    // written before the hourly-delta records reconstruct without them).
    // Without the maps the per-solver percentages fall back to the
    // documented per-shard-max lower bound.
    let exact_hourly = shard_results
        .iter()
        .all(|s| s.hourly_coverage.len() == s.snapshots.len());
    let mut snapshots = Vec::with_capacity(config.virtual_hours as usize);
    let mut hourly_coverage = Vec::new();
    for hour in 1..=config.virtual_hours {
        let idx = (hour - 1) as usize;
        let mut cases = 0u64;
        let mut cov: BTreeMap<_, CoveragePoint> = BTreeMap::new();
        if exact_hourly {
            let mut union: BTreeMap<_, CoverageMap> = BTreeMap::new();
            for shard in shard_results {
                if let Some(snap) = shard.snapshots.get(idx) {
                    cases += snap.cases;
                }
                if let Some(maps) = shard.hourly_coverage.get(idx) {
                    for (&solver, map) in maps {
                        union.entry(solver).or_default().merge(map);
                    }
                }
            }
            for (&solver, map) in &union {
                cov.insert(solver, CoveragePoint::of(solver, map));
            }
            hourly_coverage.push(union);
        } else {
            for shard in shard_results {
                let Some(snap) = shard.snapshots.get(idx) else {
                    continue;
                };
                cases += snap.cases;
                for (&solver, point) in &snap.coverage {
                    let entry = cov.entry(solver).or_default();
                    entry.line_pct = entry.line_pct.max(point.line_pct);
                    entry.function_pct = entry.function_pct.max(point.function_pct);
                }
            }
        }
        snapshots.push(HourlySnapshot {
            hour,
            coverage: cov,
            cases,
            // Same rule as the serial stepper's snapshots: issues known by
            // the hour boundary, recomputed (issue counts do not sum).
            issues: dedup_refs(findings.iter().filter(|f| f.vhour <= hour as f64)).len(),
        });
    }

    CampaignResult {
        fuzzer: shard_results[0].fuzzer.clone(),
        snapshots,
        findings,
        stats,
        final_coverage,
        covered_functions,
        coverage,
        hourly_coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ExecConfig::from_env` is how `O4A_INFLIGHT` reaches the pipe
    /// backend; unset, the default stays one query in flight.
    #[test]
    fn exec_config_env_default_is_serial() {
        match std::env::var("O4A_INFLIGHT") {
            Err(_) => assert_eq!(ExecConfig::from_env().inflight, 1),
            // Set by the caller: the knob must round-trip.
            Ok(raw) => assert_eq!(
                ExecConfig::from_env().inflight,
                raw.parse::<usize>().map_or(1, |k| k.max(1))
            ),
        }
    }
}

//! End-to-end Once4All campaign benchmark: steady-state valid-case rate,
//! set-up time, and per-layer time, on two campaign topologies.
//!
//! ```text
//! o4a-perfbench --workload piped|sharded --seed N --seconds S --trace 0|1
//! ```
//!
//! A run first sets up the workload's fuzzer bank (`Once4AllFuzzer::setup`,
//! the LLM generator construction — one fuzzer per shard). It then runs
//! back-to-back fixed-size campaigns ("rounds") through the engine entry
//! point of the workload for `--seconds`. Rounds reuse the set-up fuzzers,
//! so each one measures the steady-state case loop. Around every round it
//! times a yardstick, a fixed task of this benchmark's own code, on as many
//! threads as the workload's engine uses. `valid_cases_per_yardstick` is the
//! median over rounds of the round's valid cases (those at least one solver
//! frontend accepted) per wall-clock second, times the yardstick's seconds
//! around it: the cases the program completes in the time the host takes
//! for one yardstick. On a shared host whose speed drifts, this ratio holds
//! still where the plain rate does not. Between rounds, untimed by the rate,
//! the bank is set up again until it has been built [`SETUP_REPS`] times,
//! evenly over the run; `setup_s` is the median wall time of those builds.
//!
//! With `--trace 1` the same rounds run with the generate layer timed by
//! this harness and the program's metrics registry recording solver-layer
//! latency, and the per-layer figures are printed instead of the
//! end-to-end ones.
//!
//! Correctness: an untimed check round from the freshly set-up fuzzers,
//! replayed from newly constructed fuzzers on a reference topology, must
//! reproduce its result bit for bit; and every round must run exactly its
//! planned case count (the case cap binds, not the virtual clock), accept
//! at least one case, and keep its findings and snapshots consistent.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, where
//! `attempted` counts campaign cases run and `failed` the cases of rounds
//! that failed a check.

use o4a_core::{CampaignConfig, CampaignResult, CampaignStats, Fuzzer, Once4AllFuzzer, TestCase};
use o4a_exec::{
    parallel_map, run_campaign_sharded, run_shard_piped, ExecConfig, Parallelism, PipeBackend,
};
use o4a_solvers::{EngineConfig, SolverMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fuzzer-bank constructions per run; `setup_s` is their median. They are
/// spread over the run because the host's speed drifts over tens of
/// seconds, so builds taken back to back all share one moment's speed.
const SETUP_REPS: usize = 9;
/// Cases per fuzzer in the untimed check round.
const CHECK_CASES: usize = 100;
/// Rounds run even when `--seconds` is shorter than they take.
const MIN_ROUNDS: u64 = 3;
/// Virtual campaign length of a round: long enough that the case cap,
/// never the virtual clock, ends it.
const VIRTUAL_HOURS: u32 = 48;
/// The in-process engines' search budget per query: candidate assignments
/// tried, and evaluator steps per assertion. The defaults (200 and 20 000)
/// give case cost so heavy a tail that one round of a few hundred cases
/// can take three times as long as the next, and a run's rate depends on
/// which seed it drew; these keep the solver search the largest layer
/// while bounding the tail.
const MAX_ASSIGNMENTS: usize = 30;
const EVAL_BUDGET: u64 = 4_000;
/// Shards of the `sharded` workload, and the threads that drive them.
const SHARDS: u32 = 4;
const SHARD_WORKERS: usize = 2;
/// Queries in flight per shard in the `piped` workload: enough that each
/// mock process finds queued work instead of sleeping between replies,
/// which keeps the figure from following the host's wake-up latency.
const INFLIGHT: usize = 8;
/// Yardstick tasks per thread in one timing: about 40 ms on a 2-vCPU Xeon
/// VM, a few percent of a round.
const YARDSTICK_TASKS: u64 = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// One shard, `INFLIGHT` queries multiplexed as `(push 1)`/`(pop 1)`
    /// scopes on one mock-solver process per solver lane.
    Piped,
    /// `SHARDS` in-process shards on `SHARD_WORKERS` threads, merged.
    Sharded,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "piped" => Some(Workload::Piped),
            "sharded" => Some(Workload::Sharded),
            _ => None,
        }
    }

    /// Fuzzers the workload's campaign sets up: one per shard.
    fn fuzzers(self) -> usize {
        match self {
            Workload::Piped => 1,
            Workload::Sharded => SHARDS as usize,
        }
    }

    /// Threads the campaign's shards (and their set-up) run on.
    fn workers(self) -> usize {
        match self {
            Workload::Piped => 1,
            Workload::Sharded => SHARD_WORKERS,
        }
    }

    /// Cases per round, sized so a round takes on the order of a second.
    fn round_cases(self) -> usize {
        match self {
            Workload::Piped => 1_000,
            Workload::Sharded => 800,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.unwrap_or(false),
    })
}

/// Generate-layer time, summed across shard threads (trace mode only).
#[derive(Default)]
struct GenerateTally {
    nanos: AtomicU64,
    cases: AtomicU64,
}

/// A set-up fuzzer and the virtual cost its construction charged.
type SetUp = (Arc<Mutex<Once4AllFuzzer>>, u64);

/// A set-up fuzzer reused across rounds. `setup` returns the memoized
/// construction cost instead of rebuilding the generators, so the round
/// starts in steady state while its virtual clock is charged exactly as a
/// fresh fuzzer's would be (construction ignores the campaign RNG).
struct Reused {
    inner: Arc<Mutex<Once4AllFuzzer>>,
    setup_micros: u64,
    tally: Option<Arc<GenerateTally>>,
}

impl Fuzzer for Reused {
    fn name(&self) -> String {
        self.inner.lock().expect("fuzzer lock").name()
    }

    fn setup(&mut self, _rng: &mut StdRng) -> u64 {
        self.setup_micros
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let mut inner = self.inner.lock().expect("fuzzer lock");
        let Some(tally) = &self.tally else {
            return inner.next_case(rng);
        };
        let start = Instant::now();
        let case = inner.next_case(rng);
        tally
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        tally.cases.fetch_add(1, Ordering::Relaxed);
        case
    }
}

/// Sets up one fuzzer per shard on the workload's threads, as its
/// campaign would.
fn build_bank(workload: Workload) -> Vec<SetUp> {
    parallel_map(workload.fuzzers(), workload.workers(), |_| {
        let mut fuzzer = Once4AllFuzzer::with_defaults();
        let cost = fuzzer.setup(&mut StdRng::seed_from_u64(0));
        (Arc::new(Mutex::new(fuzzer)), cost)
    })
}

/// [`build_bank`], with its wall time appended to `secs`.
fn timed_bank(workload: Workload, secs: &mut Vec<f64>) -> Vec<SetUp> {
    let start = Instant::now();
    let bank = build_bank(workload);
    secs.push(start.elapsed().as_secs_f64());
    bank
}

/// The campaign plan of round `round`; its seed derives from `--seed`.
fn plan(seed: u64, round: u64, cases: usize) -> CampaignConfig {
    CampaignConfig {
        virtual_hours: VIRTUAL_HOURS,
        time_scale: 1,
        max_cases: cases,
        engine: EngineConfig {
            max_assignments: MAX_ASSIGNMENTS,
            eval_budget: EVAL_BUDGET,
            ..EngineConfig::default()
        },
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        ..CampaignConfig::default()
    }
}

fn sharded_exec(parallelism: Parallelism) -> ExecConfig {
    ExecConfig {
        shards: SHARDS,
        parallelism,
        ..ExecConfig::default()
    }
}

/// The command line of the repository's `mock_solver` (from `o4a-bench`),
/// which `run.py` builds next to this binary. The path is made relative to
/// the working directory when it lies below it, since the pipe backend
/// splits the command on whitespace.
fn mock_command(seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mock = exe.with_file_name(format!("mock_solver{}", std::env::consts::EXE_SUFFIX));
    if !mock.is_file() {
        return Err(format!("mock solver {} is not built", mock.display()));
    }
    let shown = std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            mock.strip_prefix(cwd)
                .ok()
                .map(|p| format!("./{}", p.display()))
        })
        .unwrap_or_else(|| mock.display().to_string());
    Ok(format!("{shown} --seed {seed} --lane {{lane}}"))
}

struct Runner {
    workload: Workload,
    bank: Vec<SetUp>,
    tally: Option<Arc<GenerateTally>>,
    backend: Option<PipeBackend>,
}

impl Runner {
    fn reused(&self, shard: usize) -> Reused {
        let (inner, setup_micros) = &self.bank[shard];
        Reused {
            inner: Arc::clone(inner),
            setup_micros: *setup_micros,
            tally: self.tally.clone(),
        }
    }

    fn backend(&self) -> &PipeBackend {
        self.backend.as_ref().expect("piped workload has a backend")
    }

    /// One timed round through the workload's engine entry point.
    fn round(&self, config: &CampaignConfig) -> CampaignResult {
        match self.workload {
            Workload::Piped => run_shard_piped(
                &mut self.reused(0),
                config,
                0,
                None,
                INFLIGHT,
                self.backend(),
            ),
            Workload::Sharded => run_campaign_sharded(
                |shard| Box::new(self.reused(shard as usize)) as Box<dyn Fuzzer>,
                config,
                &sharded_exec(Parallelism::Threads(SHARD_WORKERS)),
            ),
        }
    }

    /// `config` again from freshly constructed fuzzers on the reference
    /// topology: one query in flight over the pipes, or the shards back to
    /// back on one thread.
    fn reference(&self, config: &CampaignConfig) -> CampaignResult {
        match self.workload {
            Workload::Piped => run_shard_piped(
                &mut Once4AllFuzzer::with_defaults(),
                config,
                0,
                None,
                1,
                self.backend(),
            ),
            Workload::Sharded => run_campaign_sharded(
                |_| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>,
                config,
                &sharded_exec(Parallelism::Serial),
            ),
        }
    }
}

/// Everything a campaign reports that the equivalence laws pin.
fn fingerprint(result: &CampaignResult) -> String {
    format!(
        "{:?}",
        (
            result.stats.sans_transport(),
            &result.findings,
            &result.final_coverage,
            &result.snapshots,
        )
    )
}

fn check_round(
    workload: Workload,
    config: &CampaignConfig,
    result: &CampaignResult,
) -> Result<(), String> {
    let stats = &result.stats;
    let planned = match workload {
        Workload::Sharded => config.max_cases.div_ceil(SHARDS as usize) * SHARDS as usize,
        _ => config.max_cases,
    } as u64;
    if stats.cases != planned {
        return Err(format!("ran {} of {planned} planned cases", stats.cases));
    }
    if stats.rejected >= stats.cases {
        return Err("no case was accepted by any solver".into());
    }
    if result.snapshots.len() != VIRTUAL_HOURS as usize {
        return Err(format!("{} hourly snapshots", result.snapshots.len()));
    }
    if result.findings.len() as u64 > stats.bug_triggering {
        return Err("more findings than bug-triggering cases".into());
    }
    let lanes = config.solvers.len() as u64;
    if workload == Workload::Piped
        && (stats.processes_spawned != lanes || stats.process_respawns != 0)
    {
        return Err(format!(
            "{} solver processes spawned, {} respawned; one per lane expected",
            stats.processes_spawned, stats.process_respawns
        ));
    }
    Ok(())
}

/// One fixed task of the yardstick: format, sort and tally a few thousand
/// SMT-LIB-like lines. It allocates, compares strings and walks a tree map
/// like the case loop does, so a host that runs slower slows both alike;
/// it is the benchmark's own code, so no change to the program moves it.
fn yardstick_task(salt: u64) -> u64 {
    let mut lines: Vec<String> = (0..4_000u64)
        .map(|i| {
            let k = (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            format!("(assert (= x{k} (+ y{} {})))", k % 97, k % 1013)
        })
        .collect();
    lines.sort_unstable();
    let mut tally = BTreeMap::new();
    for line in &lines {
        *tally.entry(&line[..12]).or_insert(0u64) += line.bytes().map(u64::from).sum::<u64>();
    }
    tally.values().fold(0, |acc, v| acc.rotate_left(5) ^ v)
}

/// Wall seconds for `threads` threads to run [`YARDSTICK_TASKS`] yardstick
/// tasks each, all at once, as the workload's engine threads would.
fn yardstick(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            scope.spawn(move || {
                for task in 0..YARDSTICK_TASKS {
                    black_box(yardstick_task(t << 32 | task));
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("o4a-perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let backend = match workload {
        Workload::Piped => match mock_command(args.seed) {
            Ok(cmd) => Some(PipeBackend::new(cmd).with_mode(SolverMode::Session)),
            Err(msg) => {
                eprintln!("o4a-perfbench: {msg}");
                std::process::exit(2);
            }
        },
        _ => None,
    };
    // Explicit install: the ambient O4A_TRACE / O4A_METRICS knobs must not
    // change what is measured. Metrics record only in trace mode.
    o4a_obs::install(o4a_obs::ObsConfig {
        metrics: args.trace,
        ..o4a_obs::ObsConfig::default()
    });

    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let runner = Runner {
        workload,
        bank: timed_bank(workload, &mut setup_secs),
        tally: args.trace.then(Arc::default),
        backend,
    };
    let mut errors = Vec::new();

    // An untimed first round from the freshly set-up fuzzers, replayed on
    // the reference topology; it also warms the caches before timing.
    let check = plan(args.seed, u64::MAX, CHECK_CASES * workload.fuzzers());
    let checked = runner.round(&check);
    if let Err(e) = check_round(workload, &check, &checked) {
        errors.push(format!("check round: {e}"));
    }
    if fingerprint(&runner.reference(&check)) != fingerprint(&checked) {
        errors.push("check round differs from its reference replay".into());
    }
    if let Some(tally) = &runner.tally {
        tally.nanos.store(0, Ordering::Relaxed);
        tally.cases.store(0, Ordering::Relaxed);
    }
    o4a_obs::metrics::reset();

    // Each round's rate is scaled by the yardstick timed just before and
    // just after it, which cancels most of the host's speed drift, and the
    // median over rounds drops rounds that a burst of host load hit.
    let mut measured_secs = 0.0;
    let mut rounds = 0u64;
    let mut totals = CampaignStats::default();
    let mut failed = 0u64;
    let mut paced = Vec::new();
    let mut yardstick_secs = Vec::new();
    let mut before = yardstick(workload.workers());
    while rounds < MIN_ROUNDS || measured_secs < args.seconds {
        let config = plan(args.seed, rounds, workload.round_cases());
        let t0 = Instant::now();
        let result = runner.round(&config);
        let secs = t0.elapsed().as_secs_f64();
        let after = yardstick(workload.workers());
        measured_secs += secs;
        let valid = result.stats.cases.saturating_sub(result.stats.rejected);
        paced.push(valid as f64 / secs * (before + after) / 2.0);
        yardstick_secs.push(after);
        before = after;
        if let Err(e) = check_round(workload, &config, &result) {
            failed += result.stats.cases;
            errors.push(format!("round {rounds}: {e}"));
        }
        totals.merge(&result.stats);
        rounds += 1;
        let due = args.seconds * setup_secs.len() as f64 / SETUP_REPS as f64;
        if setup_secs.len() < SETUP_REPS && measured_secs >= due {
            timed_bank(workload, &mut setup_secs);
            before = yardstick(workload.workers());
        }
    }
    let measured = o4a_obs::metrics::snapshot();
    while setup_secs.len() < SETUP_REPS {
        timed_bank(workload, &mut setup_secs);
    }

    let valid = totals.cases.saturating_sub(totals.rejected);
    let metrics = if let Some(tally) = &runner.tally {
        let generated = tally.cases.load(Ordering::Relaxed) as f64;
        let solver_micros: u64 = ["core.check_micros", "pipe.query_micros"]
            .iter()
            .filter_map(|name| measured.histograms.get(*name))
            .map(|h| h.sum)
            .sum();
        if solver_micros == 0 {
            errors.push("no solver-layer latency was recorded".into());
        }
        let thread_micros = measured_secs * 1e6 * workload.workers() as f64;
        vec![
            metric(
                "thread_us_per_case",
                ratio(thread_micros, totals.cases as f64),
                "us",
            ),
            metric(
                "generate_us_per_case",
                ratio(tally.nanos.load(Ordering::Relaxed) as f64 / 1e3, generated),
                "us",
            ),
            metric(
                "solve_us_per_case",
                ratio(solver_micros as f64, generated),
                "us",
            ),
            metric(
                "decisive_ratio",
                ratio(totals.decisive as f64, totals.cases as f64),
                "ratio",
            ),
        ]
    } else {
        vec![
            metric("valid_cases_per_yardstick", median(&mut paced), "1/yardstick"),
            metric("setup_s", median(&mut setup_secs), "s"),
        ]
    };

    for e in &errors {
        eprintln!("o4a-perfbench: FAILED {e}");
    }
    eprintln!(
        "o4a-perfbench: {workload:?} seed {}: {rounds} rounds, {} cases ({valid} valid) in {measured_secs:.2} s, yardstick median {:.2} ms, setup runs {setup_secs:?}",
        args.seed,
        totals.cases,
        median(&mut yardstick_secs) * 1e3
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        totals.cases.max(1),
        metrics.join(", ")
    );
}

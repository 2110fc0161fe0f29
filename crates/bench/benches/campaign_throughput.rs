//! Campaign throughput across every execution mode, recorded as a
//! committed `BENCH_throughput.json` at the workspace root so the
//! repo's performance trajectory is tracked in-tree, run over run.
//!
//! Scenarios (all the identical campaign plan, so the cases/sec numbers
//! compare like for like; every timed run must execute exactly the
//! plan's case cap, or the bench panics):
//!
//! * `serial` — the classic one-query-at-a-time stepper loop;
//! * `serial_traced` — the same loop with the o4a-obs substrate armed
//!   (trace spans + metrics recorded in-memory, ring drained per run);
//!   the `serial` / `serial_traced` pair is the committed price of
//!   turning observability on;
//! * `pipe_spawn_k8` / `pipe_session_k8` — external mock-solver
//!   processes over stdin/stdout pipes (zero injected latency, so the
//!   number measures transport overhead, not sleeps);
//! * `pipe_dup_uncached` / `pipe_dup_cached` — a duplicate-heavy case
//!   stream (24 distinct scripts cycled over the whole plan) against a
//!   mock with injected per-query latency, without and with the verdict
//!   cache. The cached number is what `O4A_CACHE` buys on re-solved
//!   scripts: every repeat is served off the journal without touching a
//!   process.
//!
//! The JSON layout is one flat `scenarios` object of cases/sec values
//! plus the per-run constants needed to interpret them. No timestamps:
//! re-running on the same machine should produce a minimal diff.

use criterion::{criterion_group, criterion_main, Criterion};
use o4a_core::{
    adapt_fill_arena, parse_fill_into, skeletonize_arena, synthesize_arena, CampaignConfig,
    CampaignResult, Once4AllFuzzer, SkeletonConfig,
};
use o4a_exec::{run_shard_piped, PipeBackend};
use o4a_llm::RawTerm;
use o4a_obs::json::{obj, Json};
use o4a_smtlib::eval::{no_defs, Dim, DomainConfig, IncrementalEval};
use o4a_smtlib::{ArenaScript, Symbol, TermArena, Value};
use o4a_solvers::SolverMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// The mock solver binary, built by cargo before this bench runs.
const MOCK: &str = env!("CARGO_BIN_EXE_mock_solver");

/// Timed runs per scenario; the median lands in the JSON.
const RUNS: usize = 3;

/// The timed campaign: uncompressed virtual time (`time_scale: 1`) gives
/// the budget ample headroom, so the case cap is what ends every run.
fn plan() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 1,
        max_cases: 500,
        ..CampaignConfig::default()
    }
}

fn serial(config: &CampaignConfig) -> CampaignResult {
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    o4a_exec::run_shard(&mut fuzzer, config, 0, None)
}

/// [`serial`] with tracing and metrics recording armed, the way a
/// campaign under the scope plane runs. The per-run ring drain is part
/// of the measured loop — a traced worker drains on every heartbeat.
fn serial_traced(config: &CampaignConfig) -> CampaignResult {
    let result = serial(config);
    let _ = o4a_obs::trace::drain_events();
    result
}

fn piped(config: &CampaignConfig, k: usize, mode: SolverMode) -> CampaignResult {
    let backend = PipeBackend::new(format!("{MOCK} --seed 11 --lane {{lane}}")).with_mode(mode);
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    run_shard_piped(&mut fuzzer, config, 0, None, k, &backend)
}

/// Wraps the standard fuzzer into a duplicate-heavy stream: the first
/// `period` generated cases repeat for the rest of the campaign — the
/// shape of a reduction/triage workload, where the same scripts re-solve
/// over and over.
struct CyclingFuzzer {
    inner: Once4AllFuzzer,
    period: usize,
    seen: Vec<o4a_core::TestCase>,
    next: usize,
}

impl CyclingFuzzer {
    fn new(period: usize) -> CyclingFuzzer {
        CyclingFuzzer {
            inner: Once4AllFuzzer::with_defaults(),
            period,
            seen: Vec::new(),
            next: 0,
        }
    }
}

impl o4a_core::Fuzzer for CyclingFuzzer {
    fn name(&self) -> String {
        format!("{}-dup{}", self.inner.name(), self.period)
    }

    fn setup(&mut self, rng: &mut rand::rngs::StdRng) -> u64 {
        self.inner.setup(rng)
    }

    fn next_case(&mut self, rng: &mut rand::rngs::StdRng) -> o4a_core::TestCase {
        if self.seen.len() < self.period {
            let case = self.inner.next_case(rng);
            self.seen.push(case.clone());
            return case;
        }
        let case = self.seen[self.next % self.period].clone();
        self.next += 1;
        case
    }
}

/// The duplicate-heavy pipe scenario: session transport at K = 8, a mock
/// that charges real wall-clock per query, cache on or off. The cache
/// dir persists across the timed runs, so the cached median measures the
/// steady warm state a long campaign converges to.
fn piped_duplicates(
    config: &CampaignConfig,
    cache_dir: Option<&std::path::Path>,
) -> CampaignResult {
    let mut backend = PipeBackend::new(format!("{MOCK} --seed 11 --lane {{lane}} --latency-ms 20"))
        .with_mode(SolverMode::Session);
    if let Some(dir) = cache_dir {
        backend = backend.with_cache_dir(dir);
    }
    let mut fuzzer = CyclingFuzzer::new(24);
    run_shard_piped(&mut fuzzer, config, 0, None, 8, &backend)
}

/// Iterations per timed run of each `term_*` micro scenario (the substrate
/// inner loop measured in isolation; values land in the same `scenarios`
/// object as ops/sec, gated by `bench_diff` like the campaign rates).
const MICRO_ITERS: usize = 5_000;

/// Median ops/sec over [`RUNS`] timed loops of `op`, `MICRO_ITERS` each.
fn micro_rate(mut op: impl FnMut()) -> f64 {
    let mut rates = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        for _ in 0..MICRO_ITERS {
            op();
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        rates.push(MICRO_ITERS as f64 / secs);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[RUNS / 2]
}

/// The fixed seed script the micro scenarios mutate/print/eval — a
/// quantified multi-theory formula shaped like the committed seed corpus.
const MICRO_SEED: &str = "(declare-fun T () Int)(declare-const b Bool)\
     (declare-const s (Seq Int))\
     (assert (or (= T 0) (and b (< T 10))))\
     (assert (exists ((f Int)) (and (> f T) (distinct (seq.len s) f))))\
     (check-sat)";

/// One full per-case substrate pass: re-intern the seed, skeletonize,
/// parse + adapt two fills, synthesize — everything the fuzzer does per
/// case except solver execution and printing.
fn micro_term_fill() -> f64 {
    let seed = o4a_smtlib::parse_script(MICRO_SEED).expect("micro seed parses");
    let raws = [
        RawTerm {
            decls: vec!["(declare-const i0 Int)".into()],
            term: "(= (mod i0 3) 0)".into(),
        },
        RawTerm {
            decls: vec!["(declare-const str0 String)".into()],
            term: "(= str0 \"ab\")".into(),
        },
    ];
    let mut arena = TermArena::new();
    let mut rng = StdRng::seed_from_u64(11);
    micro_rate(move || {
        arena.reset();
        let aseed = ArenaScript::from_script(&seed, &mut arena);
        let sk = skeletonize_arena(&aseed, &mut arena, SkeletonConfig::default(), &mut rng);
        let fills: Vec<_> = raws
            .iter()
            .map(|r| {
                let f = parse_fill_into(r, &mut arena).expect("micro fill parses");
                adapt_fill_arena(&f, &sk, &mut arena, &mut rng)
            })
            .collect();
        let out = synthesize_arena(&sk, &fills, &mut arena, &mut rng);
        assert!(!out.commands.is_empty());
    })
}

/// Zero-copy printing of an interned script into a reused buffer.
fn micro_term_print() -> f64 {
    let seed = o4a_smtlib::parse_script(MICRO_SEED).expect("micro seed parses");
    let mut arena = TermArena::new();
    let script = ArenaScript::from_script(&seed, &mut arena);
    let mut buf = String::new();
    micro_rate(move || {
        buf.clear();
        script.print_into(&arena, &mut buf);
        assert!(buf.ends_with("(check-sat)"));
    })
}

/// Incremental evaluation of the seed's assertions, compiled once onto
/// slots: each iteration moves `T` and evaluates both assertions again.
/// Both read `T`, so this is a search step with the least to reuse.
fn micro_term_eval() -> f64 {
    let seed = o4a_smtlib::parse_script(MICRO_SEED).expect("micro seed parses");
    let terms: Vec<_> = seed.assertions().cloned().collect();
    let dims = ["T", "b", "s"].map(|n| Dim::Const(Symbol::new(n)));
    let cfg = DomainConfig::default();
    let mut ev = IncrementalEval::compile(&terms, &dims, no_defs(), &cfg);
    ev.set(1, Value::Bool(true));
    ev.set(
        2,
        Value::Seq(o4a_smtlib::Sort::Int, vec![Value::Int(1), Value::Int(2)]),
    );
    let (roots, mut flip) = (terms.len(), false);
    micro_rate(|| {
        flip = !flip;
        ev.set(0, Value::Int(if flip { 3 } else { 2 }));
        let mut budget = 100_000;
        for i in 0..roots {
            let _ = ev.eval(i, &mut budget);
        }
    })
}

/// Median cases/sec over [`RUNS`] timed executions of `run`.
///
/// # Panics
///
/// Panics when a run executes anything other than `config.max_cases`
/// cases: a rate over a run the virtual clock cut short would compare
/// unequal workloads.
fn cases_per_sec(
    config: &CampaignConfig,
    mut run: impl FnMut(&CampaignConfig) -> CampaignResult,
) -> f64 {
    let mut rates = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        let result = run(config);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(
            result.stats.cases, config.max_cases as u64,
            "a timed run executed {} of its {} planned cases",
            result.stats.cases, config.max_cases
        );
        rates.push(result.stats.cases as f64 / secs);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[RUNS / 2]
}

fn bench(c: &mut Criterion) {
    let config = plan();

    let scenarios: Vec<(&str, f64)> = vec![
        ("serial", cases_per_sec(&config, serial)),
        ("serial_traced", {
            o4a_obs::install(o4a_obs::ObsConfig {
                trace: true,
                metrics: true,
                dir: None,
                ..o4a_obs::ObsConfig::default()
            });
            let rate = cases_per_sec(&config, serial_traced);
            o4a_obs::uninstall();
            rate
        }),
        (
            "pipe_spawn_k8",
            cases_per_sec(&config, |cfg| piped(cfg, 8, SolverMode::Spawn)),
        ),
        (
            "pipe_session_k8",
            cases_per_sec(&config, |cfg| piped(cfg, 8, SolverMode::Session)),
        ),
        (
            "pipe_dup_uncached",
            cases_per_sec(&config, |cfg| piped_duplicates(cfg, None)),
        ),
        ("pipe_dup_cached", {
            let dir = std::env::temp_dir().join(format!("o4a-bench-cache-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create bench cache dir");
            let rate = cases_per_sec(&config, |cfg| piped_duplicates(cfg, Some(&dir)));
            let _ = std::fs::remove_dir_all(&dir);
            rate
        }),
        ("term_fill", micro_term_fill()),
        ("term_print", micro_term_print()),
        ("term_eval", micro_term_eval()),
    ];

    let report = obj(vec![
        ("bench", Json::Str("campaign_throughput".into())),
        ("unit", Json::Str("cases_per_sec".into())),
        ("cases", Json::U64(config.max_cases as u64)),
        ("runs_per_scenario", Json::U64(RUNS as u64)),
        (
            "scenarios",
            Json::Obj(
                scenarios
                    .iter()
                    .map(|(name, rate)| (name.to_string(), Json::F64((rate * 10.0).round() / 10.0)))
                    .collect(),
            ),
        ),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json");
    let line = format!("{}\n", report.to_line());
    if let Err(e) = std::fs::write(&path, &line) {
        eprintln!("campaign_throughput: cannot write {}: {e}", path.display());
    }
    print!("{line}");

    // The criterion group re-measures the cheapest scenario so the
    // standard statistical machinery (outliers, regressions) also sees
    // the engine; the JSON above is the committed artifact.
    let mut g = c.benchmark_group("campaign_throughput");
    g.sample_size(10);
    let small = CampaignConfig {
        max_cases: 120,
        ..plan()
    };
    g.bench_function("serial_120_cases", |b| {
        b.iter(|| serial(&small).stats.cases)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

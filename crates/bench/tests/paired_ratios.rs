//! Paired A/B timing gates for the two costs the end-to-end benchmark
//! (`perfbench/`) does not measure: what tracing costs and what the
//! verdict cache buys.
//!
//! Each gate runs interleaved A/B pairs of one fixed campaign in this
//! one process, alternating which side of a pair runs first, and gates
//! the median of the per-pair throughput ratios. A host's speed divides
//! out of a ratio of two runs made back to back on it, so the floors
//! hold on any runner, unlike an absolute cases/sec baseline.
//!
//! * **trace**: cases/sec with the `o4a-obs` substrate armed (spans and
//!   metrics recorded in memory, the ring drained after every run, as a
//!   traced worker does on each heartbeat) ÷ cases/sec with it off.
//! * **cache**: cases/sec of a duplicate-heavy piped campaign (24
//!   distinct scripts cycled over the plan, 8 in flight) served off a
//!   warm verdict cache ÷ the same campaign uncached against a mock
//!   that answers at once. Both sides are then bound by the CPU, so the
//!   host divides out of this ratio too; an uncached side that waited
//!   on injected latency would let the ratio follow the host's speed.
//!
//! Every timed run must execute exactly the plan's `max_cases`: a rate
//! over a run the virtual clock cut short would compare unequal work.
//!
//! These are timing gates, so they are ignored by default; run them in
//! release on a quiet host:
//!
//! ```text
//! cargo test --release -p o4a-bench --test paired_ratios -- --ignored --test-threads 1
//! ```

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer, TestCase};
use o4a_exec::{run_shard_piped, PipeBackend};
use rand::rngs::StdRng;
use std::path::Path;
use std::time::Instant;

/// The mock solver binary, built by cargo before this suite runs.
const MOCK: &str = env!("CARGO_BIN_EXE_mock_solver");

/// Interleaved A/B pairs per gate.
const PAIRS: usize = 10;

/// Floor of the median traced ÷ untraced throughput ratio: 0.8 × 1.013,
/// the median of three runs' medians on a 2-vCPU host.
const TRACE_FLOOR: f64 = 0.81;

/// Floor of the median warm-cached ÷ latency-free uncached throughput
/// ratio: 0.8 × 1.455, the median of three runs' medians on a 2-vCPU
/// host.
const CACHE_FLOOR: f64 = 1.16;

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

/// Cases/sec of one timed run.
///
/// # Panics
///
/// Panics when the run executes anything other than `config.max_cases`
/// cases.
fn rate(config: &CampaignConfig, run: impl FnOnce(&CampaignConfig) -> CampaignResult) -> f64 {
    let start = Instant::now();
    let result = run(config);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        result.stats.cases, config.max_cases as u64,
        "a timed run executed {} of its {} planned cases",
        result.stats.cases, config.max_cases
    );
    result.stats.cases as f64 / secs
}

/// The median of [`PAIRS`] per-pair ratios `rate(b) / rate(a)`; pair `i`
/// runs `a` first when `i` is even and `b` first when it is odd.
fn median_ratio(name: &str, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (ra, rb) = if i % 2 == 0 {
                let ra = a();
                (ra, b())
            } else {
                let rb = b();
                (a(), rb)
            };
            rb / ra
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
    eprintln!("{name}: per-pair ratios {ratios:.3?}, median {median:.3}");
    median
}

fn serial(config: &CampaignConfig) -> CampaignResult {
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    o4a_exec::run_shard(&mut fuzzer, config, 0, None)
}

/// [`serial`] with tracing and metrics armed for the run; the ring drain
/// is part of the measured run.
fn serial_traced(config: &CampaignConfig) -> CampaignResult {
    o4a_obs::install(o4a_obs::ObsConfig {
        trace: true,
        metrics: true,
        dir: None,
        ..o4a_obs::ObsConfig::default()
    });
    let result = serial(config);
    let _ = o4a_obs::trace::drain_events();
    o4a_obs::uninstall();
    result
}

/// Wraps the standard fuzzer into a duplicate-heavy stream: the first
/// `period` generated cases repeat for the rest of the campaign — the
/// shape of a reduction/triage workload, where the same scripts re-solve
/// over and over.
struct CyclingFuzzer {
    inner: Once4AllFuzzer,
    period: usize,
    seen: Vec<TestCase>,
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

impl Fuzzer for CyclingFuzzer {
    fn name(&self) -> String {
        format!("{}-dup{}", self.inner.name(), self.period)
    }

    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        self.inner.setup(rng)
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
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

/// The duplicate-heavy pipe campaign: K = 8 in flight against a mock
/// that charges `latency_ms` of wall clock per query, cache on or off.
fn piped_duplicates(
    config: &CampaignConfig,
    latency_ms: u64,
    cache_dir: Option<&Path>,
) -> CampaignResult {
    let mut backend = PipeBackend::new(format!(
        "{MOCK} --seed 11 --lane {{lane}} --latency-ms {latency_ms}"
    ));
    if let Some(dir) = cache_dir {
        backend = backend.with_cache_dir(dir);
    }
    let mut fuzzer = CyclingFuzzer::new(24);
    run_shard_piped(&mut fuzzer, config, 0, None, 8, &backend)
}

#[test]
#[ignore = "timing gate; CI runs it in release"]
fn tracing_costs_at_most_its_floor() {
    let config = plan();
    let ratio = median_ratio(
        "traced / untraced",
        || rate(&config, serial),
        || rate(&config, serial_traced),
    );
    assert!(
        ratio >= TRACE_FLOOR,
        "traced / untraced throughput {ratio:.3} is under its floor {TRACE_FLOOR}"
    );
}

#[test]
#[ignore = "timing gate; CI runs it in release"]
fn warm_cache_speedup_holds_its_floor() {
    let config = plan();
    let dir = std::env::temp_dir().join(format!("o4a-paired-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    // One cold run against a slow mock fills the journal, so every timed
    // cached run is warm (the cache key names the mock's command line).
    let cached = |cfg: &CampaignConfig| piped_duplicates(cfg, 20, Some(&dir));
    rate(&config, cached);
    let ratio = median_ratio(
        "warm cached / uncached",
        || rate(&config, |cfg| piped_duplicates(cfg, 0, None)),
        || rate(&config, cached),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        ratio >= CACHE_FLOOR,
        "warm cached / uncached throughput {ratio:.3} is under its floor {CACHE_FLOOR}"
    );
}

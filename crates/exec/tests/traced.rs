//! The observability non-interference gauntlet: running the sharded
//! engine with tracing and metrics ON must be **bit-identical** to the
//! untraced run — observability is write-only, information flows out of
//! the engine and never back into scheduling, RNG, or the virtual
//! clock.
//!
//! The obs configuration is process-global, so every test here takes
//! the same mutex and tears the installation down before releasing it.

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_exec::{run_campaign_sharded, ExecConfig, Parallelism};
use o4a_obs::ObsConfig;
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    // A previous test panicking with the lock held poisons it; the obs
    // state is re-installed per test, so the poison itself is harmless.
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o4a-traced-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000,
        max_cases: 120,
        ..CampaignConfig::default()
    }
}

fn run() -> CampaignResult {
    let exec = ExecConfig {
        shards: 4,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    run_campaign_sharded(factory, &quick_config(), &exec)
}

/// Everything observable, bit-comparable — the full stats this time
/// (in-process runs have no transport nondeterminism to scrub).
type Fingerprint = (
    o4a_core::CampaignStats,
    Vec<(String, SolverId, String, Option<String>, u64)>,
    Vec<(u32, u64, usize)>,
    Vec<(SolverId, Vec<(String, u32)>)>,
);

fn fingerprint(result: &CampaignResult) -> Fingerprint {
    (
        result.stats.clone(),
        result
            .findings
            .iter()
            .map(|f| {
                (
                    f.case_text.clone(),
                    f.solver,
                    format!("{:?}", f.kind),
                    f.signature.clone(),
                    f.vhour.to_bits(),
                )
            })
            .collect(),
        result
            .snapshots
            .iter()
            .map(|s| (s.hour, s.cases, s.issues))
            .collect(),
        result
            .coverage
            .iter()
            .map(|(&id, map)| (id, map.export(universe(id))))
            .collect(),
    )
}

/// The law itself, over the serial stepper: trace-on ≡ trace-off, and
/// the traced run leaves parseable trace/metrics files whose case counter
/// equals the campaign's. (The K-in-flight leg runs over pipes, in
/// `crates/bench/tests/pipe_backend.rs`.)
#[test]
fn traced_campaign_is_bit_identical_to_untraced() {
    let _guard = obs_lock();
    o4a_obs::uninstall();
    let untraced = run();
    assert!(untraced.stats.cases > 0, "untraced run ran no cases");
    assert!(!untraced.findings.is_empty(), "equivalence leg is vacuous");

    let dir = scratch_dir("serial");
    o4a_obs::install(ObsConfig::enabled_in(&dir));
    let traced = run();
    o4a_obs::uninstall();

    assert_eq!(
        fingerprint(&traced),
        fingerprint(&untraced),
        "tracing perturbed the campaign"
    );

    // The sharded engine drains at the campaign barrier: the traced run
    // must have left files behind, and they must parse.
    let (traces, metrics) = o4a_obs::observability_files(&dir).expect("scan obs dir");
    assert!(!traces.is_empty(), "no trace file drained");
    assert!(!metrics.is_empty(), "no metrics file drained");
    let mut events = Vec::new();
    for path in &traces {
        let (_meta, mut file_events) =
            o4a_obs::trace::read_trace_file(path).expect("parse trace file");
        events.append(&mut file_events);
    }
    assert!(
        events.iter().any(|e| e.name == "case.execute"),
        "no case.execute spans in the trace"
    );
    let mut merged = o4a_obs::metrics::MetricsSnapshot::default();
    for path in &metrics {
        let (_seq, snapshot) =
            o4a_obs::metrics::read_metrics_file(path).expect("parse metrics file");
        merged.merge(&snapshot);
    }
    assert_eq!(
        merged.counters.get("campaign.cases").copied(),
        Some(untraced.stats.cases),
        "metrics case counter diverged from the campaign's own count"
    );
    // The generation ledger: one print per generated case, one mutate
    // lap total per skeleton case, both on `/metrics` under their
    // Prometheus names.
    let print = &merged.histograms["fuzzer.print"];
    assert!(print.count >= untraced.stats.cases, "{print:?}");
    let mutate = &merged.histograms["fuzzer.mutate"];
    assert!(
        mutate.count > 0 && mutate.count <= print.count,
        "{mutate:?}"
    );
    let text = o4a_obs::serve::render_prometheus(&merged, &[]);
    assert!(text.contains("# TYPE o4a_fuzzer_print histogram\n"));
    assert!(text.contains("# TYPE o4a_fuzzer_mutate histogram\n"));

    let chrome = o4a_obs::trace::export_chrome_trace(&traces).expect("chrome export");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("case.execute"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tracing alone (no metrics) and metrics alone both hold the law —
/// the two subsystems gate independently.
#[test]
fn each_knob_alone_is_bit_identical() {
    let _guard = obs_lock();
    o4a_obs::uninstall();
    let untraced = run();
    for (trace, metrics) in [(true, false), (false, true)] {
        let dir = scratch_dir(&format!("solo-t{trace}-m{metrics}"));
        o4a_obs::install(ObsConfig {
            trace,
            metrics,
            ..ObsConfig::enabled_in(&dir)
        });
        let solo = run();
        o4a_obs::uninstall();
        assert_eq!(
            fingerprint(&solo),
            fingerprint(&untraced),
            "trace={trace} metrics={metrics} perturbed the campaign"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `exec.pool_idle` records one tail per pool worker: the time from the
/// end of its last job to the end of the slowest worker's. A lone worker
/// runs inline and has no tail.
#[test]
fn pool_idle_records_each_workers_tail() {
    let _guard = obs_lock();
    o4a_obs::install(ObsConfig {
        metrics: true,
        ..ObsConfig::default()
    });
    let count = || {
        o4a_obs::metrics::snapshot()
            .histograms
            .get("exec.pool_idle")
            .map_or(0, |h| h.count)
    };
    let job = |i: usize| i * i;
    assert_eq!(o4a_exec::parallel_map(3, 2, job), vec![0, 1, 4]);
    assert_eq!(count(), 2);
    let idle = o4a_obs::metrics::snapshot().histograms["exec.pool_idle"].clone();
    // Whatever the interleaving, one worker ends last and records zero.
    assert!(
        idle.buckets.first().is_some_and(|&(b, n)| b == 0 && n >= 1),
        "{idle:?}"
    );
    o4a_exec::parallel_map(3, 1, job);
    assert_eq!(count(), 2, "a serial pool has no tail");
    let text = o4a_obs::serve::render_prometheus(&o4a_obs::metrics::snapshot(), &[]);
    assert!(text.contains("# TYPE o4a_exec_pool_idle histogram\n"));
    o4a_obs::uninstall();
}

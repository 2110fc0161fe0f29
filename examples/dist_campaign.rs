//! Demonstrates the distributed campaign engine: a coordinator spawning a
//! fleet of `dist_worker` processes that connect back to it over
//! loopback TCP, handing out dynamic shard leases, then proving the
//! merged result is bit-identical to the in-process sharded engine.
//!
//! ```text
//! cargo build -p o4a-bench --bin dist_worker
//! cargo run --example dist_campaign
//! ```
//!
//! Knobs: `O4A_DIST_WORKER` (worker binary path; defaults to the
//! `dist_worker` built next to this example's target directory),
//! `O4A_DIST_WORKERS` (fleet size, default 3), `O4A_DIST_CRASH` (any
//! non-empty value other than `0` kills one worker mid-lease to show
//! the re-issue path).

use once4all::core::{dedup, CampaignConfig, Fuzzer, Once4AllFuzzer};
use once4all::dist::{run_distributed, DistConfig};
use once4all::exec::{run_campaign_sharded, ExecConfig, Parallelism};
use std::path::PathBuf;

const SHARDS: u32 = 6;

/// The worker binary: `O4A_DIST_WORKER`, or `dist_worker` in the same
/// target profile directory this example was built into.
fn worker_binary() -> PathBuf {
    if let Ok(path) = std::env::var("O4A_DIST_WORKER") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("own path");
    let profile_dir = exe
        .parent() // .../target/<profile>/examples
        .and_then(|p| p.parent()) // .../target/<profile>
        .expect("examples live two levels under target");
    profile_dir.join("dist_worker")
}

fn main() {
    let worker = worker_binary();
    if !worker.exists() {
        eprintln!(
            "worker binary {} not found — build it first:\n    cargo build -p o4a-bench --bin dist_worker",
            worker.display()
        );
        std::process::exit(2);
    }
    let workers: u32 = std::env::var("O4A_DIST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    let crash = std::env::var("O4A_DIST_CRASH").is_ok_and(|v| !v.is_empty() && v != "0");

    let config = CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000, // demo scale: a few dozen cases over the fleet
        max_cases: 180,
        ..CampaignConfig::default()
    };
    let scratch = std::env::temp_dir().join(format!("once4all-dist-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut command = vec![worker.display().to_string()];
    if crash {
        command.extend([
            "--crash-shard".into(),
            "1".into(),
            "--crash-token".into(),
            scratch.join("crash-token").display().to_string(),
        ]);
        std::fs::create_dir_all(&scratch).expect("scratch dir");
    }
    let dist = DistConfig::new(command, scratch.join("journals")).with_workers(workers);

    println!(
        "distributing {SHARDS} shards across {workers} worker process(es){}...",
        if crash { " with crash injection" } else { "" }
    );
    let report = run_distributed(&config, SHARDS, &dist).expect("distributed campaign");
    let result = &report.result;
    println!(
        "merged: {} cases, {} findings, {} deduplicated issues",
        result.stats.cases,
        result.findings.len(),
        dedup(&result.findings).len(),
    );
    println!(
        "fleet : {} spawned ({} died), {} leases ({} re-issued)",
        report.stats.workers_spawned,
        report.stats.worker_deaths,
        report.stats.leases_granted,
        report.stats.leases_reissued,
    );
    for w in &report.stats.per_worker {
        println!(
            "  w{}: {} leases, {} cases, {:.1} cases/s ({})",
            w.worker,
            w.leases_completed,
            w.cases,
            w.cases_per_sec(),
            if w.clean_exit { "clean exit" } else { "died" },
        );
    }

    // The distribution law, checked live: same plan, one process.
    let exec = ExecConfig {
        shards: SHARDS,
        parallelism: Parallelism::Auto,
        ..ExecConfig::default()
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    let reference = run_campaign_sharded(factory, &config, &exec);
    assert_eq!(
        result.stats.sans_transport(),
        reference.stats.sans_transport()
    );
    assert_eq!(result.findings.len(), reference.findings.len());
    assert_eq!(result.final_coverage, reference.final_coverage);
    let hourly = |r: &once4all::core::CampaignResult| -> Vec<(u32, u64, usize)> {
        r.snapshots
            .iter()
            .map(|s| (s.hour, s.cases, s.issues))
            .collect()
    };
    assert_eq!(hourly(result), hourly(&reference));
    println!("distributed == in-process: findings, stats, coverage, hourly series all agree");
    let _ = std::fs::remove_dir_all(&scratch);
}

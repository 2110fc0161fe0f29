//! Demonstrates the elastic TCP fleet: a coordinator listening for
//! `dist_worker --connect` processes that join as they please — one of
//! them mid-campaign — with lease state checkpointed so a killed
//! coordinator could resume, then proving the merged result is
//! bit-identical to the in-process sharded engine.
//!
//! ```text
//! cargo build -p o4a-bench --bin dist_worker
//! cargo run --example elastic_campaign
//! ```
//!
//! Knobs: `O4A_DIST_WORKER` (worker binary path; defaults to the
//! `dist_worker` built next to this example's target directory),
//! `O4A_DIST_WORKERS` (initial fleet size, default 2 — one more joins
//! mid-campaign).

use once4all::core::{dedup, CampaignConfig, Fuzzer, Once4AllFuzzer};
use once4all::dist::{run_distributed, DistConfig};
use once4all::exec::{run_campaign_sharded, ExecConfig, Parallelism};
use std::path::PathBuf;
use std::process::{Command, Stdio};

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
    let initial: u32 = std::env::var("O4A_DIST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2);

    let config = CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000, // demo scale: a few dozen cases over the fleet
        max_cases: 180,
        ..CampaignConfig::default()
    };
    let scratch =
        std::env::temp_dir().join(format!("once4all-elastic-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("journals")).expect("scratch dir");

    // Pick a port, then listen on it: joining workers retry their dial,
    // so the order never matters.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
    };
    let spawn_joiner = |id: u32, slow_ms: u64| {
        Command::new(&worker)
            .arg("--journal")
            .arg(scratch.join(format!("journals/w{id}.jsonl")))
            .arg("--worker")
            .arg(id.to_string())
            .arg("--connect")
            .arg(&addr)
            .arg("--slow-ms")
            .arg(slow_ms.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn dist_worker")
    };

    // The initial fleet drags a little per case so the late joiner
    // arrives while leases are still in flight. `run_distributed`
    // blocks, so the late spawn happens from a helper thread.
    let mut fleet: Vec<_> = (0..initial).map(|id| spawn_joiner(id, 120)).collect();
    let late_worker = {
        let scratch = scratch.clone();
        let addr = addr.clone();
        let worker = worker.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(500));
            println!("worker 99 joining mid-campaign at {addr}...");
            Command::new(&worker)
                .arg("--journal")
                .arg(scratch.join("journals/w99.jsonl"))
                .arg("--worker")
                .arg("99")
                .arg("--connect")
                .arg(&addr)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn late dist_worker")
        })
    };

    let dist = DistConfig::new(Vec::new(), scratch.join("journals"))
        .with_listen(addr.clone())
        .with_workers(initial)
        .with_checkpoint(scratch.join("checkpoint.jsonl"));
    println!("listening on {addr}: {SHARDS} shards, {initial} worker(s) joining, 1 more late...");
    let report = run_distributed(&config, SHARDS, &dist).expect("elastic campaign");
    fleet.push(late_worker.join().expect("late joiner"));
    for mut child in fleet {
        child.wait().expect("reap worker");
    }

    let result = &report.result;
    println!(
        "merged: {} cases, {} findings, {} deduplicated issues",
        result.stats.cases,
        result.findings.len(),
        dedup(&result.findings).len(),
    );
    println!(
        "fleet : {} joined ({} goodbyes), {} leases ({} re-issued), checkpoint at {}",
        report.stats.workers_joined,
        report.stats.workers_left,
        report.stats.leases_granted,
        report.stats.leases_reissued,
        scratch.join("checkpoint.jsonl").display(),
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

    // The distribution law, checked live: same plan, one process, no
    // network — the elastic fleet cannot move a bit.
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
    println!("elastic TCP fleet == in-process: findings, stats, coverage all agree");
    let _ = std::fs::remove_dir_all(&scratch);
}

//! The reference elastic-fleet coordinator binary: `o4a_dist`'s
//! coordinator behind a CLI, listening for workers that join by
//! connecting (`dist_worker --connect`) and journaling lease state to a
//! checkpoint so a killed coordinator resumes.
//!
//! ```text
//! dist_coordinator (--plan JSON | --quick-plan SHARDS) --listen HOST:PORT \
//!     --journal-dir DIR \
//!     [--checkpoint PATH] [--heartbeat-ms MS] [--accept-timeout-ms MS] \
//!     [--workers N] [--static-split] [--exit-after-done K] [--scope HOST:PORT]
//! ```
//!
//! `--plan` is the canonical [`o4a_dist::CampaignPlan`] JSON (the same
//! encoding the `lease` frames carry), so the driving test and every
//! coordinator incarnation agree bit-for-bit on the campaign.
//! `--exit-after-done K` is the resumable-coordinator gauntlet's fault
//! injection: die abruptly (exit code 9) after recording K shard
//! completions. On success the final line on stdout is a parseable
//! `o4a-dist: done ...` stats record; the human-readable fleet summary
//! goes to stderr.

use o4a_dist::{run_distributed, CampaignPlan, DistConfig};
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("dist_coordinator: {msg}");
    eprintln!(
        "usage: dist_coordinator (--plan JSON | --quick-plan SHARDS) --listen HOST:PORT \
         --journal-dir DIR \
         [--checkpoint PATH] [--heartbeat-ms MS] [--accept-timeout-ms MS] \
         [--workers N] [--static-split] [--exit-after-done K] [--scope HOST:PORT]"
    );
    std::process::exit(2);
}

fn main() {
    let mut plan: Option<CampaignPlan> = None;
    let mut listen: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut heartbeat_ms: u64 = 30_000;
    let mut accept_timeout_ms: u64 = 60_000;
    let mut workers: u32 = 2;
    let mut static_split = false;
    let mut exit_after_done: Option<u64> = None;
    let mut scope: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let int = |flag: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs an integer")))
        };
        match flag.as_str() {
            "--plan" => {
                let json = o4a_exec::json::parse(&value())
                    .unwrap_or_else(|e| usage(&format!("--plan is not JSON: {e}")));
                plan = Some(
                    CampaignPlan::from_json(&json)
                        .unwrap_or_else(|e| usage(&format!("--plan is not a campaign plan: {e}"))),
                );
            }
            "--quick-plan" => {
                // The gauntlets' smoke-scale plan, built in-process so
                // shell drivers (the CI scope leg) need no JSON at all.
                plan = Some(CampaignPlan {
                    config: o4a_core::CampaignConfig {
                        virtual_hours: 2,
                        time_scale: 50_000,
                        max_cases: 120,
                        ..o4a_core::CampaignConfig::default()
                    },
                    shards: int("--quick-plan", value()) as u32,
                });
            }
            "--listen" => listen = Some(value()),
            "--journal-dir" => journal_dir = Some(value()),
            "--checkpoint" => checkpoint = Some(value()),
            "--heartbeat-ms" => heartbeat_ms = int("--heartbeat-ms", value()),
            "--accept-timeout-ms" => accept_timeout_ms = int("--accept-timeout-ms", value()),
            "--workers" => workers = int("--workers", value()) as u32,
            "--static-split" => static_split = true,
            "--exit-after-done" => exit_after_done = Some(int("--exit-after-done", value())),
            "--scope" => scope = Some(value()),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let Some(plan) = plan else {
        usage("--plan or --quick-plan is required");
    };
    let Some(listen) = listen else {
        usage("--listen is required");
    };
    let Some(journal_dir) = journal_dir else {
        usage("--journal-dir is required");
    };

    let mut dist = DistConfig::new(Vec::new(), journal_dir)
        .with_listen(listen)
        .with_workers(workers)
        .with_static_split(static_split)
        .with_heartbeat_timeout(Duration::from_millis(heartbeat_ms))
        .with_accept_timeout(Duration::from_millis(accept_timeout_ms));
    if let Some(path) = checkpoint {
        dist = dist.with_checkpoint(path);
    }
    if let Some(k) = exit_after_done {
        dist = dist.with_exit_after_completions(k);
    }
    if let Some(addr) = scope {
        dist = dist.with_scope(addr);
    }

    match run_distributed(&plan.config, plan.shards, &dist) {
        Ok(report) => {
            eprintln!("{}", o4a_bench::render_dist_stats(&report.stats));
            // One machine-parseable line for the elastic-fleet gauntlet.
            println!(
                "o4a-dist: done resumed={} joined={} readopted={} left={} \
                 shards_readopted={} reissued={} granted={} cases={} findings={}",
                report.stats.resumed,
                report.stats.workers_joined,
                report.stats.workers_readopted,
                report.stats.workers_left,
                report.stats.shards_readopted,
                report.stats.leases_reissued,
                report.stats.leases_granted,
                report.result.stats.cases,
                report.result.findings.len(),
            );
        }
        Err(e) => {
            eprintln!("dist_coordinator: {e}");
            std::process::exit(1);
        }
    }
}

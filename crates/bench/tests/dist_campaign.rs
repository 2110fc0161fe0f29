//! The distributed-campaign gauntlet: the coordinator/worker engine
//! (`o4a-dist`) driving real worker processes (built from
//! `src/bin/dist_worker.rs`) against the in-process sharded engine.
//!
//! The acceptance criteria this file pins down:
//!
//! * a distributed campaign is **bit-identical** to the in-process
//!   sharded run of the same plan — findings (down to the `vhour`
//!   bits), final coverage maps, the **hourly snapshot series**
//!   (lossless per-hour union, not the old per-shard-max lower bound),
//!   and `CampaignStats::sans_transport` — for any fleet size;
//! * killing a worker mid-lease changes nothing: the lease is
//!   re-issued, the half-journaled shard re-derives deterministically,
//!   and the merged result stays bit-identical while the lease-churn
//!   counters record that it happened;
//! * a fleet that never speaks the protocol is killed at the heartbeat
//!   deadline and the campaign fails bounded-ly instead of hanging;
//! * the spawned fleet's loopback listener admits only the
//!   coordinator's own children: a `hello` without the per-run secret
//!   gets `goodbye`, no lease, and its journal is never merged, and a
//!   peer whose first frame is not a well-formed `hello` is closed
//!   without a word;
//! * the fleet summary renders per-worker throughput and lease churn.

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_dist::{connect_with_retry, run_distributed, DistConfig, DistReport, Frame};
use o4a_exec::{run_campaign_sharded, ExecConfig, FindingSink, FindingsStore, Parallelism};
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The reference worker binary, built by cargo before this suite runs.
const WORKER: &str = env!("CARGO_BIN_EXE_dist_worker");

/// Total shards in the gauntlet plan. Fleet size varies; the plan never
/// does — that is what makes every run comparable bit-for-bit.
const SHARDS: u32 = 4;

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000, // smoke scale: ~8 cases and a few findings per shard
        max_cases: 120,
        ..CampaignConfig::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o4a-dist-gauntlet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// An address the OS considers free right now: bind, read, release.
fn free_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    probe.local_addr().expect("probe addr").to_string()
}

/// Everything observable, bit-comparable: stats (transport counters
/// scrubbed — fleet size and worker deaths are transport facts),
/// findings with their discovery hours, the hourly snapshot series
/// including the per-solver coverage percentages, and the final
/// coverage maps exported branch-by-branch.
type Fingerprint = (
    o4a_core::CampaignStats,
    Vec<(String, SolverId, String, Option<String>, u64)>,
    Vec<(u32, u64, usize, Vec<(SolverId, u64, u64)>)>,
    Vec<(SolverId, Vec<(String, u32)>)>,
);

fn fingerprint(result: &CampaignResult) -> Fingerprint {
    (
        result.stats.sans_transport(),
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
            .map(|s| {
                (
                    s.hour,
                    s.cases,
                    s.issues,
                    s.coverage
                        .iter()
                        .map(|(&id, p)| (id, p.line_pct.to_bits(), p.function_pct.to_bits()))
                        .collect(),
                )
            })
            .collect(),
        result
            .coverage
            .iter()
            .map(|(&id, map)| (id, map.export(universe(id))))
            .collect(),
    )
}

fn dist_run(tag: &str, workers: u32, crash: bool) -> DistReport {
    let dir = scratch_dir(tag);
    let mut command = vec![WORKER.to_string()];
    if crash {
        // Die mid-way through shard 2 (which runs ~7 cases and records
        // findings at this scale), once per campaign — the token's
        // atomic creation is the latch. The per-case delay makes a lease
        // outlast the jitter in the workers' start-up, so the death lands
        // while every other worker is still busy and the coordinator has
        // to spawn a replacement (with an idle worker around, it rightly
        // hands the re-issued lease to that one instead). Results are
        // invariant to the delay.
        command.extend([
            "--crash-shard".into(),
            "2".into(),
            "--crash-after".into(),
            "4".into(),
            "--crash-token".into(),
            dir.join("crash-token").display().to_string(),
            "--slow-ms".into(),
            "100".into(),
        ]);
    }
    let dist = DistConfig::new(command, dir.join("journals"))
        .with_workers(workers)
        .with_heartbeat_timeout(Duration::from_secs(30));
    let report = run_distributed(&quick_config(), SHARDS, &dist).expect("distributed campaign");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn in_process_reference() -> CampaignResult {
    let exec = ExecConfig {
        shards: SHARDS,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    run_campaign_sharded(factory, &quick_config(), &exec)
}

/// The tentpole law, single fleet: one worker process, leases served
/// back to back, journals round-tripped through disk — bit-identical to
/// the in-process sharded engine.
#[test]
fn single_worker_campaign_matches_in_process_sharded() {
    let reference = in_process_reference();
    assert!(reference.stats.cases > 0, "reference ran no cases");
    assert!(
        !reference.findings.is_empty(),
        "reference found nothing — the findings legs of the gauntlet are vacuous"
    );
    let report = dist_run("w1", 1, false);
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&reference),
        "1-worker distributed campaign diverged from the in-process engine"
    );
    assert_eq!(report.stats.workers_spawned, 1);
    assert_eq!(report.stats.leases_granted, SHARDS as u64);
    assert_eq!(report.stats.leases_reissued, 0);
    // Fleet churn is accounted as transport work on the merged stats.
    assert_eq!(report.result.stats.processes_spawned, 1);
    assert_eq!(report.result.stats.leases_granted, SHARDS as u64);
}

/// The acceptance criterion: a 4-worker fleet with one worker killed
/// mid-lease produces findings, final coverage maps, hourly snapshot
/// series, and `sans_transport` stats bit-identical to the undisturbed
/// single-worker run — and the churn counters prove the crash actually
/// happened and the lease was re-issued.
#[test]
fn four_workers_with_crash_mid_lease_are_bit_identical() {
    let reference = dist_run("ref", 1, false);
    let crashed = dist_run("crash4", 4, true);
    assert!(
        crashed.stats.worker_deaths >= 1,
        "crash injection never fired"
    );
    assert!(
        crashed.stats.leases_reissued >= 1,
        "the killed worker's lease was not re-issued"
    );
    assert!(
        crashed.stats.leases_granted > SHARDS as u64,
        "a re-issued lease must be granted again"
    );
    assert_eq!(
        fingerprint(&crashed.result),
        fingerprint(&reference.result),
        "a worker killed mid-lease leaked into the merged result"
    );
    // The replacement worker keeps the fleet at strength.
    assert!(crashed.stats.workers_spawned >= 5);
}

/// Fleet-size sweep (the CI matrix reads the size from the
/// environment): any number of workers, with or without crash
/// injection, merges to the same campaign.
#[test]
fn fleet_size_from_env_matches_reference() {
    let workers: u32 = std::env::var("O4A_DIST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2);
    let crash = std::env::var("O4A_DIST_CRASH").is_ok_and(|v| !v.is_empty() && v != "0");
    let reference = in_process_reference();
    let report = dist_run("env", workers, crash);
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&reference),
        "{workers}-worker fleet (crash: {crash}) diverged from the in-process engine"
    );
}

/// Hourly snapshots merge losslessly across the distributed path: the
/// final hour's percentages equal the final union coverage — the
/// invariant the old per-shard-max lower bound broke for every
/// multi-shard merge.
#[test]
fn distributed_hourly_series_is_exact() {
    let report = dist_run("hourly", 2, false);
    let last = report.result.snapshots.last().expect("snapshots");
    assert_eq!(
        last.coverage, report.result.final_coverage,
        "final-hour snapshot must equal final union coverage"
    );
    assert_eq!(
        report.result.hourly_coverage.len(),
        report.result.snapshots.len(),
        "merged result must carry its per-hour raw maps"
    );
}

/// A fleet that never speaks the protocol (here: `sleep`) is killed at
/// the heartbeat deadline; the campaign fails after the respawn budget,
/// bounded in time — never a hang.
#[test]
fn silent_workers_are_killed_at_the_deadline() {
    let dir = scratch_dir("wedge");
    // `sh -c 'sleep 30'` swallows the appended `--journal`/`--worker`
    // args as positional parameters and then sits silent — a live
    // process that never heartbeats, which only the deadline can catch.
    let command = vec!["sh".into(), "-c".into(), "sleep 30".into()];
    let dist = DistConfig::new(command, dir.join("journals"))
        .with_workers(1)
        .with_heartbeat_timeout(Duration::from_millis(150))
        .with_max_respawns(1);
    let started = Instant::now();
    let err = run_distributed(&quick_config(), 2, &dist)
        .expect_err("a fleet of sleeps cannot finish a campaign");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "wedged fleet was not killed at the deadline"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("keeps dying"),
        "unexpected failure mode: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability acceptance criterion: a 4-worker crash-injected
/// fleet running with `O4A_TRACE`/`O4A_METRICS` on in every worker
/// (via [`DistConfig::with_env`] — the coordinator's own environment is
/// untouched) merges **bit-identical** to the untraced in-process
/// engine, while the obs dir fills with per-process trace/metrics
/// files that parse, export as one fleet-wide Chrome trace, and whose
/// merged case counter equals the campaign's own.
#[test]
fn traced_fleet_matches_untraced_in_process() {
    let reference = in_process_reference();
    let dir = scratch_dir("traced");
    let obs_dir = dir.join("obs");
    let command = vec![
        WORKER.to_string(),
        "--crash-shard".into(),
        "2".into(),
        "--crash-after".into(),
        "4".into(),
        "--crash-token".into(),
        dir.join("crash-token").display().to_string(),
    ];
    let dist = DistConfig::new(command, dir.join("journals"))
        .with_workers(4)
        .with_heartbeat_timeout(Duration::from_secs(30))
        .with_env("O4A_TRACE", obs_dir.display().to_string())
        .with_env("O4A_METRICS", obs_dir.display().to_string());
    let report = run_distributed(&quick_config(), SHARDS, &dist).expect("traced campaign");

    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&reference),
        "a traced fleet diverged from the untraced in-process engine"
    );
    assert!(
        report.stats.worker_deaths >= 1,
        "crash injection never fired under tracing"
    );

    // Metrics snapshots rode the done/progress frames into the
    // coordinator's fleet-wide view.
    assert!(
        !report.stats.fleet_metrics.is_empty(),
        "no metrics snapshots arrived on protocol frames"
    );
    assert!(
        report
            .stats
            .fleet_metrics
            .counters
            .get("campaign.cases")
            .copied()
            .unwrap_or(0)
            > 0,
        "fleet metrics carry no case counter: {:?}",
        report.stats.fleet_metrics.counters
    );
    let summary = o4a_bench::render_dist_stats(&report.stats);
    assert!(
        summary.contains("fleet metrics"),
        "summary does not render the fleet metrics:\n{summary}"
    );

    // Every cleanly-exiting worker drained its trace ring and metrics
    // registry to the obs dir; the crashed one died without draining
    // (best-effort by design). All surviving files must parse, and the
    // drained case counters must sum to exactly the campaign's cases —
    // completed leases are counted once, the crashed partial lease not
    // at all.
    let (traces, metrics) = o4a_obs::observability_files(&obs_dir).expect("scan obs dir");
    assert!(!traces.is_empty(), "no worker drained a trace file");
    assert!(!metrics.is_empty(), "no worker drained a metrics file");
    let mut events = Vec::new();
    for path in &traces {
        let (_meta, mut file_events) =
            o4a_obs::trace::read_trace_file(path).expect("parse trace file");
        events.append(&mut file_events);
    }
    for name in ["lease.serve", "case.execute"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "no {name} events in the fleet trace"
        );
    }
    let mut drained = o4a_obs::metrics::MetricsSnapshot::default();
    for path in &metrics {
        let (_seq, snapshot) =
            o4a_obs::metrics::read_metrics_file(path).expect("parse metrics file");
        drained.merge(&snapshot);
    }
    assert_eq!(
        drained.counters.get("campaign.cases").copied(),
        Some(reference.stats.cases),
        "drained worker metrics diverged from the campaign's case count"
    );

    // The per-process traces align into one merged Chrome trace.
    let chrome = o4a_obs::trace::export_chrome_trace(&traces).expect("chrome export");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("lease.serve"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fleet summary renders per-worker throughput and lease churn
/// (alongside the process-churn counters `render_stats` already shows).
#[test]
fn fleet_summary_renders() {
    let report = dist_run("render", 2, false);
    let summary = o4a_bench::render_dist_stats(&report.stats);
    assert!(summary.contains("shard leases granted"));
    assert!(
        summary.contains("w0"),
        "per-worker rows missing:\n{summary}"
    );
    assert!(summary.contains("/s"), "throughput missing:\n{summary}");
    let stats = o4a_bench::render_stats(&report.result);
    assert!(
        stats.contains("shard leases granted"),
        "campaign stats must surface lease churn:\n{stats}"
    );
}

/// The spawned fleet's listener is loopback TCP like any other, but it
/// admits only the coordinator's own children. Rogues connect to a
/// running campaign. Two impersonate the children's ids — one with no
/// secret, one with a wrong one — and name a journal full of forged
/// `shard_done` records; each gets `goodbye` and nothing else. Three
/// send one frame before any `hello` — a stray `done`, a line of
/// 1,000,000 `[`, and a `hello` that is not UTF-8 — and each is closed
/// with no frame sent back. No worker's journal is the forged one, and
/// the result is the in-process one.
#[test]
fn rogue_hellos_are_refused_by_a_spawned_fleet() {
    let reference = in_process_reference();
    let dir = scratch_dir("rogue");
    let addr = free_addr();
    let forged = dir.join("forged.jsonl");
    {
        let (session, _) = FindingsStore::new(&forged)
            .resume_or_create(&quick_config(), SHARDS)
            .expect("forged journal");
        let mut fake = reference.clone();
        fake.stats.cases += 1_000_000;
        for shard in 0..SHARDS {
            session.on_shard_complete(shard, &fake);
        }
    }
    let journal = forged.display().to_string();
    // A `hello` names no journal; each rogue's still offers the forged
    // one under the key older workers sent.
    let hello = |worker: u32, secret: Option<String>| {
        let line = Frame::Hello { worker, secret }.to_line();
        format!("{{\"journal\":\"{journal}\",{}", &line[1..]).into_bytes()
    };
    let mut latin1_hello = format!("{{\"journal\":\"{journal}").into_bytes();
    latin1_hello.extend_from_slice(b"\xe9\",\"t\":\"hello\",\"worker\":1}");
    // (first frame, answered with a refusal)
    let rogues: Vec<_> = [
        (hello(0, None), true),
        (hello(1, Some("0".repeat(32))), true),
        (
            b"{\"cases\":1,\"findings\":0,\"shard\":0,\"t\":\"done\"}".to_vec(),
            false,
        ),
        (vec![b'['; 1_000_000], false),
        (latin1_hello, false),
    ]
    .into_iter()
    .map(|(mut frame, refused)| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = connect_with_retry(&addr, Duration::from_secs(30)).expect("rogue connect");
            let mut out = stream.try_clone().expect("clone stream");
            frame.push(b'\n');
            out.write_all(&frame).expect("send frame");
            let frames = BufReader::new(stream)
                .lines()
                .map_while(Result::ok)
                .collect::<Vec<String>>();
            (frames, refused)
        })
    })
    .collect();

    // The per-case delay keeps the campaign running while the rogues
    // knock; results are invariant to it.
    let command = vec![WORKER.to_string(), "--slow-ms".into(), "40".into()];
    let dist = DistConfig::new(command, dir.join("journals"))
        .with_workers(2)
        .with_listen(addr.clone())
        .with_heartbeat_timeout(Duration::from_secs(30));
    let report = run_distributed(&quick_config(), SHARDS, &dist).expect("spawned fleet");

    for rogue in rogues {
        let (frames, refused) = rogue.join().expect("rogue thread");
        if refused {
            assert_eq!(
                frames.len(),
                1,
                "a rogue got more than a refusal: {frames:?}"
            );
            assert!(
                matches!(Frame::from_line(&frames[0]), Ok(Frame::Goodbye { .. })),
                "a rogue was not refused: {frames:?}"
            );
        } else {
            assert!(
                frames.is_empty(),
                "a malformed first frame was answered: {frames:?}"
            );
        }
    }
    assert!(
        report.stats.per_worker.iter().all(|w| w.journal != forged),
        "the forged journal was merged: {:?}",
        report.stats.per_worker
    );
    assert_eq!(report.stats.workers_spawned, 2);
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&reference),
        "a rogue hello leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! The elastic-fleet gauntlet: workers that join on their own,
//! mid-campaign worker churn, and the resumable coordinator (`o4a-dist`
//! over `dist_worker --connect` / `dist_coordinator`), all held to the
//! same law as the spawned-fleet gauntlet in `dist_campaign.rs`: **every
//! topology merges bit-identical to the in-process sharded engine.**
//!
//! The scenarios (each one a CI matrix leg; `O4A_ELASTIC_WORKERS` sets
//! the fleet size, default 2):
//!
//! * a TCP fleet of N workers matches the in-process run;
//! * a worker joining mid-campaign is granted the next lease;
//! * a worker killed mid-lease has its lease re-issued to a survivor;
//! * a worker leaving voluntarily (`goodbye`) retires cleanly;
//! * a peer that completes a shard it does not hold is retired like a
//!   dead worker instead of failing the campaign;
//! * a peer whose first frame nests past the JSON cap is refused,
//!   counted, and dropped while the coordinator keeps serving;
//! * a coordinator killed mid-campaign resumes from its checkpoint,
//!   re-adopts the still-live fleet, and merges bit-identical;
//! * a heterogeneous fleet (one slow machine) finishes sooner with
//!   work stealing than with a static split — the dynamic-lease claim,
//!   measured.

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_dist::{
    connect_with_retry, run_distributed, CacheCounters, CampaignPlan, DistConfig, DistReport, Frame,
};
use o4a_exec::{merge_shard_results, run_campaign_sharded, ExecConfig, FindingsStore, Parallelism};
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The reference binaries, built by cargo before this suite runs.
const WORKER: &str = env!("CARGO_BIN_EXE_dist_worker");
const COORDINATOR: &str = env!("CARGO_BIN_EXE_dist_coordinator");

/// Total shards in the gauntlet plan (the heterogeneous scenario uses
/// more — it needs a tail worth stealing).
const SHARDS: u32 = 4;

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000, // smoke scale: ~8 cases and a few findings per shard
        max_cases: 120,
        ..CampaignConfig::default()
    }
}

fn fleet_size() -> u32 {
    std::env::var("O4A_ELASTIC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(2)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o4a-elastic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("journals")).expect("scratch dir");
    dir
}

/// An address the OS considers free right now: bind, read, release. The
/// joining workers retry their dial, so the coordinator binding it a
/// moment later is race-free in practice.
fn free_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    probe.local_addr().expect("probe addr").to_string()
}

/// Everything observable, bit-comparable — the same fingerprint as the
/// spawned-fleet gauntlet: `sans_transport` stats, findings down to the `vhour`
/// bits, the hourly snapshot series, and the exported coverage maps.
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

fn in_process_reference(shards: u32) -> CampaignResult {
    let exec = ExecConfig {
        shards,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    run_campaign_sharded(factory, &quick_config(), &exec)
}

/// Spawns a `dist_worker --connect` process. `extra` carries the
/// per-scenario fault-injection flags.
fn spawn_joiner(addr: &str, dir: &std::path::Path, id: u32, extra: &[String]) -> Child {
    Command::new(WORKER)
        .arg("--journal")
        .arg(dir.join(format!("journals/w{id}.jsonl")))
        .arg("--worker")
        .arg(id.to_string())
        .arg("--connect")
        .arg(addr)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn dist_worker")
}

/// Reaps a fleet, asserting every worker exited cleanly (the campaign
/// ends with a coordinator `goodbye`, never a dropped socket).
fn reap_clean(workers: Vec<Child>) {
    for mut child in workers {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait().expect("wait worker") {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    child.kill().ok();
                    child.wait().ok();
                    panic!("worker did not exit after the campaign");
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(status.success(), "worker exited dirty: {status:?}");
    }
}

fn tcp_coordinator(addr: &str, dir: &std::path::Path, workers: u32) -> DistConfig {
    DistConfig::new(Vec::new(), dir.join("journals"))
        .with_listen(addr.to_string())
        .with_workers(workers)
        .with_heartbeat_timeout(Duration::from_secs(30))
        .with_accept_timeout(Duration::from_secs(60))
}

/// Baseline: an N-worker TCP fleet — workers join by connecting, nobody
/// is spawned by the coordinator — merges bit-identical to the
/// in-process sharded engine.
#[test]
fn tcp_fleet_matches_in_process() {
    let n = fleet_size();
    let dir = scratch_dir("tcp");
    let addr = free_addr();
    let workers: Vec<Child> = (0..n)
        .map(|id| spawn_joiner(&addr, &dir, id, &[]))
        .collect();
    let report =
        run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, n)).expect("tcp");
    reap_clean(workers);
    assert_eq!(report.stats.workers_joined, u64::from(n));
    assert_eq!(
        report.stats.workers_spawned, 0,
        "TCP fleets are not spawned"
    );
    assert_eq!(report.stats.leases_granted, u64::from(SHARDS));
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "{n}-worker TCP fleet diverged from the in-process engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic scale-out: a worker joining mid-campaign (the fleet is N-1
/// slow machines; the joiner arrives once leases are in flight) is
/// granted the next lease and contributes — with no effect on the bits.
#[test]
fn worker_join_mid_campaign_pulls_leases() {
    let n = fleet_size();
    let dir = scratch_dir("join");
    let addr = free_addr();
    // The initial fleet drags 150 ms per case so the campaign is still
    // running when the joiner dials in.
    let slow = ["--slow-ms".to_string(), "150".to_string()];
    let mut workers: Vec<Child> = (0..n - 1)
        .map(|id| spawn_joiner(&addr, &dir, id, &slow))
        .collect();
    let late = {
        let addr = addr.clone();
        let dir = dir.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(600));
            spawn_joiner(&addr, &dir, 99, &[])
        })
    };
    let report =
        run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, n)).expect("join");
    workers.push(late.join().expect("joiner thread"));
    reap_clean(workers);
    assert_eq!(report.stats.workers_joined, u64::from(n));
    let joiner = report
        .stats
        .per_worker
        .iter()
        .find(|w| w.worker == 99)
        .expect("late joiner never joined");
    assert!(
        joiner.leases_completed >= 1,
        "mid-campaign joiner was never granted a lease"
    );
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "elastic scale-out leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic scale-in, the hard way: a worker killed mid-lease (every
/// worker carries the crash injection; the shared token fires it exactly
/// once, in whoever serves shard 2 first) drops its connection, the
/// coordinator re-issues the lease to a survivor, and the merged result
/// does not move a bit.
#[test]
fn worker_killed_mid_lease_has_its_lease_reissued() {
    let n = fleet_size();
    let dir = scratch_dir("killed");
    let addr = free_addr();
    let crash = [
        "--crash-shard".to_string(),
        "2".to_string(),
        "--crash-after".to_string(),
        "4".to_string(),
        "--crash-token".to_string(),
        dir.join("crash-token").display().to_string(),
    ];
    let mut workers: Vec<Child> = (0..n)
        .map(|id| spawn_joiner(&addr, &dir, id, &crash))
        .collect();
    let report =
        run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, n)).expect("killed");
    // Exactly one worker died by design; reap it separately (nonzero
    // exit) and hold the survivors to the clean-goodbye contract.
    let mut clean = Vec::new();
    let mut deaths = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    for mut child in workers.drain(..) {
        let status = loop {
            match child.try_wait().expect("wait worker") {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    child.kill().ok();
                    child.wait().ok();
                    panic!("worker did not exit after the campaign");
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if status.success() {
            clean.push(());
        } else {
            deaths += 1;
        }
    }
    assert_eq!(deaths, 1, "the crash token fires exactly once");
    assert!(
        report.stats.worker_deaths >= 1,
        "coordinator missed the death"
    );
    assert!(
        report.stats.leases_reissued >= 1,
        "the dead worker's lease was not re-issued"
    );
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "a worker killed mid-lease leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic scale-in, the polite way: a worker that says `goodbye` after
/// its first lease retires cleanly — counted, never re-granted, bits
/// unmoved.
#[test]
fn voluntary_goodbye_retires_the_worker_cleanly() {
    let dir = scratch_dir("goodbye");
    let addr = free_addr();
    let leaver_flags = ["--leave-after-leases".to_string(), "1".to_string()];
    let workers = vec![
        spawn_joiner(&addr, &dir, 0, &leaver_flags),
        spawn_joiner(&addr, &dir, 1, &[]),
    ];
    let report = run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, 2))
        .expect("goodbye");
    reap_clean(workers);
    assert_eq!(report.stats.workers_left, 1, "the goodbye was not honoured");
    assert_eq!(report.stats.worker_deaths, 0, "a goodbye is not a death");
    let leaver = report
        .stats
        .per_worker
        .iter()
        .find(|w| w.worker == 0)
        .expect("leaver summary");
    assert_eq!(leaver.leases_completed, 1, "the leaver served exactly one");
    assert!(leaver.clean_exit, "a goodbye is a clean exit");
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "a voluntary departure leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One bad frame from one peer must not fail the campaign: a rogue
/// joiner takes its lease, then reports `done` for a shard outside the
/// plan. The coordinator hangs up on it through the death path — its
/// lease is re-issued to the honest fleet, which joins only once the
/// rogue holds a lease — and the merge is the in-process one.
#[test]
fn stray_done_retires_the_peer_instead_of_failing_the_campaign() {
    let dir = scratch_dir("stray-done");
    let addr = free_addr();
    let (leased_tx, leased_rx) = std::sync::mpsc::channel();
    let rogue = {
        let addr = addr.clone();
        let journal = dir.join("journals/rogue.jsonl").display().to_string();
        std::thread::spawn(move || {
            let stream = connect_with_retry(&addr, Duration::from_secs(30)).expect("rogue connect");
            let mut out = stream.try_clone().expect("clone stream");
            let hello = Frame::Hello {
                worker: 77,
                journal,
                secret: None,
            };
            writeln!(out, "{}", hello.to_line()).expect("send hello");
            let mut frames = BufReader::new(stream).lines().map_while(Result::ok);
            let lease = frames.next().expect("rogue was never leased");
            assert!(
                matches!(Frame::from_line(&lease), Ok(Frame::Lease { .. })),
                "rogue expected a lease, got {lease}"
            );
            leased_tx.send(()).expect("signal lease");
            let stray = Frame::Done {
                shard: SHARDS + 5,
                cases: 1,
                findings: 0,
                cases_per_sec: 0.0,
                metrics: None,
                cache: CacheCounters::default(),
                trace: None,
                coverage: BTreeMap::new(),
            };
            writeln!(out, "{}", stray.to_line()).expect("send stray done");
            frames.collect::<Vec<String>>()
        })
    };
    let fleet = {
        let (addr, dir) = (addr.clone(), dir.clone());
        std::thread::spawn(move || {
            leased_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("rogue never held a lease");
            (0..2)
                .map(|id| spawn_joiner(&addr, &dir, id, &[]))
                .collect::<Vec<Child>>()
        })
    };
    let report = run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, 2))
        .expect("a stray done must not abort the campaign");
    reap_clean(fleet.join().expect("fleet thread"));
    let after = rogue.join().expect("rogue thread");
    assert!(
        after.is_empty(),
        "the rogue was answered, not dropped: {after:?}"
    );
    assert!(report.stats.worker_deaths >= 1, "the rogue was not retired");
    assert!(
        report.stats.leases_reissued >= 1,
        "the rogue's lease was not re-issued"
    );
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "a stray done leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile bytes before any handshake: a peer connects and sends one
/// line of a million `[` — far under the frame cap, far over the JSON
/// nesting cap. The coordinator must refuse the frame (counted in
/// `dist.rejected_frames`), hang up on that peer, and go on to serve the
/// honest fleet, which joins only once the rogue has been dropped.
#[test]
fn deeply_nested_frame_is_rejected_and_counted() {
    o4a_obs::install(o4a_obs::ObsConfig {
        metrics: true,
        ..o4a_obs::ObsConfig::default()
    });
    let rejected = o4a_obs::metrics::counter("dist.rejected_frames");
    let before = rejected.get();
    let dir = scratch_dir("nested");
    let addr = free_addr();
    let (dropped_tx, dropped_rx) = std::sync::mpsc::channel();
    let rogue = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = connect_with_retry(&addr, Duration::from_secs(30)).expect("rogue connect");
            let mut out = stream.try_clone().expect("clone stream");
            writeln!(out, "{}", "[".repeat(1_000_000)).expect("send nested frame");
            let answered: Vec<String> = BufReader::new(stream)
                .lines()
                .map_while(Result::ok)
                .collect();
            dropped_tx.send(()).expect("signal drop");
            answered
        })
    };
    let fleet = {
        let (addr, dir) = (addr.clone(), dir.clone());
        std::thread::spawn(move || {
            dropped_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the rogue was never dropped");
            (0..2)
                .map(|id| spawn_joiner(&addr, &dir, id, &[]))
                .collect::<Vec<Child>>()
        })
    };
    let report = run_distributed(&quick_config(), SHARDS, &tcp_coordinator(&addr, &dir, 2))
        .expect("a nested frame must not abort the coordinator");
    reap_clean(fleet.join().expect("fleet thread"));
    let answered = rogue.join().expect("rogue thread");
    assert!(answered.is_empty(), "the rogue was answered: {answered:?}");
    assert!(
        rejected.get() > before,
        "the nested frame was not counted in dist.rejected_frames"
    );
    assert_eq!(
        fingerprint(&report.result),
        fingerprint(&in_process_reference(SHARDS)),
        "a rejected frame leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resumable coordinator: incarnation #1 (a separate process) dies
/// abruptly after checkpointing one completion; the still-live workers
/// keep their leases warm and knock on the recorded address; incarnation
/// #2 resumes from the checkpoint, re-adopts them by re-handshake,
/// re-issues the orphans, and the journals merge **bit-identical** to an
/// uninterrupted in-process run.
#[test]
fn coordinator_killed_mid_campaign_resumes_bit_identical() {
    let n = fleet_size();
    let dir = scratch_dir("resume");
    let addr = free_addr();
    let plan = CampaignPlan {
        config: quick_config(),
        shards: SHARDS,
    };
    let plan_json = plan.to_json().to_line();
    let checkpoint = dir.join("checkpoint.jsonl");
    // Workers drag a little per case (their leases outlive coordinator
    // #1) and retry the dial for a full minute (they outlive the gap).
    let flags = [
        "--slow-ms".to_string(),
        "150".to_string(),
        "--reconnect-ms".to_string(),
        "60000".to_string(),
    ];
    let workers: Vec<Child> = (0..n)
        .map(|id| spawn_joiner(&addr, &dir, id, &flags))
        .collect();

    let coordinator = |exit_after: Option<u64>| {
        let mut cmd = Command::new(COORDINATOR);
        cmd.arg("--plan")
            .arg(&plan_json)
            .arg("--listen")
            .arg(&addr)
            .arg("--journal-dir")
            .arg(dir.join("journals"))
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("--workers")
            .arg(n.to_string())
            .arg("--heartbeat-ms")
            .arg("30000")
            .arg("--accept-timeout-ms")
            .arg("60000");
        if let Some(k) = exit_after {
            cmd.arg("--exit-after-done").arg(k.to_string());
        }
        cmd
    };

    let first = coordinator(Some(1)).output().expect("coordinator #1");
    assert_eq!(
        first.status.code(),
        Some(9),
        "coordinator #1 must die by injection, not finish: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    let second = coordinator(None).output().expect("coordinator #2");
    assert!(
        second.status.success(),
        "coordinator #2 failed:\n{}",
        String::from_utf8_lossy(&second.stderr)
    );
    reap_clean(workers);
    let stdout = String::from_utf8_lossy(&second.stdout);
    let stats = stdout
        .lines()
        .find(|l| l.starts_with("o4a-dist: done"))
        .unwrap_or_else(|| panic!("no stats line in coordinator #2 output:\n{stdout}"));
    assert!(stats.contains("resumed=true"), "not a resume: {stats}");
    let readopted: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("readopted=").and_then(|v| v.parse().ok()))
        .expect("readopted counter");
    assert!(
        readopted >= 1,
        "no worker was re-adopted by re-handshake: {stats}"
    );

    // Merge the fleet's journals exactly as the coordinator does and
    // hold the result to the uninterrupted in-process run.
    let mut journals: Vec<PathBuf> = std::fs::read_dir(dir.join("journals"))
        .expect("journal dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    journals.sort();
    let completed =
        FindingsStore::merge_from(&quick_config(), SHARDS, &journals).expect("merge journals");
    assert_eq!(
        completed.len(),
        SHARDS as usize,
        "shards missing from the merged journals"
    );
    let ordered: Vec<CampaignResult> = completed.into_values().collect();
    let merged = merge_shard_results(&quick_config(), &ordered);
    assert_eq!(
        fingerprint(&merged),
        fingerprint(&in_process_reference(SHARDS)),
        "a killed-and-resumed coordinator leaked into the merged result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dynamic-lease claim, measured: on a 1-fast + 1-slow fleet, work
/// stealing hands the fast worker strictly more leases and finishes the
/// campaign sooner than a static split — while both merge bit-identical
/// to the in-process engine (scheduling cannot reach the bits).
#[test]
fn heterogeneous_fleet_stealing_beats_static_split() {
    const HETERO_SHARDS: u32 = 8;
    let reference = in_process_reference(HETERO_SHARDS);
    let slow = ["--slow-ms".to_string(), "120".to_string()];
    let run = |tag: &str, static_split: bool| -> (DistReport, Duration) {
        let dir = scratch_dir(tag);
        let addr = free_addr();
        let workers = vec![
            spawn_joiner(&addr, &dir, 0, &slow),
            spawn_joiner(&addr, &dir, 1, &[]),
        ];
        let started = Instant::now();
        let report = run_distributed(
            &quick_config(),
            HETERO_SHARDS,
            &tcp_coordinator(&addr, &dir, 2).with_static_split(static_split),
        )
        .expect("hetero");
        let wall = started.elapsed();
        reap_clean(workers);
        assert_eq!(
            fingerprint(&report.result),
            fingerprint(&reference),
            "scheduling policy leaked into the merged result (static: {static_split})"
        );
        let _ = std::fs::remove_dir_all(&dir);
        (report, wall)
    };

    let (static_report, static_wall) = run("hetero-static", true);
    let (stealing_report, stealing_wall) = run("hetero-steal", false);

    // Static split: the slot pinning hands each worker exactly half.
    for w in &static_report.stats.per_worker {
        assert_eq!(
            w.leases_completed,
            HETERO_SHARDS / 2,
            "static split must pin half the shards to w{}",
            w.worker
        );
    }
    // Stealing: the fast worker eats the slow worker's tail.
    let leases = |report: &DistReport, id: u32| {
        report
            .stats
            .per_worker
            .iter()
            .find(|w| w.worker == id)
            .map(|w| w.leases_completed)
            .unwrap_or(0)
    };
    let slow_leases = leases(&stealing_report, 0);
    let fast_leases = leases(&stealing_report, 1);
    assert!(
        fast_leases > slow_leases,
        "work stealing gave the fast worker {fast_leases} leases vs {slow_leases} — no steal"
    );
    // The wall-clock pair the README quotes; the slow worker serves 4
    // sleep-dominated leases under the split and ~1 under stealing, so
    // the gap is structural, not noise.
    println!(
        "heterogeneous fleet wall-clock: static-split {:.2}s vs stealing {:.2}s",
        static_wall.as_secs_f64(),
        stealing_wall.as_secs_f64()
    );
    assert!(
        stealing_wall < static_wall,
        "work stealing ({stealing_wall:?}) did not beat the static split ({static_wall:?})"
    );
}

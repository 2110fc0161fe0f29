//! The scope-plane gauntlet: **watching a campaign cannot change it.**
//!
//! A 2-worker spawned fleet runs three ways — in-process reference,
//! fleet with the observatory off, fleet with the scope plane on *and*
//! live observers polling both endpoints over TCP mid-campaign — and
//! every fingerprint (findings down to the `vhour` bits, hourly
//! snapshots, coverage maps, `sans_transport` stats) must be identical.
//!
//! On top of the equivalence law, the scope-on leg pins the observatory
//! itself:
//!
//! * `/status` serves one JSON document, with live fleet rows
//!   mid-campaign;
//! * `/metrics` serves well-formed Prometheus text with the fleet
//!   gauges;
//! * the fleet-merged Chrome trace carries a `pid` lane for **every**
//!   worker plus the coordinator.

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_dist::{run_distributed, DistConfig, DistReport};
use o4a_exec::json::{parse, Json};
use o4a_exec::{run_campaign_sharded, ExecConfig, Parallelism};
use o4a_obs::ObsConfig;
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_dist_worker");
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
    let dir = std::env::temp_dir().join(format!("o4a-scope-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("journals")).expect("scratch dir");
    dir
}

fn free_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    probe.local_addr().expect("probe addr").to_string()
}

/// The same bit-comparable fingerprint as the distributed gauntlet.
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

fn in_process_reference() -> CampaignResult {
    let exec = ExecConfig {
        shards: SHARDS,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    run_campaign_sharded(factory, &quick_config(), &exec)
}

/// A 2-worker spawned fleet. The per-case delay keeps the campaign
/// alive long enough to observe; `traced` turns the workers' own obs on
/// (draining into the scratch dir, which is removed with the rest of the
/// run) so their rings have spans for the lease piggyback.
fn spawned_fleet(dir: &std::path::Path, traced: bool) -> DistConfig {
    let command = vec![WORKER.to_string(), "--slow-ms".into(), "40".into()];
    let dist = DistConfig::new(command, dir.join("journals"))
        .with_workers(2)
        .with_heartbeat_timeout(Duration::from_secs(30));
    if traced {
        let obs_dir = dir.join("obs").display().to_string();
        dist.with_env("O4A_TRACE", obs_dir.clone())
            .with_env("O4A_METRICS", obs_dir)
    } else {
        dist
    }
}

/// Runs the fleet and checks every worker exited cleanly on `goodbye`.
fn run_fleet(dist: &DistConfig) -> DistReport {
    let report = run_distributed(&quick_config(), SHARDS, dist).expect("fleet");
    assert_eq!(report.stats.workers_spawned, 2, "a worker was respawned");
    assert!(
        report.stats.per_worker.iter().all(|w| w.clean_exit),
        "a worker exited dirty: {:?}",
        report.stats.per_worker
    );
    report
}

/// One blocking HTTP GET against the scope plane (it closes per
/// request, so read-to-end delimits the response).
fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

#[test]
fn scope_on_equals_scope_off_under_live_observation() {
    // Legs 1 and 2 run with the coordinator's obs fully off.
    o4a_obs::uninstall();
    let reference = fingerprint(&in_process_reference());

    // Leg 2: scope off — the plain spawned-fleet baseline.
    let off_dir = scratch_dir("off");
    let off_report = run_fleet(&spawned_fleet(&off_dir, false));
    assert_eq!(
        fingerprint(&off_report.result),
        reference,
        "scope-off fleet diverged from the in-process engine"
    );
    assert!(
        off_report.stats.fleet_trace.is_none(),
        "no fleet trace without the scope plane"
    );
    let _ = std::fs::remove_dir_all(&off_dir);

    // Leg 3: scope on, coordinator obs on (in-memory), workers traced,
    // and two observer threads polling the endpoints mid-campaign.
    o4a_obs::install(ObsConfig {
        trace: true,
        metrics: true,
        dir: None,
        ..ObsConfig::default()
    });
    let on_dir = scratch_dir("on");
    let scope_addr = free_addr();
    let dist = spawned_fleet(&on_dir, true).with_scope(scope_addr.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let status_poller = {
        let (addr, stop) = (scope_addr.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut last = None;
            let mut saw_fleet = false;
            while !stop.load(Ordering::Relaxed) {
                if let Some(body) = http_get(&addr, "/status") {
                    saw_fleet |= body.contains("\"lease\"");
                    last = Some(body);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            (last, saw_fleet)
        })
    };
    let metrics_poller = {
        let (addr, stop) = (scope_addr.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut last = None;
            while !stop.load(Ordering::Relaxed) {
                if let Some(body) = http_get(&addr, "/metrics") {
                    last = Some(body);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            last
        })
    };
    let on_report = run_fleet(&dist);
    stop.store(true, Ordering::Relaxed);
    let (status_body, saw_fleet) = status_poller.join().expect("status poller");
    let metrics_body = metrics_poller.join().expect("metrics poller");
    o4a_obs::uninstall();

    // The law: live observation cannot move a bit.
    assert_eq!(
        fingerprint(&on_report.result),
        reference,
        "the scope plane leaked into the merged result"
    );

    // /status parses and showed a live fleet at some point mid-run.
    let status_body = status_body.expect("/status was never served");
    let status = parse(status_body.trim()).expect("/status body parses");
    assert_eq!(
        status.get("shards").and_then(Json::as_u64),
        Some(u64::from(SHARDS))
    );
    assert!(
        status.get("fleet").and_then(Json::as_arr).is_some(),
        "/status has no fleet array: {status_body}"
    );
    assert!(saw_fleet, "/status never showed a live fleet row");

    // /metrics is well-formed Prometheus text with the fleet gauges.
    let metrics_body = metrics_body.expect("/metrics was never served");
    assert!(
        metrics_body.contains("# TYPE"),
        "no TYPE lines:\n{metrics_body}"
    );
    assert!(
        metrics_body.contains("fleet_shards_total"),
        "no fleet gauges:\n{metrics_body}"
    );

    // The fleet-merged Chrome trace has a lane for every worker plus
    // the coordinator.
    let trace_path = on_report
        .stats
        .fleet_trace
        .as_ref()
        .expect("scope-on campaign writes a fleet trace");
    let trace_text = std::fs::read_to_string(trace_path).expect("fleet trace readable");
    let trace = parse(&trace_text).expect("fleet trace parses");
    let lanes: BTreeSet<u64> = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter_map(|event| event.get("pid").and_then(Json::as_u64))
        .collect();
    let coordinator = u64::from(std::process::id());
    assert!(
        lanes.contains(&coordinator),
        "coordinator has no lane in the fleet trace: {lanes:?}"
    );
    assert_eq!(
        lanes.len(),
        2 + 1,
        "every spawned worker needs its own lane beside the coordinator's: {lanes:?}"
    );
    let _ = std::fs::remove_dir_all(&on_dir);
}

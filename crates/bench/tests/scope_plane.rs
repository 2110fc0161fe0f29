//! The scope-plane gauntlet: **watching a campaign cannot change it.**
//!
//! A 2-worker TCP fleet runs three ways — in-process reference, TCP
//! with the observatory off, TCP with `O4A_SCOPE` on *and* live
//! observers hammering all three endpoints mid-campaign — and every
//! fingerprint (findings down to the `vhour` bits, hourly snapshots,
//! coverage maps, `sans_transport` stats) must be identical.
//!
//! On top of the equivalence law, the scope-on leg pins the observatory
//! itself:
//!
//! * `/status` serves a JSON document [`ScopeStatus::from_json_text`]
//!   accepts, with live fleet rows mid-campaign;
//! * `/metrics` serves well-formed Prometheus text with the fleet
//!   gauges;
//! * `/events` streams SSE milestones (at least the four `done`s);
//! * the fleet-merged Chrome trace carries a `pid` lane for **every**
//!   worker plus the coordinator.

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_dist::{run_distributed, DistConfig, DistReport, ScopeStatus};
use o4a_exec::{run_campaign_sharded, ExecConfig, Parallelism};
use o4a_obs::ObsConfig;
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The same bit-comparable fingerprint as the elastic-fleet gauntlet.
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

/// Spawns a `dist_worker --connect` joiner; `traced` turns the worker's
/// own obs on (draining into the scratch dir, which is removed with the
/// rest of the run) so its ring has spans for the lease piggyback.
fn spawn_joiner(addr: &str, dir: &std::path::Path, id: u32, traced: bool) -> Child {
    let mut cmd = Command::new(WORKER);
    cmd.arg("--journal")
        .arg(dir.join(format!("journals/w{id}.jsonl")))
        .arg("--worker")
        .arg(id.to_string())
        .arg("--connect")
        .arg(addr)
        .arg("--slow-ms")
        .arg("40") // keep the campaign alive long enough to observe
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if traced {
        let obs_dir = dir.join("obs");
        cmd.env("O4A_TRACE", &obs_dir).env("O4A_METRICS", &obs_dir);
    } else {
        cmd.env_remove("O4A_TRACE").env_remove("O4A_METRICS");
    }
    cmd.spawn().expect("spawn dist_worker")
}

fn reap_clean(workers: Vec<Child>) -> Vec<u32> {
    let mut pids = Vec::new();
    for mut child in workers {
        pids.push(child.id());
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
    pids
}

fn tcp_coordinator(addr: &str, dir: &std::path::Path) -> DistConfig {
    DistConfig::new(Vec::new(), dir.join("journals"))
        .with_listen(addr.to_string())
        .with_workers(2)
        .with_heartbeat_timeout(Duration::from_secs(30))
        .with_accept_timeout(Duration::from_secs(60))
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

fn run_fleet(
    dir: &std::path::Path,
    addr: &str,
    dist: &DistConfig,
    traced: bool,
) -> (DistReport, Vec<u32>) {
    let workers: Vec<Child> = (0..2)
        .map(|id| spawn_joiner(addr, dir, id, traced))
        .collect();
    let report = run_distributed(&quick_config(), SHARDS, dist).expect("fleet");
    let pids = reap_clean(workers);
    (report, pids)
}

#[test]
fn scope_on_equals_scope_off_under_live_observation() {
    // Legs 1 and 2 run with the coordinator's obs fully off.
    o4a_obs::uninstall();
    let reference = fingerprint(&in_process_reference());

    // Leg 2: scope off — the plain TCP fleet baseline.
    let off_dir = scratch_dir("off");
    let off_addr = free_addr();
    let (off_report, _) = run_fleet(
        &off_dir,
        &off_addr,
        &tcp_coordinator(&off_addr, &off_dir),
        false,
    );
    assert_eq!(
        fingerprint(&off_report.result),
        reference,
        "scope-off TCP fleet diverged from the in-process engine"
    );
    assert!(
        off_report.stats.fleet_trace.is_none(),
        "no fleet trace without the scope plane"
    );
    let _ = std::fs::remove_dir_all(&off_dir);

    // Leg 3: scope on, coordinator obs on (in-memory), workers traced,
    // and three observer threads hammering the endpoints mid-campaign.
    o4a_obs::install(ObsConfig {
        trace: true,
        metrics: true,
        dir: None,
        ..ObsConfig::default()
    });
    let on_dir = scratch_dir("on");
    let on_addr = free_addr();
    let scope_addr = free_addr();
    let dist = tcp_coordinator(&on_addr, &on_dir).with_scope(scope_addr.clone());

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
    let events_tail = {
        let (addr, stop) = (scope_addr.clone(), stop.clone());
        std::thread::spawn(move || {
            // Retry the dial until the coordinator binds, then hold the
            // SSE stream open until the campaign ends and it closes.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut stream = loop {
                match TcpStream::connect(&addr) {
                    Ok(stream) => break stream,
                    Err(_) if Instant::now() < deadline && !stop.load(Ordering::Relaxed) => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => return String::new(),
                }
            };
            if stream
                .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
                .is_err()
            {
                return String::new();
            }
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            text
        })
    };

    let (on_report, worker_pids) = run_fleet(&on_dir, &on_addr, &dist, true);
    stop.store(true, Ordering::Relaxed);
    let (status_body, saw_fleet) = status_poller.join().expect("status poller");
    let metrics_body = metrics_poller.join().expect("metrics poller");
    let events_text = events_tail.join().expect("events tail");
    o4a_obs::uninstall();

    // The law: live observation cannot move a bit.
    assert_eq!(
        fingerprint(&on_report.result),
        reference,
        "the scope plane leaked into the merged result"
    );

    // /status parses and showed a live fleet at some point mid-run.
    let status_body = status_body.expect("/status was never served");
    let status = ScopeStatus::from_json_text(&status_body).expect("/status body parses");
    assert_eq!(status.shards, SHARDS);
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

    // /events streamed SSE milestones — every shard completion at least.
    assert!(
        events_text.starts_with("HTTP/1.1 200"),
        "SSE preamble missing:\n{events_text}"
    );
    assert!(
        events_text.matches("event: done").count() >= SHARDS as usize,
        "missing done events:\n{events_text}"
    );

    // The fleet-merged Chrome trace has a lane for every worker plus
    // the coordinator.
    let trace_path = on_report
        .stats
        .fleet_trace
        .as_ref()
        .expect("scope-on campaign writes a fleet trace");
    let trace_text = std::fs::read_to_string(trace_path).expect("fleet trace readable");
    for pid in &worker_pids {
        assert!(
            trace_text.contains(&format!("\"pid\":{pid}")),
            "worker pid {pid} has no lane in the fleet trace"
        );
    }
    assert!(
        trace_text.contains(&format!("\"pid\":{}", std::process::id())),
        "coordinator has no lane in the fleet trace"
    );
    let _ = std::fs::remove_dir_all(&on_dir);
}

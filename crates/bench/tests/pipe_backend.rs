//! The pipe-transport gauntlet: the overlapped campaign engine — the
//! only K-in-flight path — driving **external solver processes** (the
//! deterministic mock built from `src/bin/mock_solver.rs`) over
//! stdin/stdout pipes — offline, no real Z3 required.
//!
//! The acceptance criteria this file pins down:
//!
//! * the serial-vs-overlapped equivalence law holds over the pipe
//!   transport — K `(push 1)`/`(pop 1)` scopes multiplexed on one
//!   persistent process per lane — for K ∈ {1, 4, 8}, including under
//!   crash injection;
//! * the law holds at its edges: a coarse time scale where one case
//!   jumps a whole virtual hour, a window wider than the whole campaign
//!   (speculative cases solved, then discarded), a journaled campaign
//!   killed and resumed at a different K, and tracing armed at K = 8;
//! * a crashing solver process becomes a `…::pipe::process-died` crash
//!   finding (and a respawn), never a hang — and a crash mid-scope
//!   costs exactly that one finding: pending sibling scopes replay onto
//!   the respawned process, never lost, never duplicated;
//! * a wedged solver process is killed at the per-query deadline and
//!   becomes a `…::pipe::wedged` crash finding, never a hang;
//! * `sat` answers fetch and parse real `(model …)` replies off the pipe;
//! * process churn is observable: a campaign at any K keeps **one
//!   process per lane** (plus respawns).

use o4a_core::{dedup, CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer};
use o4a_exec::{
    run_campaign_resumable, run_campaign_sharded, run_shard_piped, ExecConfig, FindingsStore,
    Parallelism, PipeBackend,
};
use o4a_smtlib::Symbol;
use o4a_solvers::pipe::{mock, parse_model_reply};
use o4a_solvers::{Outcome, PipeCommand, PipeSolver, SmtSolver, SolverId, TRUNK_COMMIT};
use std::time::{Duration, Instant};

/// The mock solver binary, built by cargo before this suite runs.
const MOCK: &str = env!("CARGO_BIN_EXE_mock_solver");

/// A mock command line with per-lane seeding and extra flags.
fn mock_cmd(extra: &str) -> String {
    let mut cmd = format!("{MOCK} --seed 11 --lane {{lane}}");
    if !extra.is_empty() {
        cmd.push(' ');
        cmd.push_str(extra);
    }
    cmd
}

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 2_000_000, // smoke scale: a few dozen cases
        max_cases: 40,
        ..CampaignConfig::default()
    }
}

/// Everything observable, bit-comparable. Coverage is omitted: external
/// processes report none, so the maps are empty on every path. Stats are
/// compared **without** the transport churn counters: at K > 1 the
/// engine executes speculative queries past the budget boundary, so
/// churn is checked per K, not across K.
type Fingerprint = (
    o4a_core::CampaignStats,
    Vec<(String, SolverId, String, Option<String>, u64)>,
    Vec<(u32, u64, usize)>,
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
            .map(|s| (s.hour, s.cases, s.issues))
            .collect(),
    )
}

fn piped_shard(config: &CampaignConfig, inflight: usize, backend: &PipeBackend) -> CampaignResult {
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    run_shard_piped(&mut fuzzer, config, 0, None, inflight, backend)
}

/// The tentpole law over the pipe transport: a campaign against external
/// solver processes is bit-identical whether queries go one at a time or
/// K ∈ {4, 8} in flight — completions re-sequence by case index before
/// campaign state sees them, and the mock's answers are pure functions of
/// the script, so which frames share a stream cannot leak scheduling.
/// No injected latency: replies race the writes, the tightest schedule
/// the reactor sees.
#[test]
fn piped_campaign_is_identical_for_k_1_4_8() {
    let config = quick_config();
    let backend = PipeBackend::new(mock_cmd(""));
    let reference = fingerprint(&piped_shard(&config, 1, &backend));
    assert!(reference.0.cases > 0, "reference ran no cases");
    assert!(
        reference.0.decisive > 0,
        "mock never answered sat/unsat — the transport is not being exercised"
    );
    for k in [4usize, 8] {
        assert_eq!(
            fingerprint(&piped_shard(&config, k, &backend)),
            reference,
            "K={k} diverged from serial over the pipe transport"
        );
    }
}

/// Crash injection: a mock that abruptly exits (mid-reply) on a seeded
/// subset of scripts. Every such query must surface as a
/// `…::pipe::process-died` crash finding, the lane must respawn, the
/// shard must run to completion — and the equivalence law must keep
/// holding, because crashes are per-script deterministic too. One script
/// in three crashes here, against one in five in the other crash legs.
#[test]
fn crash_injection_yields_findings_and_preserves_equivalence() {
    let config = quick_config();
    let backend = PipeBackend::new(mock_cmd("--crash-mod 3 --latency-ms 2"));
    let started = Instant::now();
    let reference = piped_shard(&config, 1, &backend);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "crash-injected campaign took implausibly long — wedged?"
    );
    let died: Vec<_> = reference
        .findings
        .iter()
        .filter(|f| {
            f.signature
                .as_deref()
                .is_some_and(|s| s.ends_with("::pipe::process-died"))
        })
        .collect();
    assert!(
        !died.is_empty(),
        "crash-mod 5 produced no process-died findings in {} cases",
        reference.stats.cases
    );
    let reference = fingerprint(&reference);
    for k in [4usize, 8] {
        assert_eq!(
            fingerprint(&piped_shard(&config, k, &backend)),
            reference,
            "K={k} diverged under crash injection"
        );
    }
}

/// The snapshot boundary: at a coarse time scale a single case can jump
/// a whole virtual hour, so the hourly series (and the stopping point)
/// hinge on exactly which cases were applied before each boundary. K
/// queries in flight must not move a single one.
#[test]
fn coarse_time_scale_snapshot_boundary_is_identical_for_k_1_4_8() {
    let config = CampaignConfig {
        time_scale: 500_000,
        ..quick_config()
    };
    let backend = PipeBackend::new(mock_cmd("--latency-ms 3"));
    let reference = fingerprint(&piped_shard(&config, 1, &backend));
    assert!(reference.0.cases > 0, "reference ran no cases");
    for k in [4usize, 8] {
        assert_eq!(
            fingerprint(&piped_shard(&config, k, &backend)),
            reference,
            "K={k} diverged at the snapshot boundary"
        );
    }
}

/// The speculative-overrun boundary: with K greater than the case cap,
/// every case beyond the cap is generated and solved speculatively, and
/// must be discarded at apply time, not counted.
#[test]
fn inflight_window_larger_than_campaign_is_still_identical() {
    let config = CampaignConfig {
        max_cases: 5,
        time_scale: 100_000, // cheap cases: the case cap binds, not hours
        ..quick_config()
    };
    let backend = PipeBackend::new(mock_cmd(""));
    let reference = piped_shard(&config, 1, &backend);
    assert_eq!(reference.stats.cases, 5);
    let overlapped = piped_shard(&config, 32, &backend);
    assert_eq!(overlapped.stats.cases, 5);
    assert!(
        overlapped.stats.scopes_pushed >= 32 * 2,
        "the 32-wide window never filled: {} scopes pushed",
        overlapped.stats.scopes_pushed
    );
    assert_eq!(fingerprint(&overlapped), fingerprint(&reference));
}

/// The engine-level wiring: `ExecConfig::solver_cmd` (the
/// `O4A_SOLVER_CMD` knob) routes a whole sharded campaign over pipes,
/// deterministically, with differential findings from the
/// independently-seeded lanes.
#[test]
fn sharded_engine_over_pipes_is_deterministic() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Threads(2),
        inflight: 4,
        solver_cmd: Some(mock_cmd("--latency-ms 2")),
        solver_timeout_ms: None,
        cache_dir: None,
    };
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    let a = run_campaign_sharded(factory, &config, &exec);
    let b = run_campaign_sharded(factory, &config, &exec);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(
        a.stats.bug_triggering > 0,
        "independently-seeded lanes never disagreed in {} cases",
        a.stats.cases
    );
}

/// Re-sequencing under kill/resume: a journaled 4-shard campaign over
/// pipes with K = 4 in flight, killed mid-flight and resumed at a
/// *different* K, converges to the same deduplicated issue set as the
/// K = 1 campaign. Findings reach the journal in case order regardless
/// of completion order — the re-sequencing contract this test pins down.
#[test]
fn killed_overlapped_campaign_resumes_to_serial_issue_set() {
    let config = quick_config();
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    let exec_k1 = ExecConfig {
        shards: 4,
        parallelism: Parallelism::Serial,
        inflight: 1,
        solver_cmd: Some(mock_cmd("--latency-ms 1")),
        ..ExecConfig::default()
    };
    let serial = run_campaign_sharded(factory, &config, &exec_k1);

    // Journaled run at K = 4, serial workers for a stable journal line
    // order.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("o4a-pipe-resume-{}.jsonl", std::process::id()));
    let killed = dir.join(format!(
        "o4a-pipe-resume-killed-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let exec_k4 = ExecConfig {
        inflight: 4,
        ..exec_k1
    };
    let full = run_campaign_resumable(factory, &config, &exec_k4, &FindingsStore::new(&path))
        .expect("journal I/O");
    assert_eq!(fingerprint(&full), fingerprint(&serial));

    // Simulate a SIGKILL that caught shards 2 and 3 mid-flight: drop
    // their completion records (and shard 3's findings entirely).
    let journal = std::fs::read_to_string(&path).unwrap();
    assert!(
        journal
            .lines()
            .any(|l| l.contains("\"finding\"") && l.contains("\"shard\":3")),
        "shard 3 found nothing — the kill would drop no findings"
    );
    let truncated: String = journal
        .lines()
        .filter(|line| {
            if line.contains("\"shard_done\"") {
                line.contains("\"shard\":0") || line.contains("\"shard\":1")
            } else if line.contains("\"finding\"") {
                !line.contains("\"shard\":3")
            } else {
                true // header
            }
        })
        .flat_map(|line| [line, "\n"])
        .collect();
    std::fs::write(&killed, truncated).unwrap();

    // Resume at K = 8: shards 0-1 load, shards 2-3 re-run — and the
    // merged result still matches K = 1.
    let exec_k8 = ExecConfig {
        inflight: 8,
        ..exec_k4
    };
    let resumed = run_campaign_resumable(factory, &config, &exec_k8, &FindingsStore::new(&killed))
        .expect("journal I/O");
    assert_eq!(fingerprint(&resumed), fingerprint(&serial));
    assert_eq!(
        dedup(&resumed.findings).len(),
        dedup(&serial.findings).len(),
        "deduplicated issue sets diverged across kill/resume at a different K"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&killed);
}

/// Observability non-interference at K = 8: the overlapped loop with
/// tracing and metrics recording armed is bit-identical to the unarmed
/// run, each in-flight case leaves its `case.execute` span, and the
/// after-generation stage histograms record. Nothing
/// drains to disk (`dir: None`): the obs gates are process-global, and
/// files would pick up the campaigns of concurrently running tests.
#[test]
fn traced_k8_campaign_is_bit_identical_to_untraced() {
    let config = quick_config();
    let backend = PipeBackend::new(mock_cmd("--latency-ms 2"));
    let untraced = piped_shard(&config, 8, &backend);
    assert!(!untraced.findings.is_empty(), "equivalence leg is vacuous");

    o4a_obs::install(o4a_obs::ObsConfig {
        trace: true,
        metrics: true,
        ..o4a_obs::ObsConfig::default()
    });
    let traced = piped_shard(&config, 8, &backend);
    let (events, _dropped) = o4a_obs::trace::drain_events();
    let histograms = o4a_obs::metrics::snapshot().histograms;
    o4a_obs::uninstall();

    assert_eq!(
        fingerprint(&traced),
        fingerprint(&untraced),
        "tracing perturbed the K = 8 campaign"
    );
    let spans = events.iter().filter(|e| e.name == "case.execute").count();
    assert!(
        spans as u64 >= traced.stats.cases,
        "{spans} case.execute spans for {} applied cases",
        traced.stats.cases
    );
    // The stage ledger after generation: applying and judging each case,
    // the worker's poll(2) wait, and the lazy frontend walk that the
    // findings' features force.
    for name in [
        "case.apply",
        "case.judge",
        "exec.poll_idle",
        "frontend.analyze",
    ] {
        assert!(
            histograms.get(name).is_some_and(|h| h.count > 0),
            "no {name} samples in a metrics-on piped campaign"
        );
    }
    assert!(histograms["case.apply"].count >= traced.stats.cases);
}

/// A solver lane for the rendezvous probe: lane 1 marks the arrival of
/// its `n`-th frame with the file `n` in the directory given as `$2`, and
/// lane 0 answers its own `n`-th frame only once that file exists.
const RENDEZVOUS_LANE: &str = r#"n=0
while read -r line; do
    case "$line" in
        "(check-sat)")
            n=$((n + 1))
            if [ "$1" = 0 ]; then
                while [ ! -e "$2/$n" ]; do sleep 0.01; done
            else
                : > "$2/$n"
            fi
            echo unknown;;
        "(get-model)") echo "(model )";;
    esac
done
"#;

/// A case's frame reaches every lane before any reply is awaited: lane 0
/// cannot answer a case until lane 1 has read that case's frame, so a
/// worker that waited for lane 0's reply before writing to lane 1 would
/// wedge lane 0 on every case. With one case in flight, every query is
/// answered and no process is retired.
#[test]
fn a_cases_frame_reaches_every_lane_before_any_reply_is_awaited() {
    let dir = cache_dir("rendezvous");
    let script = dir.join("lane.sh");
    std::fs::write(&script, RENDEZVOUS_LANE).expect("write the lane script");
    let marks = dir.join("marks");
    std::fs::create_dir_all(&marks).expect("create the mark dir");
    let backend = PipeBackend::new(format!(
        "sh {} {{lane}} {}",
        script.display(),
        marks.display()
    ))
    .with_timeout(Duration::from_secs(5));
    let config = CampaignConfig {
        time_scale: 1,
        max_cases: 8,
        ..quick_config()
    };
    let result = piped_shard(&config, 1, &backend);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(result.stats.cases, 8);
    assert_eq!(
        (
            result.stats.processes_spawned,
            result.stats.process_respawns
        ),
        (2, 0),
        "a lane was retired: its frame was not sent before a reply was awaited"
    );
    assert!(
        result.findings.is_empty(),
        "every query answers `unknown`: {:?}",
        result.findings
    );
}

/// A wedged solver process (answers nothing, forever) is killed at the
/// per-query deadline and becomes a finding — the shard worker never
/// hangs — and the lane recovers with a fresh process for the next query.
#[test]
fn wedged_mock_is_killed_at_deadline_and_lane_recovers() {
    let cmd = mock_cmd("--answer sat --wedge-on WEDGE-MARKER");
    let mut solver = PipeSolver::standalone(
        PipeCommand::parse(&cmd).unwrap().for_lane(0),
        SolverId::OxiZ,
        TRUNK_COMMIT,
    )
    .with_timeout(Duration::from_millis(200));

    let started = Instant::now();
    // The marker must precede `(check-sat)` — the request segment ends at
    // the delimiter.
    let wedged = solver.check("(assert true) ; WEDGE-MARKER\n(check-sat)");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "per-query deadline did not fire"
    );
    match wedged.outcome {
        Outcome::Crash(info) => assert_eq!(info.signature, "oxiz::pipe::wedged"),
        other => panic!("expected wedge crash finding, got {other}"),
    }
    assert_eq!(solver.respawns(), 1);

    // The next query gets a fresh, answering process.
    let healthy = solver.check("(assert true)(check-sat)");
    assert_eq!(healthy.outcome, Outcome::Sat);
    assert_eq!(solver.processes_spawned(), 2);
}

/// `sat` replies pull a real `(model …)` s-expression off the pipe and
/// parse it into the same `Model` type the in-process engines return —
/// the model slot of a session frame, against a live child process.
#[test]
fn sat_reply_carries_a_parsed_model() {
    let cmd = mock_cmd("--answer sat");
    let mut solver = PipeSolver::standalone(
        PipeCommand::parse(&cmd).unwrap().for_lane(1),
        SolverId::Cervo,
        TRUNK_COMMIT,
    );
    let response = solver.check("(declare-const x Int)(declare-const p Bool)(assert p)(check-sat)");
    assert_eq!(response.outcome, Outcome::Sat);
    let model = response
        .model
        .as_ref()
        .expect("sat reply must carry a model");
    assert!(
        model.get_const(&Symbol::new("x")).is_some(),
        "declared Int const missing from the parsed model"
    );
    assert!(
        model.get_const(&Symbol::new("p")).is_some(),
        "declared Bool const missing from the parsed model"
    );
    // Model values are seeded: the same query yields the same model.
    let again = solver.check("(declare-const x Int)(declare-const p Bool)(assert p)(check-sat)");
    assert_eq!(response.model, again.model);
    // Both queries were frames on one persistent child.
    assert_eq!(solver.processes_spawned(), 1);
    assert_eq!(solver.respawns(), 0);
}

/// The churn side of the law: a campaign that multiplexes its queries
/// as `(push 1)`/`(pop 1)` scopes is bit-identical whether 1, 4, or 8
/// scopes are in flight — stats, findings, and snapshots — and keeps one
/// persistent process per lane at every K. (Transport counters measure
/// *executed* transport work — at K > 1 the engine speculatively
/// executes up to K − 1 cases past the budget boundary and discards them
/// at apply time, so churn is compared per-K below, not across K.)
#[test]
fn session_campaign_is_identical_for_k_1_4_8() {
    let config = quick_config();
    let backend = PipeBackend::new(mock_cmd("--latency-ms 3"));
    let reference = piped_shard(&config, 1, &backend);
    assert!(reference.stats.cases > 0, "reference ran no cases");
    assert!(
        reference.stats.decisive > 0,
        "mock never answered sat/unsat over the session transport"
    );
    assert_eq!(
        reference.stats.processes_spawned, 2,
        "one persistent process per lane (2 lanes) at K = 1"
    );
    assert_eq!(reference.stats.process_respawns, 0);
    // No speculation at K = 1: exactly one scope per applied query.
    assert_eq!(
        reference.stats.scopes_pushed,
        reference.stats.cases * 2,
        "every query is one scope on its lane's session"
    );
    let reference = fingerprint(&reference);
    for k in [4usize, 8] {
        let overlapped = piped_shard(&config, k, &backend);
        assert_eq!(
            overlapped.stats.processes_spawned, 2,
            "one persistent process per lane at K = {k}"
        );
        assert_eq!(overlapped.stats.process_respawns, 0);
        assert!(
            overlapped.stats.scopes_pushed >= overlapped.stats.cases * 2,
            "every applied query occupied a scope at K = {k}"
        );
        assert_eq!(
            fingerprint(&overlapped),
            reference,
            "K={k} diverged from serial on the session transport"
        );
    }
}

/// Crash injection mid-scope: when the child dies processing one scope,
/// exactly that query becomes a `…::pipe::process-died` finding and the
/// sibling scopes pending on the same stream replay onto the respawned
/// process — never lost, never duplicated — so the campaign stays
/// bit-identical across K. (Replays keep the law because answers depend
/// only on the reconstructed scope script, not on which process
/// incarnation serves it.)
#[test]
fn session_crash_injection_mid_scope_preserves_equivalence() {
    let config = quick_config();
    let backend = PipeBackend::new(mock_cmd("--crash-mod 5 --latency-ms 2"));
    let started = Instant::now();
    let reference = piped_shard(&config, 1, &backend);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "crash-injected session campaign took implausibly long — wedged?"
    );
    let died = reference
        .findings
        .iter()
        .filter(|f| {
            f.signature
                .as_deref()
                .is_some_and(|s| s.ends_with("::pipe::process-died"))
        })
        .count();
    assert!(
        died > 0,
        "crash-mod 5 produced no process-died findings in {} cases",
        reference.stats.cases
    );
    assert!(
        reference.stats.process_respawns >= died as u64,
        "every crashed scope respawns the session"
    );
    let reference = fingerprint(&reference);
    for k in [4usize, 8] {
        let overlapped = piped_shard(&config, k, &backend);
        // One initial process per lane; each extra spawn is a respawn (a
        // lane whose *last* scope crashed counts the respawn without
        // ever needing the fresh process, hence ≤).
        assert!(
            overlapped.stats.processes_spawned >= 2
                && overlapped.stats.processes_spawned <= 2 + overlapped.stats.process_respawns,
            "session churn at K = {k}: {} processes for {} respawns",
            overlapped.stats.processes_spawned,
            overlapped.stats.process_respawns
        );
        assert_eq!(
            fingerprint(&overlapped),
            reference,
            "K={k} diverged under crash injection mid-scope"
        );
    }
}

/// A wedge mid-scope: the per-query deadline kills the persistent
/// process, blames the scope the child was stuck on, and the lane
/// recovers — sibling queries land on the respawned session.
#[test]
fn session_wedge_mid_scope_is_killed_and_lane_recovers() {
    let cmd = mock_cmd("--answer sat --wedge-on WEDGE-MARKER");
    let mut solver = PipeSolver::standalone(
        PipeCommand::parse(&cmd).unwrap().for_lane(0),
        SolverId::OxiZ,
        TRUNK_COMMIT,
    )
    .with_timeout(Duration::from_millis(200));

    let healthy = solver.check("(assert true)\n(check-sat)");
    assert_eq!(healthy.outcome, Outcome::Sat);
    let started = Instant::now();
    let wedged = solver.check("(assert true) ; WEDGE-MARKER\n(check-sat)");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "per-query deadline did not fire on the session"
    );
    match wedged.outcome {
        Outcome::Crash(info) => assert_eq!(info.signature, "oxiz::pipe::wedged"),
        other => panic!("expected wedge crash finding, got {other}"),
    }
    assert_eq!(solver.respawns(), 1);
    let recovered = solver.check("(assert false)\n(check-sat)");
    assert_eq!(recovered.outcome, Outcome::Sat, "--answer sat forces sat");
    assert_eq!(solver.processes_spawned(), 2);
}

/// A `sat` frame carries exactly the model the mock gives the bare
/// script — what a freshly spawned process sent only that script would
/// answer: the `(get-model)` rides inside the frame, and neither the
/// framing nor the frames served before it reach the answer.
#[test]
fn session_sat_scope_carries_the_same_model_as_spawn() {
    let cmd = mock_cmd("--answer sat");
    let lane = PipeCommand::parse(&cmd).unwrap().for_lane(1);
    let config = mock::config_from_args(lane.args().iter().cloned()).unwrap();
    let mut session = PipeSolver::standalone(lane, SolverId::Cervo, TRUNK_COMMIT);
    let _ = session.check("(declare-const y Int)(assert (> y 2))\n(check-sat)");
    let body = "(declare-const x Int)(declare-const p Bool)(assert p)";
    let response = session.check(&format!("{body}\n(check-sat)"));
    assert_eq!(response.outcome, Outcome::Sat);
    assert_eq!(
        response.model,
        parse_model_reply(&mock::model_for(&config, body)),
        "the frame's model diverged from the bare script's"
    );
    assert!(response
        .model
        .as_ref()
        .expect("sat needs a model")
        .get_const(&Symbol::new("x"))
        .is_some());
    assert_eq!(session.processes_spawned(), 1);
}

// --------------------------------------------------- verdict-cache gauntlet

/// A fresh, unique cache directory under the system temp dir.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "o4a-cache-gauntlet-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// The cache≡fresh law, the full matrix: for K ∈ {1, 4, 8}, a campaign
/// run cold (empty cache), and then again
/// warm off the journal the cold run wrote, is bit-identical to the
/// uncached serial reference — stats (modulo transport counters),
/// findings, models, snapshots. Hits reproduce the exact wire reply a
/// fresh solve would have produced, so caching can never show in
/// campaign observables.
#[test]
fn cached_campaign_matches_uncached_across_topologies() {
    let config = quick_config();
    let base = PipeBackend::new(mock_cmd("--latency-ms 2"));
    let reference = piped_shard(&config, 1, &base);
    assert!(
        reference.stats.decisive > 0,
        "reference never exercised the mock"
    );
    assert_eq!(
        reference.stats.cache_misses, 0,
        "an uncached campaign must report zero cache traffic"
    );
    let reference = fingerprint(&reference);
    for k in [1usize, 4, 8] {
        let dir = cache_dir(&format!("k{k}"));
        let cached = base.clone().with_cache_dir(&dir);
        let cold = piped_shard(&config, k, &cached);
        assert!(
            cold.stats.cache_misses > 0,
            "cold K={k} run never consulted the cache"
        );
        assert_eq!(
            fingerprint(&cold),
            reference,
            "cold cache diverged from uncached at K={k}"
        );
        let warm = piped_shard(&config, k, &cached);
        assert!(
            warm.stats.cache_hits > 0,
            "warm restart K={k} never hit the journal the cold run wrote"
        );
        assert_eq!(
            fingerprint(&warm),
            reference,
            "warm restart diverged from uncached at K={k}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fully warmed serial campaign never touches a solver process: every
/// query is answered out of the journal, so the warm run spawns zero
/// children, opens zero scopes, and misses zero lookups — while staying
/// bit-identical to the live run that populated the cache.
#[test]
fn fully_warmed_campaign_runs_without_a_single_solver_process() {
    let config = quick_config();
    let dir = cache_dir("full-warm");
    let backend = PipeBackend::new(mock_cmd("--latency-ms 2")).with_cache_dir(&dir);
    let cold = piped_shard(&config, 1, &backend);
    assert_eq!(cold.stats.cache_hits, 0, "cold serial run cannot self-hit");
    assert_eq!(cold.stats.cache_misses, cold.stats.cases * 2);
    let warm = piped_shard(&config, 1, &backend);
    assert_eq!(warm.stats.cache_misses, 0, "warm run missed the journal");
    assert_eq!(
        warm.stats.cache_hits,
        warm.stats.cases * 2,
        "one hit per query (two solver lanes per case)"
    );
    assert_eq!(
        warm.stats.processes_spawned, 0,
        "a fully warmed campaign must not spawn solvers"
    );
    assert_eq!(warm.stats.scopes_pushed, 0);
    assert_eq!(fingerprint(&warm), fingerprint(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash injection through the cache: crashed queries journal as `died`
/// records, and a warm restart **replays the crash findings without
/// respawning anything** — bit-identical to the uncached reference, with
/// zero live processes harmed.
#[test]
fn cached_crash_campaign_replays_findings_without_respawns() {
    let config = quick_config();
    let base = PipeBackend::new(mock_cmd("--crash-mod 5 --latency-ms 2"));
    let reference = piped_shard(&config, 1, &base);
    let died = |r: &CampaignResult| {
        r.findings
            .iter()
            .filter(|f| {
                f.signature
                    .as_deref()
                    .is_some_and(|s| s.ends_with("::pipe::process-died"))
            })
            .count()
    };
    assert!(died(&reference) > 0, "crash-mod produced no crash findings");
    let reference = fingerprint(&reference);
    let dir = cache_dir("crash");
    let cached = base.with_cache_dir(&dir);
    for k in [1usize, 4] {
        assert_eq!(
            fingerprint(&piped_shard(&config, k, &cached)),
            reference,
            "cold cached crash campaign diverged at K={k}"
        );
    }
    let warm = piped_shard(&config, 1, &cached);
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(
        warm.stats.process_respawns, 0,
        "cached crash findings must replay without respawning"
    );
    assert!(died(&warm) > 0, "warm run lost the crash findings");
    assert_eq!(fingerprint(&warm), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal torn mid-record by a crash (simulated by appending a
/// partial line) is tolerated on reload: the warm restart truncates the
/// torn tail, re-solves exactly the queries the tail would have served,
/// and stays bit-identical to the uncached reference.
#[test]
fn torn_cache_journal_tail_cannot_poison_a_warm_restart() {
    let config = quick_config();
    let base = PipeBackend::new(mock_cmd("--latency-ms 2"));
    let reference = fingerprint(&piped_shard(&config, 1, &base));
    let dir = cache_dir("torn");
    let cached = base.with_cache_dir(&dir);
    let cold = piped_shard(&config, 1, &cached);
    let journal = dir.join("cache-shard-0.jsonl");
    let intact = std::fs::metadata(&journal)
        .expect("cold run wrote the journal")
        .len();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        write!(f, "{{\"t\":\"verdict\",\"digest\":123,\"solv").unwrap();
    }
    let warm = piped_shard(&config, 1, &cached);
    assert_eq!(
        warm.stats.cache_hits, cold.stats.cache_misses,
        "every intact record must still hit after the torn tail"
    );
    assert_eq!(
        fingerprint(&warm),
        reference,
        "torn tail poisoned the restart"
    );
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        intact,
        "reload must truncate the torn tail before appending"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! Drives a campaign against **external solver processes over pipes** and
//! proves the overlap-equivalence law on that transport: the same shard,
//! serial (K = 1) vs. 8 queries in flight, is bit-identical.
//!
//! The solver command comes from `O4A_SOLVER_CMD` (whitespace-split;
//! `{lane}` becomes the solver-lane index). Each lane runs one persistent
//! process and multiplexes its K in-flight queries as `(push 1)`/`(pop 1)`
//! scopes on it. Typical invocations:
//!
//! ```text
//! # the deterministic mock (build it first):
//! cargo build -p o4a-bench --bin mock_solver
//! O4A_SOLVER_CMD="target/debug/mock_solver --seed 13 --lane {lane}" \
//!     cargo run --release --example pipe_campaign
//!
//! # crash injection — wedged/crashed processes become findings:
//! O4A_SOLVER_CMD="target/debug/mock_solver --seed 13 --lane {lane} --crash-mod 5" \
//!     cargo run --release --example pipe_campaign
//!
//! # real Z3, when installed (z3 -in speaks incremental mode natively):
//! O4A_SOLVER_CMD="z3 -in" cargo run --release --example pipe_campaign
//!
//! # verdict cache (warm-restartable):
//! O4A_CACHE=/tmp/o4a-cache \
//! O4A_SOLVER_CMD="target/debug/mock_solver --seed 13 --lane {lane}" \
//!     cargo run --release --example pipe_campaign
//! ```

use once4all::core::{dedup, CampaignConfig, Once4AllFuzzer};
use once4all::exec::{run_shard_piped, ExecConfig, PipeBackend};

fn main() {
    let Some(cmd) = std::env::var("O4A_SOLVER_CMD")
        .ok()
        .filter(|c| !c.trim().is_empty())
    else {
        println!(
            "pipe_campaign: set O4A_SOLVER_CMD to a solver command first, e.g.\n  \
             O4A_SOLVER_CMD=\"target/debug/mock_solver --seed 13 --lane {{lane}}\" \
             cargo run --release --example pipe_campaign"
        );
        return;
    };
    let knob = ExecConfig::from_env();
    let mut backend = PipeBackend::new(cmd.clone());
    if let Some(ms) = knob.solver_timeout_ms {
        backend = backend.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(dir) = &knob.cache_dir {
        println!("verdict cache: {}", dir.display());
        backend = backend.with_cache_dir(dir);
    }
    let config = CampaignConfig {
        virtual_hours: 2,
        time_scale: 100_000, // demo scale: ~a hundred cases
        max_cases: 100,
        ..CampaignConfig::default()
    };

    println!("driving '{cmd}' over pipes, serial (K=1)...");
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    let serial = run_shard_piped(&mut fuzzer, &config, 0, None, 1, &backend);

    println!("driving '{cmd}' over pipes, 8 queries in flight...");
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    let overlapped = run_shard_piped(&mut fuzzer, &config, 0, None, 8, &backend);

    for (name, result) in [("serial", &serial), ("K=8", &overlapped)] {
        let process_deaths = result
            .findings
            .iter()
            .filter(|f| {
                f.signature.as_deref().is_some_and(|s| {
                    s.ends_with("::pipe::process-died") || s.ends_with("::pipe::wedged")
                })
            })
            .count();
        println!(
            "{name:>6}: {} deduplicated issues, {process_deaths} findings \
             from dead/wedged solver processes",
            dedup(&result.findings).len(),
        );
        // The standard stats renderer: cases, churn, and (when
        // `O4A_CACHE` is set) the verdict-cache hit rate.
        print!("{}", o4a_bench::render::render_stats(result));
    }

    // The determinism contract over the pipe transport: completions are
    // re-sequenced by case index, and (for deterministic solvers) every
    // answer is a pure function of the script — so overlap changes the
    // schedule and nothing else. Transport churn is the one quantity
    // overlap IS allowed to change (K>1 executes speculative queries past
    // the budget boundary), hence the sans_transport view.
    assert_eq!(
        serial.stats.sans_transport(),
        overlapped.stats.sans_transport()
    );
    assert_eq!(serial.findings.len(), overlapped.findings.len());
    assert_eq!(
        dedup(&serial.findings).len(),
        dedup(&overlapped.findings).len()
    );
    // One persistent process per lane regardless of K (plus crash
    // respawns), observable end to end.
    let lanes = config.solvers.len() as u64;
    for (name, stats) in [("serial", &serial.stats), ("K=8", &overlapped.stats)] {
        // Cache hits never touch a process, so a (partially) warm run
        // can stay under the one-process-per-lane floor — all the way to
        // zero when every query is served off the journal.
        let floor = if stats.cache_hits > 0 { 0 } else { lanes };
        assert!(
            stats.processes_spawned >= floor
                && stats.processes_spawned <= lanes + stats.process_respawns,
            "{name} run spawned {} processes for {} lanes + {} respawns",
            stats.processes_spawned,
            lanes,
            stats.process_respawns
        );
    }
    println!("serial and K=8 piped campaigns are bit-identical");
}

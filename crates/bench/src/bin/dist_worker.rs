//! The reference distributed-campaign worker binary: the lease-serving
//! loop from `o4a_dist::worker` wrapped around the paper's Once4All
//! fuzzer, so every worker of a fleet fuzzes with the identical
//! configuration and a shard result stays a pure function of the plan.
//!
//! ```text
//! dist_worker --connect HOST:PORT --journal PATH --worker N \
//!     [--reconnect-ms MS] [--slow-ms MS] [--leave-after-leases K] \
//!     [--crash-shard S --crash-token PATH [--crash-after CASES]]
//! ```
//!
//! The worker joins the coordinator listening at `--connect` — the
//! coordinator that spawned it, or any other — retrying the dial for
//! `--reconnect-ms` (default 10000) so it can outlive a coordinator
//! restart. A spawning coordinator hands its children the fleet secret
//! in `O4A_DIST_SECRET`, which the `hello` echoes. The crash flags are
//! the recovery gauntlet's fault injection: die abruptly mid-way through
//! shard `S`, once per campaign (whoever wins the atomic creation of the
//! token file crashes; every later holder of the lease runs it to
//! completion). `--slow-ms` drags wall-clock per case (the heterogeneous
//! fleet's slow machine) and `--leave-after-leases` makes the worker say
//! goodbye mid-campaign (elastic scale-in). See `crates/dist/README.md`
//! for the control protocol and the worker CLI contract.

use o4a_core::{Fuzzer, Once4AllFuzzer};
use o4a_dist::{run_worker, CrashInjection, WorkerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("dist_worker: {msg}");
    eprintln!(
        "usage: dist_worker --connect HOST:PORT --journal PATH --worker N \
         [--reconnect-ms MS] [--slow-ms MS] [--leave-after-leases K] \
         [--crash-shard S --crash-token PATH [--crash-after CASES]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut journal: Option<PathBuf> = None;
    let mut worker_id: u32 = 0;
    let mut connect: Option<String> = None;
    let mut reconnect_ms: u64 = 10_000;
    let mut slow_ms: u64 = 0;
    let mut leave_after: Option<u32> = None;
    let mut crash_shard: Option<u32> = None;
    let mut crash_token: Option<PathBuf> = None;
    let mut crash_after: u64 = 5;

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
            "--journal" => journal = Some(PathBuf::from(value())),
            "--worker" => worker_id = int("--worker", value()) as u32,
            "--connect" => connect = Some(value()),
            "--reconnect-ms" => reconnect_ms = int("--reconnect-ms", value()),
            "--slow-ms" => slow_ms = int("--slow-ms", value()),
            "--leave-after-leases" => {
                leave_after = Some(int("--leave-after-leases", value()) as u32)
            }
            "--crash-shard" => crash_shard = Some(int("--crash-shard", value()) as u32),
            "--crash-token" => crash_token = Some(PathBuf::from(value())),
            "--crash-after" => crash_after = int("--crash-after", value()),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let Some(journal) = journal else {
        usage("--journal is required");
    };
    let Some(addr) = connect else {
        usage("--connect is required");
    };
    let crash = match (crash_shard, crash_token) {
        (Some(shard), Some(token)) => Some(CrashInjection {
            shard,
            after_cases: crash_after,
            token,
        }),
        (None, None) => None,
        _ => usage("--crash-shard and --crash-token go together"),
    };

    let mut config = WorkerConfig::new(journal, worker_id);
    config.crash = crash;
    config.slow_case_ms = slow_ms;
    config.leave_after_leases = leave_after;
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    let served = run_worker(factory, &config, &addr, Duration::from_millis(reconnect_ms));
    if let Err(e) = served {
        eprintln!("dist_worker: {e}");
        std::process::exit(1);
    }
}

//! The reference distributed-campaign worker binary: the lease-serving
//! loop from `o4a_dist::worker` wrapped around the paper's Once4All
//! fuzzer, so every worker of a fleet fuzzes with the identical
//! configuration and a shard result stays a pure function of the plan.
//!
//! ```text
//! dist_worker --connect HOST:PORT --journal PATH --worker N \
//!     [--slow-ms MS] [--crash-shard S --crash-token PATH [--crash-after CASES]]
//! ```
//!
//! The coordinator spawns it with `--connect`, `--journal` and
//! `--worker` appended to its worker command, and hands it the fleet
//! secret in `O4A_DIST_SECRET`, which the `hello` echoes. It exits 0 on
//! the coordinator's `goodbye` and 1 when the connection closes without
//! one. The crash flags are the recovery gauntlet's fault injection: die
//! abruptly mid-way through shard `S`, once per campaign (whoever wins
//! the atomic creation of the token file crashes; every later holder of
//! the lease runs it to completion). `--slow-ms` drags wall-clock per
//! case, keeping leases long enough to crash or observe mid-way. See
//! `crates/dist/README.md` for the control protocol and the worker CLI
//! contract.

use o4a_core::{Fuzzer, Once4AllFuzzer};
use o4a_dist::{run_worker, CrashInjection, WorkerConfig};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("dist_worker: {msg}");
    eprintln!(
        "usage: dist_worker --connect HOST:PORT --journal PATH --worker N \
         [--slow-ms MS] [--crash-shard S --crash-token PATH [--crash-after CASES]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut journal: Option<PathBuf> = None;
    let mut worker_id: u32 = 0;
    let mut connect: Option<String> = None;
    let mut slow_ms: u64 = 0;
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
            "--slow-ms" => slow_ms = int("--slow-ms", value()),
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
    let factory = |_shard: u32| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>;
    let served = run_worker(factory, &config, &addr);
    if let Err(e) = served {
        eprintln!("dist_worker: {e}");
        std::process::exit(1);
    }
}

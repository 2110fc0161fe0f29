//! # o4a-exec
//!
//! The sharded parallel campaign engine. The paper's experiment grid is
//! embarrassingly parallel across fuzzers, solver commits, and seeds; this
//! crate turns `o4a-core`'s serial, in-memory campaign loop into a
//! production-shaped engine:
//!
//! * **Deterministic sharding** — a [`CampaignConfig`] splits into `N`
//!   shards with independent RNG streams (`seed ⊕ shard-index`), executed
//!   on a `std::thread` worker pool sized by [`Parallelism`]. Results
//!   merge in shard order, so two runs with the same seed produce
//!   identical aggregates regardless of thread scheduling.
//! * **Mergeable results** — shard results combine without loss: stats
//!   sum, findings concatenate, and raw coverage maps union
//!   ([`o4a_solvers::CoverageMap::merge`]) with percentages recomputed
//!   from the union. See `README.md` for the full merge model.
//! * **A resumable findings store** — [`FindingsStore`] journals findings
//!   to JSONL as they are discovered and records shard completion;
//!   [`run_campaign_resumable`] skips completed shards on restart and
//!   re-runs interrupted ones deterministically, so a killed campaign
//!   resumes to the same deduplicated issue set an uninterrupted run
//!   reports. [`FindingsStore::merge_from`] extends the same laws across
//!   many journals of one campaign — the distributed merge.
//! * **Lease-granular execution** — [`run_shard_lease`] runs one shard
//!   of an N-way plan as a standalone unit (a pure function of
//!   `(config, shards, shard)`), which is what the `o4a-dist`
//!   coordinator hands its worker processes as dynamic leases.
//! * **External solver processes** — with [`ExecConfig::solver_cmd`]
//!   (the `O4A_SOLVER_CMD` knob) each shard worker spawns the named
//!   solver binary per lane and drives it **over stdin/stdout pipes**
//!   ([`run_shard_piped`], [`o4a_solvers::PipeSolver`]): scripts stream
//!   to the child's stdin, replies parse incrementally from its stdout
//!   via the fd reactor's `poll(2)`, and crashed or wedged processes
//!   become crash findings (killed + respawned), never hangs. With
//!   [`ExecConfig::inflight`] `= K > 1` each shard worker pipelines `K`
//!   cases on a tokio-free poll-loop executor (`o4a-executor`),
//!   re-sequencing out-of-order completions by case index so results
//!   stay bit-identical to `K = 1`. The in-process engines ignore the
//!   knob: their checks are CPU-bound on the worker thread, so there is
//!   nothing to overlap — their parallelism is shards on threads.
//!   [`ExecConfig::solver_mode`] (the `O4A_SOLVER_MODE` knob) picks the
//!   transport: `spawn` fans `K` in-flight queries out across up to `K`
//!   children per lane, `session` multiplexes them as `(push 1)` /
//!   `(pop 1)` scopes on **one persistent incremental process per
//!   lane**. The overlap-equivalence law holds over both — proven
//!   against the deterministic mock solver in
//!   `crates/bench/tests/pipe_backend.rs`, crash injection included —
//!   and per-lane process churn surfaces in
//!   [`o4a_core::CampaignStats`] (`processes_spawned`,
//!   `process_respawns`, `scopes_pushed`).
//!
//! ```no_run
//! use o4a_core::{CampaignConfig, Fuzzer, Once4AllFuzzer};
//! use o4a_exec::{run_campaign_sharded, ExecConfig, Parallelism};
//!
//! let exec = ExecConfig {
//!     shards: 4,
//!     parallelism: Parallelism::Auto,
//!     inflight: 8,
//!     solver_cmd: Some("z3 -in".into()), // real Z3 over pipes
//!     ..ExecConfig::default()
//! };
//! let result = run_campaign_sharded(
//!     |_shard| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>,
//!     &CampaignConfig::default(),
//!     &exec,
//! );
//! println!("{} cases across 4 shards, 8 queries in flight each", result.stats.cases);
//! ```

#![warn(missing_docs)]

pub use o4a_cache::{CacheSession, CacheStore};
pub use o4a_obs::json;

pub mod overlap;
pub mod shard;
pub mod store;

pub use overlap::{run_shard_piped, PipeBackend};
pub use shard::{
    merge_shard_results, parallel_map, run_campaign_sharded, run_campaign_sharded_with, run_shard,
    run_shard_lease, shard_config, shard_configs, shard_seed, ExecConfig, FindingSink, Parallelism,
};
pub use store::{FindingsStore, StoreSession};

use o4a_core::{CampaignConfig, CampaignResult, Fuzzer};

/// Runs a sharded campaign journaled through a [`FindingsStore`]: shards
/// already completed in the journal are loaded instead of re-run, findings
/// stream to disk as they are discovered, and the merged result is
/// identical to an uninterrupted [`run_campaign_sharded`] of the same
/// configuration.
///
/// # Errors
///
/// I/O errors opening or reading the journal, and journals whose header
/// does not match `config`/`exec.shards`.
pub fn run_campaign_resumable<F>(
    factory: F,
    config: &CampaignConfig,
    exec: &ExecConfig,
    store: &FindingsStore,
) -> std::io::Result<CampaignResult>
where
    F: Fn(u32) -> Box<dyn Fuzzer> + Sync,
{
    let (session, completed) = store.resume_or_create(config, exec.shards)?;
    Ok(shard::run_campaign_sharded_with(
        &factory,
        config,
        exec,
        Some(&session),
        completed,
    ))
}

//! # o4a-dist
//!
//! The distributed campaign layer: a **coordinator** that owns the shard
//! plan and a fleet of **workers** it drives over one wire — a TCP
//! listener every worker joins by connecting, whether the coordinator
//! spawned it over loopback or it came on its own — using the same
//! `poll(2)` reactor machinery the external-solver transport uses, one
//! layer up the stack.
//!
//! * **Dynamic shard leases** — shards are granted one at a time to idle
//!   workers ([`coordinator`]), so finished workers steal the long tail
//!   instead of idling behind a static split (a
//!   [`DistConfig::static_split`] knob exists purely to benchmark that
//!   claim on heterogeneous fleets).
//! * **A JSONL control protocol** — `hello` / `lease` / `progress` /
//!   `done` / `re-adopt` / `goodbye` frames ([`protocol`]), with
//!   per-worker heartbeat deadlines riding the reactor's `poll(2)`
//!   timeout.
//! * **Elastic fleets** — workers join mid-campaign and immediately
//!   pull leases, leave (or die) mid-lease and have them re-issued
//!   ([`transport`]). A coordinator with a worker command spawns its own
//!   fleet as `<cmd> --connect <addr>`, keeps it at strength, and admits
//!   only children that echo its per-run secret.
//! * **A resumable coordinator** — with a [`DistConfig::checkpoint`],
//!   lease state is journaled fsync-per-record ([`checkpoint`]); a
//!   killed coordinator restarts, re-adopts reconnecting workers, and
//!   re-issues orphaned leases.
//! * **Per-worker findings journals, merged losslessly** — each worker
//!   appends to its own fsync'd [`o4a_exec::FindingsStore`] journal; the
//!   coordinator merges them by the store's concatenation +
//!   dedup-on-load law ([`o4a_exec::FindingsStore::merge_from`]).
//! * **A live observatory** — `O4A_SCOPE=host:port` (or
//!   [`DistConfig::with_scope`]) opens a read-only HTTP/SSE status
//!   plane on the coordinator's own reactor ([`scope`]): `/status`
//!   (JSON fleet snapshot), `/metrics` (Prometheus text), `/events`
//!   (SSE campaign milestones), plus fleet-merged Chrome traces and an
//!   EWMA straggler detector. Observation only — the scope-on ≡
//!   scope-off gauntlet pins that watching a campaign cannot change it.
//! * **Crash recovery that cannot show** — a worker killed mid-lease
//!   gets its lease re-issued; the shard re-derives deterministically,
//!   so a 1-worker and an N-worker campaign (crashes, elastic churn,
//!   and coordinator deaths included) produce **bit-identical**
//!   findings, coverage maps, hourly snapshot series, and stats modulo
//!   transport counters. The gauntlets in
//!   `crates/bench/tests/dist_campaign.rs` and
//!   `crates/bench/tests/elastic_fleet.rs` pin the claim; the
//!   determinism argument is spelled out in this crate's `README.md`.
//!
//! ```no_run
//! use o4a_core::CampaignConfig;
//! use o4a_dist::{run_distributed, DistConfig};
//!
//! let dist = DistConfig::new(vec!["target/debug/dist_worker".into()], "/tmp/dist-journals")
//!     .with_workers(4);
//! let report = run_distributed(&CampaignConfig::default(), 8, &dist).unwrap();
//! println!(
//!     "{} cases over {} leases on {} workers ({} re-issued)",
//!     report.result.stats.cases,
//!     report.stats.leases_granted,
//!     report.stats.workers_spawned,
//!     report.stats.leases_reissued,
//! );
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod protocol;
pub mod scope;
pub mod transport;
pub mod worker;

pub use checkpoint::{CheckpointSession, CheckpointState, CheckpointStore};
pub use coordinator::{run_distributed, DistConfig, DistReport, DistStats, WorkerSummary};
pub use protocol::{
    CacheCounters, CampaignPlan, CompletedLease, Frame, TraceBatch, FLEET_SECRET_ENV,
};
pub use scope::{ScopeServer, ScopeStatus, ScopeWorker};
pub use transport::connect_with_retry;
pub use worker::{run_worker, CrashInjection, WorkerConfig};

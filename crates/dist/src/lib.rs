//! # o4a-dist
//!
//! The distributed campaign layer: a **coordinator** that owns the shard
//! plan and a fleet of **workers** it spawns itself, driven over one
//! wire — a loopback TCP listener every child connects back to — using
//! the same `poll(2)` reactor machinery the external-solver transport
//! uses, one layer up the stack.
//!
//! * **Dynamic shard leases** — shards are granted one at a time to idle
//!   workers ([`coordinator`]), so finished workers steal the long tail
//!   instead of idling behind a static split.
//! * **A JSONL control protocol** — `hello` / `lease` / `progress` /
//!   `done` / `goodbye` frames ([`protocol`]), with per-worker heartbeat
//!   deadlines riding the reactor's `poll(2)` timeout.
//! * **One way into the fleet** — the coordinator spawns `<cmd>
//!   --connect <addr> --journal <path> --worker <id>` children
//!   ([`transport`]), keeps the fleet at strength within a respawn
//!   budget, and admits only children that echo its per-run secret.
//! * **Per-worker findings journals, merged losslessly** — each worker
//!   appends to the fsync'd [`o4a_exec::FindingsStore`] journal assigned
//!   at its spawn; the coordinator merges them by the store's
//!   concatenation + dedup-on-load law
//!   ([`o4a_exec::FindingsStore::merge_from`]).
//! * **A live observatory** — `O4A_SCOPE=host:port` (or
//!   [`DistConfig::with_scope`]) opens a read-only HTTP status plane on
//!   the coordinator's own reactor ([`scope`]): `/status` (JSON fleet
//!   snapshot) and `/metrics` (Prometheus text), plus fleet-merged
//!   Chrome traces. Observation only — the scope-on ≡ scope-off
//!   gauntlet pins that watching a campaign cannot change it.
//! * **Crash recovery that cannot show** — a worker killed mid-lease
//!   gets its lease re-issued; the shard re-derives deterministically,
//!   so a 1-worker and an N-worker campaign (crashes included) produce
//!   **bit-identical** findings, coverage maps, hourly snapshot series,
//!   and stats modulo transport counters. The gauntlets in
//!   `crates/bench/tests/dist_campaign.rs` pin the claim; the
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

pub mod coordinator;
pub mod protocol;
pub mod scope;
pub mod transport;
pub mod worker;

pub use coordinator::{run_distributed, DistConfig, DistReport, DistStats, WorkerSummary};
pub use protocol::{CacheCounters, CampaignPlan, Frame, TraceBatch, FLEET_SECRET_ENV};
pub use scope::{ScopeServer, ScopeStatus, ScopeWorker};
pub use transport::connect_with_retry;
pub use worker::{run_worker, CrashInjection, WorkerConfig};

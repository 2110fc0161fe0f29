//! # once4all
//!
//! Facade crate for the Once4All reproduction: re-exports the public API of
//! every workspace crate so examples and downstream users need a single
//! dependency.
//!
//! * [`smtlib`] — SMT-LIB 2 substrate (sorts, terms, parser, printer, type
//!   checker, golden evaluator).
//! * [`grammar`] — CFGs and random derivation.
//! * [`llm`] — simulated LLM + generator construction (Algorithm 1).
//! * [`solvers`] — the two bug-seeded solvers under test (OxiZ ≙ Z3,
//!   Cervo ≙ cvc5).
//! * [`core`] — skeleton-guided mutation, differential oracle, campaigns
//!   (Algorithm 2).
//! * [`baselines`] — the eight comparison fuzzers.
//! * [`reduce`] — the ddSMT-style delta debugger.
//! * [`exec`] — the sharded parallel campaign engine with mergeable
//!   coverage, a resumable findings store, and the pipe transport for
//!   **external solver processes** (`O4A_SOLVER_CMD`: real Z3/cvc5
//!   binaries or the deterministic mock) with overlapped in-flight
//!   queries.
//! * [`executor`] — the tokio-free single-threaded poll-loop executor
//!   (hand-rolled waker, bounded in-flight pool, completion re-sequencer,
//!   `poll(2)` fd reactor) behind the pipe transport.
//! * [`dist`] — the distributed campaign layer: a coordinator driving a
//!   fleet of worker processes over a JSONL pipe protocol with dynamic
//!   shard leases (work stealing), per-worker findings journals merged
//!   losslessly, and crash recovery that keeps an N-worker campaign
//!   bit-identical to a 1-worker one.
//! * [`obs`] — deterministic-safe observability: ring-buffer tracing
//!   with Chrome trace-event export, a counter/histogram metrics
//!   registry whose snapshots merge across fleets, and the
//!   `O4A_TRACE`/`O4A_METRICS` knobs (near-zero cost when off).
//!
//! ```no_run
//! use once4all::core::{run_campaign, CampaignConfig, Once4AllFuzzer};
//! let mut fuzzer = Once4AllFuzzer::with_defaults();
//! let result = run_campaign(&mut fuzzer, &CampaignConfig::default());
//! println!("found {} bug-triggering formulas", result.stats.bug_triggering);
//! ```

#![warn(missing_docs)]

pub use o4a_baselines as baselines;
pub use o4a_core as core;
pub use o4a_dist as dist;
pub use o4a_exec as exec;
pub use o4a_executor as executor;
pub use o4a_grammar as grammar;
pub use o4a_llm as llm;
pub use o4a_obs as obs;
pub use o4a_reduce as reduce;
pub use o4a_smtlib as smtlib;
pub use o4a_solvers as solvers;

//! # o4a-core
//!
//! The Once4All fuzzing framework (the paper's primary contribution):
//! skeleton-guided mutation with LLM-synthesized term generators, a
//! differential oracle with model re-evaluation, triage/deduplication,
//! correcting-commit bisection, bug-lifespan analysis, and the campaign
//! runner behind every evaluation figure.
//!
//! ```no_run
//! use o4a_core::{run_campaign, CampaignConfig, Once4AllConfig, Once4AllFuzzer};
//!
//! let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
//! let result = run_campaign(&mut fuzzer, &CampaignConfig::default());
//! println!("{} cases, {} bug-triggering", result.stats.cases,
//!          result.stats.bug_triggering);
//! ```

#![warn(missing_docs)]

pub mod bisect;
pub mod campaign;
pub mod fill;
pub mod fuzzer;
pub mod lifespan;
pub mod oracle;
pub mod seeds;
pub mod skeleton;
pub mod triage;

pub use bisect::correcting_commit;
pub use campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignStats, CampaignStepper, CaseExecution,
    CoveragePoint, HourlySnapshot, SolverRun, StepOutcome,
};
pub use fill::{adapt_fill_arena, parse_fill_into, synthesize_arena, ArenaFill, ADAPT_PROBABILITY};
pub use fuzzer::{FrontendValidator, Fuzzer, Once4AllConfig, Once4AllFuzzer, TestCase};
pub use lifespan::{lifespan_series, long_latent_count, LifespanPoint};
pub use oracle::{judge, judge_script, model_satisfies, Verdict};
pub use seeds::{parsed_seeds, SEED_TEXTS};
pub use skeleton::{skeletonize_arena, ArenaSkeleton, SkeletonConfig};
pub use triage::{
    attribute, dedup, dedup_refs, extended_theory_count, status_table, type_table, Finding,
    FoundKind, Issue, StatusCounts,
};

//! # o4a-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, driven by the `experiments` binary at quick or full
//! scale. See `DESIGN.md` for the paper-vs-measured record and what
//! `time_scale` trades.

#![warn(missing_docs)]

pub mod experiments;
pub mod render;

pub use experiments::*;
pub use render::*;

//! # o4a-solvers
//!
//! The solvers-under-test substrate: two independently implemented,
//! coverage-instrumented, bug-seeded miniature SMT solvers standing in for
//! Z3 and cvc5 (see `DESIGN.md` for the substitution argument).
//!
//! * [`OxiZ`] (Z3 stand-in): simplify → bounded domain enumeration;
//!   supports Core/Ints/Reals/BitVectors/Strings/Arrays/UF/Sequences.
//! * [`Cervo`] (cvc5 stand-in): NNF + let inlining → model repair →
//!   exhaustive fallback; additionally supports Sets/Relations, Bags, and
//!   FiniteFields.
//! * [`PipeSolver`]: a real external solver binary (Z3, cvc5, or the
//!   deterministic mock) over stdin/stdout pipes — the only backend with
//!   asynchronous checks ([`PipeSolver::check_async`]), which
//!   `o4a-exec` keeps `K` in flight per worker.
//!
//! Both engines answer `sat` only with golden-evaluator-verified models and
//! `unsat` only after complete finite exhaustion, so **with seeded bugs
//! disabled they can never produce a sat/unsat conflict** — every
//! discrepancy a fuzzer observes is attributable to the [`bugs`] registry,
//! which is exactly the ground truth the paper's experiments need.
//!
//! ```
//! use o4a_solvers::{Cervo, OxiZ, SmtSolver, Outcome};
//!
//! let text = "(declare-const x Int)(assert (= (* x x) 9))(check-sat)";
//! let mut oxiz = OxiZ::new();
//! let mut cervo = Cervo::new();
//! assert_eq!(oxiz.check(text).outcome, Outcome::Sat);
//! assert_eq!(cervo.check(text).outcome, Outcome::Sat);
//! ```

#![warn(missing_docs)]

pub mod bugs;
mod cervo;
pub mod coverage;
pub mod features;
mod frontend;
mod oxiz;
pub mod pipe;
mod response;
pub mod versions;

pub use cervo::Cervo;
pub use coverage::{CoverageMap, Universe};
pub use features::FormulaFeatures;
pub use frontend::{Analyzed, Frontend, Parsed};
pub use oxiz::{domain_config, EngineConfig, OxiZ};
pub use pipe::{
    normalized_script, parse_model_reply, CacheKey, CachedReply, PipeCommand, PipeSolver,
    ReplyParser, SolverMode, VerdictCache,
};
pub use response::{CrashInfo, CrashKind, Outcome, SolveStats, SolverId, SolverResponse};
pub use versions::{CommitIdx, Release, TRUNK_COMMIT};

/// The common interface of the solvers under test.
pub trait SmtSolver {
    /// Which solver this is.
    fn id(&self) -> SolverId;
    /// The commit the solver was "built" from.
    fn commit(&self) -> CommitIdx;
    /// Runs a full SMT-LIB script and answers its `check-sat`.
    fn check(&mut self, text: &str) -> SolverResponse;
    /// [`SmtSolver::check`] on a case whose frontend pass is already done:
    /// `parsed` must be [`Parsed::new`] of `text`. The in-process engines
    /// solve from `parsed` and skip their own parse; the default ignores it
    /// and runs `check(text)`, which is what an external process needs.
    fn check_parsed(&mut self, text: &str, parsed: &Parsed) -> SolverResponse {
        let _ = parsed;
        self.check(text)
    }
    /// Cumulative coverage across all `check` calls.
    fn coverage(&self) -> &CoverageMap;
    /// The solver's instrumentation universe.
    fn universe(&self) -> &Universe;
    /// Clears accumulated coverage.
    fn reset_coverage(&mut self);
}

/// Constructs a solver by id at a given commit.
pub fn solver_at(id: SolverId, commit: CommitIdx) -> Box<dyn SmtSolver> {
    match id {
        SolverId::OxiZ => Box::new(OxiZ::at_commit(commit)),
        SolverId::Cervo => Box::new(Cervo::at_commit(commit)),
    }
}

/// Constructs a solver by id at a commit with a custom engine
/// configuration.
pub fn solver_with_config(
    id: SolverId,
    commit: CommitIdx,
    config: EngineConfig,
) -> Box<dyn SmtSolver> {
    match id {
        SolverId::OxiZ => Box::new(OxiZ::at_commit(commit).with_config(config)),
        SolverId::Cervo => Box::new(Cervo::at_commit(commit).with_config(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_time_is_recorded_only_with_metrics_on() {
        // Samples in the rewrite, compile and search histograms.
        let samples = || {
            let histograms = o4a_obs::metrics::snapshot().histograms;
            ["solver.rewrite", "solver.compile", "solver.search"]
                .map(|name| histograms.get(name).map_or(0, |h| h.count))
        };
        let text = "(declare-const x Int)(assert (> x 1))(check-sat)";
        if !o4a_obs::metrics_enabled() {
            let before = samples();
            for id in SolverId::ALL {
                solver_at(id, TRUNK_COMMIT).check(text);
            }
            assert_eq!(samples(), before, "recorded with metrics off");
        }
        o4a_obs::install(o4a_obs::ObsConfig {
            metrics: true,
            ..o4a_obs::ObsConfig::default()
        });
        let before = samples();
        for id in SolverId::ALL {
            solver_at(id, TRUNK_COMMIT).check(text);
        }
        let after = samples();
        assert!(after[0] >= before[0] + 2, "one sample per engine rewrite");
        assert!(after[1] >= before[1] + 2, "one sample per engine compile");
        assert!(after[2] >= before[2] + 2, "one sample per engine search");
    }

    #[test]
    fn factory_builds_both() {
        for id in SolverId::ALL {
            let mut s = solver_at(id, TRUNK_COMMIT);
            assert_eq!(s.id(), id);
            assert_eq!(s.commit(), TRUNK_COMMIT);
            let r = s.check("(assert true)(check-sat)");
            assert_eq!(r.outcome, Outcome::Sat);
        }
    }

    #[test]
    fn solvers_agree_on_simple_scripts_without_bugs() {
        let cfg = EngineConfig {
            bugs_enabled: false,
            ..EngineConfig::default()
        };
        for text in [
            "(declare-const p Bool)(assert p)(check-sat)",
            "(declare-const p Bool)(assert (and p (not p)))(check-sat)",
            "(declare-const x Int)(assert (= (+ x 1) 2))(check-sat)",
            "(declare-const b (_ BitVec 4))(assert (bvult b #x3))(check-sat)",
            "(declare-const s String)(assert (= (str.len s) 1))(check-sat)",
        ] {
            let mut oz = solver_with_config(SolverId::OxiZ, TRUNK_COMMIT, cfg.clone());
            let mut cv = solver_with_config(SolverId::Cervo, TRUNK_COMMIT, cfg.clone());
            let a = oz.check(text).outcome;
            let b = cv.check(text).outcome;
            let conflict = matches!(
                (&a, &b),
                (Outcome::Sat, Outcome::Unsat) | (Outcome::Unsat, Outcome::Sat)
            );
            assert!(!conflict, "sat/unsat conflict on {text}: {a} vs {b}");
        }
    }
}

//! Correcting-commit identification (paper §4.3): given a bug-triggering
//! formula that reproduces on an old version but not on trunk, binary
//! search the commit history for the fix commit. Distinct correcting
//! commits ⇒ distinct bugs — the uniqueness rule of the RQ2
//! comparison.

use crate::oracle::model_satisfies;
use o4a_smtlib::parse_script;
use o4a_solvers::{solver_with_config, CommitIdx, EngineConfig, Outcome, SolverId};

/// Whether the bug manifests when `case_text` is run at `commit`:
/// a crash, an invalid model, or a decisive verdict different from the
/// trunk verdict (`fixed_outcome`).
fn reproduces(
    solver: SolverId,
    commit: CommitIdx,
    case_text: &str,
    fixed_outcome: &Outcome,
    engine: &EngineConfig,
) -> bool {
    let mut s = solver_with_config(solver, commit, engine.clone());
    let r = s.check(case_text);
    match &r.outcome {
        Outcome::Crash(_) => true,
        Outcome::Sat => {
            if let (Ok(script), Some(model)) = (parse_script(case_text), &r.model) {
                if model_satisfies(&script, model) == Some(false) {
                    return true;
                }
            }
            matches!(fixed_outcome, Outcome::Unsat)
        }
        Outcome::Unsat => matches!(fixed_outcome, Outcome::Sat),
        _ => false,
    }
}

/// Finds the correcting commit of a bug that reproduces at `lo` but not at
/// `hi`: the smallest commit in `(lo, hi]` where the behaviour matches the
/// fixed behaviour. Returns `None` when the premise does not hold (no
/// reproduction at `lo`, or still broken at `hi`).
///
/// Uses binary search exactly as the paper describes ("we exploit binary
/// search to accelerate the process").
pub fn correcting_commit(
    solver: SolverId,
    case_text: &str,
    lo: CommitIdx,
    hi: CommitIdx,
    engine: &EngineConfig,
) -> Option<CommitIdx> {
    let fixed_outcome = {
        let mut s = solver_with_config(solver, hi, engine.clone());
        s.check(case_text).outcome
    };
    if !reproduces(solver, lo, case_text, &fixed_outcome, engine) {
        return None;
    }
    if reproduces(solver, hi, case_text, &fixed_outcome, engine) {
        return None; // still broken on trunk: an open bug, not a known one
    }
    let (mut bad, mut good) = (lo, hi);
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        if reproduces(solver, mid, case_text, &fixed_outcome, engine) {
            bad = mid;
        } else {
            good = mid;
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_solvers::bugs::registry;
    use o4a_solvers::versions::latest_release;
    use o4a_solvers::{FormulaFeatures, TRUNK_COMMIT};

    /// Finds a formula variant that structurally matches a historical bug's
    /// trigger and passes its rarity gate.
    fn triggering_case(bug_id: &str, template: &str) -> Option<String> {
        let spec = registry().iter().find(|b| b.id == bug_id).unwrap();
        for n in 0..200 {
            let text = template.replace("{N}", &n.to_string());
            let script = parse_script(&text).unwrap();
            let f = FormulaFeatures::of(&script);
            if spec.trigger.fires(&f) {
                return Some(text);
            }
        }
        None
    }

    #[test]
    fn bisection_recovers_fix_commit_of_hc_04() {
        // hc-04: Cervo crash on seq.nth + seq.len, introduced 50, fixed 80.
        let case = triggering_case(
            "hc-04",
            "(declare-const q (Seq Int))\
             (assert (= (seq.nth q {N}) (seq.len q)))(check-sat)",
        )
        .expect("no triggering variant found");
        let release = latest_release(SolverId::Cervo);
        let engine = EngineConfig::default();
        let fix = correcting_commit(
            SolverId::Cervo,
            &case,
            release.commit,
            TRUNK_COMMIT,
            &engine,
        );
        assert_eq!(fix, Some(80));
    }

    #[test]
    fn bisection_recovers_fix_commit_of_hz_01() {
        // hz-01: OxiZ crash on +/mod, introduced 30, fixed 75.
        let case = triggering_case(
            "hz-01",
            "(declare-const x Int)\
             (assert (= (+ x {N}) (mod x 3)))(check-sat)",
        )
        .expect("no triggering variant found");
        let release = latest_release(SolverId::OxiZ);
        let engine = EngineConfig::default();
        let fix = correcting_commit(SolverId::OxiZ, &case, release.commit, TRUNK_COMMIT, &engine);
        assert_eq!(fix, Some(75));
    }

    #[test]
    fn open_trunk_bugs_have_no_correcting_commit() {
        // cv-07 is open at trunk; bisection must refuse.
        let case = triggering_case(
            "cv-07",
            "(declare-fun r () (Relation Int Int))\
             (assert (set.member (tuple {N} {N}) (rel.join r r)))(check-sat)",
        )
        .expect("no triggering variant found");
        let engine = EngineConfig::default();
        let fix = correcting_commit(SolverId::Cervo, &case, 60, TRUNK_COMMIT, &engine);
        assert_eq!(fix, None);
    }

    #[test]
    fn non_triggering_case_has_no_correcting_commit() {
        let engine = EngineConfig::default();
        let fix = correcting_commit(
            SolverId::OxiZ,
            "(assert true)(check-sat)",
            10,
            TRUNK_COMMIT,
            &engine,
        );
        assert_eq!(fix, None);
    }
}

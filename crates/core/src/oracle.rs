//! The differential oracle (paper §3.3, validation step): compare solver
//! verdicts, validate models by re-evaluation, and classify discrepancies
//! into the three bug classes.

use o4a_smtlib::eval::{DomainConfig, Evaluator};
use o4a_smtlib::{parse_script_arena, Command, Script, Sort, Symbol, Term, TermArena, Value};
use o4a_solvers::{Outcome, Parsed, SolverId, SolverResponse};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// The oracle's judgement of one test case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No observable problem.
    Ok,
    /// A solver crashed.
    Crash {
        /// The crashing solver.
        solver: SolverId,
        /// The crash-stack signature (dedup key).
        signature: String,
    },
    /// `sat` vs `unsat` disagreement; when the sat model re-evaluates to
    /// true, the unsat side is the unsound one (the paper's direction
    /// test).
    Soundness {
        /// Solver that answered `sat`.
        sat_solver: SolverId,
        /// Solver that answered `unsat`.
        unsat_solver: SolverId,
        /// Whether the model confirmed the sat answer (None when the model
        /// was absent or undecidable).
        model_confirms_sat: Option<bool>,
    },
    /// A solver answered `sat` with a model that does not satisfy the
    /// formula.
    InvalidModel {
        /// The offending solver.
        solver: SolverId,
    },
    /// Nothing comparable (parse errors, unknowns, timeouts).
    NotComparable,
}

impl Verdict {
    /// True when the verdict indicates a bug.
    pub fn is_bug(&self) -> bool {
        matches!(
            self,
            Verdict::Crash { .. } | Verdict::Soundness { .. } | Verdict::InvalidModel { .. }
        )
    }
}

/// Evaluates a script's assertions under a model with the golden evaluator.
///
/// Returns `Some(true)`/`Some(false)` when every assertion evaluates
/// decisively, `None` when evaluation is incomplete or errors (in which
/// case no invalid-model claim may be made).
pub fn model_satisfies(script: &Script, model: &o4a_smtlib::Model) -> Option<bool> {
    let mut defs: BTreeMap<Symbol, (Vec<(Symbol, Sort)>, Term)> = BTreeMap::new();
    for cmd in &script.commands {
        if let Command::DefineFun(name, params, _, body) = cmd {
            defs.insert(name.clone(), (params.clone(), body.clone()));
        }
    }
    let cfg = DomainConfig::default();
    let ev = Evaluator::new(model, &defs, &cfg, 200_000);
    let mut all = true;
    for a in script.assertions() {
        match ev.eval(a) {
            Ok(Value::Bool(true)) => {}
            Ok(Value::Bool(false)) => all = false,
            _ => return None,
        }
    }
    Some(all)
}

/// Judges one test case from the responses of the solvers that ran it.
///
/// The checks, in the paper's priority order:
/// 1. any crash → crash bug;
/// 2. any `sat` whose model re-evaluates to false → invalid-model bug
///    (the `model_validate=true` / `--check-models` pathway);
/// 3. a `sat`/`unsat` pair → soundness bug, direction decided by model
///    re-evaluation when possible;
/// 4. otherwise nothing to report.
pub fn judge(case_text: &str, responses: &[(SolverId, SolverResponse)]) -> Verdict {
    // A crash is judged without the script, so it costs no parse.
    let crashed = responses
        .iter()
        .any(|(_, r)| matches!(r.outcome, Outcome::Crash(_)));
    let mut arena = TermArena::new();
    let script = if crashed {
        None
    } else {
        parse_script_arena(case_text, &mut arena).ok()
    };
    // Boxed only when a `sat` model must be re-evaluated.
    let boxed = OnceCell::new();
    let script = script
        .as_ref()
        .map(|s| || boxed.get_or_init(|| s.to_script(&arena)));
    judge_with(script, responses)
}

/// [`judge`] on an already parsed case. The script is boxed only when a
/// `sat` model must be re-evaluated against it.
pub fn judge_parsed(parsed: &Parsed, responses: &[(SolverId, SolverResponse)]) -> Verdict {
    let script = || parsed.script().expect("a case that parses has a script");
    judge_with(parsed.parses().then_some(script), responses)
}

/// The judgement, with `script` the parse of the case text read on demand,
/// `None` when it did not parse (then only a crash is reportable).
fn judge_with<'s>(
    script: Option<impl Fn() -> &'s Script>,
    responses: &[(SolverId, SolverResponse)],
) -> Verdict {
    for (solver, r) in responses {
        if let Outcome::Crash(info) = &r.outcome {
            return Verdict::Crash {
                solver: *solver,
                signature: info.signature.clone(),
            };
        }
    }
    let Some(script) = script else {
        return Verdict::NotComparable;
    };

    for (solver, r) in responses {
        if r.outcome == Outcome::Sat {
            if let Some(model) = &r.model {
                if model_satisfies(script(), model) == Some(false) {
                    return Verdict::InvalidModel { solver: *solver };
                }
            }
        }
    }

    let sat = responses.iter().find(|(_, r)| r.outcome == Outcome::Sat);
    let unsat = responses.iter().find(|(_, r)| r.outcome == Outcome::Unsat);
    if let (Some((ss, sr)), Some((us, _))) = (sat, unsat) {
        let model_confirms_sat = sr.model.as_ref().and_then(|m| model_satisfies(script(), m));
        return Verdict::Soundness {
            sat_solver: *ss,
            unsat_solver: *us,
            model_confirms_sat,
        };
    }

    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::{parse_script, Model};
    use o4a_solvers::{CrashInfo, CrashKind, SolveStats};

    fn resp(outcome: Outcome, model: Option<Model>) -> SolverResponse {
        SolverResponse {
            outcome,
            model,
            stats: SolveStats::default(),
        }
    }

    const CASE: &str = "(declare-const x Int)(assert (> x 5))(check-sat)";

    fn good_model() -> Model {
        let mut m = Model::new();
        m.set_const(Symbol::new("x"), Value::Int(6));
        m
    }

    fn bad_model() -> Model {
        let mut m = Model::new();
        m.set_const(Symbol::new("x"), Value::Int(0));
        m
    }

    #[test]
    fn crash_dominates() {
        let v = judge(
            CASE,
            &[
                (
                    SolverId::OxiZ,
                    resp(
                        Outcome::Crash(CrashInfo {
                            signature: "oxiz::x:1".into(),
                            kind: CrashKind::SegFault,
                        }),
                        None,
                    ),
                ),
                (SolverId::Cervo, resp(Outcome::Sat, Some(good_model()))),
            ],
        );
        assert!(matches!(
            v,
            Verdict::Crash {
                solver: SolverId::OxiZ,
                ..
            }
        ));
    }

    #[test]
    fn invalid_model_detected() {
        let v = judge(
            CASE,
            &[(SolverId::Cervo, resp(Outcome::Sat, Some(bad_model())))],
        );
        assert_eq!(
            v,
            Verdict::InvalidModel {
                solver: SolverId::Cervo
            }
        );
    }

    #[test]
    fn soundness_with_confirming_model() {
        let v = judge(
            CASE,
            &[
                (SolverId::OxiZ, resp(Outcome::Sat, Some(good_model()))),
                (SolverId::Cervo, resp(Outcome::Unsat, None)),
            ],
        );
        match v {
            Verdict::Soundness {
                sat_solver,
                unsat_solver,
                model_confirms_sat,
            } => {
                assert_eq!(sat_solver, SolverId::OxiZ);
                assert_eq!(unsat_solver, SolverId::Cervo);
                assert_eq!(model_confirms_sat, Some(true));
            }
            other => panic!("expected soundness, got {other:?}"),
        }
    }

    #[test]
    fn agreement_is_ok() {
        let v = judge(
            CASE,
            &[
                (SolverId::OxiZ, resp(Outcome::Sat, Some(good_model()))),
                (SolverId::Cervo, resp(Outcome::Sat, Some(good_model()))),
            ],
        );
        assert_eq!(v, Verdict::Ok);
        assert!(!v.is_bug());
    }

    #[test]
    fn unknown_vs_decisive_not_comparable_as_bug() {
        let v = judge(
            CASE,
            &[
                (SolverId::OxiZ, resp(Outcome::Unknown, None)),
                (SolverId::Cervo, resp(Outcome::Unsat, None)),
            ],
        );
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn model_satisfies_handles_quantifiers() {
        let script = parse_script(
            "(declare-const x Int)\
             (assert (exists ((k Int)) (= x (* k k))))(check-sat)",
        )
        .unwrap();
        let mut m = Model::new();
        m.set_const(Symbol::new("x"), Value::Int(4));
        assert_eq!(model_satisfies(&script, &m), Some(true));
        // x = 3 has no square witness in the bounded domain, and Int is not
        // exhaustible, so the existential cannot be refuted: undecidable.
        m.set_const(Symbol::new("x"), Value::Int(3));
        assert_eq!(model_satisfies(&script, &m), None);
        // Quantification over Bool is exhaustible and decisively false.
        let script2 = parse_script(
            "(declare-const x Int)\
             (assert (exists ((b Bool)) (and b (not b) (= x 3))))(check-sat)",
        )
        .unwrap();
        assert_eq!(model_satisfies(&script2, &m), Some(false));
    }

    #[test]
    fn incomplete_models_yield_none() {
        let script = parse_script(
            "(declare-const x Int)\
             (assert (forall ((k Int)) (distinct x (* k k k k))))(check-sat)",
        )
        .unwrap();
        let mut m = Model::new();
        m.set_const(Symbol::new("x"), Value::Int(7));
        // No counterexample in the bounded domain and Int is incomplete.
        assert_eq!(model_satisfies(&script, &m), None);
    }
}

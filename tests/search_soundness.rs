//! Oracle soundness and search exactness over generated and crafted cases.
//!
//! With seeded bugs disabled, both engines run about 2000 generated
//! Once4All cases at the default and at the tight benchmark budget (30
//! assignments, 4000 evaluation steps), plus crafted edge literals: i128
//! overflow, deep nesting, singleton and empty search spaces, a quantifier
//! whose body ignores its binder, a binder that shadows a declared
//! constant, and a `let` that shadows another `let`. For every response:
//!
//! * a `sat` model re-verifies with the plain [`Evaluator`] against the
//!   case's own script: no assertion is false or non-Bool under it, and
//!   nearly every model (every crafted one) makes every assertion true;
//! * an `unsat` survives an independent re-enumeration of the candidate
//!   domains by the plain evaluator: under every assignment some assertion
//!   is false, so none satisfies the script and none is refuted by an
//!   evaluation error alone.
//!
//! In debug builds the incremental evaluator also cross-checks every
//! assertion it evaluates during every search against the plain
//! evaluator, on the result and on the budget left, so this sweep is the
//! differential test of the incremental search as well.

use once4all::core::{Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::smtlib::eval::{candidates, model_of, Dim, Evaluator};
use once4all::smtlib::{EvalError, Model, Value};
use once4all::solvers::coverage::{universe, CoverageMap};
use once4all::solvers::{
    domain_config, solver_with_config, Analyzed, EngineConfig, Frontend, Outcome, SolverId,
    TRUNK_COMMIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

const CASES: usize = 2000;
const STREAM_SEED: u64 = 0x50a2d;
/// Enough for any assertion of a generated case: re-checks must decide,
/// not run out of steps.
const CHECK_BUDGET: u64 = 1_000_000;

fn budgets() -> [EngineConfig; 2] {
    [
        EngineConfig {
            bugs_enabled: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            max_assignments: 30,
            eval_budget: 4_000,
            bugs_enabled: false,
            ..EngineConfig::default()
        },
    ]
}

/// The generated stream, shared by the tests of this file.
fn generated() -> &'static [String] {
    static CASES_TEXT: OnceLock<Vec<String>> = OnceLock::new();
    CASES_TEXT.get_or_init(|| {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(STREAM_SEED);
        fuzzer.setup(&mut rng);
        (0..CASES)
            .map(|_| fuzzer.next_case(&mut rng).text)
            .collect()
    })
}

/// The sort-checked script, or `None` for a case no engine searches.
fn analyze(text: &str) -> Option<Analyzed> {
    let mut cov = CoverageMap::new();
    Frontend::new(SolverId::Cervo)
        .analyze(text, universe(SolverId::Cervo), &mut cov)
        .ok()
}

/// No assertion of the script is false under the model, and none is
/// anything but a Bool. Returns whether every assertion evaluates to
/// true: the engines search their own rewrites of the script (`=>` and
/// `not` pushed into short-circuiting `or`/`and`, `let`s inlined), so an
/// assertion the plain evaluator cannot decide — an incomplete quantifier
/// or an overflow under a non-short-circuiting operator — may still hold.
fn assert_model_verifies(text: &str, analyzed: &Analyzed, model: &Model) -> bool {
    let cfg = domain_config(analyzed);
    let ev = Evaluator::new(model, analyzed.defs(), &cfg, CHECK_BUDGET);
    let mut decided = true;
    for a in analyzed.script().assertions() {
        match ev.eval(a) {
            Ok(Value::Bool(true)) => {}
            Err(e) if e != EvalError::BudgetExhausted => decided = false,
            other => panic!("a sat model gives {a} = {other:?} under {model} on:\n{text}"),
        }
    }
    decided
}

/// Re-derives an `unsat` with the plain evaluator on the script itself:
/// under every assignment of the declared symbols over their candidate
/// domains, some assertion must evaluate to false. So no assignment
/// satisfies the script, and none is refuted by an error alone (an
/// incomplete quantifier or an overflow decides nothing). Over complete
/// domains this is the enumeration proof the engines' searches rest on;
/// an `unsat` that rests on a rewrite (OxiZ folding an assertion to
/// `false`) is checked on a prefix of each incomplete domain.
fn assert_unsat_survives(text: &str, analyzed: &Analyzed) {
    let cfg = domain_config(analyzed);
    let mut dims = Vec::new();
    let mut domains = Vec::new();
    let declared = analyzed
        .consts()
        .iter()
        .map(|(name, sort)| (Dim::Const(name.clone()), sort))
        .chain(
            analyzed
                .funs()
                .iter()
                .map(|(name, params, ret)| (Dim::Fun(name.clone(), params.clone()), ret)),
        );
    for (dim, sort) in declared {
        let c = candidates(sort, &cfg);
        let keep = if c.complete { c.values.len() } else { 4 };
        dims.push(dim);
        domains.push(c.values.into_iter().take(keep).collect::<Vec<_>>());
    }
    let space: usize = domains.iter().map(Vec::len).product();
    if space > 4096 {
        for d in &mut domains {
            d.truncate(2);
        }
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        let model = model_of(&dims, idx.iter().enumerate().map(|(k, &i)| &domains[k][i]));
        let ev = Evaluator::new(&model, analyzed.defs(), &cfg, CHECK_BUDGET);
        let results: Vec<_> = analyzed.script().assertions().map(|a| ev.eval(a)).collect();
        assert!(
            results.contains(&Ok(Value::Bool(false))),
            "unsat, but no assertion is false under {model}: {results:?} on:\n{text}"
        );
        let mut k = 0;
        loop {
            if k == dims.len() {
                return;
            }
            idx[k] += 1;
            if idx[k] < domains[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// What a sweep saw.
#[derive(Debug, Default)]
struct Tally {
    sat: usize,
    /// `sat` answers whose model makes every script assertion true.
    verified: usize,
    unsat: usize,
}

/// Runs both clean engines on every case at both budgets and checks every
/// `sat` and `unsat`.
fn sweep<'t>(cases: impl Iterator<Item = &'t str> + Clone) -> Tally {
    let mut tally = Tally::default();
    for engine in budgets() {
        let mut solvers: Vec<_> = SolverId::ALL
            .iter()
            .map(|&id| solver_with_config(id, TRUNK_COMMIT, engine.clone()))
            .collect();
        for text in cases.clone() {
            let analyzed = analyze(text);
            for solver in solvers.iter_mut() {
                let response = solver.check(text);
                match response.outcome {
                    Outcome::Sat => {
                        tally.sat += 1;
                        let analyzed = analyzed.as_ref().expect("sat on a rejected script");
                        let model = response.model.as_ref().expect("sat without a model");
                        tally.verified += usize::from(assert_model_verifies(text, analyzed, model));
                    }
                    Outcome::Unsat => {
                        tally.unsat += 1;
                        let analyzed = analyzed.as_ref().expect("unsat on a rejected script");
                        assert_unsat_survives(text, analyzed);
                    }
                    Outcome::Crash(_) => panic!("a clean engine crashed on:\n{text}"),
                    _ => {}
                }
            }
        }
    }
    tally
}

/// One quarter of the generated stream, so the quarters run in parallel.
fn sweep_quarter(q: usize) {
    let tally = sweep(generated().iter().skip(q).step_by(4).map(String::as_str));
    eprintln!("{tally:?}");
    // The stream must reach the search, both ways, and nearly every model
    // must verify outright.
    assert!(tally.sat > CASES / 8, "{tally:?}");
    assert!(tally.unsat > 0, "{tally:?}");
    assert!(tally.verified * 20 >= tally.sat * 19, "{tally:?}");
}

#[test]
fn generated_cases_quarter_0() {
    sweep_quarter(0);
}

#[test]
fn generated_cases_quarter_1() {
    sweep_quarter(1);
}

#[test]
fn generated_cases_quarter_2() {
    sweep_quarter(2);
}

#[test]
fn generated_cases_quarter_3() {
    sweep_quarter(3);
}

#[test]
fn crafted_edge_literals() {
    let deep = {
        let mut t = "p".to_string();
        for i in 0..120 {
            t = if i % 2 == 0 {
                format!("(and q {t})")
            } else {
                format!("(not (not {t}))")
            };
        }
        t
    };
    let cases = [
        // i128 overflow on the only satisfying branch.
        "(declare-const b Bool)\
         (assert (and b (> (* 170141183460469231731687303715884105727 2) 0)))(check-sat)"
            .to_string(),
        "(declare-const x Int)\
         (assert (or (= x 0) (> (* x 170141183460469231731687303715884105727) 1)))(check-sat)"
            .to_string(),
        "(declare-const p Bool)\
         (assert (or p (> (+ 170141183460469231731687303715884105727 1) 0)))\
         (assert (not p))(check-sat)"
            .to_string(),
        // Deep nesting, sat and unsat.
        format!("(declare-const p Bool)(declare-const q Bool)(assert {deep})(check-sat)"),
        format!(
            "(declare-const p Bool)(declare-const q Bool)(assert {deep})(assert (not p))(check-sat)"
        ),
        // A singleton search space and an empty one.
        "(declare-const u (Tuple))(assert (= u u))(check-sat)".to_string(),
        "(declare-const u (Tuple))(declare-const p Bool)(assert (and p (distinct u u)))(check-sat)"
            .to_string(),
        "(assert (> 2 1))(check-sat)".to_string(),
        "(assert (distinct 3 3))(check-sat)".to_string(),
        // Quantifiers whose bodies ignore their binders.
        "(declare-const p Bool)(assert (forall ((b Bool)) p))(assert (not p))(check-sat)"
            .to_string(),
        "(declare-const p Bool)(declare-const x Int)\
         (assert (exists ((b Bool) (c Bool)) (and p (> x 2))))(check-sat)"
            .to_string(),
        // Binders that shadow declared constants.
        "(declare-const x Bool)(assert x)\
         (assert (exists ((x Bool)) (and x (not x))))(check-sat)"
            .to_string(),
        "(declare-const x Bool)(assert (not x))\
         (assert (forall ((x Bool)) (or x (not x))))(check-sat)"
            .to_string(),
        // A `let` that shadows a `let`, and one that shadows a constant.
        "(declare-const a Bool)\
         (assert (let ((a (not a))) (let ((a (not a))) (and a (not a)))))(check-sat)"
            .to_string(),
        "(declare-const a Int)\
         (assert (let ((a (+ a 1))) (let ((a (* a 2))) (= a 4))))(check-sat)"
            .to_string(),
        // `define-fun` bodies, one of them under a shadowing binder.
        "(declare-const x Bool)(define-fun g () Bool (not x))\
         (assert (forall ((x Bool)) (or g x)))(assert g)(check-sat)"
            .to_string(),
    ];
    let tally = sweep(cases.iter().map(String::as_str));
    assert!(tally.sat > 0 && tally.unsat > 0, "{tally:?}");
    assert_eq!(tally.verified, tally.sat, "{tally:?}");
}

#[test]
fn overflow_on_the_satisfying_branch_is_unknown_on_both_engines() {
    let text = "(declare-const b Bool)\
                (assert (and b (> (* 170141183460469231731687303715884105727 2) 0)))(check-sat)";
    for engine in budgets() {
        for &id in SolverId::ALL.iter() {
            let mut solver = solver_with_config(id, TRUNK_COMMIT, engine.clone());
            assert_eq!(solver.check(text).outcome, Outcome::Unknown, "{id:?}");
        }
    }
    // The plain evaluator agrees that the true branch decides nothing.
    let analyzed = analyze(text).expect("sort-checks");
    let cfg = domain_config(&analyzed);
    let model = model_of(
        &[Dim::Const(analyzed.consts()[0].0.clone())],
        [&Value::Bool(true)],
    );
    let ev = Evaluator::new(&model, analyzed.defs(), &cfg, CHECK_BUDGET);
    let a = analyzed
        .script()
        .assertions()
        .next()
        .expect("one assertion");
    assert_eq!(ev.eval(a), Err(EvalError::Overflow));
}

//! Cervo — the cvc5 stand-in.
//!
//! A genuinely different engine from OxiZ: negation-normal-form conversion
//! and `let` inlining up front, then *model repair* (greedy hill climbing
//! over candidate assignments) with an exhaustive-enumeration fallback for
//! provably finite domains. Cervo implements all extended theories (Sets,
//! Bags, FiniteFields) that OxiZ rejects — mirroring cvc5's richer theory
//! surface, which is where Once4All finds most of its extended-theory bugs.
//!
//! Like OxiZ, Cervo never answers `sat` without a golden-evaluator-verified
//! model and never answers `unsat` without a complete exhaustive search, so
//! with seeded bugs disabled the two solvers cannot produce a sat/unsat
//! conflict (property-tested in the workspace integration suite).

use crate::bugs::apply_bug_effects;
use crate::coverage::{universe, CoverageMap, Universe};
use crate::features::fnv1a;
use crate::frontend::{Analyzed, Frontend, Parsed};
use crate::oxiz::{domain_config, search_space, verified, virtual_cost, EngineConfig};
use crate::response::{Outcome, SolveStats, SolverId, SolverResponse};
use crate::versions::{commit_of, CommitIdx, TRUNK_COMMIT};
use crate::SmtSolver;
use o4a_smtlib::eval::{Evaluator, IncrementalEval};
use o4a_smtlib::{EvalError, Model, Op, Quantifier, Symbol, Term, Value};

/// The Cervo solver.
#[derive(Debug)]
pub struct Cervo {
    commit: CommitIdx,
    config: EngineConfig,
    universe: &'static Universe,
    coverage: CoverageMap,
}

impl Cervo {
    /// Creates Cervo at a given commit.
    pub fn at_commit(commit: CommitIdx) -> Cervo {
        Cervo {
            commit,
            config: EngineConfig::default(),
            universe: universe(SolverId::Cervo),
            coverage: CoverageMap::new(),
        }
    }

    /// Creates Cervo at trunk.
    pub fn new() -> Cervo {
        Self::at_commit(TRUNK_COMMIT)
    }

    /// Creates Cervo at a release version.
    ///
    /// # Panics
    ///
    /// Panics when the version string is unknown; see
    /// [`crate::versions::releases`].
    pub fn at_release(version: &str) -> Cervo {
        Self::at_commit(commit_of(SolverId::Cervo, version).expect("known Cervo release"))
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Cervo {
        self.config = config;
        self
    }

    /// Cervo's preprocessing: inline `let` bindings, then push negations to
    /// the leaves (stopping at non-connective atoms and quantifiers, which
    /// flip quantifier kind).
    fn normalize(&mut self, term: &Term, features_hash: u64) -> Term {
        self.coverage.hit(self.universe, "core::let_inline", 0);
        // Inlining changes a term exactly when the term contains a `let`.
        let inlined;
        let term = if term.has_let() {
            self.coverage.hit(self.universe, "core::let_inline", 1);
            inlined = inline_lets(term, &mut Vec::new());
            &inlined
        } else {
            term
        };
        self.coverage.hit(self.universe, "core::nnf", 0);
        let nnf = to_nnf(term, false, &mut |negated_quant| {
            if negated_quant {
                self.coverage.hit(self.universe, "core::nnf", 1);
            }
        });
        // Per-operator rewrite/eval coverage, with content-dependent branch
        // selection (same scheme as OxiZ but over Cervo's own universe).
        nnf.visit(&mut |t| {
            if let Term::App(op, args) = t {
                // Pre-resolved per-family point row; `None` (Uf) makes
                // every hit a no-op, just as the name lookup would.
                if let Some(r) = self.universe.op_row(op) {
                    self.coverage.hit_idx(self.universe, r.rewrite, 0);
                    if args.len() > 2 {
                        self.coverage.hit_idx(self.universe, r.rewrite, 1);
                    }
                    self.coverage.hit_idx(self.universe, r.eval, 0);
                    // Deep arms are rare value shapes; see the OxiZ twin note.
                    let roll = (features_hash ^ r.name_fnv) % 53;
                    if roll < 2 {
                        self.coverage
                            .hit_idx(self.universe, r.eval, 1 + (roll % 2) as usize);
                    }
                }
            }
            if matches!(t, Term::Quant(_, _, _)) {
                self.coverage.hit(self.universe, "quant::binder_scope", 0);
            }
        });
        nnf
    }

    /// Greedy model repair followed by exhaustive fallback.
    fn solve(
        &mut self,
        analyzed: &Analyzed,
        assertions: &[Term],
    ) -> (Outcome, Option<Model>, SolveStats) {
        let mut stats = SolveStats::default();
        let cfg = domain_config(analyzed);

        self.coverage.hit(self.universe, "core::atom_abstract", 0);
        let atom_count: usize = assertions.iter().map(count_atoms).sum();
        if atom_count > 4 {
            self.coverage.hit(self.universe, "core::atom_abstract", 1);
        }
        if analyzed.features.has_quantifier {
            self.coverage.hit(self.universe, "quant::exists_witness", 0);
        }

        // Candidate domains, ordered by a Cervo-specific deterministic
        // shuffle so the two engines explore the space differently.
        let (dims, mut domains, complete) = search_space(analyzed, &cfg);
        for ((name, _), c) in analyzed.consts.iter().zip(&mut domains) {
            cervo_order(
                &mut c.values,
                analyzed.features.hash ^ fnv1a(name.as_str().as_bytes()),
            );
        }

        // Every evaluation charges each evaluated assertion's full size.
        let sizes: Vec<u64> = assertions.iter().map(|a| a.size() as u64).collect();
        let budget = self.config.eval_budget;
        let mut ev = IncrementalEval::compile(assertions, &dims, &analyzed.defs, &cfg);
        for (k, d) in domains.iter().enumerate() {
            ev.set(k, d.values[0].clone());
        }
        // One assignment, one shared budget; `idx` mirrors the slots.
        let mut idx = vec![0usize; dims.len()];
        let assess = |ev: &mut IncrementalEval, stats: &mut SolveStats| {
            let mut left = budget;
            tally(&sizes, stats, |i| ev.eval(i, &mut left))
        };
        let move_to = |ev: &mut IncrementalEval, idx: &mut [usize], d: usize, v: usize| {
            idx[d] = v;
            ev.set(d, domains[d].values[v].clone());
        };

        // Phase 1: hill-climbing repair from the default assignment.
        self.coverage.hit(self.universe, "core::repair_climb", 0);
        let mut saw_eval_trouble = false;
        let mut best = match assess(&mut ev, &mut stats) {
            Ok(n) => n,
            Err(_) => {
                saw_eval_trouble = true;
                0
            }
        };
        stats.assignments_tried += 1;
        let repair_budget = self.config.max_assignments / 2;
        let mut moves = 0usize;
        'climb: while best < assertions.len() && moves < repair_budget {
            let mut improved = false;
            for d in 0..dims.len() {
                let original = idx[d];
                for v in 0..domains[d].values.len() {
                    if v == original {
                        continue;
                    }
                    moves += 1;
                    if moves >= repair_budget {
                        break 'climb;
                    }
                    move_to(&mut ev, &mut idx, d, v);
                    stats.assignments_tried += 1;
                    match assess(&mut ev, &mut stats) {
                        Ok(n) if n > best => {
                            best = n;
                            improved = true;
                            self.coverage.hit(self.universe, "core::repair_climb", 1);
                            break;
                        }
                        Ok(_) => move_to(&mut ev, &mut idx, d, original),
                        Err(_) => {
                            saw_eval_trouble = true;
                            move_to(&mut ev, &mut idx, d, original);
                        }
                    }
                }
                if best == assertions.len() {
                    break;
                }
            }
            if !improved {
                self.coverage.hit(self.universe, "core::repair_climb", 2);
                break;
            }
        }
        if best == assertions.len() {
            let model = ev.model();
            // Final verification before answering sat, by the plain
            // evaluator.
            self.coverage.hit(self.universe, "core::model_build", 0);
            self.coverage.hit(self.universe, "core::model_check", 0);
            let plain = Evaluator::new(&model, &analyzed.defs, &cfg, budget);
            if tally(&sizes, &mut stats, |i| plain.eval(&assertions[i])) == Ok(assertions.len()) {
                return (Outcome::Sat, Some(model), stats);
            }
        }

        // Phase 2: exhaustive enumeration when the whole space is finite
        // and small; this is the only path that can answer unsat.
        let space: usize = domains
            .iter()
            .map(|c| c.values.len().max(1))
            .fold(1usize, |acc, n| acc.saturating_mul(n));
        if complete && space <= self.config.max_assignments * 4 {
            self.coverage
                .hit(self.universe, "core::enumerate_exhaustive", 0);
            for d in 0..dims.len() {
                if idx[d] != 0 {
                    move_to(&mut ev, &mut idx, d, 0);
                }
            }
            let mut any_trouble = false;
            loop {
                stats.assignments_tried += 1;
                match assess(&mut ev, &mut stats) {
                    Ok(n) if n == assertions.len() => {
                        let model = ev.model();
                        if verified(&model, analyzed, assertions, &cfg, budget) {
                            self.coverage.hit(self.universe, "core::model_build", 0);
                            return (Outcome::Sat, Some(model), stats);
                        }
                        any_trouble = true;
                    }
                    Ok(_) => {}
                    Err(_) => any_trouble = true,
                }
                if dims.is_empty() {
                    break;
                }
                let mut k = 0;
                loop {
                    if k == dims.len() {
                        if any_trouble {
                            return (Outcome::Unknown, None, stats);
                        }
                        self.coverage
                            .hit(self.universe, "core::enumerate_exhaustive", 1);
                        return (Outcome::Unsat, None, stats);
                    }
                    let next = idx[k] + 1;
                    if next < domains[k].values.len() {
                        move_to(&mut ev, &mut idx, k, next);
                        break;
                    }
                    if idx[k] != 0 {
                        move_to(&mut ev, &mut idx, k, 0);
                    }
                    k += 1;
                }
            }
            // No dims at all: the assertions are ground.
            return if any_trouble || saw_eval_trouble {
                (Outcome::Unknown, None, stats)
            } else {
                (Outcome::Unsat, None, stats)
            };
        }

        let _ = saw_eval_trouble;
        (Outcome::Unknown, None, stats)
    }
}

/// Cervo's verdict on one assignment: how many assertions hold, each
/// evaluated one charged its full size. `Incomplete` is trouble only when
/// the assignment is not a model anyway; a non-Bool value or any other
/// error is trouble outright.
fn tally(
    sizes: &[u64],
    stats: &mut SolveStats,
    mut eval: impl FnMut(usize) -> Result<Value, EvalError>,
) -> Result<usize, EvalError> {
    let mut satisfied = 0;
    let mut incomplete = false;
    for (i, size) in sizes.iter().enumerate() {
        stats.steps += size;
        match eval(i) {
            Ok(Value::Bool(true)) => satisfied += 1,
            Ok(Value::Bool(false)) => {}
            Ok(_) => return Err(EvalError::IllSorted("assertion not Bool".into())),
            Err(EvalError::Incomplete) => incomplete = true,
            Err(e) => return Err(e),
        }
    }
    if incomplete && satisfied < sizes.len() {
        return Err(EvalError::Incomplete);
    }
    Ok(satisfied)
}

impl Default for Cervo {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic Cervo-specific candidate ordering (distinct from OxiZ's
/// natural order), keyed by formula and symbol.
fn cervo_order(values: &mut [Value], key: u64) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    // Fisher–Yates with a splitmix-style stream from `key`.
    let mut state = key | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0xbf58_476d_1ce4_e5b9);
        let j = (state >> 17) as usize % (i + 1);
        values.swap(i, j);
    }
}

fn count_atoms(t: &Term) -> usize {
    let mut n = 0;
    t.visit(&mut |node| {
        if !node.is_logical_connective() && matches!(node, Term::App(_, _)) {
            n += 1;
        }
    });
    n
}

/// Capture-safe `let` inlining: bindings are substituted bottom-up; since
/// SMT-LIB `let` is parallel, bindings are resolved against the outer
/// scope.
fn inline_lets(term: &Term, scope: &mut Vec<(Symbol, Term)>) -> Term {
    match term {
        Term::Var(name) => scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_else(|| term.clone()),
        Term::Const(_) | Term::Placeholder(_) => term.clone(),
        Term::Let(binds, body) => {
            let resolved: Vec<(Symbol, Term)> = binds
                .iter()
                .map(|(n, t)| (n.clone(), inline_lets(t, scope)))
                .collect();
            let len = scope.len();
            scope.extend(resolved);
            let out = inline_lets(body, scope);
            scope.truncate(len);
            out
        }
        Term::App(op, args) => Term::App(
            op.clone(),
            args.iter().map(|a| inline_lets(a, scope)).collect(),
        ),
        Term::Quant(q, vars, body) => {
            // Bound variables shadow outer let bindings.
            let len = scope.len();
            let shadow: Vec<(Symbol, Term)> = vars
                .iter()
                .map(|(n, _)| (n.clone(), Term::Var(n.clone())))
                .collect();
            scope.extend(shadow);
            let out = Term::Quant(*q, vars.clone(), Box::new(inline_lets(body, scope)));
            scope.truncate(len);
            out
        }
    }
}

/// Negation normal form for the Boolean skeleton: `not` is pushed through
/// `and`/`or`/`not`/`=>` and quantifiers; other operators are atoms.
fn to_nnf(term: &Term, negate: bool, on_negated_quant: &mut impl FnMut(bool)) -> Term {
    match term {
        Term::App(Op::Not, args) if args.len() == 1 => to_nnf(&args[0], !negate, on_negated_quant),
        Term::App(Op::And, args) => {
            let children: Vec<Term> = args
                .iter()
                .map(|a| to_nnf(a, negate, on_negated_quant))
                .collect();
            Term::App(if negate { Op::Or } else { Op::And }, children)
        }
        Term::App(Op::Or, args) => {
            let children: Vec<Term> = args
                .iter()
                .map(|a| to_nnf(a, negate, on_negated_quant))
                .collect();
            Term::App(if negate { Op::And } else { Op::Or }, children)
        }
        Term::App(Op::Implies, args) if args.len() == 2 => {
            // a => b  ≡  ¬a ∨ b.
            let a = to_nnf(&args[0], !negate, on_negated_quant);
            let b = to_nnf(&args[1], negate, on_negated_quant);
            Term::App(if negate { Op::And } else { Op::Or }, vec![a, b])
        }
        Term::Quant(q, vars, body) => {
            on_negated_quant(negate);
            let q2 = match (q, negate) {
                (Quantifier::Forall, false) | (Quantifier::Exists, true) => Quantifier::Forall,
                _ => Quantifier::Exists,
            };
            Term::Quant(
                q2,
                vars.clone(),
                Box::new(to_nnf(body, negate, on_negated_quant)),
            )
        }
        other => {
            if negate {
                Term::App(Op::Not, vec![other.clone()])
            } else {
                other.clone()
            }
        }
    }
}

impl SmtSolver for Cervo {
    fn id(&self) -> SolverId {
        SolverId::Cervo
    }

    fn commit(&self) -> CommitIdx {
        self.commit
    }

    fn check(&mut self, text: &str) -> SolverResponse {
        self.check_parsed(text, &Parsed::new(text))
    }

    fn check_parsed(&mut self, _text: &str, parsed: &Parsed) -> SolverResponse {
        let frontend = Frontend::new(SolverId::Cervo);
        let analyzed = match frontend.analyze_parsed(parsed, self.universe, &mut self.coverage) {
            Ok(a) => a,
            Err(msg) => return SolverResponse::error(msg),
        };
        let fh = analyzed.features.hash;
        let timer = o4a_obs::metrics::start_timer();
        let assertions: Vec<Term> = analyzed
            .script
            .assertions()
            .map(|t| self.normalize(t, fh))
            .collect();
        o4a_obs::metrics::record_elapsed("solver.rewrite", timer);

        let timer = o4a_obs::metrics::start_timer();
        let (mut outcome, mut model, mut stats) = self.solve(analyzed, &assertions);
        o4a_obs::metrics::record_elapsed("solver.search", timer);
        stats.virtual_micros = virtual_cost(analyzed.input_bytes, &stats);
        if stats.virtual_micros > self.config.timeout_micros {
            outcome = Outcome::Timeout;
            model = None;
        }
        let response = SolverResponse {
            outcome,
            model,
            stats,
        };
        if !self.config.bugs_enabled {
            return response;
        }
        let (response, _bug) =
            apply_bug_effects(SolverId::Cervo, self.commit, &analyzed.features, response);
        response
    }

    fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    fn universe(&self) -> &Universe {
        self.universe
    }

    fn reset_coverage(&mut self) {
        self.coverage = CoverageMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::parse_term;

    fn no_bugs() -> EngineConfig {
        EngineConfig {
            bugs_enabled: false,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn nnf_pushes_negation() {
        let t = parse_term("(not (and p (not q)))").unwrap();
        let nnf = to_nnf(&t, false, &mut |_| {});
        assert_eq!(nnf.to_string(), "(or (not p) q)");
    }

    #[test]
    fn nnf_flips_quantifiers() {
        let t = parse_term("(not (forall ((x Int)) (> x 0)))").unwrap();
        let nnf = to_nnf(&t, false, &mut |_| {});
        assert!(nnf.to_string().starts_with("(exists ((x Int))"));
    }

    #[test]
    fn nnf_implication() {
        let t = parse_term("(=> p q)").unwrap();
        let nnf = to_nnf(&t, false, &mut |_| {});
        assert_eq!(nnf.to_string(), "(or (not p) q)");
    }

    #[test]
    fn let_inlining_parallel_semantics() {
        // (let ((a 1) (b a)) (+ a b)) with outer a=10 → 1 + 10.
        let t = parse_term("(let ((a 1) (b a)) (+ a b))").unwrap();
        let inlined = inline_lets(&t, &mut vec![]);
        assert_eq!(inlined.to_string(), "(+ 1 a)");
    }

    #[test]
    fn let_inlining_respects_quantifier_shadowing() {
        let t = parse_term("(let ((x 1)) (exists ((x Int)) (= x 0)))").unwrap();
        let inlined = inline_lets(&t, &mut vec![]);
        assert_eq!(inlined.to_string(), "(exists ((x Int)) (= x 0))");
    }

    #[test]
    fn overflow_is_unknown_not_unsat() {
        // Satisfiable with b = true, where the product overflows i128: an
        // evaluation error refutes nothing, so no complete search exists.
        let mut s = Cervo::new().with_config(no_bugs());
        let r = s.check(
            "(declare-const b Bool)\
             (assert (and b (> (* 170141183460469231731687303715884105727 2) 0)))(check-sat)",
        );
        assert_eq!(r.outcome, Outcome::Unknown);
    }

    #[test]
    fn sat_simple() {
        let mut s = Cervo::new().with_config(no_bugs());
        let r = s.check("(declare-const x Int)(assert (= (+ x 1) 3))(check-sat)");
        assert_eq!(r.outcome, Outcome::Sat);
        assert_eq!(
            r.model.unwrap().get_const(&Symbol::new("x")),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn unsat_over_complete_domain() {
        let mut s = Cervo::new().with_config(no_bugs());
        let r = s.check(
            "(declare-const p Bool)(declare-const q Bool)\
             (assert (and p q (not p)))(check-sat)",
        );
        assert_eq!(r.outcome, Outcome::Unsat);
    }

    #[test]
    fn extended_theories_solved() {
        let mut s = Cervo::new().with_config(no_bugs());
        let r = s.check(
            "(declare-const v (_ FiniteField 3))\
             (assert (= v (ff.mul v v)))(check-sat)",
        );
        assert_eq!(r.outcome, Outcome::Sat);
        let r2 = s.check(
            "(declare-const a (Set Bool))\
             (assert (= (set.card a) 2))(check-sat)",
        );
        assert_eq!(r2.outcome, Outcome::Sat);
        let r3 = s.check(
            "(declare-const a (Set Bool))\
             (assert (= (set.card a) 5))(check-sat)",
        );
        assert_eq!(r3.outcome, Outcome::Unsat, "no Bool set has 5 elements");
    }

    #[test]
    fn hill_climbing_finds_multi_var_model() {
        let mut s = Cervo::new().with_config(no_bugs());
        let r = s.check(
            "(declare-const x Int)(declare-const y Int)\
             (assert (= (+ x y) 5))(assert (> x y))(assert (> y 0))(check-sat)",
        );
        assert_eq!(r.outcome, Outcome::Sat);
    }

    #[test]
    fn figure1_bug_fires_on_cervo_trunk() {
        let mut fired = false;
        for n in 0..60 {
            let text = format!(
                "(declare-fun s () (Seq Int))\
                 (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) {n})))(check-sat)"
            );
            let mut solver = Cervo::new();
            if matches!(solver.check(&text).outcome, Outcome::Crash(_)) {
                fired = true;
                break;
            }
        }
        assert!(fired, "cv-06 never fired");
    }

    #[test]
    fn ff_bitsum_invalid_model_bug() {
        // cv-08: invalid model on ff.bitsum + ff.mul formulas; sweep until
        // the rarity gate passes and the outcome is sat.
        let mut saw_corrupted = false;
        for n in 0..120 {
            let text = format!(
                "(declare-const v (_ FiniteField 3))\
                 (assert (= v (ff.bitsum (ff.mul v v) (as ff{} (_ FiniteField 3)))))(check-sat)",
                n % 3
            );
            let mut buggy = Cervo::new();
            let r = buggy.check(&text);
            let mut clean = Cervo::new().with_config(no_bugs());
            let c = clean.check(&text);
            if r.outcome == Outcome::Sat && c.outcome == Outcome::Sat && r.model != c.model {
                saw_corrupted = true;
                break;
            }
        }
        assert!(saw_corrupted, "cv-08 never corrupted a model");
    }

    #[test]
    fn coverage_reaches_sets_module_only_via_set_formulas() {
        let mut s = Cervo::new().with_config(no_bugs());
        s.check("(declare-const x Int)(assert (> x 0))(check-sat)");
        let names: Vec<String> = s
            .coverage()
            .covered_function_names(s.universe())
            .iter()
            .map(|n| n.to_string())
            .collect();
        assert!(!names.iter().any(|n| n.starts_with("theory::sets")
            || n.contains("::sets::")
            || n.starts_with("rewrite::sets")));
        s.check(
            "(declare-const a (Set Int))\
             (assert (set.member 1 (set.union a (set.singleton 1))))(check-sat)",
        );
        let names: Vec<String> = s
            .coverage()
            .covered_function_names(s.universe())
            .iter()
            .map(|n| n.to_string())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("rewrite::sets")),
            "set formulas must reach the sets module"
        );
    }

    #[test]
    fn deterministic_given_same_input() {
        let text = "(declare-const x Int)(declare-const y Int)\
                    (assert (distinct x y))(check-sat)";
        let mut a = Cervo::new().with_config(no_bugs());
        let mut b = Cervo::new().with_config(no_bugs());
        assert_eq!(a.check(text), b.check(text));
    }
}

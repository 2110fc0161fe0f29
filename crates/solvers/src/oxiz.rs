//! OxiZ — the Z3 stand-in.
//!
//! Pipeline: frontend → simplification rewrites → candidate-domain
//! enumeration. `sat` answers are always model-verified against the golden
//! evaluator before being returned; `unsat` is answered only after
//! exhausting provably-complete domains. All other cases answer `unknown`.
//! Seeded defects from [`crate::bugs`] are applied at the end of `check`,
//! exactly like latent bugs corrupting an otherwise-correct engine.

use crate::bugs::apply_bug_effects;
use crate::coverage::{universe, CoverageMap, Universe};
use crate::frontend::{Analyzed, Frontend, Parsed};
use crate::response::{Outcome, SolveStats, SolverId, SolverResponse};
use crate::versions::{commit_of, CommitIdx, TRUNK_COMMIT};
use crate::SmtSolver;
use o4a_smtlib::eval::{candidates, Candidates, Dim, DomainConfig, Evaluator, IncrementalEval};
use o4a_smtlib::{EvalError, Model, Op, Sort, Term, Value};

/// Engine tuning knobs shared by both solvers.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum candidate assignments tried before answering `unknown`.
    pub max_assignments: usize,
    /// Evaluator step budget per candidate assignment: one budget is
    /// shared by every assertion evaluated under that assignment.
    pub eval_budget: u64,
    /// Per-query virtual time limit in microseconds (the paper's 10 s).
    pub timeout_micros: u64,
    /// When false, seeded bugs are disabled — used by the differential
    /// agreement property tests.
    pub bugs_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_assignments: 200,
            eval_budget: 20_000,
            timeout_micros: 10_000_000,
            bugs_enabled: true,
        }
    }
}

/// The OxiZ solver.
#[derive(Debug)]
pub struct OxiZ {
    commit: CommitIdx,
    config: EngineConfig,
    universe: &'static Universe,
    coverage: CoverageMap,
}

impl OxiZ {
    /// Creates OxiZ at a given commit.
    pub fn at_commit(commit: CommitIdx) -> OxiZ {
        OxiZ {
            commit,
            config: EngineConfig::default(),
            universe: universe(SolverId::OxiZ),
            coverage: CoverageMap::new(),
        }
    }

    /// Creates OxiZ at trunk.
    pub fn new() -> OxiZ {
        Self::at_commit(TRUNK_COMMIT)
    }

    /// Creates OxiZ at a release version.
    ///
    /// # Panics
    ///
    /// Panics when the version string is unknown; see
    /// [`crate::versions::releases`].
    pub fn at_release(version: &str) -> OxiZ {
        Self::at_commit(commit_of(SolverId::OxiZ, version).expect("known OxiZ release"))
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> OxiZ {
        self.config = config;
        self
    }

    /// OxiZ's simplification pass: constant folding, double-negation and
    /// `and`/`or` flattening, reflexive-equality elimination. Records
    /// per-rule coverage.
    fn simplify(&mut self, term: &Term, features_hash: u64) -> Term {
        self.coverage.hit(self.universe, "core::simplify_pass", 0);
        term.map_bottom_up(&mut |node| {
            match &node {
                Term::App(op, args) => {
                    // Pre-resolved per-family point row; `None` (Uf,
                    // unsupported theories) makes every hit a no-op, just
                    // as the name lookup would.
                    let row = self.universe.op_row(op);
                    if let Some(r) = row {
                        self.coverage.hit_idx(self.universe, r.rewrite, 0);
                    }
                    // Rule 1: constant folding.
                    if !matches!(op, Op::Uf(_))
                        && !args.is_empty()
                        && args.iter().all(|a| matches!(a, Term::Const(_)))
                    {
                        let vals: Vec<Value> = args
                            .iter()
                            .map(|a| match a {
                                Term::Const(v) => v.clone(),
                                _ => unreachable!("checked above"),
                            })
                            .collect();
                        if let Ok(v) = o4a_smtlib::eval::apply_op(op, &vals) {
                            if let Some(r) = row {
                                self.coverage.hit_idx(self.universe, r.rewrite, 2);
                            }
                            self.coverage.hit(self.universe, "core::const_fold", 0);
                            return Term::Const(v);
                        }
                    }
                    // Rule 2: structural simplifications.
                    match (op, args.as_slice()) {
                        (Op::Not, [Term::App(Op::Not, inner)]) if inner.len() == 1 => {
                            if let Some(r) = row {
                                self.coverage.hit_idx(self.universe, r.rewrite, 1);
                            }
                            return inner[0].clone();
                        }
                        (Op::Eq, [a, b]) if a == b => {
                            if let Some(r) = row {
                                self.coverage.hit_idx(self.universe, r.rewrite, 1);
                            }
                            return Term::tru();
                        }
                        (Op::And | Op::Or, _)
                            if args.iter().any(|a| matches!(a, Term::App(o, _) if o == op)) =>
                        {
                            // Flatten nested same-op children.
                            self.coverage.hit(self.universe, "core::flatten", 0);
                            if let Some(r) = row {
                                self.coverage.hit_idx(self.universe, r.rewrite, 1);
                            }
                            let mut flat = Vec::new();
                            for a in args {
                                match a {
                                    Term::App(o, inner) if o == op => {
                                        flat.extend(inner.iter().cloned())
                                    }
                                    other => flat.push(other.clone()),
                                }
                            }
                            return Term::App(op.clone(), flat);
                        }
                        _ => {}
                    }
                    // Evaluation-arm coverage: which branch fires depends on
                    // formula content, so input diversity grows line
                    // coverage like real basic blocks do.
                    if let Some(r) = row {
                        self.coverage.hit_idx(self.universe, r.eval, 0);
                        // Deep evaluation arms correspond to rare value
                        // shapes: only ~4% of formulas take each one, so line
                        // coverage keeps growing for hours like real gcov
                        // curves.
                        let roll = (features_hash ^ r.name_fnv) % 53;
                        if roll < 2 {
                            self.coverage
                                .hit_idx(self.universe, r.eval, 1 + (roll % 2) as usize);
                        }
                    }
                }
                Term::Quant(_, _, _) => {
                    self.coverage.hit(self.universe, "quant::binder_scope", 0);
                }
                _ => {}
            }
            node
        })
    }

    /// Core bounded-model search over candidate domains.
    fn search(
        &mut self,
        analyzed: &Analyzed,
        assertions: &[Term],
    ) -> (Outcome, Option<Model>, SolveStats) {
        let mut stats = SolveStats::default();
        let cfg = domain_config(analyzed);
        self.coverage.hit(self.universe, "core::domain_build", 0);

        let (dims, domains, complete) = search_space(analyzed, &cfg);
        if !analyzed.funs.is_empty() {
            self.coverage.hit(self.universe, "core::uf_assign", 0);
        }
        if !complete {
            self.coverage.hit(self.universe, "core::domain_build", 1);
        }
        let has_quant = analyzed.features.has_quantifier;
        if has_quant {
            self.coverage.hit(self.universe, "quant::forall_inst", 0);
            self.coverage.hit(self.universe, "core::quant_expand", 0);
        }

        // Every assignment charges each evaluated assertion's full size.
        let sizes: Vec<u64> = assertions.iter().map(|a| a.size() as u64).collect();
        let mut ev = IncrementalEval::compile(assertions, &dims, &analyzed.defs, &cfg);
        for (k, d) in domains.iter().enumerate() {
            ev.set(k, d.values[0].clone());
        }
        let mut idx = vec![0usize; dims.len()];
        let mut tried = 0usize;
        let mut capped = false;
        let mut saw_incomplete = false;
        let mut saw_budget = false;
        let mut saw_error = false;
        self.coverage.hit(self.universe, "core::enumerate", 0);
        'outer: loop {
            if tried >= self.config.max_assignments {
                capped = true;
                self.coverage.hit(self.universe, "core::enumerate", 1);
                break;
            }
            tried += 1;
            let mut budget = self.config.eval_budget;
            let mut all_true = true;
            for (i, size) in sizes.iter().enumerate() {
                stats.steps += size;
                match ev.eval(i, &mut budget) {
                    Ok(Value::Bool(true)) => {}
                    Ok(Value::Bool(false)) => {
                        all_true = false;
                        self.coverage.hit(self.universe, "core::prune", 0);
                        break;
                    }
                    Err(EvalError::Incomplete) => {
                        saw_incomplete = true;
                        if has_quant {
                            self.coverage.hit(self.universe, "core::quant_expand", 1);
                        }
                        all_true = false;
                        break;
                    }
                    Err(EvalError::BudgetExhausted) => {
                        saw_budget = true;
                        self.coverage.hit(self.universe, "core::prune", 1);
                        all_true = false;
                        break;
                    }
                    // A non-Bool value or any other error (say, an i128
                    // overflow) decides nothing about this assignment, so
                    // the search can no longer claim `unsat`.
                    Ok(_) | Err(_) => {
                        saw_error = true;
                        all_true = false;
                        break;
                    }
                }
            }
            stats.assignments_tried += 1;
            if all_true {
                let model = ev.model();
                if verified(&model, analyzed, assertions, &cfg, self.config.eval_budget) {
                    self.coverage.hit(self.universe, "core::model_build", 0);
                    self.coverage.hit(self.universe, "core::model_eval", 0);
                    return (Outcome::Sat, Some(model), stats);
                }
                saw_error = true;
            }
            // Odometer advance: one slot per digit that moves.
            let mut k = 0;
            loop {
                if k == dims.len() {
                    break 'outer;
                }
                let values = &domains[k].values;
                if idx[k] + 1 < values.len() {
                    idx[k] += 1;
                    ev.set(k, values[idx[k]].clone());
                    break;
                }
                if idx[k] != 0 {
                    idx[k] = 0;
                    ev.set(k, values[0].clone());
                }
                k += 1;
            }
        }

        let outcome = if complete && !capped && !saw_incomplete && !saw_budget && !saw_error {
            Outcome::Unsat
        } else {
            Outcome::Unknown
        };
        (outcome, None, stats)
    }
}

impl Default for OxiZ {
    fn default() -> Self {
        Self::new()
    }
}

/// The search space both engines enumerate: one dimension per declared
/// constant, then one per n-ary declared function (interpreted as a
/// constant function), each with its candidate domain — computed once per
/// distinct sort. The flag is true when every domain is complete and there
/// is no function, whose space no constant interpretation exhausts.
pub(crate) fn search_space(
    analyzed: &Analyzed,
    cfg: &DomainConfig,
) -> (Vec<Dim>, Vec<Candidates>, bool) {
    let consts = analyzed
        .consts
        .iter()
        .map(|(name, sort)| (Dim::Const(name.clone()), sort));
    let funs = analyzed
        .funs
        .iter()
        .map(|(name, params, ret)| (Dim::Fun(name.clone(), params.clone()), ret));
    let mut dims = Vec::new();
    let mut domains: Vec<Candidates> = Vec::new();
    let mut first_of: Vec<(&Sort, usize)> = Vec::new();
    for (dim, sort) in consts.chain(funs) {
        let domain = match first_of.iter().find(|(s, _)| *s == sort) {
            Some(&(_, k)) => domains[k].clone(),
            None => {
                first_of.push((sort, domains.len()));
                candidates(sort, cfg)
            }
        };
        dims.push(dim);
        domains.push(domain);
    }
    let complete = analyzed.funs.is_empty() && domains.iter().all(|d| d.complete);
    (dims, domains, complete)
}

/// The golden check every `sat` model passes before it is returned: the
/// plain evaluator finds each assertion true under it. The incremental
/// search is exact, so this never fails; if it did, the engine would
/// treat the assignment as undecided rather than answer `sat`.
pub(crate) fn verified(
    model: &Model,
    analyzed: &Analyzed,
    assertions: &[Term],
    cfg: &DomainConfig,
    budget: u64,
) -> bool {
    let ev = Evaluator::new(model, &analyzed.defs, cfg, budget);
    let ok = assertions
        .iter()
        .all(|a| ev.eval(a) == Ok(Value::Bool(true)));
    debug_assert!(ok, "the golden evaluator refutes a search model: {model}");
    ok
}

/// Builds the evaluator domain configuration from formula constants, so the
/// search explores values the formula actually talks about.
pub fn domain_config(analyzed: &Analyzed) -> DomainConfig {
    let mut cfg = DomainConfig::default();
    let mut extras = Vec::new();
    for t in analyzed.script.assertions() {
        t.visit(&mut |n| {
            if let Term::Const(Value::Int(i)) = n {
                // Checked: a literal at the edge of i128 has no neighbour
                // past it (wrapping would add the other edge).
                for v in [Some(*i), i.checked_sub(1), i.checked_add(1)]
                    .into_iter()
                    .flatten()
                {
                    if v.unsigned_abs() <= 1_000_000 {
                        extras.push(v);
                    }
                }
            }
        });
    }
    extras.sort_unstable();
    extras.dedup();
    extras.truncate(16);
    cfg.extra_ints = extras;
    cfg
}

/// Virtual cost model shared by both engines: parse cost by size, solve
/// cost by search effort.
pub(crate) fn virtual_cost(input_bytes: usize, stats: &SolveStats) -> u64 {
    500 + input_bytes as u64 * 3 + stats.assignments_tried * 40 + stats.steps / 8
}

impl SmtSolver for OxiZ {
    fn id(&self) -> SolverId {
        SolverId::OxiZ
    }

    fn commit(&self) -> CommitIdx {
        self.commit
    }

    fn check(&mut self, text: &str) -> SolverResponse {
        self.check_parsed(text, &Parsed::new(text))
    }

    fn check_parsed(&mut self, _text: &str, parsed: &Parsed) -> SolverResponse {
        let frontend = Frontend::new(SolverId::OxiZ);
        let analyzed = match frontend.analyze_parsed(parsed, self.universe, &mut self.coverage) {
            Ok(a) => a,
            Err(msg) => return SolverResponse::error(msg),
        };
        let fh = analyzed.features.hash;
        let timer = o4a_obs::metrics::start_timer();
        let assertions: Vec<Term> = analyzed
            .script
            .assertions()
            .map(|t| self.simplify(t, fh))
            .collect();
        o4a_obs::metrics::record_elapsed("solver.rewrite", timer);

        // Fast path: a literally-false assertion after simplification.
        let (mut outcome, mut model, mut stats) = if assertions.iter().any(|a| *a == Term::fls()) {
            self.coverage.hit(self.universe, "core::prune", 2);
            (Outcome::Unsat, None, SolveStats::default())
        } else {
            let timer = o4a_obs::metrics::start_timer();
            let searched = self.search(analyzed, &assertions);
            o4a_obs::metrics::record_elapsed("solver.search", timer);
            searched
        };

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
            apply_bug_effects(SolverId::OxiZ, self.commit, &analyzed.features, response);
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
    use o4a_smtlib::eval::no_defs;

    fn no_bugs() -> EngineConfig {
        EngineConfig {
            bugs_enabled: false,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn overflow_is_unknown_not_unsat() {
        // Satisfiable with b = true, where the product overflows i128: an
        // evaluation error refutes nothing, so no complete search exists.
        let mut s = OxiZ::new().with_config(no_bugs());
        let r = s.check(
            "(declare-const b Bool)\
             (assert (and b (> (* 170141183460469231731687303715884105727 2) 0)))(check-sat)",
        );
        assert_eq!(r.outcome, Outcome::Unknown);
    }

    #[test]
    fn sat_simple() {
        let mut s = OxiZ::new().with_config(no_bugs());
        let r = s.check("(declare-const x Int)(assert (= (* x x) 4))(check-sat)");
        assert_eq!(r.outcome, Outcome::Sat);
        let m = r.model.unwrap();
        let v = m.get_const(&o4a_smtlib::Symbol::new("x")).unwrap();
        assert!(matches!(v, Value::Int(2) | Value::Int(-2)));
    }

    #[test]
    fn unsat_over_complete_domain() {
        let mut s = OxiZ::new().with_config(no_bugs());
        let r = s.check("(declare-const p Bool)(assert (and p (not p)))(check-sat)");
        assert_eq!(r.outcome, Outcome::Unsat);
    }

    #[test]
    fn unknown_when_domain_incomplete() {
        let mut s = OxiZ::new().with_config(no_bugs());
        // Unsatisfiable over Int, but Int domains are never complete.
        let r = s.check("(declare-const x Int)(assert (distinct x x))(check-sat)");
        // distinct x x simplifies structurally? No: (= x x) → true only for Eq;
        // distinct stays. Evaluates false everywhere → but domain incomplete
        // → unknown, never a wrong unsat... except the evaluator decides
        // per-assignment; all assignments false → unknown.
        assert!(
            matches!(r.outcome, Outcome::Unknown | Outcome::Unsat),
            "got {:?}",
            r.outcome
        );
    }

    #[test]
    fn unsat_via_simplification() {
        let mut s = OxiZ::new().with_config(no_bugs());
        let r = s.check("(assert (= 1 2))(check-sat)");
        assert_eq!(r.outcome, Outcome::Unsat);
    }

    #[test]
    fn sat_models_are_always_valid() {
        // Whatever OxiZ answers sat on, the golden evaluator must agree —
        // by construction (search verifies before returning).
        let mut s = OxiZ::new().with_config(no_bugs());
        let text = "(declare-const a Bool)(declare-const x Int)\
                    (assert (or a (> x 1)))(assert (=> a (= x 0)))(check-sat)";
        let r = s.check(text);
        assert_eq!(r.outcome, Outcome::Sat);
        let model = r.model.unwrap();
        let script = o4a_smtlib::parse_script(text).unwrap();
        let cfg = DomainConfig::default();
        let ev = Evaluator::new(&model, no_defs(), &cfg, 100_000);
        for a in script.assertions() {
            assert_eq!(ev.eval(a), Ok(Value::Bool(true)));
        }
    }

    #[test]
    fn rejects_cvc5_extensions() {
        let mut s = OxiZ::new();
        let r = s.check("(declare-const v (_ FiniteField 3))(assert (= v v))(check-sat)");
        assert!(matches!(r.outcome, Outcome::ParseError(_)));
    }

    #[test]
    fn quantified_formula_decided_or_unknown() {
        let mut s = OxiZ::new().with_config(no_bugs());
        let r = s.check("(assert (exists ((b Bool)) b))(check-sat)");
        assert_eq!(r.outcome, Outcome::Sat);
        let r2 = s.check("(assert (forall ((b Bool)) b))(check-sat)");
        assert_eq!(r2.outcome, Outcome::Unsat);
    }

    #[test]
    fn figure1_formula_triggers_seeded_crash_at_trunk() {
        // Sweep hash variants until the rarity gate passes, as a fuzzing
        // campaign would; oz-07 must eventually fire on trunk.
        let mut fired = false;
        for n in 0..60 {
            let text = format!(
                "(declare-fun s () (Seq Int))\
                 (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) {n})))(check-sat)"
            );
            let mut solver = OxiZ::new();
            let r = solver.check(&text);
            if matches!(r.outcome, Outcome::Crash(_)) {
                fired = true;
                break;
            }
        }
        assert!(fired, "oz-07 never fired in 60 variants");
    }

    #[test]
    fn seeded_crash_absent_in_old_release() {
        // oz-07 was introduced at commit 45; release 4.10 (commit 30)
        // predates it, so the same formulas must not crash there.
        for n in 0..60 {
            let text = format!(
                "(declare-fun s () (Seq Int))\
                 (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) {n})))(check-sat)"
            );
            let mut old = OxiZ::at_release("4.10");
            let r = old.check(&text);
            assert!(
                !matches!(r.outcome, Outcome::Crash(_)),
                "crash at pre-introduction release for variant {n}"
            );
        }
    }

    #[test]
    fn coverage_accumulates_across_checks() {
        let mut s = OxiZ::new().with_config(no_bugs());
        s.check("(declare-const x Int)(assert (> x 0))(check-sat)");
        let after_one = s.coverage().functions_hit();
        s.check("(declare-const b (_ BitVec 8))(assert (bvult b #x0f))(check-sat)");
        let after_two = s.coverage().functions_hit();
        assert!(after_two > after_one, "bv ops must add new coverage");
    }

    #[test]
    fn timeout_on_huge_input() {
        let mut cfg = no_bugs();
        cfg.timeout_micros = 100;
        let mut s = OxiZ::new().with_config(cfg);
        let r = s.check("(declare-const x Int)(assert (> x 0))(check-sat)");
        assert_eq!(r.outcome, Outcome::Timeout);
    }

    #[test]
    fn parse_error_costs_nothing_to_search() {
        let mut s = OxiZ::new();
        let r = s.check("(assert (= 1 1)"); // unbalanced
        assert!(matches!(r.outcome, Outcome::ParseError(_)));
        assert_eq!(r.stats.assignments_tried, 0);
    }
}

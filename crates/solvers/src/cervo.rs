//! Cervo — the cvc5 stand-in.
//!
//! A genuinely different engine from OxiZ: negation-normal-form conversion
//! and `let` inlining up front, then *model repair* (greedy hill climbing
//! over candidate assignments) with an exhaustive-enumeration fallback for
//! provably finite domains. Cervo implements all extended theories (Sets,
//! Bags, FiniteFields) that OxiZ rejects — mirroring cvc5's richer theory
//! surface, which is where Once4All finds most of its extended-theory bugs.
//!
//! The rewrites and the search read the case's terms as [`TermId`]s on a
//! scratch arena the engine reloads for every check.
//!
//! Like OxiZ, Cervo never answers `sat` without a golden-evaluator-verified
//! model and never answers `unsat` without a complete exhaustive search, so
//! with seeded bugs disabled the two solvers cannot produce a sat/unsat
//! conflict (property-tested in the workspace integration suite).

use crate::bugs::apply_bug_effects;
use crate::coverage::{universe, CoverageMap, Universe};
use crate::features::fnv1a;
use crate::frontend::{Analyzed, Frontend, Parsed};
use crate::oxiz::{verified, virtual_cost, EngineConfig, OpHits, Scratch};
use crate::response::{Outcome, SolveStats, SolverId, SolverResponse};
use crate::versions::{commit_of, CommitIdx, TRUNK_COMMIT};
use crate::SmtSolver;
use o4a_smtlib::eval::{Evaluator, IncrementalEval};
use o4a_smtlib::{ANode, EvalError, Model, Op, Quantifier, SymbolId, TermArena, TermId, Value};

/// The Cervo solver.
#[derive(Debug)]
pub struct Cervo {
    commit: CommitIdx,
    config: EngineConfig,
    universe: &'static Universe,
    coverage: CoverageMap,
    scratch: Scratch,
}

impl Cervo {
    /// Creates Cervo at a given commit.
    pub fn at_commit(commit: CommitIdx) -> Cervo {
        Cervo {
            commit,
            config: EngineConfig::default(),
            universe: universe(SolverId::Cervo),
            coverage: CoverageMap::new(),
            scratch: Scratch::default(),
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

    /// Cervo's preprocessing of the assertion at `id` on the scratch
    /// arena: inline `let` bindings, then push negations to the leaves
    /// (stopping at non-connective atoms and quantifiers, which flip
    /// quantifier kind). Rewritten nodes share untouched subterms by id.
    /// Pushes the result onto the roots with its size, and returns its
    /// atom count and whether it has a quantifier.
    fn normalize(&mut self, scratch: &mut Scratch, id: TermId) -> (usize, bool) {
        let Scratch {
            arena,
            roots,
            sizes,
            op_hits,
            kids,
            scope,
            ..
        } = scratch;
        self.coverage.hit(self.universe, "core::let_inline", 0);
        // Inlining changes a term exactly when the term contains a `let`.
        let mut has_let = false;
        arena.visit(id, |n| has_let |= matches!(n, ANode::Let(..)));
        let id = if has_let {
            self.coverage.hit(self.universe, "core::let_inline", 1);
            inline_lets(arena, id, scope, kids)
        } else {
            id
        };
        self.coverage.hit(self.universe, "core::nnf", 0);
        let nnf = to_nnf(arena, id, false, kids, &mut |negated_quant| {
            if negated_quant {
                self.coverage.hit(self.universe, "core::nnf", 1);
            }
        });
        // One walk for the size, the atoms and the per-operator
        // rewrite/eval coverage (same scheme as OxiZ but over Cervo's own
        // universe).
        let (mut size, mut atoms, mut quantified) = (0, 0, false);
        arena.visit(nnf, |n| {
            size += 1;
            match n {
                ANode::App(op, _, len) => {
                    let wide = if len > 2 { OpHits::REWRITE_DEEP } else { 0 };
                    op_hits.mark(op, OpHits::REWRITE | OpHits::EVAL | wide);
                    atoms += usize::from(!arena.op(op).is_connective());
                }
                ANode::Quant(..) => quantified = true,
                _ => {}
            }
        });
        roots.push(nnf);
        sizes.push(size);
        (atoms, quantified)
    }

    /// Greedy model repair followed by exhaustive fallback, on the
    /// rewritten roots in `scratch`.
    fn solve(
        &mut self,
        analyzed: &Analyzed,
        scratch: &Scratch,
        atom_count: usize,
    ) -> (Outcome, Option<Model>, SolveStats) {
        let timer = o4a_obs::metrics::start_timer();
        let mut stats = SolveStats::default();
        let space = analyzed.space();
        let (arena, roots) = (&scratch.arena, &scratch.roots);

        self.coverage.hit(self.universe, "core::atom_abstract", 0);
        if atom_count > 4 {
            self.coverage.hit(self.universe, "core::atom_abstract", 1);
        }
        if analyzed.features().has_quantifier {
            self.coverage.hit(self.universe, "quant::exists_witness", 0);
        }

        // Candidate domains, ordered by a Cervo-specific deterministic
        // shuffle so the two engines explore the space differently.
        let dims = &space.dims;
        let mut domains: Vec<Vec<Value>> = (0..dims.len())
            .map(|k| space.domain(k).values.clone())
            .collect();
        for ((name, _), values) in analyzed.consts().iter().zip(&mut domains) {
            cervo_order(
                values,
                analyzed.features().hash ^ fnv1a(name.as_str().as_bytes()),
            );
        }

        let mut ev = space.compile(arena, roots, analyzed.defs());
        for (k, d) in domains.iter().enumerate() {
            ev.set(k, d[0].clone());
        }
        o4a_obs::metrics::record_elapsed("solver.compile", timer);
        let timer = o4a_obs::metrics::start_timer();
        // Every evaluation charges each evaluated assertion's full size.
        let sizes = &scratch.sizes;
        let out = self.search(analyzed, scratch, &mut ev, &domains, sizes, &mut stats);
        o4a_obs::metrics::record_elapsed("solver.search", timer);
        (out.0, out.1, stats)
    }

    /// The search proper: phase 1 from the first candidate of every
    /// domain, then phase 2 when it applies.
    fn search(
        &mut self,
        analyzed: &Analyzed,
        scratch: &Scratch,
        ev: &mut IncrementalEval,
        domains: &[Vec<Value>],
        sizes: &[u64],
        stats: &mut SolveStats,
    ) -> (Outcome, Option<Model>) {
        let space = analyzed.space();
        let dims = &space.dims;
        let assertions = sizes.len();
        let budget = self.config.eval_budget;
        // One assignment, one shared budget; `idx` mirrors the slots.
        let mut idx = vec![0usize; dims.len()];
        let assess = |ev: &mut IncrementalEval, stats: &mut SolveStats| {
            let mut left = budget;
            tally(sizes, stats, |i| ev.eval(i, &mut left))
        };
        let move_to = |ev: &mut IncrementalEval, idx: &mut [usize], d: usize, v: usize| {
            idx[d] = v;
            ev.set(d, domains[d][v].clone());
        };
        let mut boxed = None;

        // Phase 1: hill-climbing repair from the default assignment.
        self.coverage.hit(self.universe, "core::repair_climb", 0);
        let mut saw_eval_trouble = false;
        let mut best = match assess(ev, stats) {
            Ok(n) => n,
            Err(_) => {
                saw_eval_trouble = true;
                0
            }
        };
        stats.assignments_tried += 1;
        let repair_budget = self.config.max_assignments / 2;
        let mut moves = 0usize;
        'climb: while best < assertions && moves < repair_budget {
            let mut improved = false;
            for d in 0..dims.len() {
                let original = idx[d];
                for v in 0..domains[d].len() {
                    if v == original {
                        continue;
                    }
                    moves += 1;
                    if moves >= repair_budget {
                        break 'climb;
                    }
                    move_to(ev, &mut idx, d, v);
                    stats.assignments_tried += 1;
                    match assess(ev, stats) {
                        Ok(n) if n > best => {
                            best = n;
                            improved = true;
                            self.coverage.hit(self.universe, "core::repair_climb", 1);
                            break;
                        }
                        Ok(_) => move_to(ev, &mut idx, d, original),
                        Err(_) => {
                            saw_eval_trouble = true;
                            move_to(ev, &mut idx, d, original);
                        }
                    }
                }
                if best == assertions {
                    break;
                }
            }
            if !improved {
                self.coverage.hit(self.universe, "core::repair_climb", 2);
                break;
            }
        }
        if best == assertions {
            let model = ev.model();
            // Final verification before answering sat, by the plain
            // evaluator on the boxed rewrites.
            self.coverage.hit(self.universe, "core::model_build", 0);
            self.coverage.hit(self.universe, "core::model_check", 0);
            let plain = Evaluator::new(&model, analyzed.defs(), &space.cfg, budget);
            let roots: &[_] = boxed.get_or_insert_with(|| scratch.boxed_roots());
            if tally(sizes, stats, |i| plain.eval(&roots[i])) == Ok(assertions) {
                return (Outcome::Sat, Some(model));
            }
        }

        // Phase 2: exhaustive enumeration when the whole space is finite
        // and small; this is the only path that can answer unsat.
        let size: usize = domains
            .iter()
            .map(|c| c.len().max(1))
            .fold(1usize, |acc, n| acc.saturating_mul(n));
        if space.complete && size <= self.config.max_assignments * 4 {
            self.coverage
                .hit(self.universe, "core::enumerate_exhaustive", 0);
            for d in 0..dims.len() {
                if idx[d] != 0 {
                    move_to(ev, &mut idx, d, 0);
                }
            }
            let mut any_trouble = false;
            loop {
                stats.assignments_tried += 1;
                match assess(ev, stats) {
                    Ok(n) if n == assertions => {
                        let model = ev.model();
                        let roots = boxed.get_or_insert_with(|| scratch.boxed_roots());
                        if verified(&model, analyzed, roots, &space.cfg, budget) {
                            self.coverage.hit(self.universe, "core::model_build", 0);
                            return (Outcome::Sat, Some(model));
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
                            return (Outcome::Unknown, None);
                        }
                        self.coverage
                            .hit(self.universe, "core::enumerate_exhaustive", 1);
                        return (Outcome::Unsat, None);
                    }
                    let next = idx[k] + 1;
                    if next < domains[k].len() {
                        move_to(ev, &mut idx, k, next);
                        break;
                    }
                    if idx[k] != 0 {
                        move_to(ev, &mut idx, k, 0);
                    }
                    k += 1;
                }
            }
            // No dims at all: the assertions are ground.
            return if any_trouble || saw_eval_trouble {
                (Outcome::Unknown, None)
            } else {
                (Outcome::Unsat, None)
            };
        }

        let _ = saw_eval_trouble;
        (Outcome::Unknown, None)
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

/// Capture-safe `let` inlining of the term at `id`: bindings are
/// substituted bottom-up, sharing the bound term by id at every
/// occurrence; since SMT-LIB `let` is parallel, bindings are resolved
/// against the outer scope. `scope` holds the `let` bindings in scope,
/// with no value for a quantifier's bound variable; `kids` is scratch.
fn inline_lets(
    arena: &mut TermArena,
    id: TermId,
    scope: &mut Vec<(SymbolId, Option<TermId>)>,
    kids: &mut Vec<TermId>,
) -> TermId {
    match arena.node(id) {
        ANode::Var(name) => match scope.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, Some(value))) => value,
            _ => id,
        },
        ANode::Const(_) | ANode::Placeholder(_) => id,
        ANode::Let(start, len, body) => {
            // Resolve every binding against the outer scope first.
            let values = kids.len();
            for k in 0..len as usize {
                let value = arena.let_binds(start, len)[k].1;
                let value = inline_lets(arena, value, scope, kids);
                kids.push(value);
            }
            let mark = scope.len();
            for k in 0..len as usize {
                let name = arena.let_binds(start, len)[k].0;
                scope.push((name, Some(kids[values + k])));
            }
            kids.truncate(values);
            let out = inline_lets(arena, body, scope, kids);
            scope.truncate(mark);
            out
        }
        ANode::App(op, start, len) => {
            let mark = kids.len();
            for k in 0..len as usize {
                let child = arena.args(start, len)[k];
                let child = inline_lets(arena, child, scope, kids);
                kids.push(child);
            }
            let out = if *arena.args(start, len) == kids[mark..] {
                id
            } else {
                arena.mk_app(op, &kids[mark..])
            };
            kids.truncate(mark);
            out
        }
        ANode::Quant(q, start, len, body) => {
            // Bound variables shadow outer let bindings.
            let mark = scope.len();
            for k in 0..len as usize {
                scope.push((arena.quant_vars(start, len)[k].0, None));
            }
            let new_body = inline_lets(arena, body, scope, kids);
            scope.truncate(mark);
            if new_body == body {
                id
            } else {
                arena.requant(id, q, new_body)
            }
        }
    }
}

/// Negation normal form of the term at `id` for the Boolean skeleton:
/// `not` is pushed through `and`/`or`/`not`/`=>` and quantifiers; other
/// operators are atoms. `kids` is scratch.
fn to_nnf(
    arena: &mut TermArena,
    id: TermId,
    negate: bool,
    kids: &mut Vec<TermId>,
    on_negated_quant: &mut impl FnMut(bool),
) -> TermId {
    match arena.node(id) {
        ANode::App(op, start, len) => match arena.op(op) {
            Op::Not if len == 1 => {
                let a = arena.args(start, len)[0];
                to_nnf(arena, a, !negate, kids, on_negated_quant)
            }
            connective @ (Op::And | Op::Or) => {
                let is_and = *connective == Op::And;
                let mark = kids.len();
                for k in 0..len as usize {
                    let a = arena.args(start, len)[k];
                    let a = to_nnf(arena, a, negate, kids, on_negated_quant);
                    kids.push(a);
                }
                let out = if !negate && *arena.args(start, len) == kids[mark..] {
                    id
                } else {
                    let op = if negate {
                        arena.op_id(if is_and { &Op::Or } else { &Op::And })
                    } else {
                        op
                    };
                    arena.mk_app(op, &kids[mark..])
                };
                kids.truncate(mark);
                out
            }
            Op::Implies if len == 2 => {
                // a => b  ≡  ¬a ∨ b.
                let [a, b] = [0, 1].map(|k| arena.args(start, len)[k]);
                let a = to_nnf(arena, a, !negate, kids, on_negated_quant);
                let b = to_nnf(arena, b, negate, kids, on_negated_quant);
                let op = arena.op_id(if negate { &Op::And } else { &Op::Or });
                arena.mk_app(op, &[a, b])
            }
            _ => negated(arena, id, negate),
        },
        ANode::Quant(q, _, _, body) => {
            on_negated_quant(negate);
            let q2 = match (q, negate) {
                (Quantifier::Forall, false) | (Quantifier::Exists, true) => Quantifier::Forall,
                _ => Quantifier::Exists,
            };
            let new_body = to_nnf(arena, body, negate, kids, on_negated_quant);
            if q2 == q && new_body == body {
                id
            } else {
                arena.requant(id, q2, new_body)
            }
        }
        _ => negated(arena, id, negate),
    }
}

/// `(not id)` when `negate`, else `id`.
fn negated(arena: &mut TermArena, id: TermId, negate: bool) -> TermId {
    if negate {
        let not = arena.op_id(&Op::Not);
        arena.mk_app(not, &[id])
    } else {
        id
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
        let timer = o4a_obs::metrics::start_timer();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.load(analyzed);
        let (mut atoms, mut quantified) = (0, false);
        for t in analyzed.assertions() {
            let (a, q) = self.normalize(&mut scratch, t);
            atoms += a;
            quantified |= q;
        }
        if quantified {
            self.coverage.hit(self.universe, "quant::binder_scope", 0);
        }
        let hash = analyzed.features().hash;
        let (arena, universe) = (&scratch.arena, self.universe);
        scratch
            .op_hits
            .record(arena, universe, &mut self.coverage, hash);
        o4a_obs::metrics::record_elapsed("solver.rewrite", timer);

        let (mut outcome, mut model, mut stats) = self.solve(analyzed, &scratch, atoms);
        self.scratch = scratch;
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
            apply_bug_effects(SolverId::Cervo, self.commit, analyzed.features(), response);
        response
    }

    fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    fn universe(&self) -> &Universe {
        self.universe
    }

    fn reset_coverage(&mut self) {
        self.coverage.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::{parse_term_arena, Symbol};

    /// The NNF of `text`, printed.
    fn nnf(text: &str) -> String {
        let mut arena = TermArena::new();
        let t = parse_term_arena(text, &mut arena).unwrap();
        let nnf = to_nnf(&mut arena, t, false, &mut Vec::new(), &mut |_| {});
        let mut out = String::new();
        arena.print_term_into(nnf, &mut out);
        out
    }

    /// `text` with its `let`s inlined, printed.
    fn inlined(text: &str) -> String {
        let mut arena = TermArena::new();
        let t = parse_term_arena(text, &mut arena).unwrap();
        let inlined = inline_lets(&mut arena, t, &mut Vec::new(), &mut Vec::new());
        let mut out = String::new();
        arena.print_term_into(inlined, &mut out);
        out
    }

    fn no_bugs() -> EngineConfig {
        EngineConfig {
            bugs_enabled: false,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn nnf_pushes_negation() {
        assert_eq!(nnf("(not (and p (not q)))"), "(or (not p) q)");
    }

    #[test]
    fn nnf_flips_quantifiers() {
        assert!(nnf("(not (forall ((x Int)) (> x 0)))").starts_with("(exists ((x Int))"));
    }

    #[test]
    fn nnf_implication() {
        assert_eq!(nnf("(=> p q)"), "(or (not p) q)");
    }

    #[test]
    fn let_inlining_parallel_semantics() {
        // (let ((a 1) (b a)) (+ a b)) with outer a=10 → 1 + 10.
        assert_eq!(inlined("(let ((a 1) (b a)) (+ a b))"), "(+ 1 a)");
    }

    #[test]
    fn let_inlining_respects_quantifier_shadowing() {
        assert_eq!(
            inlined("(let ((x 1)) (exists ((x Int)) (= x 0)))"),
            "(exists ((x Int)) (= x 0))"
        );
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

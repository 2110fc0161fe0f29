//! OxiZ — the Z3 stand-in.
//!
//! Pipeline: frontend → simplification rewrites → candidate-domain
//! enumeration. The rewrites and the search read the case's terms as
//! [`TermId`]s on a scratch arena the engine reloads for every check. `sat` answers are always model-verified against the golden
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
use o4a_smtlib::eval::{Candidates, Dim, DomainConfig, Domains, Evaluator, IncrementalEval};
use o4a_smtlib::{ANode, EvalError, Model, Op, OpId, SymbolId, Term, TermArena, TermId, Value};

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
    scratch: Scratch,
}

/// An engine's scratch space, reused by every check: the arena each case's
/// terms are loaded into and rewritten on, the rewritten roots with their
/// sizes, the operator hits of the rewrites, and the rewrites' stacks.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) arena: TermArena,
    pub(crate) roots: Vec<TermId>,
    /// Each rewritten root's size: what evaluating it charges.
    pub(crate) sizes: Vec<u64>,
    pub(crate) op_hits: OpHits,
    pub(crate) kids: Vec<TermId>,
    pub(crate) binds: Vec<(SymbolId, TermId)>,
    pub(crate) scope: Vec<(SymbolId, Option<TermId>)>,
    pub(crate) values: Vec<Value>,
}

impl Scratch {
    /// Loads the case's terms into the arena and clears the per-case
    /// tables.
    pub(crate) fn load(&mut self, analyzed: &Analyzed) {
        self.arena.load(analyzed.arena());
        self.roots.clear();
        self.sizes.clear();
        self.op_hits.0.clear();
    }

    /// The rewritten roots, boxed for the golden evaluator.
    pub(crate) fn boxed_roots(&self) -> Vec<Term> {
        self.roots
            .iter()
            .map(|&r| self.arena.extract_term(r))
            .collect()
    }
}

impl OxiZ {
    /// Creates OxiZ at a given commit.
    pub fn at_commit(commit: CommitIdx) -> OxiZ {
        OxiZ {
            commit,
            config: EngineConfig::default(),
            universe: universe(SolverId::OxiZ),
            coverage: CoverageMap::new(),
            scratch: Scratch::default(),
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

    /// Core bounded-model search over candidate domains, on the rewritten
    /// roots in `scratch`.
    fn search(
        &mut self,
        analyzed: &Analyzed,
        scratch: &Scratch,
    ) -> (Outcome, Option<Model>, SolveStats) {
        let timer = o4a_obs::metrics::start_timer();
        let mut stats = SolveStats::default();
        let space = analyzed.space();
        self.coverage.hit(self.universe, "core::domain_build", 0);
        if !analyzed.funs().is_empty() {
            self.coverage.hit(self.universe, "core::uf_assign", 0);
        }
        if !space.complete {
            self.coverage.hit(self.universe, "core::domain_build", 1);
        }
        let has_quant = analyzed.features().has_quantifier;
        if has_quant {
            self.coverage.hit(self.universe, "quant::forall_inst", 0);
            self.coverage.hit(self.universe, "core::quant_expand", 0);
        }

        // Every assignment charges each evaluated assertion's full size.
        let arena = &scratch.arena;
        let sizes = &scratch.sizes;
        let mut ev = space.compile(arena, &scratch.roots, analyzed.defs());
        let dims = &space.dims;
        for k in 0..dims.len() {
            ev.set(k, space.domain(k).values[0].clone());
        }
        o4a_obs::metrics::record_elapsed("solver.compile", timer);

        let timer = o4a_obs::metrics::start_timer();
        let mut idx = vec![0usize; dims.len()];
        let mut tried = 0usize;
        let mut capped = false;
        let mut saw_incomplete = false;
        let mut saw_budget = false;
        let mut saw_error = false;
        let mut boxed = None;
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
                let roots = boxed.get_or_insert_with(|| scratch.boxed_roots());
                if verified(&model, analyzed, roots, &space.cfg, self.config.eval_budget) {
                    self.coverage.hit(self.universe, "core::model_build", 0);
                    self.coverage.hit(self.universe, "core::model_eval", 0);
                    o4a_obs::metrics::record_elapsed("solver.search", timer);
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
                let values = &space.domain(k).values;
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
        o4a_obs::metrics::record_elapsed("solver.search", timer);

        let outcome = if space.complete && !capped && !saw_incomplete && !saw_budget && !saw_error {
            Outcome::Unsat
        } else {
            Outcome::Unknown
        };
        (outcome, None, stats)
    }
}

/// OxiZ's simplification pass: constant folding, double-negation and
/// `and`/`or` flattening, reflexive-equality elimination, bottom-up.
/// Rewritten nodes go onto the scratch arena and share untouched subterms
/// by id. Collects per-rule coverage: operator hits in `op_hits`, the
/// rest as flags.
struct Simplify<'s> {
    arena: &'s mut TermArena,
    kids: &'s mut Vec<TermId>,
    binds: &'s mut Vec<(SymbolId, TermId)>,
    values: &'s mut Vec<Value>,
    op_hits: &'s mut OpHits,
    folded: bool,
    flattened: bool,
    quantified: bool,
}

impl Simplify<'_> {
    /// The rewrite of the term at `id`: its children's rewrites, then the
    /// node's own rule.
    fn term(&mut self, id: TermId) -> TermId {
        match self.arena.node(id) {
            ANode::App(op, start, len) => {
                let mark = self.kids.len();
                for k in 0..len as usize {
                    let child = self.arena.args(start, len)[k];
                    let child = self.term(child);
                    self.kids.push(child);
                }
                let out = self.app(id, op, mark);
                self.kids.truncate(mark);
                out
            }
            ANode::Let(start, len, body) => {
                let mark = self.binds.len();
                for k in 0..len as usize {
                    let (name, value) = self.arena.let_binds(start, len)[k];
                    let value = self.term(value);
                    self.binds.push((name, value));
                }
                let new_body = self.term(body);
                let out = if new_body == body
                    && self.binds[mark..] == *self.arena.let_binds(start, len)
                {
                    id
                } else {
                    self.arena.mk_let(&self.binds[mark..], new_body)
                };
                self.binds.truncate(mark);
                out
            }
            ANode::Quant(q, _, _, body) => {
                let new_body = self.term(body);
                self.quantified = true;
                if new_body == body {
                    id
                } else {
                    self.arena.requant(id, q, new_body)
                }
            }
            ANode::Const(_) | ANode::Var(_) | ANode::Placeholder(_) => id,
        }
    }

    /// The rule for application `id` of `op_id`, whose rewritten children
    /// are `kids[mark..]`.
    fn app(&mut self, id: TermId, op_id: OpId, mark: usize) -> TermId {
        let arena: &TermArena = self.arena;
        let op = arena.op(op_id);
        self.op_hits.mark(op_id, OpHits::REWRITE);
        let args = &self.kids[mark..];
        // Rule 1: constant folding.
        if !matches!(op, Op::Uf(_))
            && !args.is_empty()
            && args
                .iter()
                .all(|&a| matches!(arena.node(a), ANode::Const(_)))
        {
            self.values.clear();
            self.values
                .extend(args.iter().map(|&a| match arena.node(a) {
                    ANode::Const(v) => arena.value(v).clone(),
                    _ => unreachable!("checked above"),
                }));
            if let Ok(v) = o4a_smtlib::eval::apply_op(op, self.values) {
                self.op_hits.mark(op_id, OpHits::FOLDED);
                self.folded = true;
                return self.arena.mk_const(v);
            }
        }
        // Rule 2: structural simplifications.
        match (op, args) {
            (Op::Not, &[a]) => {
                if let ANode::App(inner, start, 1) = arena.node(a) {
                    if *arena.op(inner) == Op::Not {
                        self.op_hits.mark(op_id, OpHits::REWRITE_DEEP);
                        return arena.args(start, 1)[0];
                    }
                }
            }
            (Op::Eq, &[a, b]) if arena.same_term(a, b) => {
                self.op_hits.mark(op_id, OpHits::REWRITE_DEEP);
                return self.arena.mk_const(Value::Bool(true));
            }
            (Op::And | Op::Or, _) if args.iter().any(|&a| is_app_of(arena, a, op)) => {
                self.op_hits.mark(op_id, OpHits::REWRITE_DEEP);
                self.flattened = true;
                return self.flatten(op_id, mark);
            }
            _ => {}
        }
        // Evaluation-arm coverage: which branch fires depends on formula
        // content, so input diversity grows line coverage like real basic
        // blocks do.
        self.op_hits.mark(op_id, OpHits::EVAL);
        let ANode::App(_, start, len) = arena.node(id) else {
            unreachable!("an application node")
        };
        if *arena.args(start, len) == self.kids[mark..] {
            id
        } else {
            self.arena.mk_app(op_id, &self.kids[mark..])
        }
    }

    /// `op_id` over `kids[mark..]`, each child that applies the same
    /// operator replaced by its children.
    fn flatten(&mut self, op_id: OpId, mark: usize) -> TermId {
        let end = self.kids.len();
        for k in mark..end {
            let a = self.kids[k];
            match self.arena.node(a) {
                ANode::App(o, start, len) if self.arena.op(o) == self.arena.op(op_id) => {
                    for j in 0..len as usize {
                        let inner = self.arena.args(start, len)[j];
                        self.kids.push(inner);
                    }
                }
                _ => self.kids.push(a),
            }
        }
        let out = self.arena.mk_app(op_id, &self.kids[end..]);
        self.kids.truncate(end);
        out
    }
}

/// Whether the term at `id` applies `op`.
fn is_app_of(arena: &TermArena, id: TermId, op: &Op) -> bool {
    matches!(arena.node(id), ANode::App(o, _, _) if arena.op(o) == op)
}

/// Whether the term at `id` is the literal `false`.
fn is_false(arena: &TermArena, id: TermId) -> bool {
    matches!(arena.node(id), ANode::Const(v) if *arena.value(v) == Value::Bool(false))
}

/// The per-operator coverage a rewrite earns, collected as bits per
/// [`OpId`] and recorded once per operator by [`OpHits::record`]. Hits are
/// idempotent, so the map ends up as if every node had recorded its own.
#[derive(Debug, Default)]
pub(crate) struct OpHits(Vec<u8>);

impl OpHits {
    /// Branch 0 of the operator's rewrite point.
    pub(crate) const REWRITE: u8 = 1;
    /// Branch 1 of the rewrite point: a structural rule, or a wide node.
    pub(crate) const REWRITE_DEEP: u8 = 2;
    /// Branch 2 of the rewrite point: constant folding.
    pub(crate) const FOLDED: u8 = 4;
    /// The evaluation arms.
    pub(crate) const EVAL: u8 = 8;

    pub(crate) fn mark(&mut self, op: OpId, bits: u8) {
        let k = op.index();
        if k >= self.0.len() {
            self.0.resize(k + 1, 0);
        }
        self.0[k] |= bits;
    }

    /// Records the collected hits of `arena`'s operators. Which deep
    /// evaluation arm an operator takes is a roll of `features_hash`
    /// against the operator's name: deep arms correspond to rare value
    /// shapes, so only ~4% of formulas take each one and line coverage
    /// keeps growing for hours like real gcov curves.
    pub(crate) fn record(
        &self,
        arena: &TermArena,
        universe: &Universe,
        coverage: &mut CoverageMap,
        features_hash: u64,
    ) {
        for (op, &bits) in arena.ops().iter().zip(&self.0) {
            // Pre-resolved per-family point row; `None` (Uf, unsupported
            // theories) makes every hit a no-op, just as the name lookup
            // would.
            let Some(r) = universe.op_row(op) else {
                continue;
            };
            for (bit, point, branch) in [
                (Self::REWRITE, r.rewrite, 0),
                (Self::REWRITE_DEEP, r.rewrite, 1),
                (Self::FOLDED, r.rewrite, 2),
                (Self::EVAL, r.eval, 0),
            ] {
                if bits & bit != 0 {
                    coverage.hit_idx(universe, point, branch);
                }
            }
            let roll = (features_hash ^ r.name_fnv) % 53;
            if bits & Self::EVAL != 0 && roll < 2 {
                coverage.hit_idx(universe, r.eval, 1 + (roll % 2) as usize);
            }
        }
    }
}

impl Default for OxiZ {
    fn default() -> Self {
        Self::new()
    }
}

/// The search space both engines enumerate, computed once per case
/// ([`Analyzed`] caches it): one dimension per declared constant, then one
/// per n-ary declared function (interpreted as a constant function), the
/// domain configuration, and one candidate domain per distinct sort —
/// declared or quantified, so the compiled quantifiers share the table.
#[derive(Clone, Debug)]
pub(crate) struct SearchSpace {
    pub(crate) cfg: DomainConfig,
    pub(crate) dims: Vec<Dim>,
    /// Per dimension, the index of its domain in `domains`.
    dim_domains: Vec<usize>,
    domains: Domains,
    /// True when every dimension's domain is complete and there is no
    /// function, whose space no constant interpretation exhausts.
    pub(crate) complete: bool,
}

impl SearchSpace {
    pub(crate) fn new(analyzed: &Analyzed) -> SearchSpace {
        let cfg = domain_config(analyzed);
        let consts = analyzed
            .consts()
            .iter()
            .map(|(name, sort)| (Dim::Const(name.clone()), sort));
        let funs = analyzed
            .funs()
            .iter()
            .map(|(name, params, ret)| (Dim::Fun(name.clone(), params.clone()), ret));
        let (dims, sorts): (Vec<Dim>, Vec<_>) = consts.chain(funs).unzip();
        // The case's arena interns exactly the sorts its quantifiers bind.
        let domains = Domains::new(sorts.iter().copied().chain(analyzed.arena().sorts()), &cfg);
        let dim_domains: Vec<usize> = sorts
            .iter()
            .map(|s| domains.index(s).expect("every declared sort has a domain"))
            .collect();
        let complete =
            analyzed.funs().is_empty() && dim_domains.iter().all(|&d| domains.get(d).complete);
        SearchSpace {
            cfg,
            dims,
            dim_domains,
            domains,
            complete,
        }
    }

    /// The candidate domain of dimension `dim`.
    pub(crate) fn domain(&self, dim: usize) -> &Candidates {
        self.domains.get(self.dim_domains[dim])
    }

    /// Compiles `roots` on `arena` over this space.
    pub(crate) fn compile<'a>(
        &'a self,
        arena: &'a TermArena,
        roots: &[TermId],
        defs: &'a o4a_smtlib::eval::FunDefs,
    ) -> IncrementalEval<'a> {
        IncrementalEval::compile(arena, roots, &self.dims, defs, &self.cfg, &self.domains)
    }
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
    let ev = Evaluator::new(model, analyzed.defs(), cfg, budget);
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
    let arena = analyzed.arena();
    for t in analyzed.assertions() {
        arena.visit(t, |n| {
            let ANode::Const(v) = n else { return };
            if let Value::Int(i) = *arena.value(v) {
                // Checked: a literal at the edge of i128 has no neighbour
                // past it (wrapping would add the other edge).
                for v in [Some(i), i.checked_sub(1), i.checked_add(1)]
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
        let timer = o4a_obs::metrics::start_timer();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.load(analyzed);
        let Scratch {
            arena,
            roots,
            op_hits,
            kids,
            binds,
            values,
            ..
        } = &mut scratch;
        let mut simplify = Simplify {
            arena,
            kids,
            binds,
            values,
            op_hits,
            folded: false,
            flattened: false,
            quantified: false,
        };
        roots.extend(analyzed.assertions().map(|t| simplify.term(t)));
        let universe = self.universe;
        for (name, hit) in [
            ("core::simplify_pass", !roots.is_empty()),
            ("core::const_fold", simplify.folded),
            ("core::flatten", simplify.flattened),
            ("quant::binder_scope", simplify.quantified),
        ] {
            if hit {
                self.coverage.hit(universe, name, 0);
            }
        }
        op_hits.record(
            arena,
            universe,
            &mut self.coverage,
            analyzed.features().hash,
        );
        o4a_obs::metrics::record_elapsed("solver.rewrite", timer);

        // Fast path: a literally-false assertion after simplification.
        let (mut outcome, mut model, mut stats) =
            if scratch.roots.iter().any(|&a| is_false(&scratch.arena, a)) {
                self.coverage.hit(self.universe, "core::prune", 2);
                (Outcome::Unsat, None, SolveStats::default())
            } else {
                let arena = &scratch.arena;
                let sizes = scratch.roots.iter().map(|&a| arena.term_size(a) as u64);
                scratch.sizes.extend(sizes);
                self.search(analyzed, &scratch)
            };
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
            apply_bug_effects(SolverId::OxiZ, self.commit, analyzed.features(), response);
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

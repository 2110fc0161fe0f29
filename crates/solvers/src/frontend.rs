//! The solver frontend shared machinery: parsing, theory gating, sort
//! checking, and frontend coverage attribution.
//!
//! Both solvers consume SMT-LIB text through [`Frontend::analyze`]; what
//! differs is which theories they accept (OxiZ rejects the cvc5-only
//! extensions, like real Z3 rejects `ff.add`) and the engine that runs
//! afterwards. The solver-independent half — parse, sort check,
//! declarations, features — is a [`Parsed`], which a campaign builds once
//! per case and hands to every solver through [`Frontend::analyze_parsed`].

use crate::coverage::{supported_theories, CoverageMap, Universe};
use crate::features::FormulaFeatures;
use crate::SolverId;
use o4a_smtlib::{
    parse_script, parse_script_arena, typeck, ANode, ArenaCommand, ArenaScript, Command, Script,
    Sort, Symbol, Term, TermArena, TermId, Theory,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    /// Scratch arena for [`Frontend::validate`]: reset per call, so the
    /// mutation→validate inner loop reuses one node table and warm
    /// symbol/sort/op interners instead of boxing a fresh AST per script.
    static VALIDATE_ARENA: RefCell<TermArena> = RefCell::new(TermArena::new());
}

/// The result of frontend analysis: everything an engine needs to solve.
#[derive(Clone, Debug)]
pub struct Analyzed {
    /// The parsed script.
    pub script: Script,
    /// Declared 0-ary symbols and their sorts.
    pub consts: Vec<(Symbol, Sort)>,
    /// Declared n-ary (n ≥ 1) uninterpreted functions.
    pub funs: Vec<(Symbol, Vec<Sort>, Sort)>,
    /// Defined functions (`define-fun`), for evaluator expansion.
    pub defs: BTreeMap<Symbol, (Vec<(Symbol, Sort)>, Term)>,
    /// Structural features (trigger matching, coverage, statistics).
    pub features: FormulaFeatures,
    /// Input length in bytes (virtual cost model input).
    pub input_bytes: usize,
}

/// The solver-independent frontend work on one case, done once and shared
/// by every in-process solver and the oracle: parse, sort check, the
/// declaration tables and the [`FormulaFeatures`].
///
/// Only the per-solver steps — coverage attribution and the theory gate —
/// are left to [`Frontend::analyze_parsed`].
#[derive(Clone, Debug)]
pub struct Parsed {
    stage: Stage,
}

#[derive(Clone, Debug)]
enum Stage {
    /// The parser's message.
    ParseError(String),
    /// The script parsed but failed the sort check (with its message).
    TypeError(Script, String),
    /// The script parsed and sort-checked.
    Checked(Analyzed),
}

impl Parsed {
    /// Parses and sort-checks `text`, collecting declarations and features
    /// when both succeed.
    pub fn new(text: &str) -> Parsed {
        let script = match parse_script(text) {
            Ok(s) => s,
            Err(e) => {
                return Parsed {
                    stage: Stage::ParseError(format!("{e}")),
                }
            }
        };
        if let Err(e) = typeck::check_script(&script) {
            return Parsed {
                stage: Stage::TypeError(script, format!("{e}")),
            };
        }
        let mut consts = Vec::new();
        let mut funs = Vec::new();
        let mut defs = BTreeMap::new();
        for cmd in &script.commands {
            match cmd {
                Command::DeclareConst(name, sort) => consts.push((name.clone(), sort.clone())),
                Command::DeclareFun(name, args, ret) => {
                    funs.push((name.clone(), args.clone(), ret.clone()))
                }
                Command::DefineFun(name, params, _, body) => {
                    defs.insert(name.clone(), (params.clone(), body.clone()));
                }
                _ => {}
            }
        }
        let features = FormulaFeatures::of(&script);
        Parsed {
            stage: Stage::Checked(Analyzed {
                consts,
                funs,
                defs,
                features,
                input_bytes: text.len(),
                script,
            }),
        }
    }

    /// The parsed script, or `None` when the text did not parse.
    pub fn script(&self) -> Option<&Script> {
        match &self.stage {
            Stage::ParseError(_) => None,
            Stage::TypeError(script, _) => Some(script),
            Stage::Checked(a) => Some(&a.script),
        }
    }

    /// The script's features; an unparsable script has the features of
    /// the empty script.
    pub fn features(&self) -> Cow<'_, FormulaFeatures> {
        match &self.stage {
            Stage::Checked(a) => Cow::Borrowed(&a.features),
            _ => Cow::Owned(FormulaFeatures::of(
                self.script().unwrap_or(&Script::default()),
            )),
        }
    }
}

/// Frontend for one solver.
#[derive(Clone, Copy, Debug)]
pub struct Frontend {
    solver: SolverId,
}

impl Frontend {
    /// Creates the frontend for a solver.
    pub fn new(solver: SolverId) -> Frontend {
        Frontend { solver }
    }

    /// Parses, gates theories, and sort-checks a script, recording frontend
    /// coverage: [`Parsed::new`] followed by [`Frontend::analyze_parsed`].
    ///
    /// # Errors
    ///
    /// Returns a solver-style error message (the text a real solver prints
    /// to stderr) on lexical, syntactic, theory-support, or sort errors.
    /// These messages are the feedback signal for Once4All's generator
    /// self-correction loop.
    pub fn analyze(
        &self,
        text: &str,
        universe: &Universe,
        cov: &mut CoverageMap,
    ) -> Result<Analyzed, String> {
        self.analyze_parsed(&Parsed::new(text), universe, cov)
            .cloned()
    }

    /// The per-solver half of [`Frontend::analyze`] on an already parsed
    /// case: records frontend coverage and gates theories. Errors keep the
    /// precedence parse → theory gate → sort check.
    ///
    /// # Errors
    ///
    /// The same solver-style messages as [`Frontend::analyze`].
    pub fn analyze_parsed<'p>(
        &self,
        parsed: &'p Parsed,
        universe: &Universe,
        cov: &mut CoverageMap,
    ) -> Result<&'p Analyzed, String> {
        cov.hit_idx(universe, universe.error_reporting, 0);
        let (script, checked) = match &parsed.stage {
            Stage::ParseError(msg) => {
                cov.hit_idx(universe, universe.error_reporting, 1);
                return Err(msg.clone());
            }
            Stage::TypeError(script, msg) => (script, Err(msg)),
            Stage::Checked(a) => (&a.script, Ok(a)),
        };
        self.walk_coverage(script, universe, cov);
        self.gate_theories(script)?;
        checked.map_err(|msg| {
            cov.hit_idx(universe, universe.error_reporting, 1);
            msg.clone()
        })
    }

    /// Parses, gates theories, and sort-checks a script on the arena fast
    /// path, without boxing an AST or recording coverage.
    ///
    /// This is the validator twin of [`Frontend::analyze`]: it accepts
    /// exactly the scripts `analyze` accepts and produces byte-identical
    /// error messages (the generator self-correction loop consumes them),
    /// but runs on a thread-local [`TermArena`] that is reset per call —
    /// the hot mutation→validate loop allocates no per-node memory.
    ///
    /// # Errors
    ///
    /// The same solver-style messages as [`Frontend::analyze`].
    pub fn validate(&self, text: &str) -> Result<(), String> {
        VALIDATE_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            arena.reset();
            let script = parse_script_arena(text, arena).map_err(|e| format!("{e}"))?;
            self.gate_theories_arena(&script, arena)?;
            typeck::check_script_arena(&script, arena).map_err(|e| format!("{e}"))?;
            Ok(())
        })
    }

    /// Arena twin of [`Frontend::gate_theories`]: an allocation-light
    /// support scan over the node table. On failure it re-collects the
    /// failing assertion's ops through the boxed path, so the reported
    /// operator is exactly the one the boxed gate would pick (first
    /// unsupported op in `BTreeSet<Op>` order of the first bad assertion).
    fn gate_theories_arena(&self, script: &ArenaScript, arena: &TermArena) -> Result<(), String> {
        let supported = supported_theories(self.solver);
        let mut stack: Vec<TermId> = Vec::new();
        for cmd in &script.commands {
            let ArenaCommand::Assert(t) = cmd else {
                continue;
            };
            stack.clear();
            stack.push(*t);
            let mut bad = false;
            while let Some(id) = stack.pop() {
                match arena.node(id) {
                    ANode::App(op, start, len) => {
                        if !supported.contains(&arena.op(op).theory()) {
                            bad = true;
                            break;
                        }
                        stack.extend_from_slice(arena.args(start, len));
                    }
                    ANode::Let(start, len, body) => {
                        stack.push(body);
                        stack.extend(arena.let_binds(start, len).iter().map(|&(_, bt)| bt));
                    }
                    ANode::Quant(_, _, _, body) => stack.push(body),
                    ANode::Const(_) | ANode::Var(_) | ANode::Placeholder(_) => {}
                }
            }
            if bad {
                for op in arena.extract_term(*t).ops() {
                    if !supported.contains(&op.theory()) {
                        return Err(format!(
                            "unknown constant or function symbol '{}' (theory '{}' is not supported by {})",
                            op.smt_name(),
                            op.theory(),
                            self.solver.name(),
                        ));
                    }
                }
            }
        }
        for cmd in &script.commands {
            let (args, ret) = match cmd {
                ArenaCommand::DeclareConst(_, sort) => (&[][..], sort),
                ArenaCommand::DeclareFun(_, args, ret) => (&args[..], ret),
                _ => continue,
            };
            for s in args.iter().chain(std::iter::once(ret)) {
                for t in deep_theories(s) {
                    if !supported.contains(&t) {
                        return Err(format!(
                            "unknown sort '{s}' (theory '{t}' is not supported by {})",
                            self.solver.name(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Rejects scripts that use theories this solver does not implement.
    fn gate_theories(&self, script: &Script) -> Result<(), String> {
        let supported = supported_theories(self.solver);
        for t in script.assertions() {
            for op in t.ops() {
                if !supported.contains(&op.theory()) {
                    return Err(format!(
                        "unknown constant or function symbol '{}' (theory '{}' is not supported by {})",
                        op.smt_name(),
                        op.theory(),
                        self.solver.name(),
                    ));
                }
            }
        }
        for (_, args, ret) in script.declarations() {
            for s in args.iter().chain(std::iter::once(&ret)) {
                let th = deep_theories(s);
                for t in th {
                    if !supported.contains(&t) {
                        return Err(format!(
                            "unknown sort '{s}' (theory '{t}' is not supported by {})",
                            self.solver.name(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Walks the AST and records frontend + typecheck coverage. The branch
    /// taken inside each instrumented function depends on node content, so
    /// structural diversity of inputs translates into line coverage.
    fn walk_coverage(&self, script: &Script, universe: &Universe, cov: &mut CoverageMap) {
        for cmd in &script.commands {
            // Slot in the pre-resolved `frontend_cmd` table (CMD_POINTS order).
            let slot = match cmd {
                Command::SetLogic(_) => 0,
                Command::SetOption(_, _) => 1,
                Command::SetInfo(_, _) => 2,
                Command::DeclareConst(_, _) => 3,
                Command::DeclareFun(_, _, _) => 4,
                Command::DeclareSort(_) => 5,
                Command::DefineFun(_, _, _, _) => 6,
                Command::Assert(_) => 7,
                Command::CheckSat => 8,
                Command::GetModel => 9,
                Command::GetValue(_) => 10,
                Command::Push(_) | Command::Pop(_) => 11,
                Command::Exit => continue,
            };
            let idx = universe.frontend_cmd[slot];
            cov.hit_idx(universe, idx, 0);
            // Second branch: commands with non-trivial payloads.
            let deep = matches!(
                cmd,
                Command::Assert(_) | Command::DefineFun(_, _, _, _) | Command::DeclareFun(_, _, _)
            );
            if deep {
                cov.hit_idx(universe, idx, 1);
            }
            if let Command::DeclareConst(_, sort) = cmd {
                self.sort_coverage(sort, universe, cov);
            }
            if let Command::DeclareFun(_, args, ret) = cmd {
                for s in args.iter().chain(std::iter::once(ret)) {
                    self.sort_coverage(s, universe, cov);
                }
            }
            if let Command::Assert(t) = cmd {
                self.term_coverage(t, universe, cov);
            }
        }
    }

    fn sort_coverage(&self, sort: &Sort, universe: &Universe, cov: &mut CoverageMap) {
        // Slot in the pre-resolved `frontend_sort` table (SORT_POINTS order).
        let slot = match sort {
            Sort::Bool => 0,
            Sort::Int => 1,
            Sort::Real => 2,
            Sort::String => 3,
            Sort::BitVec(_) => 4,
            Sort::FiniteField(_) => 5,
            Sort::Seq(_) => 6,
            Sort::Set(_) => 7,
            Sort::Bag(_) => 8,
            Sort::Array(_, _) => 9,
            Sort::Tuple(_) => 10,
            Sort::Uninterpreted(_) => 11,
        };
        let idx = universe.frontend_sort[slot];
        cov.hit_idx(universe, idx, 0);
        if sort.depth() > 1 {
            cov.hit_idx(universe, idx, 1);
        }
        for c in sort.children() {
            self.sort_coverage(c, universe, cov);
        }
    }

    fn term_coverage(&self, term: &Term, universe: &Universe, cov: &mut CoverageMap) {
        term.visit(&mut |t| {
            // Slot in the pre-resolved `frontend_term` table (TERM_POINTS order).
            let (slot, deep) = match t {
                Term::Const(_) => (0, false),
                Term::Var(_) => (1, false),
                Term::App(_, args) => (2, args.len() > 2),
                Term::Let(_, _) => (3, true),
                Term::Quant(_, _, _) => (4, true),
                Term::Placeholder(_) => return,
            };
            let idx = universe.frontend_term[slot];
            cov.hit_idx(universe, idx, 0);
            if deep {
                cov.hit_idx(universe, idx, 1);
            }
            if let Term::App(op, args) = t {
                if let Some(row) = universe.op_row(op) {
                    cov.hit_idx(universe, row.typeck, 0);
                    if args.len() > 2 {
                        cov.hit_idx(universe, row.typeck, 1);
                    }
                }
            }
        });
    }
}

fn deep_theories(s: &Sort) -> Vec<Theory> {
    let mut out = vec![s.theory()];
    for c in s.children() {
        out.extend(deep_theories(c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::universe;

    #[test]
    fn analyze_accepts_supported_script() {
        let u = universe(SolverId::OxiZ);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::OxiZ);
        let a = f
            .analyze(
                "(declare-const x Int)(assert (> x 1))(check-sat)",
                &u,
                &mut cov,
            )
            .unwrap();
        assert_eq!(a.consts.len(), 1);
        assert!(a.features.has_op(">"));
        assert!(cov.functions_hit() > 3);
    }

    #[test]
    fn oxiz_rejects_finite_fields() {
        let u = universe(SolverId::OxiZ);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::OxiZ);
        let err = f
            .analyze(
                "(declare-const v (_ FiniteField 3))\
                 (assert (= v (ff.add v v)))(check-sat)",
                &u,
                &mut cov,
            )
            .unwrap_err();
        assert!(err.contains("not supported"), "{err}");
    }

    #[test]
    fn cervo_accepts_finite_fields() {
        let u = universe(SolverId::Cervo);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::Cervo);
        f.analyze(
            "(declare-const v (_ FiniteField 3))\
             (assert (= v (ff.add v v)))(check-sat)",
            &u,
            &mut cov,
        )
        .unwrap();
    }

    #[test]
    fn sort_errors_reported_in_solver_style() {
        let u = universe(SolverId::Cervo);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::Cervo);
        let err = f
            .analyze(
                "(declare-const a (_ BitVec 8))(declare-const b (_ BitVec 4))\
                 (assert (= a (bvadd a b)))(check-sat)",
                &u,
                &mut cov,
            )
            .unwrap_err();
        assert!(err.contains("equal bit-width"), "{err}");
    }

    #[test]
    fn parse_errors_surface() {
        let u = universe(SolverId::OxiZ);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::OxiZ);
        assert!(f.analyze("(assert (= 1 1)", &u, &mut cov).is_err());
    }

    /// The single-pass `analyze` this crate shipped before the frontend
    /// was split into [`Parsed`] and [`Frontend::analyze_parsed`], kept as
    /// the reference the split must reproduce.
    fn analyze_unsplit(
        f: &Frontend,
        text: &str,
        universe: &Universe,
        cov: &mut CoverageMap,
    ) -> Result<Analyzed, String> {
        cov.hit_idx(universe, universe.error_reporting, 0);
        let script = parse_script(text).map_err(|e| {
            cov.hit_idx(universe, universe.error_reporting, 1);
            format!("{e}")
        })?;
        f.walk_coverage(&script, universe, cov);
        f.gate_theories(&script)?;
        typeck::check_script(&script).map_err(|e| {
            cov.hit_idx(universe, universe.error_reporting, 1);
            format!("{e}")
        })?;
        let mut consts = Vec::new();
        let mut funs = Vec::new();
        let mut defs = BTreeMap::new();
        for cmd in &script.commands {
            match cmd {
                Command::DeclareConst(name, sort) => consts.push((name.clone(), sort.clone())),
                Command::DeclareFun(name, args, ret) => {
                    funs.push((name.clone(), args.clone(), ret.clone()))
                }
                Command::DefineFun(name, params, _, body) => {
                    defs.insert(name.clone(), (params.clone(), body.clone()));
                }
                _ => {}
            }
        }
        let features = FormulaFeatures::of(&script);
        Ok(Analyzed {
            consts,
            funs,
            defs,
            features,
            input_bytes: text.len(),
            script,
        })
    }

    #[test]
    fn validate_matches_analyze() {
        // Three frontends must agree on every script: the shared-parse
        // `analyze_parsed` with the unsplit reference (same result, same
        // coverage), and the arena `validate` path with both on
        // accept/reject and byte-identical error text (the generator
        // self-correction loop consumes these messages).
        let cases = [
            "(declare-const x Int)(assert (> x 1))(check-sat)",
            "(declare-const v (_ FiniteField 3))(assert (= v (ff.add v v)))(check-sat)",
            "(declare-const s (Set Int))(assert (set.member 1 s))(check-sat)",
            "(declare-const a (_ BitVec 8))(declare-const b (_ BitVec 4))\
             (assert (= a (bvadd a b)))(check-sat)",
            "(assert (= 1 1)",
            "(assert (and true unknown_var))(check-sat)",
            "(define-fun inc ((x Int)) Int (+ x 1))(assert (= (inc 1) 2))(check-sat)",
            "(declare-fun f (Int (Bag Real)) Bool)(assert (f 1 (bag.empty)))(check-sat)",
            "(declare-const x Int)(assert (let ((y (+ x 1))) (forall ((z Int)) (= y z))))(check-sat)",
            // Fails OxiZ's theory gate *and* the sort check: the gate
            // error must win, for OxiZ only.
            "(declare-const v (_ FiniteField 3))(assert (= v (ff.add v 1)))(check-sat)",
            // Sort error only, with declarations, a define-fun and a let.
            "(declare-fun g (Int) Bool)(define-fun h () Int 3)\
             (assert (let ((p (g h))) (and p (+ h 1))))(check-sat)",
            // Lexical error.
            "(assert (= #b2 1))(check-sat)",
        ];
        let mut gate_won = false;
        for solver in SolverId::ALL {
            let u = universe(solver);
            let f = Frontend::new(solver);
            for text in cases {
                let mut want_cov = CoverageMap::new();
                let want = analyze_unsplit(&f, text, &u, &mut want_cov);
                let parsed = Parsed::new(text);
                let mut got_cov = CoverageMap::new();
                let got = f.analyze_parsed(&parsed, &u, &mut got_cov);
                assert_eq!(
                    format!("{:?}", got),
                    format!("{:?}", want.as_ref()),
                    "{solver}: analyze_parsed diverged on {text}"
                );
                assert_eq!(
                    got_cov.export(&u),
                    want_cov.export(&u),
                    "{solver}: coverage diverged on {text}"
                );
                let mut cov = CoverageMap::new();
                let wrapped = f.analyze(text, &u, &mut cov).map(|_| ());
                assert_eq!(wrapped, want.as_ref().map(|_| ()).map_err(Clone::clone));
                assert_eq!(cov.export(&u), want_cov.export(&u));
                assert_eq!(f.validate(text), wrapped, "{solver}: diverged on {text}");
                gate_won |= matches!(&want, Err(e) if e.contains("not supported"))
                    && text.contains("(ff.add v 1)");
            }
        }
        assert!(gate_won, "the gate-and-typeck case must report the gate");
        // The same script, sort error and all, reaches Cervo's sort check.
        let e = Frontend::new(SolverId::Cervo)
            .analyze(
                cases[9],
                &universe(SolverId::Cervo),
                &mut CoverageMap::new(),
            )
            .unwrap_err();
        assert!(!e.contains("not supported"), "{e}");
    }

    #[test]
    fn defs_collected() {
        let u = universe(SolverId::Cervo);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::Cervo);
        let a = f
            .analyze(
                "(define-fun inc ((x Int)) Int (+ x 1))(assert (= (inc 1) 2))(check-sat)",
                &u,
                &mut cov,
            )
            .unwrap();
        assert_eq!(a.defs.len(), 1);
    }
}

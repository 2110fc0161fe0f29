//! The solver frontend shared machinery: parsing, theory gating, sort
//! checking, features and frontend coverage.
//!
//! Both solvers consume SMT-LIB text through [`Frontend::analyze`]; what
//! differs is which theories they accept (OxiZ rejects the cvc5-only
//! extensions, like real Z3 rejects `ff.add`) and the engine that runs
//! afterwards. All of it is a [`Parsed`], which a campaign builds once
//! per case and hands to every solver through [`Frontend::analyze_parsed`].
//! [`Parsed::new`] parses text onto a [`TermArena`]; a case that was built
//! on an arena (Once4All, HistFuzz) skips the parse through
//! [`Parsed::from_arena`], which reads the fuzzer's own arena.
//!
//! A [`Parsed`] keeps the case in arena form: an owned, compact copy of
//! the terms its commands reach ([`TermArena::compact`]), which survives
//! the fuzzer's arena reset and crosses threads. Its analysis runs lazily
//! on that copy, once: a walk over each assertion yields both solvers'
//! theory-gate verdicts, the [`FormulaFeatures`], and solver-independent
//! coverage facts, which `analyze_parsed` replays through the solver's
//! [`Universe`]; the sort check and the declaration tables follow on the
//! first `analyze_parsed`. The engines rewrite and search on [`TermId`]s;
//! the boxed [`Script`] is built at most once, on demand, for the golden
//! evaluator and the oracle's model check.

use crate::coverage::{supported_theories, CoverageMap, Universe};
use crate::features::{fnv1a, FormulaFeatures};
use crate::oxiz::SearchSpace;
use crate::SolverId;
use o4a_smtlib::eval::FunDefs;
use o4a_smtlib::{
    parse_script_arena, typeck, ANode, ArenaCommand, ArenaScript, Op, OpId, Script, Sort, Symbol,
    TermArena, TermId, Theory,
};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;

thread_local! {
    /// Scratch arena for [`Parsed::new`], [`Frontend::validate`] and
    /// [`FormulaFeatures::of`]: reset per call, so every case reuses one
    /// node table and warm symbol/sort/op interners.
    static FRONTEND_ARENA: RefCell<TermArena> = RefCell::new(TermArena::new());
    /// The printed script behind [`FormulaFeatures::hash`], reused per case.
    static PRINT_BUFFER: RefCell<String> = const { RefCell::new(String::new()) };
    /// Walks and sort checks run on this thread: the probe behind
    /// [`Parsed::analyses_on_this_thread`].
    static ANALYSES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A case's script in arena form: an owned, compact copy of its terms
/// and the script over them, boxed at most once, on demand.
#[derive(Clone)]
struct CaseScript {
    arena: TermArena,
    script: ArenaScript,
    boxed: OnceCell<Script>,
}

impl CaseScript {
    fn new(script: &ArenaScript, arena: &TermArena) -> CaseScript {
        let (arena, script) = arena.compact(script);
        CaseScript {
            arena,
            script,
            boxed: OnceCell::new(),
        }
    }

    /// The boxed script, built on the first call.
    fn boxed(&self) -> &Script {
        self.boxed
            .get_or_init(|| self.script.to_script(&self.arena))
    }
}

/// Equal scripts compact to equal copies; the box is a cache.
impl PartialEq for CaseScript {
    fn eq(&self, other: &CaseScript) -> bool {
        self.arena == other.arena && self.script == other.script
    }
}

/// Prints the boxed script.
impl fmt::Debug for CaseScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.boxed().fmt(f)
    }
}

/// A parsed case and its frontend analysis, which runs lazily on the
/// compact copy, once: the walk (features, theory gates, coverage facts)
/// on the first [`Analyzed::features`] or [`Frontend::analyze_parsed`],
/// the sort check and the declaration tables on the first
/// `analyze_parsed`. Only a case that sort-checked is handed out by
/// `analyze_parsed` and [`Frontend::analyze`], so the tables of every
/// `Analyzed` a caller holds exist.
#[derive(Clone)]
pub struct Analyzed {
    case: CaseScript,
    /// Input length in bytes (virtual cost model input).
    pub input_bytes: usize,
    /// FNV-1a hash of the script's print ([`FormulaFeatures::hash`]).
    hash: u64,
    walk: OnceCell<Walked>,
    check: OnceCell<Result<Tables, String>>,
    /// The search space, computed for the first engine that searches.
    space: OnceCell<SearchSpace>,
}

/// What the walk over a case learns.
#[derive(Clone, Debug, PartialEq)]
struct Walked {
    features: FormulaFeatures,
    /// The theory gate's verdict for each solver, in [`SolverId::ALL`]
    /// order.
    gates: [Result<(), String>; 2],
    coverage: CoverageFacts,
}

impl Walked {
    fn new(case: &CaseScript, hash: u64) -> Walked {
        let timer = o4a_obs::metrics::start_timer();
        ANALYSES.with(|n| n.set((n.get().0 + 1, n.get().1)));
        let Walk {
            mut features,
            coverage,
            unsupported,
        } = Walk::new(&case.script, &case.arena);
        features.hash = hash;
        let walked = Walked {
            features,
            gates: SolverId::ALL.map(|id| gate_verdict(id, unsupported[id as usize], &case.script)),
            coverage,
        };
        o4a_obs::metrics::record_elapsed("frontend.analyze", timer);
        walked
    }
}

/// The declaration tables of a script that sort-checked.
#[derive(Clone, Debug, PartialEq)]
struct Tables {
    consts: Vec<(Symbol, Sort)>,
    funs: Vec<(Symbol, Vec<Sort>, Sort)>,
    defs: FunDefs,
}

impl Tables {
    /// Sort-checks `case`, collecting its declaration tables when the
    /// check succeeds.
    fn check(case: &CaseScript) -> Result<Tables, String> {
        let timer = o4a_obs::metrics::start_timer();
        ANALYSES.with(|n| n.set((n.get().0, n.get().1 + 1)));
        let checked = Tables::collect(case);
        o4a_obs::metrics::record_elapsed("frontend.analyze", timer);
        checked
    }

    fn collect(case: &CaseScript) -> Result<Tables, String> {
        typeck::check_script_arena(&case.script, &case.arena).map_err(|e| format!("{e}"))?;
        let mut tables = Tables {
            consts: Vec::new(),
            funs: Vec::new(),
            defs: BTreeMap::new(),
        };
        for cmd in &case.script.commands {
            match cmd {
                ArenaCommand::DeclareConst(name, sort) => {
                    tables.consts.push((name.clone(), sort.clone()))
                }
                ArenaCommand::DeclareFun(name, args, ret) => {
                    tables.funs.push((name.clone(), args.clone(), ret.clone()))
                }
                ArenaCommand::DefineFun(name, params, _, body) => {
                    tables.defs.insert(
                        name.clone(),
                        (params.clone(), case.arena.extract_term(*body)),
                    );
                }
                _ => {}
            }
        }
        Ok(tables)
    }
}

impl Analyzed {
    /// The walk, run on the first call.
    fn walked(&self) -> &Walked {
        self.walk.get_or_init(|| Walked::new(&self.case, self.hash))
    }

    /// The sort check and the tables, run on the first call.
    fn checked(&self) -> &Result<Tables, String> {
        self.check.get_or_init(|| Tables::check(&self.case))
    }

    fn tables(&self) -> &Tables {
        self.checked()
            .as_ref()
            .expect("an Analyzed handed out has sort-checked")
    }

    /// Declared 0-ary symbols and their sorts.
    pub fn consts(&self) -> &[(Symbol, Sort)] {
        &self.tables().consts
    }

    /// Declared n-ary (n ≥ 1) uninterpreted functions.
    pub fn funs(&self) -> &[(Symbol, Vec<Sort>, Sort)] {
        &self.tables().funs
    }

    /// Defined functions (`define-fun`), boxed for evaluator expansion.
    pub fn defs(&self) -> &FunDefs {
        &self.tables().defs
    }

    /// Structural features (trigger matching, coverage, statistics).
    pub fn features(&self) -> &FormulaFeatures {
        &self.walked().features
    }

    /// The boxed script, built on the first call.
    pub fn script(&self) -> &Script {
        self.case.boxed()
    }

    /// The arena holding the script's terms.
    pub fn arena(&self) -> &TermArena {
        &self.case.arena
    }

    /// The asserted terms, on [`Analyzed::arena`].
    pub fn assertions(&self) -> impl Iterator<Item = TermId> + '_ {
        self.case.script.assertions()
    }

    /// The search space both engines enumerate, computed once per case.
    pub(crate) fn space(&self) -> &SearchSpace {
        self.space.get_or_init(|| SearchSpace::new(self))
    }
}

/// Equality compares the analysed results (running the analysis on both
/// sides) and ignores the cached box and search space.
impl PartialEq for Analyzed {
    fn eq(&self, other: &Analyzed) -> bool {
        self.case == other.case
            && self.input_bytes == other.input_bytes
            && self.walked() == other.walked()
            && self.checked() == other.checked()
    }
}

/// The layout of the boxed form: the script first, then the tables (or
/// the sort error).
impl fmt::Debug for Analyzed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Analyzed");
        s.field("script", self.script());
        match self.checked() {
            Ok(t) => s
                .field("consts", &t.consts)
                .field("funs", &t.funs)
                .field("defs", &t.defs),
            Err(msg) => s.field("sort_error", msg),
        };
        s.field("features", self.features())
            .field("input_bytes", &self.input_bytes)
            .finish()
    }
}

/// A case's frontend pass, shared by every in-process solver and the
/// oracle. Building one parses the text (or reads the fuzzer's arena) and
/// keeps the compact copy of the case with its length and hash; the rest
/// runs lazily on that copy, once, when something reads it (see
/// [`Analyzed`]): each solver's theory-gate verdict, the
/// [`FormulaFeatures`] and the solver-independent coverage facts come
/// from one walk, then the sort check and the declaration tables. Only
/// replaying the coverage facts through a solver's universe is left to
/// each [`Frontend::analyze_parsed`] call.
///
/// Both constructors agree: `Parsed::from_arena(s, a, t) == Parsed::new(t)`
/// whenever `t` is the printer's output for `s` on `a`; equality compares
/// the analysed results.
#[derive(Clone, Debug, PartialEq)]
pub struct Parsed {
    /// The parsed case, or the parser's message.
    stage: Result<Box<Analyzed>, String>,
}

impl Parsed {
    /// Parses `text` on the frontend's thread-local arena and keeps the
    /// compact copy of the script; the analysis runs on first use.
    pub fn new(text: &str) -> Parsed {
        FRONTEND_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            arena.reset();
            Parsed {
                stage: match parse_script_arena(text, arena) {
                    Ok(script) => Ok(Parsed::of(
                        &script,
                        arena,
                        text.len(),
                        print_hash(&script, arena),
                    )),
                    Err(e) => Err(format!("{e}")),
                },
            }
        })
    }

    /// [`Parsed::new`] of `text` for a case that already exists as
    /// `script` on `arena`, with `text` the printer's output for it
    /// ([`ArenaScript::print_into`]): the same compact copy, without
    /// parsing `text` or printing the script again. The printed text is
    /// its own re-print, so the feature hash is the hash of `text`; debug
    /// builds check that `text` is the script's print and that it parses
    /// and re-prints to itself.
    pub fn from_arena(script: &ArenaScript, arena: &TermArena, text: &str) -> Parsed {
        debug_assert!(
            is_print_fixpoint(script, arena, text),
            "not the re-printable print of its script: {text}"
        );
        Parsed {
            stage: Ok(Parsed::of(
                script,
                arena,
                text.len(),
                fnv1a(text.as_bytes()),
            )),
        }
    }

    /// The body both constructors share: the compact copy of `script`,
    /// with `input_bytes` the length of its text and `hash` the FNV-1a
    /// hash of its print.
    fn of(script: &ArenaScript, arena: &TermArena, input_bytes: usize, hash: u64) -> Box<Analyzed> {
        Box::new(Analyzed {
            case: CaseScript::new(script, arena),
            input_bytes,
            hash,
            walk: OnceCell::new(),
            check: OnceCell::new(),
            space: OnceCell::new(),
        })
    }

    /// Whether the text parsed.
    pub fn parses(&self) -> bool {
        self.stage.is_ok()
    }

    /// The parsed script, or `None` when the text did not parse. The
    /// script is boxed on the first call.
    pub fn script(&self) -> Option<&Script> {
        self.stage.as_ref().ok().map(|a| a.script())
    }

    /// Whether the boxed script has been built: a probe for tests that
    /// pin when boxing happens.
    #[doc(hidden)]
    pub fn is_boxed(&self) -> bool {
        self.stage
            .as_ref()
            .is_ok_and(|a| a.case.boxed.get().is_some())
    }

    /// How many case walks and how many sort checks the lazy analysis
    /// has run on the calling thread: a probe for tests that pin which
    /// campaigns analyse their cases.
    #[doc(hidden)]
    pub fn analyses_on_this_thread() -> (u64, u64) {
        ANALYSES.with(Cell::get)
    }

    /// The script's features, walking the case on the first call; an
    /// unparsable script has the features of the empty script.
    pub fn features(&self) -> &FormulaFeatures {
        match &self.stage {
            Err(_) => {
                static EMPTY: FormulaFeatures = FormulaFeatures::EMPTY;
                &EMPTY
            }
            Ok(a) => a.features(),
        }
    }
}

/// [`FormulaFeatures::of`]: the walk of [`Parsed::new`] over a boxed
/// script interned into the frontend's scratch arena.
pub(crate) fn features_of(script: &Script) -> FormulaFeatures {
    FRONTEND_ARENA.with(|cell| {
        let arena = &mut *cell.borrow_mut();
        arena.reset();
        let script = ArenaScript::from_script(script, arena);
        FormulaFeatures {
            hash: print_hash(&script, arena),
            ..Walk::new(&script, arena).features
        }
    })
}

/// The FNV-1a hash of `script`'s print ([`FormulaFeatures::hash`]),
/// printed into a reused thread-local buffer.
fn print_hash(script: &ArenaScript, arena: &TermArena) -> u64 {
    PRINT_BUFFER.with(|cell| {
        let out = &mut *cell.borrow_mut();
        out.clear();
        script.print_into(arena, out);
        fnv1a(out.as_bytes())
    })
}

/// Whether `text` is `script`'s print on `arena` and parses and re-prints
/// to itself: what lets [`Parsed::from_arena`] hash `text` in place of
/// the re-print [`Parsed::new`] hashes.
fn is_print_fixpoint(script: &ArenaScript, arena: &TermArena, text: &str) -> bool {
    let mut printed = String::new();
    script.print_into(arena, &mut printed);
    FRONTEND_ARENA.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.reset();
        let Ok(reparsed) = parse_script_arena(text, scratch) else {
            return false;
        };
        let mut reprinted = String::new();
        reparsed.print_into(scratch, &mut reprinted);
        printed == text && reprinted == text
    })
}

/// What one walk over a script's assertions learns.
struct Walk<'a> {
    /// Every feature but the hash, which the caller sets.
    features: FormulaFeatures,
    coverage: CoverageFacts,
    /// Per solver, in [`SolverId::ALL`] order: the smallest unsupported
    /// operator of the first assertion that has one.
    unsupported: [Option<&'a Op>; 2],
}

impl<'a> Walk<'a> {
    fn new(script: &ArenaScript, arena: &'a TermArena) -> Walk<'a> {
        let supported = SolverId::ALL.map(supported_theories);
        let mut features = FormulaFeatures::EMPTY;
        let mut coverage = CoverageFacts::default();
        let mut unsupported = [None, None];
        // The distinct applied operators, each with whether some
        // application of it has more than two arguments.
        let mut ops: Vec<(OpId, bool)> = Vec::new();
        let mut stack = Vec::new();
        for t in script.assertions() {
            features.assert_count += 1;
            let mut smallest: [Option<&Op>; 2] = [None, None];
            for_each_node(arena, t, &mut stack, |node, depth| {
                features.size += 1;
                features.max_depth = features.max_depth.max(depth);
                // Slot in the `TERM_POINTS` table, and whether the node
                // takes the deep branch.
                let (slot, deep) = match node {
                    ANode::Const(_) => (0, false),
                    ANode::Var(_) => (1, false),
                    ANode::App(id, _, len) => {
                        let op = arena.op(id);
                        for (s, theories) in smallest.iter_mut().zip(&supported) {
                            note_unsupported(s, op, theories);
                        }
                        let wide = len > 2;
                        match ops.iter_mut().find(|(seen, _)| *seen == id) {
                            Some((_, w)) => *w |= wide,
                            None => ops.push((id, wide)),
                        }
                        (2, wide)
                    }
                    ANode::Let(..) => {
                        features.has_let = true;
                        (3, true)
                    }
                    ANode::Quant(..) => {
                        features.has_quantifier = true;
                        (4, true)
                    }
                    ANode::Placeholder(_) => return,
                };
                mark(&mut coverage.terms, slot, deep);
            });
            for (first, s) in unsupported.iter_mut().zip(smallest) {
                *first = first.or(s);
            }
        }
        for (id, wide) in ops {
            let op = arena.op(id);
            features.op_names.insert(op.smt_name().to_string());
            features.theories.insert(op.theory());
            coverage.ops.push((op.clone(), wide));
        }
        for cmd in &script.commands {
            // Slot in the `CMD_POINTS` table, and whether the command has
            // a payload (the deep branch).
            let (slot, payload) = match cmd {
                ArenaCommand::SetLogic(_) => (0, false),
                ArenaCommand::SetOption(_, _) => (1, false),
                ArenaCommand::SetInfo(_, _) => (2, false),
                ArenaCommand::DeclareConst(_, _) => (3, false),
                ArenaCommand::DeclareFun(_, _, _) => (4, true),
                ArenaCommand::DeclareSort(_) => (5, false),
                ArenaCommand::DefineFun(_, _, _, _) => (6, true),
                ArenaCommand::Assert(_) => (7, true),
                ArenaCommand::CheckSat => (8, false),
                ArenaCommand::GetModel => (9, false),
                ArenaCommand::GetValue(_) => (10, false),
                ArenaCommand::Push(_) | ArenaCommand::Pop(_) => (11, false),
                ArenaCommand::Exit => continue,
            };
            mark(&mut coverage.commands, slot, payload);
        }
        for (args, ret) in declared_sorts(script) {
            for s in args.iter().chain(std::iter::once(ret)) {
                features.theories.extend(deep_theories(s));
                mark_sort(s, &mut coverage.sorts);
            }
        }
        features.theories.remove(&Theory::Core);
        Walk {
            features,
            coverage,
            unsupported,
        }
    }
}

/// Calls `f` on every node of the term at `root` with its depth (the root
/// is at depth 1), iteratively; `stack` is scratch space.
fn for_each_node(
    arena: &TermArena,
    root: TermId,
    stack: &mut Vec<(TermId, usize)>,
    mut f: impl FnMut(ANode, usize),
) {
    stack.clear();
    stack.push((root, 1));
    while let Some((id, depth)) = stack.pop() {
        let node = arena.node(id);
        f(node, depth);
        match node {
            ANode::App(_, start, len) => {
                stack.extend(arena.args(start, len).iter().map(|&a| (a, depth + 1)));
            }
            ANode::Let(start, len, body) => {
                stack.push((body, depth + 1));
                stack.extend(
                    arena
                        .let_binds(start, len)
                        .iter()
                        .map(|&(_, t)| (t, depth + 1)),
                );
            }
            ANode::Quant(_, _, _, body) => stack.push((body, depth + 1)),
            ANode::Const(_) | ANode::Var(_) | ANode::Placeholder(_) => {}
        }
    }
}

/// Keeps in `smallest` the smallest (by `Op`'s order) operator seen whose
/// theory is not in `supported`.
fn note_unsupported<'a>(smallest: &mut Option<&'a Op>, op: &'a Op, supported: &[Theory]) {
    if !supported.contains(&op.theory()) && smallest.is_none_or(|u| op < u) {
        *smallest = Some(op);
    }
}

/// A solver's theory-gate verdict: an error for `unsupported`, the
/// smallest unsupported operator of the first assertion that has one;
/// failing that, an error for the first declared sort the solver does not
/// implement.
fn gate_verdict(
    solver: SolverId,
    unsupported: Option<&Op>,
    script: &ArenaScript,
) -> Result<(), String> {
    if let Some(op) = unsupported {
        return Err(format!(
            "unknown constant or function symbol '{}' (theory '{}' is not supported by {})",
            op.smt_name(),
            op.theory(),
            solver.name(),
        ));
    }
    let supported = supported_theories(solver);
    for (args, ret) in declared_sorts(script) {
        for s in args.iter().chain(std::iter::once(ret)) {
            for t in deep_theories(s) {
                if !supported.contains(&t) {
                    return Err(format!(
                        "unknown sort '{s}' (theory '{t}' is not supported by {})",
                        solver.name(),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The argument and result sorts of each `declare-const`/`declare-fun`.
fn declared_sorts(script: &ArenaScript) -> impl Iterator<Item = (&[Sort], &Sort)> {
    script.commands.iter().filter_map(|cmd| match cmd {
        ArenaCommand::DeclareConst(_, sort) => Some((&[][..], sort)),
        ArenaCommand::DeclareFun(_, args, ret) => Some((&args[..], ret)),
        _ => None,
    })
}

/// Sets the branch bits of point `slot` in a two-bits-per-point table:
/// bit `2 * slot` is the entry branch, bit `2 * slot + 1` the deep one.
fn mark(bits: &mut u32, slot: usize, deep: bool) {
    *bits |= 1 << (2 * slot);
    if deep {
        *bits |= 1 << (2 * slot + 1);
    }
}

/// The frontend coverage of one case, independent of the solver: which
/// command, sort and term points it reaches (two branch bits per point,
/// see [`mark`]) and which operators its assertions apply. Hits are
/// idempotent ORs, so replaying the facts gives the map a walk over the
/// script would.
#[derive(Clone, Debug, Default, PartialEq)]
struct CoverageFacts {
    /// `CMD_POINTS` bits; commands with a payload take the deep branch.
    commands: u32,
    /// `SORT_POINTS` bits of the declared sorts and their components.
    sorts: u32,
    /// `TERM_POINTS` bits of the assertion nodes.
    terms: u32,
    /// The distinct operators applied in assertions, each with whether
    /// some application of it has more than two arguments.
    ops: Vec<(Op, bool)>,
}

impl CoverageFacts {
    /// Records the facts as hits in `universe`'s points.
    fn replay(&self, universe: &Universe, cov: &mut CoverageMap) {
        for (bits, points) in [
            (self.commands, &universe.frontend_cmd[..]),
            (self.sorts, &universe.frontend_sort[..]),
            (self.terms, &universe.frontend_term[..]),
        ] {
            for (slot, &idx) in points.iter().enumerate() {
                for branch in 0..2 {
                    if bits & (1 << (2 * slot + branch)) != 0 {
                        cov.hit_idx(universe, idx, branch);
                    }
                }
            }
        }
        for (op, wide) in &self.ops {
            if let Some(row) = universe.op_row(op) {
                cov.hit_idx(universe, row.typeck, 0);
                if *wide {
                    cov.hit_idx(universe, row.typeck, 1);
                }
            }
        }
    }
}

/// Marks a sort and its components in a `SORT_POINTS` table; nested
/// sorts take the deep branch.
fn mark_sort(sort: &Sort, bits: &mut u32) {
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
    mark(bits, slot, sort.depth() > 1);
    for c in sort.children() {
        mark_sort(c, bits);
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
    /// case: replays the case's coverage facts through `universe` and
    /// reports the stored theory-gate verdict. Errors keep the precedence
    /// parse → theory gate → sort check.
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
        let analyzed = match &parsed.stage {
            Err(msg) => {
                cov.hit_idx(universe, universe.error_reporting, 1);
                return Err(msg.clone());
            }
            Ok(a) => a,
        };
        let (walked, checked) = (analyzed.walked(), analyzed.checked());
        walked.coverage.replay(universe, cov);
        // `SolverId::ALL` lists the solvers in declaration order.
        walked.gates[self.solver as usize].clone()?;
        match checked {
            Ok(_) => Ok(analyzed),
            Err(msg) => {
                cov.hit_idx(universe, universe.error_reporting, 1);
                Err(msg.clone())
            }
        }
    }

    /// Parses, gates theories, and sort-checks a script without boxing an
    /// AST or recording coverage.
    ///
    /// It accepts exactly the scripts [`Frontend::analyze`] accepts and
    /// produces byte-identical error messages (the generator
    /// self-correction loop consumes them), but runs entirely on a
    /// thread-local [`TermArena`] that is reset per call — the hot
    /// mutation→validate loop allocates no per-node memory.
    ///
    /// # Errors
    ///
    /// The same solver-style messages as [`Frontend::analyze`].
    pub fn validate(&self, text: &str) -> Result<(), String> {
        FRONTEND_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            arena.reset();
            let script = parse_script_arena(text, arena).map_err(|e| format!("{e}"))?;
            self.gate_theories_arena(&script, arena)?;
            typeck::check_script_arena(&script, arena).map_err(|e| format!("{e}"))?;
            Ok(())
        })
    }

    /// This solver's theory gate alone, for [`Frontend::validate`]: the
    /// verdict [`Parsed::new`] stores, from a walk that stops after the
    /// first assertion with an unsupported operator.
    fn gate_theories_arena(&self, script: &ArenaScript, arena: &TermArena) -> Result<(), String> {
        let supported = supported_theories(self.solver);
        let mut stack = Vec::new();
        let mut unsupported = None;
        for t in script.assertions() {
            for_each_node(arena, t, &mut stack, |node, _| {
                if let ANode::App(id, _, _) = node {
                    note_unsupported(&mut unsupported, arena.op(id), &supported);
                }
            });
            if unsupported.is_some() {
                break;
            }
        }
        gate_verdict(self.solver, unsupported, script)
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
    use o4a_core::{Fuzzer, Once4AllConfig, Once4AllFuzzer};
    use o4a_smtlib::{Command, Term};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn analyze_accepts_supported_script() {
        let u = universe(SolverId::OxiZ);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::OxiZ);
        let a = f
            .analyze(
                "(declare-const x Int)(assert (> x 1))(check-sat)",
                u,
                &mut cov,
            )
            .unwrap();
        assert_eq!(a.consts().len(), 1);
        assert!(a.features().has_op(">"));
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
                u,
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
            u,
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
                u,
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
        assert!(f.analyze("(assert (= 1 1)", u, &mut cov).is_err());
    }

    /// The boxed `FormulaFeatures::of` the single arena walk replaced,
    /// kept as its reference.
    fn boxed_features(script: &Script) -> FormulaFeatures {
        let mut op_names = BTreeSet::new();
        let mut theories = script.theories();
        let mut has_quantifier = false;
        let mut has_let = false;
        let mut max_depth = 0;
        let mut size = 0;
        let mut assert_count = 0;
        for t in script.assertions() {
            assert_count += 1;
            size += t.size();
            max_depth = max_depth.max(t.depth());
            has_quantifier |= t.has_quantifier();
            t.visit(&mut |n| {
                if matches!(n, Term::Let(_, _)) {
                    has_let = true;
                }
            });
            for op in t.ops() {
                theories.insert(op.theory());
                op_names.insert(op.smt_name().to_string());
            }
        }
        for (_, args, ret) in script.declarations() {
            for s in args.iter().chain(std::iter::once(&ret)) {
                theories.extend(deep_theories(s));
            }
        }
        theories.remove(&Theory::Core);
        FormulaFeatures {
            op_names,
            theories,
            has_quantifier,
            has_let,
            max_depth,
            size,
            assert_count,
            hash: fnv1a(script.to_string().as_bytes()),
        }
    }

    /// The boxed frontend coverage walk that replaying coverage facts
    /// replaced, kept as its reference: commands, declared sorts, and
    /// every assertion node with its operator's typecheck point.
    fn boxed_walk_coverage(script: &Script, universe: &Universe, cov: &mut CoverageMap) {
        fn sort_coverage(sort: &Sort, universe: &Universe, cov: &mut CoverageMap) {
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
                sort_coverage(c, universe, cov);
            }
        }

        for cmd in &script.commands {
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
            let deep = matches!(
                cmd,
                Command::Assert(_) | Command::DefineFun(_, _, _, _) | Command::DeclareFun(_, _, _)
            );
            if deep {
                cov.hit_idx(universe, idx, 1);
            }
            if let Command::DeclareConst(_, sort) = cmd {
                sort_coverage(sort, universe, cov);
            }
            if let Command::DeclareFun(_, args, ret) = cmd {
                for s in args.iter().chain(std::iter::once(ret)) {
                    sort_coverage(s, universe, cov);
                }
            }
            if let Command::Assert(t) = cmd {
                t.visit(&mut |t| {
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
    }

    /// The boxed `Analyzed` this crate shipped before `Parsed` kept the
    /// case in arena form: its derived `Debug` is what the arena form's
    /// `Debug` must print.
    mod boxed {
        use super::*;

        /// Read through `Debug` only.
        #[allow(dead_code)]
        #[derive(Debug)]
        pub struct Analyzed {
            pub script: Script,
            pub consts: Vec<(Symbol, Sort)>,
            pub funs: Vec<(Symbol, Vec<Sort>, Sort)>,
            pub defs: BTreeMap<Symbol, (Vec<(Symbol, Sort)>, Term)>,
            pub features: FormulaFeatures,
            pub input_bytes: usize,
        }
    }

    /// The single-pass `analyze` this crate shipped before the frontend
    /// was split into [`Parsed`] and [`Frontend::analyze_parsed`], kept as
    /// the reference the split must reproduce — boxed theory gate, boxed
    /// coverage walk and boxed features included.
    fn analyze_unsplit(
        f: &Frontend,
        text: &str,
        universe: &Universe,
        cov: &mut CoverageMap,
    ) -> Result<boxed::Analyzed, String> {
        fn gate_theories(solver: SolverId, script: &Script) -> Result<(), String> {
            let supported = supported_theories(solver);
            for t in script.assertions() {
                for op in t.ops() {
                    if !supported.contains(&op.theory()) {
                        return Err(format!(
                            "unknown constant or function symbol '{}' (theory '{}' is not supported by {})",
                            op.smt_name(),
                            op.theory(),
                            solver.name(),
                        ));
                    }
                }
            }
            for (_, args, ret) in script.declarations() {
                for s in args.iter().chain(std::iter::once(&ret)) {
                    for t in deep_theories(s) {
                        if !supported.contains(&t) {
                            return Err(format!(
                                "unknown sort '{s}' (theory '{t}' is not supported by {})",
                                solver.name(),
                            ));
                        }
                    }
                }
            }
            Ok(())
        }

        cov.hit_idx(universe, universe.error_reporting, 0);
        let script = o4a_smtlib::parse_script(text).map_err(|e| {
            cov.hit_idx(universe, universe.error_reporting, 1);
            format!("{e}")
        })?;
        boxed_walk_coverage(&script, universe, cov);
        gate_theories(f.solver, &script)?;
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
        let features = boxed_features(&script);
        Ok(boxed::Analyzed {
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
            // Several unsupported operators in one assertion (and a second
            // failing assertion): the smallest operator of the first wins.
            "(declare-const s (Set Int))(declare-const v (_ FiniteField 3))\
             (assert (or (set.member 1 (set.union s s)) (= v (ff.mul v (ff.add v v)))))\
             (assert (bag.member 1 (bag.empty)))(check-sat)",
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
                let want = analyze_unsplit(&f, text, u, &mut want_cov);
                let parsed = Parsed::new(text);
                let mut got_cov = CoverageMap::new();
                let got = f.analyze_parsed(&parsed, u, &mut got_cov);
                assert_eq!(
                    format!("{:?}", got),
                    format!("{:?}", want.as_ref()),
                    "{solver}: analyze_parsed diverged on {text}"
                );
                assert_eq!(
                    got_cov.export(u),
                    want_cov.export(u),
                    "{solver}: coverage diverged on {text}"
                );
                let mut cov = CoverageMap::new();
                let wrapped = f.analyze(text, u, &mut cov).map(|_| ());
                assert_eq!(wrapped, want.as_ref().map(|_| ()).map_err(Clone::clone));
                assert_eq!(cov.export(u), want_cov.export(u));
                assert_eq!(f.validate(text), wrapped, "{solver}: diverged on {text}");
                gate_won |= matches!(&want, Err(e) if e.contains("not supported"))
                    && text.contains("(ff.add v 1)");
            }
        }
        assert!(gate_won, "the gate-and-typeck case must report the gate");
        // The same script, sort error and all, reaches Cervo's sort check.
        let e = Frontend::new(SolverId::Cervo)
            .analyze(cases[9], universe(SolverId::Cervo), &mut CoverageMap::new())
            .unwrap_err();
        assert!(!e.contains("not supported"), "{e}");
        // The gate names the smallest unsupported operator, not the first
        // one the walk meets.
        let e = Frontend::new(SolverId::OxiZ)
            .validate(cases[10])
            .unwrap_err();
        assert!(e.contains("'set.union'"), "{e}");
    }

    /// Checks one text against the boxed references: its features, and
    /// for each solver the `analyze_parsed` result and coverage. Returns
    /// whether it failed to parse and whether it failed the sort check.
    fn check_against_boxed(text: &str) -> (bool, bool) {
        let parsed = Parsed::new(text);
        let boxed = o4a_smtlib::parse_script(text);
        let script = boxed.as_ref().cloned().unwrap_or_default();
        assert_eq!(
            *parsed.features(),
            boxed_features(&script),
            "features of {text}"
        );
        assert_eq!(
            FormulaFeatures::of(&script),
            boxed_features(&script),
            "{text}"
        );
        for solver in SolverId::ALL {
            let u = universe(solver);
            let f = Frontend::new(solver);
            let mut want_cov = CoverageMap::new();
            let want = analyze_unsplit(&f, text, u, &mut want_cov);
            let mut got_cov = CoverageMap::new();
            let got = f.analyze_parsed(&parsed, u, &mut got_cov);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", want.as_ref()),
                "{solver}: analyze_parsed diverged on {text}"
            );
            assert_eq!(
                got_cov.export(u),
                want_cov.export(u),
                "{solver}: coverage diverged on {text}"
            );
        }
        let sort_error = boxed.is_ok() && typeck::check_script(&script).is_err();
        (boxed.is_err(), sort_error)
    }

    #[test]
    fn single_walk_matches_boxed_references() {
        // About 2000 generated texts: Once4All with and without skeletons
        // and the eight baselines, each from a fixed seed. Every tenth
        // text is also checked with its last `)` cut off, so the sweep
        // meets parse errors as well as sort errors.
        let mut fuzzers: Vec<Box<dyn Fuzzer>> = vec![
            Box::new(Once4AllFuzzer::new(Once4AllConfig::default())),
            Box::new(Once4AllFuzzer::new(Once4AllConfig {
                use_skeletons: false,
                ..Once4AllConfig::default()
            })),
        ];
        fuzzers.extend(o4a_baselines::all_baselines());
        let (mut texts, mut parse_errors, mut sort_errors) = (0, 0, 0);
        for mut fuzzer in fuzzers {
            let mut rng = StdRng::seed_from_u64(0x5eed);
            fuzzer.setup(&mut rng);
            for i in 0..180 {
                let text = fuzzer.next_case(&mut rng).text;
                let mut variants = vec![text.as_str()];
                if i % 10 == 0 {
                    variants.extend(text.rfind(')').map(|end| &text[..end]));
                }
                for t in variants {
                    let (parse_error, sort_error) = check_against_boxed(t);
                    texts += 1;
                    parse_errors += usize::from(parse_error);
                    sort_errors += usize::from(sort_error);
                }
            }
        }
        assert!(texts >= 1900, "only {texts} texts");
        assert!(parse_errors > 0, "the sweep met no parse error");
        assert!(sort_errors > 0, "the sweep met no sort error");
    }

    #[test]
    fn defs_collected() {
        let u = universe(SolverId::Cervo);
        let mut cov = CoverageMap::new();
        let f = Frontend::new(SolverId::Cervo);
        let a = f
            .analyze(
                "(define-fun inc ((x Int)) Int (+ x 1))(assert (= (inc 1) 2))(check-sat)",
                u,
                &mut cov,
            )
            .unwrap();
        assert_eq!(a.defs().len(), 1);
    }
}

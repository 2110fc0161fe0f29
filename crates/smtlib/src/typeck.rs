//! Sort checking (static typing) of terms and scripts.
//!
//! The checker enforces the SMT-LIB typing discipline with one deliberate
//! leniency: integer literals/terms are accepted where reals are expected in
//! arithmetic, comparisons, equalities and `ite` branches (the usual
//! "numeral coercion" real solvers apply in `Real` logics). Everything else
//! — bit-widths, field moduli, element sorts, relation arities — is strict,
//! because those strict errors are exactly the feedback signal Once4All's
//! self-correction loop consumes.
//!
//! The checker runs on [`TermArena`] ids ([`check_script_arena`],
//! [`check_term_arena`]). The boxed [`check_script`]/[`check_term`] entry
//! points intern their input into a thread-local scratch arena and call
//! it, so there is one implementation of the typing rules.
//!
//! A check is one traversal that allocates nothing once its thread is
//! warm. Sorts are handles into a thread-local table of interned sorts,
//! so comparing two sorts compares two `u32`s and a rule reads a sort's
//! components without cloning it. Arguments' sorts go on one reused
//! stack. A symbol's meaning (a binder's sort, a declaration's sort, or
//! "unknown") sits in a table indexed by its [`SymbolId`], resolved
//! against the script's declarations once per check and shadowed and
//! restored by binders. Error values are built only when a rule fails.

use crate::arena::{ANode, ArenaCommand, ArenaScript, SymbolId, TermArena, TermId};
use crate::{Command, Op, Script, Sort, SortError, Symbol, Term, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

thread_local! {
    /// Scratch arena backing the boxed `check_script`/`check_term`
    /// wrappers; reset per call, interners stay warm for the thread's
    /// lifetime.
    static CHECK_ARENA: RefCell<TermArena> = RefCell::new(TermArena::new());
    /// The checker's buffers and sort table, reused by every check on the
    /// thread.
    static CHECKER: RefCell<Checker> = RefCell::new(Checker::default());
}

/// Declared symbols visible while checking a term.
#[derive(Clone, Debug, Default)]
pub struct SortContext {
    /// Declared functions and constants: name → (argument sorts, result).
    pub funs: BTreeMap<Symbol, (Vec<Sort>, Sort)>,
    /// Declared uninterpreted sorts.
    pub sorts: Vec<Symbol>,
}

impl SortContext {
    /// Builds a context from a script's declarations.
    ///
    /// # Errors
    ///
    /// Returns [`SortError::Redeclaration`] when a symbol is declared twice.
    pub fn from_script(script: &Script) -> Result<SortContext, SortError> {
        let mut ctx = SortContext::default();
        for cmd in &script.commands {
            let (name, sig) = match cmd {
                Command::DeclareConst(name, sort) => (name, Sig::Fun(&[], sort)),
                Command::DeclareFun(name, args, ret) => (name, Sig::Fun(args, ret)),
                Command::DefineFun(name, params, ret, _) => (name, Sig::Def(params, ret)),
                Command::DeclareSort(name) => {
                    ctx.sorts.push(name.clone());
                    continue;
                }
                _ => continue,
            };
            let args = (0..sig.arity()).map(|i| sig.arg(i).clone()).collect();
            ctx.declare(name.clone(), args, sig.ret().clone())?;
        }
        Ok(ctx)
    }

    /// Adds a declaration.
    ///
    /// # Errors
    ///
    /// Returns [`SortError::Redeclaration`] on duplicate names.
    pub fn declare(&mut self, name: Symbol, args: Vec<Sort>, ret: Sort) -> Result<(), SortError> {
        if self.funs.contains_key(&name) {
            return Err(SortError::Redeclaration(name));
        }
        self.funs.insert(name, (args, ret));
        Ok(())
    }

    /// Looks up a 0-ary symbol's sort.
    pub fn const_sort(&self, name: &Symbol) -> Option<&Sort> {
        match self.funs.get(name) {
            Some((args, ret)) if args.is_empty() => Some(ret),
            _ => None,
        }
    }
}

/// A declared function's signature, borrowed from a script or a context.
#[derive(Clone, Copy)]
enum Sig<'a> {
    /// A constant or function: argument sorts, result sort.
    Fun(&'a [Sort], &'a Sort),
    /// A defined function: parameters, result sort.
    Def(&'a [(Symbol, Sort)], &'a Sort),
}

impl<'a> Sig<'a> {
    fn arity(self) -> usize {
        match self {
            Sig::Fun(args, _) => args.len(),
            Sig::Def(params, _) => params.len(),
        }
    }

    fn arg(self, i: usize) -> &'a Sort {
        match self {
            Sig::Fun(args, _) => &args[i],
            Sig::Def(params, _) => &params[i].1,
        }
    }

    fn ret(self) -> &'a Sort {
        match self {
            Sig::Fun(_, ret) | Sig::Def(_, ret) => ret,
        }
    }
}

/// The function or constant an arena command declares, with its signature.
fn declared(cmd: &ArenaCommand) -> Option<(&Symbol, Sig<'_>)> {
    match cmd {
        ArenaCommand::DeclareConst(name, sort) => Some((name, Sig::Fun(&[], sort))),
        ArenaCommand::DeclareFun(name, args, ret) => Some((name, Sig::Fun(args, ret))),
        ArenaCommand::DefineFun(name, params, ret, _) => Some((name, Sig::Def(params, ret))),
        _ => None,
    }
}

/// Checks a whole script: declarations are consistent, every assertion is
/// Boolean, defined function bodies match their signatures, and no
/// placeholder remains. Interns the script into a thread-local scratch
/// arena and runs [`check_script_arena`].
///
/// # Errors
///
/// Returns the first [`SortError`] encountered, in file order.
pub fn check_script(script: &Script) -> Result<SortContext, SortError> {
    CHECK_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        let script = ArenaScript::from_script(script, &mut arena);
        check_script_arena(&script, &arena)
    })?;
    SortContext::from_script(script)
}

/// Computes the sort of a closed term under a context, on a thread-local
/// scratch arena (see [`check_term_arena`]).
///
/// # Errors
///
/// Returns a [`SortError`] describing the first violation found.
pub fn check_term(term: &Term, ctx: &SortContext) -> Result<Sort, SortError> {
    CHECK_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        let id = arena.intern_term(term);
        check_term_arena(id, &arena, ctx)
    })
}

/// Checks a whole arena script: declarations are consistent, every
/// assertion is Boolean, defined function bodies match their signatures,
/// and no placeholder remains.
///
/// # Errors
///
/// Returns the first [`SortError`] encountered, in file order: a
/// redeclaration before anything else, then per command, an assertion
/// that holds a placeholder before any sort error inside it.
pub fn check_script_arena(script: &ArenaScript, arena: &TermArena) -> Result<(), SortError> {
    CHECKER.with(|cell| cell.borrow_mut().script(script, arena))
}

/// Computes the sort of a closed arena term under a context.
///
/// # Errors
///
/// Returns a [`SortError`] describing the first violation found.
pub fn check_term_arena(
    id: TermId,
    arena: &TermArena,
    ctx: &SortContext,
) -> Result<Sort, SortError> {
    CHECKER.with(|cell| {
        let c = &mut *cell.borrow_mut();
        c.clear();
        let got = c.check(arena, Scope::Context(ctx)).term(id)?;
        Ok(c.table.sort(got).clone())
    })
}

/// An interned sort: an index into a [`SortTable`]. Equal sorts have
/// equal handles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct S(u32);

const BOOL: S = S(0);
const INT: S = S(1);
const REAL: S = S(2);
const STRING: S = S(3);

/// A sort's outermost constructor over its components' handles.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    /// `Bool`, `Int`, `Real`, `String` and uninterpreted sorts: told
    /// apart by handle alone.
    Atom,
    BitVec(u32),
    FiniteField(u64),
    Seq(S),
    Set(S),
    Bag(S),
    Array(S, S),
    /// A span of [`SortTable::elems`].
    Tuple(u32, u32),
}

/// The rustc "Fx" multiply-rotate hash, for the sort table's small keys:
/// SipHash's flooding resistance buys nothing there.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<Fx>>;

/// Every sort a thread's checks have met, each once. Like the symbol
/// interner it only grows, and its population is bounded by the sorts
/// the grammars and seeds spell.
struct SortTable {
    sorts: Vec<Sort>,
    shapes: Vec<Shape>,
    /// The components of every tuple sort, spans per [`Shape::Tuple`].
    elems: Vec<S>,
    by_sort: FxMap<Sort, S>,
    /// Non-atom, non-tuple sorts by shape.
    by_shape: FxMap<Shape, S>,
    tuples: FxMap<Box<[S]>, S>,
    /// Bit-vector sorts by width, for the widths met so far.
    bit_vecs: Vec<Option<S>>,
    /// Scratch for tuples built from parts.
    parts: Vec<S>,
}

impl Default for SortTable {
    fn default() -> SortTable {
        let mut table = SortTable {
            sorts: Vec::new(),
            shapes: Vec::new(),
            elems: Vec::new(),
            by_sort: FxMap::default(),
            by_shape: FxMap::default(),
            tuples: FxMap::default(),
            bit_vecs: Vec::new(),
            parts: Vec::new(),
        };
        for sort in [Sort::Bool, Sort::Int, Sort::Real, Sort::String] {
            table.add(Shape::Atom, sort);
        }
        table
    }
}

impl SortTable {
    fn sort(&self, s: S) -> &Sort {
        &self.sorts[s.0 as usize]
    }

    fn shape(&self, s: S) -> Shape {
        self.shapes[s.0 as usize]
    }

    fn elems(&self, start: u32, len: u32) -> &[S] {
        &self.elems[start as usize..(start + len) as usize]
    }

    fn add(&mut self, shape: Shape, sort: Sort) -> S {
        let s = S(self.sorts.len() as u32);
        match shape {
            Shape::Atom => {}
            Shape::Tuple(start, len) => {
                let key: Box<[S]> = self.elems(start, len).into();
                self.tuples.insert(key, s);
            }
            other => {
                self.by_shape.insert(other, s);
            }
        }
        self.by_sort.insert(sort.clone(), s);
        self.sorts.push(sort);
        self.shapes.push(shape);
        s
    }

    /// The handle of `sort`, interned on first sight.
    fn intern(&mut self, sort: &Sort) -> S {
        match sort {
            Sort::Bool => BOOL,
            Sort::Int => INT,
            Sort::Real => REAL,
            Sort::String => STRING,
            Sort::BitVec(w) => self.bit_vec(*w),
            _ => match self.by_sort.get(sort) {
                Some(&s) => s,
                None => self.intern_new(sort),
            },
        }
    }

    fn intern_new(&mut self, sort: &Sort) -> S {
        match sort {
            Sort::FiniteField(p) => self.make(Shape::FiniteField(*p)),
            Sort::Seq(e) => {
                let e = self.intern(e);
                self.make(Shape::Seq(e))
            }
            Sort::Set(e) => {
                let e = self.intern(e);
                self.make(Shape::Set(e))
            }
            Sort::Bag(e) => {
                let e = self.intern(e);
                self.make(Shape::Bag(e))
            }
            Sort::Array(k, v) => {
                let (k, v) = (self.intern(k), self.intern(v));
                self.make(Shape::Array(k, v))
            }
            Sort::Tuple(elems) => {
                let elems: Vec<S> = elems.iter().map(|e| self.intern(e)).collect();
                self.tuple(&elems)
            }
            _ => self.add(Shape::Atom, sort.clone()),
        }
    }

    /// The handle of the sort `shape` describes, which is neither an atom
    /// nor a tuple.
    fn make(&mut self, shape: Shape) -> S {
        if let Some(&s) = self.by_shape.get(&shape) {
            return s;
        }
        let sort = match shape {
            Shape::BitVec(w) => Sort::BitVec(w),
            Shape::FiniteField(p) => Sort::FiniteField(p),
            Shape::Seq(e) => Sort::seq(self.sort(e).clone()),
            Shape::Set(e) => Sort::set(self.sort(e).clone()),
            Shape::Bag(e) => Sort::bag(self.sort(e).clone()),
            Shape::Array(k, v) => Sort::array(self.sort(k).clone(), self.sort(v).clone()),
            Shape::Atom | Shape::Tuple(..) => unreachable!("atoms and tuples are not made"),
        };
        self.add(shape, sort)
    }

    fn bit_vec(&mut self, width: u32) -> S {
        let slot = width as usize;
        if let Some(&Some(s)) = self.bit_vecs.get(slot) {
            return s;
        }
        let s = self.make(Shape::BitVec(width));
        if slot <= 1024 {
            if self.bit_vecs.len() <= slot {
                self.bit_vecs.resize(slot + 1, None);
            }
            self.bit_vecs[slot] = Some(s);
        }
        s
    }

    /// The handle of the tuple sort of `elems`.
    fn tuple(&mut self, elems: &[S]) -> S {
        if let Some(&s) = self.tuples.get(elems) {
            return s;
        }
        let start = self.elems.len() as u32;
        self.elems.extend_from_slice(elems);
        let sort = Sort::Tuple(elems.iter().map(|&e| self.sort(e).clone()).collect());
        self.add(Shape::Tuple(start, elems.len() as u32), sort)
    }

    /// `(Set (Tuple ...))` of the components `fill` writes into a scratch
    /// list.
    fn relation(&mut self, fill: impl FnOnce(&SortTable, &mut Vec<S>)) -> S {
        let mut parts = std::mem::take(&mut self.parts);
        parts.clear();
        fill(self, &mut parts);
        let tuple = self.tuple(&parts);
        self.parts = parts;
        self.make(Shape::Set(tuple))
    }

    /// The sort of a literal, read from the value without building a
    /// [`Sort`] for the common kinds.
    fn of_value(&mut self, v: &Value) -> S {
        match v {
            Value::Bool(_) => BOOL,
            Value::Int(_) => INT,
            Value::Real(_) => REAL,
            Value::Str(_) => STRING,
            Value::BitVec(b) => self.bit_vec(b.width()),
            Value::FiniteField(x) => self.make(Shape::FiniteField(x.modulus())),
            Value::Seq(e, _) => {
                let e = self.intern(e);
                self.make(Shape::Seq(e))
            }
            Value::Set(e, _) => {
                let e = self.intern(e);
                self.make(Shape::Set(e))
            }
            Value::Bag(e, _) => {
                let e = self.intern(e);
                self.make(Shape::Bag(e))
            }
            other => self.intern(&other.sort()),
        }
    }
}

/// A symbol whose meaning this check has not looked up yet.
const UNRESOLVED: u32 = u32::MAX;
/// A symbol that is neither bound nor a declared constant.
const UNKNOWN: u32 = u32::MAX - 1;

/// What each [`SymbolId`] of the arena under check means: a sort handle,
/// [`UNKNOWN`] or [`UNRESOLVED`]. Entries are set lazily and by binders,
/// and reset by the next check.
#[derive(Default)]
struct Meanings {
    by_symbol: Vec<u32>,
    /// Meanings hidden by the binders in scope: (symbol, hidden meaning).
    shadowed: Vec<(SymbolId, u32)>,
    /// Symbols whose entry this check has set.
    touched: Vec<SymbolId>,
}

impl Meanings {
    fn get(&self, sym: SymbolId) -> u32 {
        self.by_symbol
            .get(sym.index())
            .copied()
            .unwrap_or(UNRESOLVED)
    }

    fn set(&mut self, sym: SymbolId, meaning: u32) {
        let i = sym.index();
        if i >= self.by_symbol.len() {
            self.by_symbol.resize(i + 1, UNRESOLVED);
        }
        self.by_symbol[i] = meaning;
        self.touched.push(sym);
    }

    /// Binds `sym` to `sort` until [`Meanings::unbind`] back to the
    /// current depth.
    fn bind(&mut self, sym: SymbolId, sort: S) {
        let hidden = self.get(sym);
        self.shadowed.push((sym, hidden));
        self.set(sym, sort.0);
    }

    fn unbind(&mut self, depth: usize) {
        while self.shadowed.len() > depth {
            let (sym, hidden) = self.shadowed.pop().expect("deeper than depth");
            self.by_symbol[sym.index()] = hidden;
        }
    }

    /// Forgets every meaning.
    fn reset(&mut self) {
        for sym in self.touched.drain(..) {
            self.by_symbol[sym.index()] = UNRESOLVED;
        }
        self.shadowed.clear();
    }
}

/// Where declared names are looked up: a script's declarations, or a
/// context's.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// The script and its declarations' `(name address, command index)`,
    /// sorted.
    Script(&'a ArenaScript, &'a [(usize, u32)]),
    Context(&'a SortContext),
}

impl<'a> Scope<'a> {
    fn find(self, name: &Symbol) -> Option<Sig<'a>> {
        match self {
            Scope::Context(ctx) => ctx.funs.get(name).map(|(args, ret)| Sig::Fun(args, ret)),
            Scope::Script(script, index) => {
                let at = index
                    .binary_search_by_key(&name.addr(), |&(addr, _)| addr)
                    .ok()?;
                declared(&script.commands[index[at].1 as usize]).map(|(_, sig)| sig)
            }
        }
    }
}

/// The thread's reusable checking state.
#[derive(Default)]
struct Checker {
    table: SortTable,
    /// Sorts of the arguments of the applications being checked.
    args: Vec<S>,
    meanings: Meanings,
    /// The script's declarations, for [`Scope::Script`].
    index: Vec<(usize, u32)>,
}

impl Checker {
    fn clear(&mut self) {
        self.args.clear();
        self.meanings.reset();
    }

    fn check<'a>(&'a mut self, arena: &'a TermArena, scope: Scope<'a>) -> Check<'a> {
        Check {
            arena,
            scope,
            params: &[],
            table: &mut self.table,
            args: &mut self.args,
            meanings: &mut self.meanings,
            placeholder: false,
        }
    }

    fn script(&mut self, script: &ArenaScript, arena: &TermArena) -> Result<(), SortError> {
        self.clear();
        self.index.clear();
        for (i, cmd) in script.commands.iter().enumerate() {
            if let Some((name, _)) = declared(cmd) {
                self.index.push((name.addr(), i as u32));
            }
        }
        self.index.sort_unstable();
        if self.index.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(first_redeclaration(script));
        }
        let index = std::mem::take(&mut self.index);
        let checked = self
            .check(arena, Scope::Script(script, &index))
            .commands(script);
        self.index = index;
        checked
    }
}

/// The first declaration, in file order, of a name declared before it.
fn first_redeclaration(script: &ArenaScript) -> SortError {
    let names: Vec<&Symbol> = script
        .commands
        .iter()
        .filter_map(|cmd| declared(cmd).map(|(name, _)| name))
        .collect();
    let again = (1..names.len())
        .find(|&i| names[..i].contains(&names[i]))
        .expect("a name is declared twice");
    SortError::Redeclaration(names[again].clone())
}

/// One check in progress.
struct Check<'a> {
    arena: &'a TermArena,
    scope: Scope<'a>,
    /// The parameters of the `define-fun` whose body is being checked.
    params: &'a [(Symbol, Sort)],
    table: &'a mut SortTable,
    args: &'a mut Vec<S>,
    meanings: &'a mut Meanings,
    /// Whether a placeholder was met since the flag was last cleared.
    placeholder: bool,
}

impl<'a> Check<'a> {
    fn commands(&mut self, script: &'a ArenaScript) -> Result<(), SortError> {
        for cmd in &script.commands {
            match cmd {
                ArenaCommand::DefineFun(_, params, ret, body) => {
                    // Meanings resolved under other parameters do not hold.
                    self.meanings.reset();
                    self.params = params;
                    let got = self.term(*body)?;
                    self.params = &[];
                    self.meanings.reset();
                    let want = self.table.intern(ret);
                    if got != want && !(got == INT && want == REAL) {
                        return Err(SortError::ArgSort {
                            op: "define-fun".into(),
                            index: 0,
                            expected: ret.to_string(),
                            got: self.table.sort(got).clone(),
                        });
                    }
                }
                ArenaCommand::Assert(t) => {
                    self.placeholder = false;
                    let got = match self.term(*t) {
                        Err(_) if self.arena.placeholder_count(*t) > 0 => {
                            return Err(SortError::PlaceholderPresent)
                        }
                        got => got?,
                    };
                    if self.placeholder {
                        return Err(SortError::PlaceholderPresent);
                    }
                    if got != BOOL {
                        return Err(SortError::ArgSort {
                            op: "assert".into(),
                            index: 0,
                            expected: "Bool".into(),
                            got: self.table.sort(got).clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn term(&mut self, id: TermId) -> Result<S, SortError> {
        let arena = self.arena;
        match arena.node(id) {
            ANode::Const(vi) => Ok(self.table.of_value(arena.value(vi))),
            ANode::Placeholder(_) => {
                self.placeholder = true;
                Ok(BOOL)
            }
            ANode::Var(sym) => self.var(sym),
            ANode::App(op, start, len) => {
                let mark = self.args.len();
                for &a in arena.args(start, len) {
                    let s = self.term(a)?;
                    self.args.push(s);
                }
                let got = app(arena.op(op), &self.args[mark..], self.table, self.scope);
                self.args.truncate(mark);
                got
            }
            ANode::Let(start, len, body) => {
                let binds = arena.let_binds(start, len);
                let mark = self.args.len();
                for &(_, value) in binds {
                    let s = self.term(value)?;
                    self.args.push(s);
                }
                let depth = self.meanings.shadowed.len();
                for (&(sym, _), &s) in binds.iter().zip(&self.args[mark..]) {
                    self.meanings.bind(sym, s);
                }
                self.args.truncate(mark);
                let got = self.term(body);
                self.meanings.unbind(depth);
                got
            }
            ANode::Quant(_, start, len, body) => {
                let depth = self.meanings.shadowed.len();
                for &(sym, sort) in arena.quant_vars(start, len) {
                    let s = self.table.intern(arena.sort(sort));
                    self.meanings.bind(sym, s);
                }
                let got = self.term(body)?;
                self.meanings.unbind(depth);
                if got != BOOL {
                    return Err(SortError::ArgSort {
                        op: "quantifier body".into(),
                        index: 0,
                        expected: "Bool".into(),
                        got: self.table.sort(got).clone(),
                    });
                }
                Ok(BOOL)
            }
        }
    }

    /// The sort of a variable occurrence: the innermost binder's, else the
    /// `define-fun` parameter's, else the declared constant's.
    fn var(&mut self, sym: SymbolId) -> Result<S, SortError> {
        let mut meaning = self.meanings.get(sym);
        if meaning == UNRESOLVED {
            let name = self.arena.symbol(sym);
            let sort = match self.params.iter().rev().find(|(p, _)| p == name) {
                Some((_, sort)) => Some(sort),
                None => self
                    .scope
                    .find(name)
                    .filter(|sig| sig.arity() == 0)
                    .map(Sig::ret),
            };
            meaning = sort.map_or(UNKNOWN, |sort| self.table.intern(sort).0);
            self.meanings.set(sym, meaning);
        }
        if meaning == UNKNOWN {
            return Err(SortError::UnknownSymbol(self.arena.symbol(sym).clone()));
        }
        Ok(S(meaning))
    }
}

fn numeric(s: S) -> bool {
    s == INT || s == REAL
}

/// Joins numeric sorts: any Real makes the result Real.
fn numeric_join(op: &Op, args: &[S], t: &SortTable) -> Result<S, SortError> {
    let mut out = INT;
    for (i, &s) in args.iter().enumerate() {
        if !numeric(s) {
            return Err(arg_err(op, i, "Int or Real", t.sort(s)));
        }
        if s == REAL {
            out = REAL;
        }
    }
    Ok(out)
}

#[cold]
fn arity_err(op: &Op, expected: &str, got: usize) -> SortError {
    SortError::Arity {
        op: op.to_string(),
        expected: expected.into(),
        got,
    }
}

#[cold]
fn arg_err(op: &Op, index: usize, expected: impl Into<String>, got: &Sort) -> SortError {
    SortError::ArgSort {
        op: op.to_string(),
        index,
        expected: expected.into(),
        got: got.clone(),
    }
}

#[cold]
fn bad_index(op: &Op, reason: String) -> SortError {
    SortError::BadIndex {
        op: op.to_string(),
        reason,
    }
}

#[cold]
fn bad_relation(op: &Op, reason: String) -> SortError {
    SortError::BadRelation {
        op: op.to_string(),
        reason,
    }
}

fn expect_exact(op: &Op, args: &[S], n: usize) -> Result<(), SortError> {
    if args.len() != n {
        Err(arity_err(op, &format!("exactly {n}"), args.len()))
    } else {
        Ok(())
    }
}

fn expect_at_least(op: &Op, args: &[S], n: usize) -> Result<(), SortError> {
    if args.len() < n {
        Err(arity_err(op, &format!("at least {n}"), args.len()))
    } else {
        Ok(())
    }
}

/// Every argument has sort `want`; `sig` gives `want` per position.
fn expect_sig(
    op: &Op,
    args: &[S],
    sig: impl Fn(usize) -> S,
    t: &SortTable,
) -> Result<(), SortError> {
    for (i, &got) in args.iter().enumerate() {
        let want = sig(i);
        if got != want {
            return Err(arg_err(op, i, t.sort(want).to_string(), t.sort(got)));
        }
    }
    Ok(())
}

fn expect_all(op: &Op, args: &[S], want: S, t: &SortTable) -> Result<(), SortError> {
    expect_sig(op, args, |_| want, t)
}

fn check_sig(op: &Op, args: &[S], want: &[S], t: &SortTable) -> Result<(), SortError> {
    expect_sig(op, args, |i| want[i], t)
}

fn check_tail_ints(op: &Op, args: &[S], t: &SortTable) -> Result<(), SortError> {
    for (i, &s) in args.iter().enumerate().skip(1) {
        if s != INT {
            return Err(arg_err(op, i, "Int", t.sort(s)));
        }
    }
    Ok(())
}

/// The common width of bit-vector arguments.
fn same_bv_width(op: &Op, args: &[S], t: &SortTable) -> Result<u32, SortError> {
    let mut width = None;
    for (i, &s) in args.iter().enumerate() {
        match t.shape(s) {
            Shape::BitVec(w) => match width {
                None => width = Some(w),
                Some(prev) if prev != w => {
                    return Err(SortError::WidthMismatch {
                        op: op.to_string(),
                        left: prev,
                        right: w,
                    })
                }
                _ => {}
            },
            _ => return Err(arg_err(op, i, "a bit-vector", t.sort(s))),
        }
    }
    width.ok_or_else(|| arity_err(op, "at least 1", 0))
}

/// Checks that finite-field arguments share a modulus; the result is
/// their sort.
fn same_ff_modulus(op: &Op, args: &[S], t: &SortTable) -> Result<S, SortError> {
    let mut modulus = None;
    for (i, &s) in args.iter().enumerate() {
        match t.shape(s) {
            Shape::FiniteField(p) => match modulus {
                None => modulus = Some(p),
                Some(prev) if prev != p => {
                    return Err(arg_err(op, i, format!("(_ FiniteField {prev})"), t.sort(s)))
                }
                _ => {}
            },
            _ => return Err(arg_err(op, i, "a finite-field element", t.sort(s))),
        }
    }
    modulus
        .map(|_| args[0])
        .ok_or_else(|| arity_err(op, "at least 1", 0))
}

/// A collection sort constructor.
#[derive(Clone, Copy)]
enum Coll {
    Seq,
    Set,
    Bag,
}

/// The element sort of argument `index`, a collection of `kind`.
fn elem(op: &Op, index: usize, s: S, kind: Coll, t: &SortTable) -> Result<S, SortError> {
    match (t.shape(s), kind) {
        (Shape::Seq(e), Coll::Seq) | (Shape::Set(e), Coll::Set) | (Shape::Bag(e), Coll::Bag) => {
            Ok(e)
        }
        _ => {
            let expected = match kind {
                Coll::Seq => "a sequence",
                Coll::Set => "a set",
                Coll::Bag => "a bag",
            };
            Err(arg_err(op, index, expected, t.sort(s)))
        }
    }
}

/// The spelling of the collection sort `kind` of `e`, for messages.
#[cold]
fn collection(kind: Coll, e: S, t: &SortTable) -> String {
    let e = t.sort(e).clone();
    match kind {
        Coll::Seq => Sort::seq(e),
        Coll::Set => Sort::set(e),
        Coll::Bag => Sort::bag(e),
    }
    .to_string()
}

/// Every argument is a collection of `kind` with the first one's
/// elements; the result is the first argument's sort.
fn same_elems(op: &Op, args: &[S], kind: Coll, t: &SortTable) -> Result<S, SortError> {
    let first = elem(op, 0, args[0], kind, t)?;
    for (i, &s) in args.iter().enumerate().skip(1) {
        if elem(op, i, s, kind, t)? != first {
            return Err(arg_err(op, i, collection(kind, first, t), t.sort(s)));
        }
    }
    Ok(args[0])
}

/// `args[0]` and `args[1]` are collections of `kind` with the same
/// elements.
fn same_pair(op: &Op, args: &[S], kind: Coll, t: &SortTable) -> Result<(), SortError> {
    let a = elem(op, 0, args[0], kind, t)?;
    let b = elem(op, 1, args[1], kind, t)?;
    if a != b {
        return Err(arg_err(op, 1, collection(kind, a, t), t.sort(args[1])));
    }
    Ok(())
}

/// `args[0]` is an element of the collection `args[1]` of `kind`.
fn member(op: &Op, args: &[S], kind: Coll, t: &SortTable) -> Result<(), SortError> {
    let e = elem(op, 1, args[1], kind, t)?;
    if args[0] != e {
        return Err(arg_err(op, 0, t.sort(e).to_string(), t.sort(args[0])));
    }
    Ok(())
}

/// The column sorts of relation argument `index`, a span of
/// [`SortTable::elems`].
fn relation_arity(op: &Op, index: usize, s: S, t: &SortTable) -> Result<(u32, u32), SortError> {
    match t.shape(s) {
        Shape::Set(inner) => match t.shape(inner) {
            Shape::Tuple(start, len) => Ok((start, len)),
            _ => Err(bad_relation(
                op,
                format!(
                    "argument {index} is a set of {}, not of tuples",
                    t.sort(inner)
                ),
            )),
        },
        _ => Err(arg_err(op, index, "a relation (set of tuples)", t.sort(s))),
    }
}

/// Computes the result sort of an operator applied to argument sorts:
/// the single source of truth for the operator typing discipline.
fn app(op: &Op, args: &[S], t: &mut SortTable, scope: Scope<'_>) -> Result<S, SortError> {
    use Op::*;
    match op {
        // ---- core ----
        Not => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, BOOL, t)?;
            Ok(BOOL)
        }
        And | Or | Xor => {
            expect_at_least(op, args, 1)?;
            expect_all(op, args, BOOL, t)?;
            Ok(BOOL)
        }
        Implies => {
            expect_at_least(op, args, 2)?;
            expect_all(op, args, BOOL, t)?;
            Ok(BOOL)
        }
        Eq | Distinct => {
            expect_at_least(op, args, 2)?;
            let first = args[0];
            for (i, &s) in args.iter().enumerate().skip(1) {
                if s != first && !(numeric(first) && numeric(s)) {
                    return Err(arg_err(op, i, t.sort(first).to_string(), t.sort(s)));
                }
            }
            Ok(BOOL)
        }
        Ite => {
            expect_exact(op, args, 3)?;
            if args[0] != BOOL {
                return Err(arg_err(op, 0, "Bool", t.sort(args[0])));
            }
            if args[1] == args[2] {
                Ok(args[1])
            } else if numeric(args[1]) && numeric(args[2]) {
                Ok(REAL)
            } else {
                Err(arg_err(op, 2, t.sort(args[1]).to_string(), t.sort(args[2])))
            }
        }

        // ---- arithmetic ----
        Add | Mul | Sub => {
            expect_at_least(op, args, 1)?;
            numeric_join(op, args, t)
        }
        Neg => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args, t)
        }
        IntDiv | Mod => {
            expect_exact(op, args, 2)?;
            expect_all(op, args, INT, t)?;
            Ok(INT)
        }
        RealDiv => {
            expect_at_least(op, args, 2)?;
            numeric_join(op, args, t)?;
            Ok(REAL)
        }
        Abs => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, INT, t)?;
            Ok(INT)
        }
        Divisible(_) => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, INT, t)?;
            Ok(BOOL)
        }
        Le | Lt | Ge | Gt => {
            expect_at_least(op, args, 2)?;
            numeric_join(op, args, t)?;
            Ok(BOOL)
        }
        ToReal => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args, t)?;
            Ok(REAL)
        }
        ToInt => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args, t)?;
            Ok(INT)
        }
        IsInt => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args, t)?;
            Ok(BOOL)
        }

        // ---- bit-vectors (equal widths: the result is the first
        // argument's sort) ----
        BvNot | BvNeg | RotateLeft(_) | RotateRight(_) => {
            expect_exact(op, args, 1)?;
            same_bv_width(op, args, t)?;
            Ok(args[0])
        }
        BvAnd | BvOr | BvXor | BvNand | BvNor | BvAdd | BvSub | BvMul => {
            expect_at_least(op, args, 2)?;
            same_bv_width(op, args, t)?;
            Ok(args[0])
        }
        BvUdiv | BvUrem | BvSdiv | BvSrem | BvShl | BvLshr | BvAshr => {
            expect_exact(op, args, 2)?;
            same_bv_width(op, args, t)?;
            Ok(args[0])
        }
        BvUlt | BvUle | BvUgt | BvUge | BvSlt | BvSle | BvSgt | BvSge => {
            expect_exact(op, args, 2)?;
            same_bv_width(op, args, t)?;
            Ok(BOOL)
        }
        Concat => {
            expect_at_least(op, args, 2)?;
            let mut total = 0u32;
            for (i, &s) in args.iter().enumerate() {
                match t.shape(s) {
                    Shape::BitVec(w) => total += w,
                    _ => return Err(arg_err(op, i, "a bit-vector", t.sort(s))),
                }
            }
            if total > 128 {
                return Err(bad_index(op, "concatenation wider than 128 bits".into()));
            }
            Ok(t.bit_vec(total))
        }
        Extract(i, j) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args, t)?;
            if i < j || *i >= w {
                return Err(bad_index(
                    op,
                    format!("extract [{i}:{j}] out of range for width {w}"),
                ));
            }
            Ok(t.bit_vec(i - j + 1))
        }
        ZeroExtend(k) | SignExtend(k) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args, t)?;
            if w + k > 128 {
                return Err(bad_index(op, "extension beyond 128 bits".into()));
            }
            Ok(t.bit_vec(w + k))
        }
        Repeat(k) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args, t)?;
            if *k == 0 || w.saturating_mul(*k) > 128 {
                return Err(bad_index(
                    op,
                    "repeat count must be >= 1 and result <= 128 bits".into(),
                ));
            }
            Ok(t.bit_vec(w * k))
        }

        // ---- strings ----
        StrConcat => {
            expect_at_least(op, args, 1)?;
            expect_all(op, args, STRING, t)?;
            Ok(STRING)
        }
        StrLen => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, STRING, t)?;
            Ok(INT)
        }
        StrAt => {
            expect_exact(op, args, 2)?;
            check_sig(op, args, &[STRING, INT], t)?;
            Ok(STRING)
        }
        StrSubstr => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[STRING, INT, INT], t)?;
            Ok(STRING)
        }
        StrContains | StrPrefixof | StrSuffixof => {
            expect_exact(op, args, 2)?;
            check_sig(op, args, &[STRING, STRING], t)?;
            Ok(BOOL)
        }
        StrIndexof => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[STRING, STRING, INT], t)?;
            Ok(INT)
        }
        StrReplace | StrReplaceAll => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[STRING, STRING, STRING], t)?;
            Ok(STRING)
        }
        StrLt | StrLe => {
            expect_at_least(op, args, 2)?;
            expect_all(op, args, STRING, t)?;
            Ok(BOOL)
        }
        StrToInt | StrToCode => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, STRING, t)?;
            Ok(INT)
        }
        StrFromInt | StrFromCode => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, INT, t)?;
            Ok(STRING)
        }
        StrIsDigit => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, STRING, t)?;
            Ok(BOOL)
        }

        // ---- sequences ----
        SeqUnit => {
            expect_exact(op, args, 1)?;
            Ok(t.make(Shape::Seq(args[0])))
        }
        SeqConcat => {
            expect_at_least(op, args, 1)?;
            same_elems(op, args, Coll::Seq, t)
        }
        SeqLen => {
            expect_exact(op, args, 1)?;
            elem(op, 0, args[0], Coll::Seq, t)?;
            Ok(INT)
        }
        SeqNth => {
            expect_exact(op, args, 2)?;
            let e = elem(op, 0, args[0], Coll::Seq, t)?;
            if args[1] != INT {
                return Err(arg_err(op, 1, "Int", t.sort(args[1])));
            }
            Ok(e)
        }
        SeqExtract => {
            expect_exact(op, args, 3)?;
            elem(op, 0, args[0], Coll::Seq, t)?;
            check_tail_ints(op, args, t)?;
            Ok(args[0])
        }
        SeqContains | SeqPrefixof | SeqSuffixof => {
            expect_exact(op, args, 2)?;
            same_pair(op, args, Coll::Seq, t)?;
            Ok(BOOL)
        }
        SeqIndexof => {
            expect_exact(op, args, 3)?;
            same_pair(op, args, Coll::Seq, t)?;
            if args[2] != INT {
                return Err(arg_err(op, 2, "Int", t.sort(args[2])));
            }
            Ok(INT)
        }
        SeqRev => {
            expect_exact(op, args, 1)?;
            elem(op, 0, args[0], Coll::Seq, t)?;
            Ok(args[0])
        }
        SeqUpdate => {
            expect_exact(op, args, 3)?;
            let a = elem(op, 0, args[0], Coll::Seq, t)?;
            if args[1] != INT {
                return Err(arg_err(op, 1, "Int", t.sort(args[1])));
            }
            if elem(op, 2, args[2], Coll::Seq, t)? != a {
                return Err(arg_err(op, 2, collection(Coll::Seq, a, t), t.sort(args[2])));
            }
            Ok(args[0])
        }
        SeqAt => {
            expect_exact(op, args, 2)?;
            elem(op, 0, args[0], Coll::Seq, t)?;
            if args[1] != INT {
                return Err(arg_err(op, 1, "Int", t.sort(args[1])));
            }
            Ok(args[0])
        }
        SeqReplace => {
            expect_exact(op, args, 3)?;
            same_elems(op, args, Coll::Seq, t)
        }

        // ---- sets & relations ----
        SetUnion | SetInter | SetMinus => {
            expect_at_least(op, args, 2)?;
            same_elems(op, args, Coll::Set, t)
        }
        SetMember => {
            expect_exact(op, args, 2)?;
            member(op, args, Coll::Set, t)?;
            Ok(BOOL)
        }
        SetSubset => {
            expect_exact(op, args, 2)?;
            same_pair(op, args, Coll::Set, t)?;
            Ok(BOOL)
        }
        SetInsert => {
            expect_at_least(op, args, 2)?;
            let (last, elems) = args.split_last().expect("at least 2");
            let e = elem(op, elems.len(), *last, Coll::Set, t)?;
            expect_all(op, elems, e, t)?;
            Ok(*last)
        }
        SetSingleton => {
            expect_exact(op, args, 1)?;
            Ok(t.make(Shape::Set(args[0])))
        }
        SetCard => {
            expect_exact(op, args, 1)?;
            elem(op, 0, args[0], Coll::Set, t)?;
            Ok(INT)
        }
        SetComplement => {
            expect_exact(op, args, 1)?;
            elem(op, 0, args[0], Coll::Set, t)?;
            Ok(args[0])
        }
        RelJoin => {
            expect_exact(op, args, 2)?;
            let a = relation_arity(op, 0, args[0], t)?;
            let b = relation_arity(op, 1, args[1], t)?;
            if a.1 == 0 || b.1 == 0 {
                return Err(bad_relation(
                    op,
                    "join requires non-nullary relations".into(),
                ));
            }
            let (a_last, b_first) = (t.elems(a.0, a.1)[a.1 as usize - 1], t.elems(b.0, b.1)[0]);
            if a_last != b_first {
                return Err(bad_relation(
                    op,
                    format!(
                        "join column sorts differ: {} vs {}",
                        t.sort(a_last),
                        t.sort(b_first)
                    ),
                ));
            }
            Ok(t.relation(|t, parts| {
                parts.extend_from_slice(&t.elems(a.0, a.1)[..a.1 as usize - 1]);
                parts.extend_from_slice(&t.elems(b.0, b.1)[1..]);
            }))
        }
        RelProduct => {
            expect_exact(op, args, 2)?;
            let a = relation_arity(op, 0, args[0], t)?;
            let b = relation_arity(op, 1, args[1], t)?;
            Ok(t.relation(|t, parts| {
                parts.extend_from_slice(t.elems(a.0, a.1));
                parts.extend_from_slice(t.elems(b.0, b.1));
            }))
        }
        RelTranspose => {
            expect_exact(op, args, 1)?;
            let a = relation_arity(op, 0, args[0], t)?;
            Ok(t.relation(|t, parts| parts.extend(t.elems(a.0, a.1).iter().rev())))
        }

        // ---- bags ----
        BagMake => {
            expect_exact(op, args, 2)?;
            if args[1] != INT {
                return Err(arg_err(op, 1, "Int", t.sort(args[1])));
            }
            Ok(t.make(Shape::Bag(args[0])))
        }
        BagUnionMax | BagUnionDisjoint | BagInterMin | BagDiffSubtract => {
            expect_at_least(op, args, 2)?;
            same_elems(op, args, Coll::Bag, t)
        }
        BagCount => {
            expect_exact(op, args, 2)?;
            member(op, args, Coll::Bag, t)?;
            Ok(INT)
        }
        BagCard => {
            expect_exact(op, args, 1)?;
            elem(op, 0, args[0], Coll::Bag, t)?;
            Ok(INT)
        }
        BagMember => {
            expect_exact(op, args, 2)?;
            member(op, args, Coll::Bag, t)?;
            Ok(BOOL)
        }
        BagSubbag => {
            expect_exact(op, args, 2)?;
            same_pair(op, args, Coll::Bag, t)?;
            Ok(BOOL)
        }

        // ---- finite fields ----
        FfAdd | FfMul => {
            expect_at_least(op, args, 2)?;
            same_ff_modulus(op, args, t)
        }
        FfNeg => {
            expect_exact(op, args, 1)?;
            same_ff_modulus(op, args, t)
        }
        FfBitsum => {
            expect_at_least(op, args, 1)?;
            same_ff_modulus(op, args, t)
        }

        // ---- arrays ----
        Select => {
            expect_exact(op, args, 2)?;
            match t.shape(args[0]) {
                Shape::Array(k, v) => {
                    if args[1] != k {
                        return Err(arg_err(op, 1, t.sort(k).to_string(), t.sort(args[1])));
                    }
                    Ok(v)
                }
                _ => Err(arg_err(op, 0, "an array", t.sort(args[0]))),
            }
        }
        Store => {
            expect_exact(op, args, 3)?;
            match t.shape(args[0]) {
                Shape::Array(k, v) => {
                    if args[1] != k {
                        return Err(arg_err(op, 1, t.sort(k).to_string(), t.sort(args[1])));
                    }
                    if args[2] != v {
                        return Err(arg_err(op, 2, t.sort(v).to_string(), t.sort(args[2])));
                    }
                    Ok(args[0])
                }
                _ => Err(arg_err(op, 0, "an array", t.sort(args[0]))),
            }
        }
        ConstArray(sort) => {
            expect_exact(op, args, 1)?;
            match sort {
                Sort::Array(_, v) => {
                    if t.sort(args[0]) != &**v {
                        return Err(arg_err(op, 0, v.to_string(), t.sort(args[0])));
                    }
                    Ok(t.intern(sort))
                }
                other => Err(bad_index(
                    op,
                    format!("'as const' annotated with non-array sort {other}"),
                )),
            }
        }

        // ---- tuples ----
        MkTuple => Ok(t.tuple(args)),
        TupleSelect(i) => {
            expect_exact(op, args, 1)?;
            match t.shape(args[0]) {
                Shape::Tuple(start, len) => t
                    .elems(start, len)
                    .get(*i as usize)
                    .copied()
                    .ok_or_else(|| {
                        bad_index(op, format!("tuple index {i} out of range for arity {len}"))
                    }),
                _ => Err(arg_err(op, 0, "a tuple", t.sort(args[0]))),
            }
        }

        // ---- uninterpreted functions ----
        Uf(name) => {
            let sig = scope
                .find(name)
                .ok_or_else(|| SortError::UnknownSymbol(name.clone()))?;
            if sig.arity() != args.len() {
                return Err(arity_err(
                    op,
                    &format!("exactly {}", sig.arity()),
                    args.len(),
                ));
            }
            for (i, &got) in args.iter().enumerate() {
                if t.sort(got) != sig.arg(i) {
                    return Err(arg_err(op, i, sig.arg(i).to_string(), t.sort(got)));
                }
            }
            Ok(t.intern(sig.ret()))
        }
    }
}

/// The sort of a value (re-exported convenience used by solver frontends).
pub fn sort_of_value(v: &Value) -> Sort {
    v.sort()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_script;

    fn check(text: &str) -> Result<SortContext, SortError> {
        check_script(&parse_script(text).expect("parse"))
    }

    #[test]
    fn accepts_well_sorted_scripts() {
        check(
            "(declare-const x Int)(declare-const b Bool)\
             (assert (and b (> x 0) (= (mod x 3) 1)))(check-sat)",
        )
        .unwrap();
    }

    #[test]
    fn figure1_formula_checks() {
        check(
            "(declare-fun s () (Seq Int))\
             (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) \
             (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))(check-sat)",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unknown_symbol() {
        let err = check("(assert (> x 0))").unwrap_err();
        assert!(matches!(err, SortError::UnknownSymbol(_)));
    }

    #[test]
    fn rejects_redeclaration() {
        let err = check("(declare-const x Int)(declare-const x Bool)").unwrap_err();
        assert!(matches!(err, SortError::Redeclaration(_)));
    }

    #[test]
    fn rejects_bitwidth_mismatch() {
        let err = check(
            "(declare-const a (_ BitVec 8))(declare-const b (_ BitVec 16))\
             (assert (= a (bvadd a b)))",
        )
        .unwrap_err();
        assert!(matches!(err, SortError::WidthMismatch { .. }));
    }

    #[test]
    fn rejects_bad_extract() {
        let err =
            check("(declare-const a (_ BitVec 8))(assert (= ((_ extract 9 0) a) a))").unwrap_err();
        assert!(matches!(err, SortError::BadIndex { .. }));
    }

    #[test]
    fn rejects_nullary_join() {
        // The cvc5 #11903 scenario: joining relations over UnitTuple.
        let err = check(
            "(declare-fun s () (Set UnitTuple))\
             (assert (set.subset (rel.join s (as set.empty (Set UnitTuple))) s))",
        )
        .unwrap_err();
        match err {
            SortError::BadRelation { reason, .. } => {
                assert!(reason.contains("non-nullary"));
            }
            other => panic!("expected BadRelation, got {other:?}"),
        }
    }

    #[test]
    fn join_arity_computation() {
        let ctx = check(
            "(declare-fun r1 () (Relation Int Bool))\
             (declare-fun r2 () (Relation Bool String))\
             (assert (= (rel.join r1 r2) (rel.join r1 r2)))",
        )
        .unwrap();
        // (Relation Int Bool) ⋈ (Relation Bool String) : (Relation Int String)
        let t = crate::parse_term("(rel.join r1 r2)").unwrap();
        let s = check_term(&t, &ctx).unwrap();
        assert_eq!(s, Sort::set(Sort::Tuple(vec![Sort::Int, Sort::String])));
    }

    #[test]
    fn numeric_coercion_allowed() {
        check(
            "(declare-const r Real)\
             (assert (and (< r 1) (= (+ r 1.0) 2) (> 0.5 (/ 1 4))))",
        )
        .unwrap();
    }

    #[test]
    fn assert_must_be_bool() {
        let err = check("(assert (+ 1 2))").unwrap_err();
        assert!(matches!(err, SortError::ArgSort { .. }));
    }

    #[test]
    fn placeholders_rejected_in_finished_scripts() {
        let mut script = parse_script("(declare-const b Bool)(check-sat)").unwrap();
        script
            .commands
            .insert(1, Command::Assert(Term::Placeholder(0)));
        let err = check_script(&script).unwrap_err();
        assert!(matches!(err, SortError::PlaceholderPresent));
    }

    #[test]
    fn uf_applications_checked() {
        check(
            "(declare-fun f (Int Bool) Int)(declare-const x Int)\
             (assert (= (f x true) 0))",
        )
        .unwrap();
        let err = check("(declare-fun f (Int Bool) Int)(assert (= (f true true) 0))").unwrap_err();
        assert!(matches!(err, SortError::ArgSort { .. }));
        let err = check("(declare-fun f (Int) Int)(assert (= (f) 0))").unwrap_err();
        assert!(matches!(err, SortError::Arity { .. }));
    }

    #[test]
    fn define_fun_body_checked() {
        check("(define-fun inc ((x Int)) Int (+ x 1))(assert (= (inc 1) 2))").unwrap();
        let err = check("(define-fun bad ((x Int)) Bool (+ x 1))").unwrap_err();
        assert!(matches!(err, SortError::ArgSort { .. }));
    }

    #[test]
    fn ff_modulus_mismatch_rejected() {
        let err = check(
            "(declare-const a (_ FiniteField 3))(declare-const b (_ FiniteField 5))\
             (assert (= a (ff.add a b)))",
        )
        .unwrap_err();
        assert!(matches!(err, SortError::ArgSort { .. }));
    }

    #[test]
    fn quantifier_body_must_be_bool() {
        let err = check("(assert (forall ((x Int)) (+ x 1)))").unwrap_err();
        assert!(matches!(err, SortError::ArgSort { .. }));
    }

    #[test]
    fn let_shadowing_types() {
        check(
            "(declare-const x Bool)\
             (assert (let ((x 5)) (= x 5)))",
        )
        .unwrap();
    }

    #[test]
    fn tuple_select_bounds() {
        let err = check(
            "(declare-const t (Tuple Int Bool))\
             (assert ((_ tuple.select 5) t))",
        )
        .unwrap_err();
        assert!(matches!(err, SortError::BadIndex { .. }));
    }
}

//! Arena-allocated terms: the zero-copy substrate for the fuzzer's
//! mutation→print→eval inner loop.
//!
//! A [`TermArena`] stores term nodes in one flat `Vec` addressed by `u32`
//! [`TermId`]s; children live as contiguous id slices in side tables, and
//! symbols/sorts/operators are interned once into small copyable ids
//! ([`SymbolId`]/[`SortId`]/[`OpId`]). Building a term is a bump append,
//! dropping a case is [`TermArena::reset`] (which keeps the interner tables
//! warm), and printing walks ids iteratively into a caller-supplied reusable
//! `String` — no per-node boxing, no per-node `format!`, no recursion.
//!
//! ## Determinism
//!
//! The arena printer reproduces the boxed [`Term`]/[`Script`] `Display`
//! output byte for byte (property-tested in `tests/round_trip.rs`), and
//! [`TermArena::extract_term`]/[`TermArena::intern_term`] convert losslessly
//! in both directions, so every downstream hash, cache key, and journal sees
//! exactly the text it saw before the arena existed.

use crate::{Command, Op, Quantifier, Script, Sort, Symbol, Term, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Index of a term node in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an interned [`Symbol`] in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymbolId(u32);

/// Index of an interned [`Sort`] in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SortId(u32);

/// Index of an interned [`Op`] in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(u32);

/// One arena term node. Child collections are `(start, len)` spans into the
/// arena's side tables, so the node itself stays `Copy` and 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ANode {
    /// A literal constant (index into the arena's value table).
    Const(u32),
    /// A variable or 0-ary function occurrence.
    Var(SymbolId),
    /// An operator application; children span.
    App(OpId, u32, u32),
    /// `(let (binds) body)`; bind span.
    Let(u32, u32, TermId),
    /// `(forall/exists (vars) body)`; var span.
    Quant(Quantifier, u32, u32, TermId),
    /// A skeleton placeholder with its index.
    Placeholder(u32),
}

/// The term arena: flat node storage plus interner tables.
///
/// # Examples
///
/// ```
/// use o4a_smtlib::{Op, TermArena, Value};
/// let mut arena = TermArena::new();
/// let x = arena.mk_var_named("x");
/// let one = arena.mk_const(Value::Int(1));
/// let eq = arena.mk_app_op(&Op::Eq, &[x, one]);
/// let mut buf = String::new();
/// arena.print_term_into(eq, &mut buf);
/// assert_eq!(buf, "(= x 1)");
/// assert_eq!(arena.term_size(eq), 3);
/// ```
#[derive(Default)]
pub struct TermArena {
    nodes: Vec<ANode>,
    children: Vec<TermId>,
    binds: Vec<(SymbolId, TermId)>,
    qvars: Vec<(SymbolId, SortId)>,
    values: Vec<Value>,
    // Interner tables; these persist across `reset` so steady-state cases
    // re-use every symbol/sort/op they have seen before.
    symbols: Vec<Symbol>,
    symbol_ids: HashMap<Symbol, SymbolId>,
    sorts: Vec<Sort>,
    sort_ids: HashMap<Sort, SortId>,
    ops: Vec<Op>,
    op_ids: HashMap<Op, OpId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Clears all term nodes while keeping the symbol/sort/op interner tables
    /// warm. Every outstanding [`TermId`] is invalidated.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.children.clear();
        self.binds.clear();
        self.qvars.clear();
        self.values.clear();
    }

    /// Number of live term nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no term has been built since the last reset.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- interning ----

    /// Interns a symbol by name.
    pub fn sym(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.symbol_ids.get(name) {
            return id;
        }
        self.intern_symbol(Symbol::new(name))
    }

    /// Interns an existing symbol.
    pub fn sym_of(&mut self, s: &Symbol) -> SymbolId {
        if let Some(&id) = self.symbol_ids.get(s.as_str()) {
            return id;
        }
        self.intern_symbol(s.clone())
    }

    fn intern_symbol(&mut self, s: Symbol) -> SymbolId {
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(s.clone());
        self.symbol_ids.insert(s, id);
        id
    }

    /// The symbol behind an id.
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// Interns a sort (cloning it on first sight).
    pub fn sort_id(&mut self, s: &Sort) -> SortId {
        if let Some(&id) = self.sort_ids.get(s) {
            return id;
        }
        let id = SortId(self.sorts.len() as u32);
        self.sorts.push(s.clone());
        self.sort_ids.insert(s.clone(), id);
        id
    }

    /// The sort behind an id.
    pub fn sort(&self, id: SortId) -> &Sort {
        &self.sorts[id.0 as usize]
    }

    /// Interns an operator (cloning it on first sight).
    pub fn op_id(&mut self, op: &Op) -> OpId {
        if let Some(&id) = self.op_ids.get(op) {
            return id;
        }
        let id = OpId(self.ops.len() as u32);
        self.ops.push(op.clone());
        self.op_ids.insert(op.clone(), id);
        id
    }

    /// The operator behind an id.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }

    // ---- construction ----

    fn push(&mut self, n: ANode) -> TermId {
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    /// A constant node.
    pub fn mk_const(&mut self, v: Value) -> TermId {
        let vi = self.values.len() as u32;
        self.values.push(v);
        self.push(ANode::Const(vi))
    }

    /// A variable node.
    pub fn mk_var(&mut self, s: SymbolId) -> TermId {
        self.push(ANode::Var(s))
    }

    /// A variable node by name.
    pub fn mk_var_named(&mut self, name: &str) -> TermId {
        let s = self.sym(name);
        self.mk_var(s)
    }

    /// An application node; `args` are copied into the children table.
    pub fn mk_app(&mut self, op: OpId, args: &[TermId]) -> TermId {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(args);
        self.push(ANode::App(op, start, args.len() as u32))
    }

    /// An application node, interning the operator.
    pub fn mk_app_op(&mut self, op: &Op, args: &[TermId]) -> TermId {
        let op = self.op_id(op);
        self.mk_app(op, args)
    }

    /// A `let` node; `binds` are copied into the bind table.
    pub fn mk_let(&mut self, binds: &[(SymbolId, TermId)], body: TermId) -> TermId {
        let start = self.binds.len() as u32;
        self.binds.extend_from_slice(binds);
        self.push(ANode::Let(start, binds.len() as u32, body))
    }

    /// A quantifier node; `vars` are copied into the quantified-var table.
    pub fn mk_quant(&mut self, q: Quantifier, vars: &[(SymbolId, SortId)], body: TermId) -> TermId {
        let start = self.qvars.len() as u32;
        self.qvars.extend_from_slice(vars);
        self.push(ANode::Quant(q, start, vars.len() as u32, body))
    }

    /// A placeholder node.
    pub fn mk_placeholder(&mut self, idx: u32) -> TermId {
        self.push(ANode::Placeholder(idx))
    }

    // ---- inspection ----

    /// The node behind an id.
    pub fn node(&self, id: TermId) -> ANode {
        self.nodes[id.0 as usize]
    }

    /// The value behind a [`ANode::Const`] value index.
    pub fn value(&self, vi: u32) -> &Value {
        &self.values[vi as usize]
    }

    /// Application children for an `App` node's span.
    pub fn args(&self, start: u32, len: u32) -> &[TermId] {
        &self.children[start as usize..(start + len) as usize]
    }

    /// Let bindings for a `Let` node's span.
    pub fn let_binds(&self, start: u32, len: u32) -> &[(SymbolId, TermId)] {
        &self.binds[start as usize..(start + len) as usize]
    }

    /// Quantified variables for a `Quant` node's span.
    pub fn quant_vars(&self, start: u32, len: u32) -> &[(SymbolId, SortId)] {
        &self.qvars[start as usize..(start + len) as usize]
    }

    // ---- walks (all iterative: deep terms must not blow the stack) ----

    /// Number of AST nodes, matching [`Term::size`].
    pub fn term_size(&self, id: TermId) -> usize {
        let mut n = 0usize;
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            n += 1;
            match self.node(id) {
                ANode::App(_, s, l) => stack.extend_from_slice(self.args(s, l)),
                ANode::Let(s, l, body) => {
                    stack.push(body);
                    stack.extend(self.let_binds(s, l).iter().map(|&(_, t)| t));
                }
                ANode::Quant(_, _, _, body) => stack.push(body),
                _ => {}
            }
        }
        n
    }

    /// Number of placeholder nodes.
    pub fn placeholder_count(&self, id: TermId) -> usize {
        let mut n = 0usize;
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            match self.node(id) {
                ANode::Placeholder(_) => n += 1,
                ANode::App(_, s, l) => stack.extend_from_slice(self.args(s, l)),
                ANode::Let(s, l, body) => {
                    stack.push(body);
                    stack.extend(self.let_binds(s, l).iter().map(|&(_, t)| t));
                }
                ANode::Quant(_, _, _, body) => stack.push(body),
                _ => {}
            }
        }
        n
    }

    // ---- mutation (rebuild-if-changed: untouched subtrees keep their ids,
    // so mutation chains share structure instead of deep-cloning) ----

    /// Substitutes free occurrences of `from` with `to`, matching
    /// [`Term::rename_free_var`] exactly (capture-naive, bound occurrences
    /// respected). Returns the original id when nothing was renamed.
    pub fn rename_free_var(&mut self, id: TermId, from: &Symbol, to: &Symbol) -> TermId {
        let from = self.sym_of(from);
        let to = self.sym_of(to);
        let mut bound = Vec::new();
        self.rename_rec(id, from, to, &mut bound)
    }

    fn rename_rec(
        &mut self,
        id: TermId,
        from: SymbolId,
        to: SymbolId,
        bound: &mut Vec<SymbolId>,
    ) -> TermId {
        match self.node(id) {
            ANode::Var(s) if s == from && !bound.contains(&from) => self.mk_var(to),
            ANode::Var(_) | ANode::Const(_) | ANode::Placeholder(_) => id,
            ANode::App(op, start, len) => {
                let kids = self.args(start, len).to_vec();
                let new: Vec<TermId> = kids
                    .iter()
                    .map(|&k| self.rename_rec(k, from, to, bound))
                    .collect();
                if new == kids {
                    id
                } else {
                    self.mk_app(op, &new)
                }
            }
            ANode::Let(start, len, body) => {
                let binds = self.let_binds(start, len).to_vec();
                let new_binds: Vec<(SymbolId, TermId)> = binds
                    .iter()
                    .map(|&(s, v)| (s, self.rename_rec(v, from, to, bound)))
                    .collect();
                let n = bound.len();
                bound.extend(binds.iter().map(|&(s, _)| s));
                let new_body = self.rename_rec(body, from, to, bound);
                bound.truncate(n);
                if new_body == body && new_binds == binds {
                    id
                } else {
                    self.mk_let(&new_binds, new_body)
                }
            }
            ANode::Quant(q, start, len, body) => {
                let vars = self.quant_vars(start, len).to_vec();
                let n = bound.len();
                bound.extend(vars.iter().map(|&(s, _)| s));
                let new_body = self.rename_rec(body, from, to, bound);
                bound.truncate(n);
                if new_body == body {
                    id
                } else {
                    self.mk_quant(q, &vars, new_body)
                }
            }
        }
    }

    /// Replaces placeholder nodes round-robin with `fills`, advancing
    /// `next` once per replacement; placeholders are visited left to
    /// right, as [`Term::map_bottom_up`] visits leaves. With no fills,
    /// placeholders become `true`. Fill ids are shared, not cloned;
    /// printing expands them.
    pub fn fill_placeholders(&mut self, id: TermId, fills: &[TermId], next: &mut usize) -> TermId {
        match self.node(id) {
            ANode::Placeholder(_) => {
                if fills.is_empty() {
                    self.mk_const(Value::Bool(true))
                } else {
                    let t = fills[*next % fills.len()];
                    *next += 1;
                    t
                }
            }
            ANode::Var(_) | ANode::Const(_) => id,
            ANode::App(op, start, len) => {
                let kids = self.args(start, len).to_vec();
                let new: Vec<TermId> = kids
                    .iter()
                    .map(|&k| self.fill_placeholders(k, fills, next))
                    .collect();
                if new == kids {
                    id
                } else {
                    self.mk_app(op, &new)
                }
            }
            ANode::Let(start, len, body) => {
                let binds = self.let_binds(start, len).to_vec();
                let new_binds: Vec<(SymbolId, TermId)> = binds
                    .iter()
                    .map(|&(s, v)| (s, self.fill_placeholders(v, fills, next)))
                    .collect();
                let new_body = self.fill_placeholders(body, fills, next);
                if new_body == body && new_binds == binds {
                    id
                } else {
                    self.mk_let(&new_binds, new_body)
                }
            }
            ANode::Quant(q, start, len, body) => {
                let new_body = self.fill_placeholders(body, fills, next);
                if new_body == body {
                    id
                } else {
                    let vars = self.quant_vars(start, len).to_vec();
                    self.mk_quant(q, &vars, new_body)
                }
            }
        }
    }

    fn print_symbol(&self, id: SymbolId, out: &mut String) {
        let s = self.symbol(id);
        if s.needs_quoting() {
            out.push('|');
            out.push_str(s.as_str());
            out.push('|');
        } else {
            out.push_str(s.as_str());
        }
    }

    /// Prints a term into `out`, appending exactly the bytes the boxed
    /// [`Term`] `Display` impl would produce. Iterative; safe on terms of
    /// arbitrary depth.
    pub fn print_term_into(&self, id: TermId, out: &mut String) {
        enum It {
            T(TermId),
            S(&'static str),
            Sym(SymbolId),
            Srt(SortId),
        }
        let mut stack = vec![It::T(id)];
        while let Some(item) = stack.pop() {
            match item {
                It::S(s) => out.push_str(s),
                It::Sym(s) => self.print_symbol(s, out),
                It::Srt(s) => {
                    let _ = write!(out, "{}", self.sort(s));
                }
                It::T(id) => match self.node(id) {
                    ANode::Const(vi) => {
                        let _ = write!(out, "{}", self.value(vi));
                    }
                    ANode::Var(s) => self.print_symbol(s, out),
                    ANode::Placeholder(_) => out.push_str("<placeholder>"),
                    ANode::App(op, start, len) => {
                        let op = self.op(op);
                        if len == 0 {
                            match op {
                                Op::MkTuple => out.push_str("tuple.unit"),
                                other => {
                                    let _ = write!(out, "{other}");
                                }
                            }
                        } else {
                            out.push('(');
                            let _ = write!(out, "{op}");
                            stack.push(It::S(")"));
                            for &a in self.args(start, len).iter().rev() {
                                stack.push(It::T(a));
                                stack.push(It::S(" "));
                            }
                        }
                    }
                    ANode::Let(start, len, body) => {
                        out.push_str("(let (");
                        stack.push(It::S(")"));
                        stack.push(It::T(body));
                        stack.push(It::S(") "));
                        for (i, &(s, t)) in self.let_binds(start, len).iter().enumerate().rev() {
                            stack.push(It::S(")"));
                            stack.push(It::T(t));
                            stack.push(It::S(" "));
                            stack.push(It::Sym(s));
                            stack.push(It::S("("));
                            if i > 0 {
                                stack.push(It::S(" "));
                            }
                        }
                    }
                    ANode::Quant(q, start, len, body) => {
                        out.push('(');
                        let _ = write!(out, "{q}");
                        out.push_str(" (");
                        stack.push(It::S(")"));
                        stack.push(It::T(body));
                        stack.push(It::S(") "));
                        for (i, &(s, srt)) in self.quant_vars(start, len).iter().enumerate().rev() {
                            stack.push(It::S(")"));
                            stack.push(It::Srt(srt));
                            stack.push(It::S(" "));
                            stack.push(It::Sym(s));
                            stack.push(It::S("("));
                            if i > 0 {
                                stack.push(It::S(" "));
                            }
                        }
                    }
                },
            }
        }
    }

    // ---- conversions ----

    /// Builds an arena term from a boxed [`Term`].
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        match t {
            Term::Const(v) => self.mk_const(v.clone()),
            Term::Var(s) => {
                let s = self.sym_of(s);
                self.mk_var(s)
            }
            Term::Placeholder(i) => self.mk_placeholder(*i),
            Term::App(op, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| self.intern_term(a)).collect();
                self.mk_app_op(op, &ids)
            }
            Term::Let(binds, body) => {
                let bs: Vec<(SymbolId, TermId)> = binds
                    .iter()
                    .map(|(s, t)| {
                        let t = self.intern_term(t);
                        (self.sym_of(s), t)
                    })
                    .collect();
                let body = self.intern_term(body);
                self.mk_let(&bs, body)
            }
            Term::Quant(q, vars, body) => {
                let vs: Vec<(SymbolId, SortId)> = vars
                    .iter()
                    .map(|(s, sort)| {
                        let sid = self.sort_id(sort);
                        (self.sym_of(s), sid)
                    })
                    .collect();
                let body = self.intern_term(body);
                self.mk_quant(*q, &vs, body)
            }
        }
    }

    /// Rebuilds a boxed [`Term`] from an arena term.
    pub fn extract_term(&self, id: TermId) -> Term {
        match self.node(id) {
            ANode::Const(vi) => Term::Const(self.value(vi).clone()),
            ANode::Var(s) => Term::Var(self.symbol(s).clone()),
            ANode::Placeholder(i) => Term::Placeholder(i),
            ANode::App(op, start, len) => Term::App(
                self.op(op).clone(),
                self.args(start, len)
                    .iter()
                    .map(|&a| self.extract_term(a))
                    .collect(),
            ),
            ANode::Let(start, len, body) => Term::Let(
                self.let_binds(start, len)
                    .iter()
                    .map(|&(s, t)| (self.symbol(s).clone(), self.extract_term(t)))
                    .collect(),
                Box::new(self.extract_term(body)),
            ),
            ANode::Quant(q, start, len, body) => Term::Quant(
                q,
                self.quant_vars(start, len)
                    .iter()
                    .map(|&(s, srt)| (self.symbol(s).clone(), self.sort(srt).clone()))
                    .collect(),
                Box::new(self.extract_term(body)),
            ),
        }
    }
}

/// A single command of an [`ArenaScript`]: the [`Command`] shape with terms
/// as [`TermId`]s. Declarations keep boxed symbols/sorts — there are a
/// handful per script against hundreds of term nodes.
#[derive(Clone, Debug)]
pub enum ArenaCommand {
    /// `(set-logic L)`.
    SetLogic(String),
    /// `(set-option :k v)`.
    SetOption(String, String),
    /// `(set-info :k v)`.
    SetInfo(String, String),
    /// `(declare-const x S)`.
    DeclareConst(Symbol, Sort),
    /// `(declare-fun f (S1 ... Sn) S)`.
    DeclareFun(Symbol, Vec<Sort>, Sort),
    /// `(declare-sort S 0)`.
    DeclareSort(Symbol),
    /// `(define-fun f ((x S) ...) S body)`.
    DefineFun(Symbol, Vec<(Symbol, Sort)>, Sort, TermId),
    /// `(assert t)`.
    Assert(TermId),
    /// `(check-sat)`.
    CheckSat,
    /// `(get-model)`.
    GetModel,
    /// `(get-value (t ...))`.
    GetValue(Vec<TermId>),
    /// `(push n)`.
    Push(u32),
    /// `(pop n)`.
    Pop(u32),
    /// `(exit)`.
    Exit,
}

/// A script whose terms live in a [`TermArena`].
#[derive(Clone, Debug, Default)]
pub struct ArenaScript {
    /// The commands in file order.
    pub commands: Vec<ArenaCommand>,
}

impl ArenaScript {
    /// Creates an empty script.
    pub fn new() -> ArenaScript {
        ArenaScript::default()
    }

    /// Builds an arena script from a boxed [`Script`].
    pub fn from_script(script: &Script, arena: &mut TermArena) -> ArenaScript {
        let commands = script
            .commands
            .iter()
            .map(|c| match c {
                Command::SetLogic(l) => ArenaCommand::SetLogic(l.clone()),
                Command::SetOption(k, v) => ArenaCommand::SetOption(k.clone(), v.clone()),
                Command::SetInfo(k, v) => ArenaCommand::SetInfo(k.clone(), v.clone()),
                Command::DeclareConst(s, sort) => {
                    ArenaCommand::DeclareConst(s.clone(), sort.clone())
                }
                Command::DeclareFun(s, args, ret) => {
                    ArenaCommand::DeclareFun(s.clone(), args.clone(), ret.clone())
                }
                Command::DeclareSort(s) => ArenaCommand::DeclareSort(s.clone()),
                Command::DefineFun(s, params, ret, body) => ArenaCommand::DefineFun(
                    s.clone(),
                    params.clone(),
                    ret.clone(),
                    arena.intern_term(body),
                ),
                Command::Assert(t) => ArenaCommand::Assert(arena.intern_term(t)),
                Command::CheckSat => ArenaCommand::CheckSat,
                Command::GetModel => ArenaCommand::GetModel,
                Command::GetValue(ts) => {
                    ArenaCommand::GetValue(ts.iter().map(|t| arena.intern_term(t)).collect())
                }
                Command::Push(n) => ArenaCommand::Push(*n),
                Command::Pop(n) => ArenaCommand::Pop(*n),
                Command::Exit => ArenaCommand::Exit,
            })
            .collect();
        ArenaScript { commands }
    }

    /// Rebuilds a boxed [`Script`].
    pub fn to_script(&self, arena: &TermArena) -> Script {
        let commands = self
            .commands
            .iter()
            .map(|c| match c {
                ArenaCommand::SetLogic(l) => Command::SetLogic(l.clone()),
                ArenaCommand::SetOption(k, v) => Command::SetOption(k.clone(), v.clone()),
                ArenaCommand::SetInfo(k, v) => Command::SetInfo(k.clone(), v.clone()),
                ArenaCommand::DeclareConst(s, sort) => {
                    Command::DeclareConst(s.clone(), sort.clone())
                }
                ArenaCommand::DeclareFun(s, args, ret) => {
                    Command::DeclareFun(s.clone(), args.clone(), ret.clone())
                }
                ArenaCommand::DeclareSort(s) => Command::DeclareSort(s.clone()),
                ArenaCommand::DefineFun(s, params, ret, body) => Command::DefineFun(
                    s.clone(),
                    params.clone(),
                    ret.clone(),
                    arena.extract_term(*body),
                ),
                ArenaCommand::Assert(t) => Command::Assert(arena.extract_term(*t)),
                ArenaCommand::CheckSat => Command::CheckSat,
                ArenaCommand::GetModel => Command::GetModel,
                ArenaCommand::GetValue(ts) => {
                    Command::GetValue(ts.iter().map(|&t| arena.extract_term(t)).collect())
                }
                ArenaCommand::Push(n) => Command::Push(*n),
                ArenaCommand::Pop(n) => Command::Pop(*n),
                ArenaCommand::Exit => Command::Exit,
            })
            .collect();
        Script { commands }
    }

    /// Iterates over asserted terms.
    pub fn assertions(&self) -> impl Iterator<Item = TermId> + '_ {
        self.commands.iter().filter_map(|c| match c {
            ArenaCommand::Assert(t) => Some(*t),
            _ => None,
        })
    }

    /// Whether any assertion contains a placeholder.
    pub fn has_placeholders(&self, arena: &TermArena) -> bool {
        self.assertions().any(|t| arena.placeholder_count(t) > 0)
    }

    /// Ensures the script ends with `(check-sat)`, appending one if missing.
    pub fn ensure_check_sat(&mut self) {
        if !self
            .commands
            .iter()
            .any(|c| matches!(c, ArenaCommand::CheckSat))
        {
            self.commands.push(ArenaCommand::CheckSat);
        }
    }

    /// Prints the script into `out`, appending exactly the bytes the boxed
    /// [`Script`] `Display` impl would produce.
    pub fn print_into(&self, arena: &TermArena, out: &mut String) {
        for (i, c) in self.commands.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            match c {
                ArenaCommand::SetLogic(l) => {
                    let _ = write!(out, "(set-logic {l})");
                }
                ArenaCommand::SetOption(k, v) => {
                    let _ = write!(out, "(set-option :{k} {v})");
                }
                ArenaCommand::SetInfo(k, v) => {
                    let _ = write!(out, "(set-info :{k} {v})");
                }
                ArenaCommand::DeclareConst(s, sort) => {
                    let _ = write!(out, "(declare-const {s} {sort})");
                }
                ArenaCommand::DeclareFun(s, args, ret) => {
                    let _ = write!(out, "(declare-fun {s} (");
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{a}");
                    }
                    let _ = write!(out, ") {ret})");
                }
                ArenaCommand::DeclareSort(s) => {
                    let _ = write!(out, "(declare-sort {s} 0)");
                }
                ArenaCommand::DefineFun(s, params, ret, body) => {
                    let _ = write!(out, "(define-fun {s} (");
                    for (i, (p, sort)) in params.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "({p} {sort})");
                    }
                    let _ = write!(out, ") {ret} ");
                    arena.print_term_into(*body, out);
                    out.push(')');
                }
                ArenaCommand::Assert(t) => {
                    out.push_str("(assert ");
                    arena.print_term_into(*t, out);
                    out.push(')');
                }
                ArenaCommand::CheckSat => out.push_str("(check-sat)"),
                ArenaCommand::GetModel => out.push_str("(get-model)"),
                ArenaCommand::GetValue(ts) => {
                    out.push_str("(get-value (");
                    for (i, &t) in ts.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        arena.print_term_into(t, out);
                    }
                    out.push_str("))");
                }
                ArenaCommand::Push(n) => {
                    let _ = write!(out, "(push {n})");
                }
                ArenaCommand::Pop(n) => {
                    let _ = write!(out, "(pop {n})");
                }
                ArenaCommand::Exit => out.push_str("(exit)"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_script;

    fn round_trip_text(text: &str) {
        let boxed = parse_script(text).expect("parse");
        let mut arena = TermArena::new();
        let script = ArenaScript::from_script(&boxed, &mut arena);
        let mut buf = String::new();
        script.print_into(&arena, &mut buf);
        assert_eq!(buf, boxed.to_string(), "arena print differs for {text}");
        assert_eq!(
            script.to_script(&arena),
            boxed,
            "extract differs for {text}"
        );
    }

    #[test]
    fn print_matches_display_on_examples() {
        for text in [
            "(set-logic QF_LIA)(declare-const x Int)(assert (> x 0))(check-sat)",
            "(declare-fun f (Int Bool) (Seq Int))(assert (= (seq.len (f 1 true)) 0))",
            "(define-fun g ((a Int) (b Int)) Int (+ a b))(assert (= (g 1 2) 3))",
            "(declare-const s (Set (Tuple Int Bool)))(assert (set.member (tuple 1 true) s))",
            "(assert (let ((a 1) (b 2)) (= a b)))",
            "(assert (forall ((x Int) (y Real)) (=> (> x 0) (> y 0.0))))",
            "(assert (exists ((f Int)) (distinct ((_ extract 7 0) #xff) (_ bv5 8))))",
            "(assert (= ((as const (Array Int Int)) 0) ((as const (Array Int Int)) 1)))",
            "(declare-const |quoted name| Bool)(assert |quoted name|)",
            "(get-value (x (+ x 1)))(push 1)(pop 1)(exit)",
        ] {
            round_trip_text(text);
        }
    }

    #[test]
    fn reset_keeps_interners_warm() {
        let mut arena = TermArena::new();
        let x = arena.mk_var_named("x");
        assert_eq!(arena.len(), 1);
        let syms_before = arena.symbols.len();
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!(arena.symbols.len(), syms_before);
        let x2 = arena.mk_var_named("x");
        assert_eq!(x, x2, "ids restart from zero after reset");
    }

    #[test]
    fn placeholder_prints_and_counts() {
        let mut arena = TermArena::new();
        let p = arena.mk_placeholder(0);
        let q = {
            let s = arena.sym("f");
            let sort = arena.sort_id(&Sort::Int);
            arena.mk_quant(Quantifier::Exists, &[(s, sort)], p)
        };
        let mut buf = String::new();
        arena.print_term_into(q, &mut buf);
        assert_eq!(buf, "(exists ((f Int)) <placeholder>)");
        assert_eq!(arena.placeholder_count(q), 1);
    }

    #[test]
    fn intern_extract_round_trip() {
        let t: Term = "(let ((a (+ 1 2))) (or (= a 3) (exists ((b Bool)) (and b (< a 4)))))"
            .parse()
            .unwrap();
        let mut arena = TermArena::new();
        let id = arena.intern_term(&t);
        assert_eq!(arena.extract_term(id), t);
        assert_eq!(arena.term_size(id), t.size());
        let mut buf = String::new();
        arena.print_term_into(id, &mut buf);
        assert_eq!(buf, t.to_string());
    }

    #[test]
    fn rename_free_var_matches_boxed() {
        let cases = [
            "(or (= x 0) (< x 1))",
            "(let ((x (+ x 1))) (= x 2))",
            "(exists ((x Int)) (= x y))",
            "(and (forall ((y Int)) (> y x)) (= x 5))",
            "(= z 0)",
        ];
        for src in cases {
            let t: Term = src.parse().unwrap();
            let from = Symbol::new("x");
            let to = Symbol::new("T");
            let boxed = t.rename_free_var(&from, &to);
            let mut arena = TermArena::new();
            let id = arena.intern_term(&t);
            let renamed = arena.rename_free_var(id, &from, &to);
            assert_eq!(arena.extract_term(renamed), boxed, "on {src}");
            // Rebuild-if-changed: a no-op rename keeps the id.
            let noop = arena.rename_free_var(id, &Symbol::new("zz"), &to);
            assert_eq!(noop, id, "on {src}");
        }
    }

    #[test]
    fn fill_placeholders_matches_boxed_round_robin() {
        // Built programmatically: `<placeholder>` deliberately does not
        // parse back (it lexes as a plain symbol).
        let t = Term::App(
            Op::And,
            vec![
                Term::Placeholder(0),
                Term::App(Op::Or, vec![Term::Placeholder(1), Term::Placeholder(2)]),
            ],
        );
        let fills: Vec<Term> = vec!["(> a 0)".parse().unwrap(), "(= b 1)".parse().unwrap()];
        let mut next_boxed = 0usize;
        let boxed = t.map_bottom_up(&mut |node| match node {
            Term::Placeholder(_) => {
                let f = fills[next_boxed % fills.len()].clone();
                next_boxed += 1;
                f
            }
            other => other,
        });
        let mut arena = TermArena::new();
        let id = arena.intern_term(&t);
        let fill_ids: Vec<TermId> = fills.iter().map(|f| arena.intern_term(f)).collect();
        let mut next = 0usize;
        let filled = arena.fill_placeholders(id, &fill_ids, &mut next);
        assert_eq!(arena.extract_term(filled), boxed);
        assert_eq!(next, next_boxed);
        // Empty fill list degrades placeholders to `true`.
        let mut n2 = 0usize;
        let trued = arena.fill_placeholders(id, &[], &mut n2);
        let mut buf = String::new();
        arena.print_term_into(trued, &mut buf);
        assert_eq!(buf, "(and true (or true true))");
    }
}

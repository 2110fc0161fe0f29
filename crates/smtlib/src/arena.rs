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
use std::cell::RefCell;
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

impl SymbolId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an interned [`Sort`] in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SortId(u32);

/// Index of an interned [`Op`] in a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(u32);

impl OpId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

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
#[derive(Clone, Default)]
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
    /// True when the tables were copied without their maps
    /// ([`TermArena::compact`], [`TermArena::load`]): the next interning
    /// call rebuilds the maps first.
    maps_stale: bool,
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermArena")
            .field("nodes", &self.nodes.len())
            .field("symbols", &self.symbols.len())
            .field("ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

/// Arenas are equal when their node and interned tables are: the interner
/// maps only index those tables.
impl PartialEq for TermArena {
    fn eq(&self, other: &TermArena) -> bool {
        self.nodes == other.nodes
            && self.children == other.children
            && self.binds == other.binds
            && self.qvars == other.qvars
            && self.values == other.values
            && self.symbols == other.symbols
            && self.sorts == other.sorts
            && self.ops == other.ops
    }
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
        self.ensure_maps();
        if let Some(&id) = self.symbol_ids.get(name) {
            return id;
        }
        self.intern_symbol(Symbol::new(name))
    }

    /// Interns an existing symbol.
    pub fn sym_of(&mut self, s: &Symbol) -> SymbolId {
        self.ensure_maps();
        if let Some(&id) = self.symbol_ids.get(s.as_str()) {
            return id;
        }
        self.intern_symbol(s.clone())
    }

    /// Rebuilds the interner maps of copied tables.
    fn ensure_maps(&mut self) {
        if !self.maps_stale {
            return;
        }
        self.maps_stale = false;
        self.symbol_ids.clear();
        self.sort_ids.clear();
        self.op_ids.clear();
        for (k, s) in self.symbols.iter().enumerate() {
            self.symbol_ids.insert(s.clone(), SymbolId(k as u32));
        }
        for (k, s) in self.sorts.iter().enumerate() {
            self.sort_ids.insert(s.clone(), SortId(k as u32));
        }
        for (k, op) in self.ops.iter().enumerate() {
            self.op_ids.insert(op.clone(), OpId(k as u32));
        }
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
        self.ensure_maps();
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

    /// Every interned sort, in id order.
    pub fn sorts(&self) -> &[Sort] {
        &self.sorts
    }

    /// Interns an operator (cloning it on first sight).
    pub fn op_id(&mut self, op: &Op) -> OpId {
        self.ensure_maps();
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

    /// Every interned operator, in id order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
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

    /// A quantifier node over the variables of quantifier node `like`,
    /// sharing its variable span.
    ///
    /// # Panics
    ///
    /// Panics when `like` is not a quantifier node.
    pub fn requant(&mut self, like: TermId, q: Quantifier, body: TermId) -> TermId {
        let ANode::Quant(_, start, len, _) = self.node(like) else {
            panic!("requant of a non-quantifier node");
        };
        self.push(ANode::Quant(q, start, len, body))
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
        self.visit(id, |_| n += 1);
        n
    }

    /// Calls `f` on every node of the term at `id`, pre-order. A subterm
    /// shared by several parents is visited once per parent, as in the
    /// boxed tree.
    pub fn visit(&self, id: TermId, mut f: impl FnMut(ANode)) {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            f(node);
            match node {
                ANode::App(_, s, l) => stack.extend(self.args(s, l).iter().rev()),
                ANode::Let(s, l, body) => {
                    stack.push(body);
                    stack.extend(self.let_binds(s, l).iter().rev().map(|&(_, t)| t));
                }
                ANode::Quant(_, _, _, body) => stack.push(body),
                _ => {}
            }
        }
    }

    /// Whether the terms at `a` and `b` are equal as boxed [`Term`]s: the
    /// same shape, operators, symbols and sorts, and equal [`Value`]s.
    pub fn same_term(&self, a: TermId, b: TermId) -> bool {
        let same = |x: &[TermId], y: &[TermId]| {
            x.len() == y.len() && x.iter().zip(y).all(|(&x, &y)| self.same_term(x, y))
        };
        let same_symbol = |x, y| self.symbol(x) == self.symbol(y);
        match (self.node(a), self.node(b)) {
            _ if a == b => true,
            (ANode::Const(x), ANode::Const(y)) => self.value(x) == self.value(y),
            (ANode::Var(x), ANode::Var(y)) => same_symbol(x, y),
            (ANode::Placeholder(i), ANode::Placeholder(j)) => i == j,
            (ANode::App(o, s, l), ANode::App(p, t, m)) => {
                self.op(o) == self.op(p) && same(self.args(s, l), self.args(t, m))
            }
            (ANode::Let(s, l, x), ANode::Let(t, m, y)) => {
                let (u, v) = (self.let_binds(s, l), self.let_binds(t, m));
                l == m
                    && u.iter()
                        .zip(v)
                        .all(|(&(p, x), &(q, y))| same_symbol(p, q) && self.same_term(x, y))
                    && self.same_term(x, y)
            }
            (ANode::Quant(q, s, l, x), ANode::Quant(r, t, m, y)) => {
                let (u, v) = (self.quant_vars(s, l), self.quant_vars(t, m));
                q == r
                    && l == m
                    && u.iter()
                        .zip(v)
                        .all(|(&(p, i), &(q, j))| same_symbol(p, q) && self.sort(i) == self.sort(j))
                    && self.same_term(x, y)
            }
            _ => false,
        }
    }

    /// Number of placeholder nodes.
    pub fn placeholder_count(&self, id: TermId) -> usize {
        let mut n = 0usize;
        self.visit(id, |node| {
            n += usize::from(matches!(node, ANode::Placeholder(_)))
        });
        n
    }

    // ---- mutation (copy-on-change: untouched subtrees keep their ids,
    // so mutation chains share structure instead of deep-cloning, and a
    // rewrite that changes nothing allocates nothing) ----

    /// Maps `len` items through `f` in order, copy-on-change. `item`
    /// reads item `i` from the arena before its call (the tables grow
    /// while `f` runs, so no slice of them is held). Returns `None`, with
    /// nothing allocated, when every item comes back unchanged; otherwise
    /// the mapped items, in a vector allocated at the first changed one.
    fn map_span<T: Copy + PartialEq>(
        &mut self,
        len: u32,
        item: impl Fn(&TermArena, u32) -> T,
        mut f: impl FnMut(&mut TermArena, T) -> T,
    ) -> Option<Vec<T>> {
        let mut changed: Option<Vec<T>> = None;
        for i in 0..len {
            let old = item(self, i);
            let new = f(self, old);
            match &mut changed {
                Some(items) => items.push(new),
                None if new != old => {
                    let mut items = Vec::with_capacity(len as usize);
                    items.extend((0..i).map(|j| item(self, j)));
                    items.push(new);
                    changed = Some(items);
                }
                None => {}
            }
        }
        changed
    }

    /// The application node `id` with each argument mapped through `f`,
    /// left to right, copy-on-change: `id` itself, with nothing
    /// allocated, when every argument comes back unchanged; otherwise a
    /// new node, built after the last call.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not an application node.
    pub fn map_args(
        &mut self,
        id: TermId,
        f: impl FnMut(&mut TermArena, TermId) -> TermId,
    ) -> TermId {
        let ANode::App(op, start, len) = self.node(id) else {
            panic!("map_args of a non-application node");
        };
        match self.map_span(len, |a, i| a.children[(start + i) as usize], f) {
            None => id,
            Some(args) => self.mk_app(op, &args),
        }
    }

    /// Maps the bound values of `let` node `id` through `f`, left to
    /// right, copy-on-change: `None` when none changed.
    fn map_let_values(
        &mut self,
        id: TermId,
        mut f: impl FnMut(&mut TermArena, TermId) -> TermId,
    ) -> Option<Vec<(SymbolId, TermId)>> {
        let ANode::Let(start, len, _) = self.node(id) else {
            unreachable!("map_let_values of a non-let node");
        };
        self.map_span(
            len,
            |a, i| a.binds[(start + i) as usize],
            |a, (s, v)| (s, f(a, v)),
        )
    }

    /// The `let` or quantifier node `id` with its body replaced by
    /// `body`: `id` itself when `body` is its body; otherwise a new node
    /// over a copy of its binders, as `mk_let`/`mk_quant` of them would
    /// build.
    ///
    /// # Panics
    ///
    /// Panics when `id` is neither a `let` nor a quantifier node.
    pub fn with_body(&mut self, id: TermId, body: TermId) -> TermId {
        match self.node(id) {
            ANode::Let(_, _, old) | ANode::Quant(_, _, _, old) if old == body => id,
            ANode::Let(start, len, _) => {
                let copy = self.binds.len() as u32;
                let span = start as usize..(start + len) as usize;
                self.binds.extend_from_within(span);
                self.push(ANode::Let(copy, len, body))
            }
            ANode::Quant(q, start, len, _) => {
                let copy = self.qvars.len() as u32;
                let span = start as usize..(start + len) as usize;
                self.qvars.extend_from_within(span);
                self.push(ANode::Quant(q, copy, len, body))
            }
            _ => panic!("with_body of a node without a body"),
        }
    }

    /// Substitutes free occurrences of `from` with `to`, matching
    /// [`Term::rename_free_var`] exactly (capture-naive, bound occurrences
    /// respected). Returns the original id when nothing was renamed.
    pub fn rename_free_var(&mut self, id: TermId, from: &Symbol, to: &Symbol) -> TermId {
        let from = self.sym_of(from);
        let to = self.sym_of(to);
        self.rename_rec(id, from, to, false)
    }

    /// [`TermArena::rename_free_var`] below binders; `shadowed` is true
    /// inside a binder of `from`.
    fn rename_rec(&mut self, id: TermId, from: SymbolId, to: SymbolId, shadowed: bool) -> TermId {
        match self.node(id) {
            ANode::Var(s) if s == from && !shadowed => self.mk_var(to),
            ANode::Var(_) | ANode::Const(_) | ANode::Placeholder(_) => id,
            ANode::App(..) => self.map_args(id, |a, k| a.rename_rec(k, from, to, shadowed)),
            ANode::Let(start, len, body) => {
                let new_binds = self.map_let_values(id, |a, v| a.rename_rec(v, from, to, shadowed));
                let inner = shadowed || self.let_binds(start, len).iter().any(|&(s, _)| s == from);
                let new_body = self.rename_rec(body, from, to, inner);
                match new_binds {
                    None => self.with_body(id, new_body),
                    Some(binds) => self.mk_let(&binds, new_body),
                }
            }
            ANode::Quant(_, start, len, body) => {
                let inner = shadowed || self.quant_vars(start, len).iter().any(|&(s, _)| s == from);
                let new_body = self.rename_rec(body, from, to, inner);
                self.with_body(id, new_body)
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
            ANode::App(..) => self.map_args(id, |a, k| a.fill_placeholders(k, fills, next)),
            ANode::Let(_, _, body) => {
                let new_binds = self.map_let_values(id, |a, v| a.fill_placeholders(v, fills, next));
                let new_body = self.fill_placeholders(body, fills, next);
                match new_binds {
                    None => self.with_body(id, new_body),
                    Some(binds) => self.mk_let(&binds, new_body),
                }
            }
            ANode::Quant(_, _, _, body) => {
                let new_body = self.fill_placeholders(body, fills, next);
                self.with_body(id, new_body)
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

    // ---- copies ----

    /// An owned, compact copy of `script`'s terms: only the nodes its
    /// commands reach, a shared subterm copied once per occurrence (so
    /// the copy is a tree, like the boxed script), and symbol, sort and
    /// operator tables holding only what those nodes name, each once, in
    /// first-use order. Scripts whose boxed forms are equal compact to
    /// equal arenas. The copy is built without interner maps; interning
    /// into it builds them first.
    pub fn compact(&self, script: &ArenaScript) -> (TermArena, ArenaScript) {
        COMPACT.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.clear(self);
            let mut c = Compactor {
                src: self,
                out: scratch,
            };
            let commands = script
                .commands
                .iter()
                .map(|cmd| match cmd {
                    ArenaCommand::DefineFun(s, params, ret, body) => ArenaCommand::DefineFun(
                        s.clone(),
                        params.clone(),
                        ret.clone(),
                        c.term(*body),
                    ),
                    ArenaCommand::Assert(t) => ArenaCommand::Assert(c.term(*t)),
                    ArenaCommand::GetValue(ts) => {
                        ArenaCommand::GetValue(ts.iter().map(|&t| c.term(t)).collect())
                    }
                    other => other.clone(),
                })
                .collect();
            (scratch.copy(self), ArenaScript { commands })
        })
    }

    /// Replaces this arena's nodes and tables with copies of `other`'s,
    /// reusing this arena's buffers, so every id of `other` names the same
    /// term here and new nodes can share `other`'s subterms by id.
    /// Interning afterwards rebuilds the interner maps first.
    pub fn load(&mut self, other: &TermArena) {
        self.nodes.clone_from(&other.nodes);
        self.children.clone_from(&other.children);
        self.binds.clone_from(&other.binds);
        self.qvars.clone_from(&other.qvars);
        self.values.clone_from(&other.values);
        self.symbols.clone_from(&other.symbols);
        self.sorts.clone_from(&other.sorts);
        self.ops.clone_from(&other.ops);
        self.maps_stale = true;
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

/// A source id [`TermArena::compact`] has not mapped yet.
const UNMAPPED: u32 = u32::MAX;

thread_local! {
    /// The buffers of [`TermArena::compact`], reused by every copy made on
    /// the thread.
    static COMPACT: RefCell<CompactScratch> = RefCell::new(CompactScratch::default());
}

/// A copy under construction, in buffers that keep their capacity from
/// copy to copy. Nodes and spans are the copy's own; its value, symbol,
/// sort and operator tables are source indices, cloned from the source
/// once, into exactly sized tables, by [`CompactScratch::copy`].
#[derive(Default)]
struct CompactScratch {
    nodes: Vec<ANode>,
    children: Vec<TermId>,
    binds: Vec<(SymbolId, TermId)>,
    qvars: Vec<(SymbolId, SortId)>,
    values: Vec<u32>,
    symbols: Vec<u32>,
    sorts: Vec<u32>,
    ops: Vec<u32>,
    /// Per interned table of the source, each id's index in the copy, or
    /// [`UNMAPPED`]; only the entries of the ids in `symbols`, `sorts` and
    /// `ops` are ever set.
    symbol_map: Vec<u32>,
    sort_map: Vec<u32>,
    op_map: Vec<u32>,
    /// Stacks for child lists under construction.
    kids: Vec<TermId>,
    bind_stack: Vec<(SymbolId, TermId)>,
    var_stack: Vec<(SymbolId, SortId)>,
}

impl CompactScratch {
    /// Forgets the previous copy and sizes the maps for `src`.
    fn clear(&mut self, src: &TermArena) {
        for (map, ids, len) in [
            (&mut self.symbol_map, &mut self.symbols, src.symbols.len()),
            (&mut self.sort_map, &mut self.sorts, src.sorts.len()),
            (&mut self.op_map, &mut self.ops, src.ops.len()),
        ] {
            for &id in ids.iter() {
                map[id as usize] = UNMAPPED;
            }
            ids.clear();
            if map.len() < len {
                map.resize(len, UNMAPPED);
            }
        }
        self.nodes.clear();
        self.children.clear();
        self.binds.clear();
        self.qvars.clear();
        self.values.clear();
    }

    fn push(&mut self, n: ANode) -> TermId {
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    /// The copy as an arena without interner maps.
    fn copy(&self, src: &TermArena) -> TermArena {
        fn pick<T: Clone>(table: &[T], ids: &[u32]) -> Vec<T> {
            ids.iter().map(|&i| table[i as usize].clone()).collect()
        }
        TermArena {
            nodes: self.nodes.clone(),
            children: self.children.clone(),
            binds: self.binds.clone(),
            qvars: self.qvars.clone(),
            values: pick(&src.values, &self.values),
            symbols: pick(&src.symbols, &self.symbols),
            sorts: pick(&src.sorts, &self.sorts),
            ops: pick(&src.ops, &self.ops),
            maps_stale: true,
            ..TermArena::default()
        }
    }
}

/// One [`TermArena::compact`]: the source and the copy's buffers.
struct Compactor<'a> {
    src: &'a TermArena,
    out: &'a mut CompactScratch,
}

impl Compactor<'_> {
    /// Copies the term at `id`, children first.
    fn term(&mut self, id: TermId) -> TermId {
        let src = self.src;
        match src.node(id) {
            ANode::Const(vi) => {
                let copied = self.out.values.len() as u32;
                self.out.values.push(vi);
                self.out.push(ANode::Const(copied))
            }
            ANode::Var(s) => {
                let s = self.symbol(s);
                self.out.push(ANode::Var(s))
            }
            ANode::Placeholder(i) => self.out.push(ANode::Placeholder(i)),
            ANode::App(op, start, len) => {
                let op = OpId(remap(&mut self.out.op_map, &mut self.out.ops, op.0));
                let mark = self.out.kids.len();
                for &a in src.args(start, len) {
                    let a = self.term(a);
                    self.out.kids.push(a);
                }
                let out = &mut *self.out;
                let start = out.children.len() as u32;
                out.children.extend_from_slice(&out.kids[mark..]);
                out.kids.truncate(mark);
                out.push(ANode::App(op, start, len))
            }
            ANode::Let(start, len, body) => {
                let mark = self.out.bind_stack.len();
                for &(s, t) in src.let_binds(start, len) {
                    let t = self.term(t);
                    let s = self.symbol(s);
                    self.out.bind_stack.push((s, t));
                }
                let body = self.term(body);
                let out = &mut *self.out;
                let start = out.binds.len() as u32;
                out.binds.extend_from_slice(&out.bind_stack[mark..]);
                out.bind_stack.truncate(mark);
                out.push(ANode::Let(start, len, body))
            }
            ANode::Quant(q, start, len, body) => {
                let mark = self.out.var_stack.len();
                for &(s, sort) in src.quant_vars(start, len) {
                    let s = self.symbol(s);
                    let sort = SortId(remap(&mut self.out.sort_map, &mut self.out.sorts, sort.0));
                    self.out.var_stack.push((s, sort));
                }
                let body = self.term(body);
                let out = &mut *self.out;
                let start = out.qvars.len() as u32;
                out.qvars.extend_from_slice(&out.var_stack[mark..]);
                out.var_stack.truncate(mark);
                out.push(ANode::Quant(q, start, len, body))
            }
        }
    }

    fn symbol(&mut self, s: SymbolId) -> SymbolId {
        SymbolId(remap(&mut self.out.symbol_map, &mut self.out.symbols, s.0))
    }
}

/// The copy's index of source id `id`, whose entry in `map` says where it
/// went, appending it to the copy's table `ids` on first use. Interning
/// keeps one id per symbol, sort and operator in every arena, so the
/// copy's tables have no duplicates either.
fn remap(map: &mut [u32], ids: &mut Vec<u32>, id: u32) -> u32 {
    let mapped = &mut map[id as usize];
    if *mapped == UNMAPPED {
        *mapped = ids.len() as u32;
        ids.push(id);
    }
    *mapped
}

/// A single command of an [`ArenaScript`]: the [`Command`] shape with terms
/// as [`TermId`]s. Declarations keep boxed symbols/sorts — there are a
/// handful per script against hundreds of term nodes.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
    use crate::{parse_script, parse_script_arena, parse_term_arena};

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
    fn compact_copies_the_reachable_tree_canonically() {
        let text = "(declare-const x Int)(define-fun d ((a Int)) Int (+ a 1))\
                    (assert (let ((y (d x))) (or (= y 2) (exists ((z Int)) (> z y)))))\
                    (get-value (x (+ x 1)))(check-sat)";
        // A warm arena: unrelated symbols and nodes before and after.
        let mut arena = TermArena::new();
        parse_script_arena("(assert (bvult u (_ bv3 8)))", &mut arena).unwrap();
        let script = parse_script_arena(text, &mut arena).unwrap();
        arena.mk_var_named("junk");
        let (copy, copied) = arena.compact(&script);
        assert_eq!(copied.to_script(&copy), script.to_script(&arena));
        let mut printed = String::new();
        copied.print_into(&copy, &mut printed);
        assert_eq!(printed, parse_script(text).unwrap().to_string());
        assert!(!copy
            .symbols
            .iter()
            .any(|s| s.as_str() == "junk" || s.as_str() == "u"));
        // A fresh parse of the same text compacts to an equal copy.
        let mut fresh = TermArena::new();
        let reparsed = parse_script_arena(text, &mut fresh).unwrap();
        assert!(fresh.compact(&reparsed) == (copy, copied));
    }

    #[test]
    fn compact_expands_shared_subterms() {
        let mut arena = TermArena::new();
        let fill = parse_term_arena("(> a 0)", &mut arena).unwrap();
        let p = [arena.mk_placeholder(0), arena.mk_placeholder(1)];
        let and = arena.mk_app_op(&Op::And, &p);
        let shared = arena.fill_placeholders(and, &[fill], &mut 0);
        let script = ArenaScript {
            commands: vec![ArenaCommand::Assert(shared)],
        };
        let (copy, copied) = arena.compact(&script);
        assert_eq!(copy.len(), arena.term_size(shared));
        let mut tree = TermArena::new();
        let t = parse_term_arena("(and (> a 0) (> a 0))", &mut tree).unwrap();
        let tree_script = ArenaScript {
            commands: vec![ArenaCommand::Assert(t)],
        };
        assert!(tree.compact(&tree_script) == (copy, copied));
    }

    #[test]
    fn load_shares_ids_and_interns_without_duplicates() {
        let mut arena = TermArena::new();
        let script = parse_script_arena("(assert (or p (not q)))", &mut arena).unwrap();
        let (copy, copied) = arena.compact(&script);
        let mut scratch = TermArena::new();
        scratch.mk_var_named("stale");
        scratch.load(&copy);
        let root = copied.assertions().next().unwrap();
        let mut out = String::new();
        scratch.print_term_into(root, &mut out);
        assert_eq!(out, "(or p (not q))");
        // Interning finds the loaded tables' entries.
        let ops = scratch.ops().len();
        let or = scratch.op_id(&Op::Or);
        assert_eq!(scratch.ops().len(), ops);
        assert!(matches!(scratch.node(root), ANode::App(o, _, 2) if o == or));
        let and = scratch.op_id(&Op::And);
        assert_eq!(scratch.op(and), &Op::And);
        assert_eq!(scratch.sym("p"), scratch.sym_of(&Symbol::new("p")));
        assert_eq!(scratch.symbols.len(), 2);
    }

    #[test]
    fn same_term_is_boxed_equality() {
        let mut arena = TermArena::new();
        let pairs = [
            ("(+ x 1)", "(+ x 1)", true),
            ("(+ x 1)", "(+ x 2)", false),
            ("(+ x 1)", "(- x 1)", false),
            ("(+ x 1 2)", "(+ x 1)", false),
            ("2.0", "2.0", true),
            ("(let ((a 1)) a)", "(let ((a 1)) a)", true),
            ("(let ((a 1)) a)", "(let ((b 1)) b)", false),
            (
                "(forall ((a Int)) (> a 0))",
                "(forall ((a Int)) (> a 0))",
                true,
            ),
            (
                "(forall ((a Int)) (> a 0))",
                "(exists ((a Int)) (> a 0))",
                false,
            ),
            (
                "(forall ((a Int)) (> a 0))",
                "(forall ((a Real)) (> a 0))",
                false,
            ),
        ];
        for (a, b, equal) in pairs {
            let x = parse_term_arena(a, &mut arena).unwrap();
            let y = parse_term_arena(b, &mut arena).unwrap();
            assert_ne!(x, y);
            assert_eq!(arena.same_term(x, y), equal, "{a} vs {b}");
            assert_eq!(arena.extract_term(x) == arena.extract_term(y), equal);
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

    /// The rebuild-everything rename the copy-on-change walk replaced:
    /// copy each child span, map it, compare, rebuild on a difference.
    fn rename_by_full_rebuild(
        a: &mut TermArena,
        id: TermId,
        from: SymbolId,
        to: SymbolId,
        bound: &mut Vec<SymbolId>,
    ) -> TermId {
        match a.node(id) {
            ANode::Var(s) if s == from && !bound.contains(&from) => a.mk_var(to),
            ANode::Var(_) | ANode::Const(_) | ANode::Placeholder(_) => id,
            ANode::App(op, start, len) => {
                let kids = a.args(start, len).to_vec();
                let new: Vec<TermId> = kids
                    .iter()
                    .map(|&k| rename_by_full_rebuild(a, k, from, to, bound))
                    .collect();
                if new == kids {
                    id
                } else {
                    a.mk_app(op, &new)
                }
            }
            ANode::Let(start, len, body) => {
                let binds = a.let_binds(start, len).to_vec();
                let new_binds: Vec<(SymbolId, TermId)> = binds
                    .iter()
                    .map(|&(s, v)| (s, rename_by_full_rebuild(a, v, from, to, bound)))
                    .collect();
                let n = bound.len();
                bound.extend(binds.iter().map(|&(s, _)| s));
                let new_body = rename_by_full_rebuild(a, body, from, to, bound);
                bound.truncate(n);
                if new_body == body && new_binds == binds {
                    id
                } else {
                    a.mk_let(&new_binds, new_body)
                }
            }
            ANode::Quant(q, start, len, body) => {
                let vars = a.quant_vars(start, len).to_vec();
                let n = bound.len();
                bound.extend(vars.iter().map(|&(s, _)| s));
                let new_body = rename_by_full_rebuild(a, body, from, to, bound);
                bound.truncate(n);
                if new_body == body {
                    id
                } else {
                    a.mk_quant(q, &vars, new_body)
                }
            }
        }
    }

    /// Copy-on-change builds the very nodes, spans and ids the full
    /// rebuild built, in the same order: the two arenas stay equal table
    /// for table after every rename, changed or not.
    #[test]
    fn copy_on_change_rename_builds_what_a_full_rebuild_builds() {
        let terms = [
            "(or (= x 0) (< x 1) (> y x))",
            "(let ((x (+ x 1)) (y x)) (and (= x 2) (= y z)))",
            "(let ((w (+ x 1))) (and (= w 2) (= x z)))",
            "(forall ((x Int)) (=> (> x y) (exists ((y Int)) (= x y))))",
            "(and (exists ((z Int)) (> z x)) (let ((q 1)) (= q y)) (< x y))",
        ];
        for text in terms {
            for (from, to) in [("x", "v"), ("y", "x"), ("z", "y"), ("absent", "v")] {
                let mut cow = TermArena::new();
                let root = parse_term_arena(text, &mut cow).expect("term parses");
                let (from_id, to_id) = (cow.sym(from), cow.sym(to));
                let mut full = cow.clone();
                let got = cow.rename_free_var(root, &Symbol::new(from), &Symbol::new(to));
                let want = rename_by_full_rebuild(&mut full, root, from_id, to_id, &mut Vec::new());
                assert_eq!(got, want, "{text}: {from} -> {to}");
                assert!(cow == full, "{text}: {from} -> {to}: tables differ");
                if from == "absent" {
                    assert_eq!(got, root, "{text}: a no-op rename keeps the id");
                }
            }
        }
    }
}

//! Incremental evaluation for bounded model search.
//!
//! A search tries many assignments of the same assertions, and most moves
//! change one symbol. [`IncrementalEval`] compiles a case's assertions
//! once, then answers each assignment by re-evaluating only the subterms
//! that read what moved.
//!
//! ## Slots
//!
//! Compiling reads the assertions as [`TermId`]s on a [`TermArena`] and
//! resolves every symbol occurrence ahead of time; compiled nodes borrow
//! their values, operators and symbols from the arena's tables. Each search
//! [`Dim`] (a declared constant, or a declared function interpreted as a
//! constant function) gets a *dimension slot*; every quantifier and `let`
//! binder gets a *binder slot* of its own. The model is the slot vector: a
//! move writes one slot, and no `Model`, `BTreeMap` or `Symbol` is built
//! per assignment. Quantifiers read their candidate domains from the
//! case's [`Domains`] table, computed once per case.
//!
//! ## The node cache
//!
//! A node's value is a pure function of the slots its subterm reads, so it
//! is cached together with the ticks its evaluation consumed (subterms of
//! fewer than four nodes are simply evaluated). Writing a slot drops the
//! entries of the nodes that read it and of their ancestors, and nothing
//! else: a quantifier body that ignores its binders is a cache hit on
//! every instance after the first, and an assertion that does not read
//! the slot a move changed is not evaluated at all.
//!
//! ## Exactness
//!
//! Results — values, errors and step-budget use — are those of the plain
//! [`Evaluator`] on the same assignment, bit for bit:
//!
//! * Evaluation keeps the plain evaluator's order: left to right,
//!   short-circuiting `and`/`or`/`ite`, the pending-`Incomplete` rule for
//!   connectives and quantifiers, and the same odometer over the same
//!   candidate domains.
//! * A cache hit replays its ticks against the remaining budget. An
//!   evaluation that consumed `t` ticks consumes `t` again under any
//!   budget of at least `t`; under a smaller budget it stops with
//!   [`EvalError::BudgetExhausted`] and leaves the budget at 0, which is
//!   what the replay answers. `BudgetExhausted` itself is never cached.
//! * A reference to a `define-fun` (or a malformed `ite`) is compiled to a
//!   node the plain evaluator runs in the same scope, on that subterm
//!   boxed at compile time, so the body sees exactly the binders the plain
//!   evaluator's dynamic scope shows it. Such nodes are never cached; they
//!   read every dimension and every binder in scope.
//!
//! Debug builds check every root evaluation against the plain evaluator on
//! the boxed roots: same result, same remaining budget.

use super::{apply_evaluated, DomainConfig, Domains, Evaluator, FunDefs};
use crate::{ANode, EvalError, Model, Op, Quantifier, Sort, Symbol, SymbolId, Term, TermArena};
use crate::{TermId, Value};
use std::collections::BTreeMap;

/// One search dimension: a free symbol the engine assigns.
#[derive(Clone, Debug, PartialEq)]
pub enum Dim {
    /// A declared constant.
    Const(Symbol),
    /// A declared n-ary function, interpreted as a constant function.
    Fun(Symbol, Vec<Sort>),
}

/// The model assigning `values[k]` to `dims[k]`.
pub fn model_of<'v>(dims: &[Dim], values: impl IntoIterator<Item = &'v Value>) -> Model {
    let mut model = Model::new();
    for (dim, value) in dims.iter().zip(values) {
        match dim {
            Dim::Const(name) => model.set_const(name.clone(), value.clone()),
            Dim::Fun(name, params) => {
                model.set_fun(name.clone(), params.clone(), BTreeMap::new(), value.clone())
            }
        }
    }
    model
}

/// The parent of a root node.
const NO_PARENT: u32 = u32::MAX;

/// Subterms smaller than this are evaluated rather than cached.
const MIN_CACHED_SIZE: u32 = 4;

/// A `(start, len)` span into one of the program's side tables.
#[derive(Clone, Copy, Debug)]
struct Span(u32, u32);

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.0 as usize..(self.0 + self.1) as usize
    }
}

#[derive(Debug)]
enum Node<'a> {
    /// A literal.
    Const(&'a Value),
    /// A dimension or binder slot.
    Read(u32),
    /// A placeholder: fails after its tick.
    Placeholder,
    /// A symbol nothing interprets: fails after its tick.
    Unassigned(&'a Symbol),
    /// `let`: `(slot, value node)` pairs in `binds`, then the body.
    Let(Span, u32),
    /// A quantifier: `(slot, domain)` pairs in `qvars`, then the body.
    Quant {
        decisive: bool,
        vars: Span,
        body: u32,
        complete: bool,
        capped: bool,
    },
    /// `and` (decisive `false`) / `or` (decisive `true`) over `kids`.
    Conn(bool, Span),
    /// `ite` over exactly three children.
    Ite(u32, u32, u32),
    /// A declared-function application: the arguments, then the value of
    /// the dimension, or the error the model lookup gives.
    Fun {
        args: Span,
        target: Result<u32, &'a Symbol>,
    },
    /// Any other operator over `kids`.
    App(&'a Op, Span),
    /// A term the plain evaluator runs (an index into `opaque`), in the
    /// scope the compiler saw (`(name, slot)` pairs in `opaque_scope`).
    Opaque(u32, Span),
}

/// A case's assertions compiled onto slots, with the per-node cache.
///
/// # Examples
///
/// ```
/// use o4a_smtlib::eval::{DomainConfig, Dim, Domains, IncrementalEval, FunDefs};
/// use o4a_smtlib::{parse_term_arena, Symbol, TermArena, Value};
/// let mut arena = TermArena::new();
/// let root = parse_term_arena("(forall ((b Bool)) (or b (> x 0)))", &mut arena).unwrap();
/// let (defs, cfg) = (FunDefs::new(), DomainConfig::default());
/// let domains = Domains::new(arena.sorts(), &cfg);
/// let dims = [Dim::Const(Symbol::new("x"))];
/// let mut ev = IncrementalEval::compile(&arena, &[root], &dims, &defs, &cfg, &domains);
/// ev.set(0, Value::Int(0));
/// let mut budget = 1_000;
/// assert_eq!(ev.eval(0, &mut budget), Ok(Value::Bool(false)));
/// ev.set(0, Value::Int(1));
/// assert_eq!(ev.eval(0, &mut budget), Ok(Value::Bool(true)));
/// ```
pub struct IncrementalEval<'a> {
    prog: Program<'a>,
    state: State,
}

/// The compiled, immutable half.
struct Program<'a> {
    nodes: Vec<Node<'a>>,
    kids: Vec<u32>,
    binds: Vec<(u32, u32)>,
    /// `(slot, index into domains)` per quantified variable.
    qvars: Vec<(u32, u32)>,
    /// The boxed subterms of `Opaque` nodes.
    opaque: Vec<Term>,
    opaque_scope: Vec<(&'a Symbol, u32)>,
    domains: &'a Domains,
    roots: Vec<u32>,
    /// Each node's parent (`NO_PARENT` for a root).
    parent: Vec<u32>,
    /// Whether a node keeps a cache entry: leaves and small subterms cost
    /// no more to evaluate than to replay, and the plain evaluator's
    /// nodes are never cached.
    cached: Vec<bool>,
    /// Each node's subterm size.
    size: Vec<u32>,
    /// Each node's nearest enclosing quantifier (`NO_PARENT` if none).
    quant_above: Vec<u32>,
    /// Per slot, the nodes that read it directly (CSR).
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    dims: &'a [Dim],
    defs: &'a FunDefs,
    cfg: &'a DomainConfig,
    /// The boxed roots, for the debug-build cross-check.
    #[cfg(debug_assertions)]
    shadow: Vec<Term>,
}

/// The mutable half: slot values and the cache.
#[cfg_attr(test, derive(Clone))]
struct State {
    slots: Vec<Value>,
    memo: Vec<Option<(Result<Value, EvalError>, u64)>>,
    /// Per `qvars` entry, the candidate index its slot holds (`u32::MAX`
    /// before the quantifier first runs).
    qidx: Vec<u32>,
}

impl<'a> IncrementalEval<'a> {
    /// Compiles the terms `roots` of `arena` over the search dimensions
    /// `dims`. `domains` must hold the domain of every quantified sort.
    /// Every dimension must be [`set`](Self::set) before the first
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics when `domains` lacks a quantified sort.
    pub fn compile(
        arena: &'a TermArena,
        roots: &[TermId],
        dims: &'a [Dim],
        defs: &'a FunDefs,
        cfg: &'a DomainConfig,
        domains: &'a Domains,
    ) -> IncrementalEval<'a> {
        // The arena's node count bounds the compiled node count of
        // anything but shared subterms; it sizes the per-node tables.
        let n = arena.len();
        let mut c = Compiler {
            arena,
            prog: Program {
                nodes: Vec::with_capacity(n),
                kids: Vec::with_capacity(n),
                binds: Vec::new(),
                qvars: Vec::new(),
                opaque: Vec::new(),
                opaque_scope: Vec::new(),
                domains,
                roots: Vec::with_capacity(roots.len()),
                parent: Vec::with_capacity(n),
                cached: Vec::with_capacity(n),
                size: Vec::with_capacity(n),
                quant_above: Vec::new(),
                reader_start: Vec::new(),
                readers: Vec::new(),
                dims,
                defs,
                cfg,
                #[cfg(debug_assertions)]
                shadow: roots.iter().map(|&r| arena.extract_term(r)).collect(),
            },
            slots: dims.len() as u32,
            scope: Vec::new(),
            stack: Vec::new(),
            reads: Vec::with_capacity(n),
        };
        for &r in roots {
            let n = c.term(r);
            c.prog.roots.push(n);
        }
        let slots = c.slots as usize;
        c.link(slots);
        let prog = c.prog;
        let qidx = vec![u32::MAX; prog.qvars.len()];
        let memo = std::iter::repeat_with(|| None)
            .take(prog.nodes.len())
            .collect();
        IncrementalEval {
            prog,
            state: State {
                slots: vec![Value::Bool(false); slots],
                memo,
                qidx,
            },
        }
    }

    /// Assigns dimension `dim`, invalidating every cached subterm that
    /// reads it.
    pub fn set(&mut self, dim: usize, value: Value) {
        self.state.assign(&self.prog, dim as u32, value);
    }

    /// The model of the current assignment.
    pub fn model(&self) -> Model {
        model_of(self.prog.dims, &self.state.slots[..self.prog.dims.len()])
    }

    /// Evaluates root `root` under the current assignment, charging
    /// `budget` exactly as [`Evaluator::eval`] charges its step budget.
    /// Pass the same `budget` to every root of one assignment to share it
    /// the way one `Evaluator` shares its budget across assertions.
    ///
    /// # Errors
    ///
    /// Those of [`Evaluator::eval`] on the same term and model.
    pub fn eval(&mut self, root: usize, budget: &mut u64) -> Result<Value, EvalError> {
        #[cfg(debug_assertions)]
        let before = *budget;
        let out = eval(&self.prog, &mut self.state, self.prog.roots[root], budget);
        #[cfg(debug_assertions)]
        self.cross_check(root, before, *budget, &out);
        out
    }

    /// Debug builds: the plain evaluator must agree on the result and on
    /// the budget left.
    #[cfg(debug_assertions)]
    fn cross_check(&self, root: usize, before: u64, after: u64, got: &Result<Value, EvalError>) {
        let model = self.model();
        let plain = Evaluator::new(&model, self.prog.defs, self.prog.cfg, before);
        let want = plain.eval(&self.prog.shadow[root]);
        assert!(
            *got == want && after == plain.steps.get(),
            "incremental evaluation diverged on {} under {model}: got {got:?} with {after} \
             steps left, the plain evaluator {want:?} with {}",
            self.prog.shadow[root],
            plain.steps.get()
        );
    }
}

impl Program<'_> {
    fn kids(&self, s: Span) -> &[u32] {
        &self.kids[s.range()]
    }

    fn readers(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.readers[self.reader_start[s] as usize..self.reader_start[s + 1] as usize]
    }
}

impl State {
    /// Writes a slot unconditionally and drops the cache entries that
    /// read it: each reader's, then its ancestors'. Above an entry already
    /// dropped, the walk resumes at the nearest enclosing quantifier. Every
    /// node between the two that still holds an entry did not read the
    /// dropped one in its last evaluation (a `let` binds its slots
    /// before evaluating its body, and a dropped entry takes its valid
    /// ancestors with it), but a quantifier's entry sums all its instances,
    /// and its body's entries were dropped instance by instance on the way.
    fn assign(&mut self, p: &Program, slot: u32, value: Value) {
        self.slots[slot as usize] = value;
        for &reader in p.readers(slot) {
            let mut n = reader;
            while n != NO_PARENT {
                let i = n as usize;
                n = if !p.cached[i] || self.memo[i].take().is_some() {
                    p.parent[i]
                } else {
                    p.quant_above[i]
                };
            }
        }
    }

    /// Writes a computed value, invalidating only when it differs.
    fn bind(&mut self, p: &Program, slot: u32, value: Value) {
        if self.slots[slot as usize] != value {
            self.assign(p, slot, value);
        }
    }
}

fn tick(budget: &mut u64) -> Result<(), EvalError> {
    if *budget == 0 {
        return Err(EvalError::BudgetExhausted);
    }
    *budget -= 1;
    Ok(())
}

/// Evaluates node `n`, from the cache when its entry is valid.
fn eval(p: &Program, s: &mut State, n: u32, budget: &mut u64) -> Result<Value, EvalError> {
    if let Some((out, ticks)) = &s.memo[n as usize] {
        if *budget < *ticks {
            *budget = 0;
            return Err(EvalError::BudgetExhausted);
        }
        *budget -= ticks;
        return out.clone();
    }
    let start = *budget;
    let out = compute(p, s, n, budget);
    if p.cached[n as usize] && !matches!(out, Err(EvalError::BudgetExhausted)) {
        s.memo[n as usize] = Some((out.clone(), start - *budget));
    }
    out
}

/// Evaluates node `n` itself; the arms mirror [`Evaluator`]'s.
fn compute(p: &Program, s: &mut State, n: u32, budget: &mut u64) -> Result<Value, EvalError> {
    let node = &p.nodes[n as usize];
    if let Node::Opaque(term, scope) = node {
        let term = &p.opaque[*term as usize];
        // The plain evaluator ticks for the node itself.
        let model = model_of(p.dims, &s.slots[..p.dims.len()]);
        let plain = Evaluator::new(&model, p.defs, p.cfg, *budget);
        let mut scope = p.opaque_scope[scope.range()]
            .iter()
            .map(|&(name, slot)| (name.clone(), s.slots[slot as usize].clone()))
            .collect();
        let out = plain.eval_in(term, &mut scope);
        *budget = plain.steps.get();
        return out;
    }
    tick(budget)?;
    match node {
        Node::Const(v) => Ok((*v).clone()),
        Node::Read(slot) => Ok(s.slots[*slot as usize].clone()),
        Node::Placeholder => Err(EvalError::Placeholder),
        Node::Unassigned(name) => Err(EvalError::UnassignedSymbol((*name).clone())),
        Node::Let(binds, body) => {
            // A bound value is compiled in the outer scope, so it never
            // reads a slot of this `let`: binding as we go is parallel
            // binding.
            for &(slot, value) in &p.binds[binds.range()] {
                let v = eval(p, s, value, budget)?;
                s.bind(p, slot, v);
            }
            eval(p, s, *body, budget)
        }
        Node::Quant {
            decisive,
            vars,
            body,
            complete,
            capped,
        } => {
            let entries = vars.range();
            // The odometer's digits are the candidate indices the binder
            // slots hold; start from the first instance.
            for e in entries.clone() {
                if s.qidx[e] != 0 {
                    s.qidx[e] = 0;
                    let (slot, dom) = p.qvars[e];
                    s.assign(p, slot, p.domains.get(dom as usize).values[0].clone());
                }
            }
            let mut saw_incomplete = false;
            let mut visited = 0usize;
            loop {
                if visited >= p.cfg.quant_budget {
                    break;
                }
                visited += 1;
                match eval(p, s, *body, budget) {
                    Ok(Value::Bool(b)) => {
                        if b == *decisive {
                            return Ok(Value::Bool(*decisive));
                        }
                    }
                    Ok(_) => return Err(EvalError::IllSorted("quantifier body not Bool".into())),
                    Err(EvalError::Incomplete) => saw_incomplete = true,
                    Err(e) => return Err(e),
                }
                // Advance only toward an instance that will be evaluated,
                // so the body's entries stay those of the slots' values.
                if visited >= p.cfg.quant_budget {
                    break;
                }
                // The odometer: the first digit that can still count up
                // does, and the digits before it wrap to 0. Past the last
                // instance nothing is written.
                let len = |e: usize| p.domains.get(p.qvars[e].1 as usize).values.len();
                let Some(up) = entries.clone().find(|&e| s.qidx[e] as usize + 1 < len(e)) else {
                    break;
                };
                for e in entries.start..=up {
                    let next = if e == up { s.qidx[e] + 1 } else { 0 };
                    if s.qidx[e] != next {
                        s.qidx[e] = next;
                        let (slot, dom) = p.qvars[e];
                        s.assign(
                            p,
                            slot,
                            p.domains.get(dom as usize).values[next as usize].clone(),
                        );
                    }
                }
            }
            if *complete && !*capped && !saw_incomplete {
                Ok(Value::Bool(!*decisive))
            } else {
                Err(EvalError::Incomplete)
            }
        }
        Node::Conn(decisive, args) => {
            let mut pending_incomplete = false;
            for &a in p.kids(*args) {
                match eval(p, s, a, budget) {
                    Ok(Value::Bool(b)) => {
                        if b == *decisive {
                            return Ok(Value::Bool(*decisive));
                        }
                    }
                    Ok(_) => return Err(EvalError::IllSorted("connective over non-Bool".into())),
                    Err(EvalError::Incomplete) => pending_incomplete = true,
                    Err(e) => return Err(e),
                }
            }
            if pending_incomplete {
                Err(EvalError::Incomplete)
            } else {
                Ok(Value::Bool(!*decisive))
            }
        }
        Node::Ite(c, t, e) => {
            let c = eval(p, s, *c, budget)?;
            match c.as_bool() {
                Some(true) => eval(p, s, *t, budget),
                Some(false) => eval(p, s, *e, budget),
                None => Err(EvalError::IllSorted("ite condition not Bool".into())),
            }
        }
        Node::Fun { args, target } => {
            for &a in p.kids(*args) {
                eval(p, s, a, budget)?;
            }
            match target {
                Ok(slot) => Ok(s.slots[*slot as usize].clone()),
                Err(name) => Err(EvalError::UnassignedSymbol((*name).clone())),
            }
        }
        Node::App(op, args) => apply_evaluated(op, p.kids(*args), |&a| eval(p, s, a, budget)),
        Node::Opaque(..) => unreachable!("handled before the tick"),
    }
}

struct Compiler<'a> {
    arena: &'a TermArena,
    prog: Program<'a>,
    /// Slots allocated so far (dimensions first).
    slots: u32,
    /// The binders in scope, innermost last, as the plain evaluator's
    /// scope stack would hold them (an arena has one id per symbol).
    scope: Vec<(SymbolId, u32)>,
    /// Scratch for child node lists.
    stack: Vec<u32>,
    /// `(slot, node)` for every node that reads a slot directly.
    reads: Vec<(u32, u32)>,
}

impl<'a> Compiler<'a> {
    /// Appends a node whose children are already compiled, adopting them
    /// and recording the slots it reads.
    fn push(&mut self, node: Node<'a>) -> u32 {
        let n = self.prog.nodes.len() as u32;
        let p = &mut self.prog;
        let mut size = 1;
        let mut adopt = |child: u32| {
            p.parent[child as usize] = n;
            size += p.size[child as usize];
        };
        match &node {
            Node::Const(_) | Node::Placeholder | Node::Unassigned(_) => {}
            Node::Read(slot) => self.reads.push((*slot, n)),
            Node::Quant { body, .. } => adopt(*body),
            Node::Let(binds, body) => {
                for k in binds.range() {
                    adopt(p.binds[k].1);
                }
                adopt(*body);
            }
            Node::Conn(_, args) | Node::App(_, args) => {
                for k in args.range() {
                    adopt(p.kids[k]);
                }
            }
            Node::Ite(c, t, e) => {
                for child in [*c, *t, *e] {
                    adopt(child);
                }
            }
            Node::Fun { args, target } => {
                for k in args.range() {
                    adopt(p.kids[k]);
                }
                if let Ok(slot) = target {
                    self.reads.push((*slot, n));
                }
            }
            // The plain evaluator may read any dimension and any binder in
            // scope.
            Node::Opaque(_, scope) => {
                for slot in 0..p.dims.len() as u32 {
                    self.reads.push((slot, n));
                }
                for k in scope.range() {
                    self.reads.push((p.opaque_scope[k].1, n));
                }
            }
        }
        let cached = match node {
            Node::Const(_) | Node::Read(_) | Node::Placeholder | Node::Unassigned(_) => false,
            Node::Opaque(..) => false,
            _ => size >= MIN_CACHED_SIZE,
        };
        self.prog.nodes.push(node);
        self.prog.parent.push(NO_PARENT);
        self.prog.cached.push(cached);
        self.prog.size.push(size);
        n
    }

    fn slot(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Compiles children onto the end of `kids`, returning their span.
    fn children(&mut self, terms: &'a [TermId]) -> Span {
        let mark = self.stack.len();
        for &t in terms {
            let n = self.term(t);
            self.stack.push(n);
        }
        let start = self.prog.kids.len() as u32;
        self.prog.kids.extend(self.stack.drain(mark..));
        Span(start, terms.len() as u32)
    }

    fn domain(&self, sort: &Sort) -> u32 {
        match self.prog.domains.index(sort) {
            Some(i) => i as u32,
            None => panic!("no candidate domain for the quantified sort {sort}"),
        }
    }

    fn dim_of(&self, name: &Symbol) -> Option<(u32, &'a Dim)> {
        let dims: &'a [Dim] = self.prog.dims;
        dims.iter()
            .enumerate()
            .find(|(_, d)| matches!(d, Dim::Const(n) | Dim::Fun(n, _) if n == name))
            .map(|(k, d)| (k as u32, d))
    }

    /// A node the plain evaluator runs on the boxed term at `id`.
    fn opaque(&mut self, id: TermId) -> u32 {
        let arena = self.arena;
        let start = self.prog.opaque_scope.len() as u32;
        let scope = self
            .scope
            .iter()
            .map(|&(name, slot)| (arena.symbol(name), slot));
        self.prog.opaque_scope.extend(scope);
        let term = self.prog.opaque.len() as u32;
        self.prog.opaque.push(arena.extract_term(id));
        self.push(Node::Opaque(term, Span(start, self.scope.len() as u32)))
    }

    fn term(&mut self, id: TermId) -> u32 {
        let arena = self.arena;
        let defs: &'a FunDefs = self.prog.defs;
        match arena.node(id) {
            ANode::Const(v) => self.push(Node::Const(arena.value(v))),
            ANode::Placeholder(_) => self.push(Node::Placeholder),
            ANode::Var(sym) => {
                if let Some(&(_, slot)) = self.scope.iter().rev().find(|(n, _)| *n == sym) {
                    return self.push(Node::Read(slot));
                }
                let name = arena.symbol(sym);
                if let Some((k, Dim::Const(_))) = self.dim_of(name) {
                    return self.push(Node::Read(k));
                }
                match defs.get(name) {
                    Some((params, _)) if params.is_empty() => self.opaque(id),
                    _ => self.push(Node::Unassigned(name)),
                }
            }
            ANode::Let(start, len, body) => {
                let binds = arena.let_binds(start, len);
                let mark = self.stack.len();
                for &(_, value) in binds {
                    let n = self.term(value);
                    self.stack.push(n);
                }
                let first = self.prog.binds.len() as u32;
                let scope = self.scope.len();
                for (k, &(name, _)) in binds.iter().enumerate() {
                    let slot = self.slot();
                    let value = self.stack[mark + k];
                    self.prog.binds.push((slot, value));
                    self.scope.push((name, slot));
                }
                self.stack.truncate(mark);
                let body = self.term(body);
                self.scope.truncate(scope);
                self.push(Node::Let(Span(first, len), body))
            }
            ANode::Quant(q, start, len, body) => {
                let first = self.prog.qvars.len() as u32;
                let scope = self.scope.len();
                let (mut complete, mut total) = (true, 1usize);
                for &(name, sort) in arena.quant_vars(start, len) {
                    let dom = self.domain(arena.sort(sort));
                    let cands = self.prog.domains.get(dom as usize);
                    complete &= cands.complete;
                    total = total.saturating_mul(cands.values.len().max(1));
                    let slot = self.slot();
                    self.prog.qvars.push((slot, dom));
                    self.scope.push((name, slot));
                }
                let body = self.term(body);
                self.scope.truncate(scope);
                let budget = self.prog.cfg.quant_budget;
                self.push(Node::Quant {
                    // A false instance decides forall, a true one exists.
                    decisive: q == Quantifier::Exists,
                    vars: Span(first, len),
                    body,
                    complete,
                    capped: total > budget,
                })
            }
            ANode::App(op, start, len) => {
                let args = arena.args(start, len);
                match arena.op(op) {
                    Op::And => {
                        let kids = self.children(args);
                        self.push(Node::Conn(false, kids))
                    }
                    Op::Or => {
                        let kids = self.children(args);
                        self.push(Node::Conn(true, kids))
                    }
                    Op::Ite if args.len() == 3 => {
                        let c = self.term(args[0]);
                        let t = self.term(args[1]);
                        let e = self.term(args[2]);
                        self.push(Node::Ite(c, t, e))
                    }
                    // A malformed `ite` keeps the plain evaluator's
                    // behaviour, whatever it is.
                    Op::Ite => self.opaque(id),
                    Op::Uf(name) if defs.contains_key(name) => self.opaque(id),
                    Op::Uf(name) => {
                        // `Model::apply_fun`: a function answers its
                        // constant value, a constant only when applied to
                        // nothing.
                        let target = match self.dim_of(name) {
                            Some((k, Dim::Fun(..))) => Ok(k),
                            Some((k, Dim::Const(_))) if args.is_empty() => Ok(k),
                            _ => Err(name),
                        };
                        let kids = self.children(args);
                        self.push(Node::Fun { args: kids, target })
                    }
                    op => {
                        let kids = self.children(args);
                        self.push(Node::App(op, kids))
                    }
                }
            }
        }
    }

    /// Indexes the readers of each slot and each node's nearest enclosing
    /// quantifier.
    fn link(&mut self, slots: usize) {
        let p = &mut self.prog;
        let mut start = vec![0u32; slots + 1];
        for &(slot, _) in &self.reads {
            start[slot as usize + 1] += 1;
        }
        for k in 0..slots {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        p.readers = vec![0; self.reads.len()];
        for &(slot, node) in &self.reads {
            p.readers[fill[slot as usize] as usize] = node;
            fill[slot as usize] += 1;
        }
        p.reader_start = start;
        // Parents follow their children, so walk down from the top.
        p.quant_above = vec![NO_PARENT; p.nodes.len()];
        for n in (0..p.nodes.len()).rev() {
            let up = p.parent[n];
            if up != NO_PARENT {
                p.quant_above[n] = match p.nodes[up as usize] {
                    Node::Quant { .. } => up,
                    _ => p.quant_above[up as usize],
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_script_arena, ArenaCommand};

    /// A script's assertions on an arena, with its `define-fun`s and its
    /// declared constants: the evaluator inputs, and the boxed roots the
    /// plain evaluator reads.
    struct Setup {
        arena: TermArena,
        roots: Vec<TermId>,
        boxed: Vec<Term>,
        dims: Vec<Dim>,
        defs: FunDefs,
        domains: Domains,
    }

    fn setup(text: &str, cfg: &DomainConfig) -> Setup {
        let mut arena = TermArena::new();
        let script = parse_script_arena(text, &mut arena).expect("parse");
        let mut roots = Vec::new();
        let mut dims = Vec::new();
        let mut defs = FunDefs::new();
        for c in &script.commands {
            match c {
                ArenaCommand::DeclareConst(n, _) => dims.push(Dim::Const(n.clone())),
                ArenaCommand::DeclareFun(n, ps, _) if ps.is_empty() => {
                    dims.push(Dim::Const(n.clone()))
                }
                ArenaCommand::DeclareFun(n, ps, _) => dims.push(Dim::Fun(n.clone(), ps.clone())),
                ArenaCommand::DefineFun(n, ps, _, body) => {
                    defs.insert(n.clone(), (ps.clone(), arena.extract_term(*body)));
                }
                ArenaCommand::Assert(t) => roots.push(*t),
                _ => {}
            }
        }
        let boxed = roots.iter().map(|&r| arena.extract_term(r)).collect();
        let domains = Domains::new(arena.sorts(), cfg);
        Setup {
            arena,
            roots,
            boxed,
            dims,
            defs,
            domains,
        }
    }

    impl Setup {
        fn compile<'a>(&'a self, cfg: &'a DomainConfig) -> IncrementalEval<'a> {
            IncrementalEval::compile(
                &self.arena,
                &self.roots,
                &self.dims,
                &self.defs,
                cfg,
                &self.domains,
            )
        }
    }

    /// Walks every assignment of `values` to every dimension (an
    /// odometer, one slot per move) under `budget`, comparing each root
    /// with the plain evaluator on result and budget left.
    fn agree_everywhere(text: &str, values: &[Value], budget: u64) {
        let cfg = DomainConfig::default();
        let setup = setup(text, &cfg);
        let (roots, dims, defs) = (&setup.boxed, &setup.dims, &setup.defs);
        let mut inc = setup.compile(&cfg);
        let mut idx = vec![0usize; dims.len()];
        for k in 0..dims.len() {
            inc.set(k, values[0].clone());
        }
        loop {
            let model = inc.model();
            let plain = Evaluator::new(&model, defs, &cfg, budget);
            let mut left = budget;
            for (i, t) in roots.iter().enumerate() {
                let got = inc.eval(i, &mut left);
                assert_eq!(got, plain.eval(t), "{t} under {model}");
                assert_eq!(left, plain.steps.get(), "budget after {t} under {model}");
            }
            let mut k = 0;
            loop {
                if k == dims.len() {
                    return;
                }
                idx[k] += 1;
                if idx[k] < values.len() {
                    inc.set(k, values[idx[k]].clone());
                    break;
                }
                idx[k] = 0;
                inc.set(k, values[0].clone());
                k += 1;
            }
        }
    }

    fn ints() -> Vec<Value> {
        [-2, 0, 1, 3].into_iter().map(Value::Int).collect()
    }

    fn audit(inc: &IncrementalEval) {
        for n in 0..inc.prog.nodes.len() {
            if let Some((out, ticks)) = &inc.state.memo[n] {
                let mut fresh = inc.state.clone();
                fresh.memo.iter_mut().for_each(|m| *m = None);
                let mut b = 1_000_000u64;
                let got = compute(&inc.prog, &mut fresh, n as u32, &mut b);
                assert_eq!(
                    (&got, 1_000_000 - b),
                    (out, *ticks),
                    "stale node {n}: {:?} parent {}",
                    inc.prog.nodes[n],
                    inc.prog.parent[n]
                );
            }
        }
    }

    /// Random single-slot moves, each followed by evaluating every root
    /// under one shared budget, compared with the plain evaluator.
    fn agree_under_random_moves(text: &str, domains: &[Vec<Value>], budget: u64, moves: usize) {
        let cfg = DomainConfig::default();
        let setup = setup(text, &cfg);
        let (roots, defs) = (&setup.boxed, &setup.defs);
        let mut inc = setup.compile(&cfg);
        for (k, d) in domains.iter().enumerate() {
            inc.set(k, d[0].clone());
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..moves {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) as usize % domains.len();
            let v = (state >> 17) as usize % domains[k].len();
            inc.set(k, domains[k][v].clone());
            audit(&inc);
            let model = inc.model();
            let plain = Evaluator::new(&model, defs, &cfg, budget);
            let mut left = budget;
            for (i, t) in roots.iter().enumerate() {
                let got = inc.eval(i, &mut left);
                assert_eq!(got, plain.eval(t), "{t} under {model}");
                assert_eq!(left, plain.steps.get(), "budget after {t} under {model}");
                audit(&inc);
                if got != Ok(Value::Bool(true)) {
                    break;
                }
            }
        }
    }

    #[test]
    fn random_moves_over_mixed_sorts() {
        let text = "(declare-const k (_ BitVec 4))(declare-const a String)(declare-const b String)\
                    (assert (= ((_ rotate_left 2) k) ((_ rotate_right 2) k)))\
                    (assert (forall ((c String)) (or (or (not (str.prefixof c a)) \
                     (not (str.suffixof c b))) (<= (str.len c) 2))))";
        let strs: Vec<Value> = ["", "a", "b", "ab", "ba", "bb"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let bvs: Vec<Value> = (0..16)
            .map(|b| Value::BitVec(crate::BitVecValue::new(4, b)))
            .collect();
        agree_under_random_moves(text, &[bvs, strs.clone(), strs], 20_000, 2_000);
    }

    #[test]
    fn random_moves_through_nested_binders() {
        let text = "(declare-const x Int)(declare-const y Int)(declare-const p Bool)\
                    (define-fun g ((u Int)) Bool (or p (> u y)))\
                    (assert (or p (exists ((a Int)) (and (g a) (forall ((b Bool)) \
                     (or b (let ((s (+ a x))) (and (distinct s y) (< s 3)))))))))\
                    (assert (forall ((c Bool) (d Int)) (=> (and c (> d x)) \
                     (let ((e (ite p d y))) (or (g e) (exists ((f Bool)) (and f (= e x))))))))\
                    (assert (let ((q (> x y))) (and (or q p) (forall ((h Int)) (or q (distinct h y))))))";
        let ints: Vec<Value> = [-3, -1, 0, 1, 2, 4].into_iter().map(Value::Int).collect();
        let bools = vec![Value::Bool(false), Value::Bool(true)];
        for budget in [30, 150, 700, 20_000] {
            agree_under_random_moves(
                text,
                &[ints.clone(), ints.clone(), bools.clone()],
                budget,
                400,
            );
        }
    }

    #[test]
    fn quantifier_whose_body_ignores_its_binder() {
        let text = "(declare-const x Int)(declare-const y Int)\
                    (assert (forall ((b Bool)) (> x y)))\
                    (assert (exists ((z Int)) (and (= z x) (< y 2))))";
        for budget in [0, 1, 5, 17, 60, 10_000] {
            agree_everywhere(text, &ints(), budget);
        }
    }

    #[test]
    fn binders_shadow_constants_and_lets_shadow_lets() {
        let text = "(declare-const x Int)(declare-const y Int)\
                    (assert (forall ((x Int)) (or (> x y) (< x 4))))\
                    (assert (let ((a x)) (let ((a (+ a 1)) (b a)) (= (+ a b) y))))\
                    (assert (let ((y 7)) (exists ((y Bool)) y)))";
        for budget in [3, 40, 10_000] {
            agree_everywhere(text, &ints(), budget);
        }
    }

    #[test]
    fn define_fun_bodies_see_the_callers_scope() {
        // `g` reads `x`, which the quantifier shadows at the call site:
        // the plain evaluator's dynamic scope decides, and so must we.
        let text = "(declare-const x Int)(declare-fun f (Int) Int)\
                    (define-fun g () Int (+ x 1))\
                    (define-fun h ((a Int) (b Int)) Bool (> (+ a b) g))\
                    (assert (forall ((x Int)) (or (h x (f x)) (= g 0))))\
                    (assert (h x 2 ))";
        for budget in [2, 30, 10_000] {
            agree_everywhere(text, &ints(), budget);
        }
    }

    #[test]
    fn recursive_define_fun_is_left_to_the_plain_evaluator() {
        let text = "(declare-const x Int)\
                    (define-fun r ((n Int)) Int (ite (<= n 0) 0 (r (- n 1))))\
                    (assert (= (r x) 0))";
        for budget in [4, 50, 10_000] {
            agree_everywhere(text, &ints(), budget);
        }
    }

    #[test]
    fn overflow_and_errors_are_cached_like_values() {
        let text = "(declare-const x Int)(declare-const p Bool)\
                    (assert (or p (> (* x 170141183460469231731687303715884105727) 0)))\
                    (assert (and p (> (div 1 x) 0)))";
        agree_everywhere(text, &ints(), 10_000);
        let bools = [Value::Bool(false), Value::Bool(true)];
        let text = "(declare-const p Bool)(declare-const q Bool)\
                    (assert (=> p (forall ((s String)) (= (str.len s) 0))))\
                    (assert (or q (exists ((n Int)) (> n 100))))";
        for budget in [10, 200, 10_000] {
            agree_everywhere(text, &bools, budget);
        }
    }

    #[test]
    fn cache_hits_replay_ticks_exactly_at_the_budget_edge() {
        // Every budget from 0 up past the full cost: exhaustion must land
        // on the same tick whether the subterm is cached or not.
        let text = "(declare-const x Int)(declare-const y Int)\
                    (assert (forall ((b Bool) (c Bool)) (or b c (> (+ x x x) y))))\
                    (assert (exists ((s String) (t Bool)) (> (+ x x) y)))";
        for budget in 0..200 {
            agree_everywhere(text, &ints(), budget);
        }
    }
}

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

use crate::arena::{ANode, ArenaCommand, ArenaScript, TermArena, TermId};
use crate::{Command, Op, Script, Sort, SortError, Symbol, Term, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    /// Scratch arena backing the boxed `check_script`/`check_term`
    /// wrappers; reset per call, interners stay warm for the thread's
    /// lifetime.
    static CHECK_ARENA: RefCell<TermArena> = RefCell::new(TermArena::new());
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
        SortContext::collect(script.commands.iter().map(|cmd| match cmd {
            Command::DeclareConst(name, sort) => Decl::Fun(name, &[], sort),
            Command::DeclareFun(name, args, ret) => Decl::Fun(name, args, ret),
            Command::DeclareSort(name) => Decl::Sort(name),
            Command::DefineFun(name, params, ret, _) => Decl::Def(name, params, ret),
            _ => Decl::None,
        }))
    }

    /// Builds a context from an arena script's declarations.
    ///
    /// # Errors
    ///
    /// Returns [`SortError::Redeclaration`] when a symbol is declared twice.
    pub fn from_arena_script(script: &ArenaScript) -> Result<SortContext, SortError> {
        SortContext::collect(script.commands.iter().map(|cmd| match cmd {
            ArenaCommand::DeclareConst(name, sort) => Decl::Fun(name, &[], sort),
            ArenaCommand::DeclareFun(name, args, ret) => Decl::Fun(name, args, ret),
            ArenaCommand::DeclareSort(name) => Decl::Sort(name),
            ArenaCommand::DefineFun(name, params, ret, _) => Decl::Def(name, params, ret),
            _ => Decl::None,
        }))
    }

    /// The one declaration collector behind both constructors.
    fn collect<'a>(decls: impl Iterator<Item = Decl<'a>>) -> Result<SortContext, SortError> {
        let mut ctx = SortContext::default();
        for decl in decls {
            match decl {
                Decl::Fun(name, args, ret) => {
                    ctx.declare(name.clone(), args.to_vec(), ret.clone())?
                }
                Decl::Def(name, params, ret) => {
                    let args = params.iter().map(|(_, s)| s.clone()).collect();
                    ctx.declare(name.clone(), args, ret.clone())?;
                }
                Decl::Sort(name) => ctx.sorts.push(name.clone()),
                Decl::None => {}
            }
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

/// What one command declares, borrowed from either script form.
enum Decl<'a> {
    /// A constant or function: name, argument sorts, result sort.
    Fun(&'a Symbol, &'a [Sort], &'a Sort),
    /// A defined function: name, parameters, result sort.
    Def(&'a Symbol, &'a [(Symbol, Sort)], &'a Sort),
    /// An uninterpreted sort.
    Sort(&'a Symbol),
    /// Not a declaration.
    None,
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
    })
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
/// Returns the first [`SortError`] encountered, in file order.
pub fn check_script_arena(
    script: &ArenaScript,
    arena: &TermArena,
) -> Result<SortContext, SortError> {
    let ctx = SortContext::from_arena_script(script)?;
    for cmd in &script.commands {
        match cmd {
            ArenaCommand::DefineFun(_, params, ret, body) => {
                let mut locals: Vec<(Symbol, Sort)> = params.clone();
                let got = sort_of_arena(*body, arena, &ctx, &mut locals)?;
                if !compatible(&got, ret) {
                    return Err(SortError::ArgSort {
                        op: "define-fun".into(),
                        index: 0,
                        expected: ret.to_string(),
                        got,
                    });
                }
            }
            ArenaCommand::Assert(t) => {
                if arena.placeholder_count(*t) > 0 {
                    return Err(SortError::PlaceholderPresent);
                }
                let got = check_term_arena(*t, arena, &ctx)?;
                if got != Sort::Bool {
                    return Err(SortError::ArgSort {
                        op: "assert".into(),
                        index: 0,
                        expected: "Bool".into(),
                        got,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(ctx)
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
    let mut locals = Vec::new();
    sort_of_arena(id, arena, ctx, &mut locals)
}

fn sort_of_arena(
    id: TermId,
    arena: &TermArena,
    ctx: &SortContext,
    locals: &mut Vec<(Symbol, Sort)>,
) -> Result<Sort, SortError> {
    match arena.node(id) {
        ANode::Const(vi) => Ok(arena.value(vi).sort()),
        ANode::Placeholder(_) => Ok(Sort::Bool),
        ANode::Var(sid) => {
            let name = arena.symbol(sid);
            if let Some((_, s)) = locals.iter().rev().find(|(n, _)| n == name) {
                return Ok(s.clone());
            }
            ctx.const_sort(name)
                .cloned()
                .ok_or_else(|| SortError::UnknownSymbol(name.clone()))
        }
        ANode::Let(start, len, body) => {
            let mut bound = Vec::with_capacity(len as usize);
            for &(sid, value) in arena.let_binds(start, len) {
                let s = sort_of_arena(value, arena, ctx, locals)?;
                bound.push((arena.symbol(sid).clone(), s));
            }
            let n = locals.len();
            locals.extend(bound);
            let out = sort_of_arena(body, arena, ctx, locals);
            locals.truncate(n);
            out
        }
        ANode::Quant(_, start, len, body) => {
            let n = locals.len();
            locals.extend(
                arena
                    .quant_vars(start, len)
                    .iter()
                    .map(|&(sid, srt)| (arena.symbol(sid).clone(), arena.sort(srt).clone())),
            );
            let got = sort_of_arena(body, arena, ctx, locals)?;
            locals.truncate(n);
            if got != Sort::Bool {
                return Err(SortError::ArgSort {
                    op: "quantifier body".into(),
                    index: 0,
                    expected: "Bool".into(),
                    got,
                });
            }
            Ok(Sort::Bool)
        }
        ANode::App(opid, start, len) => {
            let mut sorts = Vec::with_capacity(len as usize);
            for &a in arena.args(start, len) {
                sorts.push(sort_of_arena(a, arena, ctx, locals)?);
            }
            sort_of_app(arena.op(opid), &sorts, ctx)
        }
    }
}

/// `a` may be used where `b` is expected (numeral coercion Int → Real).
fn compatible(a: &Sort, b: &Sort) -> bool {
    a == b || (*a == Sort::Int && *b == Sort::Real)
}

fn numeric(s: &Sort) -> bool {
    matches!(s, Sort::Int | Sort::Real)
}

/// Joins numeric sorts: any Real makes the result Real.
fn numeric_join(op: &Op, sorts: &[Sort]) -> Result<Sort, SortError> {
    let mut out = Sort::Int;
    for (i, s) in sorts.iter().enumerate() {
        if !numeric(s) {
            return Err(SortError::ArgSort {
                op: op.to_string(),
                index: i,
                expected: "Int or Real".into(),
                got: s.clone(),
            });
        }
        if *s == Sort::Real {
            out = Sort::Real;
        }
    }
    Ok(out)
}

fn arity_err(op: &Op, expected: &str, got: usize) -> SortError {
    SortError::Arity {
        op: op.to_string(),
        expected: expected.into(),
        got,
    }
}

fn arg_err(op: &Op, index: usize, expected: impl Into<String>, got: &Sort) -> SortError {
    SortError::ArgSort {
        op: op.to_string(),
        index,
        expected: expected.into(),
        got: got.clone(),
    }
}

fn expect_exact(op: &Op, args: &[Sort], n: usize) -> Result<(), SortError> {
    if args.len() != n {
        Err(arity_err(op, &format!("exactly {n}"), args.len()))
    } else {
        Ok(())
    }
}

fn expect_at_least(op: &Op, args: &[Sort], n: usize) -> Result<(), SortError> {
    if args.len() < n {
        Err(arity_err(op, &format!("at least {n}"), args.len()))
    } else {
        Ok(())
    }
}

fn expect_all(op: &Op, args: &[Sort], want: &Sort) -> Result<(), SortError> {
    for (i, s) in args.iter().enumerate() {
        if s != want {
            return Err(arg_err(op, i, want.to_string(), s));
        }
    }
    Ok(())
}

fn same_bv_width(op: &Op, args: &[Sort]) -> Result<u32, SortError> {
    let mut width = None;
    for (i, s) in args.iter().enumerate() {
        match s {
            Sort::BitVec(w) => match width {
                None => width = Some(*w),
                Some(prev) if prev != *w => {
                    return Err(SortError::WidthMismatch {
                        op: op.to_string(),
                        left: prev,
                        right: *w,
                    })
                }
                _ => {}
            },
            other => return Err(arg_err(op, i, "a bit-vector", other)),
        }
    }
    width.ok_or_else(|| arity_err(op, "at least 1", 0))
}

fn same_ff_modulus(op: &Op, args: &[Sort]) -> Result<u64, SortError> {
    let mut modulus = None;
    for (i, s) in args.iter().enumerate() {
        match s {
            Sort::FiniteField(p) => match modulus {
                None => modulus = Some(*p),
                Some(prev) if prev != *p => {
                    return Err(arg_err(op, i, format!("(_ FiniteField {prev})"), s))
                }
                _ => {}
            },
            other => return Err(arg_err(op, i, "a finite-field element", other)),
        }
    }
    modulus.ok_or_else(|| arity_err(op, "at least 1", 0))
}

fn seq_elem(op: &Op, index: usize, s: &Sort) -> Result<Sort, SortError> {
    match s {
        Sort::Seq(e) => Ok((**e).clone()),
        other => Err(arg_err(op, index, "a sequence", other)),
    }
}

fn set_elem(op: &Op, index: usize, s: &Sort) -> Result<Sort, SortError> {
    match s {
        Sort::Set(e) => Ok((**e).clone()),
        other => Err(arg_err(op, index, "a set", other)),
    }
}

fn bag_elem(op: &Op, index: usize, s: &Sort) -> Result<Sort, SortError> {
    match s {
        Sort::Bag(e) => Ok((**e).clone()),
        other => Err(arg_err(op, index, "a bag", other)),
    }
}

fn relation_arity(op: &Op, index: usize, s: &Sort) -> Result<Vec<Sort>, SortError> {
    match s {
        Sort::Set(inner) => match &**inner {
            Sort::Tuple(elems) => Ok(elems.clone()),
            other => Err(SortError::BadRelation {
                op: op.to_string(),
                reason: format!("argument {index} is a set of {other}, not of tuples"),
            }),
        },
        other => Err(arg_err(op, index, "a relation (set of tuples)", other)),
    }
}

/// Computes the result sort of an operator applied to argument sorts.
///
/// # Errors
///
/// Returns a [`SortError`] on arity/sort/index violations; this is the
/// single source of truth for the operator typing discipline.
pub fn sort_of_app(op: &Op, args: &[Sort], ctx: &SortContext) -> Result<Sort, SortError> {
    use Op::*;
    match op {
        // ---- core ----
        Not => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::Bool)?;
            Ok(Sort::Bool)
        }
        And | Or | Xor => {
            expect_at_least(op, args, 1)?;
            expect_all(op, args, &Sort::Bool)?;
            Ok(Sort::Bool)
        }
        Implies => {
            expect_at_least(op, args, 2)?;
            expect_all(op, args, &Sort::Bool)?;
            Ok(Sort::Bool)
        }
        Eq | Distinct => {
            expect_at_least(op, args, 2)?;
            let first = &args[0];
            for (i, s) in args.iter().enumerate().skip(1) {
                let ok = s == first || (numeric(first) && numeric(s));
                if !ok {
                    return Err(arg_err(op, i, first.to_string(), s));
                }
            }
            Ok(Sort::Bool)
        }
        Ite => {
            expect_exact(op, args, 3)?;
            if args[0] != Sort::Bool {
                return Err(arg_err(op, 0, "Bool", &args[0]));
            }
            if args[1] == args[2] {
                Ok(args[1].clone())
            } else if numeric(&args[1]) && numeric(&args[2]) {
                Ok(Sort::Real)
            } else {
                Err(arg_err(op, 2, args[1].to_string(), &args[2]))
            }
        }

        // ---- arithmetic ----
        Add | Mul => {
            expect_at_least(op, args, 1)?;
            numeric_join(op, args)
        }
        Sub => {
            expect_at_least(op, args, 1)?;
            numeric_join(op, args)
        }
        Neg => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args)
        }
        IntDiv | Mod => {
            expect_exact(op, args, 2)?;
            expect_all(op, args, &Sort::Int)?;
            Ok(Sort::Int)
        }
        RealDiv => {
            expect_at_least(op, args, 2)?;
            numeric_join(op, args)?;
            Ok(Sort::Real)
        }
        Abs => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::Int)?;
            Ok(Sort::Int)
        }
        Divisible(_) => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::Int)?;
            Ok(Sort::Bool)
        }
        Le | Lt | Ge | Gt => {
            expect_at_least(op, args, 2)?;
            numeric_join(op, args)?;
            Ok(Sort::Bool)
        }
        ToReal => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args)?;
            Ok(Sort::Real)
        }
        ToInt => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args)?;
            Ok(Sort::Int)
        }
        IsInt => {
            expect_exact(op, args, 1)?;
            numeric_join(op, args)?;
            Ok(Sort::Bool)
        }

        // ---- bit-vectors ----
        BvNot | BvNeg => {
            expect_exact(op, args, 1)?;
            Ok(Sort::BitVec(same_bv_width(op, args)?))
        }
        BvAnd | BvOr | BvXor | BvNand | BvNor | BvAdd | BvSub | BvMul => {
            expect_at_least(op, args, 2)?;
            Ok(Sort::BitVec(same_bv_width(op, args)?))
        }
        BvUdiv | BvUrem | BvSdiv | BvSrem | BvShl | BvLshr | BvAshr => {
            expect_exact(op, args, 2)?;
            Ok(Sort::BitVec(same_bv_width(op, args)?))
        }
        BvUlt | BvUle | BvUgt | BvUge | BvSlt | BvSle | BvSgt | BvSge => {
            expect_exact(op, args, 2)?;
            same_bv_width(op, args)?;
            Ok(Sort::Bool)
        }
        Concat => {
            expect_at_least(op, args, 2)?;
            let mut total = 0u32;
            for (i, s) in args.iter().enumerate() {
                match s {
                    Sort::BitVec(w) => total += w,
                    other => return Err(arg_err(op, i, "a bit-vector", other)),
                }
            }
            if total > 128 {
                return Err(SortError::BadIndex {
                    op: op.to_string(),
                    reason: "concatenation wider than 128 bits".into(),
                });
            }
            Ok(Sort::BitVec(total))
        }
        Extract(i, j) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args)?;
            if i < j || *i >= w {
                return Err(SortError::BadIndex {
                    op: op.to_string(),
                    reason: format!("extract [{i}:{j}] out of range for width {w}"),
                });
            }
            Ok(Sort::BitVec(i - j + 1))
        }
        ZeroExtend(k) | SignExtend(k) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args)?;
            if w + k > 128 {
                return Err(SortError::BadIndex {
                    op: op.to_string(),
                    reason: "extension beyond 128 bits".into(),
                });
            }
            Ok(Sort::BitVec(w + k))
        }
        RotateLeft(_) | RotateRight(_) => {
            expect_exact(op, args, 1)?;
            Ok(Sort::BitVec(same_bv_width(op, args)?))
        }
        Repeat(k) => {
            expect_exact(op, args, 1)?;
            let w = same_bv_width(op, args)?;
            if *k == 0 || w.saturating_mul(*k) > 128 {
                return Err(SortError::BadIndex {
                    op: op.to_string(),
                    reason: "repeat count must be >= 1 and result <= 128 bits".into(),
                });
            }
            Ok(Sort::BitVec(w * k))
        }

        // ---- strings ----
        StrConcat => {
            expect_at_least(op, args, 1)?;
            expect_all(op, args, &Sort::String)?;
            Ok(Sort::String)
        }
        StrLen => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::String)?;
            Ok(Sort::Int)
        }
        StrAt => {
            expect_exact(op, args, 2)?;
            check_sig(op, args, &[Sort::String, Sort::Int])?;
            Ok(Sort::String)
        }
        StrSubstr => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[Sort::String, Sort::Int, Sort::Int])?;
            Ok(Sort::String)
        }
        StrContains | StrPrefixof | StrSuffixof => {
            expect_exact(op, args, 2)?;
            check_sig(op, args, &[Sort::String, Sort::String])?;
            Ok(Sort::Bool)
        }
        StrIndexof => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[Sort::String, Sort::String, Sort::Int])?;
            Ok(Sort::Int)
        }
        StrReplace | StrReplaceAll => {
            expect_exact(op, args, 3)?;
            check_sig(op, args, &[Sort::String, Sort::String, Sort::String])?;
            Ok(Sort::String)
        }
        StrLt | StrLe => {
            expect_at_least(op, args, 2)?;
            expect_all(op, args, &Sort::String)?;
            Ok(Sort::Bool)
        }
        StrToInt | StrToCode => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::String)?;
            Ok(Sort::Int)
        }
        StrFromInt | StrFromCode => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::Int)?;
            Ok(Sort::String)
        }
        StrIsDigit => {
            expect_exact(op, args, 1)?;
            expect_all(op, args, &Sort::String)?;
            Ok(Sort::Bool)
        }

        // ---- sequences ----
        SeqUnit => {
            expect_exact(op, args, 1)?;
            Ok(Sort::seq(args[0].clone()))
        }
        SeqConcat => {
            expect_at_least(op, args, 1)?;
            let elem = seq_elem(op, 0, &args[0])?;
            for (i, s) in args.iter().enumerate().skip(1) {
                if seq_elem(op, i, s)? != elem {
                    return Err(arg_err(op, i, Sort::seq(elem).to_string(), s));
                }
            }
            Ok(Sort::seq(elem))
        }
        SeqLen => {
            expect_exact(op, args, 1)?;
            seq_elem(op, 0, &args[0])?;
            Ok(Sort::Int)
        }
        SeqNth => {
            expect_exact(op, args, 2)?;
            let elem = seq_elem(op, 0, &args[0])?;
            if args[1] != Sort::Int {
                return Err(arg_err(op, 1, "Int", &args[1]));
            }
            Ok(elem)
        }
        SeqExtract => {
            expect_exact(op, args, 3)?;
            let elem = seq_elem(op, 0, &args[0])?;
            check_tail_ints(op, args)?;
            Ok(Sort::seq(elem))
        }
        SeqContains | SeqPrefixof | SeqSuffixof => {
            expect_exact(op, args, 2)?;
            let a = seq_elem(op, 0, &args[0])?;
            let b = seq_elem(op, 1, &args[1])?;
            if a != b {
                return Err(arg_err(op, 1, Sort::seq(a).to_string(), &args[1]));
            }
            Ok(Sort::Bool)
        }
        SeqIndexof => {
            expect_exact(op, args, 3)?;
            let a = seq_elem(op, 0, &args[0])?;
            let b = seq_elem(op, 1, &args[1])?;
            if a != b {
                return Err(arg_err(op, 1, Sort::seq(a).to_string(), &args[1]));
            }
            if args[2] != Sort::Int {
                return Err(arg_err(op, 2, "Int", &args[2]));
            }
            Ok(Sort::Int)
        }
        SeqRev => {
            expect_exact(op, args, 1)?;
            seq_elem(op, 0, &args[0])?;
            Ok(args[0].clone())
        }
        SeqUpdate => {
            expect_exact(op, args, 3)?;
            let a = seq_elem(op, 0, &args[0])?;
            if args[1] != Sort::Int {
                return Err(arg_err(op, 1, "Int", &args[1]));
            }
            let b = seq_elem(op, 2, &args[2])?;
            if a != b {
                return Err(arg_err(op, 2, Sort::seq(a).to_string(), &args[2]));
            }
            Ok(args[0].clone())
        }
        SeqAt => {
            expect_exact(op, args, 2)?;
            seq_elem(op, 0, &args[0])?;
            if args[1] != Sort::Int {
                return Err(arg_err(op, 1, "Int", &args[1]));
            }
            Ok(args[0].clone())
        }
        SeqReplace => {
            expect_exact(op, args, 3)?;
            let a = seq_elem(op, 0, &args[0])?;
            for (i, s) in args.iter().enumerate().skip(1) {
                if seq_elem(op, i, s)? != a {
                    return Err(arg_err(op, i, Sort::seq(a.clone()).to_string(), s));
                }
            }
            Ok(args[0].clone())
        }

        // ---- sets & relations ----
        SetUnion | SetInter | SetMinus => {
            expect_at_least(op, args, 2)?;
            let elem = set_elem(op, 0, &args[0])?;
            for (i, s) in args.iter().enumerate().skip(1) {
                if set_elem(op, i, s)? != elem {
                    return Err(arg_err(op, i, Sort::set(elem).to_string(), s));
                }
            }
            Ok(Sort::set(elem))
        }
        SetMember => {
            expect_exact(op, args, 2)?;
            let elem = set_elem(op, 1, &args[1])?;
            if args[0] != elem {
                return Err(arg_err(op, 0, elem.to_string(), &args[0]));
            }
            Ok(Sort::Bool)
        }
        SetSubset => {
            expect_exact(op, args, 2)?;
            let a = set_elem(op, 0, &args[0])?;
            let b = set_elem(op, 1, &args[1])?;
            if a != b {
                return Err(arg_err(op, 1, Sort::set(a).to_string(), &args[1]));
            }
            Ok(Sort::Bool)
        }
        SetInsert => {
            expect_at_least(op, args, 2)?;
            let set_sort = args.last().expect("non-empty");
            let elem = set_elem(op, args.len() - 1, set_sort)?;
            for (i, s) in args[..args.len() - 1].iter().enumerate() {
                if *s != elem {
                    return Err(arg_err(op, i, elem.to_string(), s));
                }
            }
            Ok(set_sort.clone())
        }
        SetSingleton => {
            expect_exact(op, args, 1)?;
            Ok(Sort::set(args[0].clone()))
        }
        SetCard => {
            expect_exact(op, args, 1)?;
            set_elem(op, 0, &args[0])?;
            Ok(Sort::Int)
        }
        SetComplement => {
            expect_exact(op, args, 1)?;
            set_elem(op, 0, &args[0])?;
            Ok(args[0].clone())
        }
        RelJoin => {
            expect_exact(op, args, 2)?;
            let a = relation_arity(op, 0, &args[0])?;
            let b = relation_arity(op, 1, &args[1])?;
            if a.is_empty() || b.is_empty() {
                return Err(SortError::BadRelation {
                    op: op.to_string(),
                    reason: "join requires non-nullary relations".into(),
                });
            }
            if a.last() != b.first() {
                return Err(SortError::BadRelation {
                    op: op.to_string(),
                    reason: format!(
                        "join column sorts differ: {} vs {}",
                        a.last().expect("non-empty"),
                        b.first().expect("non-empty")
                    ),
                });
            }
            let mut elems = a[..a.len() - 1].to_vec();
            elems.extend_from_slice(&b[1..]);
            Ok(Sort::set(Sort::Tuple(elems)))
        }
        RelProduct => {
            expect_exact(op, args, 2)?;
            let mut a = relation_arity(op, 0, &args[0])?;
            let b = relation_arity(op, 1, &args[1])?;
            a.extend(b);
            Ok(Sort::set(Sort::Tuple(a)))
        }
        RelTranspose => {
            expect_exact(op, args, 1)?;
            let mut a = relation_arity(op, 0, &args[0])?;
            a.reverse();
            Ok(Sort::set(Sort::Tuple(a)))
        }

        // ---- bags ----
        BagMake => {
            expect_exact(op, args, 2)?;
            if args[1] != Sort::Int {
                return Err(arg_err(op, 1, "Int", &args[1]));
            }
            Ok(Sort::bag(args[0].clone()))
        }
        BagUnionMax | BagUnionDisjoint | BagInterMin | BagDiffSubtract => {
            expect_at_least(op, args, 2)?;
            let elem = bag_elem(op, 0, &args[0])?;
            for (i, s) in args.iter().enumerate().skip(1) {
                if bag_elem(op, i, s)? != elem {
                    return Err(arg_err(op, i, Sort::bag(elem).to_string(), s));
                }
            }
            Ok(Sort::bag(elem))
        }
        BagCount => {
            expect_exact(op, args, 2)?;
            let elem = bag_elem(op, 1, &args[1])?;
            if args[0] != elem {
                return Err(arg_err(op, 0, elem.to_string(), &args[0]));
            }
            Ok(Sort::Int)
        }
        BagCard => {
            expect_exact(op, args, 1)?;
            bag_elem(op, 0, &args[0])?;
            Ok(Sort::Int)
        }
        BagMember => {
            expect_exact(op, args, 2)?;
            let elem = bag_elem(op, 1, &args[1])?;
            if args[0] != elem {
                return Err(arg_err(op, 0, elem.to_string(), &args[0]));
            }
            Ok(Sort::Bool)
        }
        BagSubbag => {
            expect_exact(op, args, 2)?;
            let a = bag_elem(op, 0, &args[0])?;
            let b = bag_elem(op, 1, &args[1])?;
            if a != b {
                return Err(arg_err(op, 1, Sort::bag(a).to_string(), &args[1]));
            }
            Ok(Sort::Bool)
        }

        // ---- finite fields ----
        FfAdd | FfMul => {
            expect_at_least(op, args, 2)?;
            Ok(Sort::FiniteField(same_ff_modulus(op, args)?))
        }
        FfNeg => {
            expect_exact(op, args, 1)?;
            Ok(Sort::FiniteField(same_ff_modulus(op, args)?))
        }
        FfBitsum => {
            expect_at_least(op, args, 1)?;
            Ok(Sort::FiniteField(same_ff_modulus(op, args)?))
        }

        // ---- arrays ----
        Select => {
            expect_exact(op, args, 2)?;
            match &args[0] {
                Sort::Array(k, v) => {
                    if args[1] != **k {
                        return Err(arg_err(op, 1, k.to_string(), &args[1]));
                    }
                    Ok((**v).clone())
                }
                other => Err(arg_err(op, 0, "an array", other)),
            }
        }
        Store => {
            expect_exact(op, args, 3)?;
            match &args[0] {
                Sort::Array(k, v) => {
                    if args[1] != **k {
                        return Err(arg_err(op, 1, k.to_string(), &args[1]));
                    }
                    if args[2] != **v {
                        return Err(arg_err(op, 2, v.to_string(), &args[2]));
                    }
                    Ok(args[0].clone())
                }
                other => Err(arg_err(op, 0, "an array", other)),
            }
        }
        ConstArray(sort) => {
            expect_exact(op, args, 1)?;
            match sort {
                Sort::Array(_, v) => {
                    if args[0] != **v {
                        return Err(arg_err(op, 0, v.to_string(), &args[0]));
                    }
                    Ok(sort.clone())
                }
                other => Err(SortError::BadIndex {
                    op: op.to_string(),
                    reason: format!("'as const' annotated with non-array sort {other}"),
                }),
            }
        }

        // ---- tuples ----
        MkTuple => Ok(Sort::Tuple(args.to_vec())),
        TupleSelect(i) => {
            expect_exact(op, args, 1)?;
            match &args[0] {
                Sort::Tuple(elems) => {
                    elems
                        .get(*i as usize)
                        .cloned()
                        .ok_or_else(|| SortError::BadIndex {
                            op: op.to_string(),
                            reason: format!(
                                "tuple index {i} out of range for arity {}",
                                elems.len()
                            ),
                        })
                }
                other => Err(arg_err(op, 0, "a tuple", other)),
            }
        }

        // ---- uninterpreted functions ----
        Uf(name) => {
            let (params, ret) = ctx
                .funs
                .get(name)
                .ok_or_else(|| SortError::UnknownSymbol(name.clone()))?;
            if params.len() != args.len() {
                return Err(arity_err(
                    op,
                    &format!("exactly {}", params.len()),
                    args.len(),
                ));
            }
            for (i, (got, want)) in args.iter().zip(params).enumerate() {
                if got != want {
                    return Err(arg_err(op, i, want.to_string(), got));
                }
            }
            Ok(ret.clone())
        }
    }
}

fn check_sig(op: &Op, args: &[Sort], want: &[Sort]) -> Result<(), SortError> {
    for (i, (got, w)) in args.iter().zip(want).enumerate() {
        if got != w {
            return Err(arg_err(op, i, w.to_string(), got));
        }
    }
    Ok(())
}

fn check_tail_ints(op: &Op, args: &[Sort]) -> Result<(), SortError> {
    for (i, s) in args.iter().enumerate().skip(1) {
        if *s != Sort::Int {
            return Err(arg_err(op, i, "Int", s));
        }
    }
    Ok(())
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

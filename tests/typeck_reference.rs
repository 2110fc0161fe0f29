//! Differential sweep of the sort checker against the recursive checker it
//! replaced, kept below as a reference.
//!
//! Inputs: every corrected generator's samples from the trunk fuzzer's
//! construction report, the seed scripts, the trunk fuzzer's cases, and
//! seeded corruptions of all of them: an operator swapped for one with
//! another signature, a literal of another sort, an argument dropped or
//! duplicated, a placeholder, a binder that shadows a declaration with
//! another sort, and a redeclaration, one or two per script so that
//! errors compete for precedence. Every input must get the same verdict
//! from both checkers, and an error the same value and the same text
//! (the generator self-correction loop reads it). The boxed
//! `check_script` must return the reference's context, and
//! `check_term_arena` must agree with the reference on every assertion
//! under it.
//!
//! Debug builds sweep a share of the corpus; CI runs the whole of it in
//! release.

use once4all::core::{Fuzzer, Once4AllConfig, Once4AllFuzzer, SEED_TEXTS};
use once4all::smtlib::typeck::{self, SortContext};
use once4all::smtlib::{
    parse_script_arena, parse_term_arena, ANode, ArenaCommand, ArenaScript, Op, Quantifier, Sort,
    SortError, Symbol, TermArena, TermId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Trunk cases and samples per generator in the full sweep.
const TRUNK_CASES: usize = 3000;
const SAMPLES_PER_GENERATOR: usize = 60;
/// Corrupted variants per input.
const CORRUPTIONS: usize = 3;

/// The share of the full sweep this build runs.
fn scale(n: usize) -> usize {
    if cfg!(debug_assertions) {
        n / 5
    } else {
        n
    }
}

/// Operators with signatures unlike most others', for swaps.
fn swap_ops() -> Vec<Op> {
    use Op::*;
    vec![
        Not,
        And,
        Implies,
        Eq,
        Ite,
        Add,
        IntDiv,
        RealDiv,
        Le,
        ToReal,
        BvAdd,
        BvUlt,
        Concat,
        Extract(3, 0),
        ZeroExtend(4),
        Repeat(2),
        StrConcat,
        StrAt,
        StrIndexof,
        SeqUnit,
        SeqConcat,
        SeqNth,
        SeqUpdate,
        SetUnion,
        SetMember,
        SetInsert,
        SetSingleton,
        RelJoin,
        RelProduct,
        RelTranspose,
        BagMake,
        BagCount,
        FfAdd,
        FfNeg,
        Select,
        Store,
        ConstArray(Sort::array(Sort::Int, Sort::Bool)),
        MkTuple,
        TupleSelect(1),
        Uf(Symbol::new("f")),
        ConstArray(Sort::Int),
        Repeat(0),
    ]
}

/// Literals of many sorts and an undeclared symbol, for replacements and
/// shadowing binders.
const LITERALS: &[&str] = &[
    "7",
    "true",
    "2.5",
    "\"s\"",
    "#x0f",
    "(_ bv3 4)",
    "(as seq.empty (Seq Int))",
    "(as set.empty (Set Bool))",
    "undeclared",
];

/// Sorts for shadowing quantifiers and redeclarations.
fn other_sorts() -> Vec<Sort> {
    vec![
        Sort::Bool,
        Sort::Int,
        Sort::Real,
        Sort::String,
        Sort::BitVec(8),
        Sort::seq(Sort::Int),
        Sort::set(Sort::Tuple(vec![Sort::Int, Sort::Bool])),
        Sort::array(Sort::Int, Sort::Int),
    ]
}

/// Rebuilds `id` with its `n`th node in pre-order (as
/// [`TermArena::visit`] lists them) replaced by `f` of it.
fn replace_nth(
    a: &mut TermArena,
    id: TermId,
    n: &mut Option<usize>,
    f: &mut dyn FnMut(&mut TermArena, TermId) -> TermId,
) -> TermId {
    match *n {
        Some(0) => {
            *n = None;
            return f(a, id);
        }
        Some(k) => *n = Some(k - 1),
        None => return id,
    }
    match a.node(id) {
        ANode::App(op, start, len) => {
            let args = a.args(start, len).to_vec();
            let args: Vec<TermId> = args.iter().map(|&x| replace_nth(a, x, n, f)).collect();
            a.mk_app(op, &args)
        }
        ANode::Let(start, len, body) => {
            let binds = a.let_binds(start, len).to_vec();
            let binds: Vec<_> = binds
                .iter()
                .map(|&(s, v)| (s, replace_nth(a, v, n, f)))
                .collect();
            let body = replace_nth(a, body, n, f);
            a.mk_let(&binds, body)
        }
        ANode::Quant(q, start, len, body) => {
            let vars = a.quant_vars(start, len).to_vec();
            let body = replace_nth(a, body, n, f);
            a.mk_quant(q, &vars, body)
        }
        _ => id,
    }
}

/// Applies one random corruption to `script`.
fn corrupt(script: &mut ArenaScript, a: &mut TermArena, rng: &mut StdRng) {
    let declared: Vec<Symbol> = script
        .commands
        .iter()
        .filter_map(|c| match c {
            ArenaCommand::DeclareConst(name, _) | ArenaCommand::DeclareFun(name, _, _) => {
                Some(name.clone())
            }
            _ => None,
        })
        .collect();
    let kind = rng.gen_range(0..7);
    if kind == 6 || script.assertions().next().is_none() {
        // A redeclaration, of a declared name or of a fresh one twice.
        let name = declared
            .choose(rng)
            .cloned()
            .unwrap_or_else(|| Symbol::new("fresh"));
        let sort = other_sorts().choose(rng).expect("sorts").clone();
        for _ in 0..if declared.contains(&name) { 1 } else { 2 } {
            let at = rng.gen_range(0..=script.commands.len());
            script
                .commands
                .insert(at, ArenaCommand::DeclareConst(name.clone(), sort.clone()));
        }
        return;
    }
    let asserts: Vec<usize> = (0..script.commands.len())
        .filter(|&i| matches!(script.commands[i], ArenaCommand::Assert(_)))
        .collect();
    let at = *asserts.choose(rng).expect("an assertion");
    let ArenaCommand::Assert(root) = script.commands[at] else {
        unreachable!()
    };
    let mut nodes = Vec::new();
    a.visit(root, |node| nodes.push(node));
    let apps: Vec<usize> = (0..nodes.len())
        .filter(|&i| matches!(nodes[i], ANode::App(_, _, len) if len > 0))
        .collect();
    let target = match kind {
        0 | 2 | 3 if !apps.is_empty() => *apps.choose(rng).expect("an application"),
        _ => rng.gen_range(0..nodes.len()),
    };
    let ops = swap_ops();
    let literal = *LITERALS.choose(rng).expect("literals");
    let sort = other_sorts().choose(rng).expect("sorts").clone();
    let shadow = declared
        .choose(rng)
        .cloned()
        .unwrap_or_else(|| Symbol::new("x"));
    let dup = rng.gen_bool(0.5);
    let pick = rng.gen_range(0..64usize);
    let mut f = |a: &mut TermArena, id: TermId| -> TermId {
        match (kind, a.node(id)) {
            (0, ANode::App(_, start, len)) => {
                let args = a.args(start, len).to_vec();
                a.mk_app_op(&ops[pick % ops.len()], &args)
            }
            (2 | 3, ANode::App(op, start, len)) if len > 0 => {
                let mut args = a.args(start, len).to_vec();
                let i = pick % args.len();
                if dup {
                    args.insert(i, args[i]);
                } else {
                    args.remove(i);
                }
                a.mk_app(op, &args)
            }
            (4, _) => a.mk_placeholder(0),
            (5, _) => {
                let sym = a.sym_of(&shadow);
                if dup {
                    let value = parse_term_arena(literal, a).expect("literal parses");
                    a.mk_let(&[(sym, value)], id)
                } else {
                    let sort = a.sort_id(&sort);
                    a.mk_quant(Quantifier::Exists, &[(sym, sort)], id)
                }
            }
            _ => parse_term_arena(literal, a).expect("literal parses"),
        }
    };
    let root = replace_nth(a, root, &mut Some(target), &mut f);
    script.commands[at] = ArenaCommand::Assert(root);
}

/// What the sweep saw, per verdict kind.
#[derive(Default)]
struct Tally(BTreeMap<&'static str, usize>);

impl Tally {
    fn note(&mut self, verdict: &Result<(), SortError>) {
        let kind = match verdict {
            Ok(()) => "ok",
            Err(SortError::UnknownSymbol(_)) => "unknown symbol",
            Err(SortError::Redeclaration(_)) => "redeclaration",
            Err(SortError::Arity { .. }) => "arity",
            Err(SortError::ArgSort { .. }) => "argument sort",
            Err(SortError::WidthMismatch { .. }) => "width mismatch",
            Err(SortError::BadIndex { .. }) => "bad index",
            Err(SortError::BadRelation { .. }) => "bad relation",
            Err(SortError::PlaceholderPresent) => "placeholder",
        };
        *self.0.entry(kind).or_default() += 1;
    }
}

/// Checks `script` with both checkers and both entry points.
fn compare(script: &ArenaScript, a: &TermArena, tally: &mut Tally) {
    let mut text = String::new();
    script.print_into(a, &mut text);
    let got = typeck::check_script_arena(script, a);
    let want = reference::check_script_arena(script, a);
    match (&got, &want) {
        (Ok(()), Ok(ctx)) => {
            let boxed = typeck::check_script(&script.to_script(a)).expect("boxed agrees");
            assert_eq!(
                format!("{boxed:?}"),
                format!("{ctx:?}"),
                "context of {text}"
            );
            for t in script.assertions() {
                let mut nodes = vec![t];
                if let ANode::App(_, start, len) = a.node(t) {
                    nodes.extend_from_slice(a.args(start, len));
                }
                for id in nodes {
                    terms_agree(id, a, ctx, &text);
                }
            }
        }
        (Err(g), Err(w)) => {
            assert_eq!(g, w, "error of {text}");
            assert_eq!(g.to_string(), w.to_string(), "error text of {text}");
            let boxed = typeck::check_script(&script.to_script(a)).expect_err("boxed agrees");
            assert_eq!(&boxed, w, "boxed error of {text}");
        }
        _ => panic!(
            "verdicts differ on {text}: {got:?} vs {:?}",
            want.map(|_| ())
        ),
    }
    tally.note(&got);
}

fn terms_agree(id: TermId, a: &TermArena, ctx: &SortContext, text: &str) {
    let got = typeck::check_term_arena(id, a, ctx);
    let want = reference::check_term_arena(id, a, ctx);
    assert_eq!(got, want, "term check in {text}");
    if let (Err(g), Err(w)) = (&got, &want) {
        assert_eq!(g.to_string(), w.to_string(), "term error text in {text}");
    }
}

/// Parses `text` and compares the checkers on it and on corruptions of it.
fn sweep(text: &str, a: &mut TermArena, rng: &mut StdRng, tally: &mut Tally) {
    a.reset();
    let Ok(script) = parse_script_arena(text, a) else {
        return;
    };
    compare(&script, a, tally);
    for _ in 0..CORRUPTIONS {
        let mut bad = script.clone();
        for _ in 0..rng.gen_range(1..=2) {
            corrupt(&mut bad, a, rng);
        }
        compare(&bad, a, tally);
    }
}

#[test]
fn checker_matches_the_recursive_reference() {
    let mut rng = StdRng::seed_from_u64(0x7c4e);
    let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
    fuzzer.setup(&mut rng);
    let mut arena = TermArena::new();
    let mut tally = Tally::default();
    let report = fuzzer.construction_report().expect("set up").clone();
    for generator in &report.generators {
        for _ in 0..scale(SAMPLES_PER_GENERATOR) {
            if let Ok(raw) = generator.program.generate(&mut rng) {
                sweep(&raw.to_script_text(), &mut arena, &mut rng, &mut tally);
            }
        }
    }
    for text in SEED_TEXTS {
        sweep(text, &mut arena, &mut rng, &mut tally);
    }
    for _ in 0..scale(TRUNK_CASES) {
        let text = fuzzer.next_case(&mut rng).text;
        sweep(&text, &mut arena, &mut rng, &mut tally);
    }
    eprintln!("verdicts: {:?}", tally.0);
    for kind in [
        "ok",
        "unknown symbol",
        "redeclaration",
        "arity",
        "argument sort",
        "width mismatch",
        "bad index",
        "placeholder",
    ] {
        assert!(tally.0.contains_key(kind), "the sweep never saw: {kind}");
    }
}

mod reference {
    //! The recursive sort checker the id-based one replaced, verbatim
    //! but for its context constructor: the reference the sweep compares
    //! against.

    use once4all::smtlib::typeck::SortContext;
    use once4all::smtlib::{
        ANode, ArenaCommand, ArenaScript, Op, Sort, SortError, Symbol, TermArena, TermId,
    };

    /// `SortContext::from_arena_script` as it was.
    fn context_of(script: &ArenaScript) -> Result<SortContext, SortError> {
        let mut ctx = SortContext::default();
        for cmd in &script.commands {
            match cmd {
                ArenaCommand::DeclareConst(name, sort) => {
                    ctx.declare(name.clone(), Vec::new(), sort.clone())?
                }
                ArenaCommand::DeclareFun(name, args, ret) => {
                    ctx.declare(name.clone(), args.clone(), ret.clone())?
                }
                ArenaCommand::DefineFun(name, params, ret, _) => {
                    let args = params.iter().map(|(_, s)| s.clone()).collect();
                    ctx.declare(name.clone(), args, ret.clone())?;
                }
                ArenaCommand::DeclareSort(name) => ctx.sorts.push(name.clone()),
                _ => {}
            }
        }
        Ok(ctx)
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
        let ctx = context_of(script)?;
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
}

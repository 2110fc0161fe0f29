//! The golden evaluator: the single source of truth for the *intended*
//! bounded semantics of the supported SMT-LIB fragment.
//!
//! Both simulated solvers in `o4a-solvers` are written against this
//! contract, and the differential oracle in `o4a-core` uses it to re-check
//! models (the paper's `get-model` + re-evaluation step).
//!
//! ## Totalization conventions
//!
//! SMT-LIB leaves several operations under-specified; this crate fixes them
//! so that all components agree (internal consistency is what differential
//! testing needs, not agreement with any particular real solver):
//!
//! | operation | convention |
//! |---|---|
//! | `(div x 0)`, `(/ x 0)` | `0` |
//! | `(mod x 0)` | `x` |
//! | `bvudiv` by zero | all-ones |
//! | `bvurem` by zero | first operand |
//! | `seq.nth` out of range | element-sort default |
//! | `str.at`/`str.substr` out of range | `""` |
//! | `str.to_int` of non-numeral | `-1` |
//! | `set.complement` | only over exhaustible element sorts, else incomplete |
//!
//! ## Quantifier bounding
//!
//! Quantified variables range over *candidate domains* derived from
//! [`DomainConfig`]. A quantifier evaluates to a definite truth value when a
//! witness/counterexample is found, or when the candidate domain provably
//! covers the whole sort ([`Sort::is_exhaustible`]); otherwise evaluation
//! reports [`EvalError::Incomplete`] and solvers answer `unknown`.

use crate::{
    BitVecValue, EvalError, FiniteFieldValue, Model, Op, Quantifier, Rational, Sort, Symbol, Term,
    Value,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

mod incremental;

pub use incremental::{model_of, Dim, IncrementalEval};

/// Bounds for candidate domains used in quantifier expansion and model
/// search.
#[derive(Clone, Debug)]
pub struct DomainConfig {
    /// Integers range over `-int_radius ..= int_radius` plus `extra_ints`.
    pub int_radius: i64,
    /// Additional interesting integers (typically constants from the
    /// formula).
    pub extra_ints: Vec<i128>,
    /// Alphabet used to build candidate strings.
    pub str_alphabet: Vec<char>,
    /// Maximum candidate string length.
    pub str_max_len: usize,
    /// Maximum candidate sequence length.
    pub seq_max_len: usize,
    /// Maximum number of candidates per sort.
    pub max_candidates: usize,
    /// Maximum quantifier instantiations per quantifier node.
    pub quant_budget: usize,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            int_radius: 3,
            extra_ints: Vec::new(),
            str_alphabet: vec!['a', 'b'],
            str_max_len: 2,
            seq_max_len: 2,
            max_candidates: 64,
            quant_budget: 1024,
        }
    }
}

/// Candidate values for a sort plus whether they cover it exhaustively.
#[derive(Clone, Debug)]
pub struct Candidates {
    /// The candidate values.
    pub values: Vec<Value>,
    /// True when `values` contains *every* inhabitant of the sort.
    pub complete: bool,
}

/// Enumerates candidate values for `sort` under `cfg`.
///
/// Guaranteed non-empty for every supported sort. `complete` is only set
/// when the enumeration provably covers the sort.
pub fn candidates(sort: &Sort, cfg: &DomainConfig) -> Candidates {
    let cap = cfg.max_candidates.max(2);
    match sort {
        Sort::Bool => Candidates {
            values: vec![Value::Bool(false), Value::Bool(true)],
            complete: true,
        },
        Sort::Int => {
            let mut vals: BTreeSet<i128> = (-cfg.int_radius..=cfg.int_radius)
                .map(|i| i as i128)
                .collect();
            vals.extend(cfg.extra_ints.iter().copied());
            Candidates {
                values: vals.into_iter().take(cap).map(Value::Int).collect(),
                complete: false,
            }
        }
        Sort::Real => {
            let mut vals: BTreeSet<Rational> = BTreeSet::new();
            for i in -cfg.int_radius..=cfg.int_radius {
                vals.insert(Rational::from_int(i as i128));
                if let Some(h) = Rational::new(2 * i as i128 + 1, 2) {
                    vals.insert(h);
                }
            }
            for &i in &cfg.extra_ints {
                vals.insert(Rational::from_int(i));
            }
            Candidates {
                values: vals.into_iter().take(cap).map(Value::Real).collect(),
                complete: false,
            }
        }
        Sort::String => {
            let mut vals = vec![String::new()];
            let mut frontier = vec![String::new()];
            for _ in 0..cfg.str_max_len {
                let mut next = Vec::new();
                for base in &frontier {
                    for &c in &cfg.str_alphabet {
                        let mut s = base.clone();
                        s.push(c);
                        next.push(s);
                    }
                }
                vals.extend(next.iter().cloned());
                frontier = next;
                if vals.len() >= cap {
                    break;
                }
            }
            Candidates {
                values: vals.into_iter().take(cap).map(Value::Str).collect(),
                complete: false,
            }
        }
        Sort::BitVec(w) => {
            if *w <= 4 {
                let n = 1u128 << w;
                Candidates {
                    values: (0..n)
                        .map(|b| Value::BitVec(BitVecValue::new(*w, b)))
                        .collect(),
                    complete: true,
                }
            } else {
                let max = if *w >= 128 {
                    u128::MAX
                } else {
                    (1u128 << w) - 1
                };
                let picks: BTreeSet<u128> = [
                    0u128,
                    1,
                    2,
                    3,
                    5,
                    7,
                    max,
                    max - 1,
                    max / 2,
                    1u128 << (w - 1),
                ]
                .into_iter()
                .map(|b| b & max)
                .collect();
                Candidates {
                    values: picks
                        .into_iter()
                        .take(cap)
                        .map(|b| Value::BitVec(BitVecValue::new(*w, b)))
                        .collect(),
                    complete: false,
                }
            }
        }
        Sort::FiniteField(p) => {
            if *p <= 11 {
                Candidates {
                    values: (0..*p)
                        .map(|v| Value::FiniteField(FiniteFieldValue::new(*p, v as i128)))
                        .collect(),
                    complete: true,
                }
            } else {
                let picks: BTreeSet<u64> = [0, 1, 2, p / 2, p - 1].into_iter().collect();
                Candidates {
                    values: picks
                        .into_iter()
                        .take(cap)
                        .map(|v| Value::FiniteField(FiniteFieldValue::new(*p, v as i128)))
                        .collect(),
                    complete: false,
                }
            }
        }
        Sort::Seq(e) => {
            let elems = candidates(e, cfg);
            let mut vals = vec![Value::Seq((**e).clone(), Vec::new())];
            for v in elems.values.iter().take(4) {
                vals.push(Value::Seq((**e).clone(), vec![v.clone()]));
            }
            for a in elems.values.iter().take(2) {
                for b in elems.values.iter().take(2) {
                    if cfg.seq_max_len >= 2 {
                        vals.push(Value::Seq((**e).clone(), vec![a.clone(), b.clone()]));
                    }
                }
            }
            vals.truncate(cap);
            Candidates {
                values: vals,
                complete: false,
            }
        }
        Sort::Set(e) => {
            let elems = candidates(e, cfg);
            if elems.complete && elems.values.len() <= 4 {
                // Full powerset.
                let n = elems.values.len();
                let mut vals = Vec::with_capacity(1 << n);
                for mask in 0u32..(1 << n) {
                    let mut s = BTreeSet::new();
                    for (i, v) in elems.values.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            s.insert(v.clone());
                        }
                    }
                    vals.push(Value::Set((**e).clone(), s));
                }
                vals.truncate(cap);
                Candidates {
                    values: vals,
                    complete: true,
                }
            } else {
                let mut vals = vec![Value::Set((**e).clone(), BTreeSet::new())];
                for v in elems.values.iter().take(4) {
                    let mut s = BTreeSet::new();
                    s.insert(v.clone());
                    vals.push(Value::Set((**e).clone(), s));
                }
                if elems.values.len() >= 2 {
                    let mut s = BTreeSet::new();
                    s.insert(elems.values[0].clone());
                    s.insert(elems.values[1].clone());
                    vals.push(Value::Set((**e).clone(), s));
                }
                vals.truncate(cap);
                Candidates {
                    values: vals,
                    complete: false,
                }
            }
        }
        Sort::Bag(e) => {
            let elems = candidates(e, cfg);
            let mut vals = vec![Value::Bag((**e).clone(), BTreeMap::new())];
            for v in elems.values.iter().take(3) {
                for count in [1u64, 2] {
                    let mut b = BTreeMap::new();
                    b.insert(v.clone(), count);
                    vals.push(Value::Bag((**e).clone(), b));
                }
            }
            vals.truncate(cap);
            Candidates {
                values: vals,
                complete: false,
            }
        }
        Sort::Array(k, v) => {
            let vals_v = candidates(v, cfg);
            let keys = candidates(k, cfg);
            let mut vals = Vec::new();
            for d in vals_v.values.iter().take(3) {
                vals.push(Value::Array {
                    key: (**k).clone(),
                    default: Box::new(d.clone()),
                    table: BTreeMap::new(),
                });
            }
            if let (Some(k0), Some(v1)) = (keys.values.first(), vals_v.values.get(1)) {
                let mut table = BTreeMap::new();
                table.insert(k0.clone(), v1.clone());
                vals.push(Value::Array {
                    key: (**k).clone(),
                    default: Box::new(vals_v.values[0].clone()),
                    table,
                });
            }
            vals.truncate(cap);
            Candidates {
                values: vals,
                complete: false,
            }
        }
        Sort::Tuple(es) => {
            let mut vals = vec![Vec::new()];
            let mut complete = true;
            for e in es {
                let c = candidates(e, cfg);
                complete &= c.complete;
                let mut next = Vec::new();
                for base in &vals {
                    for v in c.values.iter() {
                        let mut t = base.clone();
                        t.push(v.clone());
                        next.push(t);
                        if next.len() >= cap {
                            break;
                        }
                    }
                    if next.len() >= cap {
                        complete = false;
                        break;
                    }
                }
                vals = next;
            }
            Candidates {
                values: vals.into_iter().map(Value::Tuple).collect(),
                complete,
            }
        }
        Sort::Uninterpreted(name) => Candidates {
            values: (0..3).map(|k| Value::Unin(name.clone(), k)).collect(),
            complete: false,
        },
    }
}

/// Candidate domains computed once per distinct sort, for one case: read
/// by the search over its declared symbols and by the quantifiers
/// [`IncrementalEval`] compiles.
#[derive(Clone, Debug, Default)]
pub struct Domains {
    sorts: Vec<Sort>,
    candidates: Vec<Candidates>,
}

impl Domains {
    /// The candidate domain of each distinct sort in `sorts` under `cfg`.
    pub fn new<'s>(sorts: impl IntoIterator<Item = &'s Sort>, cfg: &DomainConfig) -> Domains {
        let mut out = Domains::default();
        for sort in sorts {
            if out.index(sort).is_none() {
                out.candidates.push(candidates(sort, cfg));
                out.sorts.push(sort.clone());
            }
        }
        out
    }

    /// The index of `sort`'s domain, if the table has one.
    pub fn index(&self, sort: &Sort) -> Option<usize> {
        self.sorts.iter().position(|s| s == sort)
    }

    /// The domain at `index`.
    pub fn get(&self, index: usize) -> &Candidates {
        &self.candidates[index]
    }
}

/// Defined functions from `define-fun`: name → (parameters, body).
pub type FunDefs = BTreeMap<Symbol, (Vec<(Symbol, Sort)>, Term)>;

/// Evaluation environment: model, defined functions, domain bounds, budget.
pub struct Evaluator<'a> {
    model: &'a Model,
    defs: &'a FunDefs,
    cfg: &'a DomainConfig,
    steps: Cell<u64>,
}

/// An empty defined-function map, for convenience when a formula has no
/// `define-fun` commands.
pub fn no_defs() -> &'static FunDefs {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<FunDefs> = OnceLock::new();
    EMPTY.get_or_init(BTreeMap::new)
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with a step budget (AST-node visits).
    pub fn new(
        model: &'a Model,
        defs: &'a FunDefs,
        cfg: &'a DomainConfig,
        budget: u64,
    ) -> Evaluator<'a> {
        Evaluator {
            model,
            defs,
            cfg,
            steps: Cell::new(budget),
        }
    }

    /// Evaluates a term to a concrete value.
    ///
    /// # Errors
    ///
    /// See [`EvalError`]; in particular [`EvalError::Incomplete`] when a
    /// quantifier cannot be decided within the bounded domain.
    pub fn eval(&self, term: &Term) -> Result<Value, EvalError> {
        let mut scope = Vec::new();
        self.eval_in(term, &mut scope)
    }

    fn tick(&self) -> Result<(), EvalError> {
        let s = self.steps.get();
        if s == 0 {
            return Err(EvalError::BudgetExhausted);
        }
        self.steps.set(s - 1);
        Ok(())
    }

    fn eval_in(&self, term: &Term, scope: &mut Vec<(Symbol, Value)>) -> Result<Value, EvalError> {
        self.tick()?;
        match term {
            Term::Const(v) => Ok(v.clone()),
            Term::Placeholder(_) => Err(EvalError::Placeholder),
            Term::Var(name) => {
                if let Some((_, v)) = scope.iter().rev().find(|(n, _)| n == name) {
                    return Ok(v.clone());
                }
                if let Some(v) = self.model.get_const(name) {
                    return Ok(v.clone());
                }
                if let Some((params, body)) = self.defs.get(name) {
                    if params.is_empty() {
                        return self.eval_in(&body.clone(), scope);
                    }
                }
                Err(EvalError::UnassignedSymbol(name.clone()))
            }
            Term::Let(binds, body) => {
                let mut bound = Vec::with_capacity(binds.len());
                for (name, value) in binds {
                    bound.push((name.clone(), self.eval_in(value, scope)?));
                }
                let n = scope.len();
                scope.extend(bound);
                let out = self.eval_in(body, scope);
                scope.truncate(n);
                out
            }
            Term::Quant(q, vars, body) => self.eval_quant(*q, vars, body, scope),
            Term::App(op, args) => match op {
                // Short-circuiting connectives need special treatment so a
                // decisive child dominates an incomplete sibling.
                Op::And => self.eval_connective(args, scope, false),
                Op::Or => self.eval_connective(args, scope, true),
                Op::Ite => {
                    let c = self.eval_in(&args[0], scope)?;
                    match c.as_bool() {
                        Some(true) => self.eval_in(&args[1], scope),
                        Some(false) => self.eval_in(&args[2], scope),
                        None => Err(EvalError::IllSorted("ite condition not Bool".into())),
                    }
                }
                Op::Uf(name) => {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval_in(a, scope)?);
                    }
                    if let Some((params, body)) = self.defs.get(name) {
                        let n = scope.len();
                        scope.extend(
                            params
                                .iter()
                                .map(|(p, _)| p.clone())
                                .zip(vals.iter().cloned()),
                        );
                        let out = self.eval_in(&body.clone(), scope);
                        scope.truncate(n);
                        return out;
                    }
                    self.model
                        .apply_fun(name, &vals)
                        .ok_or_else(|| EvalError::UnassignedSymbol(name.clone()))
                }
                _ => apply_evaluated(op, args, |a| self.eval_in(a, scope)),
            },
        }
    }

    /// `and` (decisive = false) / `or` (decisive = true) with incomplete
    /// tolerance: a decisive child answers even if a sibling is incomplete.
    fn eval_connective(
        &self,
        args: &[Term],
        scope: &mut Vec<(Symbol, Value)>,
        decisive: bool,
    ) -> Result<Value, EvalError> {
        let mut pending_incomplete = false;
        for a in args {
            match self.eval_in(a, scope) {
                Ok(Value::Bool(b)) => {
                    if b == decisive {
                        return Ok(Value::Bool(decisive));
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
            Ok(Value::Bool(!decisive))
        }
    }

    fn eval_quant(
        &self,
        q: Quantifier,
        vars: &[(Symbol, Sort)],
        body: &Term,
        scope: &mut Vec<(Symbol, Value)>,
    ) -> Result<Value, EvalError> {
        let decisive = match q {
            Quantifier::Forall => false, // a false instance decides forall
            Quantifier::Exists => true,  // a true instance decides exists
        };
        let doms: Vec<Candidates> = vars.iter().map(|(_, s)| candidates(s, self.cfg)).collect();
        let complete = doms.iter().all(|d| d.complete);
        let mut total: usize = 1;
        for d in &doms {
            total = total.saturating_mul(d.values.len().max(1));
        }
        let capped = total > self.cfg.quant_budget;
        let mut saw_incomplete = false;

        let mut idx = vec![0usize; vars.len()];
        let mut visited = 0usize;
        'outer: loop {
            if visited >= self.cfg.quant_budget {
                break;
            }
            visited += 1;
            let n = scope.len();
            for (k, (name, _)) in vars.iter().enumerate() {
                scope.push((name.clone(), doms[k].values[idx[k]].clone()));
            }
            let res = self.eval_in(body, scope);
            scope.truncate(n);
            match res {
                Ok(Value::Bool(b)) => {
                    if b == decisive {
                        return Ok(Value::Bool(decisive));
                    }
                }
                Ok(_) => return Err(EvalError::IllSorted("quantifier body not Bool".into())),
                Err(EvalError::Incomplete) => saw_incomplete = true,
                Err(e) => return Err(e),
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == vars.len() {
                    break 'outer;
                }
                idx[k] += 1;
                if idx[k] < doms[k].values.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }

        if complete && !capped && !saw_incomplete {
            Ok(Value::Bool(!decisive))
        } else {
            Err(EvalError::Incomplete)
        }
    }
}

/// Evaluates `args` left to right, stopping at the first error, and applies
/// `op` to the values. Up to three arguments — nearly every application —
/// are held in a stack array instead of a fresh `Vec`.
fn apply_evaluated<T>(
    op: &Op,
    args: &[T],
    mut eval: impl FnMut(&T) -> Result<Value, EvalError>,
) -> Result<Value, EvalError> {
    match args {
        [a] => apply_op(op, &[eval(a)?]),
        [a, b] => {
            let a = eval(a)?;
            apply_op(op, &[a, eval(b)?])
        }
        [a, b, c] => {
            let a = eval(a)?;
            let b = eval(b)?;
            apply_op(op, &[a, b, eval(c)?])
        }
        _ => apply_op(op, &args.iter().map(eval).collect::<Result<Vec<_>, _>>()?),
    }
}

// ---------------------------------------------------------------------------
// Concrete operator semantics
// ---------------------------------------------------------------------------

fn bool_arg(v: &Value) -> Result<bool, EvalError> {
    v.as_bool()
        .ok_or_else(|| EvalError::IllSorted("expected Bool".into()))
}

fn int_arg(v: &Value) -> Result<i128, EvalError> {
    v.as_int()
        .ok_or_else(|| EvalError::IllSorted(format!("expected Int, got {}", v.sort())))
}

fn rat_arg(v: &Value) -> Result<Rational, EvalError> {
    match v {
        Value::Real(r) => Ok(*r),
        Value::Int(i) => Ok(Rational::from_int(*i)),
        other => Err(EvalError::IllSorted(format!(
            "expected Real, got {}",
            other.sort()
        ))),
    }
}

fn str_arg(v: &Value) -> Result<&str, EvalError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(EvalError::IllSorted(format!(
            "expected String, got {}",
            other.sort()
        ))),
    }
}

fn bv_arg(v: &Value) -> Result<BitVecValue, EvalError> {
    match v {
        Value::BitVec(b) => Ok(*b),
        other => Err(EvalError::IllSorted(format!(
            "expected BitVec, got {}",
            other.sort()
        ))),
    }
}

fn ff_arg(v: &Value) -> Result<FiniteFieldValue, EvalError> {
    match v {
        Value::FiniteField(x) => Ok(*x),
        other => Err(EvalError::IllSorted(format!(
            "expected FiniteField, got {}",
            other.sort()
        ))),
    }
}

fn seq_arg(v: &Value) -> Result<(&Sort, &Vec<Value>), EvalError> {
    match v {
        Value::Seq(e, vs) => Ok((e, vs)),
        other => Err(EvalError::IllSorted(format!(
            "expected Seq, got {}",
            other.sort()
        ))),
    }
}

fn set_arg(v: &Value) -> Result<(&Sort, &BTreeSet<Value>), EvalError> {
    match v {
        Value::Set(e, vs) => Ok((e, vs)),
        other => Err(EvalError::IllSorted(format!(
            "expected Set, got {}",
            other.sort()
        ))),
    }
}

fn bag_arg(v: &Value) -> Result<(&Sort, &BTreeMap<Value, u64>), EvalError> {
    match v {
        Value::Bag(e, vs) => Ok((e, vs)),
        other => Err(EvalError::IllSorted(format!(
            "expected Bag, got {}",
            other.sort()
        ))),
    }
}

/// True when every argument is an integer value (for Int/Real overloading).
fn all_ints(args: &[Value]) -> bool {
    args.iter().all(|v| matches!(v, Value::Int(_)))
}

/// Values equal modulo Int → Real coercion.
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(i), Value::Real(r)) | (Value::Real(r), Value::Int(i)) => {
            *r == Rational::from_int(*i)
        }
        _ => a == b,
    }
}

/// Euclidean division per SMT-LIB: `div(a, b)` rounds so the remainder is
/// non-negative. Totalized: `div(a, 0) = 0`.
fn euclid_div(a: i128, b: i128) -> Result<i128, EvalError> {
    if b == 0 {
        return Ok(0);
    }
    let q = a.checked_div(b).ok_or(EvalError::Overflow)?;
    let r = a - q * b;
    Ok(if r < 0 {
        if b > 0 {
            q - 1
        } else {
            q + 1
        }
    } else {
        q
    })
}

/// Euclidean remainder; totalized `mod(a, 0) = a`.
fn euclid_mod(a: i128, b: i128) -> Result<i128, EvalError> {
    if b == 0 {
        return Ok(a);
    }
    let q = euclid_div(a, b)?;
    a.checked_sub(q.checked_mul(b).ok_or(EvalError::Overflow)?)
        .ok_or(EvalError::Overflow)
}

/// Applies an operator to fully-evaluated arguments.
///
/// This function is the shared "SMT-LIB standard semantics": the golden
/// evaluator and both simulated solvers call it for ground reasoning (their
/// *engines* differ; the value-level math is spec-defined and shared, like
/// the standard both Z3 and cvc5 implement).
///
/// # Errors
///
/// Returns [`EvalError`] for ill-sorted inputs, fixed-precision overflow,
/// and incompletable operations (`set.complement` over unbounded sorts).
pub fn apply_op(op: &Op, args: &[Value]) -> Result<Value, EvalError> {
    use Op::*;
    let ill = |m: &str| EvalError::IllSorted(m.to_string());
    match op {
        // ---- core ----
        Not => Ok(Value::Bool(!bool_arg(&args[0])?)),
        And => {
            let mut acc = true;
            for a in args {
                acc &= bool_arg(a)?;
            }
            Ok(Value::Bool(acc))
        }
        Or => {
            let mut acc = false;
            for a in args {
                acc |= bool_arg(a)?;
            }
            Ok(Value::Bool(acc))
        }
        Xor => {
            let mut acc = false;
            for a in args {
                acc ^= bool_arg(a)?;
            }
            Ok(Value::Bool(acc))
        }
        Implies => {
            // Right-associative: a => b => c  ==  a => (b => c).
            let mut acc = bool_arg(args.last().ok_or_else(|| ill("=> needs args"))?)?;
            for a in args[..args.len() - 1].iter().rev() {
                acc = !bool_arg(a)? || acc;
            }
            Ok(Value::Bool(acc))
        }
        Eq => {
            let first = &args[0];
            Ok(Value::Bool(
                args[1..].iter().all(|a| values_equal(first, a)),
            ))
        }
        Distinct => {
            for i in 0..args.len() {
                for j in i + 1..args.len() {
                    if values_equal(&args[i], &args[j]) {
                        return Ok(Value::Bool(false));
                    }
                }
            }
            Ok(Value::Bool(true))
        }
        Ite => {
            if bool_arg(&args[0])? {
                Ok(args[1].clone())
            } else {
                Ok(args[2].clone())
            }
        }

        // ---- arithmetic ----
        Add | Mul | Sub => {
            if all_ints(args) {
                let mut acc = int_arg(&args[0])?;
                if args.len() == 1 && matches!(op, Sub) {
                    return Ok(Value::Int(acc.checked_neg().ok_or(EvalError::Overflow)?));
                }
                for a in &args[1..] {
                    let v = int_arg(a)?;
                    acc = match op {
                        Add => acc.checked_add(v),
                        Mul => acc.checked_mul(v),
                        Sub => acc.checked_sub(v),
                        _ => unreachable!(),
                    }
                    .ok_or(EvalError::Overflow)?;
                }
                Ok(Value::Int(acc))
            } else {
                let mut acc = rat_arg(&args[0])?;
                if args.len() == 1 && matches!(op, Sub) {
                    return Ok(Value::Real(acc.neg().ok_or(EvalError::Overflow)?));
                }
                for a in &args[1..] {
                    let v = rat_arg(a)?;
                    acc = match op {
                        Add => acc.add(v),
                        Mul => acc.mul(v),
                        Sub => acc.sub(v),
                        _ => unreachable!(),
                    }
                    .ok_or(EvalError::Overflow)?;
                }
                Ok(Value::Real(acc))
            }
        }
        Neg => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or(EvalError::Overflow)?)),
            Value::Real(r) => Ok(Value::Real(r.neg().ok_or(EvalError::Overflow)?)),
            _ => Err(ill("neg over non-numeric")),
        },
        IntDiv => Ok(Value::Int(euclid_div(
            int_arg(&args[0])?,
            int_arg(&args[1])?,
        )?)),
        Mod => Ok(Value::Int(euclid_mod(
            int_arg(&args[0])?,
            int_arg(&args[1])?,
        )?)),
        RealDiv => {
            let mut acc = rat_arg(&args[0])?;
            for a in &args[1..] {
                let d = rat_arg(a)?;
                acc = if d == Rational::ZERO {
                    Rational::ZERO // totalization: x / 0 = 0
                } else {
                    acc.div(d).ok_or(EvalError::Overflow)?
                };
            }
            Ok(Value::Real(acc))
        }
        Abs => Ok(Value::Int(
            int_arg(&args[0])?
                .checked_abs()
                .ok_or(EvalError::Overflow)?,
        )),
        Divisible(n) => Ok(Value::Bool(
            euclid_mod(int_arg(&args[0])?, *n as i128)? == 0,
        )),
        Le | Lt | Ge | Gt => {
            let mut ok = true;
            for w in args.windows(2) {
                let a = rat_arg(&w[0])?;
                let b = rat_arg(&w[1])?;
                ok &= match op {
                    Le => a <= b,
                    Lt => a < b,
                    Ge => a >= b,
                    Gt => a > b,
                    _ => unreachable!(),
                };
            }
            Ok(Value::Bool(ok))
        }
        ToReal => Ok(Value::Real(rat_arg(&args[0])?)),
        ToInt => Ok(Value::Int(rat_arg(&args[0])?.floor())),
        IsInt => Ok(Value::Bool(rat_arg(&args[0])?.is_integer())),

        // ---- bit-vectors ----
        BvNot => {
            let b = bv_arg(&args[0])?;
            Ok(Value::BitVec(BitVecValue::new(b.width(), !b.bits())))
        }
        BvNeg => {
            let b = bv_arg(&args[0])?;
            Ok(Value::BitVec(BitVecValue::new(
                b.width(),
                b.bits().wrapping_neg(),
            )))
        }
        BvAnd | BvOr | BvXor | BvNand | BvNor | BvAdd | BvSub | BvMul => {
            let mut acc = bv_arg(&args[0])?;
            for a in &args[1..] {
                let b = bv_arg(a)?;
                if b.width() != acc.width() {
                    return Err(ill("bit-width mismatch"));
                }
                let w = acc.width();
                let bits = match op {
                    BvAnd => acc.bits() & b.bits(),
                    BvOr => acc.bits() | b.bits(),
                    BvXor => acc.bits() ^ b.bits(),
                    BvNand => !(acc.bits() & b.bits()),
                    BvNor => !(acc.bits() | b.bits()),
                    BvAdd => acc.bits().wrapping_add(b.bits()),
                    BvSub => acc.bits().wrapping_sub(b.bits()),
                    BvMul => acc.bits().wrapping_mul(b.bits()),
                    _ => unreachable!(),
                };
                acc = BitVecValue::new(w, bits);
            }
            Ok(Value::BitVec(acc))
        }
        BvUdiv => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            let bits = if b.bits() == 0 {
                u128::MAX // all-ones per SMT-LIB
            } else {
                a.bits() / b.bits()
            };
            Ok(Value::BitVec(BitVecValue::new(a.width(), bits)))
        }
        BvUrem => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            let bits = if b.bits() == 0 {
                a.bits()
            } else {
                a.bits() % b.bits()
            };
            Ok(Value::BitVec(BitVecValue::new(a.width(), bits)))
        }
        BvSdiv => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            let w = a.width();
            let bits = if b.bits() == 0 {
                if a.signed() >= 0 {
                    u128::MAX
                } else {
                    1
                }
            } else {
                let q = a.signed().wrapping_div(b.signed());
                q as u128
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        BvSrem => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            let w = a.width();
            let bits = if b.bits() == 0 {
                a.bits()
            } else {
                a.signed().wrapping_rem(b.signed()) as u128
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        BvShl | BvLshr | BvAshr => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            let w = a.width();
            let sh = b.bits().min(256) as u32;
            let bits = if sh >= w {
                match op {
                    BvAshr if a.signed() < 0 => u128::MAX,
                    _ => 0,
                }
            } else {
                match op {
                    BvShl => a.bits() << sh,
                    BvLshr => a.bits() >> sh,
                    BvAshr => {
                        if a.signed() < 0 {
                            let shifted = a.bits() >> sh;
                            let fill = !0u128 << (w - sh);
                            shifted | fill
                        } else {
                            a.bits() >> sh
                        }
                    }
                    _ => unreachable!(),
                }
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        Concat => {
            let mut width = 0u32;
            let mut bits = 0u128;
            for a in args {
                let b = bv_arg(a)?;
                width += b.width();
                if width > 128 {
                    return Err(EvalError::Overflow);
                }
                bits = (bits << b.width()) | b.bits();
            }
            Ok(Value::BitVec(BitVecValue::new(width, bits)))
        }
        Extract(i, j) => {
            let b = bv_arg(&args[0])?;
            if *i >= b.width() || i < j {
                return Err(ill("extract indices out of range"));
            }
            let w = i - j + 1;
            Ok(Value::BitVec(BitVecValue::new(w, b.bits() >> j)))
        }
        ZeroExtend(k) => {
            let b = bv_arg(&args[0])?;
            Ok(Value::BitVec(BitVecValue::new(b.width() + k, b.bits())))
        }
        SignExtend(k) => {
            let b = bv_arg(&args[0])?;
            let w = b.width() + k;
            let bits = if b.signed() < 0 {
                let fill = if w >= 128 {
                    !0u128 << b.width()
                } else {
                    ((1u128 << w) - 1) & (!0u128 << b.width())
                };
                b.bits() | fill
            } else {
                b.bits()
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        RotateLeft(k) => {
            let b = bv_arg(&args[0])?;
            let w = b.width();
            let k = k % w;
            let bits = if k == 0 {
                b.bits()
            } else {
                (b.bits() << k) | (b.bits() >> (w - k))
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        RotateRight(k) => {
            let b = bv_arg(&args[0])?;
            let w = b.width();
            let k = k % w;
            let bits = if k == 0 {
                b.bits()
            } else {
                (b.bits() >> k) | (b.bits() << (w - k))
            };
            Ok(Value::BitVec(BitVecValue::new(w, bits)))
        }
        Repeat(k) => {
            let b = bv_arg(&args[0])?;
            let mut bits = 0u128;
            let mut width = 0u32;
            for _ in 0..*k {
                width += b.width();
                if width > 128 {
                    return Err(EvalError::Overflow);
                }
                bits = (bits << b.width()) | b.bits();
            }
            Ok(Value::BitVec(BitVecValue::new(width, bits)))
        }
        BvUlt | BvUle | BvUgt | BvUge => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            Ok(Value::Bool(match op {
                BvUlt => a.bits() < b.bits(),
                BvUle => a.bits() <= b.bits(),
                BvUgt => a.bits() > b.bits(),
                BvUge => a.bits() >= b.bits(),
                _ => unreachable!(),
            }))
        }
        BvSlt | BvSle | BvSgt | BvSge => {
            let a = bv_arg(&args[0])?;
            let b = bv_arg(&args[1])?;
            Ok(Value::Bool(match op {
                BvSlt => a.signed() < b.signed(),
                BvSle => a.signed() <= b.signed(),
                BvSgt => a.signed() > b.signed(),
                BvSge => a.signed() >= b.signed(),
                _ => unreachable!(),
            }))
        }

        // ---- strings ----
        StrConcat => {
            let mut s = String::new();
            for a in args {
                s.push_str(str_arg(a)?);
            }
            Ok(Value::Str(s))
        }
        StrLen => Ok(Value::Int(str_arg(&args[0])?.chars().count() as i128)),
        StrAt => {
            let s = str_arg(&args[0])?;
            let i = int_arg(&args[1])?;
            let out = if i < 0 {
                String::new()
            } else {
                s.chars()
                    .nth(i as usize)
                    .map(String::from)
                    .unwrap_or_default()
            };
            Ok(Value::Str(out))
        }
        StrSubstr => {
            let s: Vec<char> = str_arg(&args[0])?.chars().collect();
            let off = int_arg(&args[1])?;
            let len = int_arg(&args[2])?;
            let out = if off < 0 || len <= 0 || off as usize >= s.len() {
                String::new()
            } else {
                let start = off as usize;
                let end = (start + len as usize).min(s.len());
                s[start..end].iter().collect()
            };
            Ok(Value::Str(out))
        }
        StrContains => Ok(Value::Bool(str_arg(&args[0])?.contains(str_arg(&args[1])?))),
        StrPrefixof => Ok(Value::Bool(
            str_arg(&args[1])?.starts_with(str_arg(&args[0])?),
        )),
        StrSuffixof => Ok(Value::Bool(
            str_arg(&args[1])?.ends_with(str_arg(&args[0])?),
        )),
        StrIndexof => {
            let s: Vec<char> = str_arg(&args[0])?.chars().collect();
            let needle: Vec<char> = str_arg(&args[1])?.chars().collect();
            let start = int_arg(&args[2])?;
            if start < 0 || start as usize > s.len() {
                return Ok(Value::Int(-1));
            }
            let start = start as usize;
            let idx = (start..=s.len().saturating_sub(needle.len()).max(start))
                .find(|&i| i + needle.len() <= s.len() && s[i..i + needle.len()] == needle[..]);
            Ok(Value::Int(idx.map(|i| i as i128).unwrap_or(-1)))
        }
        StrReplace => {
            let s = str_arg(&args[0])?;
            let from = str_arg(&args[1])?;
            let to = str_arg(&args[2])?;
            let out = if from.is_empty() {
                format!("{to}{s}")
            } else {
                s.replacen(from, to, 1)
            };
            Ok(Value::Str(out))
        }
        StrReplaceAll => {
            let s = str_arg(&args[0])?;
            let from = str_arg(&args[1])?;
            let to = str_arg(&args[2])?;
            let out = if from.is_empty() {
                s.to_string()
            } else {
                s.replace(from, to)
            };
            Ok(Value::Str(out))
        }
        StrLt | StrLe => {
            let mut ok = true;
            for w in args.windows(2) {
                let a = str_arg(&w[0])?;
                let b = str_arg(&w[1])?;
                ok &= match op {
                    StrLt => a < b,
                    StrLe => a <= b,
                    _ => unreachable!(),
                };
            }
            Ok(Value::Bool(ok))
        }
        StrToInt => {
            let s = str_arg(&args[0])?;
            let out = if !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()) {
                s.parse::<i128>().unwrap_or(-1)
            } else {
                -1
            };
            Ok(Value::Int(out))
        }
        StrFromInt => {
            let i = int_arg(&args[0])?;
            Ok(Value::Str(if i < 0 {
                String::new()
            } else {
                i.to_string()
            }))
        }
        StrToCode => {
            let s = str_arg(&args[0])?;
            let mut chars = s.chars();
            let out = match (chars.next(), chars.next()) {
                (Some(c), None) => c as i128,
                _ => -1,
            };
            Ok(Value::Int(out))
        }
        StrFromCode => {
            let i = int_arg(&args[0])?;
            let out = u32::try_from(i)
                .ok()
                .and_then(char::from_u32)
                .map(String::from)
                .unwrap_or_default();
            Ok(Value::Str(out))
        }
        StrIsDigit => {
            let s = str_arg(&args[0])?;
            let mut chars = s.chars();
            let out = matches!((chars.next(), chars.next()), (Some(c), None) if c.is_ascii_digit());
            Ok(Value::Bool(out))
        }

        // ---- sequences ----
        SeqUnit => Ok(Value::Seq(args[0].sort(), vec![args[0].clone()])),
        SeqConcat => {
            let (e, first) = seq_arg(&args[0])?;
            let mut out = first.clone();
            for a in &args[1..] {
                out.extend(seq_arg(a)?.1.iter().cloned());
            }
            Ok(Value::Seq(e.clone(), out))
        }
        SeqLen => Ok(Value::Int(seq_arg(&args[0])?.1.len() as i128)),
        SeqNth => {
            let (e, vs) = seq_arg(&args[0])?;
            let i = int_arg(&args[1])?;
            let out = if i >= 0 && (i as usize) < vs.len() {
                vs[i as usize].clone()
            } else {
                Value::default_of(e) // totalization
            };
            Ok(out)
        }
        SeqExtract => {
            let (e, vs) = seq_arg(&args[0])?;
            let off = int_arg(&args[1])?;
            let len = int_arg(&args[2])?;
            let out = if off < 0 || len <= 0 || off as usize >= vs.len() {
                Vec::new()
            } else {
                let start = off as usize;
                let end = (start + len as usize).min(vs.len());
                vs[start..end].to_vec()
            };
            Ok(Value::Seq(e.clone(), out))
        }
        SeqContains => {
            let (_, hay) = seq_arg(&args[0])?;
            let (_, needle) = seq_arg(&args[1])?;
            let found =
                needle.is_empty() || hay.windows(needle.len()).any(|w| w == needle.as_slice());
            Ok(Value::Bool(found))
        }
        SeqIndexof => {
            let (_, hay) = seq_arg(&args[0])?;
            let (_, needle) = seq_arg(&args[1])?;
            let start = int_arg(&args[2])?;
            if start < 0 || start as usize > hay.len() {
                return Ok(Value::Int(-1));
            }
            let start = start as usize;
            if needle.is_empty() {
                return Ok(Value::Int(start as i128));
            }
            let idx = (start..hay.len().saturating_sub(needle.len() - 1))
                .find(|&i| hay[i..i + needle.len()] == needle[..]);
            Ok(Value::Int(idx.map(|i| i as i128).unwrap_or(-1)))
        }
        SeqRev => {
            let (e, vs) = seq_arg(&args[0])?;
            let mut out = vs.clone();
            out.reverse();
            Ok(Value::Seq(e.clone(), out))
        }
        SeqUpdate => {
            let (e, vs) = seq_arg(&args[0])?;
            let i = int_arg(&args[1])?;
            let (_, patch) = seq_arg(&args[2])?;
            let mut out = vs.clone();
            if i >= 0 {
                let i = i as usize;
                for (k, p) in patch.iter().enumerate() {
                    if i + k < out.len() {
                        out[i + k] = p.clone();
                    }
                }
            }
            Ok(Value::Seq(e.clone(), out))
        }
        SeqAt => {
            let (e, vs) = seq_arg(&args[0])?;
            let i = int_arg(&args[1])?;
            let out = if i >= 0 && (i as usize) < vs.len() {
                vec![vs[i as usize].clone()]
            } else {
                Vec::new()
            };
            Ok(Value::Seq(e.clone(), out))
        }
        SeqReplace => {
            let (e, vs) = seq_arg(&args[0])?;
            let (_, from) = seq_arg(&args[1])?;
            let (_, to) = seq_arg(&args[2])?;
            if from.is_empty() {
                let mut out = to.clone();
                out.extend(vs.iter().cloned());
                return Ok(Value::Seq(e.clone(), out));
            }
            let mut out = Vec::new();
            let mut i = 0usize;
            let mut replaced = false;
            while i < vs.len() {
                if !replaced && i + from.len() <= vs.len() && vs[i..i + from.len()] == from[..] {
                    out.extend(to.iter().cloned());
                    i += from.len();
                    replaced = true;
                } else {
                    out.push(vs[i].clone());
                    i += 1;
                }
            }
            Ok(Value::Seq(e.clone(), out))
        }
        SeqPrefixof => {
            let (_, p) = seq_arg(&args[0])?;
            let (_, s) = seq_arg(&args[1])?;
            Ok(Value::Bool(s.len() >= p.len() && s[..p.len()] == p[..]))
        }
        SeqSuffixof => {
            let (_, p) = seq_arg(&args[0])?;
            let (_, s) = seq_arg(&args[1])?;
            Ok(Value::Bool(
                s.len() >= p.len() && s[s.len() - p.len()..] == p[..],
            ))
        }

        // ---- sets & relations ----
        SetUnion | SetInter | SetMinus => {
            let (e, first) = set_arg(&args[0])?;
            let mut acc = first.clone();
            for a in &args[1..] {
                let (_, s) = set_arg(a)?;
                acc = match op {
                    SetUnion => acc.union(s).cloned().collect(),
                    SetInter => acc.intersection(s).cloned().collect(),
                    SetMinus => acc.difference(s).cloned().collect(),
                    _ => unreachable!(),
                };
            }
            Ok(Value::Set(e.clone(), acc))
        }
        SetMember => {
            let (_, s) = set_arg(&args[1])?;
            Ok(Value::Bool(s.contains(&args[0])))
        }
        SetSubset => {
            let (_, a) = set_arg(&args[0])?;
            let (_, b) = set_arg(&args[1])?;
            Ok(Value::Bool(a.is_subset(b)))
        }
        SetInsert => {
            let (e, s) = set_arg(args.last().ok_or_else(|| ill("set.insert needs args"))?)?;
            let mut out = s.clone();
            for a in &args[..args.len() - 1] {
                out.insert(a.clone());
            }
            Ok(Value::Set(e.clone(), out))
        }
        SetSingleton => {
            let mut s = BTreeSet::new();
            s.insert(args[0].clone());
            Ok(Value::Set(args[0].sort(), s))
        }
        SetCard => Ok(Value::Int(set_arg(&args[0])?.1.len() as i128)),
        SetComplement => {
            let (e, s) = set_arg(&args[0])?;
            if !e.is_exhaustible() {
                return Err(EvalError::Incomplete);
            }
            let cfg = DomainConfig::default();
            let universe = candidates(e, &cfg);
            if !universe.complete {
                return Err(EvalError::Incomplete);
            }
            let out: BTreeSet<Value> = universe
                .values
                .into_iter()
                .filter(|v| !s.contains(v))
                .collect();
            Ok(Value::Set(e.clone(), out))
        }
        RelJoin => {
            let (ea, a) = set_arg(&args[0])?;
            let (eb, b) = set_arg(&args[1])?;
            let (arity_a, arity_b) = match (ea, eb) {
                (Sort::Tuple(x), Sort::Tuple(y)) => (x.clone(), y.clone()),
                _ => return Err(ill("rel.join over non-relations")),
            };
            if arity_a.is_empty() || arity_b.is_empty() {
                return Err(ill("rel.join requires non-nullary relations"));
            }
            let mut elems = arity_a[..arity_a.len() - 1].to_vec();
            elems.extend_from_slice(&arity_b[1..]);
            let mut out = BTreeSet::new();
            for ta in a {
                let Value::Tuple(xs) = ta else {
                    return Err(ill("relation member not a tuple"));
                };
                for tb in b {
                    let Value::Tuple(ys) = tb else {
                        return Err(ill("relation member not a tuple"));
                    };
                    if xs.last() == ys.first() {
                        let mut joined = xs[..xs.len() - 1].to_vec();
                        joined.extend_from_slice(&ys[1..]);
                        out.insert(Value::Tuple(joined));
                    }
                }
            }
            Ok(Value::Set(Sort::Tuple(elems), out))
        }
        RelProduct => {
            let (ea, a) = set_arg(&args[0])?;
            let (eb, b) = set_arg(&args[1])?;
            let (arity_a, arity_b) = match (ea, eb) {
                (Sort::Tuple(x), Sort::Tuple(y)) => (x.clone(), y.clone()),
                _ => return Err(ill("rel.product over non-relations")),
            };
            let mut elems = arity_a;
            elems.extend(arity_b);
            let mut out = BTreeSet::new();
            for ta in a {
                let Value::Tuple(xs) = ta else {
                    return Err(ill("relation member not a tuple"));
                };
                for tb in b {
                    let Value::Tuple(ys) = tb else {
                        return Err(ill("relation member not a tuple"));
                    };
                    let mut prod = xs.clone();
                    prod.extend(ys.iter().cloned());
                    out.insert(Value::Tuple(prod));
                }
            }
            Ok(Value::Set(Sort::Tuple(elems), out))
        }
        RelTranspose => {
            let (e, s) = set_arg(&args[0])?;
            let Sort::Tuple(elems) = e else {
                return Err(ill("rel.transpose over non-relation"));
            };
            let mut rev_elems = elems.clone();
            rev_elems.reverse();
            let mut out = BTreeSet::new();
            for t in s {
                let Value::Tuple(xs) = t else {
                    return Err(ill("relation member not a tuple"));
                };
                let mut r = xs.clone();
                r.reverse();
                out.insert(Value::Tuple(r));
            }
            Ok(Value::Set(Sort::Tuple(rev_elems), out))
        }

        // ---- bags ----
        BagMake => {
            let count = int_arg(&args[1])?;
            let mut b = BTreeMap::new();
            if count > 0 {
                b.insert(args[0].clone(), count as u64);
            }
            Ok(Value::Bag(args[0].sort(), b))
        }
        BagUnionMax | BagUnionDisjoint | BagInterMin | BagDiffSubtract => {
            let (e, first) = bag_arg(&args[0])?;
            let mut acc = first.clone();
            for a in &args[1..] {
                let (_, b) = bag_arg(a)?;
                let mut out: BTreeMap<Value, u64> = BTreeMap::new();
                let keys: BTreeSet<&Value> = acc.keys().chain(b.keys()).collect();
                for k in keys {
                    let x = acc.get(k).copied().unwrap_or(0);
                    let y = b.get(k).copied().unwrap_or(0);
                    let n = match op {
                        BagUnionMax => x.max(y),
                        BagUnionDisjoint => x.saturating_add(y),
                        BagInterMin => x.min(y),
                        BagDiffSubtract => x.saturating_sub(y),
                        _ => unreachable!(),
                    };
                    if n > 0 {
                        out.insert((*k).clone(), n);
                    }
                }
                acc = out;
            }
            Ok(Value::Bag(e.clone(), acc))
        }
        BagCount => {
            let (_, b) = bag_arg(&args[1])?;
            Ok(Value::Int(b.get(&args[0]).copied().unwrap_or(0) as i128))
        }
        BagCard => {
            let (_, b) = bag_arg(&args[0])?;
            Ok(Value::Int(b.values().map(|&n| n as i128).sum()))
        }
        BagMember => {
            let (_, b) = bag_arg(&args[1])?;
            Ok(Value::Bool(b.contains_key(&args[0])))
        }
        BagSubbag => {
            let (_, a) = bag_arg(&args[0])?;
            let (_, b) = bag_arg(&args[1])?;
            Ok(Value::Bool(
                a.iter().all(|(k, &n)| b.get(k).copied().unwrap_or(0) >= n),
            ))
        }

        // ---- finite fields ----
        FfAdd => {
            let mut acc = ff_arg(&args[0])?;
            for a in &args[1..] {
                acc = acc.add(ff_arg(a)?);
            }
            Ok(Value::FiniteField(acc))
        }
        FfMul => {
            let mut acc = ff_arg(&args[0])?;
            for a in &args[1..] {
                acc = acc.mul(ff_arg(a)?);
            }
            Ok(Value::FiniteField(acc))
        }
        FfNeg => Ok(Value::FiniteField(ff_arg(&args[0])?.neg())),
        FfBitsum => {
            // Positional sum: Σ 2^i * child_i, in the field. The cvc5 bug in
            // the paper (issue #11969) was exactly a missing coefficient
            // multiplication here; the *correct* semantics scales every
            // child, constant or not.
            let first = ff_arg(&args[0])?;
            let p = first.modulus();
            let mut acc = FiniteFieldValue::new(p, 0);
            let mut coeff = FiniteFieldValue::new(p, 1);
            let two = FiniteFieldValue::new(p, 2);
            for a in args {
                let x = ff_arg(a)?;
                acc = acc.add(coeff.mul(x));
                coeff = coeff.mul(two);
            }
            Ok(Value::FiniteField(acc))
        }

        // ---- arrays ----
        Select => match &args[0] {
            Value::Array { default, table, .. } => Ok(table
                .get(&args[1])
                .cloned()
                .unwrap_or_else(|| (**default).clone())),
            other => Err(ill(&format!("select over {}", other.sort()))),
        },
        Store => match &args[0] {
            Value::Array {
                key,
                default,
                table,
            } => {
                let mut t = table.clone();
                if **default == args[2] {
                    t.remove(&args[1]);
                } else {
                    t.insert(args[1].clone(), args[2].clone());
                }
                Ok(Value::Array {
                    key: key.clone(),
                    default: default.clone(),
                    table: t,
                })
            }
            other => Err(ill(&format!("store over {}", other.sort()))),
        },
        ConstArray(sort) => match sort {
            Sort::Array(k, _) => Ok(Value::Array {
                key: (**k).clone(),
                default: Box::new(args[0].clone()),
                table: BTreeMap::new(),
            }),
            _ => Err(ill("as const with non-array sort")),
        },

        // ---- tuples ----
        MkTuple => Ok(Value::Tuple(args.to_vec())),
        TupleSelect(i) => match &args[0] {
            Value::Tuple(vs) => vs
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| ill("tuple index out of range")),
            other => Err(ill(&format!("tuple.select over {}", other.sort()))),
        },

        // ---- UF ----
        Uf(name) => Err(EvalError::UnassignedSymbol(name.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_term, Model};

    fn eval_str(text: &str, model: &Model) -> Result<Value, EvalError> {
        let t = parse_term(text).expect("parse");
        let cfg = DomainConfig::default();
        let ev = Evaluator::new(model, no_defs(), &cfg, 100_000);
        ev.eval(&t)
    }

    fn eval_ok(text: &str) -> Value {
        eval_str(text, &Model::new()).unwrap()
    }

    #[test]
    fn core_semantics() {
        assert_eq!(eval_ok("(and true true false)"), Value::Bool(false));
        assert_eq!(eval_ok("(or false false true)"), Value::Bool(true));
        assert_eq!(eval_ok("(xor true true true)"), Value::Bool(true));
        assert_eq!(eval_ok("(=> true false)"), Value::Bool(false));
        assert_eq!(eval_ok("(=> false false)"), Value::Bool(true));
        assert_eq!(eval_ok("(distinct 1 2 3)"), Value::Bool(true));
        assert_eq!(eval_ok("(distinct 1 2 1)"), Value::Bool(false));
        assert_eq!(eval_ok("(ite false 1 2)"), Value::Int(2));
    }

    #[test]
    fn euclidean_division() {
        assert_eq!(eval_ok("(div 7 2)"), Value::Int(3));
        assert_eq!(eval_ok("(div (- 7) 2)"), Value::Int(-4));
        assert_eq!(eval_ok("(mod (- 7) 2)"), Value::Int(1));
        assert_eq!(eval_ok("(div 7 (- 2))"), Value::Int(-3));
        assert_eq!(eval_ok("(mod 7 (- 2))"), Value::Int(1));
        // Totalization conventions.
        assert_eq!(eval_ok("(div 5 0)"), Value::Int(0));
        assert_eq!(eval_ok("(mod 5 0)"), Value::Int(5));
        assert_eq!(eval_ok("(div 0 0)"), Value::Int(0));
    }

    #[test]
    fn real_arithmetic_with_coercion() {
        assert_eq!(
            eval_ok("(+ 1 0.5)"),
            Value::Real(Rational::new(3, 2).unwrap())
        );
        assert_eq!(eval_ok("(= 2 2.0)"), Value::Bool(true));
        assert_eq!(eval_ok("(< 1 1.5 2)"), Value::Bool(true));
        assert_eq!(eval_ok("(to_int 2.5)"), Value::Int(2));
        assert_eq!(eval_ok("(to_int (- 2.5))"), Value::Int(-3));
        assert_eq!(eval_ok("(is_int 2.0)"), Value::Bool(true));
        // x / 0 = 0 convention.
        assert_eq!(eval_ok("(/ 3.0 0.0)"), Value::Real(Rational::ZERO));
    }

    #[test]
    fn divisible_semantics() {
        assert_eq!(eval_ok("((_ divisible 3) 9)"), Value::Bool(true));
        assert_eq!(eval_ok("((_ divisible 3) 10)"), Value::Bool(false));
        assert_eq!(eval_ok("((_ divisible 3) (- 9))"), Value::Bool(true));
    }

    #[test]
    fn bitvector_semantics() {
        assert_eq!(
            eval_ok("(bvadd #x0f #x01)"),
            Value::BitVec(BitVecValue::new(8, 0x10))
        );
        assert_eq!(
            eval_ok("(bvmul #x10 #x10)"),
            Value::BitVec(BitVecValue::new(8, 0))
        );
        assert_eq!(
            eval_ok("(bvudiv #x05 #x00)"),
            Value::BitVec(BitVecValue::new(8, 0xff))
        );
        assert_eq!(
            eval_ok("(bvurem #x05 #x00)"),
            Value::BitVec(BitVecValue::new(8, 5))
        );
        assert_eq!(
            eval_ok("((_ extract 3 0) #xa5)"),
            Value::BitVec(BitVecValue::new(4, 5))
        );
        assert_eq!(
            eval_ok("(concat #b1 #b0)"),
            Value::BitVec(BitVecValue::new(2, 0b10))
        );
        assert_eq!(
            eval_ok("((_ sign_extend 4) #b1000)"),
            Value::BitVec(BitVecValue::new(8, 0xf8))
        );
        assert_eq!(
            eval_ok("((_ rotate_left 1) #b100)"),
            Value::BitVec(BitVecValue::new(3, 0b001))
        );
        assert_eq!(eval_ok("(bvslt #xff #x01)"), Value::Bool(true));
        assert_eq!(eval_ok("(bvult #xff #x01)"), Value::Bool(false));
        assert_eq!(
            eval_ok("(bvashr #b1000 #b0010)"),
            Value::BitVec(BitVecValue::new(4, 0b1110))
        );
    }

    #[test]
    fn string_semantics() {
        assert_eq!(eval_ok("(str.++ \"ab\" \"cd\")"), Value::Str("abcd".into()));
        assert_eq!(eval_ok("(str.len \"abc\")"), Value::Int(3));
        assert_eq!(eval_ok("(str.at \"abc\" 1)"), Value::Str("b".into()));
        assert_eq!(eval_ok("(str.at \"abc\" 9)"), Value::Str("".into()));
        assert_eq!(
            eval_ok("(str.substr \"hello\" 1 3)"),
            Value::Str("ell".into())
        );
        assert_eq!(
            eval_ok("(str.substr \"hello\" (- 1) 3)"),
            Value::Str("".into())
        );
        assert_eq!(eval_ok("(str.contains \"abc\" \"bc\")"), Value::Bool(true));
        assert_eq!(eval_ok("(str.prefixof \"ab\" \"abc\")"), Value::Bool(true));
        assert_eq!(eval_ok("(str.suffixof \"bc\" \"abc\")"), Value::Bool(true));
        assert_eq!(eval_ok("(str.indexof \"abcabc\" \"bc\" 2)"), Value::Int(4));
        assert_eq!(eval_ok("(str.indexof \"abc\" \"zz\" 0)"), Value::Int(-1));
        assert_eq!(
            eval_ok("(str.replace \"aaa\" \"a\" \"b\")"),
            Value::Str("baa".into())
        );
        assert_eq!(
            eval_ok("(str.replace_all \"aaa\" \"a\" \"b\")"),
            Value::Str("bbb".into())
        );
        assert_eq!(eval_ok("(str.to_int \"42\")"), Value::Int(42));
        assert_eq!(eval_ok("(str.to_int \"4a\")"), Value::Int(-1));
        assert_eq!(eval_ok("(str.from_int 42)"), Value::Str("42".into()));
        assert_eq!(eval_ok("(str.from_int (- 1))"), Value::Str("".into()));
        assert_eq!(eval_ok("(str.to_code \"A\")"), Value::Int(65));
        assert_eq!(eval_ok("(str.to_code \"AB\")"), Value::Int(-1));
        assert_eq!(eval_ok("(str.from_code 97)"), Value::Str("a".into()));
        assert_eq!(eval_ok("(str.is_digit \"7\")"), Value::Bool(true));
        assert_eq!(eval_ok("(str.< \"a\" \"b\")"), Value::Bool(true));
    }

    #[test]
    fn sequence_semantics() {
        assert_eq!(
            eval_ok("(seq.len (seq.++ (seq.unit 1) (seq.unit 2)))"),
            Value::Int(2)
        );
        assert_eq!(
            eval_ok("(seq.nth (seq.++ (seq.unit 1) (seq.unit 2)) 1)"),
            Value::Int(2)
        );
        // Out-of-range nth totalizes to the element default (0 for Int).
        assert_eq!(
            eval_ok("(seq.nth (as seq.empty (Seq Int)) (div 0 0))"),
            Value::Int(0)
        );
        assert_eq!(
            eval_ok("(seq.rev (seq.++ (seq.unit 1) (seq.unit 2)))"),
            eval_ok("(seq.++ (seq.unit 2) (seq.unit 1))")
        );
        assert_eq!(
            eval_ok("(seq.contains (seq.++ (seq.unit 1) (seq.unit 2)) (seq.unit 2))"),
            Value::Bool(true)
        );
        assert_eq!(
            eval_ok("(seq.extract (seq.++ (seq.unit 1) (seq.unit 2) (seq.unit 3)) 1 2)"),
            eval_ok("(seq.++ (seq.unit 2) (seq.unit 3))")
        );
        assert_eq!(
            eval_ok("(seq.update (seq.++ (seq.unit 1) (seq.unit 2)) 0 (seq.unit 9))"),
            eval_ok("(seq.++ (seq.unit 9) (seq.unit 2))")
        );
        assert_eq!(
            eval_ok("(seq.indexof (seq.++ (seq.unit 1) (seq.unit 2)) (seq.unit 2) 0)"),
            Value::Int(1)
        );
        assert_eq!(
            eval_ok("(seq.prefixof (seq.unit 1) (seq.++ (seq.unit 1) (seq.unit 2)))"),
            Value::Bool(true)
        );
    }

    #[test]
    fn set_and_relation_semantics() {
        assert_eq!(
            eval_ok("(set.card (set.union (set.singleton 1) (set.singleton 2)))"),
            Value::Int(2)
        );
        assert_eq!(
            eval_ok("(set.member 2 (set.insert 1 2 (as set.empty (Set Int))))"),
            Value::Bool(true)
        );
        assert_eq!(
            eval_ok("(set.subset (set.singleton 1) (set.insert 1 2 (as set.empty (Set Int))))"),
            Value::Bool(true)
        );
        assert_eq!(
            eval_ok("(set.card (set.minus (set.insert 1 2 (as set.empty (Set Int))) (set.singleton 1)))"),
            Value::Int(1)
        );
        // Complement over Bool is exhaustible.
        assert_eq!(
            eval_ok("(set.card (set.complement (as set.empty (Set Bool))))"),
            Value::Int(2)
        );
        // Complement over Int is not.
        assert_eq!(
            eval_str("(set.complement (as set.empty (Set Int)))", &Model::new()),
            Err(EvalError::Incomplete)
        );
        // Relational join.
        assert_eq!(
            eval_ok(
                "(set.card (rel.join (set.singleton (tuple 1 true)) \
                 (set.singleton (tuple true \"x\"))))"
            ),
            Value::Int(1)
        );
        assert_eq!(
            eval_ok("(set.card (rel.transpose (set.singleton (tuple 1 true))))"),
            Value::Int(1)
        );
        assert_eq!(
            eval_ok("(set.card (rel.product (set.singleton (tuple 1)) (set.singleton (tuple 2))))"),
            Value::Int(1)
        );
    }

    #[test]
    fn bag_semantics() {
        assert_eq!(eval_ok("(bag.count 1 (bag 1 3))"), Value::Int(3));
        assert_eq!(
            eval_ok("(bag.card (bag.union_disjoint (bag 1 2) (bag 1 3)))"),
            Value::Int(5)
        );
        assert_eq!(
            eval_ok("(bag.count 1 (bag.union_max (bag 1 2) (bag 1 3)))"),
            Value::Int(3)
        );
        assert_eq!(
            eval_ok("(bag.count 1 (bag.inter_min (bag 1 2) (bag 1 3)))"),
            Value::Int(2)
        );
        assert_eq!(
            eval_ok("(bag.count 1 (bag.difference_subtract (bag 1 5) (bag 1 3)))"),
            Value::Int(2)
        );
        assert_eq!(eval_ok("(bag.member 1 (bag 1 1))"), Value::Bool(true));
        assert_eq!(
            eval_ok("(bag.subbag (bag 1 2) (bag 1 3))"),
            Value::Bool(true)
        );
        assert_eq!(eval_ok("(bag.card (bag 7 0))"), Value::Int(0));
    }

    #[test]
    fn finite_field_semantics() {
        assert_eq!(
            eval_ok("(ff.add (as ff2 (_ FiniteField 3)) (as ff2 (_ FiniteField 3)))"),
            Value::FiniteField(FiniteFieldValue::new(3, 1))
        );
        assert_eq!(
            eval_ok("(ff.mul (as ff2 (_ FiniteField 5)) (as ff3 (_ FiniteField 5)))"),
            Value::FiniteField(FiniteFieldValue::new(5, 1))
        );
        // bitsum: ff.bitsum(a, b) = a + 2b. With a = 1, b = 2 (mod 3): 1+4 = 5 = 2.
        assert_eq!(
            eval_ok("(ff.bitsum (as ff1 (_ FiniteField 3)) (as ff2 (_ FiniteField 3)))"),
            Value::FiniteField(FiniteFieldValue::new(3, 2))
        );
    }

    #[test]
    fn array_semantics() {
        assert_eq!(
            eval_ok("(select (store ((as const (Array Int Int)) 0) 3 9) 3)"),
            Value::Int(9)
        );
        assert_eq!(
            eval_ok("(select (store ((as const (Array Int Int)) 0) 3 9) 4)"),
            Value::Int(0)
        );
        // Storing the default normalizes away the table entry.
        assert_eq!(
            eval_ok("(store ((as const (Array Int Int)) 0) 3 0)"),
            eval_ok("((as const (Array Int Int)) 0)")
        );
    }

    #[test]
    fn tuple_semantics() {
        assert_eq!(
            eval_ok("((_ tuple.select 1) (tuple 1 true))"),
            Value::Bool(true)
        );
    }

    #[test]
    fn quantifier_bool_complete() {
        assert_eq!(
            eval_ok("(forall ((b Bool)) (or b (not b)))"),
            Value::Bool(true)
        );
        assert_eq!(
            eval_ok("(exists ((b Bool)) (and b (not b)))"),
            Value::Bool(false)
        );
    }

    #[test]
    fn quantifier_int_witness() {
        // exists finds a witness within the radius even though Int is
        // unbounded.
        assert_eq!(
            eval_ok("(exists ((x Int)) (= (* x x) 4))"),
            Value::Bool(true)
        );
        // forall over Int with no counterexample in range is incomplete.
        assert_eq!(
            eval_str("(forall ((x Int)) (< x 100))", &Model::new()),
            Err(EvalError::Incomplete)
        );
        // ... but a counterexample decides it.
        assert_eq!(
            eval_ok("(forall ((x Int)) (distinct x 2))"),
            Value::Bool(false)
        );
    }

    #[test]
    fn connectives_tolerate_incomplete_siblings() {
        // (or true <incomplete>) must be true.
        assert_eq!(
            eval_ok("(or (= 1 1) (forall ((x Int)) (< x 100)))"),
            Value::Bool(true)
        );
        // (and false <incomplete>) must be false.
        assert_eq!(
            eval_ok("(and (= 1 2) (forall ((x Int)) (< x 100)))"),
            Value::Bool(false)
        );
        // (and true <incomplete>) stays incomplete.
        assert_eq!(
            eval_str("(and (= 1 1) (forall ((x Int)) (< x 100)))", &Model::new()),
            Err(EvalError::Incomplete)
        );
    }

    #[test]
    fn model_lookup_and_uf() {
        let mut m = Model::new();
        m.set_const(Symbol::new("x"), Value::Int(5));
        let mut table = BTreeMap::new();
        table.insert(vec![Value::Int(5)], Value::Bool(true));
        m.set_fun(Symbol::new("f"), vec![Sort::Int], table, Value::Bool(false));
        assert_eq!(eval_str("(f x)", &m), Ok(Value::Bool(true)));
        assert_eq!(eval_str("(f (+ x 1))", &m), Ok(Value::Bool(false)));
        assert!(matches!(
            eval_str("(g x)", &m),
            Err(EvalError::UnassignedSymbol(_))
        ));
    }

    #[test]
    fn let_bindings_evaluate() {
        assert_eq!(eval_ok("(let ((a 2) (b 3)) (* a b))"), Value::Int(6));
        // Parallel-let: bindings see the outer scope.
        let mut m = Model::new();
        m.set_const(Symbol::new("a"), Value::Int(10));
        assert_eq!(
            eval_str("(let ((a 1) (b a)) (+ a b))", &m),
            Ok(Value::Int(11))
        );
    }

    #[test]
    fn budget_is_enforced() {
        // No instance is decisive, so the evaluator must walk the whole
        // product and trip the step budget first.
        let t = parse_term("(forall ((x Int) (y Int) (z Int)) (distinct (+ x y z) 100))").unwrap();
        let cfg = DomainConfig::default();
        let m = Model::new();
        let ev = Evaluator::new(&m, no_defs(), &cfg, 10);
        assert_eq!(ev.eval(&t), Err(EvalError::BudgetExhausted));
    }

    #[test]
    fn placeholder_rejected() {
        let cfg = DomainConfig::default();
        let m = Model::new();
        let ev = Evaluator::new(&m, no_defs(), &cfg, 100);
        assert_eq!(ev.eval(&Term::Placeholder(0)), Err(EvalError::Placeholder));
    }

    #[test]
    fn candidates_bool_complete() {
        let cfg = DomainConfig::default();
        let c = candidates(&Sort::Bool, &cfg);
        assert!(c.complete);
        assert_eq!(c.values.len(), 2);
        let ints = candidates(&Sort::Int, &cfg);
        assert!(!ints.complete);
        assert!(ints.values.contains(&Value::Int(0)));
        let bv2 = candidates(&Sort::BitVec(2), &cfg);
        assert!(bv2.complete);
        assert_eq!(bv2.values.len(), 4);
        let ff3 = candidates(&Sort::FiniteField(3), &cfg);
        assert!(ff3.complete);
        assert_eq!(ff3.values.len(), 3);
        let setb = candidates(&Sort::set(Sort::Bool), &cfg);
        assert!(setb.complete);
        assert_eq!(setb.values.len(), 4);
    }

    #[test]
    fn candidates_never_empty() {
        let cfg = DomainConfig::default();
        for sort in [
            Sort::Bool,
            Sort::Int,
            Sort::Real,
            Sort::String,
            Sort::BitVec(8),
            Sort::FiniteField(17),
            Sort::seq(Sort::Int),
            Sort::set(Sort::Int),
            Sort::bag(Sort::Bool),
            Sort::array(Sort::Int, Sort::Int),
            Sort::Tuple(vec![Sort::Bool, Sort::Bool]),
            Sort::unit_tuple(),
            Sort::Uninterpreted(Symbol::new("U")),
        ] {
            let c = candidates(&sort, &cfg);
            assert!(!c.values.is_empty(), "no candidates for {sort}");
            for v in &c.values {
                assert_eq!(v.sort(), sort, "candidate sort mismatch for {sort}");
            }
        }
    }

    #[test]
    fn unit_tuple_candidates_complete() {
        let cfg = DomainConfig::default();
        let c = candidates(&Sort::unit_tuple(), &cfg);
        assert!(c.complete);
        assert_eq!(c.values, vec![Value::Tuple(vec![])]);
    }
}

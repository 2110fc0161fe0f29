//! Terms: the expression AST of SMT-LIB formulas.

use crate::{Op, Sort, Symbol, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A quantifier kind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Quantifier {
    /// `forall`.
    Forall,
    /// `exists`.
    Exists,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Forall => f.write_str("forall"),
            Quantifier::Exists => f.write_str("exists"),
        }
    }
}

/// An SMT-LIB term.
///
/// The fuzzer-facing extension is [`Term::Placeholder`], the `<placeholder>`
/// markers left by skeleton extraction; they type-check as `Bool` and print
/// as `<placeholder>` (which is intentionally *not* valid SMT-LIB, so a
/// skeleton can never be mistaken for a finished test case).
///
/// # Examples
///
/// ```
/// use o4a_smtlib::{Term, Op, Value};
/// let t = Term::app(Op::And, vec![Term::tru(), Term::var("p")]);
/// assert_eq!(t.to_string(), "(and true p)");
/// assert_eq!(t.size(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A literal constant.
    Const(Value),
    /// A variable or 0-ary function occurrence.
    Var(Symbol),
    /// An operator application.
    App(Op, Vec<Term>),
    /// `(let ((x t) ...) body)`.
    Let(Vec<(Symbol, Term)>, Box<Term>),
    /// `(forall ((x S) ...) body)` / `(exists ...)`.
    Quant(Quantifier, Vec<(Symbol, Sort)>, Box<Term>),
    /// A skeleton placeholder (see [`crate`] docs); `u32` is its index.
    Placeholder(u32),
}

impl Term {
    /// The constant `true`.
    pub fn tru() -> Term {
        Term::Const(Value::Bool(true))
    }

    /// An integer literal.
    pub fn int(i: i128) -> Term {
        Term::Const(Value::Int(i))
    }

    /// A variable occurrence.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::Var(name.into())
    }

    /// An application (convenience constructor).
    pub fn app(op: Op, args: Vec<Term>) -> Term {
        Term::App(op, args)
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Maximum nesting depth.
    pub fn depth(&self) -> usize {
        match self {
            Term::Const(_) | Term::Var(_) | Term::Placeholder(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
            Term::Let(binds, body) => {
                1 + binds
                    .iter()
                    .map(|(_, t)| t.depth())
                    .chain(std::iter::once(body.depth()))
                    .max()
                    .unwrap_or(0)
            }
            Term::Quant(_, _, body) => 1 + body.depth(),
        }
    }

    /// Visits every subterm (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Term)) {
        f(self);
        match self {
            Term::App(_, args) => args.iter().for_each(|a| a.visit(f)),
            Term::Let(binds, body) => {
                binds.iter().for_each(|(_, t)| t.visit(f));
                body.visit(f);
            }
            Term::Quant(_, _, body) => body.visit(f),
            _ => {}
        }
    }

    /// Rebuilds the term bottom-up through `f`, which receives each node
    /// after its children have been transformed.
    pub fn map_bottom_up(&self, f: &mut impl FnMut(Term) -> Term) -> Term {
        let rebuilt = match self {
            Term::App(op, args) => Term::App(
                op.clone(),
                args.iter().map(|a| a.map_bottom_up(f)).collect(),
            ),
            Term::Let(binds, body) => Term::Let(
                binds
                    .iter()
                    .map(|(s, t)| (s.clone(), t.map_bottom_up(f)))
                    .collect(),
                Box::new(body.map_bottom_up(f)),
            ),
            Term::Quant(q, vars, body) => {
                Term::Quant(*q, vars.clone(), Box::new(body.map_bottom_up(f)))
            }
            other => other.clone(),
        };
        f(rebuilt)
    }

    /// Free variables of the term (symbols not bound by `let`/quantifiers).
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        fn go(t: &Term, bound: &mut Vec<Symbol>, out: &mut BTreeSet<Symbol>) {
            match t {
                Term::Var(s) => {
                    if !bound.iter().any(|b| b == s) {
                        out.insert(s.clone());
                    }
                }
                Term::Const(_) | Term::Placeholder(_) => {}
                Term::App(op, args) => {
                    if let Op::Uf(name) = op {
                        if !bound.iter().any(|b| b == name) {
                            out.insert(name.clone());
                        }
                    }
                    args.iter().for_each(|a| go(a, bound, out));
                }
                Term::Let(binds, body) => {
                    for (_, v) in binds {
                        go(v, bound, out);
                    }
                    let n = bound.len();
                    bound.extend(binds.iter().map(|(s, _)| s.clone()));
                    go(body, bound, out);
                    bound.truncate(n);
                }
                Term::Quant(_, vars, body) => {
                    let n = bound.len();
                    bound.extend(vars.iter().map(|(s, _)| s.clone()));
                    go(body, bound, out);
                    bound.truncate(n);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Substitutes free occurrences of `from` with `to` (capture-naive: the
    /// fuzzer generates fresh names, so capture cannot occur in its usage;
    /// bound occurrences of `from` are respected).
    pub fn rename_free_var(&self, from: &Symbol, to: &Symbol) -> Term {
        fn go(t: &Term, from: &Symbol, to: &Symbol, bound: &mut Vec<Symbol>) -> Term {
            match t {
                Term::Var(s) if s == from && !bound.iter().any(|b| b == s) => Term::Var(to.clone()),
                Term::Var(_) | Term::Const(_) | Term::Placeholder(_) => t.clone(),
                Term::App(op, args) => Term::App(
                    op.clone(),
                    args.iter().map(|a| go(a, from, to, bound)).collect(),
                ),
                Term::Let(binds, body) => {
                    let new_binds: Vec<_> = binds
                        .iter()
                        .map(|(s, v)| (s.clone(), go(v, from, to, bound)))
                        .collect();
                    let n = bound.len();
                    bound.extend(binds.iter().map(|(s, _)| s.clone()));
                    let new_body = go(body, from, to, bound);
                    bound.truncate(n);
                    Term::Let(new_binds, Box::new(new_body))
                }
                Term::Quant(q, vars, body) => {
                    let n = bound.len();
                    bound.extend(vars.iter().map(|(s, _)| s.clone()));
                    let new_body = go(body, from, to, bound);
                    bound.truncate(n);
                    Term::Quant(*q, vars.clone(), Box::new(new_body))
                }
            }
        }
        go(self, from, to, &mut Vec::new())
    }

    /// All operators occurring in the term (used by bug-trigger matching).
    pub fn ops(&self) -> BTreeSet<Op> {
        let mut out = BTreeSet::new();
        self.visit(&mut |t| {
            if let Term::App(op, _) = t {
                out.insert(op.clone());
            }
        });
        out
    }

    /// True when the term contains a quantifier anywhere.
    pub fn has_quantifier(&self) -> bool {
        let mut found = false;
        self.visit(&mut |t| {
            if matches!(t, Term::Quant(_, _, _)) {
                found = true;
            }
        });
        found
    }

    /// An *atomic* sub-formula in the paper's sense: a Boolean-valued term
    /// whose head is not a logical connective or quantifier. These are the
    /// removal candidates during skeleton extraction.
    pub fn is_logical_connective(&self) -> bool {
        match self {
            Term::App(op, _) => op.is_connective(),
            Term::Quant(_, _, _) | Term::Let(_, _) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    fn sample() -> Term {
        // (or (= x 0) (< x 1))
        Term::app(
            Op::Or,
            vec![
                Term::app(Op::Eq, vec![Term::var("x"), Term::int(0)]),
                Term::app(Op::Lt, vec![Term::var("x"), Term::int(1)]),
            ],
        )
    }

    #[test]
    fn size_and_depth() {
        let t = sample();
        assert_eq!(t.size(), 7);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn free_vars_sees_through_binders() {
        let t = Term::Quant(
            Quantifier::Exists,
            vec![(Symbol::new("x"), Sort::Int)],
            Box::new(Term::app(Op::Eq, vec![Term::var("x"), Term::var("y")])),
        );
        let fv = t.free_vars();
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_let_shadowing() {
        // (let ((x y)) x) — y free, x bound.
        let t = Term::Let(
            vec![(Symbol::new("x"), Term::var("y"))],
            Box::new(Term::var("x")),
        );
        let fv = t.free_vars();
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn uf_heads_count_as_free() {
        let t = Term::app(Op::Uf(Symbol::new("f")), vec![Term::int(1)]);
        assert!(t.free_vars().contains("f"));
    }

    #[test]
    fn rename_respects_binders() {
        let inner = Term::app(Op::Eq, vec![Term::var("x"), Term::var("x")]);
        let t = Term::Quant(
            Quantifier::Forall,
            vec![(Symbol::new("x"), Sort::Int)],
            Box::new(inner),
        );
        let renamed = t.rename_free_var(&Symbol::new("x"), &Symbol::new("z"));
        assert_eq!(renamed, t, "bound occurrences must not be renamed");

        let free = sample().rename_free_var(&Symbol::new("x"), &Symbol::new("z"));
        assert!(free.free_vars().contains("z"));
        assert!(!free.free_vars().contains("x"));
    }

    #[test]
    fn ops_collection() {
        let ops = sample().ops();
        assert!(ops.contains(&Op::Or));
        assert!(ops.contains(&Op::Eq));
        assert!(ops.contains(&Op::Lt));
    }

    #[test]
    fn quantifier_detection() {
        assert!(!sample().has_quantifier());
        let q = Term::Quant(
            Quantifier::Forall,
            vec![(Symbol::new("r"), Sort::Real)],
            Box::new(Term::tru()),
        );
        assert!(q.has_quantifier());
    }

    #[test]
    fn connective_classification() {
        assert!(Term::app(Op::And, vec![]).is_logical_connective());
        assert!(!Term::app(Op::Eq, vec![]).is_logical_connective());
        assert!(!Term::var("p").is_logical_connective());
    }

    #[test]
    fn map_bottom_up_rewrites() {
        let t = sample();
        let rewritten = t.map_bottom_up(&mut |node| match node {
            Term::Const(Value::Int(i)) => Term::int(i + 10),
            other => other,
        });
        let ints: Vec<i128> = {
            let mut v = Vec::new();
            rewritten.visit(&mut |n| {
                if let Term::Const(Value::Int(i)) = n {
                    v.push(*i);
                }
            });
            v
        };
        assert_eq!(ints, vec![10, 11]);
    }
}

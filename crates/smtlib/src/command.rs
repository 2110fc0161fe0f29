//! Scripts and commands: the top-level structure of SMT-LIB input files.

use crate::{Sort, Symbol, Term, Theory};
use std::collections::BTreeSet;
use std::fmt;

/// A single SMT-LIB command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Command {
    /// `(set-logic L)`.
    SetLogic(String),
    /// `(set-option :k v)` — recorded verbatim; solvers interpret a few.
    SetOption(String, String),
    /// `(set-info :k v)` — recorded verbatim.
    SetInfo(String, String),
    /// `(declare-const x S)`.
    DeclareConst(Symbol, Sort),
    /// `(declare-fun f (S1 ... Sn) S)`.
    DeclareFun(Symbol, Vec<Sort>, Sort),
    /// `(declare-sort S 0)` — only arity 0 is supported.
    DeclareSort(Symbol),
    /// `(define-fun f ((x S) ...) S body)`.
    DefineFun(Symbol, Vec<(Symbol, Sort)>, Sort, Term),
    /// `(assert t)`.
    Assert(Term),
    /// `(check-sat)`.
    CheckSat,
    /// `(get-model)`.
    GetModel,
    /// `(get-value (t ...))` — parsed, not answered.
    GetValue(Vec<Term>),
    /// `(push n)` / `(pop n)` — parsed for compatibility; the bounded
    /// solvers reject scripts that actually rely on them.
    Push(u32),
    /// See [`Command::Push`].
    Pop(u32),
    /// `(exit)`.
    Exit,
}

impl Command {
    /// The declared symbol, if this command introduces one.
    pub fn declared_symbol(&self) -> Option<&Symbol> {
        match self {
            Command::DeclareConst(s, _)
            | Command::DeclareFun(s, _, _)
            | Command::DeclareSort(s)
            | Command::DefineFun(s, _, _, _) => Some(s),
            _ => None,
        }
    }
}

/// A parsed SMT-LIB script: an ordered list of commands.
///
/// # Examples
///
/// ```
/// use o4a_smtlib::Script;
/// let s: Script = "(declare-const x Int) (assert (> x 0)) (check-sat)".parse()?;
/// assert_eq!(s.assertions().count(), 1);
/// assert!(s.to_string().contains("(assert (> x 0))"));
/// # Ok::<(), o4a_smtlib::ParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Script {
    /// The commands in file order.
    pub commands: Vec<Command>,
}

impl Script {
    /// Creates an empty script.
    pub fn new() -> Script {
        Script::default()
    }

    /// Iterates over asserted terms.
    pub fn assertions(&self) -> impl Iterator<Item = &Term> {
        self.commands.iter().filter_map(|c| match c {
            Command::Assert(t) => Some(t),
            _ => None,
        })
    }

    /// Mutable access to asserted terms.
    pub fn assertions_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        self.commands.iter_mut().filter_map(|c| match c {
            Command::Assert(t) => Some(t),
            _ => None,
        })
    }

    /// All sorted constant/function declarations `(name, arg sorts, result)`.
    pub fn declarations(&self) -> Vec<(Symbol, Vec<Sort>, Sort)> {
        let mut out = Vec::new();
        for c in &self.commands {
            match c {
                Command::DeclareConst(s, sort) => out.push((s.clone(), Vec::new(), sort.clone())),
                Command::DeclareFun(s, args, ret) => {
                    out.push((s.clone(), args.clone(), ret.clone()))
                }
                _ => {}
            }
        }
        out
    }

    /// The set of theories exercised by the script (by sorts and operators);
    /// used for bug triage grouping and coverage attribution.
    pub fn theories(&self) -> BTreeSet<Theory> {
        let mut out = BTreeSet::new();
        for (_, args, ret) in self.declarations() {
            for s in args.iter().chain(std::iter::once(&ret)) {
                out.insert(s.theory());
                for c in s.children() {
                    out.insert(c.theory());
                }
            }
        }
        for t in self.assertions() {
            for op in t.ops() {
                out.insert(op.theory());
            }
        }
        out.remove(&Theory::Core);
        out
    }

    /// Total number of AST nodes across all assertions.
    pub fn size(&self) -> usize {
        self.assertions().map(Term::size).sum()
    }

    /// Ensures the script ends with `(check-sat)`, appending one if missing.
    pub fn ensure_check_sat(&mut self) {
        if !self.commands.iter().any(|c| matches!(c, Command::CheckSat)) {
            self.commands.push(Command::CheckSat);
        }
    }

    /// Rendered SMT-LIB text size in bytes.
    pub fn byte_len(&self) -> usize {
        self.to_string().len()
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::SetLogic(l) => write!(f, "(set-logic {l})"),
            Command::SetOption(k, v) => write!(f, "(set-option :{k} {v})"),
            Command::SetInfo(k, v) => write!(f, "(set-info :{k} {v})"),
            Command::DeclareConst(s, sort) => write!(f, "(declare-const {s} {sort})"),
            Command::DeclareFun(s, args, ret) => {
                write!(f, "(declare-fun {s} (")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") {ret})")
            }
            Command::DeclareSort(s) => write!(f, "(declare-sort {s} 0)"),
            Command::DefineFun(s, params, ret, body) => {
                write!(f, "(define-fun {s} (")?;
                for (i, (p, sort)) in params.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "({p} {sort})")?;
                }
                write!(f, ") {ret} {body})")
            }
            Command::Assert(t) => write!(f, "(assert {t})"),
            Command::CheckSat => f.write_str("(check-sat)"),
            Command::GetModel => f.write_str("(get-model)"),
            Command::GetValue(ts) => {
                f.write_str("(get-value (")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{t}")?;
                }
                f.write_str("))")
            }
            Command::Push(n) => write!(f, "(push {n})"),
            Command::Pop(n) => write!(f, "(pop {n})"),
            Command::Exit => f.write_str("(exit)"),
        }
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.commands.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    fn sample_script() -> Script {
        Script {
            commands: vec![
                Command::SetLogic("QF_LIA".into()),
                Command::DeclareConst(Symbol::new("x"), Sort::Int),
                Command::DeclareFun(Symbol::new("f"), vec![Sort::Int], Sort::Bool),
                Command::Assert(Term::app(Op::Gt, vec![Term::var("x"), Term::int(0)])),
                Command::CheckSat,
            ],
        }
    }

    #[test]
    fn display_matches_smtlib() {
        let text = sample_script().to_string();
        assert!(text.contains("(set-logic QF_LIA)"));
        assert!(text.contains("(declare-const x Int)"));
        assert!(text.contains("(declare-fun f (Int) Bool)"));
        assert!(text.contains("(assert (> x 0))"));
        assert!(text.ends_with("(check-sat)"));
    }

    #[test]
    fn declarations_collected() {
        let decls = sample_script().declarations();
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].0.as_str(), "x");
        assert_eq!(decls[1].1, vec![Sort::Int]);
    }

    #[test]
    fn theories_detected() {
        let mut s = sample_script();
        s.commands.push(Command::DeclareConst(
            Symbol::new("q"),
            Sort::seq(Sort::Int),
        ));
        let th = s.theories();
        assert!(th.contains(&Theory::Ints));
        assert!(th.contains(&Theory::Sequences));
    }

    #[test]
    fn ensure_check_sat_idempotent() {
        let mut s = sample_script();
        s.ensure_check_sat();
        assert_eq!(
            s.commands
                .iter()
                .filter(|c| matches!(c, Command::CheckSat))
                .count(),
            1
        );
        let mut empty = Script::new();
        empty.ensure_check_sat();
        assert_eq!(empty.commands.len(), 1);
    }

    #[test]
    fn placeholders_flagged() {
        let mut s = sample_script();
        let mut arena = crate::TermArena::new();
        assert!(!crate::ArenaScript::from_script(&s, &mut arena).has_placeholders(&arena));
        s.commands.push(Command::Assert(Term::Placeholder(0)));
        assert!(crate::ArenaScript::from_script(&s, &mut arena).has_placeholders(&arena));
    }
}

//! Recursive-descent parser from SMT-LIB text to [`Script`]/[`Term`].
//!
//! There is one parser. It runs over borrowed tokens and builds terms
//! directly into a [`TermArena`]: [`parse_script_arena`]/[`parse_term_arena`]
//! are its entry points. The boxed [`parse_script`]/[`parse_term`] wrappers
//! parse into a thread-local scratch arena and extract the result, so both
//! forms report the same errors with the same messages.

use crate::arena::{ANode, ArenaCommand, ArenaScript, SymbolId, TermArena, TermId};
use crate::lexer::{lex, resolve_string_lit, SpannedTok, Tok};
use crate::{
    BitVecValue, FiniteFieldValue, Op, ParseError, Quantifier, Rational, Script, Sort, Symbol,
    Term, Value,
};
use std::cell::RefCell;
use std::str::FromStr;

thread_local! {
    /// Scratch arena backing the boxed `parse_script`/`parse_term` wrappers;
    /// reset per call, interners stay warm for the thread's lifetime.
    static PARSE_ARENA: RefCell<TermArena> = RefCell::new(TermArena::new());
}

/// Parses a complete SMT-LIB script.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic problems. Sort errors are
/// *not* detected here; run [`crate::typeck::check_script`] afterwards.
///
/// # Examples
///
/// ```
/// let s = o4a_smtlib::parse_script("(declare-const x Int)(assert (= x 1))(check-sat)")?;
/// assert_eq!(s.commands.len(), 3);
/// # Ok::<(), o4a_smtlib::ParseError>(())
/// ```
pub fn parse_script(input: &str) -> Result<Script, ParseError> {
    PARSE_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        let script = parse_script_arena(input, &mut arena)?;
        Ok(script.to_script(&arena))
    })
}

/// Parses a complete SMT-LIB script into an arena. Does *not* reset the
/// arena — the caller owns the reuse policy.
///
/// # Errors
///
/// Returns [`ParseError`] exactly as [`parse_script`] does.
pub fn parse_script_arena(input: &str, arena: &mut TermArena) -> Result<ArenaScript, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser::new(toks, arena);
    let mut commands = Vec::new();
    while !p.at_end() {
        commands.push(p.command()?);
    }
    Ok(ArenaScript { commands })
}

/// Parses a single term (for tests, generator output validation, and the
/// reducer).
///
/// # Errors
///
/// Returns [`ParseError`] when the input is not exactly one term.
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    PARSE_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        let id = parse_term_arena(input, &mut arena)?;
        Ok(arena.extract_term(id))
    })
}

/// Parses a single term into an arena. Does *not* reset the arena.
///
/// # Errors
///
/// Returns [`ParseError`] when the input is not exactly one term.
pub fn parse_term_arena(input: &str, arena: &mut TermArena) -> Result<TermId, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser::new(toks, arena);
    let t = p.term()?;
    if !p.at_end() {
        return Err(p.error("trailing input after term"));
    }
    Ok(t)
}

/// Parses a single sort.
///
/// # Errors
///
/// Returns [`ParseError`] when the input is not exactly one sort.
pub fn parse_sort(input: &str) -> Result<Sort, ParseError> {
    let toks = lex(input)?;
    let mut arena = TermArena::new();
    let mut p = Parser::new(toks, &mut arena);
    let s = p.sort()?;
    if !p.at_end() {
        return Err(p.error("trailing input after sort"));
    }
    Ok(s)
}

impl FromStr for Script {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_script(s)
    }
}

impl FromStr for Term {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_term(s)
    }
}

impl FromStr for Sort {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_sort(s)
    }
}

struct Parser<'a, 'ar> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
    arena: &'ar mut TermArena,
    // Scratch stacks for in-flight argument/binding lists: each production
    // records a mark, pushes as it parses, slices `[mark..]` to build the
    // node, and truncates back — no per-node Vec allocations.
    scratch: Vec<TermId>,
    bscratch: Vec<(SymbolId, TermId)>,
    qscratch: Vec<(SymbolId, crate::arena::SortId)>,
}

impl<'a, 'ar> Parser<'a, 'ar> {
    fn new(toks: Vec<SpannedTok<'a>>, arena: &'ar mut TermArena) -> Self {
        Parser {
            toks,
            pos: 0,
            arena,
            scratch: Vec::new(),
            bscratch: Vec::new(),
            qscratch: Vec::new(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.toks.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), msg)
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    fn next(&mut self) -> Result<Tok<'a>, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of input"))?
            .tok;
        self.pos += 1;
        Ok(t)
    }

    fn expect_lparen(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Tok::LParen => Ok(()),
            other => Err(self.error(format!("expected '(' but found {}", other.describe()))),
        }
    }

    fn expect_rparen(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Tok::RParen => Ok(()),
            other => Err(self.error(format!("expected ')' but found {}", other.describe()))),
        }
    }

    fn symbol(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Tok::Symbol(s) => Ok(s),
            other => Err(self.error(format!("expected a symbol but found {}", other.describe()))),
        }
    }

    fn numeral(&mut self) -> Result<i128, ParseError> {
        match self.next()? {
            Tok::Numeral(n) => Ok(n),
            other => Err(self.error(format!("expected a numeral but found {}", other.describe()))),
        }
    }

    // ---- commands ----

    fn command(&mut self) -> Result<ArenaCommand, ParseError> {
        self.expect_lparen()?;
        let head = self.symbol()?;
        let cmd = match head {
            "set-logic" => ArenaCommand::SetLogic(self.symbol()?.to_string()),
            "set-option" => {
                let key = match self.next()? {
                    Tok::Keyword(k) => k.to_string(),
                    other => {
                        return Err(self.error(format!(
                            "expected option keyword, found {}",
                            other.describe()
                        )))
                    }
                };
                ArenaCommand::SetOption(key, self.attribute_value()?)
            }
            "set-info" => {
                let key = match self.next()? {
                    Tok::Keyword(k) => k.to_string(),
                    other => {
                        return Err(self
                            .error(format!("expected info keyword, found {}", other.describe())))
                    }
                };
                ArenaCommand::SetInfo(key, self.attribute_value()?)
            }
            "declare-const" => {
                let name = Symbol::new(self.symbol()?);
                let sort = self.sort()?;
                ArenaCommand::DeclareConst(name, sort)
            }
            "declare-fun" => {
                let name = Symbol::new(self.symbol()?);
                self.expect_lparen()?;
                let mut args = Vec::new();
                while !matches!(self.peek(), Some(Tok::RParen)) {
                    args.push(self.sort()?);
                }
                self.expect_rparen()?;
                let ret = self.sort()?;
                if args.is_empty() {
                    ArenaCommand::DeclareConst(name, ret)
                } else {
                    ArenaCommand::DeclareFun(name, args, ret)
                }
            }
            "declare-sort" => {
                let name = Symbol::new(self.symbol()?);
                let arity = if matches!(self.peek(), Some(Tok::Numeral(_))) {
                    self.numeral()?
                } else {
                    0
                };
                if arity != 0 {
                    return Err(self.error("only arity-0 sort declarations are supported"));
                }
                ArenaCommand::DeclareSort(name)
            }
            "define-fun" => {
                let name = Symbol::new(self.symbol()?);
                self.expect_lparen()?;
                let mut params = Vec::new();
                while !matches!(self.peek(), Some(Tok::RParen)) {
                    self.expect_lparen()?;
                    let p = Symbol::new(self.symbol()?);
                    let s = self.sort()?;
                    self.expect_rparen()?;
                    params.push((p, s));
                }
                self.expect_rparen()?;
                let ret = self.sort()?;
                let body = self.term()?;
                ArenaCommand::DefineFun(name, params, ret, body)
            }
            "assert" => ArenaCommand::Assert(self.term()?),
            "check-sat" => ArenaCommand::CheckSat,
            "get-model" => ArenaCommand::GetModel,
            "get-value" => {
                self.expect_lparen()?;
                let mut ts = Vec::new();
                while !matches!(self.peek(), Some(Tok::RParen)) {
                    ts.push(self.term()?);
                }
                self.expect_rparen()?;
                ArenaCommand::GetValue(ts)
            }
            "push" => {
                let n = if matches!(self.peek(), Some(Tok::Numeral(_))) {
                    self.numeral()? as u32
                } else {
                    1
                };
                ArenaCommand::Push(n)
            }
            "pop" => {
                let n = if matches!(self.peek(), Some(Tok::Numeral(_))) {
                    self.numeral()? as u32
                } else {
                    1
                };
                ArenaCommand::Pop(n)
            }
            "exit" => ArenaCommand::Exit,
            other => return Err(self.error(format!("unknown command '{other}'"))),
        };
        self.expect_rparen()?;
        Ok(cmd)
    }

    /// Reads one attribute value (atom or balanced s-expression) as raw text.
    fn attribute_value(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Symbol(s) => Ok(s.to_string()),
            Tok::Numeral(n) => Ok(n.to_string()),
            Tok::StringLit(s, esc) => Ok(format!("\"{}\"", resolve_string_lit(s, esc))),
            Tok::Decimal(d) => Ok(d.to_string()),
            Tok::Keyword(k) => Ok(format!(":{k}")),
            Tok::LParen => {
                let mut depth = 1;
                let mut parts = vec!["(".to_string()];
                while depth > 0 {
                    match self.next()? {
                        Tok::LParen => {
                            depth += 1;
                            parts.push("(".into());
                        }
                        Tok::RParen => {
                            depth -= 1;
                            parts.push(")".into());
                        }
                        Tok::Symbol(s) => parts.push(s.to_string()),
                        Tok::Numeral(n) => parts.push(n.to_string()),
                        Tok::Decimal(d) => parts.push(d.to_string()),
                        Tok::StringLit(s, esc) => {
                            parts.push(format!("\"{}\"", resolve_string_lit(s, esc)))
                        }
                        Tok::Keyword(k) => parts.push(format!(":{k}")),
                        Tok::BitVecLit(w, b) => {
                            parts.push(BitVecValue::new(w.max(1), b).to_string())
                        }
                    }
                }
                Ok(parts.join(" "))
            }
            other => Err(self.error(format!("invalid attribute value {}", other.describe()))),
        }
    }

    // ---- sorts ----

    fn sort(&mut self) -> Result<Sort, ParseError> {
        match self.next()? {
            Tok::Symbol(s) => match s {
                "Bool" => Ok(Sort::Bool),
                "Int" => Ok(Sort::Int),
                "Real" => Ok(Sort::Real),
                "String" => Ok(Sort::String),
                "UnitTuple" => Ok(Sort::unit_tuple()),
                other => Ok(Sort::Uninterpreted(Symbol::new(other))),
            },
            Tok::LParen => {
                let head = self.symbol()?;
                let sort = match head {
                    "_" => {
                        let name = self.symbol()?;
                        match name {
                            "BitVec" => {
                                let w = self.numeral()?;
                                if !(1..=128).contains(&w) {
                                    return Err(self.error("bit-vector width must be in 1..=128"));
                                }
                                Sort::BitVec(w as u32)
                            }
                            "FiniteField" => {
                                let p = self.numeral()?;
                                if p < 2 {
                                    return Err(self.error("field modulus must be at least 2"));
                                }
                                Sort::FiniteField(p as u64)
                            }
                            other => {
                                return Err(self.error(format!("unknown indexed sort '{other}'")))
                            }
                        }
                    }
                    "Seq" => Sort::seq(self.sort()?),
                    "Set" => Sort::set(self.sort()?),
                    "Bag" => Sort::bag(self.sort()?),
                    "Array" => {
                        let k = self.sort()?;
                        let v = self.sort()?;
                        Sort::array(k, v)
                    }
                    "Tuple" => {
                        let mut elems = Vec::new();
                        while !matches!(self.peek(), Some(Tok::RParen)) {
                            elems.push(self.sort()?);
                        }
                        Sort::Tuple(elems)
                    }
                    "Relation" => {
                        // cvc5 sugar: (Relation S1 ... Sn) = (Set (Tuple S1 ... Sn)).
                        let mut elems = Vec::new();
                        while !matches!(self.peek(), Some(Tok::RParen)) {
                            elems.push(self.sort()?);
                        }
                        Sort::set(Sort::Tuple(elems))
                    }
                    other => return Err(self.error(format!("unknown sort constructor '{other}'"))),
                };
                self.expect_rparen()?;
                Ok(sort)
            }
            other => Err(self.error(format!("expected a sort but found {}", other.describe()))),
        }
    }

    // ---- terms ----

    fn term(&mut self) -> Result<TermId, ParseError> {
        match self.next()? {
            Tok::Numeral(n) => Ok(self.arena.mk_const(Value::Int(n))),
            Tok::Decimal(d) => Ok(self.arena.mk_const(Value::Real(d))),
            Tok::StringLit(s, esc) => {
                let v = resolve_string_lit(s, esc);
                Ok(self.arena.mk_const(Value::Str(v)))
            }
            Tok::BitVecLit(w, b) => {
                if w == 0 {
                    return Err(self.error("empty bit-vector literal"));
                }
                Ok(self.arena.mk_const(Value::BitVec(BitVecValue::new(w, b))))
            }
            Tok::Symbol(s) => Ok(match s {
                "true" => self.arena.mk_const(Value::Bool(true)),
                "false" => self.arena.mk_const(Value::Bool(false)),
                "tuple.unit" => self.arena.mk_const(Value::Tuple(Vec::new())),
                other => {
                    let sid = self.arena.sym(other);
                    self.arena.mk_var(sid)
                }
            }),
            Tok::LParen => self.compound_term(),
            other => Err(self.error(format!("expected a term but found {}", other.describe()))),
        }
    }

    fn compound_term(&mut self) -> Result<TermId, ParseError> {
        // After '('. Possible heads: symbol, (_ indexed), (as qualified), let,
        // quantifiers, ! annotations.
        match self.next()? {
            Tok::Symbol(head) => match head {
                "let" => {
                    self.expect_lparen()?;
                    let mark = self.bscratch.len();
                    while !matches!(self.peek(), Some(Tok::RParen)) {
                        self.expect_lparen()?;
                        let name = self.symbol()?;
                        let sid = self.arena.sym(name);
                        let value = self.term()?;
                        self.expect_rparen()?;
                        self.bscratch.push((sid, value));
                    }
                    self.expect_rparen()?;
                    let body = self.term()?;
                    self.expect_rparen()?;
                    let id = self.arena.mk_let(&self.bscratch[mark..], body);
                    self.bscratch.truncate(mark);
                    Ok(id)
                }
                "forall" | "exists" => {
                    let q = if head == "forall" {
                        Quantifier::Forall
                    } else {
                        Quantifier::Exists
                    };
                    self.expect_lparen()?;
                    let mark = self.qscratch.len();
                    while !matches!(self.peek(), Some(Tok::RParen)) {
                        self.expect_lparen()?;
                        let name = self.symbol()?;
                        let sid = self.arena.sym(name);
                        let sort = self.sort()?;
                        let sortid = self.arena.sort_id(&sort);
                        self.expect_rparen()?;
                        self.qscratch.push((sid, sortid));
                    }
                    self.expect_rparen()?;
                    let body = self.term()?;
                    self.expect_rparen()?;
                    let id = self.arena.mk_quant(q, &self.qscratch[mark..], body);
                    self.qscratch.truncate(mark);
                    Ok(id)
                }
                "!" => {
                    // Annotation: keep the term, drop attributes.
                    let t = self.term()?;
                    while !matches!(self.peek(), Some(Tok::RParen)) {
                        match self.next()? {
                            Tok::Keyword(_) => {
                                // Attribute value may be an atom or s-expr; skip one
                                // balanced unit if present.
                                if !matches!(self.peek(), Some(Tok::RParen))
                                    && !matches!(self.peek(), Some(Tok::Keyword(_)))
                                {
                                    self.skip_sexpr()?;
                                }
                            }
                            other => {
                                return Err(self.error(format!(
                                    "expected attribute keyword, found {}",
                                    other.describe()
                                )))
                            }
                        }
                    }
                    self.expect_rparen()?;
                    Ok(t)
                }
                "as" => {
                    let v = self.qualified_identifier()?;
                    self.expect_rparen()?;
                    Ok(self.arena.mk_const(v))
                }
                "_" => {
                    let op = self.indexed_op_or_const()?;
                    match op {
                        IndexedHead::Const(v) => {
                            self.expect_rparen()?;
                            Ok(self.arena.mk_const(v))
                        }
                        IndexedHead::Op(_) => {
                            Err(self.error("indexed operator used without arguments"))
                        }
                    }
                }
                name => {
                    let mark = self.scratch.len();
                    while !matches!(self.peek(), Some(Tok::RParen)) {
                        let t = self.term()?;
                        self.scratch.push(t);
                    }
                    self.expect_rparen()?;
                    self.application(name, mark)
                }
            },
            Tok::LParen => {
                // Head is itself an s-expression: (_ op idx...) or (as const Sort).
                let head = self.symbol()?;
                match head {
                    "_" => {
                        let op = self.indexed_op_or_const()?;
                        self.expect_rparen()?; // close the head
                        let mark = self.scratch.len();
                        while !matches!(self.peek(), Some(Tok::RParen)) {
                            let t = self.term()?;
                            self.scratch.push(t);
                        }
                        self.expect_rparen()?;
                        match op {
                            IndexedHead::Op(op) => {
                                let id = self.arena.mk_app_op(&op, &self.scratch[mark..]);
                                self.scratch.truncate(mark);
                                Ok(id)
                            }
                            IndexedHead::Const(v) => {
                                if self.scratch.len() == mark {
                                    Ok(self.arena.mk_const(v))
                                } else {
                                    self.scratch.truncate(mark);
                                    Err(self.error("constant head applied to arguments"))
                                }
                            }
                        }
                    }
                    "as" => {
                        let name = self.symbol()?;
                        if name == "const" {
                            let sort = self.sort()?;
                            self.expect_rparen()?; // close head
                            let arr_sort = match &sort {
                                Sort::Array(_, _) => sort.clone(),
                                _ => {
                                    return Err(
                                        self.error("'as const' requires an array sort annotation")
                                    )
                                }
                            };
                            let default = self.term()?;
                            self.expect_rparen()?;
                            Ok(self.arena.mk_app_op(&Op::ConstArray(arr_sort), &[default]))
                        } else {
                            Err(self.error(format!(
                                "unsupported qualified head '(as {name} ...)' in application position"
                            )))
                        }
                    }
                    other => Err(self.error(format!("invalid application head '({other} ...)'"))),
                }
            }
            other => Err(self.error(format!(
                "expected an application head but found {}",
                other.describe()
            ))),
        }
    }

    /// Parses the body of `(as <name> <sort>)` — qualified constants such as
    /// `(as seq.empty (Seq Int))` and `(as ff-1 (_ FiniteField 3))`.
    fn qualified_identifier(&mut self) -> Result<Value, ParseError> {
        let name = self.symbol()?;
        let sort = self.sort()?;
        match name {
            "seq.empty" => match sort {
                Sort::Seq(e) => Ok(Value::Seq(*e, Vec::new())),
                other => Err(self.error(format!("seq.empty annotated with non-Seq sort {other}"))),
            },
            "set.empty" => match sort {
                Sort::Set(e) => Ok(Value::Set(*e, Default::default())),
                other => Err(self.error(format!("set.empty annotated with non-Set sort {other}"))),
            },
            "bag.empty" => match sort {
                Sort::Bag(e) => Ok(Value::Bag(*e, Default::default())),
                other => Err(self.error(format!("bag.empty annotated with non-Bag sort {other}"))),
            },
            "tuple.unit" => match sort {
                Sort::Tuple(es) if es.is_empty() => Ok(Value::Tuple(Vec::new())),
                other => Err(self.error(format!("tuple.unit annotated with sort {other}"))),
            },
            ff if ff.starts_with("ff") => {
                let digits = &ff[2..];
                let value: i128 = digits
                    .parse()
                    .map_err(|_| self.error(format!("invalid finite-field literal '{ff}'")))?;
                match sort {
                    Sort::FiniteField(p) => Ok(Value::FiniteField(FiniteFieldValue::new(p, value))),
                    other => Err(self.error(format!(
                        "finite-field literal annotated with non-field sort {other}"
                    ))),
                }
            }
            other => Err(self.error(format!("unknown qualified identifier '{other}'"))),
        }
    }

    fn indexed_op_or_const(&mut self) -> Result<IndexedHead, ParseError> {
        let name = self.symbol()?;
        let head = match name {
            "extract" => {
                let i = self.numeral()? as u32;
                let j = self.numeral()? as u32;
                IndexedHead::Op(Op::Extract(i, j))
            }
            "zero_extend" => IndexedHead::Op(Op::ZeroExtend(self.numeral()? as u32)),
            "sign_extend" => IndexedHead::Op(Op::SignExtend(self.numeral()? as u32)),
            "rotate_left" => IndexedHead::Op(Op::RotateLeft(self.numeral()? as u32)),
            "rotate_right" => IndexedHead::Op(Op::RotateRight(self.numeral()? as u32)),
            "repeat" => IndexedHead::Op(Op::Repeat(self.numeral()? as u32)),
            "divisible" => {
                let n = self.numeral()?;
                if n <= 0 {
                    return Err(self.error("divisible index must be positive"));
                }
                IndexedHead::Op(Op::Divisible(n as u64))
            }
            "tuple.select" => IndexedHead::Op(Op::TupleSelect(self.numeral()? as u32)),
            bv if bv.starts_with("bv") => {
                let value: u128 = bv[2..]
                    .parse()
                    .map_err(|_| self.error(format!("invalid bit-vector literal '{bv}'")))?;
                let w = self.numeral()?;
                if !(1..=128).contains(&w) {
                    return Err(self.error("bit-vector width must be in 1..=128"));
                }
                IndexedHead::Const(Value::BitVec(BitVecValue::new(w as u32, value)))
            }
            other => return Err(self.error(format!("unknown indexed identifier '{other}'"))),
        };
        Ok(head)
    }

    /// Builds an application from the scratch args above `mark`, folding
    /// literal negation/rationals so values round-trip, and resolving
    /// symbolic heads to operators or UF calls.
    fn application(&mut self, name: &str, mark: usize) -> Result<TermId, ParseError> {
        let argc = self.scratch.len() - mark;
        // Literal folding: (- 5) → -5, (- 1.5) → -1.5, (/ a b) over literals.
        if name == "-" && argc == 1 {
            if let ANode::Const(vi) = self.arena.node(self.scratch[mark]) {
                match self.arena.value(vi) {
                    Value::Int(n) => {
                        let neg = -*n;
                        self.scratch.truncate(mark);
                        return Ok(self.arena.mk_const(Value::Int(neg)));
                    }
                    Value::Real(r) => {
                        if let Some(neg) = r.neg() {
                            self.scratch.truncate(mark);
                            return Ok(self.arena.mk_const(Value::Real(neg)));
                        }
                    }
                    _ => {}
                }
            }
        }
        if name == "/" && argc == 2 {
            if let (ANode::Const(a), ANode::Const(b)) = (
                self.arena.node(self.scratch[mark]),
                self.arena.node(self.scratch[mark + 1]),
            ) {
                let num = match self.arena.value(a) {
                    Value::Int(n) => Some(Rational::from_int(*n)),
                    Value::Real(r) => Some(*r),
                    _ => None,
                };
                let den = match self.arena.value(b) {
                    Value::Int(n) if *n != 0 => Some(Rational::from_int(*n)),
                    Value::Real(r) if *r != Rational::ZERO => Some(*r),
                    _ => None,
                };
                if let (Some(n), Some(d)) = (num, den) {
                    if let Some(q) = n.div(d) {
                        self.scratch.truncate(mark);
                        return Ok(self.arena.mk_const(Value::Real(q)));
                    }
                }
            }
        }
        let op = Op::from_simple_name(name).unwrap_or_else(|| Op::Uf(Symbol::new(name)));
        let id = self.arena.mk_app_op(&op, &self.scratch[mark..]);
        self.scratch.truncate(mark);
        Ok(id)
    }

    fn skip_sexpr(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Tok::LParen => {
                let mut depth = 1;
                while depth > 0 {
                    match self.next()? {
                        Tok::LParen => depth += 1,
                        Tok::RParen => depth -= 1,
                        _ => {}
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

enum IndexedHead {
    Op(Op),
    Const(Value),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Command;

    #[test]
    fn parse_simple_script() {
        let s = parse_script("(set-logic QF_LIA)(declare-const x Int)(assert (> x 0))(check-sat)")
            .unwrap();
        assert_eq!(s.commands.len(), 4);
        assert_eq!(s.assertions().count(), 1);
    }

    #[test]
    fn declare_fun_zero_arity_becomes_const() {
        let s = parse_script("(declare-fun s () (Seq Int))").unwrap();
        assert_eq!(
            s.commands[0],
            Command::DeclareConst(Symbol::new("s"), Sort::seq(Sort::Int))
        );
    }

    #[test]
    fn parse_quantifier_with_seq_ops() {
        // The paper's Figure 1 formula.
        let text = "(declare-fun s () (Seq Int))\n\
                    (assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) \
                    (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))\n\
                    (check-sat)";
        let s = parse_script(text).unwrap();
        let a = s.assertions().next().unwrap();
        assert!(a.has_quantifier());
        assert!(a.ops().contains(&Op::SeqRev));
        assert!(a.ops().contains(&Op::SeqNth));
    }

    #[test]
    fn parse_indexed_ops() {
        let t = parse_term("((_ extract 7 3) #xff)").unwrap();
        assert!(matches!(t, Term::App(Op::Extract(7, 3), _)));
        let d = parse_term("((_ divisible 3) (mod x 3))").unwrap();
        assert!(matches!(d, Term::App(Op::Divisible(3), _)));
    }

    #[test]
    fn parse_bv_literal_underscore_form() {
        let t = parse_term("(_ bv5 8)").unwrap();
        assert_eq!(t, Term::Const(Value::BitVec(BitVecValue::new(8, 5))));
    }

    #[test]
    fn parse_qualified_empties() {
        assert_eq!(
            parse_term("(as seq.empty (Seq Int))").unwrap(),
            Term::Const(Value::Seq(Sort::Int, vec![]))
        );
        assert!(parse_term("(as set.empty (Set Bool))").is_ok());
        assert!(parse_term("(as bag.empty (Bag Int))").is_ok());
        assert!(parse_term("(as seq.empty (Set Int))").is_err());
    }

    #[test]
    fn parse_finite_field_literals() {
        let t = parse_term("(as ff-1 (_ FiniteField 3))").unwrap();
        assert_eq!(
            t,
            Term::Const(Value::FiniteField(FiniteFieldValue::new(3, -1)))
        );
        let p = parse_term("(as ff5 (_ FiniteField 7))").unwrap();
        assert_eq!(
            p,
            Term::Const(Value::FiniteField(FiniteFieldValue::new(7, 5)))
        );
    }

    #[test]
    fn parse_negative_literal_folding() {
        assert_eq!(parse_term("(- 5)").unwrap(), Term::int(-5));
        assert_eq!(
            parse_term("(- 1.5)").unwrap(),
            Term::Const(Value::Real(Rational::new(-3, 2).unwrap()))
        );
        assert_eq!(
            parse_term("(/ 1 3)").unwrap(),
            Term::Const(Value::Real(Rational::new(1, 3).unwrap()))
        );
        // Division by zero literal must remain an application.
        assert!(matches!(
            parse_term("(/ 1 0)").unwrap(),
            Term::App(Op::RealDiv, _)
        ));
        // Binary minus stays an application.
        assert!(matches!(
            parse_term("(- x 5)").unwrap(),
            Term::App(Op::Sub, _)
        ));
    }

    #[test]
    fn parse_let_and_annotations() {
        let t = parse_term("(let ((a (+ 1 2))) (! (= a 3) :named goal))").unwrap();
        match t {
            Term::Let(binds, body) => {
                assert_eq!(binds.len(), 1);
                assert!(matches!(*body, Term::App(Op::Eq, _)));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parse_const_array() {
        let t = parse_term("((as const (Array Int Bool)) false)").unwrap();
        match t {
            Term::App(Op::ConstArray(s), args) => {
                assert_eq!(s, Sort::array(Sort::Int, Sort::Bool));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected const array, got {other:?}"),
        }
    }

    #[test]
    fn parse_relation_sort_sugar() {
        let s = parse_sort("(Relation Int Bool)").unwrap();
        assert_eq!(s, Sort::set(Sort::Tuple(vec![Sort::Int, Sort::Bool])));
    }

    #[test]
    fn parse_set_option() {
        let s = parse_script("(set-option :model_validate true)").unwrap();
        assert_eq!(
            s.commands[0],
            Command::SetOption("model_validate".into(), "true".into())
        );
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse_script("(frobnicate)").is_err());
    }

    #[test]
    fn unknown_uf_application_parses() {
        let t = parse_term("(f x 1)").unwrap();
        assert!(matches!(t, Term::App(Op::Uf(_), _)));
    }

    #[test]
    fn error_on_unbalanced_parens() {
        assert!(parse_script("(assert (= 1 1)").is_err());
        assert!(parse_term("(and true false))").is_err());
    }

    #[test]
    fn round_trip_examples() {
        for text in [
            "(and p (not q))",
            "(exists ((f Int)) (= 2 f))",
            "(or ((_ divisible 3) (mod T 3)) (= str0 \"\"))",
            "(seq.++ (seq.unit 1) (as seq.empty (Seq Int)))",
            "(set.insert 1 (set.singleton 2))",
            "(bag.union_disjoint (bag 1 2) (as bag.empty (Bag Int)))",
            "(ff.bitsum (ff.mul v v) (as ff-1 (_ FiniteField 3)))",
            "((_ tuple.select 0) (tuple 1 true))",
            "(forall ((r Real)) (or x9 (= (+ r 1.0) (mod 0 (to_int x)))))",
        ] {
            let t = parse_term(text).unwrap();
            let printed = t.to_string();
            let again = parse_term(&printed).unwrap();
            assert_eq!(t, again, "round trip failed for {text}");
        }
    }

    #[test]
    fn arena_parse_matches_boxed() {
        let text = "(set-logic QF_LIA)(declare-const x Int)\
                    (assert (let ((a (+ x 1))) (or (= a 2) (exists ((b Bool)) b))))\
                    (check-sat)";
        let boxed = parse_script(text).unwrap();
        let mut arena = TermArena::new();
        let script = parse_script_arena(text, &mut arena).unwrap();
        assert_eq!(script.to_script(&arena), boxed);
        let mut buf = String::new();
        script.print_into(&arena, &mut buf);
        assert_eq!(buf, boxed.to_string());
    }
}

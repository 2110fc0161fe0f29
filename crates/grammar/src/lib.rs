//! # o4a-grammar
//!
//! Context-free grammars for SMT term generation: a BNF parser for the
//! grammar texts the (simulated) LLM emits, and a weighted random derivation
//! engine with depth budgets.
//!
//! The Once4All pipeline stores each theory's grammar as BNF text (the
//! artifact the LLM "summarizes" from documentation, Figure 3a of the
//! paper) and compiles it with [`Grammar::parse_bnf`]. A [`Grammar`] keeps
//! its rules twice: as editable [`Production`]s, and as an index compiled
//! for derivation, in which rules are numbered, terminals interned, `(` and
//! `)` are their own items, hook leaves are numbered, and every rule carries
//! its weight total and its least-branching productions. Every method that
//! edits the rules recompiles the index before it returns, so a grammar is
//! compiled once per revision and a derivation never looks a name up or
//! clones a token: [`Deriver`] writes its tokens straight into one output
//! `String`.
//!
//! Data-generating leaves (`<int-const>`, `<declare-int-var>`, ...) are
//! *hook* nonterminals, referenced but never defined. The caller's
//! [`HookTable`] resolves each hook name once per derivation and writes the
//! leaf text into the output, which is how generated terms acquire fresh
//! constants and declared variables.
//!
//! ```
//! use o4a_grammar::{Deriver, Grammar, HookTable};
//! use rand::{Rng, SeedableRng};
//!
//! /// Expands `<digit>` leaves.
//! struct Digits;
//!
//! impl HookTable for Digits {
//!     type Id = ();
//!
//!     fn resolve(&self, name: &str) -> Option<()> {
//!         (name == "digit").then_some(())
//!     }
//!
//!     fn write<R: Rng + ?Sized>(&mut self, _id: (), rng: &mut R, out: &mut String) {
//!         out.push(char::from(b'0' + (rng.next_u32() % 10) as u8));
//!     }
//! }
//!
//! let g = Grammar::parse_bnf(
//!     "<BoolTerm> ::= true | (not <BoolTerm>) | (and <BoolTerm> <BoolTerm>) \
//!      | (= <digit> <digit>)",
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let out = Deriver::new(&g).max_depth(6).derive(&mut rng, &mut Digits)?;
//! assert!(out.starts_with('(') || out == "true");
//! # Ok::<(), o4a_grammar::GrammarError>(())
//! ```

#![warn(missing_docs)]

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

/// An element of a production's right-hand side.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Item {
    /// Literal token emitted verbatim.
    Terminal(String),
    /// Reference to another rule (or a hook when no rule defines it).
    NonTerminal(String),
}

/// One alternative of a rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Production {
    /// Relative selection weight (default 1).
    pub weight: u32,
    /// Right-hand-side items in order.
    pub items: Vec<Item>,
}

impl Production {
    /// Number of nonterminal references (used to pick terminating
    /// productions when the depth budget runs out).
    pub fn branching(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::NonTerminal(_)))
            .count()
    }
}

/// Errors from grammar parsing or derivation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// The BNF text had no rules.
    Empty,
    /// A rule line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// Derivation referenced a nonterminal with no rule and no hook.
    UndefinedNonTerminal(String),
    /// Derivation exceeded the step limit (left-recursive grammar and no
    /// terminating production).
    StepLimit,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Empty => f.write_str("grammar has no rules"),
            GrammarError::Malformed { line, reason } => {
                write!(f, "malformed grammar at line {line}: {reason}")
            }
            GrammarError::UndefinedNonTerminal(n) => {
                write!(f, "undefined nonterminal <{n}> (no rule and no hook)")
            }
            GrammarError::StepLimit => f.write_str("derivation step limit exceeded"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// A context-free grammar: its rules, and the index compiled from them for
/// [`Deriver`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grammar {
    start: String,
    rules: BTreeMap<String, Vec<Production>>,
    index: Index,
}

impl Grammar {
    /// Parses BNF text of the form the LLM phase produces:
    ///
    /// ```text
    /// (* === Boolean terms over the Int theory === *)
    /// <BoolTerm> ::= <BoolAtom>
    ///             |  (not <BoolTerm>)
    ///             |  (and <BoolTerm> <BoolTerm>)
    /// <BoolAtom> ::= (= <IntTerm> <IntTerm>)
    /// <IntTerm>  ::= <int-const> | <int-var> | (+ <IntTerm> <IntTerm>)
    /// ```
    ///
    /// `(* ... *)` comments and blank lines are skipped; continuation lines
    /// starting with `|` extend the previous rule. The first rule is the
    /// start symbol. Nonterminals with no rule are *hooks* resolved at
    /// derivation time.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::Empty`] or [`GrammarError::Malformed`].
    pub fn parse_bnf(text: &str) -> Result<Grammar, GrammarError> {
        let mut rules: BTreeMap<String, Vec<Production>> = BTreeMap::new();
        let mut start: Option<String> = None;
        let mut current: Option<String> = None;
        let mut in_comment = false;

        for (lineno, raw) in text.lines().enumerate() {
            let mut line = raw.trim().to_string();
            if in_comment {
                if let Some(end) = line.find("*)") {
                    line = line[end + 2..].trim().to_string();
                    in_comment = false;
                } else {
                    continue;
                }
            }
            // `(*` opens a comment unless it is SMT multiplication, i.e.
            // immediately applied to a nonterminal (`(* <IntTerm> ...`).
            let mut search_from = 0usize;
            while let Some(rel) = line[search_from..].find("(*") {
                let beg = search_from + rel;
                let after = line[beg + 2..].trim_start();
                if after.starts_with('<') {
                    search_from = beg + 2;
                    continue;
                }
                if let Some(end) = line[beg..].find("*)") {
                    line.replace_range(beg..beg + end + 2, " ");
                    search_from = beg;
                } else {
                    line.truncate(beg);
                    in_comment = true;
                    break;
                }
            }
            let line = line.trim();
            if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
                continue;
            }
            let (head, body) = if let Some(idx) = line.find("::=") {
                let head = line[..idx].trim();
                let name = parse_nonterminal_name(head).ok_or_else(|| GrammarError::Malformed {
                    line: lineno + 1,
                    reason: format!("rule head '{head}' is not <Name>"),
                })?;
                (Some(name), line[idx + 3..].trim())
            } else if let Some(rest) = line.strip_prefix('|') {
                (None, rest.trim())
            } else {
                return Err(GrammarError::Malformed {
                    line: lineno + 1,
                    reason: "expected '<Name> ::= ...' or '| ...'".into(),
                });
            };

            if let Some(name) = head {
                if start.is_none() {
                    start = Some(name.clone());
                }
                rules.entry(name.clone()).or_default();
                current = Some(name);
            }
            let target = current.clone().ok_or_else(|| GrammarError::Malformed {
                line: lineno + 1,
                reason: "continuation with no preceding rule".into(),
            })?;
            for alt in split_alternatives(body) {
                let alt = alt.trim();
                if alt.is_empty() {
                    continue;
                }
                let production =
                    parse_production(alt).map_err(|reason| GrammarError::Malformed {
                        line: lineno + 1,
                        reason,
                    })?;
                rules
                    .get_mut(&target)
                    .expect("rule entry created above")
                    .push(production);
            }
        }

        let start = start.ok_or(GrammarError::Empty)?;
        if rules.values().all(|ps| ps.is_empty()) {
            return Err(GrammarError::Empty);
        }
        let index = Index::compile(&start, &rules);
        Ok(Grammar {
            start,
            rules,
            index,
        })
    }

    /// The start symbol.
    pub fn start(&self) -> &str {
        &self.start
    }

    /// The productions of a nonterminal, if defined.
    pub fn productions(&self, name: &str) -> Option<&[Production]> {
        self.rules.get(name).map(|v| v.as_slice())
    }

    /// All defined nonterminal names.
    pub fn nonterminals(&self) -> impl Iterator<Item = &str> {
        self.rules.keys().map(String::as_str)
    }

    /// Nonterminals referenced but not defined — these must be supplied as
    /// hooks at derivation time. Useful for validating LLM output.
    pub fn undefined_references(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for ps in self.rules.values() {
            for p in ps {
                for item in &p.items {
                    if let Item::NonTerminal(n) = item {
                        if !self.rules.contains_key(n) {
                            out.insert(n.clone());
                        }
                    }
                }
            }
        }
        out
    }

    /// Total number of productions across all rules.
    pub fn production_count(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Removes all productions mentioning terminal `token` (used by
    /// self-correction to drop hallucinated operators). Returns how many
    /// productions were removed.
    pub fn remove_productions_with_terminal(&mut self, token: &str) -> usize {
        let mut removed = 0;
        for ps in self.rules.values_mut() {
            let before = ps.len();
            ps.retain(|p| {
                !p.items
                    .iter()
                    .any(|i| matches!(i, Item::Terminal(t) if t == token))
            });
            removed += before - ps.len();
        }
        if removed > 0 {
            self.recompile();
        }
        removed
    }

    /// Adds one production (given as BNF alternative text) to a rule,
    /// creating the rule when missing. Used by generator self-repair to
    /// re-add an operator with its documented signature.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::Malformed`] when the alternative text cannot
    /// be parsed.
    pub fn add_production(&mut self, rule: &str, alternative: &str) -> Result<(), GrammarError> {
        let production = parse_production(alternative)
            .map_err(|reason| GrammarError::Malformed { line: 0, reason })?;
        self.rules
            .entry(rule.to_string())
            .or_default()
            .push(production);
        self.recompile();
        Ok(())
    }

    fn recompile(&mut self) {
        self.index = Index::compile(&self.start, &self.rules);
    }

    /// Serializes back to BNF text (normal form; one rule per line).
    pub fn to_bnf(&self) -> String {
        let mut out = String::new();
        // Start rule first, then the rest alphabetically.
        let mut names: Vec<&String> = self.rules.keys().collect();
        names.sort_by_key(|n| (*n != &self.start, n.as_str()));
        for name in names {
            let ps = &self.rules[name];
            if ps.is_empty() {
                continue;
            }
            let alts: Vec<String> = ps.iter().map(render_production).collect();
            out.push_str(&format!("<{name}> ::= {}\n", alts.join(" | ")));
        }
        out
    }
}

fn parse_nonterminal_name(s: &str) -> Option<String> {
    let s = s.trim();
    if s.starts_with('<') && s.ends_with('>') && s.len() > 2 {
        Some(s[1..s.len() - 1].to_string())
    } else {
        None
    }
}

/// Splits alternatives on top-level `|` (none of our tokens contain `|`, so
/// a flat split is safe; `|quoted|` SMT symbols never appear in grammars).
fn split_alternatives(s: &str) -> Vec<&str> {
    s.split('|').collect()
}

fn parse_production(alt: &str) -> Result<Production, String> {
    let mut items = Vec::new();
    let mut chars = alt.chars().peekable();
    let mut buf = String::new();
    // Buffered text is always a terminal: nonterminals are recognized
    // eagerly in the `<` arm below and never reach the buffer.
    let flush = |buf: &mut String, items: &mut Vec<Item>| -> Result<(), String> {
        if !buf.is_empty() {
            items.push(Item::Terminal(std::mem::take(buf)));
        }
        Ok(())
    };
    while let Some(c) = chars.next() {
        match c {
            '(' | ')' => {
                flush(&mut buf, &mut items)?;
                items.push(Item::Terminal(c.to_string()));
            }
            '<' => {
                // `<` opens a nonterminal only when followed by a name and a
                // closing `>`; otherwise it is an SMT operator (`<`, `<=`).
                let mut name = String::new();
                while let Some(&nc) = chars.peek() {
                    if nc.is_ascii_alphanumeric() || nc == '-' || nc == '_' {
                        name.push(nc);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if !name.is_empty() && chars.peek() == Some(&'>') {
                    chars.next();
                    flush(&mut buf, &mut items)?;
                    items.push(Item::NonTerminal(name));
                } else {
                    buf.push('<');
                    buf.push_str(&name);
                }
            }
            ' ' | '\t' => flush(&mut buf, &mut items)?,
            other => buf.push(other),
        }
    }
    flush(&mut buf, &mut items)?;
    if items.is_empty() {
        return Err("empty production".into());
    }
    Ok(Production { weight: 1, items })
}

fn render_production(p: &Production) -> String {
    let tokens: Vec<String> = p
        .items
        .iter()
        .map(|i| match i {
            Item::Terminal(t) => t.clone(),
            Item::NonTerminal(n) => format!("<{n}>"),
        })
        .collect();
    join_tokens(&tokens)
}

/// Joins tokens with SMT-LIB-style spacing: no space after `(`, none before
/// `)`.
pub fn join_tokens(tokens: &[String]) -> String {
    let mut out = String::with_capacity(tokens.iter().map(|t| t.len() + 1).sum());
    for t in tokens {
        match t.as_str() {
            "(" => out.push('('),
            ")" => close_paren(&mut out),
            _ => {
                out.push_str(t);
                out.push(' ');
            }
        }
    }
    trim_trailing_whitespace(&mut out);
    out
}

/// Writes `)` over any whitespace the previous token left behind.
fn close_paren(out: &mut String) {
    trim_trailing_whitespace(out);
    out.push_str(") ");
}

fn trim_trailing_whitespace(out: &mut String) {
    let kept = out.trim_end().len();
    out.truncate(kept);
}

/// Caller-supplied resolvers for hook nonterminals (data-generating
/// leaves such as `<int-const>` or `<bv-var>`).
///
/// A derivation resolves each hook name of the grammar to an [`Id`] once,
/// when it starts, and then dispatches every leaf through
/// [`HookTable::write`]. A name the table does not resolve is an error
/// only if the derivation reaches it.
///
/// `()` is the empty table, for grammars without hooks.
///
/// [`Id`]: HookTable::Id
pub trait HookTable {
    /// Identifies one hook of the table.
    type Id: Copy;

    /// The hook that expands leaf `<name>`, if the table has one.
    fn resolve(&self, name: &str) -> Option<Self::Id>;

    /// Appends one expansion of hook `id` to `out`. The text is one token:
    /// the deriver adds the separator after it.
    fn write<R: Rng + ?Sized>(&mut self, id: Self::Id, rng: &mut R, out: &mut String);
}

impl HookTable for () {
    type Id = std::convert::Infallible;

    fn resolve(&self, _name: &str) -> Option<Self::Id> {
        None
    }

    fn write<R: Rng + ?Sized>(&mut self, id: Self::Id, _rng: &mut R, _out: &mut String) {
        match id {}
    }
}

/// Random derivation engine.
#[derive(Clone, Debug)]
pub struct Deriver<'g> {
    grammar: &'g Grammar,
    max_depth: usize,
    step_limit: usize,
}

impl<'g> Deriver<'g> {
    /// Creates a deriver with default depth 8 and step limit 10 000.
    pub fn new(grammar: &'g Grammar) -> Deriver<'g> {
        Deriver {
            grammar,
            max_depth: 8,
            step_limit: 10_000,
        }
    }

    /// Sets the maximum expansion depth; beyond it, the least-branching
    /// production is forced.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Sets the overall expansion step limit.
    pub fn step_limit(mut self, n: usize) -> Self {
        self.step_limit = n;
        self
    }

    /// Derives one string from the start symbol, written token by token
    /// into one buffer with [`join_tokens`] spacing.
    ///
    /// # Errors
    ///
    /// [`GrammarError::UndefinedNonTerminal`] when the derivation reaches a
    /// nonterminal that has neither a production nor a hook;
    /// [`GrammarError::StepLimit`] when the grammar cannot terminate within
    /// the step budget.
    pub fn derive<H: HookTable>(
        &self,
        rng: &mut impl Rng,
        hooks: &mut H,
    ) -> Result<String, GrammarError> {
        let index = &self.grammar.index;
        let hook_ids: Vec<Option<H::Id>> = index.hooks.iter().map(|n| hooks.resolve(n)).collect();
        let mut run = Run {
            index,
            max_depth: self.max_depth,
            step_limit: self.step_limit,
            steps: 0,
            hook_ids: &hook_ids,
            hooks,
            out: String::with_capacity(256),
        };
        run.step()?;
        run.expand(index.start, 0, rng)?;
        let mut out = run.out;
        trim_trailing_whitespace(&mut out);
        Ok(out)
    }
}

/// One derivation in progress.
struct Run<'a, H: HookTable> {
    index: &'a Index,
    max_depth: usize,
    step_limit: usize,
    steps: usize,
    hook_ids: &'a [Option<H::Id>],
    hooks: &'a mut H,
    out: String,
}

impl<H: HookTable> Run<'_, H> {
    /// Counts one nonterminal expansion against the step limit.
    fn step(&mut self) -> Result<(), GrammarError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(GrammarError::StepLimit);
        }
        Ok(())
    }

    fn expand<R: Rng + ?Sized>(
        &mut self,
        rule: u32,
        depth: usize,
        rng: &mut R,
    ) -> Result<(), GrammarError> {
        let index = self.index;
        let rule = &index.rules[rule as usize];
        if rule.productions.is_empty() {
            return Err(GrammarError::UndefinedNonTerminal(rule.name.clone()));
        }
        let production = if depth >= self.max_depth {
            // Force termination: pick among the least-branching productions.
            *index.least[rule.least.clone()]
                .choose(rng)
                .expect("a rule with productions has least-branching ones")
        } else {
            rule.pick_weighted(&index.productions, rng)
        };
        let production = &index.productions[production as usize];
        for &symbol in &index.symbols[production.symbols.clone()] {
            match symbol {
                Symbol::Open => self.out.push('('),
                Symbol::Close => close_paren(&mut self.out),
                Symbol::Terminal(t) => {
                    self.out.push_str(&index.terminals[t as usize]);
                    self.out.push(' ');
                }
                Symbol::Rule(r) => {
                    self.step()?;
                    self.expand(r, depth + 1, rng)?;
                }
                Symbol::Hook(h) => {
                    self.step()?;
                    let Some(id) = self.hook_ids[h as usize] else {
                        let name = index.hooks[h as usize].clone();
                        return Err(GrammarError::UndefinedNonTerminal(name));
                    };
                    self.hooks.write(id, rng, &mut self.out);
                    self.out.push(' ');
                }
            }
        }
        Ok(())
    }
}

/// One right-hand-side item of the compiled index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Symbol {
    /// `(`.
    Open,
    /// `)`.
    Close,
    /// An interned terminal.
    Terminal(u32),
    /// A rule, by index.
    Rule(u32),
    /// A hook leaf (a nonterminal with no rule), by index.
    Hook(u32),
}

/// A rule of the compiled index.
#[derive(Clone, PartialEq, Eq, Debug)]
struct CompiledRule {
    name: String,
    /// This rule's span of [`Index::productions`].
    productions: Range<usize>,
    /// Sum of the productions' weights.
    total_weight: u32,
    /// This rule's span of [`Index::least`]: its least-branching
    /// productions, in order.
    least: Range<usize>,
}

impl CompiledRule {
    fn pick_weighted<R: Rng + ?Sized>(
        &self,
        productions: &[CompiledProduction],
        rng: &mut R,
    ) -> u32 {
        let mut pick = rng.gen_range(0..self.total_weight);
        for p in self.productions.clone() {
            let w = productions[p].weight;
            if pick < w {
                return p as u32;
            }
            pick -= w;
        }
        (self.productions.end - 1) as u32
    }
}

/// A production of the compiled index.
#[derive(Clone, PartialEq, Eq, Debug)]
struct CompiledProduction {
    /// Selection weight, at least 1.
    weight: u32,
    /// This production's span of [`Index::symbols`].
    symbols: Range<usize>,
}

/// The grammar compiled for derivation: rules numbered, terminals and hook
/// names interned, and every lookup a derivation makes done up front.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Index {
    start: u32,
    rules: Vec<CompiledRule>,
    productions: Vec<CompiledProduction>,
    symbols: Vec<Symbol>,
    /// Least-branching production ids, one span per rule.
    least: Vec<u32>,
    terminals: Vec<String>,
    hooks: Vec<String>,
}

impl Index {
    fn compile(start: &str, rules: &BTreeMap<String, Vec<Production>>) -> Index {
        let rule_ids: BTreeMap<&str, u32> = rules
            .keys()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i as u32))
            .collect();
        let mut index = Index {
            start: rule_ids[start],
            ..Index::default()
        };
        let mut terminal_ids: BTreeMap<&str, u32> = BTreeMap::new();
        let mut hook_ids: BTreeMap<&str, u32> = BTreeMap::new();
        for (name, productions) in rules {
            let first = index.productions.len();
            for p in productions {
                let symbols_start = index.symbols.len();
                for item in &p.items {
                    let symbol = match item {
                        Item::Terminal(t) if t == "(" => Symbol::Open,
                        Item::Terminal(t) if t == ")" => Symbol::Close,
                        Item::Terminal(t) => {
                            Symbol::Terminal(intern(t, &mut terminal_ids, &mut index.terminals))
                        }
                        Item::NonTerminal(n) => match rule_ids.get(n.as_str()) {
                            Some(&r) => Symbol::Rule(r),
                            None => Symbol::Hook(intern(n, &mut hook_ids, &mut index.hooks)),
                        },
                    };
                    index.symbols.push(symbol);
                }
                index.productions.push(CompiledProduction {
                    weight: p.weight.max(1),
                    symbols: symbols_start..index.symbols.len(),
                });
            }
            let least_start = index.least.len();
            if let Some(min) = productions.iter().map(Production::branching).min() {
                index.least.extend(
                    (first..)
                        .zip(productions)
                        .filter(|(_, p)| p.branching() == min)
                        .map(|(id, _)| id as u32),
                );
            }
            index.rules.push(CompiledRule {
                name: name.clone(),
                productions: first..index.productions.len(),
                total_weight: index.productions[first..].iter().map(|p| p.weight).sum(),
                least: least_start..index.least.len(),
            });
        }
        index
    }
}

/// The id of `text` in `table`, adding it on first sight.
fn intern<'t>(text: &'t str, ids: &mut BTreeMap<&'t str, u32>, table: &mut Vec<String>) -> u32 {
    *ids.entry(text).or_insert_with(|| {
        table.push(text.to_string());
        (table.len() - 1) as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BOOL_BNF: &str = "\
(* === Boolean terms === *)
<BoolTerm> ::= true | false
            |  (not <BoolTerm>)
            |  (and <BoolTerm> <BoolTerm>)
            |  (or <BoolTerm> <BoolTerm>)";

    #[test]
    fn parse_basic_grammar() {
        let g = Grammar::parse_bnf(BOOL_BNF).unwrap();
        assert_eq!(g.start(), "BoolTerm");
        assert_eq!(g.production_count(), 5);
        assert!(g.undefined_references().is_empty());
    }

    #[test]
    fn parse_multi_rule_grammar_with_hooks() {
        let g = Grammar::parse_bnf(
            "<BoolTerm> ::= (= <IntTerm> <IntTerm>)\n\
             <IntTerm> ::= <int-const> | (+ <IntTerm> <IntTerm>)",
        )
        .unwrap();
        let undef = g.undefined_references();
        assert_eq!(undef.len(), 1);
        assert!(undef.contains("int-const"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = Grammar::parse_bnf(
            "(* header\nspanning lines *)\n\n; a comment\n<S> ::= x (* inline *) | y\n",
        )
        .unwrap();
        assert_eq!(g.production_count(), 2);
    }

    #[test]
    fn malformed_rules_rejected() {
        assert!(matches!(
            Grammar::parse_bnf("S ::= x"),
            Err(GrammarError::Malformed { .. })
        ));
        assert!(matches!(
            Grammar::parse_bnf("| x"),
            Err(GrammarError::Malformed { .. })
        ));
        assert!(matches!(Grammar::parse_bnf(""), Err(GrammarError::Empty)));
    }

    #[test]
    fn derivation_terminates_and_is_deterministic() {
        let g = Grammar::parse_bnf(BOOL_BNF).unwrap();
        let d = Deriver::new(&g).max_depth(5);
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = d.derive(&mut r1, &mut ()).unwrap();
        let b = d.derive(&mut r2, &mut ()).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn derivation_produces_balanced_output() {
        let g = Grammar::parse_bnf(BOOL_BNF).unwrap();
        let d = Deriver::new(&g).max_depth(6);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let text = d.derive(&mut rng, &mut ()).unwrap();
            assert!(balanced(&text), "derived text not balanced: {text}");
        }
    }

    fn balanced(s: &str) -> bool {
        let mut depth = 0i32;
        for c in s.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0 && !s.trim().is_empty()
    }

    /// Expands `<c>` to a running count.
    struct Counter(u32);

    impl HookTable for Counter {
        type Id = ();

        fn resolve(&self, name: &str) -> Option<()> {
            (name == "c").then_some(())
        }

        fn write<R: Rng + ?Sized>(&mut self, _id: (), _rng: &mut R, out: &mut String) {
            self.0 += 1;
            out.push_str(&self.0.to_string());
        }
    }

    #[test]
    fn hooks_resolve_leaves() {
        let g = Grammar::parse_bnf("<S> ::= (= <c> <c>)").unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let out = Deriver::new(&g).derive(&mut rng, &mut Counter(0)).unwrap();
        assert_eq!(out, "(= 1 2)");
    }

    #[test]
    fn derivation_starts_at_the_first_rule() {
        // Rules are numbered alphabetically; the start is still the first
        // rule of the text.
        let g = Grammar::parse_bnf("<B> ::= b <A>\n<A> ::= a").unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Deriver::new(&g).derive(&mut rng, &mut ()).unwrap(), "b a");
    }

    #[test]
    fn edits_recompile_the_index() {
        let mut g = Grammar::parse_bnf("<S> ::= (f <leaf>)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let undefined = Err(GrammarError::UndefinedNonTerminal("leaf".into()));
        assert_eq!(Deriver::new(&g).derive(&mut rng, &mut ()), undefined);
        // Defining the hook name turns the leaf into a rule.
        g.add_production("leaf", "x").unwrap();
        assert_eq!(Deriver::new(&g).derive(&mut rng, &mut ()).unwrap(), "(f x)");
        // Removing its only production leaves an empty rule, not a hook.
        assert_eq!(g.remove_productions_with_terminal("x"), 1);
        assert_eq!(Deriver::new(&g).derive(&mut rng, &mut ()), undefined);
    }

    #[test]
    fn undefined_nonterminal_without_hook_errors() {
        let g = Grammar::parse_bnf("<S> ::= <missing>").unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = Deriver::new(&g).derive(&mut rng, &mut ()).unwrap_err();
        assert_eq!(err, GrammarError::UndefinedNonTerminal("missing".into()));
    }

    #[test]
    fn depth_budget_forces_termination() {
        // Recursive grammar that only terminates via the depth cap.
        let g = Grammar::parse_bnf("<S> ::= (f <S>) | leaf").unwrap();
        let d = Deriver::new(&g).max_depth(3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = d.derive(&mut rng, &mut ()).unwrap();
            assert!(s.matches("(f").count() <= 4);
        }
    }

    #[test]
    fn step_limit_catches_nonterminating() {
        let g = Grammar::parse_bnf("<S> ::= (f <S> <S>)").unwrap();
        let d = Deriver::new(&g).max_depth(100).step_limit(50);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.derive(&mut rng, &mut ()), Err(GrammarError::StepLimit));
    }

    #[test]
    fn remove_hallucinated_operator() {
        let mut g = Grammar::parse_bnf("<S> ::= (bvadd <S> <S>) | (bvfrob <S>) | leaf").unwrap();
        assert_eq!(g.remove_productions_with_terminal("bvfrob"), 1);
        assert_eq!(g.production_count(), 2);
        assert_eq!(g.remove_productions_with_terminal("bvfrob"), 0);
    }

    #[test]
    fn bnf_round_trip() {
        let g = Grammar::parse_bnf(BOOL_BNF).unwrap();
        let text = g.to_bnf();
        let g2 = Grammar::parse_bnf(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn join_tokens_spacing() {
        let toks: Vec<String> = ["(", "and", "(", "not", "x", ")", "y", ")"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(join_tokens(&toks), "(and (not x) y)");
    }
}

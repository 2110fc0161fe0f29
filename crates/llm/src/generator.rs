//! Synthesized term generators: the runnable artifact the LLM produces.
//!
//! A [`GeneratorProgram`] is the stand-in for the Python generator module
//! GPT-4 writes in the paper: it owns the theory grammar, a set of residual
//! [`Flaw`]s (the mistakes self-correction exists to repair), and a
//! `generate` entry point returning declarations plus one Boolean term —
//! the paper's `generate_<THEORY>_formula_with_decls()` contract. The
//! contract stays SMT-LIB text ([`RawTerm`]).
//!
//! The grammar is compiled once per revision (see `o4a_grammar`), so a
//! sample costs one derivation over indexed rules. The data leaves
//! (`<int-const>`, `<bv-var>`, ...) dispatch through a fixed [`HookTable`]
//! of `Leaf` kinds, which writes constants and variable names straight
//! into the derivation's output and records the declarations.

use crate::sig::SortToken;
use o4a_grammar::{Deriver, Grammar, GrammarError, HookTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write;

use o4a_smtlib::Theory;

/// A residual defect in a synthesized generator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Flaw {
    /// Bit-vector variables/constants of inconsistent widths (the classic
    /// "CFG cannot express equal-width side conditions" failure).
    MixedBvWidths,
    /// Finite-field operands from different fields.
    MixedFfModuli,
    /// Finite-field literals emitted without `(as ...)` annotation.
    BareFfLiterals,
    /// Some generated variables are not declared.
    MissingDeclarations,
    /// String literals emitted without quotes.
    UnquotedStrings,
}

impl fmt::Display for Flaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flaw::MixedBvWidths => "mixed bit-vector widths",
            Flaw::MixedFfModuli => "mixed finite-field moduli",
            Flaw::BareFfLiterals => "unannotated finite-field literals",
            Flaw::MissingDeclarations => "missing variable declarations",
            Flaw::UnquotedStrings => "unquoted string literals",
        };
        f.write_str(s)
    }
}

/// One generated sample: declarations plus a Boolean term, both as SMT-LIB
/// text (the generator contract from the paper's Figure 3b).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawTerm {
    /// `(declare-const name sort)` lines.
    pub decls: Vec<String>,
    /// The Boolean term.
    pub term: String,
}

impl RawTerm {
    /// Assembles a standalone script: declarations, one assertion,
    /// `(check-sat)`.
    pub fn to_script_text(&self) -> String {
        let cap = self.decls.iter().map(|d| d.len() + 1).sum::<usize>()
            + self.term.len()
            + "(assert )\n(check-sat)".len();
        let mut out = String::with_capacity(cap);
        for d in &self.decls {
            out.push_str(d);
            out.push('\n');
        }
        out.push_str("(assert ");
        out.push_str(&self.term);
        out.push_str(")\n(check-sat)");
        out
    }
}

/// A synthesized, possibly flawed, term generator for one theory.
#[derive(Clone, Debug)]
pub struct GeneratorProgram {
    /// The theory this generator covers.
    pub theory: Theory,
    /// The compiled grammar (parsed from the LLM's BNF).
    pub grammar: Grammar,
    /// Residual implementation flaws.
    pub flaws: BTreeSet<Flaw>,
    /// Revision counter, bumped by each refinement.
    pub revision: u32,
    /// Maximum derivation depth.
    pub max_depth: usize,
}

impl GeneratorProgram {
    /// Creates a generator from a grammar and initial flaw set.
    pub fn new(theory: Theory, grammar: Grammar, flaws: BTreeSet<Flaw>) -> GeneratorProgram {
        GeneratorProgram {
            theory,
            grammar,
            flaws,
            revision: 0,
            max_depth: 6,
        }
    }

    /// True when the generator still carries `flaw`.
    pub fn has_flaw(&self, flaw: Flaw) -> bool {
        self.flaws.contains(&flaw)
    }

    /// Removes a flaw (a successful refinement round).
    pub fn fix_flaw(&mut self, flaw: Flaw) -> bool {
        let removed = self.flaws.remove(&flaw);
        if removed {
            self.revision += 1;
        }
        removed
    }

    /// Removes every grammar production mentioning `op` (how the LLM
    /// repairs hallucinated or wrong-arity operators). Returns the number
    /// of productions dropped.
    pub fn drop_operator(&mut self, op: &str) -> usize {
        let n = self.grammar.remove_productions_with_terminal(op);
        if n > 0 {
            self.revision += 1;
        }
        n
    }

    /// Generates one sample.
    ///
    /// # Errors
    ///
    /// Propagates [`GrammarError`] when the grammar references an unknown
    /// leaf or cannot terminate — both are "the generator script crashed"
    /// events the construction loop must handle.
    pub fn generate(&self, rng: &mut StdRng) -> Result<RawTerm, GrammarError> {
        let mut state = GenState {
            program: self,
            vars: Vec::with_capacity(8),
            salt: rng.gen(),
        };
        let term = Deriver::new(&self.grammar)
            .max_depth(self.max_depth)
            .derive(rng, &mut state)?;
        Ok(RawTerm {
            decls: state.decl_lines(),
            term,
        })
    }

    /// A pseudo-code listing of the generator, in the style of the Python
    /// module the paper's LLM emits (for docs, examples, and debugging).
    pub fn listing(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# generator for the {} theory (revision {})\n",
            self.theory, self.revision
        ));
        out.push_str(&format!(
            "def generate_{}_formula_with_decls():\n",
            self.theory.name().replace('-', "_")
        ));
        out.push_str("    # derive a Boolean term from the summarized CFG\n");
        for line in self.grammar.to_bnf().lines() {
            out.push_str(&format!("    #   {line}\n"));
        }
        if self.flaws.is_empty() {
            out.push_str("    # (no known defects)\n");
        }
        for flaw in &self.flaws {
            out.push_str(&format!("    # FIXME: {flaw}\n"));
        }
        out.push_str("    return declarations, term\n");
        out
    }
}

/// The leaf hooks every generator understands, by kind.
#[derive(Clone, Copy, Debug)]
enum Leaf {
    IntConst,
    RealConst,
    StrConst,
    BvConst,
    BvVar,
    FfConst,
    FfVar,
    /// A variable of a fixed sort: name prefix and sort text.
    Var(&'static str, &'static str),
}

impl Leaf {
    fn from_name(name: &str) -> Option<Leaf> {
        Some(match name {
            "int-const" => Leaf::IntConst,
            "int-var" => Leaf::Var("i", "Int"),
            "real-const" => Leaf::RealConst,
            "real-var" => Leaf::Var("r", "Real"),
            "bool-var" => Leaf::Var("p", "Bool"),
            "str-const" => Leaf::StrConst,
            "str-var" => Leaf::Var("s", "String"),
            "bv-const" => Leaf::BvConst,
            "bv-var" => Leaf::BvVar,
            "ff-const" => Leaf::FfConst,
            "ff-var" => Leaf::FfVar,
            "seq-var" => Leaf::Var("sq", "(Seq Int)"),
            "set-var" => Leaf::Var("st", "(Set Int)"),
            "bag-var" => Leaf::Var("bg", "(Bag Int)"),
            "rel-var" => Leaf::Var("rl", "(Relation Int Int)"),
            "arr-var" => Leaf::Var("ar", "(Array Int Int)"),
            _ => return None,
        })
    }
}

/// Bit-vector widths with their sort texts; a sample uses `BV_WIDTHS[1]`
/// unless the generator mixes widths.
const BV_WIDTHS: [(u32, &str); 3] = [
    (4, "(_ BitVec 4)"),
    (8, "(_ BitVec 8)"),
    (16, "(_ BitVec 16)"),
];

/// Finite-field moduli with their sort texts; a sample uses `FIELDS[0]`
/// unless the generator mixes fields.
const FIELDS: [(u64, &str); 3] = [
    (3, "(_ FiniteField 3)"),
    (5, "(_ FiniteField 5)"),
    (7, "(_ FiniteField 7)"),
];

/// A created variable. Its name is its prefix followed by its position in
/// [`GenState::vars`].
struct Var {
    prefix: &'static str,
    sort: &'static str,
    declared: bool,
}

/// Per-sample generation state: the variable pool and declaration
/// recording, and the hook table the deriver writes leaves through.
struct GenState<'p> {
    program: &'p GeneratorProgram,
    vars: Vec<Var>,
    /// Extra seed that decorrelates flaw manifestation from derivation.
    salt: u64,
}

impl GenState<'_> {
    fn decl_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.vars.iter().filter(|v| v.declared).count());
        for (i, v) in self.vars.iter().enumerate().filter(|(_, v)| v.declared) {
            // `(declare-const ` and `)` plus an index of up to seven digits.
            let mut line = String::with_capacity(24 + v.prefix.len() + v.sort.len());
            let _ = write!(line, "(declare-const {}{i} {})", v.prefix, v.sort);
            lines.push(line);
        }
        lines
    }

    /// Writes a variable of the given sort: an existing one half the time,
    /// else a new one. Respects the `MissingDeclarations` flaw.
    fn var<R: Rng + ?Sized>(
        &mut self,
        prefix: &'static str,
        sort: &'static str,
        rng: &mut R,
        out: &mut String,
    ) {
        // Each sort has one prefix, so this matches exactly the variables
        // whose name starts with `prefix` and whose sort is `sort`.
        let same = |v: &Var| v.prefix == prefix && v.sort == sort;
        let existing = self.vars.iter().filter(|v| same(v)).count();
        let index = if existing > 0 && rng.next_u32().is_multiple_of(2) {
            let pick = rng.next_u32() as usize % existing;
            let mut matching = self.vars.iter().enumerate().filter(|(_, v)| same(v));
            matching.nth(pick).expect("pick < existing").0
        } else {
            let declared = if self.program.has_flaw(Flaw::MissingDeclarations) {
                rng.next_u32() % 10 >= 4 // 40% of new vars go undeclared
            } else {
                true
            };
            self.vars.push(Var {
                prefix,
                sort,
                declared,
            });
            self.vars.len() - 1
        };
        out.push_str(prefix);
        let _ = write!(out, "{index}");
    }

    fn pick_bv_width<R: Rng + ?Sized>(&self, rng: &mut R) -> (u32, &'static str) {
        if self.program.has_flaw(Flaw::MixedBvWidths) {
            BV_WIDTHS[(rng.next_u32() ^ self.salt as u32) as usize % 3]
        } else {
            BV_WIDTHS[1]
        }
    }

    fn pick_field<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, &'static str) {
        if self.program.has_flaw(Flaw::MixedFfModuli) {
            FIELDS[(rng.next_u32() ^ (self.salt >> 32) as u32) as usize % 3]
        } else {
            FIELDS[0]
        }
    }
}

impl HookTable for GenState<'_> {
    type Id = Leaf;

    fn resolve(&self, name: &str) -> Option<Leaf> {
        Leaf::from_name(name)
    }

    fn write<R: Rng + ?Sized>(&mut self, leaf: Leaf, rng: &mut R, out: &mut String) {
        let p = self.program;
        match leaf {
            Leaf::IntConst => {
                let v = (rng.next_u32() % 17) as i64 - 8;
                let _ = if v < 0 {
                    write!(out, "(- {})", -v)
                } else {
                    write!(out, "{v}")
                };
            }
            Leaf::RealConst => {
                let whole = rng.next_u32() % 5;
                let frac = rng.next_u32() % 10;
                let _ = write!(out, "{whole}.{frac}");
            }
            Leaf::StrConst => {
                let n = rng.next_u32() % 3;
                let mut body = [0u8; 2];
                for b in &mut body[..n as usize] {
                    *b = b'a' + (rng.next_u32() % 3) as u8;
                }
                let body = std::str::from_utf8(&body[..n as usize]).expect("ASCII");
                if p.has_flaw(Flaw::UnquotedStrings) && rng.next_u32() % 10 < 5 && n > 0 {
                    out.push_str(body);
                } else {
                    out.push('"');
                    out.push_str(body);
                    out.push('"');
                }
            }
            Leaf::BvConst => {
                let (w, _) = self.pick_bv_width(rng);
                let v = rng.next_u64() & ((1u64 << w) - 1);
                let _ = write!(out, "(_ bv{v} {w})");
            }
            Leaf::BvVar => {
                let (_, sort) = self.pick_bv_width(rng);
                self.var("bv", sort, rng, out);
            }
            Leaf::FfConst => {
                let (m, sort) = self.pick_field(rng);
                let k = (rng.next_u32() % (2 * m as u32 + 1)) as i64 - m as i64;
                let _ = if p.has_flaw(Flaw::BareFfLiterals) && rng.next_u32() % 10 < 7 {
                    write!(out, "ff{k}")
                } else {
                    write!(out, "(as ff{k} {sort})")
                };
            }
            Leaf::FfVar => {
                let (_, sort) = self.pick_field(rng);
                self.var("ff", sort, rng, out);
            }
            Leaf::Var(prefix, sort) => self.var(prefix, sort, rng, out),
        }
    }
}

/// Convenience: a seeded RNG for generator sampling.
pub fn sample_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Maps a sort token to the leaf hook names it relies on (used when
/// building grammars and when validating hook coverage).
pub fn leaf_hooks_for(token: SortToken) -> &'static [&'static str] {
    match token {
        SortToken::Bool => &["bool-var"],
        SortToken::Int | SortToken::Elem => &["int-const", "int-var"],
        SortToken::Real => &["real-const", "real-var"],
        SortToken::Str => &["str-const", "str-var"],
        SortToken::Bv => &["bv-const", "bv-var"],
        SortToken::Ff => &["ff-const", "ff-var"],
        SortToken::Seq => &["seq-var"],
        SortToken::Set => &["set-var"],
        SortToken::Bag => &["bag-var"],
        SortToken::Rel => &["rel-var"],
        SortToken::Array => &["arr-var"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::parse_script;

    fn int_grammar() -> Grammar {
        Grammar::parse_bnf(
            "<BoolTerm> ::= <BoolAtom> | (not <BoolTerm>) | (and <BoolTerm> <BoolTerm>)\n\
             <BoolAtom> ::= (= <IntTerm> <IntTerm>) | (< <IntTerm> <IntTerm>)\n\
             <IntTerm> ::= <int-const> | <int-var> | (+ <IntTerm> <IntTerm>) | (mod <IntTerm> <IntTerm>)",
        )
        .unwrap()
    }

    #[test]
    fn clean_generator_produces_valid_scripts() {
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), BTreeSet::new());
        let mut rng = sample_rng(11);
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let parsed = parse_script(&script).unwrap_or_else(|e| panic!("{e}: {script}"));
            o4a_smtlib::typeck::check_script(&parsed).unwrap_or_else(|e| panic!("{e}: {script}"));
        }
    }

    #[test]
    fn missing_decl_flaw_breaks_some_scripts() {
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MissingDeclarations);
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), flaws);
        let mut rng = sample_rng(7);
        let mut bad = 0;
        for _ in 0..60 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let ok = parse_script(&script)
                .map_err(|e| e.to_string())
                .and_then(|s| o4a_smtlib::typeck::check_script(&s).map_err(|e| e.to_string()))
                .is_ok();
            if !ok {
                bad += 1;
            }
        }
        assert!(bad > 5, "flaw should break a visible fraction, broke {bad}");
    }

    #[test]
    fn bare_ff_literals_break_parsing_or_typing() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (= <FFTerm> <FFTerm>)\n\
             <FFTerm> ::= <ff-const> | <ff-var> | (ff.add <FFTerm> <FFTerm>)",
        )
        .unwrap();
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::BareFfLiterals);
        let g = GeneratorProgram::new(Theory::FiniteFields, grammar, flaws);
        let mut rng = sample_rng(3);
        let mut bad = 0;
        let mut total = 0;
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            total += 1;
            let script = raw.to_script_text();
            let ok = parse_script(&script)
                .map_err(|e| e.to_string())
                .and_then(|s| o4a_smtlib::typeck::check_script(&s).map_err(|e| e.to_string()))
                .is_ok();
            if !ok {
                bad += 1;
            }
        }
        assert!(
            bad * 2 > total,
            "bare literals should break most samples ({bad}/{total})"
        );
    }

    #[test]
    fn fixing_flaws_restores_validity() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (bvult <BVTerm> <BVTerm>)\n\
             <BVTerm> ::= <bv-const> | <bv-var> | (bvadd <BVTerm> <BVTerm>)",
        )
        .unwrap();
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MixedBvWidths);
        let mut g = GeneratorProgram::new(Theory::BitVectors, grammar, flaws);
        assert!(g.fix_flaw(Flaw::MixedBvWidths));
        assert!(!g.fix_flaw(Flaw::MixedBvWidths), "idempotent");
        let mut rng = sample_rng(5);
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let parsed = parse_script(&script).unwrap();
            o4a_smtlib::typeck::check_script(&parsed).unwrap_or_else(|e| panic!("{e}: {script}"));
        }
    }

    #[test]
    fn drop_operator_removes_productions() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (= <IntTerm> <IntTerm>)\n\
             <IntTerm> ::= <int-const> | (int.log <IntTerm>)",
        )
        .unwrap();
        let mut g = GeneratorProgram::new(Theory::Ints, grammar, BTreeSet::new());
        assert_eq!(g.drop_operator("int.log"), 1);
        assert_eq!(g.revision, 1);
    }

    #[test]
    fn every_leaf_hook_has_a_table_entry() {
        use SortToken::*;
        for token in [
            Bool, Int, Elem, Real, Str, Bv, Ff, Seq, Set, Bag, Rel, Array,
        ] {
            for name in leaf_hooks_for(token) {
                assert!(Leaf::from_name(name).is_some(), "<{name}> has no hook");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), BTreeSet::new());
        let a = g.generate(&mut sample_rng(99)).unwrap();
        let b = g.generate(&mut sample_rng(99)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn listing_mentions_flaws() {
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MixedBvWidths);
        let g = GeneratorProgram::new(Theory::BitVectors, int_grammar(), flaws);
        let listing = g.listing();
        assert!(listing.contains("FIXME"));
        assert!(listing.contains("bitvectors"));
    }
}

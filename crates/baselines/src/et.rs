//! ET (Winterer & Su, OOPSLA 2024): grammar-based enumeration from
//! expert-crafted generation rules. The hand-written grammar below covers
//! the *standard* theories carefully (that is exactly what expert effort
//! buys) but, by design, knows nothing about recently added or
//! solver-specific extensions — the paper's core criticism of
//! generation-based approaches.

use o4a_core::{Fuzzer, TestCase};
use o4a_grammar::{Deriver, Grammar, HookTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// The expert-crafted enumeration grammar (standard theories only).
const ET_GRAMMAR: &str = "\
<Formula> ::= <BoolTerm>
<BoolTerm> ::= <Atom>
 | (not <BoolTerm>)
 | (and <BoolTerm> <BoolTerm>)
 | (or <BoolTerm> <BoolTerm>)
 | (=> <BoolTerm> <BoolTerm>)
 | (xor <BoolTerm> <BoolTerm>)
 | (ite <BoolTerm> <BoolTerm> <BoolTerm>)
<Atom> ::= (= <IntTerm> <IntTerm>) | (< <IntTerm> <IntTerm>) | (<= <IntTerm> <IntTerm>)
 | (> <IntTerm> <IntTerm>) | (>= <IntTerm> <IntTerm>) | (distinct <IntTerm> <IntTerm>)
 | (= <RealTerm> <RealTerm>) | (< <RealTerm> <RealTerm>)
 | (= <StrTerm> <StrTerm>) | (str.contains <StrTerm> <StrTerm>)
 | (str.prefixof <StrTerm> <StrTerm>)
 | (= <BvTerm> <BvTerm>) | (bvult <BvTerm> <BvTerm>) | (bvslt <BvTerm> <BvTerm>)
 | ((_ divisible 3) <IntTerm>)
<IntTerm> ::= <ic> | <iv> | (+ <IntTerm> <IntTerm>) | (- <IntTerm> <IntTerm>)
 | (* <IntTerm> <IntTerm>) | (div <IntTerm> <IntTerm>) | (mod <IntTerm> <IntTerm>)
 | (abs <IntTerm>) | (str.len <StrTerm>) | (str.to_int <StrTerm>)
<RealTerm> ::= <rc> | <rv> | (+ <RealTerm> <RealTerm>) | (- <RealTerm> <RealTerm>)
 | (* <RealTerm> <RealTerm>) | (/ <RealTerm> <RealTerm>) | (to_real <IntTerm>)
<StrTerm> ::= <sc> | <sv> | (str.++ <StrTerm> <StrTerm>) | (str.at <StrTerm> <IntTerm>)
 | (str.substr <StrTerm> <IntTerm> <IntTerm>) | (str.replace <StrTerm> <StrTerm> <StrTerm>)
 | (str.from_int <IntTerm>)
<BvTerm> ::= <bc> | <bv> | (bvadd <BvTerm> <BvTerm>) | (bvsub <BvTerm> <BvTerm>)
 | (bvmul <BvTerm> <BvTerm>) | (bvand <BvTerm> <BvTerm>) | (bvor <BvTerm> <BvTerm>)
 | (bvnot <BvTerm>) | (bvneg <BvTerm>) | (bvshl <BvTerm> <BvTerm>)
";

/// The ET baseline.
pub struct Et {
    grammar: Grammar,
    /// Enumeration index: seeds the per-case RNG so the stream is a
    /// systematic walk rather than i.i.d. sampling.
    index: u64,
}

impl Et {
    /// Creates the fuzzer.
    ///
    /// # Panics
    ///
    /// Panics when the built-in grammar fails to parse (compile-time bug,
    /// covered by tests).
    pub fn new() -> Et {
        Et {
            grammar: Grammar::parse_bnf(ET_GRAMMAR).expect("built-in ET grammar parses"),
            index: 0,
        }
    }
}

impl Default for Et {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for Et {
    fn name(&self) -> String {
        "ET".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let _ = rng; // enumeration order is internal and systematic
        self.index += 1;
        // Depth grows slowly with the enumeration index (small formulas
        // first, as grammar enumeration does).
        let depth = 3 + (self.index / 500).min(5) as usize;
        let mut case_rng = StdRng::seed_from_u64(0xe7 ^ self.index);
        let mut leaves = EtLeaves::default();
        let term = Deriver::new(&self.grammar)
            .max_depth(depth)
            .derive(&mut case_rng, &mut leaves)
            .unwrap_or_else(|_| "true".to_string());
        let mut text = String::new();
        for (prefix, sort, k) in &leaves.declared {
            let _ = writeln!(text, "(declare-const {prefix}{k} {sort})");
        }
        let _ = write!(text, "(assert {term})\n(check-sat)");
        let gen_micros = 40 + text.len() as u64 / 2;
        TestCase {
            text,
            gen_micros,
            parsed: None,
        }
    }
}

/// ET's leaf hooks.
#[derive(Clone, Copy)]
enum EtLeaf {
    IntConst,
    RealConst,
    StrConst,
    BvConst,
    /// A variable of a fixed sort: name prefix and sort text.
    Var(&'static str, &'static str),
}

/// ET's hook table: three variables per sort, each declared the first
/// time a case uses it.
#[derive(Default)]
struct EtLeaves {
    /// `(prefix, sort, k)` of every variable used, in first-use order.
    declared: Vec<(&'static str, &'static str, u32)>,
}

impl HookTable for EtLeaves {
    type Id = EtLeaf;

    fn resolve(&self, name: &str) -> Option<EtLeaf> {
        Some(match name {
            "ic" => EtLeaf::IntConst,
            "iv" => EtLeaf::Var("ei", "Int"),
            "rc" => EtLeaf::RealConst,
            "rv" => EtLeaf::Var("er", "Real"),
            "sc" => EtLeaf::StrConst,
            "sv" => EtLeaf::Var("es", "String"),
            "bc" => EtLeaf::BvConst,
            "bv" => EtLeaf::Var("eb", "(_ BitVec 8)"),
            _ => return None,
        })
    }

    fn write<R: Rng + ?Sized>(&mut self, leaf: EtLeaf, r: &mut R, out: &mut String) {
        match leaf {
            EtLeaf::IntConst => {
                let _ = write!(out, "{}", r.next_u32() % 9);
            }
            EtLeaf::RealConst => {
                let whole = r.next_u32() % 4;
                let _ = write!(out, "{whole}.{}", r.next_u32() % 10);
            }
            EtLeaf::StrConst => {
                let n = r.next_u32() % 3;
                out.push('"');
                for _ in 0..n {
                    out.push((b'a' + (r.next_u32() % 2) as u8) as char);
                }
                out.push('"');
            }
            EtLeaf::BvConst => {
                let _ = write!(out, "(_ bv{} 8)", r.next_u32() % 256);
            }
            EtLeaf::Var(prefix, sort) => {
                let var = (prefix, sort, r.next_u32() % 3);
                if !self.declared.contains(&var) {
                    self.declared.push(var);
                }
                let _ = write!(out, "{prefix}{}", var.2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_compiles() {
        let g = Grammar::parse_bnf(ET_GRAMMAR).unwrap();
        assert!(g.production_count() > 40);
    }

    #[test]
    fn et_output_is_valid() {
        let mut f = Et::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ok = 0;
        for _ in 0..80 {
            let case = f.next_case(&mut rng);
            if o4a_smtlib::parse_script(&case.text)
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    o4a_smtlib::typeck::check_script(&s)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
                .is_ok()
            {
                ok += 1;
            }
        }
        assert!(ok >= 76, "only {ok}/80 valid");
    }

    #[test]
    fn et_is_systematic_not_random() {
        // Two instances walking from index 0 produce identical streams.
        let mut a = Et::new();
        let mut b = Et::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(a.next_case(&mut rng).text, b.next_case(&mut rng).text);
        }
    }

    #[test]
    fn et_never_emits_quantifiers_or_extensions() {
        let mut f = Et::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let case = f.next_case(&mut rng);
            assert!(!case.text.contains("forall"));
            assert!(!case.text.contains("exists"));
            assert!(!case.text.contains("seq."));
            assert!(!case.text.contains("ff."));
        }
    }
}

//! Mutation-based baselines: OpFuzz, TypeFuzz, Storm, and YinYang.
//!
//! Each implements the published technique's *input-distribution essence*
//! on our substrate: what matters for the comparison is which regions of
//! the input space each baseline can reach (operator swaps cannot invent
//! new theories; seed fusion cannot invent quantifiers that no seed has;
//! none of them can reach cvc5-only extensions absent from seeds).

use crate::common::{random_seed, seed_pool, swap_ops, typed_subterms};
use o4a_core::{Fuzzer, TestCase};
use o4a_smtlib::{Command, Op, Script, Sort, Term};
use rand::rngs::StdRng;
use rand::Rng;

/// OpFuzz (Winterer et al., OOPSLA 2020): type-aware operator mutation of
/// seed formulas.
pub struct OpFuzz {
    seeds: Vec<Script>,
}

impl OpFuzz {
    /// Creates the fuzzer over the shared seed pool.
    pub fn new() -> OpFuzz {
        OpFuzz { seeds: seed_pool() }
    }
}

impl Default for OpFuzz {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for OpFuzz {
    fn name(&self) -> String {
        "OpFuzz".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let mut script = random_seed(&self.seeds, rng);
        let swaps = rng.gen_range(1..=3);
        for term in script.assertions_mut() {
            *term = swap_ops(term, swaps, rng);
        }
        let text = script.to_string();
        let gen_micros = 60 + text.len() as u64 / 2;
        TestCase {
            text,
            gen_micros,
            parsed: None,
        }
    }
}

/// TypeFuzz (Park et al., OOPSLA 2021): generative type-aware mutation —
/// replace a subterm with a fresh term of the same sort built from other
/// subterms of that sort.
pub struct TypeFuzz {
    seeds: Vec<Script>,
}

impl TypeFuzz {
    /// Creates the fuzzer over the shared seed pool.
    pub fn new() -> TypeFuzz {
        TypeFuzz { seeds: seed_pool() }
    }

    /// Builds a same-sort replacement from pool terms (the "generative"
    /// part: new operators applied to existing well-typed pieces).
    fn build_replacement(sort: &Sort, pool: &[(Term, Sort)], rng: &mut StdRng) -> Option<Term> {
        let same: Vec<&Term> = pool
            .iter()
            .filter(|(_, s)| s == sort)
            .map(|(t, _)| t)
            .collect();
        if same.is_empty() {
            return None;
        }
        let pick = |rng: &mut StdRng| same[rng.gen_range(0..same.len())].clone();
        let t = match sort {
            Sort::Int => match rng.gen_range(0..4) {
                0 => Term::App(Op::Add, vec![pick(rng), pick(rng)]),
                1 => Term::App(Op::Mul, vec![pick(rng), Term::int(2)]),
                2 => Term::App(Op::Abs, vec![pick(rng)]),
                _ => Term::App(Op::Mod, vec![pick(rng), Term::int(3)]),
            },
            Sort::Bool => match rng.gen_range(0..3) {
                0 => Term::App(Op::Not, vec![pick(rng)]),
                1 => Term::App(Op::And, vec![pick(rng), pick(rng)]),
                _ => Term::App(Op::Or, vec![pick(rng), pick(rng)]),
            },
            Sort::Real => Term::App(Op::Add, vec![pick(rng), pick(rng)]),
            Sort::String => Term::App(Op::StrConcat, vec![pick(rng), pick(rng)]),
            Sort::BitVec(_) => Term::App(Op::BvAdd, vec![pick(rng), pick(rng)]),
            Sort::Seq(_) => Term::App(Op::SeqConcat, vec![pick(rng), pick(rng)]),
            _ => pick(rng),
        };
        Some(t)
    }
}

impl Default for TypeFuzz {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for TypeFuzz {
    fn name(&self) -> String {
        "TypeFuzz".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let mut script = random_seed(&self.seeds, rng);
        let pool = typed_subterms(&script);
        if !pool.is_empty() {
            // Replace one random pooled occurrence per assertion.
            let (target, sort) = pool[rng.gen_range(0..pool.len())].clone();
            if let Some(replacement) = Self::build_replacement(&sort, &pool, rng) {
                for term in script.assertions_mut() {
                    let mut done = false;
                    *term = term.map_bottom_up(&mut |node| {
                        if !done && node == target {
                            done = true;
                            replacement.clone()
                        } else {
                            node
                        }
                    });
                }
            }
        }
        let text = script.to_string();
        // Typed-pool construction dominates TypeFuzz's per-case cost.
        let gen_micros = 2_500 + 3 * text.len() as u64;
        TestCase {
            text,
            gen_micros,
            parsed: None,
        }
    }
}

/// Storm (Mansur et al., ESEC/FSE 2020): blackbox mutation that rebuilds
/// formulas from seed fragments (atom shuffling over satisfying
/// structure).
pub struct Storm {
    seeds: Vec<Script>,
}

impl Storm {
    /// Creates the fuzzer over the shared seed pool.
    pub fn new() -> Storm {
        Storm { seeds: seed_pool() }
    }
}

impl Default for Storm {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for Storm {
    fn name(&self) -> String {
        "Storm".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let script = random_seed(&self.seeds, rng);
        let atoms: Vec<(Term, Sort)> = typed_subterms(&script)
            .into_iter()
            .filter(|(t, s)| *s == Sort::Bool && matches!(t, Term::App(_, _)))
            .collect();
        let mut out = Script::new();
        for c in &script.commands {
            if matches!(
                c,
                Command::DeclareConst(_, _)
                    | Command::DeclareFun(_, _, _)
                    | Command::DeclareSort(_)
                    | Command::DefineFun(_, _, _, _)
                    | Command::SetLogic(_)
            ) {
                out.commands.push(c.clone());
            }
        }
        if atoms.is_empty() {
            out.commands.push(Command::Assert(Term::tru()));
        } else {
            // Random conjunction of disjunctions over (possibly negated)
            // seed atoms.
            let clauses = rng.gen_range(1..=3);
            for _ in 0..clauses {
                let width = rng.gen_range(1..=3);
                let mut lits = Vec::new();
                for _ in 0..width {
                    let (a, _) = &atoms[rng.gen_range(0..atoms.len())];
                    let lit = if rng.gen_bool(0.4) {
                        Term::App(Op::Not, vec![a.clone()])
                    } else {
                        a.clone()
                    };
                    lits.push(lit);
                }
                let clause = if lits.len() == 1 {
                    lits.pop().expect("non-empty")
                } else {
                    Term::App(Op::Or, lits)
                };
                out.commands.push(Command::Assert(clause));
            }
        }
        out.ensure_check_sat();
        let text = out.to_string();
        let gen_micros = 100 + text.len() as u64;
        TestCase {
            text,
            gen_micros,
            parsed: None,
        }
    }
}

/// YinYang (Winterer et al., PLDI 2020): semantic fusion of two seed
/// formulas — declarations merged under renaming, assertions combined, and
/// one variable pair fused with an equality bridge.
pub struct YinYang {
    seeds: Vec<Script>,
}

impl YinYang {
    /// Creates the fuzzer over the shared seed pool.
    pub fn new() -> YinYang {
        YinYang { seeds: seed_pool() }
    }
}

impl Default for YinYang {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for YinYang {
    fn name(&self) -> String {
        "YinYang".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let first = random_seed(&self.seeds, rng);
        let second = random_seed(&self.seeds, rng);
        let mut out = Script::new();
        let mut declared: Vec<(o4a_smtlib::Symbol, Sort)> = Vec::new();

        // First seed verbatim.
        for c in &first.commands {
            match c {
                Command::CheckSat | Command::GetModel | Command::Exit => {}
                Command::DeclareConst(n, s) => {
                    declared.push((n.clone(), s.clone()));
                    out.commands.push(c.clone());
                }
                other => out.commands.push(other.clone()),
            }
        }
        // Second seed with all declared symbols suffixed to avoid clashes.
        let decls2 = second.declarations();
        let mut renames: Vec<(o4a_smtlib::Symbol, o4a_smtlib::Symbol)> = Vec::new();
        for (name, args, ret) in &decls2 {
            let fresh = name.with_suffix(1);
            renames.push((name.clone(), fresh.clone()));
            if args.is_empty() {
                declared.push((fresh.clone(), ret.clone()));
                out.commands.push(Command::DeclareConst(fresh, ret.clone()));
            } else {
                out.commands
                    .push(Command::DeclareFun(fresh, args.clone(), ret.clone()));
            }
        }
        for a in second.assertions() {
            let mut t = a.clone();
            for (from, to) in &renames {
                t = t.rename_free_var(from, to);
            }
            out.commands.push(Command::Assert(t));
        }
        // Fusion bridge: equate one same-sort variable pair across seeds.
        let mut by_sort: std::collections::BTreeMap<&Sort, Vec<&o4a_smtlib::Symbol>> =
            Default::default();
        for (n, s) in &declared {
            by_sort.entry(s).or_default().push(n);
        }
        if let Some(group) = by_sort.values().find(|g| g.len() >= 2) {
            let a = group[rng.gen_range(0..group.len())];
            let b = group[rng.gen_range(0..group.len())];
            if a != b {
                out.commands.push(Command::Assert(Term::App(
                    Op::Eq,
                    vec![Term::Var(a.clone()), Term::Var(b.clone())],
                )));
            }
        }
        out.ensure_check_sat();
        let text = out.to_string();
        // Fusion pre-solves both seeds, the dominant per-case cost.
        let gen_micros = 3_000 + 2 * text.len() as u64;
        TestCase {
            text,
            gen_micros,
            parsed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::typeck;
    use rand::SeedableRng;

    fn well_formed_rate(fuzzer: &mut dyn Fuzzer, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ok = 0;
        for _ in 0..n {
            let case = fuzzer.next_case(&mut rng);
            if o4a_smtlib::parse_script(&case.text)
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    typeck::check_script(&s)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
                .is_ok()
            {
                ok += 1;
            }
        }
        ok as f64 / n as f64
    }

    #[test]
    fn opfuzz_output_is_overwhelmingly_valid() {
        let rate = well_formed_rate(&mut OpFuzz::new(), 80);
        assert!(rate > 0.95, "OpFuzz validity {rate}");
    }

    #[test]
    fn typefuzz_output_is_mostly_valid() {
        let rate = well_formed_rate(&mut TypeFuzz::new(), 80);
        assert!(rate > 0.9, "TypeFuzz validity {rate}");
    }

    #[test]
    fn storm_output_is_valid() {
        let rate = well_formed_rate(&mut Storm::new(), 80);
        assert!(rate > 0.95, "Storm validity {rate}");
    }

    #[test]
    fn yinyang_output_is_valid() {
        let rate = well_formed_rate(&mut YinYang::new(), 60);
        assert!(rate > 0.9, "YinYang validity {rate}");
    }

    #[test]
    fn baselines_never_emit_cvc5_extensions() {
        // The decisive structural limitation: mutation of standard-theory
        // seeds cannot reach Sets/Bags/FiniteFields.
        let mut rng = StdRng::seed_from_u64(5);
        for fuzzer in [
            &mut OpFuzz::new() as &mut dyn Fuzzer,
            &mut TypeFuzz::new(),
            &mut Storm::new(),
            &mut YinYang::new(),
        ] {
            for _ in 0..40 {
                let case = fuzzer.next_case(&mut rng);
                assert!(!case.text.contains("ff."), "{}", fuzzer.name());
                assert!(!case.text.contains("set."), "{}", fuzzer.name());
                assert!(!case.text.contains("bag"), "{}", fuzzer.name());
            }
        }
    }

    #[test]
    fn opfuzz_actually_mutates() {
        let mut f = OpFuzz::new();
        let mut rng = StdRng::seed_from_u64(2);
        let seeds: Vec<String> = seed_pool().iter().map(|s| s.to_string()).collect();
        let mut changed = 0;
        for _ in 0..40 {
            let case = f.next_case(&mut rng);
            if !seeds.contains(&case.text) {
                changed += 1;
            }
        }
        assert!(changed > 20, "only {changed}/40 cases differ from seeds");
    }

    #[test]
    fn yinyang_merges_two_seeds() {
        let mut f = YinYang::new();
        let mut rng = StdRng::seed_from_u64(8);
        let case = f.next_case(&mut rng);
        assert!(case.text.contains("!1"), "no renamed second-seed symbol");
    }
}

//! HistFuzz (Sun et al., ICSE 2023): skeletons from historical
//! bug-triggering formulas, filled with *atoms mined from the same seed
//! corpus* — the strongest mutation baseline and Once4All's direct
//! ancestor. The difference from Once4All is exactly the generator source:
//! HistFuzz can only recombine atoms that already exist in seeds, so new
//! and solver-specific theories stay out of reach.

use crate::common::{decls_for, mine_atoms, seed_pool};
use o4a_core::{
    adapt_fill_arena, skeletonize_arena, synthesize_arena, ArenaFill, Fuzzer, SkeletonConfig,
    TestCase,
};
use o4a_smtlib::{ArenaScript, Command, Script, Sort, Symbol, Term, TermArena};
use o4a_solvers::Parsed;
use rand::rngs::StdRng;
use rand::Rng;

/// Constant declarations (name, sort) a mined atom needs.
type Decls = Vec<(Symbol, Sort)>;

/// The HistFuzz baseline.
pub struct HistFuzz {
    seeds: Vec<Script>,
    /// Atom pool: each mined atom with the constants it needs, declared as
    /// in its origin script, or `None` when it needs an n-ary function
    /// (such an atom can be drawn but is never inserted).
    atoms: Vec<(Term, Option<Decls>)>,
    skeleton: SkeletonConfig,
    /// The per-case term arena; reset at the start of every case.
    arena: TermArena,
}

impl HistFuzz {
    /// Creates the fuzzer, mining the atom pool from the shared seeds.
    pub fn new() -> HistFuzz {
        let seeds = seed_pool();
        let atoms = mine_atoms(&seeds)
            .into_iter()
            .map(|(atom, origin)| {
                let decls = atom_decls(&atom, &origin);
                (atom, decls)
            })
            .collect();
        HistFuzz {
            seeds,
            atoms,
            skeleton: SkeletonConfig::default(),
            arena: TermArena::new(),
        }
    }
}

/// The constant declarations a mined atom needs, or `None` when one of its
/// free symbols is unresolved or an n-ary function (which cannot be
/// re-declared as a constant).
fn atom_decls(atom: &Term, origin: &Script) -> Option<Decls> {
    decls_for(atom, origin)?
        .into_iter()
        .map(|c| match c {
            Command::DeclareConst(n, s) => Some((n, s)),
            _ => None,
        })
        .collect()
}

impl Default for HistFuzz {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for HistFuzz {
    fn name(&self) -> String {
        "HistFuzz".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let arena = &mut self.arena;
        arena.reset();
        let seed = &self.seeds[rng.gen_range(0..self.seeds.len())];
        let seed = ArenaScript::from_script(seed, arena);
        let skeleton = skeletonize_arena(&seed, arena, self.skeleton, rng);
        let mut fills = Vec::new();
        for _ in 0..rng.gen_range(1..=2) {
            if self.atoms.is_empty() {
                break;
            }
            if let (atom, Some(decls)) = &self.atoms[rng.gen_range(0..self.atoms.len())] {
                let fill = ArenaFill {
                    decls: decls.clone(),
                    term: arena.intern_term(atom),
                };
                fills.push(adapt_fill_arena(&fill, &skeleton, arena, rng));
            }
        }
        let script = if fills.is_empty() {
            seed
        } else {
            synthesize_arena(&skeleton, &fills, arena)
        };
        let mut text = String::new();
        script.print_into(arena, &mut text);
        TestCase {
            gen_micros: 140 + text.len() as u64,
            parsed: Some(Parsed::from_arena(&script, arena, &text)),
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn histfuzz_output_is_mostly_valid() {
        let mut f = HistFuzz::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ok = 0;
        for _ in 0..60 {
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
        assert!(ok >= 54, "only {ok}/60 valid");
    }

    #[test]
    fn histfuzz_preserves_quantified_skeletons() {
        let mut f = HistFuzz::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut quantified = 0;
        for _ in 0..80 {
            let text = f.next_case(&mut rng).text;
            if text.contains("exists") || text.contains("forall") {
                quantified += 1;
            }
        }
        assert!(quantified > 10);
    }

    #[test]
    fn histfuzz_recombines_seed_atoms_only() {
        let mut f = HistFuzz::new();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let case = f.next_case(&mut rng);
            assert!(!case.text.contains("ff."));
            assert!(!case.text.contains("set."));
        }
    }
}

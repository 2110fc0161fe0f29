//! Term adaptation and formula synthesis (paper §3.3, steps 2–3): parse
//! generator output, rename generated variables to sort-compatible skeleton
//! variables, merge declarations, and fill the placeholders.

use crate::skeleton::{declared_constants, strip_commands_arena, ArenaSkeleton};
use o4a_llm::RawTerm;
use o4a_smtlib::{
    parse_script_arena, typeck, ArenaCommand, ArenaScript, Sort, Symbol, TermArena, TermId,
};
use rand::Rng;
use std::collections::BTreeMap;

/// A parsed, well-formed generator sample ready for insertion; the term is
/// a [`TermId`] into the caller's arena.
#[derive(Clone, Debug)]
pub struct ArenaFill {
    /// Declarations the term needs (name → sort).
    pub decls: Vec<(Symbol, Sort)>,
    /// The Boolean term.
    pub term: TermId,
}

/// Parses and validates one generator sample straight into `arena` (no
/// reset — the caller owns arena lifetime).
///
/// # Errors
///
/// Returns the solver-style error message when the sample does not parse
/// or does not sort-check as a Boolean assertion — the fuzzer then submits
/// the raw text instead (invalid inputs still exercise solver frontends).
pub fn parse_fill_into(raw: &RawTerm, arena: &mut TermArena) -> Result<ArenaFill, String> {
    let script_text = raw.to_script_text();
    let script = parse_script_arena(&script_text, arena).map_err(|e| e.to_string())?;
    typeck::check_script_arena(&script, arena).map_err(|e| e.to_string())?;
    let decls = declared_constants(&script).collect();
    let term = script
        .assertions()
        .next()
        .ok_or_else(|| "generator sample has no assertion".to_string())?;
    Ok(ArenaFill { decls, term })
}

/// Probability that a generated variable with a sort-compatible skeleton
/// variable is renamed to it ("enhancing semantic interactions", §3.3).
pub const ADAPT_PROBABILITY: f64 = 0.6;

/// Adapts a fill to a skeleton: generated variables are renamed to skeleton
/// variables of the same sort with [`ADAPT_PROBABILITY`]; adapted variables
/// lose their own declarations. Draws `gen_bool` only when a
/// sort-compatible candidate exists, then `gen_range` over the candidates.
pub fn adapt_fill_arena(
    fill: &ArenaFill,
    skeleton: &ArenaSkeleton,
    arena: &mut TermArena,
    rng: &mut impl Rng,
) -> ArenaFill {
    let mut by_sort: BTreeMap<&Sort, Vec<&Symbol>> = BTreeMap::new();
    for (name, sort) in &skeleton.variables {
        by_sort.entry(sort).or_default().push(name);
    }
    let mut term = fill.term;
    let mut decls = Vec::new();
    for (name, sort) in &fill.decls {
        let candidates = by_sort.get(sort);
        let adapt = candidates
            .filter(|c| !c.is_empty())
            .filter(|_| rng.gen_bool(ADAPT_PROBABILITY));
        match adapt {
            Some(c) => {
                let target = c[rng.gen_range(0..c.len())].clone();
                term = arena.rename_free_var(term, name, &target);
            }
            None => decls.push((name.clone(), sort.clone())),
        }
    }
    ArenaFill { decls, term }
}

/// Fills a skeleton's placeholders with adapted terms and merges
/// declarations, producing a complete test script ending in `check-sat`.
///
/// Generated declarations that clash with existing names (same name,
/// different sort) are renamed with a numeric suffix; clashes with equal
/// sorts are merged silently. Placeholders are filled round-robin, and a
/// fill used at several placeholders is shared by id.
pub fn synthesize_arena(
    skeleton: &ArenaSkeleton,
    fills: &[ArenaFill],
    arena: &mut TermArena,
) -> ArenaScript {
    let mut script = skeleton.script.clone();
    strip_commands_arena(&mut script);

    // Merge declarations, renaming on sort clashes.
    let mut declared: BTreeMap<Symbol, Sort> = declared_constants(&skeleton.script).collect();
    let mut renames: Vec<(Symbol, Symbol)> = Vec::new();
    let mut new_decls: Vec<(Symbol, Sort)> = Vec::new();
    for fill in fills {
        for (name, sort) in &fill.decls {
            match declared.get(name) {
                Some(existing) if existing == sort => {} // share the variable
                Some(_) => {
                    let mut k = 0u64;
                    let fresh = loop {
                        let candidate = name.with_suffix(k);
                        if !declared.contains_key(&candidate) {
                            break candidate;
                        }
                        k += 1;
                    };
                    declared.insert(fresh.clone(), sort.clone());
                    new_decls.push((fresh.clone(), sort.clone()));
                    renames.push((name.clone(), fresh));
                }
                None => {
                    declared.insert(name.clone(), sort.clone());
                    new_decls.push((name.clone(), sort.clone()));
                }
            }
        }
    }

    // Insert declarations before the first assert.
    let insert_at = script
        .commands
        .iter()
        .position(|c| matches!(c, ArenaCommand::Assert(_)))
        .unwrap_or(script.commands.len());
    for (i, (name, sort)) in new_decls.into_iter().enumerate() {
        script
            .commands
            .insert(insert_at + i, ArenaCommand::DeclareConst(name, sort));
    }

    // Fill placeholders round-robin (with per-fill renames applied).
    let adapted: Vec<TermId> = fills
        .iter()
        .map(|f| {
            let mut t = f.term;
            for (from, to) in &renames {
                if f.decls.iter().any(|(n, _)| n == from) {
                    t = arena.rename_free_var(t, from, to);
                }
            }
            t
        })
        .collect();
    let mut next = 0usize;
    for cmd in script.commands.iter_mut() {
        if let ArenaCommand::Assert(t) = cmd {
            *t = arena.fill_placeholders(*t, &adapted, &mut next);
        }
    }
    script.ensure_check_sat();
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{skeletonize_arena, SkeletonConfig};
    use o4a_smtlib::parse_script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn fill_from(arena: &mut TermArena, decl_sorts: &[(&str, Sort)], term: &str) -> ArenaFill {
        ArenaFill {
            decls: decl_sorts
                .iter()
                .map(|(n, s)| (Symbol::new(n), s.clone()))
                .collect(),
            term: o4a_smtlib::parse_term_arena(term, arena).unwrap(),
        }
    }

    fn skeleton_of(text: &str, p: f64) -> (ArenaSkeleton, TermArena) {
        let mut arena = TermArena::new();
        let seed = ArenaScript::from_script(&parse_script(text).unwrap(), &mut arena);
        let sk = skeletonize_arena(
            &seed,
            &mut arena,
            SkeletonConfig {
                replace_probability: p,
                max_placeholders: 4,
            },
            &mut rng(),
        );
        (sk, arena)
    }

    /// Sort-checks a synthesized script and returns its text.
    fn checked_text(out: &ArenaScript, arena: &TermArena) -> String {
        let mut text = String::new();
        out.print_into(arena, &mut text);
        typeck::check_script_arena(out, arena).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(!out.has_placeholders(arena));
        text
    }

    #[test]
    fn parse_fill_accepts_valid_samples() {
        let raw = RawTerm {
            decls: vec!["(declare-const i0 Int)".into()],
            term: "(= (mod i0 3) 0)".into(),
        };
        let f = parse_fill_into(&raw, &mut TermArena::new()).unwrap();
        assert_eq!(f.decls.len(), 1);
        assert_eq!(f.decls[0].1, Sort::Int);
    }

    #[test]
    fn parse_fill_rejects_flawed_samples() {
        let raw = RawTerm {
            decls: vec![],
            term: "(= i9 0)".into(), // undeclared
        };
        assert!(parse_fill_into(&raw, &mut TermArena::new()).is_err());
        let raw2 = RawTerm {
            decls: vec!["(declare-const i0 Int)".into()],
            term: "(+ i0 1)".into(), // not Boolean
        };
        assert!(parse_fill_into(&raw2, &mut TermArena::new()).is_err());
    }

    #[test]
    fn synthesized_script_is_well_formed() {
        // The paper's Figure 4 walk-through: seed with Int variable T,
        // Int+String fills, adapted and merged.
        let (sk, mut arena) = skeleton_of(
            "(declare-fun T () Int)(assert (or (= T 0) (< T 1)))(check-sat)",
            1.0,
        );
        let fills = [
            fill_from(
                &mut arena,
                &[("int0", Sort::Int)],
                "((_ divisible 3) (mod int0 3))",
            ),
            fill_from(&mut arena, &[("str0", Sort::String)], "(= str0 \"\")"),
        ];
        let mut r = rng();
        let adapted: Vec<ArenaFill> = fills
            .iter()
            .map(|f| adapt_fill_arena(f, &sk, &mut arena, &mut r))
            .collect();
        let out = synthesize_arena(&sk, &adapted, &mut arena);
        assert!(checked_text(&out, &arena).ends_with("(check-sat)"));
    }

    #[test]
    fn adaptation_renames_to_skeleton_variable() {
        let (sk, mut arena) = skeleton_of(
            "(declare-fun T () Int)(assert (or (= T 0) (< T 1)))(check-sat)",
            1.0,
        );
        let fill = fill_from(&mut arena, &[("int0", Sort::Int)], "(> int0 5)");
        // Sweep seeds until adaptation fires (probability 0.6).
        let mut adapted_seen = false;
        for s in 0..20 {
            let mut r = StdRng::seed_from_u64(s);
            let a = adapt_fill_arena(&fill, &sk, &mut arena, &mut r);
            if a.decls.is_empty() {
                adapted_seen = true;
                assert!(arena.extract_term(a.term).free_vars().contains("T"));
            }
        }
        assert!(adapted_seen, "adaptation never fired in 20 trials");
    }

    #[test]
    fn clashing_declarations_renamed() {
        // Skeleton declares T : Int; fill declares T : String.
        let (sk, mut arena) = skeleton_of("(declare-fun T () Int)(assert (= T 0))(check-sat)", 1.0);
        let fill = fill_from(&mut arena, &[("T", Sort::String)], "(= T \"x\")");
        let out = synthesize_arena(&sk, &[fill], &mut arena);
        assert!(checked_text(&out, &arena).contains("T!0"));
    }

    #[test]
    fn shared_sort_declarations_merge() {
        let (sk, mut arena) = skeleton_of("(declare-fun T () Int)(assert (= T 0))(check-sat)", 1.0);
        let fill = fill_from(&mut arena, &[("T", Sort::Int)], "(> T 5)");
        let out = synthesize_arena(&sk, &[fill], &mut arena);
        // Only one declaration of T.
        assert_eq!(checked_text(&out, &arena).matches("declare-").count(), 1);
    }

    #[test]
    fn quantified_skeleton_fill_typechecks() {
        let (sk, mut arena) = skeleton_of(
            "(declare-fun s () (Seq Int))\
             (assert (exists ((f Int)) (distinct (seq.len s) 0)))(check-sat)",
            1.0,
        );
        let fill = fill_from(&mut arena, &[("i0", Sort::Int)], "(= (div i0 2) 1)");
        let adapted = adapt_fill_arena(&fill, &sk, &mut arena, &mut rng());
        let out = synthesize_arena(&sk, &[adapted], &mut arena);
        assert!(checked_text(&out, &arena).contains("exists"));
    }

    #[test]
    fn arena_pipeline_matches_golden() {
        // Fixed generator samples exercising rename, clash, and merge paths.
        let raws = [
            RawTerm {
                decls: vec!["(declare-const i0 Int)".into()],
                term: "(= (mod i0 3) 0)".into(),
            },
            RawTerm {
                decls: vec![
                    "(declare-const s0 (Seq Int))".into(),
                    "(declare-const i1 Int)".into(),
                ],
                term: "(= (seq.len s0) i1)".into(),
            },
            RawTerm {
                decls: vec!["(declare-const T String)".into()],
                term: "(= T \"x\")".into(),
            },
        ];
        let mut transcript = String::new();
        for seed in crate::seeds::parsed_seeds().iter().take(8) {
            for s in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(s);
                let mut arena = TermArena::new();
                let mut cur = ArenaScript::from_script(seed, &mut arena);
                // Three chained mutation rounds: the mutant feeds back as
                // the next round's seed, exactly like the fuzzer loop.
                for _ in 0..3 {
                    let sk =
                        skeletonize_arena(&cur, &mut arena, SkeletonConfig::default(), &mut rng);
                    let fills: Vec<ArenaFill> = raws
                        .iter()
                        .map(|r| {
                            let f = parse_fill_into(r, &mut arena).unwrap();
                            adapt_fill_arena(&f, &sk, &mut arena, &mut rng)
                        })
                        .collect();
                    let out = synthesize_arena(&sk, &fills, &mut arena);
                    out.print_into(&arena, &mut transcript);
                    transcript.push('\n');
                    cur = out;
                }
            }
        }
        // Captured from the boxed pipeline this one replaced.
        let digest = o4a_solvers::features::fnv1a(transcript.as_bytes());
        assert_eq!(
            digest, 0x8f21_bc60_083f_7c4d,
            "pipeline output changed: {digest:#018x}"
        );
    }

    #[test]
    fn more_placeholders_than_fills_reuses_round_robin() {
        let (sk, mut arena) = skeleton_of(
            "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)\
             (assert (and a b c))(check-sat)",
            1.0,
        );
        assert!(sk.placeholder_count >= 2);
        let fill = fill_from(&mut arena, &[("i0", Sort::Int)], "(> i0 0)");
        let out = synthesize_arena(&sk, &[fill], &mut arena);
        checked_text(&out, &arena);
    }
}

//! Skeleton extraction (paper §3.3, step 1): replace random atomic
//! sub-formulas of a seed with `<placeholder>` markers while preserving the
//! logical structure — quantifiers, `let` binders, and connectives — that
//! Observation 2 identifies as bug-critical.

use o4a_smtlib::{ANode, ArenaCommand, ArenaScript, Sort, Symbol, TermArena, TermId, Value};
use rand::Rng;

/// Tuning for skeleton extraction.
#[derive(Clone, Copy, Debug)]
pub struct SkeletonConfig {
    /// Probability of replacing each atomic sub-formula.
    pub replace_probability: f64,
    /// Upper bound on placeholders per script.
    pub max_placeholders: usize,
}

impl Default for SkeletonConfig {
    fn default() -> Self {
        SkeletonConfig {
            replace_probability: 0.6,
            max_placeholders: 4,
        }
    }
}

/// A skeleton: the hollowed script plus bookkeeping about what it kept.
/// Its terms are [`TermId`]s in the caller's arena.
#[derive(Clone, Debug)]
pub struct ArenaSkeleton {
    /// The script with placeholders in place of removed atoms.
    pub script: ArenaScript,
    /// Number of placeholders inserted.
    pub placeholder_count: usize,
    /// Declared variables visible to inserted terms (name, sort) — the
    /// adaptation step matches generated-term variables against these.
    pub variables: Vec<(Symbol, Sort)>,
}

/// Extracts a skeleton from a seed script.
///
/// Atomic Boolean sub-formulas (Boolean-valued applications whose head is
/// not a connective) are replaced by placeholders with the configured
/// probability; at least one placeholder is always inserted when any atom
/// exists, so the skeleton is never a no-op. Untouched subtrees keep their
/// node ids.
pub fn skeletonize_arena(
    seed: &ArenaScript,
    arena: &mut TermArena,
    cfg: SkeletonConfig,
    rng: &mut impl Rng,
) -> ArenaSkeleton {
    let mut counter = 0u32;
    let mut script = seed.clone();

    let atom_total: usize = seed.assertions().map(|t| count_atoms_arena(arena, t)).sum();
    let force_index = if atom_total > 0 {
        Some(rng.gen_range(0..atom_total))
    } else {
        None
    };

    let mut seen = 0usize;
    for cmd in script.commands.iter_mut() {
        if let ArenaCommand::Assert(t) = cmd {
            *t = replace_atoms_arena(arena, *t, cfg, rng, &mut counter, &mut seen, force_index);
        }
    }

    ArenaSkeleton {
        placeholder_count: counter as usize,
        variables: declared_constants(&script).collect(),
        script,
    }
}

/// The script's declared 0-ary symbols (`declare-const`, or `declare-fun`
/// without arguments) with their sorts, in file order.
pub(crate) fn declared_constants(
    script: &ArenaScript,
) -> impl Iterator<Item = (Symbol, Sort)> + '_ {
    script.commands.iter().filter_map(|c| match c {
        ArenaCommand::DeclareConst(name, sort) => Some((name.clone(), sort.clone())),
        ArenaCommand::DeclareFun(name, args, ret) if args.is_empty() => {
            Some((name.clone(), ret.clone()))
        }
        _ => None,
    })
}

/// True when a term is an *atomic formula* in the paper's sense: a
/// Boolean-valued application whose head is not a logical connective.
/// (Sort information is approximated structurally: comparison/predicate
/// heads and Boolean constants/variables inside connectives.)
fn is_atom_arena(arena: &TermArena, id: TermId) -> bool {
    match arena.node(id) {
        ANode::App(op, _, _) => !arena.op(op).is_connective(),
        ANode::Const(vi) => matches!(arena.value(vi), Value::Bool(_)),
        ANode::Var(_) => true,
        _ => false,
    }
}

/// Number of atoms in a term, in the order [`replace_atoms_arena`] visits
/// them.
fn count_atoms_arena(arena: &TermArena, id: TermId) -> usize {
    match arena.node(id) {
        ANode::App(op, start, len) if arena.op(op).is_connective() => {
            let mut n = 0;
            for i in 0..len {
                n += count_atoms_arena(arena, arena.args(start, len)[i as usize]);
            }
            n
        }
        ANode::Let(start, len, body) => {
            let mut n = 0;
            for i in 0..len {
                n += count_atoms_arena(arena, arena.let_binds(start, len)[i as usize].1);
            }
            n + count_atoms_arena(arena, body)
        }
        ANode::Quant(_, _, _, body) => count_atoms_arena(arena, body),
        _ if is_atom_arena(arena, id) => 1,
        _ => 0,
    }
}

/// Walks the Boolean structure, replacing atoms. Only positions of Boolean
/// sort are candidates: connective children, quantifier bodies, and `let`
/// bodies in Boolean context (binder *values* are left untouched — their
/// sort is unknown and replacing them would break well-sortedness). Nodes
/// are rebuilt only when a child changed.
fn replace_atoms_arena(
    arena: &mut TermArena,
    id: TermId,
    cfg: SkeletonConfig,
    rng: &mut impl Rng,
    counter: &mut u32,
    seen: &mut usize,
    force_index: Option<usize>,
) -> TermId {
    if is_atom_arena(arena, id) {
        let my_index = *seen;
        *seen += 1;
        let forced = force_index == Some(my_index);
        let replace = (*counter as usize) < cfg.max_placeholders
            && (forced || rng.gen_bool(cfg.replace_probability));
        if replace {
            let p = arena.mk_placeholder(*counter);
            *counter += 1;
            return p;
        }
        return id;
    }
    match arena.node(id) {
        ANode::App(op, start, len) if arena.op(op).is_connective() => {
            let kids = arena.args(start, len).to_vec();
            let new: Vec<TermId> = kids
                .iter()
                .map(|&k| replace_atoms_arena(arena, k, cfg, rng, counter, seen, force_index))
                .collect();
            if new == kids {
                id
            } else {
                arena.mk_app(op, &new)
            }
        }
        ANode::Quant(q, start, len, body) => {
            let new_body = replace_atoms_arena(arena, body, cfg, rng, counter, seen, force_index);
            if new_body == body {
                id
            } else {
                let vars = arena.quant_vars(start, len).to_vec();
                arena.mk_quant(q, &vars, new_body)
            }
        }
        ANode::Let(start, len, body) => {
            // Binder values keep their atoms (counted but never replaced).
            for &(_, v) in &arena.let_binds(start, len).to_vec() {
                *seen += count_atoms_arena(arena, v);
            }
            let new_body = replace_atoms_arena(arena, body, cfg, rng, counter, seen, force_index);
            if new_body == body {
                id
            } else {
                let binds = arena.let_binds(start, len).to_vec();
                arena.mk_let(&binds, new_body)
            }
        }
        _ => id,
    }
}

/// Strips `check-sat`/`get-model`/`exit` commands from a skeleton script
/// (the fuzzer re-appends `check-sat` after filling).
pub fn strip_commands_arena(script: &mut ArenaScript) {
    script.commands.retain(|c| {
        !matches!(
            c,
            ArenaCommand::CheckSat | ArenaCommand::GetModel | ArenaCommand::Exit
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::parse_script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Skeletonizes `text` in a fresh arena; returns the skeleton, its
    /// printed script and the arena it lives in.
    fn skeleton_of(
        text: &str,
        cfg: SkeletonConfig,
        rng: &mut StdRng,
    ) -> (ArenaSkeleton, String, TermArena) {
        let mut arena = TermArena::new();
        let seed = ArenaScript::from_script(&parse_script(text).unwrap(), &mut arena);
        let sk = skeletonize_arena(&seed, &mut arena, cfg, rng);
        let mut printed = String::new();
        sk.script.print_into(&arena, &mut printed);
        (sk, printed, arena)
    }

    #[test]
    fn skeleton_always_inserts_at_least_one_placeholder() {
        for i in 0..50 {
            let mut r = StdRng::seed_from_u64(i);
            let (sk, _, arena) = skeleton_of(
                "(declare-fun T () Int)(assert (or (= T 0) (< T 1)))(check-sat)",
                SkeletonConfig::default(),
                &mut r,
            );
            assert!(sk.placeholder_count >= 1);
            assert!(sk.script.has_placeholders(&arena));
        }
    }

    #[test]
    fn skeleton_preserves_quantifier_structure() {
        // The paper's running example: (exists ((f Int)) <placeholder>).
        let cfg = SkeletonConfig {
            replace_probability: 1.0,
            max_placeholders: 8,
        };
        let (_, printed, _) = skeleton_of(
            "(declare-fun s () (Seq Int))\
             (assert (exists ((f Int)) (distinct (seq.len s) 0)))(check-sat)",
            cfg,
            &mut rng(),
        );
        assert!(
            printed.contains("(exists ((f Int)) <placeholder>)"),
            "{printed}"
        );
    }

    #[test]
    fn skeleton_respects_max_placeholders() {
        let cfg = SkeletonConfig {
            replace_probability: 1.0,
            max_placeholders: 3,
        };
        let (sk, _, _) = skeleton_of(
            "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)\
             (declare-const d Bool)(declare-const e Bool)(declare-const f Bool)\
             (assert (and a b c d e f))(check-sat)",
            cfg,
            &mut rng(),
        );
        assert_eq!(sk.placeholder_count, 3);
    }

    #[test]
    fn variables_collected_with_sorts() {
        let (sk, _, _) = skeleton_of(
            "(declare-const x Int)(declare-fun s () (Seq Int))\
             (declare-fun f (Int) Int)\
             (assert (> x (seq.len s)))(check-sat)",
            SkeletonConfig::default(),
            &mut rng(),
        );
        // n-ary functions are not adaptation targets.
        assert_eq!(sk.variables.len(), 2);
        assert!(sk
            .variables
            .iter()
            .any(|(n, s)| n.as_str() == "x" && *s == o4a_smtlib::Sort::Int));
    }

    #[test]
    fn non_boolean_positions_untouched() {
        // The arithmetic subterm (+ x 1) must never become a placeholder.
        let cfg = SkeletonConfig {
            replace_probability: 1.0,
            max_placeholders: 8,
        };
        let (sk, printed, _) = skeleton_of(
            "(declare-const x Int)(assert (= (+ x 1) 2))(check-sat)",
            cfg,
            &mut rng(),
        );
        assert_eq!(sk.placeholder_count, 1, "only the whole atom is replaced");
        assert!(printed.contains("(assert <placeholder>)"));
    }

    #[test]
    fn strip_commands_removes_check_sat() {
        let mut arena = TermArena::new();
        let s = parse_script("(assert true)(check-sat)(get-model)").unwrap();
        let mut s = ArenaScript::from_script(&s, &mut arena);
        strip_commands_arena(&mut s);
        assert_eq!(s.commands.len(), 1);
    }
}

//! Allocation-count regression gates for the arena hot loop: after
//! warmup, one fill→print→compile→eval case must stay under a pinned
//! allocation budget, and a rewrite that changes nothing must allocate
//! nothing.
//! The arena substrate exists precisely so the steady state recycles its
//! buffers — a regression here means boxed-term cloning crept back in.

use o4a_core::SkeletonConfig;
use o4a_core::{adapt_fill_arena, parse_fill_into, skeletonize_arena, synthesize_arena};
use o4a_llm::RawTerm;
use o4a_smtlib::eval::{no_defs, Dim, DomainConfig, Domains, IncrementalEval};
use o4a_smtlib::{
    parse_script, ArenaCommand, ArenaScript, Script, Symbol, TermArena, TermId, Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapped with a per-thread allocation counter
/// (reallocs count — a growing `Vec` that should have reached
/// steady-state capacity is exactly the kind of regression this test
/// exists to catch). Per thread, so the tests here can run in parallel.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations this thread made while it ran.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Pinned steady-state budget: allocations per case, measured over 100
/// warm cases. The loop still allocates (token vectors, command clones,
/// eval scopes) but must not scale with term-tree size the way boxed
/// `Term` cloning did. Measured 83/case at introduction and 110/case in
/// a debug build (87 in release) once the arena rewrites became
/// copy-on-change; the pin is that debug count plus about 25% headroom
/// for legitimate drift.
const PER_CASE_BUDGET: u64 = 135;

fn one_case(
    seed: &Script,
    raws: &[RawTerm],
    arena: &mut TermArena,
    buf: &mut String,
    model: &[(Dim, Value)],
    cfg: &DomainConfig,
    rng: &mut StdRng,
) {
    arena.reset();
    let aseed = ArenaScript::from_script(seed, arena);
    let sk = skeletonize_arena(&aseed, arena, SkeletonConfig::default(), rng);
    let fills: Vec<_> = raws
        .iter()
        .map(|r| {
            let f = parse_fill_into(r, arena).expect("fill parses");
            adapt_fill_arena(&f, &sk, arena, rng)
        })
        .collect();
    let out = synthesize_arena(&sk, &fills, arena);
    buf.clear();
    out.print_into(arena, buf);
    assert!(buf.ends_with("(check-sat)"));
    // Compile the case's assertions onto slots and evaluate them under
    // the model, as an engine's search does for its first assignment.
    let roots: Vec<TermId> = out.assertions().collect();
    let dims: Vec<Dim> = model.iter().map(|(d, _)| d.clone()).collect();
    let domains = Domains::new(arena.sorts(), cfg);
    let mut ev = IncrementalEval::compile(arena, &roots, &dims, no_defs(), cfg, &domains);
    for (k, (_, v)) in model.iter().enumerate() {
        ev.set(k, v.clone());
    }
    let mut budget = 100_000;
    for i in 0..roots.len() {
        let _ = ev.eval(i, &mut budget);
    }
}

#[test]
fn steady_state_case_allocations_stay_under_budget() {
    let seed = o4a_smtlib::parse_script(
        "(declare-fun T () Int)(declare-const b Bool)\
         (assert (or (= T 0) (and b (< T 10))))\
         (assert (exists ((f Int)) (> f T)))(check-sat)",
    )
    .expect("seed parses");
    let raws = [
        RawTerm {
            decls: vec!["(declare-const i0 Int)".into()],
            term: "(= (mod i0 3) 0)".into(),
        },
        RawTerm {
            decls: vec!["(declare-const str0 String)".into()],
            term: "(= str0 \"ab\")".into(),
        },
    ];
    let model = [
        ("T", Value::Int(3)),
        ("b", Value::Bool(true)),
        ("i0", Value::Int(6)),
        ("str0", Value::Str("ab".into())),
    ]
    .map(|(name, v)| (Dim::Const(Symbol::new(name)), v));
    let cfg = DomainConfig::default();
    let mut arena = TermArena::new();
    let mut buf = String::new();
    let mut rng = StdRng::seed_from_u64(42);

    // Warmup: let every recycled buffer (arena vecs, print buffer, token
    // pools) reach steady-state capacity.
    for _ in 0..50 {
        one_case(&seed, &raws, &mut arena, &mut buf, &model, &cfg, &mut rng);
    }

    const CASES: u64 = 100;
    let ((), total) = allocations(|| {
        for _ in 0..CASES {
            one_case(&seed, &raws, &mut arena, &mut buf, &model, &cfg, &mut rng);
        }
    });
    let per_case = total / CASES;
    eprintln!("steady-state allocations per case: {per_case}");
    assert!(
        per_case <= PER_CASE_BUDGET,
        "steady-state hot loop allocates {per_case}/case (budget {PER_CASE_BUDGET})"
    );
}

/// A seed with nested `let`, quantifier and connective structure whose
/// first assertion repeats `body` `copies` times under one `and`.
fn nested_seed(arena: &mut TermArena, copies: usize) -> ArenaScript {
    let body = "(or (let ((y (+ x 1))) (and (> y 0) (< y 9))) \
                (forall ((z Int)) (=> (> z x) (not (= z 3)))))";
    let text = format!(
        "(declare-const x Int)(declare-const b Bool)\
         (assert (and b {}))(assert (exists ((w Int)) (= w x)))(check-sat)",
        vec![body; copies].join(" ")
    );
    ArenaScript::from_script(&parse_script(&text).expect("seed parses"), arena)
}

#[test]
fn renaming_an_absent_symbol_allocates_nothing() {
    let mut arena = TermArena::new();
    let seed = nested_seed(&mut arena, 3);
    let (absent, to) = (Symbol::new("absent"), Symbol::new("renamed"));
    for root in seed.assertions() {
        // The first call interns both symbols; after that the walk is
        // all that is left.
        arena.rename_free_var(root, &absent, &to);
        let (same, n) = allocations(|| arena.rename_free_var(root, &absent, &to));
        assert_eq!(same, root);
        assert_eq!(n, 0, "rename of an absent symbol allocated");
    }
}

#[test]
fn filling_a_placeholder_free_term_allocates_nothing() {
    let mut arena = TermArena::new();
    let seed = nested_seed(&mut arena, 3);
    let fill = arena.mk_const(Value::Bool(true));
    for root in seed.assertions() {
        let mut next = 0;
        let (same, n) = allocations(|| arena.fill_placeholders(root, &[fill], &mut next));
        assert_eq!((same, next), (root, 0));
        assert_eq!(n, 0, "fill of a placeholder-free term allocated");
    }
}

#[test]
fn a_skeleton_pass_that_replaces_nothing_allocates_nothing_per_node() {
    let cfg = SkeletonConfig {
        replace_probability: 1.0,
        max_placeholders: 0,
    };
    let mut cost = Vec::new();
    for copies in [1, 8] {
        let mut arena = TermArena::new();
        let seed = nested_seed(&mut arena, copies);
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, n) = allocations(|| skeletonize_arena(&seed, &mut arena, cfg, &mut rng));
        assert_eq!(sk.placeholder_count, 0);
        let roots = |s: &ArenaScript| -> Vec<TermId> { s.assertions().collect() };
        assert_eq!(
            roots(&sk.script),
            roots(&seed),
            "unchanged terms keep their ids"
        );
        assert!(sk
            .script
            .commands
            .iter()
            .all(|c| !matches!(c, ArenaCommand::Assert(_)) || seed.commands.contains(c)));
        cost.push(n);
    }
    // What is left is the script copy and the variable list, the same
    // for a first assertion eight times larger.
    assert_eq!(cost[0], cost[1], "allocations grew with the tree: {cost:?}");
}

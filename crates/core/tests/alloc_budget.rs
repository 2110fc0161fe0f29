//! Allocation-count regression gate for the arena hot loop: after warmup,
//! one fill→print→extract→compile→eval case must stay under a pinned
//! allocation budget.
//! The arena substrate exists precisely so the steady state recycles its
//! buffers — a regression here means boxed-term cloning crept back in.

use o4a_core::SkeletonConfig;
use o4a_core::{adapt_fill_arena, parse_fill_into, skeletonize_arena, synthesize_arena};
use o4a_llm::RawTerm;
use o4a_smtlib::eval::{no_defs, Dim, DomainConfig, IncrementalEval};
use o4a_smtlib::{ArenaScript, Script, Symbol, Term, TermArena, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter (reallocs count —
/// a growing `Vec` that should have reached steady-state capacity is
/// exactly the kind of regression this test exists to catch).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Pinned steady-state budget: allocations per case, measured over 100
/// warm cases. The loop still allocates (token vectors, command clones,
/// eval scopes) but must not scale with term-tree size the way boxed
/// `Term` cloning did. Measured 83/case at introduction; the pin leaves
/// headroom for legitimate drift while catching order-of-magnitude
/// regressions.
const PER_CASE_BUDGET: u64 = 300;

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
    let roots: Vec<Term> = out.assertions().map(|t| arena.extract_term(t)).collect();
    let dims: Vec<Dim> = model.iter().map(|(d, _)| d.clone()).collect();
    let mut ev = IncrementalEval::compile(&roots, &dims, no_defs(), cfg);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..CASES {
        one_case(&seed, &raws, &mut arena, &mut buf, &model, &cfg, &mut rng);
    }
    let per_case = (ALLOCS.load(Ordering::Relaxed) - before) / CASES;
    eprintln!("steady-state allocations per case: {per_case}");
    assert!(
        per_case <= PER_CASE_BUDGET,
        "steady-state hot loop allocates {per_case}/case (budget {PER_CASE_BUDGET})"
    );
}

//! Allocation-count regression gate for generation: one
//! `GeneratorProgram::generate` sample on a corrected generator must stay
//! under a pinned allocation budget.
//!
//! The grammar is compiled once per revision and the deriver writes every
//! token into one output buffer, so a sample allocates that buffer, the
//! variable pool and the declaration lines of the `RawTerm` contract. A
//! regression here means per-terminal `String` clones or per-sample hook
//! closures crept back in.

use o4a_core::FrontendValidator;
use o4a_llm::corpus::corpus;
use o4a_llm::{construct_generators, ConstructOptions, LlmProfile, SimulatedLlm, Validator};
use o4a_solvers::SolverId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter (reallocs count: a
/// buffer grown token by token is the regression this test exists for).
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

/// Pinned budget: mean allocations per sample over every corrected gpt4
/// generator. Measured 9.0 when the compiled deriver landed, against 323.8
/// for the closure-map deriver it replaced; the pin is twice the former.
const PER_SAMPLE_BUDGET: u64 = 18;

#[test]
fn generate_allocations_stay_under_budget() {
    let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
    let mut validators: Vec<Box<dyn Validator>> = vec![
        Box::new(FrontendValidator::new(SolverId::OxiZ)),
        Box::new(FrontendValidator::new(SolverId::Cervo)),
    ];
    let report = construct_generators(
        &mut llm,
        &corpus(),
        &mut validators,
        ConstructOptions::default(),
    );
    assert_eq!(report.generators.len(), 10, "one generator per theory");

    const SAMPLES: u64 = 200;
    let mut samples = 0u64;
    let mut allocs = 0u64;
    for (g, gen) in report.generators.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(g as u64);
        // Warmup: nothing in `generate` is recycled across samples, but
        // the first calls may touch lazily initialized state.
        for _ in 0..10 {
            let _ = gen.program.generate(&mut rng);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..SAMPLES {
            let _ = gen.program.generate(&mut rng);
        }
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        samples += SAMPLES;
    }
    let per_sample = allocs as f64 / samples as f64;
    eprintln!("allocations per generate sample: {per_sample:.1}");
    assert!(
        per_sample <= PER_SAMPLE_BUDGET as f64,
        "generate allocates {per_sample:.1}/sample (budget {PER_SAMPLE_BUDGET})"
    );
}

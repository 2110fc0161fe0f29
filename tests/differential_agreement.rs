//! The load-bearing soundness property of the whole reproduction: with
//! seeded bugs disabled, the two independently implemented solvers can
//! never produce a sat/unsat conflict, and every `sat` model passes golden
//! re-evaluation. This is what makes "discrepancy ⇒ seeded defect" valid
//! in all bug-finding experiments.

use once4all::core::{model_satisfies, Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::smtlib::parse_script;
use once4all::solvers::{
    solver_with_config, EngineConfig, Outcome, SolverId, SolverResponse, TRUNK_COMMIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn clean_engine() -> EngineConfig {
    EngineConfig {
        bugs_enabled: false,
        ..EngineConfig::default()
    }
}

/// Asserts the three agreement properties on one case's responses.
fn assert_agreement(text: &str, a: &SolverResponse, b: &SolverResponse) {
    // 1. No sat/unsat conflict, ever.
    let conflict = matches!(
        (&a.outcome, &b.outcome),
        (Outcome::Sat, Outcome::Unsat) | (Outcome::Unsat, Outcome::Sat)
    );
    assert!(
        !conflict,
        "clean solvers conflict ({} vs {}) on:\n{text}",
        a.outcome, b.outcome
    );

    // 2. No crashes without seeded bugs.
    assert!(!matches!(a.outcome, Outcome::Crash(_)), "{text}");
    assert!(!matches!(b.outcome, Outcome::Crash(_)), "{text}");

    // 3. Every sat model re-evaluates to true (or undecidable — never
    //    decidably false).
    if let Ok(script) = parse_script(text) {
        for (resp, name) in [(a, "oxiz"), (b, "cervo")] {
            if resp.outcome == Outcome::Sat {
                if let Some(model) = &resp.model {
                    let ok = model_satisfies(&script, model);
                    assert_ne!(
                        ok,
                        Some(false),
                        "{name} returned an invalid model without bugs on:\n{text}"
                    );
                }
            }
        }
    }
}

/// Generates a corpus of Once4All-style cases from a seed and checks the
/// agreement property on each, with fresh solvers per case.
fn check_agreement_for_stream(stream_seed: u64, cases: usize) {
    let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
    let mut rng = StdRng::seed_from_u64(stream_seed);
    fuzzer.setup(&mut rng);
    for _ in 0..cases {
        let text = fuzzer.next_case(&mut rng).text;
        let mut oz = solver_with_config(SolverId::OxiZ, TRUNK_COMMIT, clean_engine());
        let mut cv = solver_with_config(SolverId::Cervo, TRUNK_COMMIT, clean_engine());
        let a = oz.check(&text);
        let b = cv.check(&text);
        assert_agreement(&text, &a, &b);
    }
}

#[test]
fn solvers_agree_on_once4all_stream() {
    check_agreement_for_stream(0xa9e1, 120);
}

#[test]
fn solvers_agree_on_baseline_streams() {
    use once4all::baselines::all_baselines;
    for mut fuzzer in all_baselines() {
        let mut rng = StdRng::seed_from_u64(0xba5e);
        fuzzer.setup(&mut rng);
        for _ in 0..25 {
            let case = fuzzer.next_case(&mut rng);
            let mut oz = solver_with_config(SolverId::OxiZ, TRUNK_COMMIT, clean_engine());
            let mut cv = solver_with_config(SolverId::Cervo, TRUNK_COMMIT, clean_engine());
            let a = oz.check(&case.text).outcome;
            let b = cv.check(&case.text).outcome;
            let conflict = matches!(
                (&a, &b),
                (Outcome::Sat, Outcome::Unsat) | (Outcome::Unsat, Outcome::Sat)
            );
            assert!(
                !conflict,
                "{}: clean solvers conflict ({a} vs {b}) on:\n{}",
                fuzzer.name(),
                case.text
            );
        }
    }
}

/// Property: agreement holds across arbitrary fuzzer RNG streams.
///
/// Formerly a proptest strategy (`seed in 0u64..1_000_000`, 16 cases); the
/// offline environment has no crates.io access, so the streams are drawn
/// from the vendored seeded RNG instead.
#[test]
fn agreement_across_streams() {
    use rand::Rng;
    let mut meta = StdRng::seed_from_u64(0xd1ff);
    for _ in 0..16 {
        check_agreement_for_stream(meta.gen_range(0u64..1_000_000), 8);
    }
}

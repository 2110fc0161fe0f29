//! Golden response sweep for the in-process engines.
//!
//! Generates a fixed stream of Once4All cases and runs OxiZ and Cervo on
//! each, at the default engine budget and at the tight benchmark budget
//! (30 assignments, 4000 evaluation steps), with seeded bugs on. Every
//! `(outcome, model, SolveStats, per-case coverage)` is folded into one
//! FNV-1a digest that must equal a constant captured before the engines
//! were last optimised: any change to what a solver answers, how much
//! search it charges, or which coverage points a case hits shows up here.
//! Half the cases go through `SmtSolver::check` and half through
//! `SmtSolver::check_parsed` on a frontend pass shared by both solvers.

use once4all::core::{Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::solvers::features::fnv1a;
use once4all::solvers::{
    solver_with_config, EngineConfig, Outcome, Parsed, SmtSolver, SolverId, SolverResponse,
    TRUNK_COMMIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: usize = 1000;
const STREAM_SEED: u64 = 0x601d;
const GOLDEN_DIGEST: u64 = 0x57a2_14e5_a154_7c41;

fn budgets() -> [EngineConfig; 2] {
    [
        EngineConfig::default(),
        EngineConfig {
            max_assignments: 30,
            eval_budget: 4_000,
            ..EngineConfig::default()
        },
    ]
}

fn generate_cases() -> Vec<String> {
    let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    fuzzer.setup(&mut rng);
    (0..CASES)
        .map(|_| fuzzer.next_case(&mut rng).text)
        .collect()
}

/// Appends one response and the coverage its case hit to the digest input.
fn record(out: &mut String, solver: &dyn SmtSolver, response: &SolverResponse) {
    let s = response.stats;
    out.push_str(&format!(
        "{}|{}|{} {} {}|",
        response.outcome,
        response
            .model
            .as_ref()
            .map(|m| m.to_string())
            .unwrap_or_default(),
        s.steps,
        s.assignments_tried,
        s.virtual_micros,
    ));
    for (name, mask) in solver.coverage().export(solver.universe()) {
        out.push_str(&format!("{name}:{mask:x},"));
    }
    out.push('\n');
}

#[test]
fn engine_responses_match_golden_digest() {
    let cases = generate_cases();
    let mut transcript = String::new();
    let mut sat = 0;
    let mut rejected = 0;
    for engine in budgets() {
        let mut solvers: Vec<Box<dyn SmtSolver>> = SolverId::ALL
            .iter()
            .map(|&id| solver_with_config(id, TRUNK_COMMIT, engine.clone()))
            .collect();
        for (i, text) in cases.iter().enumerate() {
            // Odd cases share one frontend pass between both solvers, as a
            // campaign does; even cases go through the text entry point.
            let parsed = Parsed::new(text);
            for solver in solvers.iter_mut() {
                solver.reset_coverage();
                let response = if i % 2 == 0 {
                    solver.check(text)
                } else {
                    solver.check_parsed(text, &parsed)
                };
                sat += usize::from(response.outcome == Outcome::Sat);
                rejected += usize::from(matches!(response.outcome, Outcome::ParseError(_)));
                record(&mut transcript, solver.as_ref(), &response);
            }
        }
    }
    // The stream must exercise the search, not just the frontend.
    assert!(sat > CASES / 4, "only {sat} sat responses");
    let responses = 2 * SolverId::ALL.len() * CASES;
    assert!(
        rejected < responses / 2,
        "{rejected} of {responses} rejected"
    );
    let digest = fnv1a(transcript.as_bytes());
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "engine responses changed: digest {digest:#018x}"
    );
}

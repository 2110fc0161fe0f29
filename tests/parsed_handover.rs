//! The frontend pass a fuzzer hands over in `TestCase::parsed` is the one
//! the campaign would have computed from the text.
//!
//! Once4All (with and without skeletons) and HistFuzz build their cases on
//! a term arena and fill `TestCase::parsed` through `Parsed::from_arena`
//! instead of leaving the campaign to parse the printed text. This sweep
//! draws cases from all three on several seeds and requires
//! `case.parsed == Some(Parsed::new(&case.text))`: the same stage (sort
//! check verdict and message), both solvers' theory-gate verdicts, the
//! features (hash included), the coverage facts and the boxed script.
//! HistFuzz's mined atoms bring sort errors and theory-gate failures into
//! the sweep.
//!
//! A `Parsed` keeps the case in arena form and boxes the script at most
//! once, on demand: the box equals `parse_script` of the text, equality
//! ignores whether either side has boxed, and a case the oracle judges
//! without a `sat` model is never boxed.

use once4all::baselines::HistFuzz;
use once4all::core::{judge_parsed, Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::smtlib::parse_script;
use once4all::solvers::coverage::universe;
use once4all::solvers::{
    solver_with_config, CoverageMap, EngineConfig, Frontend, Outcome, Parsed, SolverId,
    TRUNK_COMMIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 4] = [1, 0x5eed, 0xbeef, 2026];
const CASES_PER_SEED: usize = 270;

#[test]
fn handed_over_parse_equals_parsing_the_text() {
    let mut fuzzers: Vec<Box<dyn Fuzzer>> = vec![
        Box::new(Once4AllFuzzer::new(Once4AllConfig::default())),
        Box::new(Once4AllFuzzer::new(Once4AllConfig {
            use_skeletons: false,
            ..Once4AllConfig::default()
        })),
        Box::new(HistFuzz::new()),
    ];
    let (mut cases, mut sort_errors, mut gate_failures) = (0, 0, 0);
    for fuzzer in &mut fuzzers {
        // Generator construction ignores the RNG, so one setup serves
        // every seed; each seed then draws its own stream.
        fuzzer.setup(&mut StdRng::seed_from_u64(0));
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..CASES_PER_SEED {
                let case = fuzzer.next_case(&mut rng);
                let handed = case
                    .parsed
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} handed over no parse", fuzzer.name()));
                let parsed = Parsed::new(&case.text);
                assert!(
                    *handed == parsed,
                    "{} seed {seed}: handed-over parse differs on {}\nhanded over: {handed:?}\nparsed: {parsed:?}",
                    fuzzer.name(),
                    case.text,
                );
                // The box is built on demand and equals the boxed parse;
                // equality ignores which side has boxed.
                assert!(!handed.is_boxed() && !parsed.is_boxed());
                assert_eq!(handed.script(), parse_script(&case.text).ok().as_ref());
                assert!(handed.is_boxed() && !parsed.is_boxed());
                assert!(*handed == parsed);
                cases += 1;
                for id in SolverId::ALL {
                    let verdict = Frontend::new(id).analyze_parsed(
                        handed,
                        universe(id),
                        &mut CoverageMap::new(),
                    );
                    match verdict {
                        Err(e) if e.contains("not supported") => gate_failures += 1,
                        Err(_) => sort_errors += 1,
                        Ok(_) => {}
                    }
                }
            }
        }
    }
    assert!(cases >= 3000, "only {cases} cases");
    assert!(sort_errors > 0, "the sweep met no sort error");
    assert!(gate_failures > 0, "the sweep met no theory-gate failure");
}

fn assert_send<T: Send>(_: &T) {}

#[test]
fn only_a_sat_model_boxes_the_judged_case() {
    let config = EngineConfig {
        max_assignments: 30,
        eval_budget: 4000,
        ..EngineConfig::default()
    };
    let mut solvers: Vec<_> = SolverId::ALL
        .into_iter()
        .map(|id| solver_with_config(id, TRUNK_COMMIT, config.clone()))
        .collect();
    let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
    let mut rng = StdRng::seed_from_u64(0x1a2b);
    fuzzer.setup(&mut rng);
    let (mut boxed, mut unboxed) = (0, 0);
    for _ in 0..300 {
        let case = fuzzer.next_case(&mut rng);
        let parsed = case.parsed.expect("Once4All hands its parse over");
        assert_send(&parsed);
        let responses: Vec<_> = solvers
            .iter_mut()
            .map(|s| (s.id(), s.check_parsed(&case.text, &parsed)))
            .collect();
        assert!(!parsed.is_boxed(), "solving boxed the case: {}", case.text);
        judge_parsed(&parsed, &responses);
        let crashed = responses
            .iter()
            .any(|(_, r)| matches!(r.outcome, Outcome::Crash(_)));
        let sat_model = responses
            .iter()
            .any(|(_, r)| r.outcome == Outcome::Sat && r.model.is_some());
        assert_eq!(
            parsed.is_boxed(),
            sat_model && !crashed,
            "judging boxed wrongly: {}",
            case.text
        );
        if parsed.is_boxed() {
            boxed += 1;
        } else {
            unboxed += 1;
        }
    }
    assert!(boxed > 0 && unboxed > 0, "{boxed} boxed, {unboxed} not");
}

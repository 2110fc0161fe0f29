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
//!
//! Its analysis is lazy too: building a `Parsed` walks and sort-checks
//! nothing; the walk runs on the first `features()` or `analyze_parsed`,
//! the sort check on the first `analyze_parsed`, in either order with the
//! same results. An unanalysed case judges like an analysed one, and a
//! piped campaign never sort-checks.

use once4all::baselines::HistFuzz;
use once4all::core::{judge_parsed, CampaignConfig, Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::exec::{run_shard_piped, PipeBackend};
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
                let ((case, parsed), ran) = analyses_during(|| {
                    let case = fuzzer.next_case(&mut rng);
                    let parsed = Parsed::new(&case.text);
                    (case, parsed)
                });
                assert_eq!(ran, (0, 0), "building a Parsed analysed it");
                let handed = case
                    .parsed
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} handed over no parse", fuzzer.name()));
                assert_walk_and_check_commute(handed);
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

/// Forcing the lazy analysis through `features()` first (the walk alone,
/// as a piped finding does) or through `analyze_parsed` first (walk and
/// sort check, as an in-process engine does) gives identical features,
/// verdicts and coverage. Works on clones, so `parsed` stays unanalysed.
fn assert_walk_and_check_commute(parsed: &Parsed) {
    let (walk_first, check_first) = (parsed.clone(), parsed.clone());
    let (features, ran) = analyses_during(|| walk_first.features().clone());
    assert_eq!(ran, (1, 0), "features() runs the walk alone");
    let analyze_all = |p| {
        SolverId::ALL.map(|id| {
            let mut cov = CoverageMap::new();
            let verdict = format!(
                "{:?}",
                Frontend::new(id).analyze_parsed(p, universe(id), &mut cov)
            );
            (verdict, cov.export(universe(id)))
        })
    };
    let (after_walk, ran) = analyses_during(|| analyze_all(&walk_first));
    assert_eq!(ran, (0, 1), "analyze_parsed reran the walk");
    let (first, ran) = analyses_during(|| analyze_all(&check_first));
    assert_eq!(ran, (1, 1), "analyze_parsed runs both, once");
    assert_eq!(after_walk, first);
    assert_eq!(*check_first.features(), features);
    assert!(walk_first == check_first);
}

/// `f`'s result, and how many case walks and sort checks it ran.
fn analyses_during<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (walks, checks) = Parsed::analyses_on_this_thread();
    let out = f();
    let (w, c) = Parsed::analyses_on_this_thread();
    (out, (w - walks, c - checks))
}

fn assert_send<T: Send>(_: &T) {}

/// A lane script for [`a_piped_campaign_never_sort_checks`]: lane 0
/// answers `sat` (with an empty model) and lane 1 `unsat`, so the oracle
/// flags every case both accept.
const DISAGREEING_LANE: &str = r#"while read -r line; do
    case "$line" in
        "(check-sat)") if [ "$1" = 0 ]; then echo sat; else echo unsat; fi;;
        "(get-model)") echo "(model )";;
    esac
done
"#;

/// Against external solvers nothing sort-checks a case, and only the
/// cases whose verdict is a bug are walked, for their finding's features.
#[test]
fn a_piped_campaign_never_sort_checks() {
    let dir = std::env::temp_dir().join(format!("o4a-handover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the script dir");
    let script = dir.join("lane.sh");
    std::fs::write(&script, DISAGREEING_LANE).expect("write the lane script");
    let backend = PipeBackend::new(format!("sh {} {{lane}}", script.display()));
    let config = CampaignConfig {
        virtual_hours: 1,
        time_scale: 1,
        max_cases: 60,
        ..CampaignConfig::default()
    };
    let (result, (walks, checks)) = analyses_during(|| {
        run_shard_piped(
            &mut Once4AllFuzzer::with_defaults(),
            &config,
            0,
            None,
            4,
            &backend,
        )
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(result.stats.cases, 60);
    assert_eq!(checks, 0, "a piped campaign sort-checked");
    assert!(result.stats.bug_triggering > 0, "the probe is vacuous");
    assert_eq!(walks, result.stats.bug_triggering);
}

/// Solving never boxes a case and judging boxes it exactly when some
/// non-crash response is `sat` with a model. A twin the solvers never
/// analysed (the piped path) judges to the same verdict and boxes alike,
/// and judging runs no analysis.
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
        // The piped path's twin: no in-process engine analyses it.
        let unanalysed = parsed.clone();
        let (responses, ran) = analyses_during(|| {
            solvers
                .iter_mut()
                .map(|s| (s.id(), s.check_parsed(&case.text, &parsed)))
                .collect::<Vec<_>>()
        });
        assert_eq!(ran, (1, 1), "solving analyses once: {}", case.text);
        assert!(!parsed.is_boxed(), "solving boxed the case: {}", case.text);
        let (verdicts, ran) = analyses_during(|| {
            (
                judge_parsed(&parsed, &responses),
                judge_parsed(&unanalysed, &responses),
            )
        });
        assert_eq!(ran, (0, 0), "judging analysed: {}", case.text);
        assert_eq!(verdicts.0, verdicts.1, "{}", case.text);
        assert_eq!(unanalysed.is_boxed(), parsed.is_boxed(), "{}", case.text);
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

//! Golden digest over the term substrate: mutation, parsing, sort checking
//! and the solver frontends.
//!
//! Generates a fixed stream of cases from Once4All (with and without
//! skeletons) and from all eight baselines, then runs each case text
//! through both solver frontends (`Frontend::analyze` with its coverage
//! export, and `Frontend::validate`) and through `typeck::check_script`.
//! Everything is folded into one FNV-1a digest that must equal a constant
//! captured before the boxed twins of the skeleton/fill pipeline, the sort
//! checker and the theory gate were deleted: any change to a generated
//! case, an accepted script, an error message or a coverage point shows up
//! here.

use once4all::baselines::all_baselines;
use once4all::core::{Fuzzer, Once4AllConfig, Once4AllFuzzer};
use once4all::smtlib::{parse_script, typeck};
use once4all::solvers::coverage::universe;
use once4all::solvers::features::fnv1a;
use once4all::solvers::{CoverageMap, Frontend, SolverId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES_PER_FUZZER: usize = 250;
const STREAM_SEED: u64 = 0x5b57;
const GOLDEN_DIGEST: u64 = 0x2571_4e27_b1a3_73bd;

fn fuzzers() -> Vec<Box<dyn Fuzzer>> {
    let mut out: Vec<Box<dyn Fuzzer>> = vec![
        Box::new(Once4AllFuzzer::new(Once4AllConfig::default())),
        Box::new(Once4AllFuzzer::new(Once4AllConfig {
            use_skeletons: false,
            ..Once4AllConfig::default()
        })),
    ];
    out.extend(all_baselines());
    out
}

/// Appends one case text and every frontend verdict on it.
fn record(out: &mut String, text: &str) {
    out.push_str(text);
    out.push('\n');
    for solver in SolverId::ALL {
        let u = universe(solver);
        let frontend = Frontend::new(solver);
        let mut cov = CoverageMap::new();
        let analyzed = frontend.analyze(text, &u, &mut cov);
        out.push_str(&format!("{solver} analyze {analyzed:?}\n"));
        for (name, mask) in cov.export(&u) {
            out.push_str(&format!("{name}:{mask:x},"));
        }
        out.push_str(&format!(
            "\n{solver} validate {:?}\n",
            frontend.validate(text)
        ));
    }
    let checked = match parse_script(text) {
        Ok(script) => match typeck::check_script(&script) {
            Ok(ctx) => format!("ok {ctx:?}"),
            Err(e) => format!("sort error: {e}"),
        },
        Err(e) => format!("parse error: {e}"),
    };
    out.push_str(&format!("typeck {checked}\n"));
}

#[test]
fn substrate_outputs_match_golden_digest() {
    let mut transcript = String::new();
    let mut valid = 0;
    for mut fuzzer in fuzzers() {
        let mut rng = StdRng::seed_from_u64(STREAM_SEED);
        fuzzer.setup(&mut rng);
        transcript.push_str(&format!("== {}\n", fuzzer.name()));
        for _ in 0..CASES_PER_FUZZER {
            let text = fuzzer.next_case(&mut rng).text;
            valid += usize::from(Frontend::new(SolverId::Cervo).validate(&text).is_ok());
            record(&mut transcript, &text);
        }
    }
    // The stream must reach the checkers' accepting paths, not just errors.
    let total = 10 * CASES_PER_FUZZER;
    assert!(valid > total / 2, "only {valid} of {total} cases valid");
    let digest = fnv1a(transcript.as_bytes());
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "substrate outputs changed: digest {digest:#018x}"
    );
}

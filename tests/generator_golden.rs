//! Golden digest over every grammar generator's samples.
//!
//! Covers, for each LLM profile (gpt4, gemini, claude) × each corpus
//! theory:
//!
//! - the *unrepaired* program straight from `implement_generator` (Table 3's
//!   validity-before is measured on it);
//! - the corrected programs from `construct_generators`, with each
//!   generator's `validity_before`, `validity_after` and `iterations`
//!   (construction samples 2,480 times per profile, so these pin the
//!   construction-time stream too);
//!
//! plus the ET baseline's enumeration, one grammar whose derivation reaches
//! an undefined hook and one that runs into the step limit. Samples are
//! drawn from one shared RNG per generator, as construction draws them, and
//! the RNG state after every sample — errors included — is folded in: an
//! error raised earlier or later than before shifts every later draw.
//!
//! The digest was captured before the deriver was compiled to indexed
//! rules; any change to a sample's text, an error or an RNG draw moves it.

use once4all::baselines::Et;
use once4all::core::{FrontendValidator, Fuzzer};
use once4all::grammar::Grammar;
use once4all::llm::corpus::corpus;
use once4all::llm::{
    construct_generators, ConstructOptions, GeneratorProgram, LlmProfile, SimulatedLlm, Validator,
};
use once4all::smtlib::Theory;
use once4all::solvers::features::fnv1a;
use once4all::solvers::SolverId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write;

const SAMPLES_PER_GENERATOR: usize = 200;
const ET_CASES: usize = 300;
const GOLDEN_DIGEST: u64 = 0xf3aa_cc3f_15d9_8a15;

fn profiles() -> [LlmProfile; 3] {
    [
        LlmProfile::gpt4(),
        LlmProfile::gemini(),
        LlmProfile::claude(),
    ]
}

/// Appends `n` samples drawn from one RNG, each followed by the next draw
/// of a clone of the RNG (its state after the sample, error or not).
fn record_samples(out: &mut String, program: &GeneratorProgram, seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        match program.generate(&mut rng) {
            Ok(raw) => {
                for d in &raw.decls {
                    out.push_str(d);
                    out.push('\n');
                }
                out.push_str(&raw.term);
            }
            Err(e) => {
                let _ = write!(out, "error: {e}");
            }
        }
        let _ = writeln!(out, " @{:x}", rng.clone().next_u64());
    }
}

#[test]
fn generator_samples_match_golden_digest() {
    let mut transcript = String::new();
    let docs = corpus();
    for profile in profiles() {
        let name = profile.kind.name();
        // Unrepaired programs, one fresh LLM per theory so each is the
        // program construction starts from.
        for (t, doc) in docs.iter().enumerate() {
            let mut llm = SimulatedLlm::new(profile.clone());
            let cfg = llm.summarize_cfg(doc);
            let _ = writeln!(transcript, "== {name} unrepaired {}", doc.theory);
            match llm.implement_generator(doc.theory, &cfg) {
                Ok(program) => {
                    let _ = writeln!(transcript, "flaws {:?}", program.flaws);
                    record_samples(
                        &mut transcript,
                        &program,
                        0x9e1 + t as u64,
                        SAMPLES_PER_GENERATOR,
                    );
                }
                Err(e) => {
                    let _ = writeln!(transcript, "implement error: {e}");
                }
            }
        }
        // Corrected programs and their construction statistics.
        let mut llm = SimulatedLlm::new(profile.clone());
        let mut validators: Vec<Box<dyn Validator>> = vec![
            Box::new(FrontendValidator::new(SolverId::OxiZ)),
            Box::new(FrontendValidator::new(SolverId::Cervo)),
        ];
        let report = construct_generators(
            &mut llm,
            &docs,
            &mut validators,
            ConstructOptions::default(),
        );
        for (g, gen) in report.generators.iter().enumerate() {
            let _ = writeln!(
                transcript,
                "== {name} corrected {} before {:?} after {:?} iterations {} revision {} flaws {:?}",
                gen.program.theory,
                gen.validity_before,
                gen.validity_after,
                gen.iterations,
                gen.program.revision,
                gen.program.flaws,
            );
            transcript.push_str(&gen.program.grammar.to_bnf());
            record_samples(
                &mut transcript,
                &gen.program,
                0x5a7 + g as u64,
                SAMPLES_PER_GENERATOR,
            );
        }
    }

    transcript.push_str("== ET\n");
    let mut et = Et::new();
    let mut rng = StdRng::seed_from_u64(0xe7);
    for _ in 0..ET_CASES {
        transcript.push_str(&et.next_case(&mut rng).text);
        transcript.push('\n');
    }

    // A leaf no hook resolves: some samples reach it, the rest succeed.
    let undefined = Grammar::parse_bnf(
        "<BoolTerm> ::= (= <IntTerm> <IntTerm>) | (not <BoolTerm>) | <bool-var>\n\
         <IntTerm> ::= <int-const> | <int-var> | (+ <IntTerm> <IntTerm>) | <mystery-leaf>",
    )
    .expect("grammar parses");
    let program = GeneratorProgram::new(Theory::Ints, undefined, BTreeSet::new());
    transcript.push_str("== undefined hook\n");
    record_samples(&mut transcript, &program, 0xbad, SAMPLES_PER_GENERATOR);

    // A grammar that branches more than it terminates: with the depth cap
    // out of reach, most derivations hit the step limit.
    let explosive = Grammar::parse_bnf(
        "<BoolTerm> ::= (and <BoolTerm> <BoolTerm>) | (or <BoolTerm> <BoolTerm> <BoolTerm>) \
         | <bool-var>",
    )
    .expect("grammar parses");
    let mut program = GeneratorProgram::new(Theory::Core, explosive, BTreeSet::new());
    program.max_depth = 60;
    transcript.push_str("== step limit\n");
    record_samples(&mut transcript, &program, 0x5e9, SAMPLES_PER_GENERATOR);

    assert!(transcript.contains("error: undefined nonterminal <mystery-leaf>"));
    assert!(transcript.contains("error: derivation step limit exceeded"));
    let digest = fnv1a(transcript.as_bytes());
    assert_eq!(
        digest,
        GOLDEN_DIGEST,
        "generator samples drifted: digest {digest:#018x} over {} bytes",
        transcript.len()
    );
}

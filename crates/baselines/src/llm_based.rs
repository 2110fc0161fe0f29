//! LLM-based baselines: Fuzz4All and LaST.
//!
//! * **Fuzz4All** (Xia et al., ICSE 2024) prompts an LLM for *complete
//!   formulas*, paying a full model request per input and living with
//!   ~50% syntactic invalidity. Simulated as sampling from
//!   freshly-synthesized (uncorrected) generators with per-case LLM
//!   latency.
//! * **LaST** (Sun et al., ASE 2023) is a *retrained* LM: better validity
//!   (~80%) and no per-request remote latency, but its training
//!   distribution is the historical seed corpus — standard theories only,
//!   modest structural novelty. Simulated as grammar resampling over
//!   seed-derived structure.

use crate::common::{random_seed, seed_pool, swap_ops, typed_subterms};
use o4a_core::{Fuzzer, TestCase};
use o4a_llm::{ConstructOptions, LlmProfile, SimulatedLlm};
use o4a_smtlib::{Script, Sort, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Fuzz4All baseline: direct whole-formula generation by an LLM.
pub struct Fuzz4All {
    programs: Vec<o4a_llm::GeneratorProgram>,
    latency_micros: u64,
}

impl Fuzz4All {
    /// Creates the fuzzer (generator programs are drawn in setup).
    pub fn new() -> Fuzz4All {
        Fuzz4All {
            programs: Vec::new(),
            latency_micros: LlmProfile::gpt4().request_latency_micros,
        }
    }
}

impl Default for Fuzz4All {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for Fuzz4All {
    fn name(&self) -> String {
        "Fuzz4All".into()
    }

    fn setup(&mut self, _rng: &mut StdRng) -> u64 {
        // Autoprompting: a couple of requests to distill the system prompt.
        let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
        let docs = o4a_llm::corpus::corpus();
        for doc in &docs {
            // Fuzz4All does not run self-correction: it samples raw model
            // output. We keep the *uncorrected* generator programs as its
            // output distribution (≈50% invalid, as the paper reports).
            let bnf = llm.summarize_cfg(doc);
            if let Ok(p) = llm.implement_generator(doc.theory, &bnf) {
                self.programs.push(p);
            }
        }
        let _ = ConstructOptions::default();
        llm.spent_micros
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        // One LLM request per generated input: the recurring cost the paper
        // criticizes.
        let mut text = String::new();
        if !self.programs.is_empty() {
            let p = &self.programs[rng.gen_range(0..self.programs.len())];
            let mut sample_rng = StdRng::seed_from_u64(rng.gen());
            let mut decls: Vec<String> = Vec::new();
            let mut asserts: Vec<String> = Vec::new();
            for _ in 0..rng.gen_range(1..=2) {
                if let Ok(raw) = p.generate(&mut sample_rng) {
                    for d in raw.decls {
                        if !decls.contains(&d) {
                            decls.push(d);
                        }
                    }
                    asserts.push(format!("(assert {})", raw.term));
                }
            }
            text = decls.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            text.push_str(&asserts.join("\n"));
            text.push_str("\n(check-sat)");
        }
        if text.is_empty() {
            text = "(assert true)\n(check-sat)".into();
        }
        TestCase {
            gen_micros: self.latency_micros + text.len() as u64,
            text,
            parsed: None,
        }
    }
}

/// The LaST baseline: a retrained language model resampling seed-like
/// structure.
pub struct LaST {
    seeds: Vec<Script>,
}

impl LaST {
    /// Creates the fuzzer over the shared seed pool.
    pub fn new() -> LaST {
        LaST { seeds: seed_pool() }
    }
}

impl Default for LaST {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzzer for LaST {
    fn name(&self) -> String {
        "LaST".into()
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let mut script = random_seed(&self.seeds, rng);
        // The retrained model interpolates between seeds: operator
        // resampling plus occasional constant perturbation, with a
        // characteristic ~20% ill-formed tail.
        let swaps = rng.gen_range(1..=4);
        for term in script.assertions_mut() {
            *term = swap_ops(term, swaps, rng);
            *term = term.map_bottom_up(&mut |node| match node {
                Term::Const(o4a_smtlib::Value::Int(i)) if rng.gen_bool(0.3) => {
                    Term::int(i + rng.gen_range(-2..=2))
                }
                other => other,
            });
        }
        let mut text = script.to_string();
        // LM hallucination tail: ~18% of outputs get a token-level defect.
        if rng.gen_bool(0.18) {
            let subs = typed_subterms(&script);
            if let Some((t, _)) = subs
                .iter()
                .find(|(_, s)| matches!(s, Sort::Int | Sort::Bool))
            {
                // Reference an undeclared identifier, the classic LM slip.
                text = text.replacen(&t.to_string(), "undeclared_sym", 1);
            }
        }
        TestCase {
            gen_micros: 900 + text.len() as u64, // local model inference cost
            text,
            parsed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validity(fuzzer: &mut dyn Fuzzer, n: usize) -> f64 {
        let mut setup_rng = StdRng::seed_from_u64(0);
        fuzzer.setup(&mut setup_rng);
        let mut rng = StdRng::seed_from_u64(13);
        let mut ok = 0;
        for _ in 0..n {
            let case = fuzzer.next_case(&mut rng);
            if o4a_smtlib::parse_script(&case.text)
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    o4a_smtlib::typeck::check_script(&s)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
                .is_ok()
            {
                ok += 1;
            }
        }
        ok as f64 / n as f64
    }

    #[test]
    fn fuzz4all_validity_is_mediocre() {
        // The paper reports ≈50% invalid for direct LLM generation.
        let v = validity(&mut Fuzz4All::new(), 120);
        assert!(v < 0.8, "Fuzz4All validity {v} suspiciously high");
        assert!(v > 0.15, "Fuzz4All validity {v} suspiciously low");
    }

    #[test]
    fn fuzz4all_pays_latency_per_case() {
        let mut f = Fuzz4All::new();
        let mut rng = StdRng::seed_from_u64(0);
        f.setup(&mut rng);
        let case = f.next_case(&mut rng);
        assert!(case.gen_micros >= 1_000_000, "per-case LLM latency missing");
    }

    #[test]
    fn last_validity_is_high_but_imperfect() {
        let v = validity(&mut LaST::new(), 120);
        assert!(v > 0.6, "LaST validity {v} too low");
        assert!(v < 0.98, "LaST validity {v} too perfect");
    }

    #[test]
    fn last_stays_in_standard_theories() {
        let mut f = LaST::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let case = f.next_case(&mut rng);
            assert!(!case.text.contains("ff."));
            assert!(!case.text.contains("set."));
        }
    }
}

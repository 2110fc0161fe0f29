//! The `Fuzzer` plugin interface and the Once4All fuzzer itself
//! (Algorithm 2's main loop).

use crate::fill::{adapt_fill_arena, parse_fill_into, synthesize_arena, ArenaFill};
use crate::seeds::parsed_seeds;
use crate::skeleton::{skeletonize_arena, ArenaSkeleton, SkeletonConfig};
use o4a_llm::{
    construct_generators, ConstructOptions, ConstructionReport, CorrectedGenerator, LlmProfile,
    SimulatedLlm, Validator,
};
use o4a_smtlib::{ArenaScript, Script, TermArena};
use o4a_solvers::{Frontend, Parsed, SolverId};
use rand::rngs::StdRng;
use rand::Rng;

/// One generated test case: SMT-LIB text plus the virtual cost of
/// producing it (LLM-per-input fuzzers are expensive here; Once4All is
/// nearly free after setup).
#[derive(Clone, Debug)]
pub struct TestCase {
    /// The SMT-LIB script text.
    pub text: String,
    /// Virtual microseconds spent generating it.
    pub gen_micros: u64,
    /// The case's frontend pass, handed over by a fuzzer that built the
    /// case on a term arena ([`Parsed::from_arena`]) so the campaign need
    /// not parse `text` back. When present it equals
    /// `Parsed::new(&text)`; `None` (text-only fuzzers) makes the
    /// campaign run [`Parsed::new`] itself.
    pub parsed: Option<Parsed>,
}

/// A fuzzer plugin: Once4All, its variants, and all baselines implement
/// this, so the campaign runner compares them under identical protocol.
pub trait Fuzzer {
    /// Display name used in figures and tables.
    fn name(&self) -> String;
    /// One-time setup; returns virtual microseconds consumed (e.g. the LLM
    /// generator-construction investment).
    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        let _ = rng;
        0
    }
    /// Produces the next test case.
    fn next_case(&mut self, rng: &mut StdRng) -> TestCase;
}

/// A generator-construction validator backed by a real solver frontend —
/// what Algorithm 1 plugs in for `Parse(t)`.
pub struct FrontendValidator {
    solver: SolverId,
}

impl FrontendValidator {
    /// Creates a validator for one solver's frontend.
    pub fn new(solver: SolverId) -> FrontendValidator {
        FrontendValidator { solver }
    }
}

impl Validator for FrontendValidator {
    fn name(&self) -> &str {
        self.solver.name()
    }

    fn validate(&mut self, script_text: &str) -> Result<(), String> {
        Frontend::new(self.solver).validate(script_text)
    }
}

/// Configuration of the Once4All fuzzer.
#[derive(Clone, Debug)]
pub struct Once4AllConfig {
    /// Mutation iterations applied per selected seed (paper: 10).
    pub mutations_per_seed: usize,
    /// Skeleton extraction tuning.
    pub skeleton: SkeletonConfig,
    /// When false, skeletons are disabled and test cases are plain
    /// conjunctions of generated terms — the `Once4All w/oS` ablation.
    pub use_skeletons: bool,
    /// LLM profile used for generator construction.
    pub profile: LlmProfile,
    /// Maximum fills per skeleton.
    pub max_fills: usize,
}

impl Default for Once4AllConfig {
    fn default() -> Self {
        Once4AllConfig {
            mutations_per_seed: 10,
            skeleton: SkeletonConfig::default(),
            use_skeletons: true,
            profile: LlmProfile::gpt4(),
            max_fills: 2,
        }
    }
}

/// The Once4All fuzzer: skeleton-guided mutation with LLM-synthesized
/// generators.
pub struct Once4AllFuzzer {
    config: Once4AllConfig,
    seeds: Vec<Script>,
    generators: Vec<CorrectedGenerator>,
    construction: Option<ConstructionReport>,
    /// The per-fuzzer term arena; reset whenever a fresh seed is loaded.
    arena: TermArena,
    current: Option<ArenaScript>,
    iterations_left: usize,
    cases_emitted: u64,
    invalid_fills: u64,
    total_fills: u64,
    /// Reusable print buffer — cases are rendered into it and cloned out,
    /// so the printer never reallocates once it has grown to steady state.
    print_buf: String,
}

impl Once4AllFuzzer {
    /// Creates the fuzzer with a configuration; generators are synthesized
    /// in [`Fuzzer::setup`].
    pub fn new(config: Once4AllConfig) -> Once4AllFuzzer {
        Once4AllFuzzer {
            config,
            seeds: parsed_seeds(),
            generators: Vec::new(),
            construction: None,
            arena: TermArena::new(),
            current: None,
            iterations_left: 0,
            cases_emitted: 0,
            invalid_fills: 0,
            total_fills: 0,
            print_buf: String::new(),
        }
    }

    /// The default (paper) configuration.
    pub fn with_defaults() -> Once4AllFuzzer {
        Once4AllFuzzer::new(Once4AllConfig::default())
    }

    /// The construction-phase report (after setup).
    pub fn construction_report(&self) -> Option<&ConstructionReport> {
        self.construction.as_ref()
    }

    /// Fraction of generator samples that were invalid during fuzzing.
    pub fn invalid_fill_rate(&self) -> f64 {
        if self.total_fills == 0 {
            0.0
        } else {
            self.invalid_fills as f64 / self.total_fills as f64
        }
    }

    fn draw_fill(&mut self, rng: &mut StdRng) -> Result<ArenaFill, String> {
        self.draw_fill_from(None, rng)
    }

    /// Draws a fill, preferring the focus generator when one is given
    /// (deep single-theory interaction is what exposes theory-internal
    /// bugs; cross-theory mixing still happens 30% of the time).
    fn draw_fill_from(
        &mut self,
        focus: Option<usize>,
        rng: &mut StdRng,
    ) -> Result<ArenaFill, String> {
        if self.generators.is_empty() {
            return Err("no generators constructed".into());
        }
        let gi = match focus {
            Some(g) if rng.gen_bool(0.7) => g,
            _ => rng.gen_range(0..self.generators.len()),
        };
        let mut sample_rng = StdRng::from_rng_seed(rng.gen());
        self.total_fills += 1;
        let timer = o4a_obs::metrics::start_timer();
        let raw = self.generators[gi].program.generate(&mut sample_rng);
        o4a_obs::metrics::record_elapsed("fuzzer.derive", timer);
        let raw = raw.map_err(|e| e.to_string())?;
        let timer = o4a_obs::metrics::start_timer();
        let fill = parse_fill_into(&raw, &mut self.arena);
        o4a_obs::metrics::record_elapsed("fuzzer.fill", timer);
        match fill {
            Ok(f) => Ok(f),
            Err(e) => {
                self.invalid_fills += 1;
                Err(e)
            }
        }
    }

    /// Prints `script` as the next case, with its frontend pass read off
    /// the fuzzer's arena.
    fn emit(&mut self, script: &ArenaScript) -> TestCase {
        let timer = o4a_obs::metrics::start_timer();
        self.print_buf.clear();
        script.print_into(&self.arena, &mut self.print_buf);
        let text = self.print_buf.clone();
        o4a_obs::metrics::record_elapsed("fuzzer.print", timer);
        let timer = o4a_obs::metrics::start_timer();
        let parsed = Parsed::from_arena(script, &self.arena, &text);
        o4a_obs::metrics::record_elapsed("frontend.pass", timer);
        TestCase {
            gen_micros: 150 + text.len() as u64,
            text,
            parsed: Some(parsed),
        }
    }

    /// Emits a skeleton-free case (the w/oS variant and the fallback when a
    /// seed yields no usable skeleton).
    fn generator_only_case(&mut self, rng: &mut StdRng) -> ArenaScript {
        let n = rng.gen_range(1..=self.config.max_fills.max(1));
        let mut fills = Vec::new();
        for _ in 0..n {
            if let Ok(f) = self.draw_fill(rng) {
                fills.push(f);
            }
        }
        // Assemble a flat conjunction script.
        let mut script = ArenaScript::new();
        let mut declared = std::collections::BTreeMap::new();
        for f in &fills {
            for (name, sort) in &f.decls {
                declared.entry(name.clone()).or_insert_with(|| sort.clone());
            }
        }
        for (name, sort) in declared {
            script
                .commands
                .push(o4a_smtlib::ArenaCommand::DeclareConst(name, sort));
        }
        for f in &fills {
            script
                .commands
                .push(o4a_smtlib::ArenaCommand::Assert(f.term));
        }
        if fills.is_empty() {
            let tru = self.arena.mk_const(o4a_smtlib::Value::Bool(true));
            script.commands.push(o4a_smtlib::ArenaCommand::Assert(tru));
        }
        script.ensure_check_sat();
        script
    }
}

/// Extension trait alias for seeding an `StdRng` from another RNG draw.
trait FromRngSeed {
    fn from_rng_seed(seed: u64) -> StdRng;
}

impl FromRngSeed for StdRng {
    fn from_rng_seed(seed: u64) -> StdRng {
        use rand::SeedableRng;
        StdRng::seed_from_u64(seed)
    }
}

impl Fuzzer for Once4AllFuzzer {
    fn name(&self) -> String {
        let mut name = "Once4All".to_string();
        if !self.config.use_skeletons {
            name.push_str(" w/oS");
        }
        match self.config.profile.kind {
            o4a_llm::LlmKind::Gpt4 => {}
            o4a_llm::LlmKind::Gemini25Pro => name.push_str(" (Gemini)"),
            o4a_llm::LlmKind::Claude45Sonnet => name.push_str(" (Claude)"),
        }
        name
    }

    fn setup(&mut self, _rng: &mut StdRng) -> u64 {
        let mut llm = SimulatedLlm::new(self.config.profile.clone());
        let docs = o4a_llm::corpus::corpus();
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
        self.generators = report.generators.clone();
        let cost = report.total_llm_micros;
        self.construction = Some(report);
        cost
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        self.cases_emitted += 1;
        if !self.config.use_skeletons {
            // No skeleton state survives between cases, so the arena can be
            // recycled every time.
            self.arena.reset();
            let script = self.generator_only_case(rng);
            return self.emit(&script);
        }
        // Algorithm 2: pick a seed, then mutate it for N iterations before
        // picking the next.
        if self.current.is_none() || self.iterations_left == 0 {
            let k = rng.gen_range(0..self.seeds.len());
            // Fresh seed: nothing references the arena any more, so all
            // terms accumulated across the previous mutation chain can be
            // dropped at once.
            self.arena.reset();
            self.current = Some(ArenaScript::from_script(&self.seeds[k], &mut self.arena));
            self.iterations_left = self.config.mutations_per_seed;
        }
        self.iterations_left -= 1;
        let seed = self.current.clone().expect("seed selected above");
        // `fuzzer.mutate` times skeletonize, adapt and synthesize in laps,
        // leaving out the derive and fill laps `draw_fill_from` records.
        let timer = o4a_obs::metrics::start_timer();
        let skeleton: ArenaSkeleton =
            skeletonize_arena(&seed, &mut self.arena, self.config.skeleton, rng);
        let mut mutate = o4a_obs::metrics::lap(timer);
        let n_fills = rng.gen_range(1..=self.config.max_fills.max(1));
        let focus = if self.generators.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..self.generators.len()))
        };
        let mut fills = Vec::new();
        for _ in 0..n_fills {
            if let Ok(f) = self.draw_fill_from(focus, rng) {
                let timer = o4a_obs::metrics::start_timer();
                fills.push(adapt_fill_arena(&f, &skeleton, &mut self.arena, rng));
                mutate += o4a_obs::metrics::lap(timer);
            }
        }
        if fills.is_empty() {
            o4a_obs::metrics::record_duration("fuzzer.mutate", mutate);
            // All samples invalid this round: fall back to a generator-only
            // case so throughput is preserved.
            let script = self.generator_only_case(rng);
            return self.emit(&script);
        }
        let timer = o4a_obs::metrics::start_timer();
        let out = synthesize_arena(&skeleton, &fills, &mut self.arena);
        mutate += o4a_obs::metrics::lap(timer);
        o4a_obs::metrics::record_duration("fuzzer.mutate", mutate);
        let case = self.emit(&out);
        // The mutant becomes the next iteration's seed (the paper mutates f
        // in place across the repeat loop) — unless it outgrew the size
        // budget, in which case the next call restarts from a fresh seed
        // (keeps throughput and mean formula size in the paper's ballpark).
        if case.text.len() > 3_000 {
            self.current = None;
        } else {
            self.current = Some(out);
        }
        case
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup_fuzzer(cfg: Once4AllConfig) -> Once4AllFuzzer {
        let mut f = Once4AllFuzzer::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let cost = f.setup(&mut rng);
        assert!(cost > 0, "construction must cost LLM latency");
        f
    }

    #[test]
    fn produces_parseable_cases() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut parsed_ok = 0;
        for _ in 0..60 {
            let case = f.next_case(&mut rng);
            if o4a_smtlib::parse_script(&case.text).is_ok() {
                parsed_ok += 1;
            }
            assert!(case.text.contains("(check-sat)"));
        }
        assert!(parsed_ok >= 55, "only {parsed_ok}/60 parse");
    }

    #[test]
    fn skeleton_cases_keep_structural_features() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut quantified = 0;
        for _ in 0..80 {
            let case = f.next_case(&mut rng);
            if case.text.contains("forall") || case.text.contains("exists") {
                quantified += 1;
            }
        }
        assert!(
            quantified >= 10,
            "skeletons should preserve quantifiers, saw {quantified}/80"
        );
    }

    #[test]
    fn wos_variant_never_emits_quantifiers() {
        let mut f = setup_fuzzer(Once4AllConfig {
            use_skeletons: false,
            ..Once4AllConfig::default()
        });
        assert_eq!(f.name(), "Once4All w/oS");
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let case = f.next_case(&mut rng);
            assert!(!case.text.contains("forall"));
            assert!(!case.text.contains("exists"));
        }
    }

    #[test]
    fn cases_cover_extended_theories() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut extended = 0;
        for _ in 0..120 {
            let case = f.next_case(&mut rng);
            if case.text.contains("ff.")
                || case.text.contains("set.")
                || case.text.contains("bag")
                || case.text.contains("rel.")
            {
                extended += 1;
            }
        }
        assert!(
            extended >= 15,
            "generators must reach extended theories, saw {extended}/120"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let mut f = setup_fuzzer(Once4AllConfig::default());
            let mut rng = StdRng::seed_from_u64(9);
            (0..10)
                .map(|_| f.next_case(&mut rng).text)
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn invalid_fill_rate_is_low_after_correction() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..150 {
            f.next_case(&mut rng);
        }
        let rate = f.invalid_fill_rate();
        assert!(
            rate < 0.35,
            "invalid fill rate {rate:.2} too high after self-correction"
        );
    }
}

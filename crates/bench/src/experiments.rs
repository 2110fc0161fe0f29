//! Experiment drivers, one per table/figure of the evaluation.

use o4a_core::{
    correcting_commit, dedup, run_campaign, CampaignConfig, CampaignResult, Fuzzer, Issue,
    LifespanPoint, Once4AllConfig, Once4AllFuzzer, SkeletonConfig,
};
use o4a_exec::{parallel_map, run_campaign_sharded, ExecConfig, Parallelism};
use o4a_llm::{
    construct_generators, ConstructOptions, ConstructionReport, LlmProfile, SimulatedLlm,
};
use o4a_solvers::versions::latest_release;
use o4a_solvers::{CommitIdx, EngineConfig, SolverId, TRUNK_COMMIT};
use std::collections::{BTreeMap, BTreeSet};

/// Experiment scale: trades real runtime for virtual-campaign resolution.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Campaign time scale (higher = fewer real cases per virtual hour).
    pub time_scale: u64,
    /// Hard case cap per campaign.
    pub max_cases: usize,
    /// Virtual hours per campaign.
    pub hours: u32,
}

/// Quick scale: seconds per campaign — `experiments --quick`.
pub const QUICK: Scale = Scale {
    time_scale: 600,
    max_cases: 8_000,
    hours: 24,
};

/// Full scale: the `experiments` binary default.
pub const FULL: Scale = Scale {
    time_scale: 80,
    max_cases: 60_000,
    hours: 24,
};

impl Scale {
    fn config(&self, solvers: Vec<(SolverId, CommitIdx)>, seed: u64) -> CampaignConfig {
        CampaignConfig {
            virtual_hours: self.hours,
            time_scale: self.time_scale,
            solvers,
            engine: EngineConfig::default(),
            seed,
            max_cases: self.max_cases,
        }
    }
}

/// The parallelism knob every experiment driver routes through: shard
/// count from `O4A_SHARDS` (default 1 — bit-identical to the paper's
/// serial protocol) and worker count from `O4A_WORKERS` (default: one per
/// CPU). With `O4A_SOLVER_CMD` set, `O4A_INFLIGHT` keeps that many
/// queries in flight per worker over the pipes ([`o4a_exec::run_shard_piped`];
/// any `K` is bit-identical to `1`); the in-process engines ignore it.
/// Campaigns *within* a comparison additionally fan out across fuzzers,
/// so even `O4A_SHARDS=1` benefits from the pool.
pub fn exec_knob() -> ExecConfig {
    ExecConfig::from_env()
}

/// Trunk solvers (the RQ1 bug-hunting configuration).
pub fn trunk_solvers() -> Vec<(SolverId, CommitIdx)> {
    vec![
        (SolverId::OxiZ, TRUNK_COMMIT),
        (SolverId::Cervo, TRUNK_COMMIT),
    ]
}

/// Latest-release solvers (the RQ2 known-bug configuration).
pub fn release_solvers() -> Vec<(SolverId, CommitIdx)> {
    vec![
        (SolverId::OxiZ, latest_release(SolverId::OxiZ).commit),
        (SolverId::Cervo, latest_release(SolverId::Cervo).commit),
    ]
}

/// Runs the RQ1 trunk bug-hunting campaign with Once4All
/// (Tables 1–2, Figure 5 input, §4.2 statistics), sharded and pooled per
/// [`exec_knob`]. At the default `O4A_SHARDS=1` the result is
/// bit-identical to the paper's serial protocol.
pub fn trunk_campaign(scale: Scale) -> CampaignResult {
    trunk_campaign_with(scale, &exec_knob())
}

/// [`trunk_campaign`] with an explicit execution configuration.
pub fn trunk_campaign_with(scale: Scale, exec: &ExecConfig) -> CampaignResult {
    run_campaign_sharded(
        |_shard| Box::new(Once4AllFuzzer::new(Once4AllConfig::default())) as Box<dyn Fuzzer>,
        &scale.config(trunk_solvers(), 0x04a11),
        exec,
    )
}

/// Table 1: bug status per solver from a campaign's findings.
pub fn table1(result: &CampaignResult) -> BTreeMap<SolverId, o4a_core::StatusCounts> {
    o4a_core::status_table(&dedup(&result.findings))
}

/// Table 2: bug-type distribution per solver.
pub fn table2(result: &CampaignResult) -> BTreeMap<SolverId, BTreeMap<o4a_core::FoundKind, usize>> {
    o4a_core::type_table(&dedup(&result.findings))
}

/// Figure 5: lifespan series per solver from a campaign's issues.
pub fn fig5(result: &CampaignResult) -> BTreeMap<SolverId, Vec<LifespanPoint>> {
    let issues = dedup(&result.findings);
    SolverId::ALL
        .iter()
        .map(|&s| (s, o4a_core::lifespan_series(s, &issues)))
        .collect()
}

/// §5.1 / "Table 3": per-theory validity before and after self-correction.
pub fn table3_validity(profile: LlmProfile) -> ConstructionReport {
    let mut llm = SimulatedLlm::new(profile);
    let docs = o4a_llm::corpus::corpus();
    let mut validators: Vec<Box<dyn o4a_llm::Validator>> = vec![
        Box::new(o4a_core::FrontendValidator::new(SolverId::OxiZ)),
        Box::new(o4a_core::FrontendValidator::new(SolverId::Cervo)),
    ];
    construct_generators(
        &mut llm,
        &docs,
        &mut validators,
        ConstructOptions::default(),
    )
}

/// The nine fuzzers of Figure 6/7 in figure order: Once4All + baselines.
pub fn all_fuzzers() -> Vec<Box<dyn Fuzzer>> {
    let mut v: Vec<Box<dyn Fuzzer>> = vec![Box::new(Once4AllFuzzer::with_defaults())];
    v.extend(o4a_baselines::all_baselines());
    v
}

/// A display-ordered fuzzer roster that can construct fresh instances on
/// worker threads — what lets whole comparisons fan out across fuzzers
/// (and, per instance, across shards) on the `o4a-exec` pool.
pub struct Roster {
    len: usize,
    factory: Box<dyn Fn(usize) -> Box<dyn Fuzzer> + Send + Sync>,
}

impl Roster {
    /// Number of fuzzers in the roster.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the roster is empty (never, for the paper rosters).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Builds a fresh instance of fuzzer `i` (panics past the end).
    pub fn build(&self, i: usize) -> Box<dyn Fuzzer> {
        assert!(i < self.len, "fuzzer index {i} out of range");
        (self.factory)(i)
    }

    /// The nine fuzzers of Figures 6/7 ([`all_fuzzers`] as a roster).
    pub fn paper_fuzzers() -> Roster {
        Roster {
            len: all_fuzzers().len(),
            factory: Box::new(|i| {
                if i == 0 {
                    Box::new(Once4AllFuzzer::with_defaults())
                } else {
                    o4a_baselines::all_baselines()
                        .into_iter()
                        .nth(i - 1)
                        .expect("baseline index in range")
                }
            }),
        }
    }

    /// The four Once4All variants of Figures 8/9 ([`all_variants`] as a
    /// roster).
    pub fn paper_variants() -> Roster {
        Roster {
            len: all_variants().len(),
            factory: Box::new(|i| {
                all_variants()
                    .into_iter()
                    .nth(i)
                    .expect("variant index in range")
            }),
        }
    }
}

/// The four Once4All variants of Figures 8/9.
pub fn all_variants() -> Vec<Box<dyn Fuzzer>> {
    vec![
        Box::new(Once4AllFuzzer::new(Once4AllConfig::default())),
        Box::new(Once4AllFuzzer::new(Once4AllConfig {
            use_skeletons: false,
            ..Once4AllConfig::default()
        })),
        Box::new(Once4AllFuzzer::new(Once4AllConfig {
            profile: LlmProfile::claude(),
            ..Once4AllConfig::default()
        })),
        Box::new(Once4AllFuzzer::new(Once4AllConfig {
            profile: LlmProfile::gemini(),
            ..Once4AllConfig::default()
        })),
    ]
}

/// Runs one coverage-comparison campaign per fuzzer against the given
/// solver versions (Figures 6 and 8).
pub fn coverage_comparison(
    mut fuzzers: Vec<Box<dyn Fuzzer>>,
    scale: Scale,
    solvers: Vec<(SolverId, CommitIdx)>,
) -> Vec<CampaignResult> {
    fuzzers
        .iter_mut()
        .enumerate()
        .map(|(i, f)| {
            run_campaign(
                f.as_mut(),
                &scale.config(solvers.clone(), 0xf166 ^ (i as u64) << 8),
            )
        })
        .collect()
}

/// [`coverage_comparison`] on the worker pool: one campaign per roster
/// fuzzer, fanned out across fuzzers with `exec.parallelism`; each
/// campaign runs `exec.shards` shards serially on its worker (the fuzzer
/// fan-out already saturates the pool). Seeds and merge semantics make
/// the output order- and scheduling-independent, and at
/// `ExecConfig::default()` it is case-for-case identical to the serial
/// [`coverage_comparison`].
pub fn coverage_comparison_parallel(
    roster: &Roster,
    scale: Scale,
    solvers: Vec<(SolverId, CommitIdx)>,
    exec: &ExecConfig,
) -> Vec<CampaignResult> {
    let workers = exec.parallelism.workers(roster.len());
    parallel_map(roster.len(), workers, |i| {
        run_campaign_sharded(
            |_shard| roster.build(i),
            &scale.config(solvers.clone(), 0xf166 ^ (i as u64) << 8),
            // Serial per campaign: the roster itself is the parallel
            // axis here. Struct-update keeps every other knob (and any
            // future one) flowing through from the environment.
            &ExecConfig {
                parallelism: Parallelism::Serial,
                ..exec.clone()
            },
        )
    })
}

/// One fuzzer's unique known bugs: distinct (solver, correcting commit)
/// pairs recovered by bisection from its release-campaign findings
/// (Figures 7 and 9).
pub fn unique_known_bugs(
    result: &CampaignResult,
    engine: &EngineConfig,
) -> BTreeSet<(SolverId, CommitIdx)> {
    let mut out = BTreeSet::new();
    let issues: Vec<Issue> = dedup(&result.findings);
    for issue in issues {
        let release = latest_release(issue.solver);
        if let Some(fix) = correcting_commit(
            issue.solver,
            &issue.representative,
            release.commit,
            TRUNK_COMMIT,
            engine,
        ) {
            out.insert((issue.solver, fix));
        }
    }
    out
}

/// Runs the known-bug comparison for a roster (Figures 7 and 9): one
/// campaign per fuzzer on the latest releases, then bisection, one roster
/// fuzzer per worker (see [`coverage_comparison_parallel`] for the pool
/// model). Returns per-fuzzer unique-bug sets.
pub fn known_bug_comparison_parallel(
    roster: &Roster,
    scale: Scale,
    exec: &ExecConfig,
) -> Vec<(String, BTreeSet<(SolverId, CommitIdx)>)> {
    let engine = EngineConfig::default();
    let workers = exec.parallelism.workers(roster.len());
    parallel_map(roster.len(), workers, |i| {
        let result = run_campaign_sharded(
            |_shard| roster.build(i),
            &scale.config(release_solvers(), 0xf177 ^ (i as u64) << 8),
            // Serial per campaign: the roster itself is the parallel
            // axis here. Struct-update keeps every other knob (and any
            // future one) flowing through from the environment.
            &ExecConfig {
                parallelism: Parallelism::Serial,
                ..exec.clone()
            },
        );
        (result.fuzzer.clone(), unique_known_bugs(&result, &engine))
    })
}

/// The design-choice sweep of the ablation: bug-triggering cases out of
/// `cases` for each variation of skeleton replacement probability, fills
/// per skeleton and mutations per seed, in display order.
pub fn ablation(cases: usize) -> Vec<(&'static str, u64)> {
    let replace = |p| Once4AllConfig {
        skeleton: SkeletonConfig {
            replace_probability: p,
            max_placeholders: 4,
        },
        ..Once4AllConfig::default()
    };
    let sweep = [
        ("replace_p=0.3", replace(0.3)),
        ("replace_p=0.6 (paper)", Once4AllConfig::default()),
        ("replace_p=0.9", replace(0.9)),
        (
            "max_fills=1",
            Once4AllConfig {
                max_fills: 1,
                ..Once4AllConfig::default()
            },
        ),
        (
            "max_fills=4",
            Once4AllConfig {
                max_fills: 4,
                ..Once4AllConfig::default()
            },
        ),
        (
            "mutations_per_seed=1",
            Once4AllConfig {
                mutations_per_seed: 1,
                ..Once4AllConfig::default()
            },
        ),
        ("mutations_per_seed=10 (paper)", Once4AllConfig::default()),
    ];
    let campaign = CampaignConfig {
        virtual_hours: 24,
        time_scale: 1_000_000,
        solvers: trunk_solvers(),
        engine: EngineConfig::default(),
        seed: 0xab1a,
        max_cases: cases,
    };
    sweep
        .into_iter()
        .map(|(label, config)| {
            let result = run_campaign(&mut Once4AllFuzzer::new(config), &campaign);
            (label, result.stats.bug_triggering)
        })
        .collect()
}

/// The coverage-complementarity analysis (§4.3): function names covered by
/// `a` but by none of `others`, per solver.
pub fn exclusive_coverage(
    a: &CampaignResult,
    others: &[&CampaignResult],
) -> BTreeMap<SolverId, Vec<String>> {
    let mut out = BTreeMap::new();
    for (solver, names) in &a.covered_functions {
        let mine: BTreeSet<&String> = names.iter().collect();
        let mut theirs: BTreeSet<&String> = BTreeSet::new();
        for o in others {
            if let Some(n) = o.covered_functions.get(solver) {
                theirs.extend(n.iter());
            }
        }
        out.insert(
            *solver,
            mine.difference(&theirs).map(|s| s.to_string()).collect(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        time_scale: 30_000,
        max_cases: 150,
        hours: 24,
    };

    #[test]
    fn trunk_campaign_finds_bugs_even_at_smoke_scale() {
        let result = trunk_campaign(SMOKE);
        assert!(result.stats.cases > 50);
        assert!(
            result.stats.bug_triggering > 0,
            "no bug-triggering formulas in {} cases",
            result.stats.cases
        );
        let t1 = table1(&result);
        let total_reported: usize = t1.values().map(|c| c.reported).sum();
        assert!(total_reported > 0);
    }

    #[test]
    fn validity_experiment_matches_paper_shape() {
        let report = table3_validity(LlmProfile::gpt4());
        let ff = report
            .generator_for(o4a_smtlib::Theory::FiniteFields)
            .unwrap();
        let reals = report.generator_for(o4a_smtlib::Theory::Reals).unwrap();
        assert!(ff.validity_before < reals.validity_before);
        assert!(ff.validity_after > 0.8);
    }

    #[test]
    fn fuzzer_rosters_have_paper_cardinality() {
        assert_eq!(all_fuzzers().len(), 9, "Figure 6 compares nine fuzzers");
        assert_eq!(all_variants().len(), 4, "Figure 8 compares four variants");
        assert_eq!(Roster::paper_fuzzers().len(), 9);
        assert_eq!(Roster::paper_variants().len(), 4);
    }

    #[test]
    fn rosters_rebuild_the_same_lineup() {
        let named: Vec<String> = all_fuzzers().iter().map(|f| f.name()).collect();
        let roster = Roster::paper_fuzzers();
        let rebuilt: Vec<String> = (0..roster.len()).map(|i| roster.build(i).name()).collect();
        assert_eq!(named, rebuilt);
        let vnamed: Vec<String> = all_variants().iter().map(|f| f.name()).collect();
        let vroster = Roster::paper_variants();
        let vrebuilt: Vec<String> = (0..vroster.len())
            .map(|i| vroster.build(i).name())
            .collect();
        assert_eq!(vnamed, vrebuilt);
    }

    #[test]
    fn parallel_comparison_matches_serial() {
        // Two fuzzers at smoke scale: the pooled comparison must reproduce
        // the serial one case for case.
        let scale = SMOKE;
        let serial = coverage_comparison(
            vec![
                Box::new(Once4AllFuzzer::with_defaults()),
                Box::new(Once4AllFuzzer::new(Once4AllConfig {
                    use_skeletons: false,
                    ..Once4AllConfig::default()
                })),
            ],
            scale,
            trunk_solvers(),
        );
        let roster = Roster {
            len: 2,
            factory: Box::new(|i| {
                if i == 0 {
                    Box::new(Once4AllFuzzer::with_defaults())
                } else {
                    Box::new(Once4AllFuzzer::new(Once4AllConfig {
                        use_skeletons: false,
                        ..Once4AllConfig::default()
                    }))
                }
            }),
        };
        let parallel = coverage_comparison_parallel(
            &roster,
            scale,
            trunk_solvers(),
            &ExecConfig {
                shards: 1,
                parallelism: Parallelism::Threads(2),
                ..ExecConfig::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.fuzzer, p.fuzzer);
            assert_eq!(s.stats.cases, p.stats.cases);
            assert_eq!(s.stats.bug_triggering, p.stats.bug_triggering);
            assert_eq!(s.final_coverage, p.final_coverage);
        }
    }

    #[test]
    fn sharded_trunk_campaign_finds_bugs() {
        let result = trunk_campaign_with(
            SMOKE,
            &ExecConfig {
                shards: 4,
                parallelism: Parallelism::Auto,
                ..ExecConfig::default()
            },
        );
        assert!(result.stats.cases > 100, "4 shards should multiply cases");
        assert!(result.stats.bug_triggering > 0);
    }
}

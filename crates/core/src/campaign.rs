//! The campaign runner: executes one fuzzer against the solvers under test
//! for a virtual duration, with hourly coverage snapshots, differential
//! judging, and finding collection. All comparison experiments (Figures
//! 6–9, Tables 1–2) are campaigns with different fuzzers/solver versions.

use crate::fuzzer::{Fuzzer, TestCase};
use crate::oracle::{judge, judge_parsed, Verdict};
use crate::triage::Finding;
use o4a_solvers::coverage::universe;
use o4a_solvers::{
    solver_with_config, CommitIdx, CoverageMap, EngineConfig, Outcome, Parsed, SmtSolver, SolverId,
    SolverResponse, TRUNK_COMMIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Virtual campaign length in hours (paper: 24).
    pub virtual_hours: u32,
    /// Multiplier applied to all virtual costs. Scaling up makes each case
    /// "cost more" virtual time, shrinking the number of real cases a
    /// campaign executes while preserving every relative comparison
    /// (documented in DESIGN.md).
    pub time_scale: u64,
    /// Solvers under test and the commits they are built from.
    pub solvers: Vec<(SolverId, CommitIdx)>,
    /// Engine configuration (bugs on/off, budgets).
    pub engine: EngineConfig,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Hard cap on real test cases (safety valve for CI).
    pub max_cases: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            virtual_hours: 24,
            time_scale: 3_000,
            solvers: vec![
                (SolverId::OxiZ, TRUNK_COMMIT),
                (SolverId::Cervo, TRUNK_COMMIT),
            ],
            engine: EngineConfig::default(),
            seed: 0xf00d,
            max_cases: 200_000,
        }
    }
}

/// Coverage percentages at one snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoveragePoint {
    /// Line coverage percent.
    pub line_pct: f64,
    /// Function coverage percent.
    pub function_pct: f64,
}

impl CoveragePoint {
    /// The percentages of `map` against `solver`'s universe.
    pub fn of(solver: SolverId, map: &CoverageMap) -> CoveragePoint {
        let u = universe(solver);
        CoveragePoint {
            line_pct: map.line_coverage_pct(u),
            function_pct: map.function_coverage_pct(u),
        }
    }
}

/// One hourly snapshot.
#[derive(Clone, Debug)]
pub struct HourlySnapshot {
    /// Virtual hour (1-based).
    pub hour: u32,
    /// Coverage per solver.
    pub coverage: BTreeMap<SolverId, CoveragePoint>,
    /// Cases executed so far.
    pub cases: u64,
    /// Deduplicated issue count so far.
    pub issues: usize,
}

/// Aggregate campaign statistics (paper §4.2 "Statistics of Bugs").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Test cases executed.
    pub cases: u64,
    /// Total bytes of generated formulas.
    pub total_bytes: u64,
    /// Bug-triggering formulas recorded.
    pub bug_triggering: u64,
    /// Cases rejected by every frontend (invalid inputs).
    pub rejected: u64,
    /// Cases answered sat/unsat by at least one solver.
    pub decisive: u64,
    /// Virtual seconds consumed.
    pub virtual_seconds: u64,
    /// Setup cost in virtual seconds (the LLM one-time investment for
    /// Once4All; per-request costs land in case generation instead).
    pub setup_virtual_seconds: u64,
    /// Solver child processes spawned by the pipe transport (including
    /// respawns after crashes/wedges); zero for in-process backends.
    /// A transport-work observable, not a campaign one: it counts what
    /// was *executed* (up to K − 1 speculative queries run past the
    /// budget boundary, and crashes during them respawn too), so
    /// equivalence comparisons go through
    /// [`CampaignStats::sans_transport`]. The count is one persistent
    /// process per lane plus respawns, at any K.
    pub processes_spawned: u64,
    /// Pipe-transport processes lost to crashes or wedges and replaced.
    pub process_respawns: u64,
    /// Incremental `(push 1)`/`(pop 1)` scopes opened on persistent
    /// solver sessions — one per executed query (speculative overrun
    /// included; crash replays are respawn bookkeeping and not
    /// re-counted).
    pub scopes_pushed: u64,
    /// Shard leases granted by a distributed coordinator (`o4a-dist`):
    /// one per `lease` frame sent to a worker process, re-issues
    /// included. Zero for single-process campaigns. A transport-work
    /// observable like the process-churn counters — how many leases it
    /// took to finish the plan depends on worker deaths, not on the
    /// campaign — so it is scrubbed by [`CampaignStats::sans_transport`].
    pub leases_granted: u64,
    /// Leases re-issued after the worker holding them died or went
    /// silent mid-lease (the shard re-ran from scratch elsewhere).
    pub leases_reissued: u64,
    /// Verdict-cache hits: queries answered from the `O4A_CACHE` store
    /// without touching a solver process. A transport-work observable —
    /// hit counts depend on what earlier runs (or other shards' merged
    /// journals) happened to cache, never on what the campaign finds —
    /// so it is scrubbed by [`CampaignStats::sans_transport`].
    pub cache_hits: u64,
    /// Verdict-cache lookups that missed and paid a fresh solve. Zero
    /// (with `cache_hits`) when no cache is configured.
    pub cache_misses: u64,
}

impl CampaignStats {
    /// Mean formula size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.cases as f64
        }
    }

    /// Accumulates another stats block into this one (field-wise sum) —
    /// the aggregate semantics used when combining campaign shards. Setup
    /// cost sums too: every shard pays its own one-time investment, like
    /// independent fuzzing machines would.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.cases += other.cases;
        self.total_bytes += other.total_bytes;
        self.bug_triggering += other.bug_triggering;
        self.rejected += other.rejected;
        self.decisive += other.decisive;
        self.virtual_seconds += other.virtual_seconds;
        self.setup_virtual_seconds += other.setup_virtual_seconds;
        self.processes_spawned += other.processes_spawned;
        self.process_respawns += other.process_respawns;
        self.scopes_pushed += other.scopes_pushed;
        self.leases_granted += other.leases_granted;
        self.leases_reissued += other.leases_reissued;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// This stats block with the solver-transport churn counters zeroed.
    ///
    /// Process churn is an execution-schedule observable, not a campaign
    /// one: at K > 1 the pipe transport executes speculative queries past
    /// the budget boundary that apply-time discards. The serial ≡
    /// K-in-flight equivalence law therefore compares campaigns through
    /// this view; the churn claim itself (one process per lane) is pinned
    /// per-K by the pipe gauntlet.
    pub fn sans_transport(&self) -> CampaignStats {
        CampaignStats {
            processes_spawned: 0,
            process_respawns: 0,
            scopes_pushed: 0,
            leases_granted: 0,
            leases_reissued: 0,
            cache_hits: 0,
            cache_misses: 0,
            ..self.clone()
        }
    }
}

/// The result of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Fuzzer display name.
    pub fuzzer: String,
    /// Hourly snapshots (length = virtual hours).
    pub snapshots: Vec<HourlySnapshot>,
    /// All bug-triggering findings (pre-dedup).
    pub findings: Vec<Finding>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
    /// Final coverage per solver.
    pub final_coverage: BTreeMap<SolverId, CoveragePoint>,
    /// Names of covered functions per solver (for the directory-level
    /// complementarity analysis).
    pub covered_functions: BTreeMap<SolverId, Vec<String>>,
    /// Raw accumulated coverage per solver. Percentages lose information;
    /// the raw maps are what lets shard results merge without loss
    /// (`o4a-exec` unions them and recomputes the percentages).
    pub coverage: BTreeMap<SolverId, CoverageMap>,
    /// Raw cumulative coverage per solver at every hourly snapshot
    /// boundary (`hourly_coverage[h - 1]` is the state behind
    /// `snapshots[h - 1]`). The percentages in [`HourlySnapshot`] lose
    /// information exactly like the final ones do; these maps are what
    /// lets shard *hourly series* merge without loss — `o4a-exec` unions
    /// them per hour and recomputes the snapshot percentages, and the
    /// findings journal persists them as per-hour deltas. Empty on
    /// results reconstructed from journals that predate the delta
    /// records (the merge then falls back to a documented lower bound).
    pub hourly_coverage: Vec<BTreeMap<SolverId, CoverageMap>>,
}

/// One solver's part of an executed test case: its response plus the
/// coverage this single case contributed to it.
#[derive(Clone, Debug)]
pub struct SolverRun {
    /// Which solver ran.
    pub solver: SolverId,
    /// Its response.
    pub response: SolverResponse,
    /// The case's coverage delta on that solver (not a cumulative map).
    pub coverage: CoverageMap,
}

/// A fully executed test case, not yet applied to campaign state.
///
/// This is the unit the overlapped engine re-sequences: execution
/// (generate + solver checks) is side-effect-free with respect to the
/// campaign, so any number of cases can be in flight out of order, while
/// [`CampaignStepper::apply_case`] — clock, stats, findings, snapshots —
/// consumes them strictly in case order.
#[derive(Clone, Debug)]
pub struct CaseExecution {
    /// The generated case.
    pub case: TestCase,
    /// Per-solver responses and coverage deltas, in campaign solver order.
    pub runs: Vec<SolverRun>,
    /// The case's shared frontend pass, which the in-process solvers ran
    /// on and [`CampaignStepper::apply_case`] judges on. An external
    /// solver process runs on the text, so there it is the fuzzer's
    /// [`TestCase::parsed`]; when that is `None` too, apply parses the
    /// text itself.
    pub parsed: Option<Parsed>,
}

/// What one [`CampaignStepper::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A test case was generated and executed. `recorded_finding` is true
    /// when the case produced a new entry in the findings list (what a
    /// persistent findings store must append).
    Ran {
        /// Whether this step appended to the findings list.
        recorded_finding: bool,
    },
    /// The campaign budget (virtual hours or case cap) is exhausted; no
    /// case was run and all trailing snapshots have been filled in.
    Exhausted,
}

/// The single-case campaign engine: owns the solvers under test, the
/// virtual clock, statistics, findings, and hourly snapshots, and advances
/// one test case per [`CampaignStepper::step`].
///
/// [`run_campaign`] drives it serially; the `o4a-exec` crate drives one
/// stepper per shard on a worker pool. Keeping every side effect of a case
/// inside `step` is what makes the two paths behaviourally identical.
pub struct CampaignStepper {
    config: CampaignConfig,
    solvers: Vec<Box<dyn SmtSolver>>,
    commits: BTreeMap<SolverId, CommitIdx>,
    coverage: BTreeMap<SolverId, CoverageMap>,
    stats: CampaignStats,
    findings: Vec<Finding>,
    snapshots: Vec<HourlySnapshot>,
    hourly_coverage: Vec<BTreeMap<SolverId, CoverageMap>>,
    next_snapshot_hour: u32,
    clock_micros: u64,
    budget_micros: u64,
}

impl CampaignStepper {
    /// Builds the stepper: constructs the solvers under test and zeroes the
    /// clock. Call [`CampaignStepper::charge_setup`] with the fuzzer's
    /// setup cost before the first step.
    pub fn new(config: &CampaignConfig) -> CampaignStepper {
        CampaignStepper::build(config, true)
    }

    /// Builds an **apply-only** stepper: no solver instances are
    /// constructed, so [`CampaignStepper::step`] and
    /// [`CampaignStepper::execute_case`] must not be called — only
    /// [`CampaignStepper::apply_case`] (plus setup/finish). This is the
    /// constructor for drivers that execute cases through an external
    /// backend, like the overlapped async engine in `o4a-exec`, which
    /// would otherwise pay for a second, unused solver bank per shard.
    pub fn apply_only(config: &CampaignConfig) -> CampaignStepper {
        CampaignStepper::build(config, false)
    }

    fn build(config: &CampaignConfig, with_solvers: bool) -> CampaignStepper {
        let solvers: Vec<Box<dyn SmtSolver>> = if with_solvers {
            config
                .solvers
                .iter()
                .map(|(id, commit)| solver_with_config(*id, *commit, config.engine.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let commits: BTreeMap<SolverId, CommitIdx> = config.solvers.iter().copied().collect();
        let coverage: BTreeMap<SolverId, CoverageMap> = config
            .solvers
            .iter()
            .map(|&(id, _)| (id, CoverageMap::new()))
            .collect();
        CampaignStepper {
            solvers,
            commits,
            coverage,
            stats: CampaignStats::default(),
            findings: Vec::new(),
            snapshots: Vec::new(),
            hourly_coverage: Vec::new(),
            next_snapshot_hour: 1,
            clock_micros: 0,
            budget_micros: config.virtual_hours as u64 * 3_600_000_000,
            config: config.clone(),
        }
    }

    /// Charges the fuzzer's one-time setup investment to the virtual
    /// clock. Setup is charged unscaled; `time_scale` only shrinks the
    /// number of *cases* a campaign executes (each real case stands for
    /// `time_scale` virtual ones, preserving per-case cost ratios between
    /// fuzzers).
    pub fn charge_setup(&mut self, setup_micros: u64) {
        self.stats.setup_virtual_seconds = setup_micros / 1_000_000;
        self.clock_micros = setup_micros.min(self.budget_micros);
    }

    /// True when the virtual budget or the case cap is spent.
    pub fn is_exhausted(&self) -> bool {
        self.clock_micros >= self.budget_micros
            || (self.stats.cases as usize) >= self.config.max_cases
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// Findings so far (pre-dedup).
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Virtual microseconds consumed so far.
    pub fn clock_micros(&self) -> u64 {
        self.clock_micros
    }

    /// Runs one test case: generate, execute on every solver, judge,
    /// record, snapshot. Returns [`StepOutcome::Exhausted`] (after filling
    /// trailing snapshots) once the budget is spent.
    ///
    /// Equivalent to [`CampaignStepper::execute_case`] followed by
    /// [`CampaignStepper::apply_case`] — the overlapped engine in
    /// `o4a-exec` drives those two halves with up to `K` executions in
    /// flight between them.
    pub fn step(&mut self, fuzzer: &mut dyn Fuzzer, rng: &mut StdRng) -> StepOutcome {
        if self.is_exhausted() {
            self.fill_trailing_snapshots();
            return StepOutcome::Exhausted;
        }
        let case = fuzzer.next_case(rng);
        let execution = self.execute_case(case);
        self.apply_case(execution)
    }

    /// Executes one generated case on every solver under test, returning
    /// the responses and per-solver coverage deltas **without touching any
    /// campaign state** (clock, stats, findings, snapshots). Executions
    /// are therefore order-independent and safe to perform speculatively —
    /// the property the overlapped async engine relies on.
    ///
    /// The case's own [`TestCase::parsed`] is used when the fuzzer handed
    /// one over; otherwise the text is parsed here.
    pub fn execute_case(&mut self, mut case: TestCase) -> CaseExecution {
        assert!(
            self.solvers.len() == self.config.solvers.len(),
            "execute_case on an apply-only stepper (built without solvers)"
        );
        let _span = o4a_obs::trace::span("core", "case.execute");
        let parsed = case.parsed.take().unwrap_or_else(|| {
            let timer = o4a_obs::metrics::start_timer();
            let parsed = Parsed::new(&case.text);
            o4a_obs::metrics::record_elapsed("core.parse_micros", timer);
            parsed
        });
        let mut runs = Vec::with_capacity(self.solvers.len());
        for solver in self.solvers.iter_mut() {
            solver.reset_coverage();
            let timer = o4a_obs::metrics::start_timer();
            let response = solver.check_parsed(&case.text, &parsed);
            o4a_obs::metrics::record_elapsed("core.check_micros", timer);
            runs.push(SolverRun {
                solver: solver.id(),
                response,
                coverage: solver.coverage().clone(),
            });
        }
        CaseExecution {
            case,
            runs,
            parsed: Some(parsed),
        }
    }

    /// Applies one executed case to campaign state: statistics, virtual
    /// clock, differential judging, findings, coverage accumulation, and
    /// hourly snapshots. Cases **must** be applied in generation order;
    /// when the budget is already spent the execution is discarded (it is
    /// a speculative case the serial engine would never have run) and
    /// [`StepOutcome::Exhausted`] is returned.
    pub fn apply_case(&mut self, execution: CaseExecution) -> StepOutcome {
        if self.is_exhausted() {
            self.fill_trailing_snapshots();
            return StepOutcome::Exhausted;
        }
        let apply_timer = o4a_obs::metrics::start_timer();
        let CaseExecution { case, runs, parsed } = execution;
        let text = case.text;
        if o4a_obs::metrics_enabled() {
            o4a_obs::metrics::counter("campaign.cases").inc();
        }
        self.stats.cases += 1;
        self.stats.total_bytes += text.len() as u64;
        let mut case_cost = case.gen_micros;

        let mut responses = Vec::with_capacity(runs.len());
        let mut any_accepted = false;
        let mut any_decisive = false;
        for run in runs {
            case_cost += run.response.stats.virtual_micros;
            match &run.response.outcome {
                Outcome::ParseError(_) => {}
                o => {
                    any_accepted = true;
                    if o.is_decisive() {
                        any_decisive = true;
                    }
                }
            }
            self.coverage
                .entry(run.solver)
                .or_default()
                .merge(&run.coverage);
            responses.push((run.solver, run.response));
        }
        if !any_accepted {
            self.stats.rejected += 1;
        }
        if any_decisive {
            self.stats.decisive += 1;
        }

        self.clock_micros = self
            .clock_micros
            .saturating_add(case_cost.saturating_mul(self.config.time_scale));
        let vhour = self.clock_micros as f64 / 3_600_000_000.0;

        let mut recorded_finding = false;
        let judge_timer = o4a_obs::metrics::start_timer();
        let verdict = match &parsed {
            Some(p) => judge_parsed(p, &responses),
            None => judge(&text, &responses),
        };
        o4a_obs::metrics::record_elapsed("case.judge", judge_timer);
        if verdict.is_bug() {
            self.stats.bug_triggering += 1;
            let features = match &parsed {
                Some(p) => Cow::Borrowed(p.features()),
                None => Cow::Owned(Parsed::new(&text).features().clone()),
            };
            if let Some(finding) =
                Finding::from_verdict(&text, &verdict, &features, &self.commits, vhour)
            {
                self.findings.push(finding);
                recorded_finding = true;
                o4a_obs::trace::event(
                    "core",
                    "finding.recorded",
                    &[
                        ("case", self.stats.cases),
                        ("clock_s", self.clock_micros / 1_000_000),
                    ],
                );
                if o4a_obs::metrics_enabled() {
                    o4a_obs::metrics::counter("campaign.findings").inc();
                }
            }
        } else if let Verdict::NotComparable = verdict {
            // nothing to record
        }

        // Hourly snapshots (catching up if a case jumped several hours).
        while self.next_snapshot_hour <= self.config.virtual_hours
            && self.clock_micros >= self.next_snapshot_hour as u64 * 3_600_000_000
        {
            self.push_snapshot();
        }
        o4a_obs::metrics::record_elapsed("case.apply", apply_timer);
        StepOutcome::Ran { recorded_finding }
    }

    /// Fills any missing trailing snapshots (a campaign may end early on
    /// `max_cases`).
    fn fill_trailing_snapshots(&mut self) {
        while self.next_snapshot_hour <= self.config.virtual_hours {
            self.push_snapshot();
        }
    }

    /// Records the snapshot for `next_snapshot_hour` from accumulated
    /// coverage and findings.
    fn push_snapshot(&mut self) {
        o4a_obs::trace::event(
            "core",
            "snapshot",
            &[
                ("hour", u64::from(self.next_snapshot_hour)),
                ("cases", self.stats.cases),
            ],
        );
        self.snapshots.push(snapshot(
            self.next_snapshot_hour,
            &self.coverage,
            self.stats.cases,
            &self.findings,
        ));
        // The raw maps behind the snapshot's percentages, frozen at the
        // boundary: the lossless representation the shard merge unions.
        self.hourly_coverage.push(self.coverage.clone());
        self.next_snapshot_hour += 1;
    }

    /// Finalizes the campaign: fills trailing snapshots, freezes the
    /// virtual clock, and extracts coverage into the result.
    pub fn finish(mut self, fuzzer_name: String) -> CampaignResult {
        self.fill_trailing_snapshots();
        self.stats.virtual_seconds = self.clock_micros / 1_000_000;

        let mut final_coverage = BTreeMap::new();
        let mut covered_functions = BTreeMap::new();
        for (&id, map) in &self.coverage {
            final_coverage.insert(id, CoveragePoint::of(id, map));
            covered_functions.insert(
                id,
                map.covered_function_names(universe(id))
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
        }

        CampaignResult {
            fuzzer: fuzzer_name,
            snapshots: self.snapshots,
            findings: self.findings,
            stats: self.stats,
            final_coverage,
            covered_functions,
            coverage: self.coverage,
            hourly_coverage: self.hourly_coverage,
        }
    }
}

/// Runs one fuzzing campaign serially (the paper's original protocol).
/// Sharded parallel execution with identical per-shard semantics lives in
/// the `o4a-exec` crate.
pub fn run_campaign(fuzzer: &mut dyn Fuzzer, config: &CampaignConfig) -> CampaignResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stepper = CampaignStepper::new(config);
    stepper.charge_setup(fuzzer.setup(&mut rng));
    while let StepOutcome::Ran { .. } = stepper.step(fuzzer, &mut rng) {}
    stepper.finish(fuzzer.name())
}

fn snapshot(
    hour: u32,
    maps: &BTreeMap<SolverId, CoverageMap>,
    cases: u64,
    findings: &[Finding],
) -> HourlySnapshot {
    HourlySnapshot {
        hour,
        coverage: maps
            .iter()
            .map(|(&id, map)| (id, CoveragePoint::of(id, map)))
            .collect(),
        cases,
        // Count only findings discovered by the hour boundary (`vhour` can
        // land past it when one case jumps several virtual hours). This is
        // the same rule the shard merge applies, which keeps a 1-shard
        // engine run bit-identical to the serial campaign.
        issues: crate::triage::issue_count(findings.iter().filter(|f| f.vhour <= hour as f64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{Once4AllConfig, Once4AllFuzzer};

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            virtual_hours: 2,
            time_scale: 2_000_000, // few cases: smoke-test scale
            max_cases: 60,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_runs_and_snapshots() {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let result = run_campaign(&mut fuzzer, &quick_config());
        assert_eq!(result.snapshots.len(), 2);
        assert!(result.stats.cases > 0);
        assert!(result.stats.mean_bytes() > 0.0);
        // Coverage monotone across snapshots.
        for id in [SolverId::OxiZ, SolverId::Cervo] {
            let a = result.snapshots[0].coverage[&id].line_pct;
            let b = result.snapshots[1].coverage[&id].line_pct;
            assert!(b >= a, "{id}: coverage decreased {a} -> {b}");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
            let r = run_campaign(&mut fuzzer, &quick_config());
            (
                r.stats.cases,
                r.stats.bug_triggering,
                r.findings.len() as u64,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bugs_disabled_yields_no_findings() {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let config = CampaignConfig {
            engine: EngineConfig {
                bugs_enabled: false,
                ..EngineConfig::default()
            },
            ..quick_config()
        };
        let result = run_campaign(&mut fuzzer, &config);
        assert_eq!(
            result.findings.len(),
            0,
            "clean solvers must never disagree: {:?}",
            result.findings.first().map(|f| &f.case_text)
        );
    }

    #[test]
    fn stepper_loop_matches_run_campaign() {
        let config = quick_config();
        let mut f1 = Once4AllFuzzer::new(Once4AllConfig::default());
        let r1 = run_campaign(&mut f1, &config);

        let mut f2 = Once4AllFuzzer::new(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut stepper = CampaignStepper::new(&config);
        stepper.charge_setup(f2.setup(&mut rng));
        let mut recorded = 0usize;
        while let StepOutcome::Ran { recorded_finding } = stepper.step(&mut f2, &mut rng) {
            if recorded_finding {
                recorded += 1;
            }
        }
        let r2 = stepper.finish(f2.name());

        assert_eq!(r1.stats.cases, r2.stats.cases);
        assert_eq!(r1.stats.bug_triggering, r2.stats.bug_triggering);
        assert_eq!(r1.findings.len(), r2.findings.len());
        assert_eq!(recorded, r2.findings.len());
        assert_eq!(r1.final_coverage, r2.final_coverage);
        assert_eq!(r1.snapshots.len(), r2.snapshots.len());
    }

    #[test]
    fn stats_merge_sums_fields() {
        let a = CampaignStats {
            cases: 10,
            total_bytes: 1_000,
            bug_triggering: 2,
            rejected: 1,
            decisive: 7,
            virtual_seconds: 3_600,
            setup_virtual_seconds: 60,
            processes_spawned: 5,
            process_respawns: 2,
            scopes_pushed: 40,
            leases_granted: 6,
            leases_reissued: 1,
            cache_hits: 9,
            cache_misses: 3,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.cases, 20);
        assert_eq!(b.total_bytes, 2_000);
        assert_eq!(b.bug_triggering, 4);
        assert_eq!(b.rejected, 2);
        assert_eq!(b.decisive, 14);
        assert_eq!(b.virtual_seconds, 7_200);
        assert_eq!(b.setup_virtual_seconds, 120);
        assert_eq!(b.processes_spawned, 10);
        assert_eq!(b.process_respawns, 4);
        assert_eq!(b.scopes_pushed, 80);
        assert_eq!(b.leases_granted, 12);
        assert_eq!(b.leases_reissued, 2);
        assert_eq!(b.cache_hits, 18);
        assert_eq!(b.cache_misses, 6);
        assert!((b.mean_bytes() - 100.0).abs() < 1e-9);
        let scrubbed = b.sans_transport();
        assert_eq!(scrubbed.cases, b.cases);
        assert_eq!(scrubbed.processes_spawned, 0);
        assert_eq!(scrubbed.process_respawns, 0);
        assert_eq!(scrubbed.scopes_pushed, 0);
        assert_eq!(scrubbed.leases_granted, 0);
        assert_eq!(scrubbed.leases_reissued, 0);
        assert_eq!(scrubbed.cache_hits, 0);
        assert_eq!(scrubbed.cache_misses, 0);
    }

    #[test]
    fn result_carries_raw_coverage_maps() {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let result = run_campaign(&mut fuzzer, &quick_config());
        for id in [SolverId::OxiZ, SolverId::Cervo] {
            let map = &result.coverage[&id];
            assert!(!map.is_empty());
            let pct = map.line_coverage_pct(universe(id));
            assert!(
                (pct - result.final_coverage[&id].line_pct).abs() < 1e-9,
                "raw map disagrees with recorded percentage for {id}"
            );
        }
    }

    #[test]
    fn hourly_coverage_maps_back_every_snapshot() {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let result = run_campaign(&mut fuzzer, &quick_config());
        assert_eq!(result.hourly_coverage.len(), result.snapshots.len());
        for (snap, maps) in result.snapshots.iter().zip(&result.hourly_coverage) {
            for (&id, point) in &snap.coverage {
                assert_eq!(
                    maps[&id].line_coverage_pct(universe(id)).to_bits(),
                    point.line_pct.to_bits(),
                    "hour {}: stored map disagrees with snapshot percentage",
                    snap.hour
                );
            }
        }
        // The final boundary's map is the final map: the exactness anchor
        // the lossless hourly merge preserves.
        let last = result.hourly_coverage.last().unwrap();
        for (id, map) in &result.coverage {
            assert_eq!(last[id].export(universe(*id)), map.export(universe(*id)));
        }
    }

    #[test]
    fn setup_cost_charged_to_clock() {
        let mut fuzzer = Once4AllFuzzer::new(Once4AllConfig::default());
        let result = run_campaign(&mut fuzzer, &quick_config());
        assert!(result.stats.setup_virtual_seconds > 0);
    }
}

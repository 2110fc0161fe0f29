//! The overlapped shard runner: `K` solver queries in flight per worker,
//! against **external solver processes** over pipes.
//!
//! A shard worker running [`crate::run_shard`] serializes on every solver
//! query; against external solvers (Z3, cvc5, or the deterministic mock)
//! that leaves the worker idle for the whole round-trip.
//! [`run_shard_piped`] drives the same campaign as a **pipeline**:
//!
//! 1. **Generate** — test cases are drawn from the fuzzer in case-index
//!    order (the RNG stream is untouched by overlap);
//! 2. **Execute** — up to `K` cases are in flight at once on an
//!    [`InFlightPool`], completing in reply order, not submission order,
//!    while the worker blocks in the fd reactor's `poll(2)`. Each case
//!    queries all of its solver lanes together: its frame goes to every
//!    lane before any reply is awaited;
//! 3. **Re-sequence** — completions pass through a [`Sequencer`] and are
//!    applied to the [`CampaignStepper`] strictly in case-index order.
//!
//! Because execution is campaign-state-free
//! ([`CampaignStepper::execute_case`]'s contract) and application is
//! in-order, the result is **bit-identical for any `K`** — including the
//! campaign-end boundary: cases generated speculatively while the last
//! real cases were still in flight are discarded by
//! [`CampaignStepper::apply_case`] once the budget is spent, exactly
//! reproducing the `K = 1` stopping point. `crates/executor/README.md`
//! spells out the full determinism argument.
//!
//! Each solver lane multiplexes its `K` in-flight queries as
//! `(push 1)`/`(pop 1)` scopes on **one persistent process**
//! (`crates/bench/tests/pipe_backend.rs` proves the equivalence law
//! against the deterministic mock solver for K ∈ {1, 4, 8}, including
//! under crash injection mid-scope).
//!
//! The in-process engines have no asynchronous path: their checks are
//! CPU-bound on the worker thread, so keeping them in flight would
//! overlap nothing. Their parallelism is shards on threads.

use crate::shard::FindingSink;
use o4a_cache::CacheStore;
use o4a_core::{
    CampaignConfig, CampaignResult, CampaignStepper, CaseExecution, Fuzzer, SolverRun, StepOutcome,
    TestCase,
};
use o4a_executor::{join_all, FdReactor, InFlightPool, Sequencer};
use o4a_solvers::{CoverageMap, PipeCommand, PipeSolver, SmtSolver, SolverMode, VerdictCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Duration;

/// The external-process solver backend configuration: the command line
/// every lane spawns (with `{lane}` substituted per solver lane), the
/// per-query wall-clock deadline, and the verdict cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeBackend {
    /// The solver command line (the `O4A_SOLVER_CMD` knob), whitespace
    /// split; `{lane}` in any argument becomes the lane index.
    pub command: String,
    /// Per-query deadline: a child with no complete reply by then is
    /// killed and the query becomes a `…::pipe::wedged` crash finding.
    pub timeout: Duration,
    /// Verdict-cache directory (the `O4A_CACHE` knob): when set, every
    /// lane consults the campaign-wide [`o4a_cache::CacheStore`] before
    /// dispatching a query and feeds it after a fresh solve. `None`
    /// (the default) is provably a no-op — no lookup, no store, no
    /// journal I/O.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl PipeBackend {
    /// A backend over `command` with the default per-query deadline
    /// ([`o4a_solvers::pipe::DEFAULT_QUERY_TIMEOUT`]). The sharded engine
    /// overrides it from [`crate::ExecConfig`] (the
    /// `O4A_SOLVER_TIMEOUT_MS` knob); programmatic callers use
    /// [`PipeBackend::with_timeout`].
    pub fn new(command: impl Into<String>) -> PipeBackend {
        PipeBackend {
            command: command.into(),
            timeout: o4a_solvers::pipe::DEFAULT_QUERY_TIMEOUT,
            cache_dir: None,
        }
    }

    /// Replaces the per-query deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> PipeBackend {
        self.timeout = timeout;
        self
    }

    /// Returns the backend unchanged: every lane runs the one session
    /// transport. This and [`SolverMode`] exist only so the frozen
    /// `perfbench` harness keeps compiling; both go with the next
    /// benchmark change.
    pub fn with_mode(self, _: SolverMode) -> PipeBackend {
        self
    }

    /// Points the backend at a verdict-cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> PipeBackend {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builds the per-lane [`PipeSolver`] bank for one shard worker, all
    /// lanes sharing `reactor`.
    fn bank(
        &self,
        shard_config: &CampaignConfig,
        shard: u32,
        reactor: &Rc<FdReactor>,
    ) -> Vec<PipeSolver> {
        let command = PipeCommand::parse(&self.command)
            .unwrap_or_else(|| panic!("empty solver command '{}'", self.command));
        // One cache session per shard, shared by every lane: the session
        // merges all shards' journals on open and appends to this shard's
        // own. A cache that fails to open degrades to uncached execution
        // — the campaign result is identical either way (cache ≡ fresh),
        // only slower.
        let cache: Option<Rc<dyn VerdictCache>> =
            self.cache_dir
                .as_ref()
                .and_then(|dir| match CacheStore::new(dir).open_shard(shard) {
                    Ok(session) => Some(Rc::new(session) as Rc<dyn VerdictCache>),
                    Err(e) => {
                        eprintln!(
                            "o4a-cache: cannot open {} for shard {shard}: {e} — running uncached",
                            dir.display()
                        );
                        None
                    }
                });
        shard_config
            .solvers
            .iter()
            .enumerate()
            .map(|(lane, &(id, commit))| {
                let mut solver =
                    PipeSolver::new(command.for_lane(lane), id, commit, Rc::clone(reactor))
                        .with_timeout(self.timeout);
                if let Some(cache) = &cache {
                    solver = solver.with_cache(Rc::clone(cache));
                }
                solver
            })
            .collect()
    }
}

/// One case's in-flight work: the case's frame goes to every solver lane
/// at once ([`join_all`] polls each lane's query to its first wait before
/// awaiting any), and the replies are awaited together. `runs` stays in
/// campaign lane order, and each lane's reply depends only on the script,
/// so the result is the one lane-after-lane querying gives. The fuzzer's
/// frontend pass, if it handed one over, travels with the execution for
/// the judge.
async fn case_future(solvers: &[PipeSolver], mut case: TestCase) -> CaseExecution {
    // The span covers the whole in-flight life of the case, queue waits
    // included — the overlapped counterpart of the serial stepper's
    // `case.execute` span. Held across awaits: the executor is
    // single-threaded, so the guard drops on the recording thread.
    let _span = o4a_obs::trace::span("core", "case.execute").arg("bytes", case.text.len() as u64);
    let text = case.text.as_str();
    let responses = join_all(solvers.iter().map(|solver| solver.check_async(text))).await;
    let runs = solvers
        .iter()
        .zip(responses)
        .map(|(solver, response)| SolverRun {
            solver: solver.id(),
            response,
            // External processes report no coverage.
            coverage: CoverageMap::new(),
        })
        .collect();
    CaseExecution {
        parsed: case.parsed.take(),
        case,
        runs,
    }
}

/// Runs one shard with up to `inflight` overlapped cases against
/// **external solver processes** spawned from `backend`. While every
/// in-flight query waits on a child pipe, the worker blocks in the fd
/// reactor's `poll(2)` — no busy-wait — and a crashed or wedged child
/// becomes a crash finding, never a hang. `inflight = 1` is strict serial
/// submission through the same plumbing.
///
/// `inflight = K` means **K `(push 1)`/`(pop 1)` scopes on one
/// persistent process per lane**, multiplexed over a single pipe. The
/// per-lane transport counters (processes spawned, respawns, scopes
/// pushed) are folded into the shard's
/// [`o4a_core::CampaignStats`] before the sink sees the completed shard,
/// so process churn is measurable from any campaign summary.
///
/// # Panics
///
/// Panics when `inflight` is zero or the backend command is empty.
pub fn run_shard_piped(
    fuzzer: &mut dyn Fuzzer,
    shard_config: &CampaignConfig,
    shard: u32,
    sink: Option<&dyn FindingSink>,
    inflight: usize,
    backend: &PipeBackend,
) -> CampaignResult {
    let reactor = Rc::new(FdReactor::new());
    let solvers = backend.bank(shard_config, shard, &reactor);
    let mut result = run_shard_on(
        fuzzer,
        shard_config,
        shard,
        sink,
        inflight,
        &solvers,
        &reactor,
    );
    for lane in &solvers {
        result.stats.processes_spawned += lane.processes_spawned();
        result.stats.process_respawns += lane.respawns();
        result.stats.scopes_pushed += lane.scopes_pushed();
        result.stats.cache_hits += lane.cache_hits();
        result.stats.cache_misses += lane.cache_misses();
    }
    if let Some(sink) = sink {
        sink.on_shard_complete(shard, &result);
    }
    result
}

/// The overlapped shard loop: generate in case order, keep up to
/// `inflight` [`case_future`]s resident, re-sequence completions, apply
/// in order. When a poll round finds no runnable future the worker
/// blocks in `reactor`'s `poll(2)` until a lane's pipe wakes one.
///
/// Findings stream to `sink` during the run; the **caller** reports
/// shard completion (after folding in the lanes' transport stats), so
/// `sink.on_shard_complete` always sees the final result.
fn run_shard_on(
    fuzzer: &mut dyn Fuzzer,
    shard_config: &CampaignConfig,
    shard: u32,
    sink: Option<&dyn FindingSink>,
    inflight: usize,
    solvers: &[PipeSolver],
    reactor: &FdReactor,
) -> CampaignResult {
    assert!(inflight >= 1, "need at least one in-flight slot");
    let mut rng = StdRng::seed_from_u64(shard_config.seed);
    let mut stepper = CampaignStepper::apply_only(shard_config);
    stepper.charge_setup(fuzzer.setup(&mut rng));

    let mut pool: InFlightPool<CaseExecution> = InFlightPool::new(inflight);
    // On deadlock the pool panics with the reactor's registration dump —
    // which fds were armed, their deadlines, and the last-poll age —
    // instead of a bare count.
    pool.set_diagnostics(|| reactor.debug_dump());
    let mut sequencer: Sequencer<CaseExecution> = Sequencer::new();
    let mut next_case: u64 = 0;
    let mut idle = || {
        let timer = o4a_obs::metrics::start_timer();
        reactor
            .poll_io(None)
            .expect("fd reactor poll(2) failed while queries were in flight");
        o4a_obs::metrics::record_elapsed("exec.poll_idle", timer);
    };

    loop {
        // Fill the window. Exhaustion is judged on the *applied* prefix,
        // which lags the generated prefix by up to `inflight` cases — the
        // overshoot is speculative and discarded at apply time. The gate
        // counts completions still parked in the sequencer, not just pool
        // occupancy: futures that resolve synchronously (verdict-cache
        // hits) free their slot immediately, and refilling past the
        // window would both speculate unboundedly and starve the reactor
        // — a perpetually runnable pool never reaches `poll(2)`, so the
        // one pipe-bound case blocking the sequencer never gets its I/O
        // wake.
        while pool.len() + sequencer.held() < inflight && !stepper.is_exhausted() {
            let case = fuzzer.next_case(&mut rng);
            pool.submit(next_case, case_future(solvers, case));
            next_case += 1;
        }
        if pool.is_empty() {
            break; // budget spent and nothing left in flight
        }
        for (index, execution) in pool.wait_any_with(&mut idle) {
            sequencer.push(index, execution);
        }
        while let Some((_, execution)) = sequencer.pop() {
            if let StepOutcome::Ran {
                recorded_finding: true,
            } = stepper.apply_case(execution)
            {
                if let Some(sink) = sink {
                    let finding = stepper.findings().last().expect("finding just recorded");
                    sink.on_finding(shard, finding);
                }
            }
        }
    }
    debug_assert_eq!(sequencer.held(), 0, "completions drained in order");

    stepper.finish(fuzzer.name())
}

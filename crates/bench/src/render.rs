//! ASCII rendering of tables and figure series, matching the paper's
//! row/column layout so outputs can be compared side by side.

use crate::experiments;
use o4a_core::{CampaignResult, FoundKind, LifespanPoint, StatusCounts};
use o4a_llm::ConstructionReport;
use o4a_solvers::{CommitIdx, SolverId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Renders Table 1 (status of bugs found in the solvers).
pub fn render_table1(table: &BTreeMap<SolverId, StatusCounts>) -> String {
    let mut out = header("Table 1: Status of bugs found in the solvers");
    let oz = table.get(&SolverId::OxiZ).copied().unwrap_or_default();
    let cv = table.get(&SolverId::Cervo).copied().unwrap_or_default();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8}",
        "Status", "Z3*", "cvc5*", "Total"
    );
    for (label, a, b) in [
        ("Reported", oz.reported, cv.reported),
        ("Confirmed", oz.confirmed, cv.confirmed),
        ("Fixed", oz.fixed, cv.fixed),
        ("Duplicate", oz.duplicate, cv.duplicate),
    ] {
        let _ = writeln!(out, "{label:<12} {a:>8} {b:>8} {:>8}", a + b);
    }
    out.push_str("(Z3* = OxiZ, cvc5* = Cervo; see DESIGN.md)\n");
    out
}

/// Renders Table 2 (bug types among the reported bugs).
pub fn render_table2(table: &BTreeMap<SolverId, BTreeMap<FoundKind, usize>>) -> String {
    let mut out = header("Table 2: Bug types among the reported bugs");
    let get = |s: SolverId, k: FoundKind| -> usize {
        table.get(&s).and_then(|m| m.get(&k)).copied().unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "{:<15} {:>8} {:>8} {:>8}",
        "Type", "Z3*", "cvc5*", "Total"
    );
    for kind in [
        FoundKind::Crash,
        FoundKind::InvalidModel,
        FoundKind::Soundness,
    ] {
        let a = get(SolverId::OxiZ, kind);
        let b = get(SolverId::Cervo, kind);
        let _ = writeln!(out, "{:<15} {a:>8} {b:>8} {:>8}", kind.label(), a + b);
    }
    out
}

/// Renders the §5.1 validity study ("Table 3").
pub fn render_table3(report: &ConstructionReport) -> String {
    let mut out = header("Table 3 (§5.1): Generator validity before/after self-correction");
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>6}",
        "Theory", "Before", "After", "Iters"
    );
    for g in &report.generators {
        let _ = writeln!(
            out,
            "{:<16} {:>9.0}% {:>9.0}% {:>6}",
            g.program.theory.name(),
            g.validity_before * 100.0,
            g.validity_after * 100.0,
            g.iterations
        );
    }
    let _ = writeln!(
        out,
        "One-time LLM investment: {} requests, {:.1} virtual minutes",
        report.total_requests,
        report.total_llm_micros as f64 / 60_000_000.0
    );
    out
}

/// Renders Figure 5 (confirmed bugs affecting release versions).
pub fn render_fig5(series: &BTreeMap<SolverId, Vec<LifespanPoint>>) -> String {
    let mut out = header("Figure 5: Confirmed bugs affecting release versions");
    for (solver, points) in series {
        let _ = writeln!(out, "[{}]", solver.stands_for());
        for p in points {
            let bar: String = "#".repeat(p.affected);
            let _ = writeln!(out, "  {:>8}: {:>3} {bar}", p.release.version, p.affected);
        }
    }
    out
}

/// Renders one Figure 6/8 panel: hourly coverage series for many fuzzers.
pub fn render_coverage_panel(
    title: &str,
    results: &[CampaignResult],
    solver: SolverId,
    lines: bool,
) -> String {
    let mut out = header(title);
    let hours: Vec<u32> = results
        .first()
        .map(|r| r.snapshots.iter().map(|s| s.hour).collect())
        .unwrap_or_default();
    let _ = write!(out, "{:<20}", "Fuzzer \\ hour");
    for h in hours.iter().filter(|h| *h % 4 == 0 || **h == 1) {
        let _ = write!(out, "{h:>7}");
    }
    out.push('\n');
    for r in results {
        let _ = write!(out, "{:<20}", r.fuzzer);
        for s in &r.snapshots {
            if s.hour % 4 == 0 || s.hour == 1 {
                let cov = s.coverage.get(&solver).copied().unwrap_or_default();
                let v = if lines {
                    cov.line_pct
                } else {
                    cov.function_pct
                };
                let _ = write!(out, "{v:>6.1}%");
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a Figure 7/9 known-bug comparison.
pub fn render_known_bugs(
    title: &str,
    sets: &[(String, BTreeSet<(SolverId, CommitIdx)>)],
) -> String {
    let mut out = header(title);
    let mut all: BTreeSet<(SolverId, CommitIdx)> = BTreeSet::new();
    for (_, s) in sets {
        all.extend(s.iter().copied());
    }
    for (name, s) in sets {
        let exclusive = s
            .iter()
            .filter(|b| {
                sets.iter()
                    .filter(|(n, _)| n != name)
                    .all(|(_, o)| !o.contains(b))
            })
            .count();
        let _ = writeln!(
            out,
            "{name:<22} unique known bugs: {:>2}   (exclusive: {exclusive})",
            s.len()
        );
    }
    let _ = writeln!(out, "{:<22} distinct bugs overall: {}", "", all.len());
    out
}

/// Renders campaign statistics (§4.2).
pub fn render_stats(result: &CampaignResult) -> String {
    let mut out = header("Campaign statistics (§4.2)");
    let s = &result.stats;
    let _ = writeln!(out, "test cases executed      : {}", s.cases);
    let _ = writeln!(
        out,
        "mean formula size        : {:.0} bytes",
        s.mean_bytes()
    );
    let _ = writeln!(out, "bug-triggering formulas  : {}", s.bug_triggering);
    let _ = writeln!(out, "frontend-rejected inputs : {}", s.rejected);
    let _ = writeln!(out, "decisive (sat/unsat)     : {}", s.decisive);
    let _ = writeln!(out, "virtual time             : {} s", s.virtual_seconds);
    let _ = writeln!(
        out,
        "one-time setup (LLM)     : {} s virtual",
        s.setup_virtual_seconds
    );
    // Pipe-transport process churn — only meaningful when an external
    // solver backend ran (in-process campaigns report zero).
    if s.processes_spawned > 0 || s.scopes_pushed > 0 {
        let _ = writeln!(
            out,
            "solver processes spawned : {} ({} respawned after crash/wedge)",
            s.processes_spawned, s.process_respawns
        );
        let _ = writeln!(out, "incremental scopes pushed: {}", s.scopes_pushed);
    }
    // Verdict-cache traffic — only campaigns run with `O4A_CACHE` (or a
    // `PipeBackend` cache dir) see any; the counters are transport
    // observables, scrubbed by `sans_transport`.
    if s.cache_hits > 0 || s.cache_misses > 0 {
        let looked_up = s.cache_hits + s.cache_misses;
        let hit_pct = if looked_up > 0 {
            s.cache_hits as f64 * 100.0 / looked_up as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "verdict cache            : {} hits / {} misses ({hit_pct:.1}% hit rate)",
            s.cache_hits, s.cache_misses
        );
    }
    // Distribution-layer lease churn — only a distributed coordinator
    // (`o4a-dist`) grants leases.
    if s.leases_granted > 0 {
        let _ = writeln!(
            out,
            "shard leases granted     : {} ({} re-issued after worker deaths)",
            s.leases_granted, s.leases_reissued
        );
    }
    // Engine rewrite, search and shard merge times are process metrics,
    // recorded only while metrics are on (`O4A_METRICS`); a metrics-off
    // run prints none of these lines.
    if o4a_obs::metrics_enabled() {
        let histograms = o4a_obs::metrics::snapshot().histograms;
        for (name, label) in [
            ("solver.rewrite", "solver.rewrite µs/call   "),
            ("solver.search", "solver.search µs/call    "),
            ("exec.merge_micros", "exec.merge µs/campaign   "),
        ] {
            if let Some(h) = histograms.get(name) {
                let _ = writeln!(out, "{label}: {}", render_histogram_line(h));
            }
        }
    }
    for (solver, cov) in &result.final_coverage {
        let _ = writeln!(
            out,
            "final coverage {:<9} : {:.1}% lines, {:.1}% functions",
            solver.to_string(),
            cov.line_pct,
            cov.function_pct
        );
    }
    out
}

/// Renders the fleet summary of a distributed campaign (`o4a-dist`):
/// lease churn and per-worker throughput, the distribution-layer
/// counterpart of the process-churn lines in [`render_stats`].
pub fn render_dist_stats(stats: &o4a_dist::DistStats) -> String {
    let mut out = header("Distributed campaign (o4a-dist)");
    let _ = writeln!(
        out,
        "shard plan               : {} shards on {} workers",
        stats.shards, stats.workers
    );
    let _ = writeln!(
        out,
        "worker processes spawned : {} ({} died or were killed as wedged)",
        stats.workers_spawned, stats.worker_deaths
    );
    let _ = writeln!(
        out,
        "shard leases granted     : {} ({} re-issued after a worker died mid-lease)",
        stats.leases_granted, stats.leases_reissued
    );
    // Elastic-fleet churn — only workers that join on their own count as
    // joins or re-adoptions, and only a checkpointed coordinator resumes;
    // a spawned fleet that keeps its members skips it all.
    if stats.workers_joined > 0 || stats.workers_left > 0 || stats.resumed {
        let _ = writeln!(
            out,
            "elastic fleet            : {} joins, {} goodbyes, {} re-adopted ({} shards credited)",
            stats.workers_joined,
            stats.workers_left,
            stats.workers_readopted,
            stats.shards_readopted
        );
    }
    if stats.resumed {
        let _ = writeln!(out, "coordinator              : resumed from checkpoint");
    }
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>9} {:>9} {:>13} {:>13}  exit",
        "worker", "leases", "cases", "wall", "throughput", "live"
    );
    for w in &stats.per_worker {
        let _ = writeln!(
            out,
            "w{:<7} {:>7} {:>9} {:>8.2}s {:>11.1}/s {:>11.1}/s  {}",
            w.worker,
            w.leases_completed,
            w.cases,
            w.wall.as_secs_f64(),
            w.cases_per_sec(),
            w.last_cases_per_sec,
            if w.clean_exit { "clean" } else { "died" },
        );
    }
    // Fleet-wide cache traffic rides the workers' `done` frames; a
    // cache-off fleet reports the zero pair and the line is skipped.
    if !stats.cache.is_zero() {
        let _ = writeln!(
            out,
            "verdict cache (fleet)    : {} hits / {} misses",
            stats.cache.hits, stats.cache.misses
        );
    }
    // Fleet-wide metrics ride the workers' done/progress frames only
    // when the fleet ran with `O4A_METRICS` on.
    if !stats.fleet_metrics.is_empty() {
        let _ = writeln!(out, "fleet metrics (all workers, merged):");
        for (name, value) in &stats.fleet_metrics.counters {
            let _ = writeln!(out, "  {name:<24} : {value}");
        }
        for (name, h) in &stats.fleet_metrics.histograms {
            let _ = writeln!(out, "  {name:<24} : {}", render_histogram_line(h));
        }
    }
    // Running coverage maxima arrive on `done` frames only when fleet
    // tracing (o4a-scope) was on.
    for (solver, pct) in &stats.coverage {
        let _ = writeln!(out, "coverage (running max)   : {solver} {pct:.1}% lines");
    }
    if let Some(path) = &stats.fleet_trace {
        let _ = writeln!(out, "fleet trace              : {}", path.display());
    }
    out
}

/// One-line histogram summary: exact count and mean (snapshots carry an
/// exact sum, so the mean is not bucket-quantized) plus the log2-bucket
/// ceilings for the p50/p95/p99 quantiles.
pub fn render_histogram_line(h: &o4a_obs::metrics::HistogramSnapshot) -> String {
    format!(
        "n={} mean={:.1} p50<={} p95<={} p99<={}",
        h.count,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.95),
        h.quantile(0.99)
    )
}

/// The outcome of comparing two `BENCH_throughput.json` snapshots: a
/// human-readable table plus the scenarios that regressed past the
/// threshold — CI fails iff `regressions` is non-empty.
#[derive(Debug)]
pub struct BenchDiff {
    /// Per-scenario comparison table.
    pub report: String,
    /// Scenarios slower than `baseline * (1 - max_regress_pct/100)`,
    /// or present in the baseline but missing from the regenerated run.
    pub regressions: Vec<String>,
}

/// Diffs a regenerated `BENCH_throughput.json` against the committed
/// baseline (the bench-trend CI gate). Both arguments are the raw file
/// contents. A scenario regresses when its fresh cases/sec falls more
/// than `max_regress_pct` percent below the baseline, or when it
/// disappears entirely; new scenarios are reported but never fail the
/// gate (the baseline simply hasn't learned them yet).
///
/// # Errors
///
/// Either file failing to parse as the bench's flat
/// `{"scenarios": {name: cases_per_sec}}` layout.
pub fn render_bench_diff(
    baseline: &str,
    fresh: &str,
    max_regress_pct: f64,
) -> std::io::Result<BenchDiff> {
    use o4a_exec::json::{parse, Json};
    fn scenarios(raw: &str, which: &str) -> std::io::Result<BTreeMap<String, f64>> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let json = parse(raw.trim())
            .map_err(|e| bad(format!("{which} BENCH_throughput.json does not parse: {e}")))?;
        let Some(Json::Obj(map)) = json.get("scenarios").cloned() else {
            return Err(bad(format!(
                "{which} BENCH_throughput.json has no scenarios object"
            )));
        };
        map.into_iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|rate| (name.clone(), rate))
                    .ok_or_else(|| bad(format!("{which} scenario '{name}' is not a number")))
            })
            .collect()
    }
    let old = scenarios(baseline, "baseline")?;
    let new = scenarios(fresh, "fresh")?;
    let mut report = header(&format!(
        "Bench trend: cases/sec vs committed baseline (gate: -{max_regress_pct:.0}%)"
    ));
    let _ = writeln!(
        report,
        "{:<22} {:>10} {:>10} {:>8}",
        "scenario", "baseline", "fresh", "delta"
    );
    let mut regressions = Vec::new();
    for (name, &was) in &old {
        match new.get(name) {
            None => {
                let _ = writeln!(report, "{name:<22} {was:>10.1} {:>10} {:>8}", "gone", "—");
                regressions.push(format!("{name}: dropped from the bench"));
            }
            Some(&now) => {
                let delta_pct = if was > 0.0 {
                    (now - was) * 100.0 / was
                } else {
                    0.0
                };
                let regressed = now < was * (1.0 - max_regress_pct / 100.0);
                let _ = writeln!(
                    report,
                    "{name:<22} {was:>10.1} {now:>10.1} {delta_pct:>+7.1}%{}",
                    if regressed { "  << REGRESSION" } else { "" }
                );
                if regressed {
                    regressions.push(format!(
                        "{name}: {was:.1} -> {now:.1} cases/sec ({delta_pct:+.1}%)"
                    ));
                }
            }
        }
    }
    for name in new.keys().filter(|n| !old.contains_key(*n)) {
        let _ = writeln!(
            report,
            "{name:<22} {:>10} {:>10.1} {:>8}  (new scenario)",
            "—", new[name], "—"
        );
    }
    Ok(BenchDiff {
        report,
        regressions,
    })
}

/// Renders the exclusive-coverage analysis (which modules only Once4All
/// reaches).
pub fn render_exclusive(once4all: &CampaignResult, others: &[&CampaignResult]) -> String {
    let mut out = header("Coverage complementarity: functions only Once4All reaches");
    let excl = experiments::exclusive_coverage(once4all, others);
    for (solver, names) in excl {
        let extended: Vec<&String> = names
            .iter()
            .filter(|n| {
                n.contains("::sets") || n.contains("::bags") || n.contains("::finite-fields")
            })
            .collect();
        let _ = writeln!(
            out,
            "[{}] {} exclusive functions, {} in extended-theory modules",
            solver.stands_for(),
            names.len(),
            extended.len()
        );
        for n in extended.iter().take(6) {
            let _ = writeln!(out, "    {n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_rows() {
        let mut t = BTreeMap::new();
        t.insert(
            SolverId::OxiZ,
            StatusCounts {
                reported: 27,
                confirmed: 25,
                fixed: 24,
                duplicate: 2,
            },
        );
        t.insert(
            SolverId::Cervo,
            StatusCounts {
                reported: 18,
                confirmed: 18,
                fixed: 16,
                duplicate: 0,
            },
        );
        let s = render_table1(&t);
        assert!(s.contains("Reported"));
        assert!(s.contains("45"));
        assert!(s.contains("43"));
        assert!(s.contains("40"));
    }

    #[test]
    fn dist_stats_render_shows_lease_churn_and_throughput() {
        let mut fleet_metrics = o4a_obs::metrics::MetricsSnapshot::default();
        fleet_metrics.counters.insert("campaign.cases".into(), 120);
        fleet_metrics.histograms.insert(
            "pipe.query_micros".into(),
            o4a_obs::metrics::HistogramSnapshot {
                count: 4,
                sum: 400,
                buckets: vec![(7, 4)],
            },
        );
        let stats = o4a_dist::DistStats {
            shards: 8,
            workers: 4,
            workers_spawned: 5,
            worker_deaths: 1,
            leases_granted: 9,
            leases_reissued: 1,
            workers_joined: 2,
            workers_readopted: 1,
            workers_left: 1,
            shards_readopted: 2,
            resumed: true,
            per_worker: vec![o4a_dist::WorkerSummary {
                worker: 0,
                journal: std::path::PathBuf::from("/tmp/worker-0.jsonl"),
                leases_completed: 3,
                cases: 120,
                wall: std::time::Duration::from_millis(800),
                clean_exit: true,
                last_cases_per_sec: 155.5,
                metrics: None,
            }],
            cache: o4a_dist::CacheCounters {
                hits: 40,
                misses: 80,
            },
            fleet_metrics,
            coverage: BTreeMap::from([("oxiz".to_string(), 61.5)]),
            fleet_trace: Some(std::path::PathBuf::from("/tmp/fleet-trace.json")),
        };
        let s = render_dist_stats(&stats);
        assert!(s.contains("8 shards on 4 workers"));
        assert!(s.contains("9 (1 re-issued"));
        assert!(s.contains("5 (1 died"));
        assert!(s.contains("w0"));
        assert!(s.contains("150.0/s"), "throughput column missing: {s}");
        assert!(s.contains("155.5/s"), "live-rate column missing: {s}");
        assert!(s.contains("clean"));
        assert!(s.contains("fleet metrics"), "metrics section missing: {s}");
        assert!(s.contains("campaign.cases"));
        assert!(
            s.contains("n=4 mean=100.0 p50<=127 p95<=127 p99<=127"),
            "histogram line missing quantiles: {s}"
        );
        assert!(
            s.contains("coverage (running max)   : oxiz 61.5% lines"),
            "coverage line missing: {s}"
        );
        assert!(
            s.contains("fleet trace              : /tmp/fleet-trace.json"),
            "fleet trace line missing: {s}"
        );
        assert!(
            s.contains("verdict cache (fleet)    : 40 hits / 80 misses"),
            "fleet cache line missing: {s}"
        );
        assert!(
            s.contains("2 joins, 1 goodbyes, 1 re-adopted (2 shards credited)"),
            "elastic churn line missing: {s}"
        );
        assert!(
            s.contains("resumed from checkpoint"),
            "resume line missing: {s}"
        );
    }

    #[test]
    fn pipe_fleet_stats_skip_the_elastic_lines() {
        let stats = o4a_dist::DistStats {
            shards: 4,
            workers: 2,
            ..Default::default()
        };
        let s = render_dist_stats(&stats);
        assert!(
            !s.contains("elastic fleet"),
            "spawned fleets never join: {s}"
        );
        assert!(!s.contains("resumed"), "unchecked fleets never resume: {s}");
    }

    fn bench_json(scenarios: &[(&str, f64)]) -> String {
        let body: Vec<String> = scenarios
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v:?}"))
            .collect();
        format!(
            "{{\"bench\":\"campaign_throughput\",\"scenarios\":{{{}}},\"unit\":\"cases_per_sec\"}}",
            body.join(",")
        )
    }

    #[test]
    fn bench_diff_passes_within_threshold_and_reports_new_scenarios() {
        let baseline = bench_json(&[("serial", 30.0), ("pipe_k8", 150.0)]);
        // -10% and +5%: both inside a 20% gate; a new scenario is noted.
        let fresh = bench_json(&[("serial", 27.0), ("pipe_k8", 157.5), ("tcp_fleet", 90.0)]);
        let diff = render_bench_diff(&baseline, &fresh, 20.0).expect("parse");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.report.contains("serial"));
        assert!(diff.report.contains("-10.0%"), "{}", diff.report);
        assert!(diff.report.contains("(new scenario)"), "{}", diff.report);
        assert!(!diff.report.contains("REGRESSION"), "{}", diff.report);
    }

    #[test]
    fn bench_diff_flags_regressions_and_dropped_scenarios() {
        let baseline = bench_json(&[("serial", 30.0), ("pipe_k8", 150.0), ("cached", 100.0)]);
        // serial fell 50% (past the 20% gate), cached vanished.
        let fresh = bench_json(&[("serial", 15.0), ("pipe_k8", 149.0)]);
        let diff = render_bench_diff(&baseline, &fresh, 20.0).expect("parse");
        assert_eq!(diff.regressions.len(), 2, "{:?}", diff.regressions);
        assert!(diff.regressions.iter().any(|r| r.starts_with("serial:")));
        assert!(diff
            .regressions
            .iter()
            .any(|r| r.contains("dropped from the bench")));
        assert!(diff.report.contains("REGRESSION"), "{}", diff.report);
        // The boundary case: exactly -20% is NOT a regression (strict <).
        let at_gate = bench_json(&[("serial", 24.0), ("pipe_k8", 150.0), ("cached", 100.0)]);
        let diff = render_bench_diff(&baseline, &at_gate, 20.0).expect("parse");
        assert!(
            diff.regressions.is_empty(),
            "exactly at the gate must pass: {:?}",
            diff.regressions
        );
    }

    #[test]
    fn bench_diff_refuses_malformed_snapshots() {
        let good = bench_json(&[("serial", 30.0)]);
        assert!(render_bench_diff("not json", &good, 20.0).is_err());
        assert!(render_bench_diff(&good, "{\"scenarios\":[]}", 20.0).is_err());
        assert!(
            render_bench_diff(&good, "{\"scenarios\":{\"serial\":\"fast\"}}", 20.0).is_err(),
            "non-numeric scenario must be refused"
        );
    }

    #[test]
    fn stats_render_shows_cache_traffic_only_when_cached() {
        let mut result = CampaignResult {
            fuzzer: "test".into(),
            snapshots: Vec::new(),
            findings: Vec::new(),
            stats: Default::default(),
            final_coverage: BTreeMap::new(),
            covered_functions: BTreeMap::new(),
            coverage: BTreeMap::new(),
            hourly_coverage: Vec::new(),
        };
        assert!(
            !render_stats(&result).contains("verdict cache"),
            "cache-off campaigns must not mention the cache"
        );
        result.stats.cache_hits = 30;
        result.stats.cache_misses = 10;
        let s = render_stats(&result);
        assert!(
            s.contains("verdict cache            : 30 hits / 10 misses (75.0% hit rate)"),
            "cache line missing or wrong: {s}"
        );
    }

    #[test]
    fn stats_render_shows_search_time_with_metrics_on() {
        let result = CampaignResult {
            fuzzer: "test".into(),
            snapshots: Vec::new(),
            findings: Vec::new(),
            stats: Default::default(),
            final_coverage: BTreeMap::new(),
            covered_functions: BTreeMap::new(),
            coverage: BTreeMap::new(),
            hourly_coverage: Vec::new(),
        };
        o4a_obs::install(o4a_obs::ObsConfig {
            metrics: true,
            ..o4a_obs::ObsConfig::default()
        });
        o4a_obs::metrics::histogram("solver.rewrite").record(30);
        o4a_obs::metrics::histogram("solver.search").record(40);
        o4a_obs::metrics::histogram("exec.merge_micros").record(900);
        let s = render_stats(&result);
        assert!(s.contains("solver.rewrite µs/call   : n="), "{s}");
        assert!(s.contains("solver.search µs/call    : n="), "{s}");
        assert!(s.contains("exec.merge µs/campaign   : n="), "{s}");
    }

    #[test]
    fn known_bugs_rendering_counts_exclusives() {
        let sets = vec![
            (
                "Once4All".to_string(),
                [(SolverId::OxiZ, 75u32), (SolverId::Cervo, 65u32)]
                    .into_iter()
                    .collect::<BTreeSet<_>>(),
            ),
            (
                "OpFuzz".to_string(),
                [(SolverId::OxiZ, 75u32)].into_iter().collect(),
            ),
        ];
        let s = render_known_bugs("Figure 7", &sets);
        assert!(s.contains("Once4All"));
        assert!(s.contains("distinct bugs overall: 2"));
        assert!(s.contains("(exclusive: 1)"));
    }
}

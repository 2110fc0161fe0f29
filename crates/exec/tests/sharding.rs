//! Shard determinism and merge-semantics tests: the acceptance criteria of
//! the sharded engine. A 4-shard parallel campaign must merge to the same
//! case/bug/issue counts as the same shards run serially, and repeated
//! runs with one seed must be bit-identical in aggregate.

use o4a_core::{dedup, run_campaign, CampaignConfig, Fuzzer, Once4AllFuzzer};
use o4a_exec::{
    run_campaign_resumable, run_campaign_sharded, run_shard_lease, shard_configs, shard_seed,
    ExecConfig, FindingsStore, Parallelism,
};
use o4a_solvers::coverage::universe;
use o4a_solvers::{CoverageMap, SolverId};
use std::collections::BTreeMap;

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 2_000_000, // smoke-test scale: a few dozen cases
        max_cases: 60,
        ..CampaignConfig::default()
    }
}

fn factory(_shard: u32) -> Box<dyn Fuzzer> {
    Box::new(Once4AllFuzzer::with_defaults())
}

/// Everything the merge semantics promise to keep deterministic: case and
/// bug counts, finding texts, deduplicated issue keys, and per-solver
/// covered-line totals.
type Fingerprint = (u64, u64, Vec<String>, Vec<String>, Vec<(SolverId, u64)>);

fn fingerprint(result: &o4a_core::CampaignResult) -> Fingerprint {
    let issues: Vec<String> = dedup(&result.findings).into_iter().map(|i| i.key).collect();
    let cases: Vec<String> = result
        .findings
        .iter()
        .map(|f| f.case_text.clone())
        .collect();
    let lines: Vec<(SolverId, u64)> = result
        .coverage
        .iter()
        .map(|(&s, m)| (s, m.lines_hit(universe(s))))
        .collect();
    (
        result.stats.cases,
        result.stats.bug_triggering,
        cases,
        issues,
        lines,
    )
}

#[test]
fn shard_configs_are_deterministic_and_disjoint() {
    let config = quick_config();
    let shards = shard_configs(&config, 4);
    assert_eq!(shards.len(), 4);
    assert_eq!(shards[0].seed, config.seed, "shard 0 keeps the base stream");
    let mut seeds: Vec<u64> = shards.iter().map(|c| c.seed).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), 4, "shard seeds must be distinct");
    for (i, shard) in shards.iter().enumerate() {
        assert_eq!(shard.seed, shard_seed(config.seed, i as u32));
        assert_eq!(shard.virtual_hours, config.virtual_hours);
        assert_eq!(shard.time_scale, config.time_scale);
    }
    let total: usize = shards.iter().map(|c| c.max_cases).sum();
    assert!(total >= config.max_cases, "case budget must not shrink");
}

#[test]
fn four_shard_parallel_run_is_reproducible() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 4,
        parallelism: Parallelism::Threads(4),
        ..ExecConfig::default()
    };
    let a = run_campaign_sharded(factory, &config, &exec);
    let b = run_campaign_sharded(factory, &config, &exec);
    assert!(a.stats.cases > 0);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn parallel_merge_matches_serial_merge() {
    let config = quick_config();
    let parallel = run_campaign_sharded(
        factory,
        &config,
        &ExecConfig {
            shards: 4,
            parallelism: Parallelism::Threads(4),
            ..ExecConfig::default()
        },
    );
    let serial = run_campaign_sharded(
        factory,
        &config,
        &ExecConfig {
            shards: 4,
            parallelism: Parallelism::Serial,
            ..ExecConfig::default()
        },
    );
    assert_eq!(fingerprint(&parallel), fingerprint(&serial));
    // Snapshots carry the same merged cases/issues series either way.
    let series = |r: &o4a_core::CampaignResult| -> Vec<(u32, u64, usize)> {
        r.snapshots
            .iter()
            .map(|s| (s.hour, s.cases, s.issues))
            .collect()
    };
    assert_eq!(series(&parallel), series(&serial));
}

#[test]
fn one_shard_engine_matches_serial_campaign() {
    // Two scales: the smoke scale, and a coarser one where a single case
    // jumps a whole virtual hour — the boundary case where snapshot issue
    // counting (findings with vhour past the hour line) must agree.
    for time_scale in [2_000_000u64, 500_000] {
        let config = CampaignConfig {
            time_scale,
            ..quick_config()
        };
        let mut fuzzer = Once4AllFuzzer::with_defaults();
        let serial = run_campaign(&mut fuzzer, &config);
        let sharded = run_campaign_sharded(
            factory,
            &config,
            &ExecConfig {
                shards: 1,
                parallelism: Parallelism::Auto,
                ..ExecConfig::default()
            },
        );
        assert_eq!(fingerprint(&serial), fingerprint(&sharded));
        assert_eq!(serial.stats.rejected, sharded.stats.rejected);
        assert_eq!(serial.stats.decisive, sharded.stats.decisive);
        assert_eq!(serial.final_coverage, sharded.final_coverage);
        let series = |r: &o4a_core::CampaignResult| -> Vec<(u32, u64, usize)> {
            r.snapshots
                .iter()
                .map(|s| (s.hour, s.cases, s.issues))
                .collect()
        };
        assert_eq!(
            series(&serial),
            series(&sharded),
            "hourly snapshot series diverged at time_scale {time_scale}"
        );
    }
}

/// The hourly series, bit-comparable: per hour, the per-solver coverage
/// percentages' exact float bits.
fn cov_series(result: &o4a_core::CampaignResult) -> Vec<Vec<(SolverId, u64, u64)>> {
    result
        .snapshots
        .iter()
        .map(|s| {
            s.coverage
                .iter()
                .map(|(&id, p)| (id, p.line_pct.to_bits(), p.function_pct.to_bits()))
                .collect()
        })
        .collect()
}

/// serial ≡ merged, hourly series included: with one shard the merged
/// hourly coverage points are bit-identical to the serial campaign's —
/// the exact-union rule recomputes the same percentages from the same
/// maps the serial stepper snapshotted.
#[test]
fn serial_and_merged_hourly_series_agree_bit_for_bit() {
    let config = quick_config();
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    let serial = run_campaign(&mut fuzzer, &config);
    let merged = run_campaign_sharded(
        factory,
        &config,
        &ExecConfig {
            shards: 1,
            ..ExecConfig::default()
        },
    );
    assert_eq!(cov_series(&serial), cov_series(&merged));
    assert_eq!(
        serial.hourly_coverage.len(),
        merged.hourly_coverage.len(),
        "merged result must keep the per-hour raw maps"
    );
}

/// The lossless-hourly-coverage law: a multi-shard merge's hourly
/// coverage is the percentage of the **union** of the shards' hour-`h`
/// maps — exact, not the old per-shard-max lower bound — and the final
/// hour therefore equals the final union coverage.
#[test]
fn merged_hourly_series_is_the_exact_union() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 3,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let merged = run_campaign_sharded(factory, &config, &exec);

    // Recompute the expected series from independently-run shards.
    let shard_runs: Vec<o4a_core::CampaignResult> = (0..3)
        .map(|shard| {
            let mut fuzzer = Once4AllFuzzer::with_defaults();
            run_shard_lease(&mut fuzzer, &config, &exec, shard, None)
        })
        .collect();
    let mut max_rule_beaten = false;
    for (idx, snap) in merged.snapshots.iter().enumerate() {
        let mut union: BTreeMap<SolverId, CoverageMap> = BTreeMap::new();
        for shard in &shard_runs {
            for (&solver, map) in &shard.hourly_coverage[idx] {
                union.entry(solver).or_default().merge(map);
            }
        }
        for (&solver, map) in &union {
            let u = universe(solver);
            let point = snap.coverage[&solver];
            assert_eq!(
                point.line_pct.to_bits(),
                map.line_coverage_pct(u).to_bits(),
                "hour {}: merged line coverage is not the union's",
                snap.hour
            );
            assert_eq!(
                point.function_pct.to_bits(),
                map.function_coverage_pct(u).to_bits(),
                "hour {}: merged function coverage is not the union's",
                snap.hour
            );
            // The documented old rule: maximum across shards.
            let max_rule = shard_runs
                .iter()
                .map(|s| s.snapshots[idx].coverage[&solver].line_pct)
                .fold(0.0f64, f64::max);
            if point.line_pct > max_rule {
                max_rule_beaten = true;
            }
        }
    }
    assert!(
        max_rule_beaten,
        "union never exceeded the per-shard max — the exactness claim is vacuous here"
    );
    // The invariant the lower bound used to break: the final hour's
    // snapshot equals the final (lossless) union coverage.
    assert_eq!(
        merged.snapshots.last().unwrap().coverage,
        merged.final_coverage
    );
}

/// The journal round trip preserves the exact hourly series: a campaign
/// loaded entirely from its findings store (per-hour coverage deltas
/// folded back into cumulative maps) merges to bit-identical snapshots.
#[test]
fn journal_roundtrip_preserves_exact_hourly_series() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 3,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let mut path = std::env::temp_dir();
    path.push(format!("o4a-hourly-roundtrip-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = FindingsStore::new(&path);
    let fresh = run_campaign_resumable(factory, &config, &exec, &store).expect("journal I/O");
    // Second open: every shard loads from the journal; nothing re-runs.
    let reloaded = run_campaign_resumable(factory, &config, &exec, &store).expect("journal I/O");
    assert_eq!(cov_series(&fresh), cov_series(&reloaded));
    assert_eq!(fresh.final_coverage, reloaded.final_coverage);
    assert_eq!(
        fresh.hourly_coverage.len(),
        reloaded.hourly_coverage.len(),
        "hourly maps must survive the journal round trip"
    );
    for (idx, (a, b)) in fresh
        .hourly_coverage
        .iter()
        .zip(&reloaded.hourly_coverage)
        .enumerate()
    {
        for (&solver, map) in a {
            let u = universe(solver);
            assert_eq!(
                map.export(u),
                b[&solver].export(u),
                "hour {}: {solver} map diverged across the round trip",
                idx + 1
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sharding_scales_case_throughput() {
    // With a per-shard budget of the full virtual duration, four shards
    // execute roughly four times the cases of one (same wall budget on
    // four machines). This is the throughput story of the engine.
    let config = quick_config();
    let one = run_campaign_sharded(
        factory,
        &config,
        &ExecConfig {
            shards: 1,
            parallelism: Parallelism::Serial,
            ..ExecConfig::default()
        },
    );
    let four = run_campaign_sharded(
        factory,
        &config,
        &ExecConfig {
            shards: 4,
            parallelism: Parallelism::Auto,
            ..ExecConfig::default()
        },
    );
    assert!(
        four.stats.cases > one.stats.cases * 2,
        "4 shards ran {} cases vs {} for 1 shard",
        four.stats.cases,
        one.stats.cases
    );
}

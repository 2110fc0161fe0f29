//! Findings-store round-trip and resume tests: a journaled campaign must
//! reload to the same merged result, and a killed-then-resumed campaign
//! must report the same deduplicated issue set as an uninterrupted run.

use o4a_core::{dedup, CampaignConfig, Fuzzer, Once4AllFuzzer};
use o4a_exec::{
    run_campaign_resumable, run_campaign_sharded, ExecConfig, FindingsStore, Parallelism,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 2_000_000,
        max_cases: 60,
        ..CampaignConfig::default()
    }
}

fn factory(_shard: u32) -> Box<dyn Fuzzer> {
    Box::new(Once4AllFuzzer::with_defaults())
}

static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// A fresh journal path under the target-adjacent temp dir.
fn journal_path(tag: &str) -> PathBuf {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "o4a-exec-test-{}-{tag}-{id}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn fingerprint(result: &o4a_core::CampaignResult) -> (u64, u64, Vec<String>, Vec<String>) {
    (
        result.stats.cases,
        result.stats.bug_triggering,
        result
            .findings
            .iter()
            .map(|f| f.case_text.clone())
            .collect(),
        dedup(&result.findings).into_iter().map(|i| i.key).collect(),
    )
}

#[test]
fn journaled_run_matches_plain_run_and_reloads() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 4,
        parallelism: Parallelism::Threads(4),
        ..ExecConfig::default()
    };
    let plain = run_campaign_sharded(factory, &config, &exec);

    let path = journal_path("roundtrip");
    let store = FindingsStore::new(&path);
    let journaled = run_campaign_resumable(factory, &config, &exec, &store).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&journaled));

    // Second open: every shard is complete in the journal, so nothing
    // re-runs and the loaded result is identical (including coverage).
    let reloaded = run_campaign_resumable(factory, &config, &exec, &store).unwrap();
    assert_eq!(fingerprint(&journaled), fingerprint(&reloaded));
    assert_eq!(journaled.final_coverage, reloaded.final_coverage);
    assert_eq!(
        journaled.stats.virtual_seconds,
        reloaded.stats.virtual_seconds
    );
    let snaps = |r: &o4a_core::CampaignResult| -> Vec<(u32, u64, usize)> {
        r.snapshots
            .iter()
            .map(|s| (s.hour, s.cases, s.issues))
            .collect()
    };
    assert_eq!(snaps(&journaled), snaps(&reloaded));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_campaign_resumes_to_uninterrupted_issue_set() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 4,
        parallelism: Parallelism::Serial, // deterministic journal line order
        ..ExecConfig::default()
    };

    // Uninterrupted reference run.
    let full_path = journal_path("full");
    let full_store = FindingsStore::new(&full_path);
    let uninterrupted = run_campaign_resumable(factory, &config, &exec, &full_store).unwrap();

    // Simulate a kill: keep the header, shards 0 and 1 in full (including
    // their completion records), and shard 2's findings *without* its
    // completion record — the state a SIGKILL mid-shard-2 leaves behind.
    let journal = std::fs::read_to_string(&full_path).unwrap();
    let mut truncated = String::new();
    for line in journal.lines() {
        let keep = if line.contains("\"shard_done\"") {
            line.contains("\"shard\":0") || line.contains("\"shard\":1")
        } else if line.contains("\"finding\"") {
            !line.contains("\"shard\":3")
        } else {
            true // header
        };
        if keep {
            truncated.push_str(line);
            truncated.push('\n');
        }
    }
    let killed_path = journal_path("killed");
    std::fs::write(&killed_path, truncated).unwrap();

    // Resume: shards 0-1 load from the journal; shards 2-3 re-run (shard
    // 2's orphaned findings are dropped and regenerated deterministically).
    let resumed =
        run_campaign_resumable(factory, &config, &exec, &FindingsStore::new(&killed_path)).unwrap();
    assert_eq!(fingerprint(&uninterrupted), fingerprint(&resumed));
    assert_eq!(uninterrupted.final_coverage, resumed.final_coverage);

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&killed_path);
}

#[test]
fn torn_trailing_line_does_not_block_resume() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let full_path = journal_path("torn-src");
    let uninterrupted =
        run_campaign_resumable(factory, &config, &exec, &FindingsStore::new(&full_path)).unwrap();

    // A SIGKILL mid-write leaves the journal ending in half a record.
    // Simulate on two prefixes: after shard 0 completed, and mid-journal
    // with shard 1's records partially present; tear once in ASCII and
    // once inside a non-ASCII case text, mid-way through the two bytes
    // of an `è`.
    let journal = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    let first_done = lines
        .iter()
        .position(|l| l.contains("\"shard_done\""))
        .expect("shard 0 completion present");
    let ascii_tear: &[u8] = b"{\"t\":\"finding\",\"case\":\"(asse";
    let utf8_tear: &[u8] = &"{\"t\":\"finding\",\"case\":\"(assert |caf\u{e8}|)".as_bytes()[..36];
    assert!(
        std::str::from_utf8(utf8_tear).is_err(),
        "tear must split the è"
    );
    for keep in [first_done + 1, lines.len() - 1] {
        for tear in [ascii_tear, utf8_tear] {
            let mut torn = lines[..keep].join("\n").into_bytes();
            torn.push(b'\n');
            torn.extend_from_slice(tear);
            let torn_path = journal_path("torn");
            std::fs::write(&torn_path, torn).unwrap();
            // Resume repeatedly: the first resume must cut the tail before
            // it appends, so no later one finds a record glued onto it.
            for round in 1..=3 {
                let resumed = run_campaign_resumable(
                    factory,
                    &config,
                    &exec,
                    &FindingsStore::new(&torn_path),
                )
                .unwrap_or_else(|e| panic!("resume round {round} refused: {e}"));
                assert_eq!(
                    fingerprint(&uninterrupted),
                    fingerprint(&resumed),
                    "resume round {round} diverged"
                );
                let healed = std::fs::read(&torn_path).unwrap();
                let healed = String::from_utf8(healed).expect("the torn è must be cut");
                for line in healed.lines() {
                    assert!(
                        o4a_exec::json::parse(line).is_ok(),
                        "round {round} left a glued line: {}",
                        line.chars().take(120).collect::<String>()
                    );
                }
            }
            let _ = std::fs::remove_file(&torn_path);
        }
    }

    // Corruption that is *not* the trailing line stays fatal.
    let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    mangled[first_done] = "{\"t\":\"shard_done\",\"sha".to_string();
    let mangled_path = journal_path("mangled");
    std::fs::write(&mangled_path, mangled.join("\n")).unwrap();
    assert!(
        run_campaign_resumable(factory, &config, &exec, &FindingsStore::new(&mangled_path))
            .is_err(),
        "mid-journal corruption must be refused"
    );
    let _ = std::fs::remove_file(&mangled_path);
    let _ = std::fs::remove_file(&full_path);
}

/// The pipe backend's "solver process died" findings must be crash-safe:
/// journaled (write + flush + fsync) the moment the case completes, decoded
/// back with their external signature intact, and regenerated
/// deterministically when a kill orphans them before their shard record.
///
/// `true` is the perfect always-dying external solver: it exits before
/// answering, so every query is an EOF crash with signature
/// `<solver>::pipe::process-died`.
#[test]
fn solver_process_died_findings_are_crash_safe_across_kill_resume() {
    let config = CampaignConfig {
        max_cases: 24, // every case is a crash finding; keep spawns cheap
        ..quick_config()
    };
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial, // deterministic journal line order
        inflight: 4,
        solver_cmd: Some("true".into()),
        ..ExecConfig::default()
    };

    let path = journal_path("pipe-crash");
    let store = FindingsStore::new(&path);
    let journaled = run_campaign_resumable(factory, &config, &exec, &store).unwrap();
    assert!(
        journaled
            .findings
            .iter()
            .any(|f| f.signature.as_deref() == Some("oxiz::pipe::process-died")),
        "an always-dying external solver must produce process-died findings"
    );

    // The journal on disk already holds the crash findings verbatim — the
    // durability point is *before* the engine moves past the case, so the
    // evidence survives even though the solver process itself is gone.
    let journal = std::fs::read_to_string(&path).unwrap();
    assert!(journal.contains("pipe::process-died"));

    // Reload: both shards are complete, so the crash-kind findings decode
    // from the journal rather than re-running — and match exactly.
    let reloaded = run_campaign_resumable(factory, &config, &exec, &store).unwrap();
    assert_eq!(fingerprint(&journaled), fingerprint(&reloaded));
    assert_eq!(
        journaled
            .findings
            .iter()
            .map(|f| (f.signature.clone(), f.kind))
            .collect::<Vec<_>>(),
        reloaded
            .findings
            .iter()
            .map(|f| (f.signature.clone(), f.kind))
            .collect::<Vec<_>>(),
        "crash finding kind/signature must round-trip the journal"
    );

    // Kill/resume: drop shard 1's completion record, orphaning its crash
    // findings — the re-run must regenerate the identical set.
    let truncated: String = journal
        .lines()
        .filter(|line| !(line.contains("\"shard_done\"") && line.contains("\"shard\":1")))
        .flat_map(|line| [line, "\n"])
        .collect();
    let killed_path = journal_path("pipe-crash-killed");
    std::fs::write(&killed_path, truncated).unwrap();
    let resumed =
        run_campaign_resumable(factory, &config, &exec, &FindingsStore::new(&killed_path)).unwrap();
    assert_eq!(fingerprint(&journaled), fingerprint(&resumed));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&killed_path);
}

#[test]
fn mismatched_campaign_is_refused() {
    let config = quick_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let path = journal_path("mismatch");
    let store = FindingsStore::new(&path);
    run_campaign_resumable(factory, &config, &exec, &store).unwrap();

    // Different seed → different campaign → refuse to resume.
    let other = CampaignConfig {
        seed: config.seed ^ 0xffff,
        ..config.clone()
    };
    let err = run_campaign_resumable(factory, &other, &exec, &store);
    assert!(err.is_err(), "resuming a different campaign must fail");

    // Different shard count is a different plan, too.
    let err = run_campaign_resumable(factory, &config, &ExecConfig { shards: 3, ..exec }, &store);
    assert!(
        err.is_err(),
        "resuming with a different shard count must fail"
    );
    let _ = std::fs::remove_file(&path);
}

// ----------------------------------------------------------- merge_from

/// A scale where shards reliably record findings (the cross-journal
/// dedup tests are vacuous without them).
fn findings_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000,
        max_cases: 120,
        ..CampaignConfig::default()
    }
}

/// `merge_from` unions completed shards across per-worker journals: two
/// workers, one shard each, merge to the same campaign a single process
/// produces.
#[test]
fn merge_from_unions_worker_journals() {
    use o4a_exec::{merge_shard_results, run_shard_lease};
    let config = findings_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let paths: Vec<PathBuf> = (0..2u32)
        .map(|shard| {
            let path = journal_path(&format!("merge-worker-{shard}"));
            let store = FindingsStore::new(&path);
            let (session, completed) = store.resume_or_create(&config, 2).unwrap();
            assert!(completed.is_empty());
            let mut fuzzer = factory(shard);
            run_shard_lease(fuzzer.as_mut(), &config, &exec, shard, Some(&session));
            path
        })
        .collect();

    let completed = FindingsStore::merge_from(&config, 2, &paths).unwrap();
    assert_eq!(completed.len(), 2, "both shards must merge as complete");
    let ordered: Vec<o4a_core::CampaignResult> = completed.into_values().collect();
    let merged = merge_shard_results(&config, &ordered);
    let reference = run_campaign_sharded(factory, &config, &exec);
    assert_eq!(fingerprint(&merged), fingerprint(&reference));
    assert_eq!(merged.final_coverage, reference.final_coverage);
    assert_eq!(
        merged.hourly_coverage.len(),
        reference.hourly_coverage.len(),
        "journal-merged results must keep the exact hourly maps"
    );
    for p in paths {
        let _ = std::fs::remove_file(&p);
    }
}

/// Cross-journal dedup: a finding journaled by a worker that died
/// mid-lease (no completion record) and re-derived by the worker that
/// re-ran the shard survives **exactly once** — and a shard completed in
/// two journals (a presumed-dead worker that actually finished) counts
/// once too.
#[test]
fn cross_journal_duplicate_finding_survives_once() {
    use o4a_exec::{run_shard_lease, FindingSink};
    let config = findings_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };

    // Find a shard that records findings at this scale.
    let (shard, reference) = (0..2u32)
        .map(|shard| {
            let mut fuzzer = factory(shard);
            (
                shard,
                run_shard_lease(fuzzer.as_mut(), &config, &exec, shard, None),
            )
        })
        .find(|(_, r)| !r.findings.is_empty())
        .expect("no shard recorded findings — the dedup test is vacuous");

    // Journal A: a worker that ran the shard to completion.
    let complete_path = journal_path("dedup-complete");
    {
        let store = FindingsStore::new(&complete_path);
        let (session, _) = store.resume_or_create(&config, 2).unwrap();
        let mut fuzzer = factory(shard);
        run_shard_lease(fuzzer.as_mut(), &config, &exec, shard, Some(&session));
    }
    // Journal B: a worker that journaled the same findings but died
    // before the completion record (the kill-mid-lease artifact).
    let crashed_path = journal_path("dedup-crashed");
    {
        let store = FindingsStore::new(&crashed_path);
        let (session, _) = store.resume_or_create(&config, 2).unwrap();
        for finding in &reference.findings {
            session.on_finding(shard, finding);
        }
    }
    // Journal C: byte-identical copy of the complete journal (the
    // presumed-dead-but-actually-finished race).
    let copy_path = journal_path("dedup-copy");
    std::fs::copy(&complete_path, &copy_path).unwrap();

    // The crashed journal first: its dangling findings must not win.
    let paths = vec![
        crashed_path.clone(),
        complete_path.clone(),
        copy_path.clone(),
    ];
    let completed = FindingsStore::merge_from(&config, 2, &paths).unwrap();
    assert_eq!(completed.len(), 1, "exactly one shard is complete");
    let merged_shard = &completed[&shard];
    assert_eq!(
        merged_shard.findings.len(),
        reference.findings.len(),
        "a finding discovered by two workers must survive exactly once"
    );
    assert_eq!(
        merged_shard
            .findings
            .iter()
            .map(|f| f.case_text.clone())
            .collect::<Vec<_>>(),
        reference
            .findings
            .iter()
            .map(|f| f.case_text.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        dedup(&merged_shard.findings).len(),
        dedup(&reference.findings).len()
    );
    for p in paths {
        let _ = std::fs::remove_file(&p);
    }
}

/// `merge_from` skips journals that never came up (missing or empty
/// files) but still refuses one from a different campaign.
#[test]
fn merge_from_skips_absent_journals_and_refuses_foreign_ones() {
    use o4a_exec::run_shard_lease;
    let config = findings_config();
    let exec = ExecConfig {
        shards: 2,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    };
    let real_path = journal_path("absent-real");
    {
        let store = FindingsStore::new(&real_path);
        let (session, _) = store.resume_or_create(&config, 2).unwrap();
        let mut fuzzer = factory(0);
        run_shard_lease(fuzzer.as_mut(), &config, &exec, 0, Some(&session));
    }
    let ghost = journal_path("absent-ghost"); // never created
    let empty = journal_path("absent-empty");
    std::fs::write(&empty, b"").unwrap();

    let completed =
        FindingsStore::merge_from(&config, 2, &[ghost, empty.clone(), real_path.clone()]).unwrap();
    assert_eq!(completed.len(), 1);

    // A journal of a different campaign poisons the merge.
    let foreign_config = CampaignConfig {
        seed: config.seed ^ 0xabcd,
        ..config.clone()
    };
    let foreign = journal_path("absent-foreign");
    {
        let store = FindingsStore::new(&foreign);
        let (_session, _) = store.resume_or_create(&foreign_config, 2).unwrap();
    }
    let err = FindingsStore::merge_from(&config, 2, &[real_path.clone(), foreign.clone()]);
    assert!(err.is_err(), "foreign journals must be refused, not merged");

    for p in [empty, real_path, foreign] {
        let _ = std::fs::remove_file(&p);
    }
}

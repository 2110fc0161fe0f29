//! The resumable findings store: an append-only JSONL journal of campaign
//! findings plus per-shard completion records.
//!
//! ## File format
//!
//! One JSON object per line:
//!
//! * `{"t":"campaign", ...}` — header: a fingerprint of the campaign
//!   configuration and shard count. Written once, first. Resuming against
//!   a store whose fingerprint differs is refused.
//! * `{"t":"finding","shard":i, ...}` — one bug-triggering finding, written
//!   (and flushed) the moment shard `i` records it. This is the
//!   crash-durability point: findings survive a killed process even when
//!   their shard never completes.
//! * `{"t":"shard_done","shard":i, ...}` — shard `i` ran to completion;
//!   carries its stats, hourly snapshots, exported coverage maps, and
//!   per-hour coverage-map **deltas** (the newly-covered branch bits at
//!   each hour boundary), from which the cumulative hourly maps — and
//!   therefore an *exact* merged hourly snapshot series — reconstruct.
//!
//! The framing — header check, fsync'd appends, the torn-tail rule — is
//! [`o4a_obs::journal`]'s (see the "Journal" section of the `o4a-obs`
//! README); this module owns the record codecs and the fold.
//!
//! ## Resume semantics
//!
//! On load, a shard counts as **complete** iff its `shard_done` record is
//! present; its result is reconstructed from the record plus its finding
//! lines. Findings from shards without a completion record are *dropped*
//! and the shard re-runs from scratch — shard execution is deterministic,
//! so the re-run regenerates exactly the findings the kill lost, and a
//! resumed campaign reports the same deduplicated issue set as an
//! uninterrupted one. Exact-duplicate finding records (a re-run shard
//! journals its findings again) are dropped on load.

use crate::json::{obj, Json};
use crate::shard::FindingSink;
use o4a_core::{
    CampaignConfig, CampaignResult, CampaignStats, CoveragePoint, Finding, FoundKind,
    HourlySnapshot,
};
use o4a_obs::journal::{self, Journal};
use o4a_smtlib::Theory;
use o4a_solvers::bugs::registry;
use o4a_solvers::coverage::universe;
use o4a_solvers::{CoverageMap, SolverId};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// A findings store bound to one JSONL file path.
#[derive(Clone, Debug)]
pub struct FindingsStore {
    path: PathBuf,
}

impl FindingsStore {
    /// Binds a store to `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> FindingsStore {
        FindingsStore { path: path.into() }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens the journal for a campaign: creates it (writing the header)
    /// when absent, or loads it and returns the shards that already ran to
    /// completion. The returned session appends to the same file, after
    /// any torn final line is cut.
    ///
    /// # Errors
    ///
    /// I/O errors, a corrupt journal, or a journal whose header fingerprint
    /// does not match `config`/`shards` (resuming a different campaign).
    pub fn resume_or_create(
        &self,
        config: &CampaignConfig,
        shards: u32,
    ) -> io::Result<(StoreSession, BTreeMap<u32, CampaignResult>)> {
        let mut fold = Fold::default();
        let (journal, _) = journal::open(&self.path, &header_record(config, shards), |r| {
            fold.record(r)
        })?;
        Ok((StoreSession { journal }, fold.completed()?))
    }

    /// Loads and unions the completed shards of **several journals of the
    /// same campaign** — the distributed-merge API. Each worker process of
    /// an `o4a-dist` campaign appends to its own journal; the coordinator
    /// hands every journal path (including those of workers that died
    /// mid-lease) to this function and merges the union with
    /// [`crate::merge_shard_results`].
    ///
    /// The single-journal laws extend across files:
    ///
    /// * a shard counts as complete iff some journal holds its
    ///   `shard_done` record; findings journaled by a worker that died
    ///   before completing the shard are dropped (the re-issued lease
    ///   re-derives them deterministically), so a finding discovered by
    ///   two workers survives **exactly once**;
    /// * a shard completed in two journals (a re-issued lease whose
    ///   original holder finished after all) decodes identically —
    ///   shard execution is deterministic — and the first journal's copy
    ///   is kept;
    /// * missing or empty files are skipped (a worker may die before its
    ///   journal gains a header), and a journal is only read, never cut:
    ///   its writer may still be live.
    ///
    /// # Errors
    ///
    /// I/O errors, corrupt journals (a torn *final* line is tolerated, as
    /// on resume), and journals whose header does not match
    /// `config`/`shards`.
    pub fn merge_from(
        config: &CampaignConfig,
        shards: u32,
        paths: &[PathBuf],
    ) -> io::Result<BTreeMap<u32, CampaignResult>> {
        let header = header_record(config, shards);
        let mut completed: BTreeMap<u32, CampaignResult> = BTreeMap::new();
        for path in paths {
            let mut fold = Fold::default();
            journal::replay(path, &header, |r| fold.record(r))?;
            for (shard, result) in fold.completed()? {
                completed.entry(shard).or_insert(result);
            }
        }
        Ok(completed)
    }
}

/// An open, appendable journal. Implements [`FindingSink`], so it plugs
/// directly into the sharded engine.
///
/// Every record is appended **crash-safely** ([`Journal::append`]:
/// written, flushed and fsync'd), and the sink callbacks only return
/// after it. The engine therefore never reports a case complete (or
/// moves past it) while its finding could still be lost to a crash of
/// *this* process or the machine. That ordering is what makes "solver
/// process died" findings from the pipe backend durable: the external
/// solver is already gone when the finding is recorded, so the journal
/// line is the only evidence the crash ever happened.
pub struct StoreSession {
    journal: Journal,
}

impl FindingSink for StoreSession {
    fn on_finding(&self, shard: u32, finding: &Finding) {
        self.journal.append(&finding_record(shard, finding));
    }

    fn on_shard_complete(&self, shard: u32, result: &CampaignResult) {
        self.journal.append(&shard_done_record(shard, result));
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------- encoding

fn header_record(config: &CampaignConfig, shards: u32) -> Json {
    let solvers: Vec<Json> = config
        .solvers
        .iter()
        .map(|(id, commit)| {
            Json::Arr(vec![
                Json::Str(id.name().to_string()),
                Json::U64(*commit as u64),
            ])
        })
        .collect();
    obj(vec![
        ("t", Json::Str("campaign".into())),
        ("version", Json::U64(1)),
        ("seed", Json::U64(config.seed)),
        ("shards", Json::U64(shards as u64)),
        ("virtual_hours", Json::U64(config.virtual_hours as u64)),
        ("time_scale", Json::U64(config.time_scale)),
        ("max_cases", Json::U64(config.max_cases as u64)),
        ("bugs_enabled", Json::Bool(config.engine.bugs_enabled)),
        ("solvers", Json::Arr(solvers)),
    ])
}

fn kind_name(kind: FoundKind) -> &'static str {
    match kind {
        FoundKind::Crash => "crash",
        FoundKind::Soundness => "soundness",
        FoundKind::InvalidModel => "invalid-model",
    }
}

fn kind_from_name(name: &str) -> Option<FoundKind> {
    match name {
        "crash" => Some(FoundKind::Crash),
        "soundness" => Some(FoundKind::Soundness),
        "invalid-model" => Some(FoundKind::InvalidModel),
        _ => None,
    }
}

fn solver_from_name(name: &str) -> Option<SolverId> {
    SolverId::ALL.into_iter().find(|s| s.name() == name)
}

fn finding_record(shard: u32, finding: &Finding) -> Json {
    obj(vec![
        ("t", Json::Str("finding".into())),
        ("shard", Json::U64(shard as u64)),
        ("solver", Json::Str(finding.solver.name().to_string())),
        ("kind", Json::Str(kind_name(finding.kind).to_string())),
        (
            "sig",
            finding
                .signature
                .as_ref()
                .map(|s| Json::Str(s.clone()))
                .unwrap_or(Json::Null),
        ),
        (
            "theories",
            Json::Arr(
                finding
                    .theories
                    .iter()
                    .map(|t| Json::Str(t.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "bug",
            finding
                .attributed
                .map(|spec| Json::Str(spec.id.to_string()))
                .unwrap_or(Json::Null),
        ),
        ("vhour", Json::F64(finding.vhour)),
        ("case", Json::Str(finding.case_text.clone())),
    ])
}

fn stats_record(stats: &CampaignStats) -> Json {
    obj(vec![
        ("cases", Json::U64(stats.cases)),
        ("total_bytes", Json::U64(stats.total_bytes)),
        ("bug_triggering", Json::U64(stats.bug_triggering)),
        ("rejected", Json::U64(stats.rejected)),
        ("decisive", Json::U64(stats.decisive)),
        ("virtual_seconds", Json::U64(stats.virtual_seconds)),
        (
            "setup_virtual_seconds",
            Json::U64(stats.setup_virtual_seconds),
        ),
        ("processes_spawned", Json::U64(stats.processes_spawned)),
        ("process_respawns", Json::U64(stats.process_respawns)),
        ("scopes_pushed", Json::U64(stats.scopes_pushed)),
        ("leases_granted", Json::U64(stats.leases_granted)),
        ("leases_reissued", Json::U64(stats.leases_reissued)),
        ("cache_hits", Json::U64(stats.cache_hits)),
        ("cache_misses", Json::U64(stats.cache_misses)),
    ])
}

/// Encodes [`o4a_core::CampaignResult::hourly_coverage`] as per-hour
/// **deltas**: for each hour and solver, only the branch-mask bits newly
/// covered since the previous hour boundary. Coverage accumulation is
/// monotone, so the cumulative per-hour maps reconstruct exactly by
/// folding the deltas forward — the journal stays small while the merged
/// hourly snapshot series stays bit-exact. Every configured solver
/// appears every hour (possibly with an empty delta list) so the decoded
/// maps keep the full solver key set.
fn hourly_delta_records(result: &CampaignResult) -> Json {
    let mut prev_masks: BTreeMap<SolverId, BTreeMap<String, u32>> = BTreeMap::new();
    let universes = SolverId::ALL.map(universe);
    let mut hours = Vec::with_capacity(result.hourly_coverage.len());
    for maps in &result.hourly_coverage {
        let mut hour: Vec<(&str, Json)> = Vec::new();
        for (&solver, map) in maps {
            let seen = prev_masks.entry(solver).or_default();
            let mut deltas = Vec::new();
            for (name, mask) in map.export(universes[solver as usize]) {
                let new_bits = mask & !seen.get(&name).copied().unwrap_or(0);
                if new_bits != 0 {
                    deltas.push(Json::Arr(vec![
                        Json::Str(name.clone()),
                        Json::U64(new_bits as u64),
                    ]));
                }
                seen.insert(name, mask);
            }
            hour.push((solver.name(), Json::Arr(deltas)));
        }
        hours.push(obj(hour));
    }
    Json::Arr(hours)
}

fn shard_done_record(shard: u32, result: &CampaignResult) -> Json {
    let snapshots: Vec<Json> = result
        .snapshots
        .iter()
        .map(|snap| {
            let cov: Vec<(&str, Json)> = snap
                .coverage
                .iter()
                .map(|(id, point)| {
                    (
                        id.name(),
                        Json::Arr(vec![
                            Json::F64(point.line_pct),
                            Json::F64(point.function_pct),
                        ]),
                    )
                })
                .collect();
            obj(vec![
                ("hour", Json::U64(snap.hour as u64)),
                ("cases", Json::U64(snap.cases)),
                ("issues", Json::U64(snap.issues as u64)),
                ("cov", obj(cov)),
            ])
        })
        .collect();
    let coverage: Vec<(&str, Json)> = result
        .coverage
        .iter()
        .map(|(id, map)| {
            let entries: Vec<Json> = map
                .export(universe(*id))
                .into_iter()
                .map(|(name, mask)| Json::Arr(vec![Json::Str(name), Json::U64(mask as u64)]))
                .collect();
            (id.name(), Json::Arr(entries))
        })
        .collect();
    obj(vec![
        ("t", Json::Str("shard_done".into())),
        ("shard", Json::U64(shard as u64)),
        ("fuzzer", Json::Str(result.fuzzer.clone())),
        ("findings", Json::U64(result.findings.len() as u64)),
        ("stats", stats_record(&result.stats)),
        ("snapshots", Json::Arr(snapshots)),
        ("coverage", obj(coverage)),
        ("hourly", hourly_delta_records(result)),
    ])
}

// ---------------------------------------------------------------- decoding

fn str_field<'j>(record: &'j Json, key: &str) -> io::Result<&'j str> {
    record
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing string field '{key}'")))
}

fn u64_field(record: &Json, key: &str) -> io::Result<u64> {
    record
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing integer field '{key}'")))
}

/// A `u64` field that may be absent (journal forward-compat): `0` when
/// missing.
fn opt_u64_field(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn f64_field(record: &Json, key: &str) -> io::Result<f64> {
    record
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing number field '{key}'")))
}

fn decode_finding(record: &Json) -> io::Result<Finding> {
    let solver_name = str_field(record, "solver")?;
    let solver = solver_from_name(solver_name)
        .ok_or_else(|| bad(format!("unknown solver '{solver_name}'")))?;
    let kind_text = str_field(record, "kind")?;
    let kind =
        kind_from_name(kind_text).ok_or_else(|| bad(format!("unknown kind '{kind_text}'")))?;
    let signature = match record.get("sig") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let mut theories = Vec::new();
    for t in record
        .get("theories")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing theories"))?
    {
        let name = t.as_str().ok_or_else(|| bad("non-string theory"))?;
        theories
            .push(Theory::from_name(name).ok_or_else(|| bad(format!("unknown theory '{name}'")))?);
    }
    let attributed = match record.get("bug") {
        Some(Json::Str(id)) => Some(
            registry()
                .iter()
                .find(|spec| spec.id == id.as_str())
                .ok_or_else(|| bad(format!("unknown bug id '{id}'")))?,
        ),
        _ => None,
    };
    Ok(Finding {
        case_text: str_field(record, "case")?.to_string(),
        solver,
        kind,
        signature,
        theories,
        attributed,
        vhour: f64_field(record, "vhour")?,
    })
}

fn decode_stats(record: &Json) -> io::Result<CampaignStats> {
    Ok(CampaignStats {
        cases: u64_field(record, "cases")?,
        total_bytes: u64_field(record, "total_bytes")?,
        bug_triggering: u64_field(record, "bug_triggering")?,
        rejected: u64_field(record, "rejected")?,
        decisive: u64_field(record, "decisive")?,
        virtual_seconds: u64_field(record, "virtual_seconds")?,
        setup_virtual_seconds: u64_field(record, "setup_virtual_seconds")?,
        // Transport counters are absent from journals written before the
        // session-lane engine; read them leniently so old journals resume.
        processes_spawned: opt_u64_field(record, "processes_spawned"),
        process_respawns: opt_u64_field(record, "process_respawns"),
        scopes_pushed: opt_u64_field(record, "scopes_pushed"),
        leases_granted: opt_u64_field(record, "leases_granted"),
        leases_reissued: opt_u64_field(record, "leases_reissued"),
        cache_hits: opt_u64_field(record, "cache_hits"),
        cache_misses: opt_u64_field(record, "cache_misses"),
    })
}

fn decode_shard_done(record: &Json, findings: Vec<Finding>) -> io::Result<CampaignResult> {
    let expected = u64_field(record, "findings")? as usize;
    if expected != findings.len() {
        return Err(bad(format!(
            "shard_done expects {expected} findings but the journal holds {}",
            findings.len()
        )));
    }
    let stats = decode_stats(record.get("stats").ok_or_else(|| bad("missing stats"))?)?;

    let mut snapshots = Vec::new();
    for snap in record
        .get("snapshots")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing snapshots"))?
    {
        let mut coverage = BTreeMap::new();
        if let Some(Json::Obj(cov)) = snap.get("cov") {
            for (name, point) in cov {
                let solver = solver_from_name(name)
                    .ok_or_else(|| bad(format!("unknown solver '{name}'")))?;
                let pair = point.as_arr().ok_or_else(|| bad("bad coverage point"))?;
                if pair.len() != 2 {
                    return Err(bad("coverage point needs [line, function]"));
                }
                coverage.insert(
                    solver,
                    CoveragePoint {
                        line_pct: pair[0].as_f64().ok_or_else(|| bad("bad line pct"))?,
                        function_pct: pair[1].as_f64().ok_or_else(|| bad("bad function pct"))?,
                    },
                );
            }
        }
        snapshots.push(HourlySnapshot {
            hour: u64_field(snap, "hour")? as u32,
            coverage,
            cases: u64_field(snap, "cases")?,
            issues: u64_field(snap, "issues")? as usize,
        });
    }

    let mut coverage: BTreeMap<SolverId, CoverageMap> = BTreeMap::new();
    let mut final_coverage = BTreeMap::new();
    let mut covered_functions = BTreeMap::new();
    if let Some(Json::Obj(cov)) = record.get("coverage") {
        for (name, entries) in cov {
            let solver =
                solver_from_name(name).ok_or_else(|| bad(format!("unknown solver '{name}'")))?;
            let u = universe(solver);
            let mut map = CoverageMap::new();
            for entry in entries.as_arr().ok_or_else(|| bad("bad coverage list"))? {
                let pair = entry.as_arr().ok_or_else(|| bad("bad coverage entry"))?;
                if pair.len() != 2 {
                    return Err(bad("coverage entry needs [name, mask]"));
                }
                let fn_name = pair[0].as_str().ok_or_else(|| bad("bad function name"))?;
                let mask = pair[1].as_u64().ok_or_else(|| bad("bad branch mask"))? as u32;
                map.absorb_mask(u, fn_name, mask);
            }
            final_coverage.insert(solver, CoveragePoint::of(solver, &map));
            covered_functions.insert(
                solver,
                map.covered_function_names(u)
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            coverage.insert(solver, map);
        }
    }

    // Per-hour coverage deltas fold forward into the cumulative maps the
    // lossless hourly merge unions. Absent from journals written before
    // the delta records (forward-compat: the merge then falls back to
    // the per-shard-max lower bound).
    let mut hourly_coverage = Vec::new();
    if let Some(hours) = record.get("hourly").and_then(Json::as_arr) {
        let universes = SolverId::ALL.map(universe);
        let mut running: BTreeMap<SolverId, CoverageMap> = BTreeMap::new();
        for hour in hours {
            let Json::Obj(by_solver) = hour else {
                return Err(bad("hourly entry is not an object"));
            };
            for (name, deltas) in by_solver {
                let solver = solver_from_name(name)
                    .ok_or_else(|| bad(format!("unknown solver '{name}'")))?;
                let map = running.entry(solver).or_default();
                for entry in deltas
                    .as_arr()
                    .ok_or_else(|| bad("bad hourly delta list"))?
                {
                    let pair = entry.as_arr().ok_or_else(|| bad("bad hourly delta"))?;
                    if pair.len() != 2 {
                        return Err(bad("hourly delta needs [name, mask]"));
                    }
                    let fn_name = pair[0].as_str().ok_or_else(|| bad("bad function name"))?;
                    let mask = pair[1].as_u64().ok_or_else(|| bad("bad branch mask"))? as u32;
                    map.absorb_mask(universes[solver as usize], fn_name, mask);
                }
            }
            hourly_coverage.push(running.clone());
        }
    }

    Ok(CampaignResult {
        fuzzer: str_field(record, "fuzzer")?.to_string(),
        snapshots,
        findings,
        stats,
        final_coverage,
        covered_functions,
        coverage,
        hourly_coverage,
    })
}

/// Replays one journal's records: findings grouped by shard, and the
/// latest completion record per shard.
#[derive(Default)]
struct Fold {
    /// Every finding record seen, canonically encoded, for dedup.
    seen_findings: BTreeSet<String>,
    findings: BTreeMap<u32, Vec<Finding>>,
    done: BTreeMap<u32, Json>,
}

impl Fold {
    fn record(&mut self, record: Json) -> io::Result<()> {
        let shard = u64_field(&record, "shard")? as u32;
        match str_field(&record, "t")? {
            "finding" => {
                if self.seen_findings.insert(record.to_line()) {
                    let finding = decode_finding(&record)?;
                    self.findings.entry(shard).or_default().push(finding);
                }
            }
            "shard_done" => {
                self.done.insert(shard, record);
            }
            other => return Err(bad(format!("unknown record type '{other}'"))),
        }
        Ok(())
    }

    /// The shards that ran to completion. Findings of shards without a
    /// `shard_done` record are dropped here: those shards re-run
    /// deterministically on resume.
    fn completed(mut self) -> io::Result<BTreeMap<u32, CampaignResult>> {
        let mut completed = BTreeMap::new();
        for (shard, record) in self.done {
            let findings = self.findings.remove(&shard).unwrap_or_default();
            completed.insert(shard, decode_shard_done(&record, findings)?);
        }
        Ok(completed)
    }
}

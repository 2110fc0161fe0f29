//! The JSONL control protocol between the coordinator and its workers.
//!
//! Frames ride a TCP connection ([`crate::transport`]) one JSON object
//! per line — the same framing the findings journal uses, so a torn
//! line is always the *last* one.
//!
//! * `hello` (worker → coordinator) — the first frame on the
//!   connection: the worker's id, its journal path, and the per-run
//!   fleet secret the coordinator handed it in [`FLEET_SECRET_ENV`].
//! * `lease` (coordinator → worker) — grants shard `shard` of an
//!   `N`-way campaign plan. The full plan rides in every frame
//!   ([`CampaignPlan`]), so frames are stateless and a replacement
//!   worker needs no handshake beyond its `hello`.
//! * `progress` (worker → coordinator) — heartbeat while a lease runs:
//!   cases generated so far, live throughput, and (when `O4A_METRICS`
//!   is on in the worker) a cumulative metrics snapshot. Its absence
//!   past the coordinator's deadline is what gets a wedged worker
//!   killed and its lease re-issued.
//! * `done` (worker → coordinator) — the lease ran to completion. Sent
//!   strictly **after** the shard's `shard_done` record is fsync'd into
//!   the worker's journal — the ordering that lets the coordinator
//!   treat a `done` frame as proof the merge will find the shard.
//! * `goodbye` (coordinator → worker) — the campaign is complete, or
//!   this connection is refused: exit cleanly. A connection that closes
//!   without one is an error on the worker's side.

use o4a_core::CampaignConfig;
use o4a_exec::json::{obj, parse, Json};
use o4a_obs::metrics::MetricsSnapshot;
use o4a_obs::trace::TraceEvent;
use o4a_solvers::{EngineConfig, SolverId};
use std::collections::BTreeMap;
use std::io;

/// The longest frame line a peer may send, newline excluded.
///
/// Every frame is small except a `done` frame carrying a trace batch,
/// which the worker caps at [`crate::worker::DONE_TRACE_EVENTS`] events of
/// a few hundred bytes each: about 21 MB even with every field at its
/// widest (pinned by a unit test). The coordinator drops a peer whose
/// unterminated frame grows past this cap (counted as
/// `dist.rejected_frames`), so a peer that never sends a newline cannot
/// grow the coordinator's memory without bound.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// The environment variable through which a spawning coordinator hands
/// each child the per-run fleet secret (the environment, not argv,
/// because `ps` shows argv). The worker echoes it in its `hello`.
pub const FLEET_SECRET_ENV: &str = "O4A_DIST_SECRET";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A campaign plan as shipped inside a `lease` frame: the full campaign
/// configuration plus the total shard count of the plan. Every worker
/// reconstructs the exact [`CampaignConfig`] from it, which is what makes
/// a lease executed on any machine produce the bit-identical shard
/// result.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    /// The campaign configuration (identical on every worker).
    pub config: CampaignConfig,
    /// Total shards in the plan (`config` splits `shards` ways).
    pub shards: u32,
}

impl CampaignPlan {
    /// Encodes the plan. The encoding is canonical (sorted object keys),
    /// so two equal plans encode to equal JSON — workers use that to
    /// check that every lease belongs to the same campaign.
    pub fn to_json(&self) -> Json {
        let solvers: Vec<Json> = self
            .config
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
            ("seed", Json::U64(self.config.seed)),
            ("shards", Json::U64(self.shards as u64)),
            ("virtual_hours", Json::U64(self.config.virtual_hours as u64)),
            ("time_scale", Json::U64(self.config.time_scale)),
            ("max_cases", Json::U64(self.config.max_cases as u64)),
            (
                "engine",
                obj(vec![
                    (
                        "max_assignments",
                        Json::U64(self.config.engine.max_assignments as u64),
                    ),
                    ("eval_budget", Json::U64(self.config.engine.eval_budget)),
                    (
                        "timeout_micros",
                        Json::U64(self.config.engine.timeout_micros),
                    ),
                    ("bugs_enabled", Json::Bool(self.config.engine.bugs_enabled)),
                ]),
            ),
            ("solvers", Json::Arr(solvers)),
        ])
    }

    /// Decodes a plan.
    ///
    /// # Errors
    ///
    /// Missing fields, unknown solver names, malformed structure.
    pub fn from_json(json: &Json) -> io::Result<CampaignPlan> {
        let engine_json = json.get("engine").ok_or_else(|| bad("missing engine"))?;
        let engine = EngineConfig {
            max_assignments: u64_field(engine_json, "max_assignments")? as usize,
            eval_budget: u64_field(engine_json, "eval_budget")?,
            timeout_micros: u64_field(engine_json, "timeout_micros")?,
            bugs_enabled: match engine_json.get("bugs_enabled") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(bad("missing bool field 'bugs_enabled'")),
            },
        };
        let mut solvers = Vec::new();
        for entry in json
            .get("solvers")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing solvers"))?
        {
            let pair = entry.as_arr().ok_or_else(|| bad("bad solver entry"))?;
            if pair.len() != 2 {
                return Err(bad("solver entry needs [name, commit]"));
            }
            let name = pair[0].as_str().ok_or_else(|| bad("bad solver name"))?;
            let id = SolverId::ALL
                .into_iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| bad(format!("unknown solver '{name}'")))?;
            let commit = pair[1].as_u64().ok_or_else(|| bad("bad commit index"))? as u32;
            solvers.push((id, commit));
        }
        Ok(CampaignPlan {
            config: CampaignConfig {
                virtual_hours: u32_field(json, "virtual_hours")?,
                time_scale: u64_field(json, "time_scale")?,
                solvers,
                engine,
                seed: u64_field(json, "seed")?,
                max_cases: u64_field(json, "max_cases")? as usize,
            },
            shards: u32_field(json, "shards")?,
        })
    }
}

/// One control-protocol frame. See the module docs for who sends what
/// and when.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Coordinator → worker: run shard `shard` of `plan`.
    Lease {
        /// The shard index granted.
        shard: u32,
        /// The campaign plan the shard belongs to.
        plan: CampaignPlan,
        /// The coordinator wants the worker's trace ring piggybacked on
        /// `progress`/`done` frames (fleet-merged tracing). Absent on
        /// the wire when false, so trace-off leases stay byte-identical
        /// to the pre-scope protocol; workers with tracing disabled
        /// ignore it (they have nothing buffered to send).
        trace: bool,
    },
    /// Worker → coordinator: heartbeat during a lease.
    Progress {
        /// The shard the lease covers.
        shard: u32,
        /// Cases generated so far in this lease.
        cases: u64,
        /// Live throughput of the in-flight lease, cases per wall-clock
        /// second. Purely informational (the coordinator renders it;
        /// nothing schedules on it), so `0.0` from an old worker is fine.
        cases_per_sec: f64,
        /// The worker's metrics snapshot, attached only when
        /// `O4A_METRICS` is on in the worker's environment. Snapshots
        /// are cumulative per process — the coordinator keeps the
        /// latest, it does not sum heartbeats.
        metrics: Option<MetricsSnapshot>,
        /// Verdict-cache counters for the lease so far (hits, misses) —
        /// cumulative per process, like the metrics snapshot. Both zero
        /// (and absent on the wire) when the cache is off; frames from
        /// workers predating the counters read as zero.
        cache: CacheCounters,
        /// A bounded batch of the worker's trace ring, attached only
        /// when the lease asked for it ([`Frame::Lease`] `trace`) and
        /// the worker has tracing on. Like `metrics`: absent is fine,
        /// present-but-corrupt is a protocol error.
        trace: Option<TraceBatch>,
    },
    /// Worker → coordinator: the lease ran to completion (and its
    /// `shard_done` record is already durable in the journal).
    Done {
        /// The completed shard.
        shard: u32,
        /// Cases the shard executed.
        cases: u64,
        /// Findings the shard recorded.
        findings: u64,
        /// Throughput of the completed lease, cases per wall-clock second.
        cases_per_sec: f64,
        /// Cumulative worker metrics snapshot (see [`Frame::Progress`]).
        metrics: Option<MetricsSnapshot>,
        /// The completed lease's verdict-cache counters
        /// (from the shard's [`o4a_core::CampaignStats`], so they match
        /// what the journal merge reconstructs).
        cache: CacheCounters,
        /// Trace-ring batch (see [`Frame::Progress`]).
        trace: Option<TraceBatch>,
        /// Final per-solver line-coverage percentages of the completed
        /// shard — the scope plane's live coverage view. Empty (and
        /// absent on the wire) unless the lease asked for tracing, so
        /// scope-off frames stay byte-identical.
        coverage: BTreeMap<String, f64>,
    },
    /// Worker → coordinator: the first frame on the connection —
    /// identity plus journal location.
    Hello {
        /// The worker's id (as passed on its command line).
        worker: u32,
        /// The worker's journal path. Informational: the coordinator
        /// merges the path it assigned at spawn, never this one.
        journal: String,
        /// The fleet secret from [`FLEET_SECRET_ENV`]. Absent on the wire
        /// when unset — a `hello` the coordinator refuses.
        secret: Option<String>,
    },
    /// Coordinator → worker: "campaign complete, exit" (or "refused") —
    /// so the worker can tell completion from a lost coordinator.
    Goodbye {
        /// The recipient worker's id.
        worker: u32,
    },
}

/// The verdict-cache counter pair that rides `progress` and `done`
/// frames. A plain struct (not a snapshot) because these counters
/// are part of the campaign stats, not the write-only obs layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Queries answered from the verdict cache.
    pub hits: u64,
    /// Queries that missed the cache and paid a fresh solve.
    pub misses: u64,
}

impl CacheCounters {
    /// True when every counter is zero (the pair is omitted from the
    /// wire encoding, keeping cache-off frames byte-identical to the
    /// pre-cache protocol).
    pub fn is_zero(&self) -> bool {
        *self == CacheCounters::default()
    }

    fn encode_into(&self, fields: &mut Vec<(&'static str, Json)>) {
        if !self.is_zero() {
            fields.push(("cache_hits", Json::U64(self.hits)));
            fields.push(("cache_misses", Json::U64(self.misses)));
        }
    }

    fn decode(json: &Json) -> CacheCounters {
        CacheCounters {
            hits: u64_field_or_zero(json, "cache_hits"),
            misses: u64_field_or_zero(json, "cache_misses"),
        }
    }
}

/// A bounded slice of one worker's trace ring, riding a `progress` or
/// `done` frame toward the coordinator's fleet-merged Chrome trace.
/// Batches are cut from the ring in drain order; `dropped` carries ring
/// overflow plus any events the worker had to shed to keep frames
/// bounded, so the merged trace is honest about gaps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBatch {
    /// The recording worker process.
    pub pid: u64,
    /// Unix micros of that process's monotonic epoch
    /// ([`o4a_obs::trace::epoch_unix_micros`]) — lets the coordinator
    /// align all lanes onto one time axis.
    pub epoch_unix_micros: u64,
    /// Events lost before this batch (ring overflow + batch shedding).
    pub dropped: u64,
    /// The events, in the ring's deterministic `(ts, tid)` order.
    pub events: Vec<TraceEvent>,
}

impl TraceBatch {
    /// True when there is nothing to report (omitted from the wire).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("pid", Json::U64(self.pid)),
            ("epoch_unix_micros", Json::U64(self.epoch_unix_micros)),
            ("dropped", Json::U64(self.dropped)),
            (
                "events",
                Json::Arr(self.events.iter().map(TraceEvent::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<TraceBatch, String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace batch missing {key}"))
        };
        let mut events = Vec::new();
        for entry in v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("trace batch missing events")?
        {
            events.push(TraceEvent::from_json(entry)?);
        }
        Ok(TraceBatch {
            pid: field("pid")?,
            epoch_unix_micros: field("epoch_unix_micros")?,
            dropped: field("dropped")?,
            events,
        })
    }
}

impl Frame {
    /// Serializes the frame to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Frame::Lease { shard, plan, trace } => {
                let mut fields = vec![
                    ("t", Json::Str("lease".into())),
                    ("shard", Json::U64(*shard as u64)),
                    ("campaign", plan.to_json()),
                ];
                if *trace {
                    fields.push(("trace", Json::Bool(true)));
                }
                obj(fields)
            }
            Frame::Progress {
                shard,
                cases,
                cases_per_sec,
                metrics,
                cache,
                trace,
            } => {
                let mut fields = vec![
                    ("t", Json::Str("progress".into())),
                    ("shard", Json::U64(*shard as u64)),
                    ("cases", Json::U64(*cases)),
                    ("cps", Json::F64(*cases_per_sec)),
                ];
                if let Some(snapshot) = metrics {
                    fields.push(("metrics", snapshot.to_json()));
                }
                cache.encode_into(&mut fields);
                if let Some(batch) = trace {
                    fields.push(("trace", batch.to_json()));
                }
                obj(fields)
            }
            Frame::Done {
                shard,
                cases,
                findings,
                cases_per_sec,
                metrics,
                cache,
                trace,
                coverage,
            } => {
                let mut fields = vec![
                    ("t", Json::Str("done".into())),
                    ("shard", Json::U64(*shard as u64)),
                    ("cases", Json::U64(*cases)),
                    ("findings", Json::U64(*findings)),
                    ("cps", Json::F64(*cases_per_sec)),
                ];
                if let Some(snapshot) = metrics {
                    fields.push(("metrics", snapshot.to_json()));
                }
                cache.encode_into(&mut fields);
                if let Some(batch) = trace {
                    fields.push(("trace", batch.to_json()));
                }
                if !coverage.is_empty() {
                    fields.push((
                        "coverage",
                        Json::Obj(
                            coverage
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::F64(*v)))
                                .collect(),
                        ),
                    ));
                }
                obj(fields)
            }
            Frame::Hello {
                worker,
                journal,
                secret,
            } => {
                let mut fields = vec![
                    ("t", Json::Str("hello".into())),
                    ("worker", Json::U64(*worker as u64)),
                    ("journal", Json::Str(journal.clone())),
                ];
                if let Some(secret) = secret {
                    fields.push(("secret", Json::Str(secret.clone())));
                }
                obj(fields)
            }
            Frame::Goodbye { worker } => obj(vec![
                ("t", Json::Str("goodbye".into())),
                ("worker", Json::U64(*worker as u64)),
            ]),
        };
        json.to_line()
    }

    /// Parses one frame from a JSONL line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, unknown frame tags, missing fields.
    pub fn from_line(line: &str) -> io::Result<Frame> {
        let json = parse(line).map_err(|e| bad(format!("corrupt frame: {e}")))?;
        let tag = json
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("frame without a 't' tag"))?;
        match tag {
            "lease" => Ok(Frame::Lease {
                shard: u32_field(&json, "shard")?,
                plan: CampaignPlan::from_json(
                    json.get("campaign")
                        .ok_or_else(|| bad("missing campaign"))?,
                )?,
                trace: matches!(json.get("trace"), Some(Json::Bool(true))),
            }),
            "progress" => Ok(Frame::Progress {
                shard: u32_field(&json, "shard")?,
                cases: u64_field(&json, "cases")?,
                cases_per_sec: f64_field_or_zero(&json, "cps"),
                metrics: metrics_field(&json)?,
                cache: CacheCounters::decode(&json),
                trace: trace_field(&json)?,
            }),
            "done" => Ok(Frame::Done {
                shard: u32_field(&json, "shard")?,
                cases: u64_field(&json, "cases")?,
                findings: u64_field(&json, "findings")?,
                cases_per_sec: f64_field_or_zero(&json, "cps"),
                metrics: metrics_field(&json)?,
                cache: CacheCounters::decode(&json),
                trace: trace_field(&json)?,
                coverage: coverage_field(&json)?,
            }),
            "hello" => Ok(Frame::Hello {
                worker: u32_field(&json, "worker")?,
                journal: json
                    .get("journal")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing journal"))?
                    .to_string(),
                secret: match json.get("secret") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().ok_or_else(|| bad("bad secret"))?.to_string()),
                },
            }),
            "goodbye" => Ok(Frame::Goodbye {
                worker: u32_field(&json, "worker")?,
            }),
            other => Err(bad(format!("unknown frame '{other}'"))),
        }
    }
}

fn u64_field(json: &Json, key: &str) -> io::Result<u64> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing integer field '{key}'")))
}

/// A worker id or shard index: a `u32` on the wire too — a larger value
/// is malformed, never silently truncated onto some other id.
fn u32_field(json: &Json, key: &str) -> io::Result<u32> {
    u32::try_from(u64_field(json, key)?)
        .map_err(|_| bad(format!("integer field '{key}' exceeds u32")))
}

/// Observability fields are additions to a live protocol: a frame
/// without them (an older worker) is still valid, it just reports no
/// throughput.
fn f64_field_or_zero(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Same tolerance for the cache counter pair: absent reads as zero.
fn u64_field_or_zero(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Absent `metrics` is `None`; a *present but malformed* snapshot is a
/// protocol error like any other corrupt field.
fn metrics_field(json: &Json) -> io::Result<Option<MetricsSnapshot>> {
    match json.get("metrics") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => MetricsSnapshot::from_json(v)
            .map(Some)
            .map_err(|e| bad(format!("bad metrics snapshot: {e}"))),
    }
}

/// Same tolerance for the trace piggyback: absent is `None`, corrupt is
/// a protocol error.
fn trace_field(json: &Json) -> io::Result<Option<TraceBatch>> {
    match json.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => TraceBatch::from_json(v)
            .map(Some)
            .map_err(|e| bad(format!("bad trace batch: {e}"))),
    }
}

/// And for the coverage map: absent reads as empty, corrupt errors.
fn coverage_field(json: &Json) -> io::Result<BTreeMap<String, f64>> {
    match json.get("coverage") {
        None | Some(Json::Null) => Ok(BTreeMap::new()),
        Some(Json::Obj(map)) => {
            let mut out = BTreeMap::new();
            for (name, pct) in map {
                let pct = pct
                    .as_f64()
                    .ok_or_else(|| bad(format!("bad coverage for {name}")))?;
                out.insert(name.clone(), pct);
            }
            Ok(out)
        }
        Some(_) => Err(bad("coverage is not an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("campaign.cases".into(), 48);
        snapshot.histograms.insert(
            "pipe.query_micros".into(),
            o4a_obs::metrics::HistogramSnapshot {
                count: 3,
                sum: 900,
                buckets: vec![(9, 3)],
            },
        );
        snapshot
    }

    fn sample_trace_batch() -> TraceBatch {
        TraceBatch {
            pid: 4242,
            epoch_unix_micros: 1_700_000_000_000_000,
            dropped: 1,
            events: vec![TraceEvent {
                ts_micros: 12,
                dur_micros: Some(3),
                cat: "dist".into(),
                name: "lease.serve".into(),
                tid: 1,
                args: vec![("shard".into(), 3)],
            }],
        }
    }

    fn plan() -> CampaignPlan {
        CampaignPlan {
            config: CampaignConfig {
                virtual_hours: 7,
                time_scale: 123,
                seed: 0xdead_beef_0000_0001,
                max_cases: 999,
                ..CampaignConfig::default()
            },
            shards: 5,
        }
    }

    #[test]
    fn plan_round_trips_canonically() {
        let p = plan();
        let encoded = p.to_json();
        let decoded = CampaignPlan::from_json(&encoded).unwrap();
        assert_eq!(decoded.to_json(), encoded, "decode(encode) not a fixpoint");
        assert_eq!(decoded.shards, 5);
        assert_eq!(decoded.config.seed, p.config.seed);
        assert_eq!(decoded.config.solvers, p.config.solvers);
        assert_eq!(
            decoded.config.engine.bugs_enabled,
            p.config.engine.bugs_enabled
        );
    }

    /// One canonical value of every frame kind, optional fields both
    /// absent and present.
    fn every_frame_kind() -> Vec<Frame> {
        vec![
            Frame::Lease {
                shard: 3,
                plan: plan(),
                trace: false,
            },
            Frame::Lease {
                shard: 4,
                plan: plan(),
                trace: true,
            },
            Frame::Progress {
                shard: 3,
                cases: 40,
                cases_per_sec: 12.5,
                metrics: None,
                cache: CacheCounters::default(),
                trace: None,
            },
            Frame::Progress {
                shard: 3,
                cases: 48,
                cases_per_sec: 13.25,
                metrics: Some(sample_metrics()),
                cache: CacheCounters {
                    hits: 30,
                    misses: 18,
                },
                trace: Some(sample_trace_batch()),
            },
            Frame::Done {
                shard: 3,
                cases: 80,
                findings: 4,
                cases_per_sec: 10.0,
                metrics: Some(sample_metrics()),
                cache: CacheCounters {
                    hits: 60,
                    misses: 20,
                },
                trace: Some(sample_trace_batch()),
                coverage: BTreeMap::from([("oxiz".to_string(), 61.5), ("cervo".to_string(), 58.0)]),
            },
            Frame::Hello {
                worker: 7,
                journal: "/tmp/worker-7.jsonl".into(),
                secret: None,
            },
            Frame::Hello {
                worker: 2,
                journal: "/tmp/worker-2.jsonl".into(),
                secret: Some("00ff".repeat(8)),
            },
            Frame::Goodbye { worker: 7 },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in every_frame_kind() {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "frames must be single lines");
            let back = Frame::from_line(&line).unwrap();
            assert_eq!(back.to_line(), line, "frame re-encode diverged");
        }
    }

    /// Hostile bytes at the frame decoder (and the JSON parser under it):
    /// every frame kind's canonical line cut at every offset, seeded bit
    /// flips of it, and nesting at and one past the parser's cap. Each
    /// input decodes or is `InvalidData`; none panics.
    #[test]
    fn hostile_frame_lines_decode_or_are_invalid_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn check(bytes: &[u8]) -> bool {
            let line = String::from_utf8_lossy(bytes);
            match catch_unwind(AssertUnwindSafe(|| Frame::from_line(&line))) {
                Ok(Ok(_)) => true,
                Ok(Err(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e} for {line:?}");
                    false
                }
                Err(_) => panic!("from_line panicked on {line:?}"),
            }
        }

        let mut rng = StdRng::seed_from_u64(0xf8a3e);
        let (mut inputs, mut decoded) = (0usize, 0usize);
        for frame in every_frame_kind() {
            let line = frame.to_line().into_bytes();
            for cut in 0..line.len() {
                inputs += 1;
                decoded += usize::from(check(&line[..cut]));
            }
            for _ in 0..200 {
                let mut flipped = line.clone();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let at = rng.gen_range(0..flipped.len());
                    flipped[at] ^= 1 << rng.gen_range(0..8u32);
                }
                inputs += 1;
                decoded += usize::from(check(&flipped));
            }
        }
        assert!(decoded < inputs, "no hostile input was refused");

        // An ignored field nested to the cap decodes; one level more is
        // refused by the parser.
        let nested = |depth: usize| {
            let inner = depth - 1; // the frame's own object is one level
            format!(
                "{{\"t\":\"goodbye\",\"worker\":7,\"x\":{}{}}}",
                "[".repeat(inner),
                "]".repeat(inner)
            )
        };
        let max = o4a_obs::json::MAX_DEPTH;
        assert!(check(nested(max).as_bytes()), "nesting at the cap");
        assert!(!check(nested(max + 1).as_bytes()), "nesting past the cap");
    }

    #[test]
    fn junk_frames_are_refused() {
        assert!(Frame::from_line("not json").is_err());
        assert!(Frame::from_line("{\"t\":\"warp\"}").is_err());
        assert!(Frame::from_line("{\"shard\":1}").is_err());
        // Membership frames with missing or malformed fields.
        assert!(Frame::from_line("{\"t\":\"hello\",\"worker\":1}").is_err());
        assert!(
            Frame::from_line("{\"completed\":[],\"t\":\"re-adopt\",\"worker\":1}").is_err(),
            "re-adopt is not a frame"
        );
        assert!(Frame::from_line("{\"t\":\"goodbye\"}").is_err());
        assert!(
            Frame::from_line("{\"journal\":\"j\",\"secret\":7,\"t\":\"hello\",\"worker\":1}")
                .is_err(),
            "a present secret must be a string"
        );
    }

    /// A `hello` without a secret encodes no `secret` key at all.
    #[test]
    fn hello_without_a_secret_keeps_its_old_bytes() {
        let hello = Frame::Hello {
            worker: 3,
            journal: "/tmp/w3.jsonl".into(),
            secret: None,
        };
        assert_eq!(
            hello.to_line(),
            "{\"journal\":\"/tmp/w3.jsonl\",\"t\":\"hello\",\"worker\":3}"
        );
    }

    /// Ids and shard indices above `u32::MAX` are malformed frames, not
    /// silently truncated onto a different worker or shard.
    #[test]
    fn out_of_range_ids_are_refused() {
        let max = "{\"journal\":\"j\",\"t\":\"hello\",\"worker\":4294967295}";
        assert!(matches!(
            Frame::from_line(max).unwrap(),
            Frame::Hello {
                worker: u32::MAX,
                ..
            }
        ));
        for line in [
            "{\"journal\":\"j\",\"t\":\"hello\",\"worker\":4294967296}",
            "{\"t\":\"goodbye\",\"worker\":4294967296}",
            "{\"cases\":1,\"shard\":4294967296,\"t\":\"progress\"}",
            "{\"cases\":1,\"findings\":0,\"shard\":4294967296,\"t\":\"done\"}",
        ] {
            assert!(Frame::from_line(line).is_err(), "accepted {line}");
        }
    }

    /// Frames from a worker predating the observability fields still
    /// parse — throughput reads as zero, metrics as absent.
    #[test]
    fn observability_fields_are_optional() {
        let old = "{\"cases\":40,\"shard\":3,\"t\":\"progress\"}";
        let Frame::Progress {
            shard,
            cases,
            cases_per_sec,
            metrics,
            cache,
            trace,
        } = Frame::from_line(old).unwrap()
        else {
            panic!("expected progress frame");
        };
        assert_eq!((shard, cases), (3, 40));
        assert_eq!(cases_per_sec, 0.0);
        assert!(metrics.is_none());
        assert!(cache.is_zero(), "pre-cache frames read as zero counters");
        assert!(trace.is_none(), "pre-scope frames read as no trace batch");

        let old_done = "{\"cases\":80,\"findings\":2,\"shard\":3,\"t\":\"done\"}";
        assert!(matches!(
            Frame::from_line(old_done).unwrap(),
            Frame::Done {
                metrics: None,
                trace: None,
                ..
            }
        ));

        // A present-but-corrupt snapshot is a protocol error, not a
        // silent None.
        let corrupt = "{\"cases\":40,\"cps\":1.0,\"metrics\":7,\"shard\":3,\"t\":\"progress\"}";
        assert!(Frame::from_line(corrupt).is_err());

        // Cache-off frames omit the counter pair entirely — the wire
        // stays byte-identical to the pre-cache protocol.
        let off = Frame::Done {
            shard: 3,
            cases: 80,
            findings: 2,
            cases_per_sec: 0.0,
            metrics: None,
            cache: CacheCounters::default(),
            trace: None,
            coverage: BTreeMap::new(),
        };
        assert!(
            !off.to_line().contains("cache_"),
            "zero pair must not encode"
        );
        assert!(
            !off.to_line().contains("trace") && !off.to_line().contains("coverage"),
            "scope-off done frames must stay byte-identical to the old wire"
        );
    }

    /// The scope additions follow the same tolerance law as the PR 6
    /// metrics piggyback: absent fields read as inert defaults, corrupt
    /// fields are protocol errors.
    #[test]
    fn scope_fields_are_tolerant() {
        // A pre-scope lease reads as trace-off; a trace-off lease
        // encodes with no trace key at all.
        let lease = Frame::Lease {
            shard: 1,
            plan: plan(),
            trace: false,
        };
        assert!(!lease.to_line().contains("\"trace\""));
        assert!(matches!(
            Frame::from_line(&lease.to_line()).unwrap(),
            Frame::Lease { trace: false, .. }
        ));
        let on = Frame::Lease {
            shard: 1,
            plan: plan(),
            trace: true,
        };
        assert!(matches!(
            Frame::from_line(&on.to_line()).unwrap(),
            Frame::Lease { trace: true, .. }
        ));

        // Corrupt trace batches and coverage maps are refused.
        let bad_trace = "{\"cases\":40,\"shard\":3,\"t\":\"progress\",\"trace\":7}";
        assert!(Frame::from_line(bad_trace).is_err());
        let bad_cov =
            "{\"cases\":80,\"coverage\":{\"oxiz\":\"high\"},\"findings\":2,\"shard\":3,\"t\":\"done\"}";
        assert!(Frame::from_line(bad_cov).is_err());

        // A well-formed coverage map round-trips through the codec.
        let done =
            "{\"cases\":80,\"coverage\":{\"oxiz\":61.5},\"findings\":2,\"shard\":3,\"t\":\"done\"}";
        let Frame::Done { coverage, .. } = Frame::from_line(done).unwrap() else {
            panic!("expected done frame");
        };
        assert_eq!(coverage.get("oxiz"), Some(&61.5));
    }

    #[test]
    fn largest_legitimate_done_frame_fits_the_frame_cap() {
        // Every field at its widest: u64::MAX numbers, labels longer than
        // any recording site uses, four args per event.
        let event = TraceEvent {
            ts_micros: u64::MAX,
            dur_micros: Some(u64::MAX),
            cat: "c".repeat(16).into(),
            name: "n".repeat(48).into(),
            tid: u64::MAX,
            args: (0..4)
                .map(|i| (format!("{i}{}", "k".repeat(15)).into(), u64::MAX))
                .collect(),
        };
        let done = Frame::Done {
            shard: u32::MAX,
            cases: u64::MAX,
            findings: u64::MAX,
            cases_per_sec: f64::MAX,
            metrics: Some(sample_metrics()),
            cache: CacheCounters {
                hits: u64::MAX,
                misses: u64::MAX,
            },
            trace: Some(TraceBatch {
                pid: u64::MAX,
                epoch_unix_micros: u64::MAX,
                dropped: u64::MAX,
                events: vec![event; crate::worker::DONE_TRACE_EVENTS],
            }),
            coverage: BTreeMap::from([("oxiz".to_string(), 100.0), ("cervo".to_string(), 100.0)]),
        };
        let line = done.to_line();
        assert!(line.len() < MAX_FRAME_BYTES, "{} bytes", line.len());
        // The widest frames nest a few levels, well inside the reader's
        // cap, so the cap refuses only hostile input.
        let lease = Frame::Lease {
            shard: u32::MAX,
            plan: CampaignPlan {
                config: CampaignConfig::default(),
                shards: u32::MAX,
            },
            trace: true,
        };
        for frame in [line, lease.to_line()] {
            let depth = nesting(&parse(&frame).expect("frame parses"));
            assert!(depth <= 8, "a legitimate frame nests {depth} levels");
            assert!(depth < o4a_obs::json::MAX_DEPTH);
        }
    }

    /// Array/object nesting depth of a parsed value.
    fn nesting(json: &Json) -> usize {
        match json {
            Json::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
            Json::Obj(map) => 1 + map.values().map(nesting).max().unwrap_or(0),
            _ => 0,
        }
    }
}

//! The coordinator's resumable lease checkpoint: an append-only
//! [`o4a_obs::journal`] of fleet state. The framing (fsync per record,
//! header fingerprint, torn final line cut) is the journal's — see the
//! "Journal" section of the `o4a-obs` README; this module owns the
//! record codecs and the fold.
//!
//! ## File format
//!
//! One JSON object per line:
//!
//! * `{"t":"coordinator","campaign":{...},"version":1}` — header: the
//!   canonical [`CampaignPlan`] encoding. Written once, first. Resuming
//!   against a checkpoint whose plan differs is refused.
//! * `{"t":"listen","addr":"host:port"}` — the actual bound listen
//!   address (port 0 resolved), so a coordinator configured with
//!   `127.0.0.1:0` restarts on the **same** port its fleet is
//!   reconnecting to.
//! * `{"t":"journal","path":...,"worker":n}` — a worker's findings
//!   journal, the moment it is known. The final merge unions every
//!   journal any incarnation of the coordinator ever learned about.
//! * `{"t":"grant","shard":s,"worker":n}` — lease granted. Written
//!   durably **before** the lease frame is sent.
//! * `{"t":"complete","cases":c,"findings":f,"shard":s,"worker":n}` —
//!   the shard's `done` (or `re-adopt` credit) arrived; its
//!   `shard_done` record is durable in the worker's journal.
//!
//! ## Resume semantics
//!
//! Replay is a fold: `complete` beats `grant`. Shards with a `grant`
//! but no `complete` are **orphaned leases** — a restarted coordinator
//! puts them back at the front of the queue. If the orphan's worker is
//! in fact still alive and finishing the lease, the re-issued grant
//! merely duplicates work: shard execution is deterministic and the
//! journal merge dedups, so the merged result cannot tell. That is also
//! why every append is best-effort like [`o4a_exec::FindingsStore`]'s:
//! a *lost* record can only cause re-derivation, never wrong results.

use crate::protocol::CampaignPlan;
use o4a_exec::json::{obj, Json};
use o4a_obs::journal::{self, Journal};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A checkpoint bound to one JSONL file path.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    path: PathBuf,
}

/// What a checkpoint replay reconstructs.
#[derive(Debug, Default)]
pub struct CheckpointState {
    /// True when the file already existed with a valid header — this
    /// coordinator is a restart, not a fresh campaign.
    pub resumed: bool,
    /// The previously recorded listen address, if any.
    pub listen: Option<String>,
    /// Every worker journal any incarnation learned about, in record
    /// order, deduplicated.
    pub journals: Vec<PathBuf>,
    /// Outstanding grants: shard → last holder. On resume these are
    /// orphaned leases to re-issue.
    pub granted: BTreeMap<u32, u32>,
    /// Completed shards: shard → (cases, findings).
    pub completed: BTreeMap<u32, (u64, u64)>,
    /// One past the highest worker id on record — where a restarted
    /// coordinator resumes numbering spawned workers, so a fresh spawn
    /// can never clobber a previous incarnation's journal file. Wider
    /// than an id, so a record naming `u32::MAX` cannot overflow it.
    pub next_worker_id: u64,
}

impl CheckpointStore {
    /// Binds a checkpoint to `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { path: path.into() }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens the checkpoint: creates it (writing the header) when
    /// absent, or replays it. The returned session appends to the same
    /// file.
    ///
    /// # Errors
    ///
    /// I/O errors, a corrupt checkpoint (torn *final* line excepted), or
    /// a header that fingerprints a different campaign plan.
    pub fn resume_or_create(
        &self,
        plan: &CampaignPlan,
    ) -> io::Result<(CheckpointSession, CheckpointState)> {
        let mut state = CheckpointState::default();
        let (journal, replay) =
            journal::open(&self.path, &header_record(plan), |r| fold(&mut state, &r))?;
        state.resumed = replay.resumed;
        Ok((CheckpointSession { journal }, state))
    }
}

/// An open, appendable checkpoint. Every record is fsync'd on write,
/// best-effort (see the module docs for why a lost record is safe).
#[derive(Debug)]
pub struct CheckpointSession {
    journal: Journal,
}

impl CheckpointSession {
    /// Records the actual bound listen address.
    pub fn record_listen(&self, addr: &str) {
        self.journal.append(&obj(vec![
            ("t", Json::Str("listen".into())),
            ("addr", Json::Str(addr.to_string())),
        ]));
    }

    /// Records a worker's findings journal.
    pub fn record_journal(&self, worker: u32, path: &Path) {
        self.journal.append(&obj(vec![
            ("t", Json::Str("journal".into())),
            ("worker", Json::U64(worker as u64)),
            ("path", Json::Str(path.display().to_string())),
        ]));
    }

    /// Records a lease grant. Call **before** sending the lease frame.
    pub fn record_grant(&self, shard: u32, worker: u32) {
        self.journal.append(&obj(vec![
            ("t", Json::Str("grant".into())),
            ("shard", Json::U64(shard as u64)),
            ("worker", Json::U64(worker as u64)),
        ]));
    }

    /// Records a shard completion.
    pub fn record_complete(&self, shard: u32, worker: u32, cases: u64, findings: u64) {
        self.journal.append(&obj(vec![
            ("t", Json::Str("complete".into())),
            ("shard", Json::U64(shard as u64)),
            ("worker", Json::U64(worker as u64)),
            ("cases", Json::U64(cases)),
            ("findings", Json::U64(findings)),
        ]));
    }
}

fn header_record(plan: &CampaignPlan) -> Json {
    obj(vec![
        ("t", Json::Str("coordinator".into())),
        ("version", Json::U64(1)),
        ("campaign", plan.to_json()),
    ])
}

fn u64_field(json: &Json, key: &str) -> io::Result<u64> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("checkpoint record missing '{key}'")))
}

/// A worker id or shard index; a value above `u32::MAX` is corruption.
fn u32_field(json: &Json, key: &str) -> io::Result<u32> {
    u32::try_from(u64_field(json, key)?)
        .map_err(|_| bad(format!("checkpoint record field '{key}' exceeds u32")))
}

/// Folds one recorded worker id into [`CheckpointState::next_worker_id`].
fn saw_worker(state: &mut CheckpointState, worker: u32) {
    state.next_worker_id = state.next_worker_id.max(u64::from(worker) + 1);
}

/// Folds one replayed record into `state`: `complete` beats `grant`.
fn fold(state: &mut CheckpointState, json: &Json) -> io::Result<()> {
    match json.get("t").and_then(Json::as_str).unwrap_or("") {
        "listen" => {
            if let Some(addr) = json.get("addr").and_then(Json::as_str) {
                state.listen = Some(addr.to_string());
            }
        }
        "journal" => {
            saw_worker(state, u32_field(json, "worker")?);
            let journal = PathBuf::from(
                json.get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("journal record missing 'path'"))?,
            );
            if !state.journals.contains(&journal) {
                state.journals.push(journal);
            }
        }
        "grant" => {
            let shard = u32_field(json, "shard")?;
            let worker = u32_field(json, "worker")?;
            saw_worker(state, worker);
            if !state.completed.contains_key(&shard) {
                state.granted.insert(shard, worker);
            }
        }
        "complete" => {
            let shard = u32_field(json, "shard")?;
            saw_worker(state, u32_field(json, "worker")?);
            state.completed.insert(
                shard,
                (u64_field(json, "cases")?, u64_field(json, "findings")?),
            );
            state.granted.remove(&shard);
        }
        other => return Err(bad(format!("unknown checkpoint record '{other}'"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_core::CampaignConfig;
    use std::io::Write;

    fn plan() -> CampaignPlan {
        CampaignPlan {
            config: CampaignConfig {
                virtual_hours: 2,
                max_cases: 40,
                seed: 7,
                ..CampaignConfig::default()
            },
            shards: 4,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("o4a-checkpoint-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("coordinator.jsonl")
    }

    #[test]
    fn fresh_checkpoint_then_replay_reconstructs_the_fold() {
        let path = temp_path("fold");
        let store = CheckpointStore::new(&path);
        let (session, state) = store.resume_or_create(&plan()).unwrap();
        assert!(!state.resumed);
        session.record_listen("127.0.0.1:4747");
        session.record_journal(0, Path::new("/tmp/w0.jsonl"));
        session.record_journal(1, Path::new("/tmp/w1.jsonl"));
        session.record_grant(0, 0);
        session.record_grant(1, 1);
        session.record_complete(0, 0, 10, 2);
        session.record_grant(2, 0);
        drop(session);

        let (_session, state) = store.resume_or_create(&plan()).unwrap();
        assert!(state.resumed);
        assert_eq!(state.listen.as_deref(), Some("127.0.0.1:4747"));
        assert_eq!(
            state.journals,
            vec![
                PathBuf::from("/tmp/w0.jsonl"),
                PathBuf::from("/tmp/w1.jsonl")
            ]
        );
        // Shard 0 completed (grant superseded); shards 1 and 2 orphaned.
        assert_eq!(state.completed.get(&0), Some(&(10, 2)));
        assert_eq!(
            state.granted.keys().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(state.next_worker_id, 2);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_mid_file_corruption_is_not() {
        let path = temp_path("torn");
        let store = CheckpointStore::new(&path);
        let (session, _) = store.resume_or_create(&plan()).unwrap();
        session.record_grant(3, 0);
        drop(session);
        // Simulate a crash mid-append.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(raw, "{{\"t\":\"comp").unwrap();
        drop(raw);
        let (session, state) = store.resume_or_create(&plan()).unwrap();
        assert_eq!(state.granted.get(&3), Some(&0), "replay stops at the tear");
        // The resume cut the tear, so a grant recorded now lands on its
        // own line and replays.
        session.record_grant(2, 1);
        drop(session);
        let (_s, state) = store.resume_or_create(&plan()).unwrap();
        assert_eq!(
            state.granted.keys().copied().collect::<Vec<_>>(),
            vec![2, 3],
            "the grant glued onto the tear"
        );

        // Now corrupt a middle line.
        let garbled = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"t\":\"grant\"", "\"t\":\"gra");
        std::fs::write(&path, garbled).unwrap();
        assert!(store.resume_or_create(&plan()).is_err());
    }

    #[test]
    fn wrong_campaign_is_refused() {
        let path = temp_path("wrong-plan");
        let store = CheckpointStore::new(&path);
        drop(store.resume_or_create(&plan()).unwrap());
        let mut other = plan();
        other.config.seed ^= 1;
        let err = store.resume_or_create(&other).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
    }

    #[test]
    fn completion_is_idempotent_across_duplicate_records() {
        // A re-adopted completion may be recorded after the same shard's
        // original `complete` (two coordinator incarnations, or a
        // redundant lease) — the fold must not resurrect a grant.
        let path = temp_path("dup");
        let store = CheckpointStore::new(&path);
        let (session, _) = store.resume_or_create(&plan()).unwrap();
        session.record_grant(1, 0);
        session.record_complete(1, 0, 12, 0);
        session.record_grant(1, 1); // redundant re-issue by a confused run
        session.record_complete(1, 1, 12, 0);
        drop(session);
        let (_s, state) = store.resume_or_create(&plan()).unwrap();
        assert!(state.granted.is_empty());
        assert_eq!(state.completed.get(&1), Some(&(12, 0)));
    }

    /// A joiner may call itself `u32::MAX`: its records replay without
    /// overflowing the next spawn id. Anything wider is a corrupt record.
    #[test]
    fn worker_ids_at_and_past_u32_max() {
        let path = temp_path("max-id");
        let store = CheckpointStore::new(&path);
        let (session, _) = store.resume_or_create(&plan()).unwrap();
        session.record_journal(u32::MAX, Path::new("/tmp/wmax.jsonl"));
        session.record_grant(0, u32::MAX);
        session.record_complete(1, u32::MAX, 3, 0);
        drop(session);
        let (_s, state) = store.resume_or_create(&plan()).unwrap();
        assert_eq!(state.next_worker_id, 1 << 32);
        assert_eq!(state.granted.get(&0), Some(&u32::MAX));

        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(raw, "{{\"shard\":2,\"t\":\"grant\",\"worker\":4294967296}}").unwrap();
        writeln!(raw, "{{\"shard\":3,\"t\":\"grant\",\"worker\":0}}").unwrap();
        drop(raw);
        let err = store.resume_or_create(&plan()).unwrap_err();
        assert!(err.to_string().contains("exceeds u32"), "{err}");
    }
}

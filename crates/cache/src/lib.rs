//! # o4a-cache
//!
//! The campaign-wide, content-addressed verdict/model cache behind the
//! `O4A_CACHE` knob: an fsync'd JSONL store of external-solver wire
//! replies, keyed by [`CacheKey`] (solver identity + version + resolved
//! command line + normalized script).
//!
//! ## File format
//!
//! A cache directory holds one journal per shard, named
//! `cache-shard-<N>.jsonl`. Each is line-oriented JSON in the
//! `FindingsStore` style:
//!
//! * `{"t":"verdict-cache","v":1}` — header, written once, first.
//! * `{"t":"verdict","digest":…,"solver":…,"commit":…,"cmd":…,
//!   "script":…,"reply":…}` — one cached wire reply, written (flushed
//!   and fsync'd) the moment the fresh solve returns.
//!
//! ## Sharing and crash-safety
//!
//! Shards never write to one another's journals: a shard's
//! [`CacheSession`] loads **every** journal in the directory at open
//! (the merge — first-wins per key, like findings journals merge) and
//! appends only to its own. Each is an [`o4a_obs::journal`], whose
//! framing rules (commit, torn tail, cut) are in the "Journal" section
//! of the `o4a-obs` README: a torn tail loses only its entry, which
//! re-solving regenerates — [`CachedReply`]s are pure functions of the
//! key. Other shards' journals are only read, never cut.
//!
//! The determinism law this store serves — cache hit ≡ fresh solve,
//! bit-for-bit — is enforced on the other side of the [`VerdictCache`]
//! trait: `o4a_solvers::pipe` replays hits through the same decode path
//! a live reply takes, and the gauntlet in `crates/bench` pins the
//! equivalence across every topology.

#![warn(missing_docs)]

use o4a_obs::journal::{self, Journal};
use o4a_obs::json::{obj, Json};
use o4a_solvers::{CacheKey, CachedReply, VerdictCache};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The journal header line every cache file starts with.
fn header_record() -> Json {
    obj(vec![
        ("t", Json::Str("verdict-cache".into())),
        ("v", Json::U64(1)),
    ])
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A verdict cache bound to one directory of per-shard journals.
#[derive(Clone, Debug)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// Binds a store to `dir` (created on first open if absent).
    pub fn new(dir: impl Into<PathBuf>) -> CacheStore {
        CacheStore { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal path shard `shard` appends to.
    pub fn shard_journal(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("cache-shard-{shard}.jsonl"))
    }

    /// Opens the cache for one shard: loads every journal in the
    /// directory (first-wins per key, torn final lines tolerated), cuts
    /// any torn tail off this shard's own journal, and returns a session
    /// that appends to it.
    ///
    /// # Errors
    ///
    /// I/O errors, a journal with a wrong header, or corruption anywhere
    /// before a journal's final line.
    pub fn open_shard(&self, shard: u32) -> io::Result<CacheSession> {
        std::fs::create_dir_all(&self.dir)?;
        let own = self.shard_journal(shard);
        let header = header_record();
        let mut entries: BTreeMap<CacheKey, CachedReply> = BTreeMap::new();
        let mut fold = |record: Json| -> io::Result<()> {
            match str_field(&record, "t")?.as_str() {
                "verdict" => {
                    let (key, reply) = decode_verdict_line(&record)?;
                    entries.entry(key).or_insert(reply);
                    Ok(())
                }
                other => Err(bad(format!("unknown record type '{other}'"))),
            }
        };
        let mut journals: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        // Deterministic merge order (first-wins ties break by name).
        journals.sort();
        let mut own_journal = None;
        for path in &journals {
            if *path == own {
                own_journal = Some(journal::open(path, &header, &mut fold)?.0);
            } else {
                journal::replay(path, &header, &mut fold)?;
            }
        }
        let journal = match own_journal {
            Some(journal) => journal,
            None => journal::open(&own, &header, &mut fold)?.0,
        };
        Ok(CacheSession {
            entries: RefCell::new(entries),
            journal,
        })
    }
}

/// One shard's open cache: the merged in-memory map plus the shard's
/// own append-only journal. Plugs into `PipeSolver::with_cache` as the
/// [`VerdictCache`] implementation.
pub struct CacheSession {
    entries: RefCell<BTreeMap<CacheKey, CachedReply>>,
    journal: Journal,
}

impl CacheSession {
    /// Distinct cached queries currently known.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }
}

impl VerdictCache for CacheSession {
    fn lookup(&self, key: &CacheKey) -> Option<CachedReply> {
        self.entries.borrow().get(key).cloned()
    }

    fn record(&self, key: &CacheKey, reply: &CachedReply) {
        let mut entries = self.entries.borrow_mut();
        if entries.contains_key(key) {
            return;
        }
        entries.insert(key.clone(), reply.clone());
        // Best-effort: a lost entry just re-solves next run.
        self.journal.append(&verdict_record(key, reply));
    }
}

// ---------------------------------------------------------------- encoding

fn reply_record(reply: &CachedReply) -> Json {
    match reply {
        CachedReply::Answered {
            verdict,
            model_sexp,
        } => obj(vec![
            ("r", Json::Str("answer".into())),
            ("verdict", Json::Str(verdict.clone())),
            ("model", Json::Str(model_sexp.clone())),
        ]),
        CachedReply::Died { wedged } => obj(vec![
            ("r", Json::Str("died".into())),
            ("wedged", Json::Bool(*wedged)),
        ]),
        CachedReply::Error(msg) => obj(vec![
            ("r", Json::Str("error".into())),
            ("msg", Json::Str(msg.clone())),
        ]),
    }
}

fn verdict_record(key: &CacheKey, reply: &CachedReply) -> Json {
    obj(vec![
        ("t", Json::Str("verdict".into())),
        ("digest", Json::U64(key.digest())),
        ("solver", Json::Str(key.solver.clone())),
        ("commit", Json::U64(u64::from(key.commit))),
        ("cmd", Json::Str(key.command.clone())),
        ("script", Json::Str(key.script.clone())),
        ("reply", reply_record(reply)),
    ])
}

// ---------------------------------------------------------------- decoding

fn str_field(record: &Json, key: &str) -> io::Result<String> {
    record
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string field '{key}'")))
}

fn decode_reply(record: &Json) -> io::Result<CachedReply> {
    let reply = record.get("reply").ok_or_else(|| bad("missing reply"))?;
    match str_field(reply, "r")?.as_str() {
        "answer" => Ok(CachedReply::Answered {
            verdict: str_field(reply, "verdict")?,
            model_sexp: str_field(reply, "model")?,
        }),
        "died" => match reply.get("wedged") {
            Some(Json::Bool(wedged)) => Ok(CachedReply::Died { wedged: *wedged }),
            _ => Err(bad("missing bool field 'wedged'")),
        },
        "error" => Ok(CachedReply::Error(str_field(reply, "msg")?)),
        other => Err(bad(format!("unknown reply kind '{other}'"))),
    }
}

fn decode_verdict_line(record: &Json) -> io::Result<(CacheKey, CachedReply)> {
    let key = CacheKey {
        solver: str_field(record, "solver")?,
        commit: record
            .get("commit")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad("missing integer field 'commit'"))?,
        command: str_field(record, "cmd")?,
        script: str_field(record, "script")?,
    };
    let digest = record
        .get("digest")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("missing integer field 'digest'"))?;
    if digest != key.digest() {
        return Err(bad("digest does not match the key fields"));
    }
    Ok((key, decode_reply(record)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cache_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "o4a-cache-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(script: &str) -> CacheKey {
        CacheKey {
            solver: "oxiz".into(),
            commit: 100,
            command: "mock --seed 1 --lane 0".into(),
            script: script.into(),
        }
    }

    fn answered(verdict: &str) -> CachedReply {
        CachedReply::Answered {
            verdict: verdict.into(),
            model_sexp: String::new(),
        }
    }

    #[test]
    fn round_trips_every_reply_kind() {
        let dir = cache_dir("roundtrip");
        let store = CacheStore::new(&dir);
        let replies = [
            (
                key("(assert p)\n(check-sat)"),
                CachedReply::Answered {
                    verdict: "sat".into(),
                    model_sexp: "(model\n  (define-fun p () Bool true)\n)".into(),
                },
            ),
            (key("(assert q)\n(check-sat)"), answered("unsat")),
            (key("(check-sat)"), CachedReply::Died { wedged: true }),
            (
                key("(assert r)\n(check-sat)"),
                CachedReply::Error("out of memory".into()),
            ),
        ];
        {
            let session = store.open_shard(0).expect("open");
            for (k, r) in &replies {
                session.record(k, r);
            }
            assert_eq!(session.len(), replies.len());
        }
        let reloaded = store.open_shard(0).expect("reopen");
        for (k, r) in &replies {
            assert_eq!(reloaded.lookup(k).as_ref(), Some(r), "lost {k:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_is_idempotent_per_key() {
        let dir = cache_dir("idempotent");
        let store = CacheStore::new(&dir);
        let session = store.open_shard(0).expect("open");
        let k = key("(check-sat)");
        session.record(&k, &answered("sat"));
        // A second record of the same key (first-wins, like the merge)
        // neither replaces the entry nor grows the journal.
        let before = std::fs::metadata(store.shard_journal(0)).unwrap().len();
        session.record(&k, &answered("unsat"));
        assert_eq!(session.lookup(&k), Some(answered("sat")));
        assert_eq!(
            std::fs::metadata(store.shard_journal(0)).unwrap().len(),
            before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_see_each_others_journals_on_open() {
        let dir = cache_dir("merge");
        let store = CacheStore::new(&dir);
        let k0 = key("(assert a)\n(check-sat)");
        let k1 = key("(assert b)\n(check-sat)");
        store
            .open_shard(0)
            .expect("s0")
            .record(&k0, &answered("sat"));
        store
            .open_shard(1)
            .expect("s1 sees s0")
            .record(&k1, &answered("unsat"));
        let merged = store.open_shard(2).expect("s2 sees both");
        assert_eq!(merged.lookup(&k0), Some(answered("sat")));
        assert_eq!(merged.lookup(&k1), Some(answered("unsat")));
        assert_eq!(merged.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_truncated() {
        let k = key("(assert a)\n(check-sat)");
        // One tail torn in ASCII, one mid-way through the two bytes of
        // the `è` in an error reply's message.
        let error = CachedReply::Error("accès mémoire refusé".into());
        let error_line = verdict_record(&key("(assert e)"), &error).to_line();
        let cut = error_line.find('è').unwrap() + 1;
        let tears: [&[u8]; 2] = [
            b"{\"t\":\"verdict\",\"solver\":\"ox",
            &error_line.as_bytes()[..cut],
        ];
        for (i, tear) in tears.into_iter().enumerate() {
            let dir = cache_dir(&format!("torn-{i}"));
            let store = CacheStore::new(&dir);
            store
                .open_shard(0)
                .expect("open")
                .record(&k, &answered("sat"));
            let path = store.shard_journal(0);
            let clean = std::fs::metadata(&path).unwrap().len();
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(tear).unwrap();
            drop(file);
            // Reload: the intact entry survives, the torn tail is gone
            // from both the map and the file — so an entry recorded after
            // the reload lands on a clean line and reloads too.
            let k2 = key("(assert b)\n(check-sat)");
            for round in 1..=3 {
                let session = store
                    .open_shard(0)
                    .unwrap_or_else(|e| panic!("reopen round {round}: {e}"));
                assert_eq!(session.lookup(&k), Some(answered("sat")));
                if round == 1 {
                    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
                    session.record(&k2, &answered("unsat"));
                } else {
                    assert_eq!(session.lookup(&k2), Some(answered("unsat")));
                }
                assert_eq!(session.len(), 2, "round {round}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn mid_journal_corruption_is_fatal() {
        let dir = cache_dir("corrupt");
        let store = CacheStore::new(&dir);
        let session = store.open_shard(0).expect("open");
        session.record(&key("(assert a)(check-sat)"), &answered("sat"));
        drop(session);
        let path = store.shard_journal(0);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&verdict_record(&key("(assert b)(check-sat)"), &answered("sat")).to_line());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        assert!(store.open_shard(0).is_err(), "mid-file damage must refuse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_header_is_refused() {
        let dir = cache_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("cache-shard-0.jsonl"),
            "{\"t\":\"campaign\",\"version\":1}\n",
        )
        .unwrap();
        assert!(CacheStore::new(&dir).open_shard(1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_digest_is_refused() {
        let dir = cache_dir("digest");
        let store = CacheStore::new(&dir);
        store
            .open_shard(0)
            .expect("open")
            .record(&key("(assert a)(check-sat)"), &answered("sat"));
        let path = store.shard_journal(0);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip the script without re-digesting: the record self-check
        // must notice... unless it is the (tolerated, truncated) final
        // line — so append an intact record after it first.
        let tampered = text.replace("(assert a)", "(assert z)");
        let mut full = tampered;
        full.push_str(&verdict_record(&key("(assert b)(check-sat)"), &answered("sat")).to_line());
        full.push('\n');
        std::fs::write(&path, full).unwrap();
        assert!(store.open_shard(0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

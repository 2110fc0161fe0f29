//! Hostile bytes at the journal decoder: truncation at every offset,
//! seeded bit flips, and lines past the 32 MiB cap, in the middle of a
//! journal and at its end.
//!
//! Every outcome must be one of three: a clean replay, a torn tail that
//! `open` cuts and counts (after which the journal reopens clean and
//! takes appends on fresh lines), or an `InvalidData` refusal. Nothing
//! may panic, and replay memory stays bounded by the line cap — checked
//! with a counting global allocator, so the tests here serialize on one
//! mutex.

use o4a_obs::journal::{self, Journal, Replay, MAX_LINE_BYTES};
use o4a_obs::json::{obj, Json};
use o4a_obs::{metrics, ObsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The system allocator, tallying live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Serializes the tests and turns metrics on, so `open` counts cuts.
fn lock() -> MutexGuard<'static, ()> {
    let guard = GLOBAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    o4a_obs::install(ObsConfig {
        metrics: true,
        ..ObsConfig::default()
    });
    guard
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o4a-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn header() -> Json {
    obj(vec![
        ("t", Json::Str("test-journal".into())),
        ("v", Json::U64(1)),
    ])
}

fn record(n: u64) -> Json {
    obj(vec![
        ("n", Json::U64(n)),
        ("s", Json::Str(format!("café {n} — déjà vu"))),
    ])
}

/// The `n` of every replayed record; a record without one is a codec
/// error.
fn decoder(seen: &mut Vec<u64>) -> impl FnMut(Json) -> io::Result<()> + '_ {
    |r| {
        let n = r
            .get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing n"))?;
        seen.push(n);
        Ok(())
    }
}

fn replay(path: &Path) -> io::Result<(Vec<u64>, Replay)> {
    let mut seen = Vec::new();
    let replay = journal::replay(path, &header(), decoder(&mut seen))?;
    Ok((seen, replay))
}

fn open(path: &Path) -> io::Result<(Vec<u64>, Replay, Journal)> {
    let mut seen = Vec::new();
    let (journal, replay) = journal::open(path, &header(), decoder(&mut seen))?;
    Ok((seen, replay, journal))
}

fn torn_tails() -> u64 {
    metrics::counter("store.torn_tails").get()
}

/// A valid journal of `records` records, written through the journal.
fn valid_journal(path: &Path, records: u64) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (_, _, journal) = open(path).unwrap();
    for n in 0..records {
        journal.append(&record(n));
    }
    std::fs::read(path).unwrap()
}

/// Checks the outcome of damaged bytes `bytes` at `path` against the
/// three allowed ones. Returns the records a clean or cut replay kept.
fn check_outcome(path: &Path, bytes: &[u8], what: &str) -> Option<Vec<u64>> {
    std::fs::write(path, bytes).unwrap();
    let read_only = catch_unwind(AssertUnwindSafe(|| replay(path)))
        .unwrap_or_else(|_| panic!("{what}: replay panicked"));
    assert_eq!(std::fs::read(path).unwrap(), bytes, "{what}: replay wrote");
    let before = torn_tails();
    let opened = catch_unwind(AssertUnwindSafe(|| open(path)))
        .unwrap_or_else(|_| panic!("{what}: open panicked"));
    match (read_only, opened) {
        (Err(a), Err(b)) => {
            assert_eq!(a.kind(), io::ErrorKind::InvalidData, "{what}: {a}");
            assert_eq!(b.kind(), io::ErrorKind::InvalidData, "{what}: {b}");
            assert_eq!(std::fs::read(path).unwrap(), bytes, "{what}: refusal wrote");
            None
        }
        (Ok((seen, r)), Ok((opened_seen, o, journal))) => {
            assert_eq!(seen, opened_seen, "{what}: replay and open disagree");
            assert_eq!(r.torn_bytes, o.torn_bytes, "{what}");
            let cut = u64::from(o.torn_bytes > 0);
            assert_eq!(torn_tails() - before, cut, "{what}: cut not counted");
            // The cut journal takes an append on its own line and then
            // reopens clean, holding every record it kept plus the new one.
            journal.append(&record(1000));
            drop(journal);
            let (again, r2, _) = open(path).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
            assert_eq!(r2.torn_bytes, 0, "{what}: reopen found a tail");
            assert!(r2.resumed, "{what}");
            let mut expected = seen.clone();
            expected.push(1000);
            assert_eq!(again, expected, "{what}: append glued onto the tail");
            Some(seen)
        }
        (a, b) => panic!("{what}: replay {a:?} but open {b:?}"),
    }
}

#[test]
fn truncation_at_every_offset_replays_the_committed_prefix() {
    let _guard = lock();
    let dir = scratch("truncate");
    let path = dir.join("j.jsonl");
    let full = valid_journal(&path, 6);
    let newlines: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(newlines.len(), 7, "header plus six records");
    for cut in 0..=full.len() {
        let kept = check_outcome(&path, &full[..cut], &format!("cut at {cut}"))
            .unwrap_or_else(|| panic!("a truncated journal was refused at {cut}"));
        // Exactly the records whose newline survived replay.
        let committed = newlines.iter().filter(|&&end| end <= cut).count();
        let expected: Vec<u64> = (0..committed.saturating_sub(1) as u64).collect();
        assert_eq!(kept, expected, "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_bit_flips_replay_cut_or_refuse() {
    let _guard = lock();
    let dir = scratch("flips");
    let path = dir.join("j.jsonl");
    let full = valid_journal(&path, 6);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut clean, mut refused) = (0, 0);
    for flip in 0..500 {
        let at = (next() % full.len() as u64) as usize;
        let bit = next() % 8;
        let mut bytes = full.clone();
        bytes[at] ^= 1 << bit;
        match check_outcome(&path, &bytes, &format!("flip {flip}: byte {at} bit {bit}")) {
            Some(_) => clean += 1,
            None => refused += 1,
        }
    }
    assert!(clean > 0 && refused > 0, "{clean} kept, {refused} refused");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `journal`, then `len` bytes of `x`, then `after`, in chunks.
fn with_long_line(path: &Path, journal: &[u8], len: usize, after: &[u8]) {
    let mut file = std::fs::File::create(path).unwrap();
    file.write_all(journal).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    let mut left = len;
    while left > 0 {
        let n = left.min(chunk.len());
        file.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    file.write_all(after).unwrap();
}

/// Runs `f` and returns the bytes it allocated above what was live.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

#[test]
fn lines_past_the_cap_are_cut_or_refused_in_bounded_memory() {
    let _guard = lock();
    let dir = scratch("long");
    let path = dir.join("j.jsonl");
    let full = valid_journal(&path, 3);
    let long = 33 << 20;
    let bound = MAX_LINE_BYTES + (1 << 20);

    // An unterminated 33 MiB last line: a torn tail, cut and counted.
    with_long_line(&path, &full, long, b"");
    let (read_only, peak) = peak_during(|| replay(&path));
    let (seen, r) = read_only.unwrap();
    assert_eq!((seen, r.torn_bytes), (vec![0, 1, 2], long as u64));
    assert!(peak <= bound, "replay peaked at {peak} bytes");
    let before = torn_tails();
    let (opened, peak) = peak_during(|| open(&path).map(|(seen, r, _)| (seen, r)));
    assert_eq!(opened.unwrap(), (vec![0, 1, 2], r));
    assert!(peak <= bound, "open peaked at {peak} bytes");
    assert_eq!(torn_tails() - before, 1);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        full,
        "the long tail was not cut"
    );

    // The same line in mid-file: corruption, refused without a cut.
    let mut after = b"\n".to_vec();
    after.extend_from_slice(record(3).to_line().as_bytes());
    after.push(b'\n');
    with_long_line(&path, &full, long, &after);
    let len = std::fs::metadata(&path).unwrap().len();
    let (read_only, peak) = peak_during(|| replay(&path));
    assert_eq!(read_only.unwrap_err().kind(), io::ErrorKind::InvalidData);
    assert!(peak <= bound, "replay peaked at {peak} bytes");
    let (opened, peak) = peak_during(|| open(&path).map(|(_, r, _)| r));
    assert_eq!(opened.unwrap_err().kind(), io::ErrorKind::InvalidData);
    assert!(peak <= bound, "open peaked at {peak} bytes");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len);

    // A record of exactly the cap is still a record.
    let shell = record(3).to_line();
    let pad = MAX_LINE_BYTES - shell.len();
    let (head, tail) = shell.split_at(shell.find("café").unwrap());
    let mut before = full.clone();
    before.extend_from_slice(head.as_bytes());
    let mut after = tail.as_bytes().to_vec();
    after.push(b'\n');
    with_long_line(&path, &before, pad, &after);
    let (seen, r) = replay(&path).unwrap();
    assert_eq!((seen, r.torn_bytes), (vec![0, 1, 2, 3], 0));
    let _ = std::fs::remove_dir_all(&dir);
}

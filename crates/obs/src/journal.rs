//! The workspace's one durable JSONL journal: a header line, then one
//! [`Json`] record per line, each fsync'd as it is appended. The findings
//! store and the verdict cache keep their state in one and own only
//! their record codecs and folds.
//!
//! The rules — the header check, a record committed once its newline is
//! on disk, the torn tail that [`open`] cuts (counting it in
//! `store.torn_tails`) and [`replay`] leaves alone, the
//! [`MAX_LINE_BYTES`] cap — are in the "Journal" section of the crate
//! README.

use crate::json::{parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

/// The longest record line a journal accepts, newline excluded — the
/// same 32 MiB as the dist frame and solver reply caps.
pub const MAX_LINE_BYTES: usize = 32 << 20;

/// What a replay found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// The file held the caller's header: a resume, not a fresh journal.
    pub resumed: bool,
    /// Bytes past the last committed record: the torn tail that [`open`]
    /// cut, or that [`replay`] left in place.
    pub torn_bytes: u64,
}

/// An open journal that appends records to its file.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Appends one record crash-safely: the line is written, flushed and
    /// fsync'd before this returns. Failures are ignored — persistence
    /// must never fail the caller's work, and a journal that just ends
    /// early replays as one.
    pub fn append(&self, record: &Json) {
        let file = self.file.lock().expect("journal file poisoned");
        let _ = commit(&file, record);
    }
}

fn commit(mut file: &File, record: &Json) -> io::Result<()> {
    let mut line = record.to_line();
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()?;
    file.sync_data()
}

/// Opens the journal at `path` for appending: replays it into `each`,
/// cuts any torn tail, and writes `header` when the file was fresh.
///
/// # Errors
///
/// I/O errors, a header that differs from `header`, and a record that
/// fails anywhere before the journal's last line.
pub fn open(
    path: &Path,
    header: &Json,
    each: impl FnMut(Json) -> io::Result<()>,
) -> io::Result<(Journal, Replay)> {
    let file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let (replay, committed) = scan(&file, path, header, each)?;
    if replay.torn_bytes > 0 {
        file.set_len(committed)?;
        if crate::metrics_enabled() {
            crate::metrics::counter("store.torn_tails").inc();
        }
    }
    if !replay.resumed {
        commit(&file, header)?;
    }
    let file = Mutex::new(file);
    Ok((Journal { file }, replay))
}

/// Replays the journal at `path` into `each` without writing to it. A
/// missing file replays as a fresh, empty journal.
///
/// # Errors
///
/// As [`open`].
pub fn replay(
    path: &Path,
    header: &Json,
    each: impl FnMut(Json) -> io::Result<()>,
) -> io::Result<Replay> {
    match File::open(path) {
        Ok(file) => Ok(scan(&file, path, header, each)?.0),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Replay::default()),
        Err(e) => Err(e),
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one line through its newline, copying at most one byte more
/// than `cap` of it into `buf` (so a longer line shows as one) and
/// growing `buf` by doubling no further than that. Returns the bytes
/// consumed — 0 at end of file — and whether a newline ended it.
///
/// The rest of an over-cap line is consumed, not kept; a reader that must
/// stop reading at the cap passes a [`std::io::Read::take`] of itself.
///
/// # Errors
///
/// Any error of `reader` but `Interrupted`, which is retried.
pub fn read_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<(u64, bool)> {
    let mut consumed = 0u64;
    loop {
        let chunk = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            chunk => chunk?,
        };
        if chunk.is_empty() {
            return Ok((consumed, false));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let content = newline.unwrap_or(chunk.len());
        let copy = content.min(cap + 1 - buf.len());
        if buf.capacity() - buf.len() < copy {
            let grown = (buf.capacity() * 2).clamp(buf.len() + copy, cap + 1);
            buf.reserve_exact(grown - buf.len());
        }
        buf.extend_from_slice(&chunk[..copy]);
        let used = content + usize::from(newline.is_some());
        reader.consume(used);
        consumed += used as u64;
        if newline.is_some() {
            return Ok((consumed, true));
        }
    }
}

/// Replays `file` into `each`. The first record that fails — no newline,
/// over the cap, not UTF-8, not JSON, or refused by `each` — starts the
/// torn tail if only blank lines follow it, and is corruption otherwise.
/// Returns what was found and the byte length of the committed prefix.
fn scan(
    file: &File,
    path: &Path,
    header: &Json,
    mut each: impl FnMut(Json) -> io::Result<()>,
) -> io::Result<(Replay, u64)> {
    let mut reader = BufReader::new(file);
    let mut buf = Vec::new();
    let mut replay = Replay::default();
    let (mut end, mut committed, mut lineno) = (0u64, 0u64, 0usize);
    let mut failed: Option<String> = None;
    loop {
        buf.clear();
        let (len, terminated) = read_line(&mut reader, &mut buf, MAX_LINE_BYTES)?;
        if len == 0 {
            replay.torn_bytes = end - committed;
            return Ok((replay, committed));
        }
        end += len;
        lineno += 1;
        if buf.iter().all(u8::is_ascii_whitespace) {
            if terminated && failed.is_none() {
                committed = end;
            }
            continue;
        }
        if let Some(failure) = &failed {
            let path = path.display();
            return Err(bad(format!("journal {path} is corrupt at {failure}")));
        }
        let record = if !terminated {
            Err("no newline".to_string())
        } else if buf.len() > MAX_LINE_BYTES {
            Err(format!("longer than {MAX_LINE_BYTES} bytes"))
        } else {
            std::str::from_utf8(&buf)
                .map_err(|e| e.to_string())
                .and_then(parse)
        };
        let outcome = match record {
            Ok(json) if replay.resumed => each(json).map_err(|e| e.to_string()),
            Ok(json) if json == *header => {
                replay.resumed = true;
                Ok(())
            }
            Ok(json) => {
                return Err(bad(format!(
                    "journal {} belongs to a different campaign (header {} != expected {})",
                    path.display(),
                    json.to_line(),
                    header.to_line()
                )))
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(()) => committed = end,
            Err(e) => failed = Some(format!("line {lineno}: {e}")),
        }
    }
}

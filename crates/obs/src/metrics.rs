//! A process-wide metrics registry: named counters and log2-bucket
//! latency histograms.
//!
//! Values live in leaked `'static` atomics so recording is lock-free
//! after the first name lookup; the name → value maps themselves are
//! tiny `Mutex<BTreeMap>`s touched once per call site per name. Hot
//! loops should either gate on [`crate::metrics_enabled`] (a relaxed
//! load) or accumulate locally and flush once (what the executor pool
//! does), so the disabled path costs nothing and the enabled path stays
//! off the per-poll fast path.
//!
//! [`snapshot`] captures everything non-zero into a [`MetricsSnapshot`]
//! — plain sorted maps that merge losslessly across shards, workers,
//! and processes (counters add, histogram buckets add bucket-wise) and
//! round-trip through the line-JSON codec for dist frames and metrics
//! files.

use crate::json::{obj, parse, Json};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Histogram buckets: index 0 holds zeros, index `i ≥ 1` holds values
/// in `[2^(i-1), 2^i)` — 65 buckets cover the full `u64` range.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucket histogram of `u64` samples (latencies in micros,
/// depths, sizes). Recording is two relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// The bucket a sample lands in: 0 for 0, else `ilog2(value) + 1`.
pub fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        v => v.ilog2() as usize + 1,
    }
}

/// The largest value bucket `index` can hold (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Records the elapsed micros of a timer from [`start_timer`] into the
/// named histogram, rounded to the nearest microsecond. A `None` timer
/// (metrics were disabled at the start) records nothing — and skips the
/// name lookup entirely.
pub fn record_elapsed(name: &'static str, timer: Option<std::time::Instant>) {
    if let Some(t0) = timer {
        histogram(name).record(rounded_micros(t0.elapsed()));
    }
}

/// The elapsed time of a timer from [`start_timer`], zero for a `None`
/// timer: one lap of a stage that is timed in pieces and recorded once
/// with [`record_duration`].
pub fn lap(timer: Option<std::time::Instant>) -> std::time::Duration {
    timer.map_or(std::time::Duration::ZERO, |t0| t0.elapsed())
}

/// Records `d` into the named histogram, rounded to the nearest
/// microsecond, when metrics are enabled.
pub fn record_duration(name: &'static str, d: std::time::Duration) {
    if crate::metrics_enabled() {
        histogram(name).record(rounded_micros(d));
    }
}

/// `d` in whole microseconds, rounded to nearest: truncating would read
/// every sample up to 1 µs low, a bias that matters for stages averaging
/// ten-odd microseconds.
fn rounded_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos().saturating_add(500) / 1000).unwrap_or(u64::MAX)
}

/// `Some(now)` when metrics are enabled — the guard that keeps
/// `Instant::now` syscalls off the disabled path.
pub fn start_timer() -> Option<std::time::Instant> {
    crate::metrics_enabled().then(std::time::Instant::now)
}

static COUNTERS: Mutex<BTreeMap<&'static str, &'static Counter>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<&'static str, &'static Histogram>> = Mutex::new(BTreeMap::new());

/// The counter registered under `name` (created on first use; the cell
/// is leaked, so the set of distinct names must be bounded).
pub fn counter(name: &'static str) -> &'static Counter {
    COUNTERS
        .lock()
        .unwrap()
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    HISTOGRAMS
        .lock()
        .unwrap()
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Zeroes every registered counter and histogram (tests and
/// back-to-back equivalence runs).
pub fn reset() {
    for c in COUNTERS.lock().unwrap().values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS.lock().unwrap().values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time capture of one histogram: total count, value sum,
/// and the non-empty buckets as sorted `(index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Folds another capture in, bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_default() += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` in `[0, 1]`
    /// (0 when empty) — e.g. `quantile(0.99)` for a p99 ceiling.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

/// Every non-zero metric in the process, as plain mergeable maps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → capture.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another snapshot in: counters add, histograms merge
    /// bucket-wise. Lossless, so fleet-wide views equal a single-process
    /// run over the same work.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Encodes as one JSON object (dist frames, metrics files).
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(idx, n)| Json::Arr(vec![Json::U64(idx as u64), Json::U64(n)]))
                    .collect();
                (
                    k.clone(),
                    obj(vec![
                        ("count", Json::U64(h.count)),
                        ("sum", Json::U64(h.sum)),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("counters", Json::Obj(counters)),
            ("histograms", Json::Obj(histograms)),
        ])
    }

    /// Decodes what [`Self::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("metrics snapshot is not an object".into());
        }
        let mut snapshot = MetricsSnapshot::default();
        if let Some(Json::Obj(map)) = v.get("counters") {
            for (name, value) in map {
                let n = value
                    .as_u64()
                    .ok_or_else(|| format!("counter {name} is not a u64"))?;
                snapshot.counters.insert(name.clone(), n);
            }
        }
        if let Some(Json::Obj(map)) = v.get("histograms") {
            for (name, h) in map {
                let field = |key: &str| {
                    h.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram {name} missing {key}"))
                };
                let mut buckets = Vec::new();
                for pair in h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histogram {name} missing buckets"))?
                {
                    match pair.as_arr() {
                        Some([idx, n]) => buckets.push((
                            idx.as_u64().ok_or("bad bucket index")? as usize,
                            n.as_u64().ok_or("bad bucket count")?,
                        )),
                        _ => return Err(format!("histogram {name} has a malformed bucket")),
                    }
                }
                snapshot.histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        buckets,
                    },
                );
            }
        }
        Ok(snapshot)
    }
}

/// Captures every non-zero registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for (name, c) in COUNTERS.lock().unwrap().iter() {
        let value = c.get();
        if value > 0 {
            out.counters.insert((*name).to_string(), value);
        }
    }
    for (name, h) in HISTOGRAMS.lock().unwrap().iter() {
        let mut snap = HistogramSnapshot::default();
        for (idx, bucket) in h.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                snap.buckets.push((idx, n));
                snap.count += n;
            }
        }
        snap.sum = h.sum.load(Ordering::Relaxed);
        if snap.count > 0 {
            out.histograms.insert((*name).to_string(), snap);
        }
    }
    out
}

fn bad_data(err: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, err.into())
}

/// Writes one metrics file: a meta line
/// (`{"meta":"o4a-metrics", pid, epoch_unix_micros}`) then the snapshot
/// as one JSON line, fsync'd.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_metrics_file(path: &Path, snapshot: &MetricsSnapshot) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    let meta = obj(vec![
        ("meta", Json::Str("o4a-metrics".into())),
        ("pid", Json::U64(u64::from(std::process::id()))),
        (
            "epoch_unix_micros",
            Json::U64(crate::trace::epoch_unix_micros()),
        ),
    ]);
    let mut out = meta.to_line();
    out.push('\n');
    out.push_str(&snapshot.to_json().to_line());
    out.push('\n');
    file.write_all(out.as_bytes())?;
    file.sync_all()
}

/// Reads and validates one metrics file written by [`write_metrics_file`].
///
/// # Errors
///
/// I/O errors, plus `InvalidData` for a missing meta line or a snapshot
/// that fails the schema.
pub fn read_metrics_file(path: &Path) -> std::io::Result<(u64, MetricsSnapshot)> {
    let mut lines = BufReader::new(File::open(path)?).lines();
    let meta_line = lines
        .next()
        .ok_or_else(|| bad_data("empty metrics file"))??;
    let meta = parse(&meta_line).map_err(bad_data)?;
    if meta.get("meta").and_then(Json::as_str) != Some("o4a-metrics") {
        return Err(bad_data("first line is not an o4a-metrics meta record"));
    }
    let pid = meta
        .get("pid")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad_data("meta line missing pid"))?;
    let body = lines
        .next()
        .ok_or_else(|| bad_data("metrics file missing snapshot line"))??;
    let snapshot = parse(&body)
        .and_then(|v| MetricsSnapshot::from_json(&v))
        .map_err(bad_data)?;
    Ok((pid, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A 1.6 µs stage reads 2 µs, not the truncated 1 µs.
    #[test]
    fn elapsed_rounds_to_the_nearest_micro() {
        assert_eq!(rounded_micros(Duration::from_nanos(1_600)), 2);
        assert_eq!(rounded_micros(Duration::from_nanos(1_499)), 1);
        assert_eq!(rounded_micros(Duration::from_nanos(499)), 0);
        assert_eq!(rounded_micros(Duration::MAX), u64::MAX);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_merge_is_bucketwise() {
        let mut a = HistogramSnapshot {
            count: 3,
            sum: 10,
            buckets: vec![(1, 2), (3, 1)],
        };
        let b = HistogramSnapshot {
            count: 2,
            sum: 9,
            buckets: vec![(3, 1), (4, 1)],
        };
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 19);
        assert_eq!(a.buckets, vec![(1, 2), (3, 2), (4, 1)]);
    }

    #[test]
    fn quantile_returns_bucket_ceilings() {
        let h = HistogramSnapshot {
            count: 100,
            sum: 0,
            buckets: vec![(1, 90), (5, 10)],
        };
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), bucket_upper_bound(5));
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("campaign.cases".into(), 42);
        snap.histograms.insert(
            "pipe.query_micros".into(),
            HistogramSnapshot {
                count: 7,
                sum: 900,
                buckets: vec![(6, 3), (8, 4)],
            },
        );
        let line = snap.to_json().to_line();
        assert_eq!(
            MetricsSnapshot::from_json(&parse(&line).unwrap()).unwrap(),
            snap
        );
    }

    #[test]
    fn merge_is_lossless_and_commutative() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 1);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 2);
        b.counters.insert("y".into(), 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["x"], 3);
        assert_eq!(ab.counters["y"], 5);
    }
}

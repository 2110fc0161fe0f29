//! Hostile bytes at the JSON decoder (`o4a_obs::json::parse`), which reads
//! every line the workspace gets from outside: coordinator frames, worker
//! replies, journals, metrics files.
//!
//! The sweep cuts canonical documents at every offset, flips seeded bits
//! in them, nests at the cap and one past it, and feeds numbers past the
//! `u64` and `f64` ranges. Every outcome must be an error or a value that
//! writes back to a line parsing to itself; nothing may panic; and a parse
//! holds memory linear in its input (checked with a counting global
//! allocator, so the tests here serialize on one mutex) and finishes in
//! time linear in it.

use o4a_obs::json::{obj, parse, Json, MAX_DEPTH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bytes a parse may hold per input byte, plus a fixed allowance. The
/// densest input is a list of one-key objects, `[{"k":1},…]`: each costs
/// a whole B-tree leaf for eight bytes of text, 88 bytes held per input
/// byte on x86-64. A list of numbers, `[0,0,…]`, holds a 32-byte value per
/// two bytes, in a vector that may have doubled (32 per byte); the
/// allowance covers the vectors of a nest at the depth cap.
const BYTES_PER_INPUT_BYTE: usize = 128;
const FIXED_ALLOWANCE: usize = 64 << 10;

/// Parses `text`, returning the outcome and the peak bytes it held above
/// what was live before.
fn measured_parse(text: &str) -> (Result<Json, String>, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = catch_unwind(AssertUnwindSafe(|| parse(text)))
        .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (out, peak)
}

/// The invariants every input must keep: no panic, memory linear in the
/// input, and an accepted value that round-trips through the writer.
fn check(text: &str) -> Result<Json, String> {
    let (out, peak) = measured_parse(text);
    assert!(
        peak <= BYTES_PER_INPUT_BYTE * text.len() + FIXED_ALLOWANCE,
        "{peak} bytes held parsing {} input bytes",
        text.len()
    );
    if let Ok(value) = &out {
        let line = value.to_line();
        assert_eq!(
            parse(&line).as_ref(),
            Ok(value),
            "{text:?} parsed to a value that does not round-trip through {line:?}"
        );
    }
    out
}

/// Documents shaped like the workspace's lines: every value kind, escapes,
/// multi-byte text, a surrogate-pair escape, nested containers.
fn canonical() -> Vec<String> {
    let finding = obj(vec![
        ("t", Json::Str("finding".into())),
        ("shard", Json::U64(3)),
        ("vhour", Json::F64(2.5)),
        ("seed", Json::U64(u64::MAX)),
        ("sig", Json::Null),
        ("ok", Json::Bool(true)),
        (
            "text",
            Json::Str("(assert (= x \"a\\\"b\"))\n\t(check-sat) λ→😀 \u{1}".into()),
        ),
        (
            "theories",
            Json::Arr(vec![Json::Str("ints".into()), Json::Str("sets".into())]),
        ),
        (
            "nested",
            obj(vec![(
                "deeper",
                Json::Arr(vec![obj(vec![("x", Json::F64(-0.125))]), Json::Arr(vec![])]),
            )]),
        ),
    ]);
    vec![
        finding.to_line(),
        r#"{"t":"hello","worker":"w-1","secret":"A\ud83d\ude00😀\n","caps":[1,2.5e-3,-7,1E+2]}"#
            .to_string(),
        r#"{ "histograms" : { "pipe.query_micros" : { "count" : 12 , "sum" : 3400 } } }"#
            .to_string(),
    ]
}

/// SplitMix64: a seeded stream of flip positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn canonical_documents_cut_at_every_offset_are_refused() {
    let _g = lock();
    for doc in canonical() {
        assert!(check(&doc).is_ok(), "canonical document refused: {doc}");
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            // Every document is an object: no proper prefix is a value.
            assert!(
                check(&doc[..cut]).is_err(),
                "prefix of {cut} bytes accepted: {}",
                &doc[..cut]
            );
        }
    }
}

#[test]
fn seeded_bit_flips_are_refused_or_round_trip() {
    let _g = lock();
    let mut state = 0x0b5e_5eed_u64;
    let (mut accepted, mut refused) = (0, 0);
    for doc in canonical() {
        for _ in 0..1500 {
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..=splitmix(&mut state) % 4 {
                let bit = splitmix(&mut state) as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            // Lines reach the parser as text: the readers decode UTF-8
            // first, so a flip that breaks it arrives replaced.
            let text = String::from_utf8_lossy(&bytes);
            match check(&text) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn nesting_at_the_cap_parses_and_one_past_it_is_refused() {
    let _g = lock();
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
    let mixed = |n: usize| {
        let open: String = (0..n)
            .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
            .collect();
        let close: String = (0..n)
            .rev()
            .map(|i| if i % 2 == 0 { "]" } else { "}" })
            .collect();
        format!("{open}1{close}")
    };
    for nest in [arrays, objects, mixed] {
        assert!(check(&nest(MAX_DEPTH)).is_ok(), "depth {MAX_DEPTH}");
        let err = check(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}

#[test]
fn numbers_past_the_u64_and_f64_ranges() {
    let _g = lock();
    assert_eq!(check("18446744073709551615"), Ok(Json::U64(u64::MAX)));
    // One past `u64::MAX` is still a number, as the nearest float.
    assert_eq!(
        check("18446744073709551616"),
        Ok(Json::F64(18_446_744_073_709_551_616.0))
    );
    assert_eq!(check("-1"), Ok(Json::F64(-1.0)));
    assert_eq!(check("1.7976931348623157e308"), Ok(Json::F64(f64::MAX)));
    // Underflow rounds to zero, which is finite and round-trips.
    assert_eq!(check("1e-400"), Ok(Json::F64(0.0)));
    for text in ["1e999", "-1e999", "1.8e308", &"9".repeat(400)] {
        let err = check(text).unwrap_err();
        assert!(err.contains("out of range"), "{text}: {err}");
    }
    assert!(check("[1e999]").is_err());
}

#[test]
fn megabyte_inputs_parse_in_linear_time_and_memory() {
    let _g = lock();
    let n = 1 << 20;
    let list = format!("[{}0]", "0,".repeat(n / 2));
    let pairs = format!("[{}[]]", "[],".repeat(n / 3));
    let objects = format!("[{}{{}}]", "{\"k\":1},".repeat(n / 8));
    let long_string = format!("\"{}\"", "\\u00e9".repeat(n / 6));
    let openers = "[".repeat(n);
    let digits = "1".repeat(n);
    for (text, ok) in [
        (&list, true),
        (&pairs, true),
        (&objects, true),
        (&long_string, true),
        (&openers, false),
        (&digits, false),
    ] {
        let started = Instant::now();
        assert_eq!(check(text).is_ok(), ok, "{} bytes", text.len());
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{} bytes took {:?}",
            text.len(),
            started.elapsed()
        );
    }
}

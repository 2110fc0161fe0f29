//! Socket-free building blocks for the o4a-scope status plane: a
//! minimal HTTP/1.1 request parser, response formatting, and a
//! Prometheus text-exposition renderer over [`MetricsSnapshot`].
//!
//! This module owns no sockets and never blocks — it turns byte buffers
//! into requests and values into byte buffers, so the caller (the
//! coordinator's `poll(2)` reactor loop in `o4a-dist`) keeps full
//! control of when I/O happens. That split is what keeps the scope
//! plane read-only and unable to perturb the campaign: the worst a
//! slow HTTP client can do is have its buffered response dropped.

use crate::metrics::{bucket_upper_bound, MetricsSnapshot};
use std::fmt::Write as _;

/// Longest request head (request line + headers + the blank line) we
/// accept before answering 400 — scope requests are a short GET line
/// plus a handful of headers.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// One parsed HTTP request head (the scope plane ignores bodies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target path, query string stripped, e.g. `/status`.
    pub path: String,
}

/// Incrementally parses a request head from `buf`.
///
/// Returns `None` while the head is still incomplete (no blank line
/// yet and the buffer is at most [`MAX_REQUEST_BYTES`]), `Some(Ok(..))`
/// once the request line is readable, and `Some(Err(..))` for input
/// that can never become a valid request (a head longer than the cap,
/// complete or not, or a malformed one) — the caller should answer 400
/// and close. So a caller that reads only while this returns `None`
/// never buffers more than one read past the cap.
pub fn parse_request(buf: &[u8]) -> Option<Result<HttpRequest, String>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let oversized = || {
        Some(Err(format!(
            "request head exceeds {MAX_REQUEST_BYTES} bytes"
        )))
    };
    let Some(end) = head_end else {
        if buf.len() > MAX_REQUEST_BYTES {
            return oversized();
        }
        return None;
    };
    if end + 4 > MAX_REQUEST_BYTES {
        return oversized();
    }
    let head = match std::str::from_utf8(&buf[..end]) {
        Ok(s) => s,
        Err(_) => return Some(Err("request head is not UTF-8".into())),
    };
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next();
    // The target without its query string; an empty path is malformed.
    let path = parts
        .next()
        .and_then(|target| target.split('?').next())
        .filter(|path| !path.is_empty());
    let (Some(method), Some(path)) = (method, path) else {
        return Some(Err(format!("malformed request line: {request_line:?}")));
    };
    Some(Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
    }))
}

/// Bytes consumed by the head [`parse_request`] just parsed (through
/// the blank line), so pipelined bytes stay buffered.
pub fn request_head_len(buf: &[u8]) -> usize {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(buf.len(), |end| end + 4)
}

/// Renders one complete `Connection: close` HTTP/1.1 response.
pub fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Cache-Control: no-cache\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Maps a metric name onto the Prometheus charset: `[a-zA-Z0-9_:]`,
/// with `.`/`-` and anything else becoming `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    if !name.starts_with("o4a_") {
        out.push_str("o4a_");
    }
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let ok = ok && !(i == 0 && c.is_ascii_digit() && out.is_empty());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Renders a [`MetricsSnapshot`] plus caller-supplied gauges in the
/// Prometheus text exposition format (version 0.0.4): counters become
/// `counter` families, log2 histograms become cumulative `histogram`
/// families with `le` set to each bucket's inclusive upper bound.
pub fn render_prometheus(snapshot: &MetricsSnapshot, gauges: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (name, value) in gauges {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.counters {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(idx, n) in &hist.buckets {
            cumulative += n;
            let le = bucket_upper_bound(idx);
            if le == u64::MAX {
                continue; // folded into +Inf below
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    #[test]
    fn parse_waits_for_the_blank_line() {
        assert_eq!(parse_request(b"GET /status HTTP/1.1\r\nHost: x\r\n"), None);
        let req = parse_request(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/status");
    }

    #[test]
    fn parse_strips_query_strings() {
        let req = parse_request(b"GET /events?since=3 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/events");
    }

    #[test]
    fn parse_rejects_oversized_and_malformed_heads() {
        let huge = vec![b'a'; MAX_REQUEST_BYTES + 1];
        assert!(parse_request(&huge).unwrap().is_err());
        assert!(parse_request(b"garbage\r\n\r\n").unwrap().is_err());
    }

    /// A splitmix64 stream: the sweeps' seeded source of flips.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const REQUESTS: [&str; 3] = [
        "GET /status HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /events?since=3 HTTP/1.1\r\nAccept: text/event-stream\r\n\r\n",
        "GET /metrics HTTP/1.0\r\n\r\n",
    ];

    /// The documented verdicts: waiting (only under the cap, with no
    /// blank line yet), a request whose method and path are single
    /// words, or one of the three documented errors.
    fn check_verdict(buf: &[u8]) {
        match parse_request(buf) {
            None => {
                assert!(buf.len() <= MAX_REQUEST_BYTES, "waits past the cap");
                assert_eq!(request_head_len(buf), buf.len(), "waits on a full head");
            }
            Some(Ok(req)) => {
                for word in [&req.method, &req.path] {
                    assert!(!word.is_empty() && !word.contains(char::is_whitespace));
                }
                assert!(!req.path.contains('?'));
            }
            Some(Err(e)) => assert!(
                e.starts_with("request head exceeds")
                    || e == "request head is not UTF-8"
                    || e.starts_with("malformed request line"),
                "undocumented error: {e}"
            ),
        }
    }

    #[test]
    fn hostile_requests_truncated_at_every_offset_wait() {
        for request in REQUESTS {
            let bytes = request.as_bytes();
            for cut in 0..bytes.len() {
                assert_eq!(
                    parse_request(&bytes[..cut]),
                    None,
                    "{request:?} cut at {cut}"
                );
            }
            assert!(matches!(parse_request(bytes), Some(Ok(_))));
        }
    }

    #[test]
    fn hostile_requests_with_seeded_bit_flips_degrade_as_documented() {
        let mut state = 0x5eed_f11b;
        for round in 0..3000 {
            let mut bytes = REQUESTS[round % REQUESTS.len()].as_bytes().to_vec();
            for _ in 0..1 + splitmix(&mut state) % 4 {
                let at = (splitmix(&mut state) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (splitmix(&mut state) % 8);
            }
            // Delivered a few bytes at a time, as a socket would: the
            // buffer stops growing at the first verdict.
            let mut buf = Vec::new();
            for chunk in bytes.chunks(1 + (splitmix(&mut state) % 7) as usize) {
                buf.extend_from_slice(chunk);
                check_verdict(&buf);
                if parse_request(&buf).is_some() {
                    break;
                }
            }
        }
    }

    #[test]
    fn hostile_requests_one_byte_past_the_cap_are_refused() {
        let padded = |len: usize| {
            let head = "GET /status HTTP/1.1\r\nX-Pad: ";
            let mut bytes = head.as_bytes().to_vec();
            bytes.resize(len - 4, b'a');
            bytes.extend_from_slice(b"\r\n\r\n");
            bytes
        };
        let at_cap = padded(MAX_REQUEST_BYTES);
        assert!(matches!(parse_request(&at_cap), Some(Ok(_))));
        let over = padded(MAX_REQUEST_BYTES + 1);
        let refusal = Some(Err(format!(
            "request head exceeds {MAX_REQUEST_BYTES} bytes"
        )));
        assert_eq!(parse_request(&over), refusal);
        assert_eq!(parse_request(&over[..MAX_REQUEST_BYTES]), None);
        assert_eq!(parse_request(&over[..MAX_REQUEST_BYTES + 1]), refusal);
        check_verdict(&over);
    }

    #[test]
    fn head_len_covers_the_blank_line() {
        let buf = b"GET / HTTP/1.1\r\n\r\nleftover";
        assert_eq!(request_head_len(buf), buf.len() - "leftover".len());
    }

    #[test]
    fn response_has_exact_content_length() {
        let bytes = http_response(200, "OK", "application/json", "{\"ok\":true}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn prometheus_names_are_sanitized_and_prefixed() {
        assert_eq!(prometheus_name("campaign.cases"), "o4a_campaign_cases");
        assert_eq!(prometheus_name("lease-churn"), "o4a_lease_churn");
        assert_eq!(prometheus_name("o4a_workers_live"), "o4a_workers_live");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("campaign.cases".into(), 42);
        snap.histograms.insert(
            "pipe.query_micros".into(),
            HistogramSnapshot {
                count: 7,
                sum: 900,
                buckets: vec![(1, 3), (3, 4)],
            },
        );
        let text = render_prometheus(&snap, &[("o4a_workers_live".into(), 2.0)]);
        assert!(text.contains("# TYPE o4a_workers_live gauge\no4a_workers_live 2\n"));
        assert!(text.contains("# TYPE o4a_campaign_cases counter\no4a_campaign_cases 42\n"));
        assert!(text.contains("# TYPE o4a_pipe_query_micros histogram\n"));
        // Buckets are cumulative and end at +Inf == count.
        assert!(text.contains("o4a_pipe_query_micros_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("o4a_pipe_query_micros_bucket{le=\"7\"} 7\n"));
        assert!(text.contains("o4a_pipe_query_micros_bucket{le=\"+Inf\"} 7\n"));
        assert!(text.contains("o4a_pipe_query_micros_sum 900\n"));
        assert!(text.contains("o4a_pipe_query_micros_count 7\n"));
    }
}

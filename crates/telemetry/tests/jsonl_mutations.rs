//! Seeded single-byte and single-token mutation suite over the JSON-lines
//! reader: every mutant of an exported snapshot line either parses, with
//! every number finite, or fails with an error naming a byte offset within
//! the line. A panic anywhere fails the suite.

use dscts_telemetry::{parse_json, HistogramSnapshot, Json, TelemetrySnapshot};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 20_000;

/// Replacement and inserted bytes: JSON punctuation, number and escape
/// characters, literal initials, and raw whitespace and control bytes.
const BYTES: &[u8] = b"{}[],:\"\\/0123456789-+.eEtfnu \t\r\n\x00\x01\x1f\x7f";

/// Replacement tokens: numbers RFC 8259 rejects or that overflow an
/// `f64`, broken literals and escapes, a raw tab inside a string, bare
/// structure, and the empty token (a deletion).
const TOKENS: [&str; 32] = [
    "",
    "01",
    "-00",
    "00.5",
    "1e400",
    "-1e400",
    "1e-400",
    "18446744073709551616",
    "-",
    "1.",
    ".5",
    "1e",
    "1e+",
    "nan",
    "Infinity",
    "tru",
    "nul",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\ud800\\u0041\"",
    "\"\\x\"",
    "\"\\u12\"",
    "\"a\tb\"",
    "\"",
    "[",
    "]",
    "{",
    "}",
    "[[[[",
    "{}",
    "null",
    "true",
];

/// A snapshot whose export covers every record kind, escaped and
/// non-ASCII names, extreme integers, and an occupied overflow bucket.
fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: vec![
            ("a\"b\\c".to_owned(), 3),
            ("ctl\t\u{1}\u{1f}".to_owned(), 0),
            ("service.accepted".to_owned(), 128),
            ("wall.µs.😀".to_owned(), u64::MAX),
        ],
        gauges: vec![
            ("service.queue_depth".to_owned(), i64::MIN),
            ("depth".to_owned(), -4),
        ],
        histograms: vec![HistogramSnapshot {
            name: "job.wall_s".to_owned(),
            count: 6,
            sum_s: 0.250_000_1,
            p50_s: 1e-9,
            p95_s: 0.2,
            p99_s: 3.5e-300,
            buckets: vec![(1e-9, 3), (0.5, 1), (1.0, 0), (f64::MAX, 2)],
        }],
    }
}

/// xorshift64*: the deterministic mutation stream.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Splits an exported line into JSON tokens: whole strings, runs of
/// number and literal characters, and single punctuation bytes.
fn tokens(line: &str) -> Vec<Range<usize>> {
    let b = line.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || matches!(c, b'-' | b'+' | b'.');
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(b.len());
        } else if word(b[i]) {
            while i < b.len() && word(b[i]) {
                i += 1;
            }
        } else {
            i += 1;
        }
        out.push(start..i);
    }
    out
}

/// One mutant of `line`: a character replaced by, or preceded by, one
/// byte of [`BYTES`]; a character deleted; or a token replaced by one of
/// [`TOKENS`]. Edits land on character boundaries, so mutants stay UTF-8.
fn mutate(line: &str, rng: &mut XorShift) -> (String, String) {
    let chars: Vec<(usize, char)> = line.char_indices().collect();
    let (at, ch) = chars[rng.below(chars.len())];
    let end = at + ch.len_utf8();
    let byte = char::from(BYTES[rng.below(BYTES.len())]);
    match rng.below(4) {
        0 => (
            format!("{}{byte}{}", &line[..at], &line[end..]),
            format!("byte {at} -> {byte:?}"),
        ),
        1 => (
            format!("{}{byte}{}", &line[..at], &line[at..]),
            format!("insert {byte:?} at {at}"),
        ),
        2 => (
            format!("{}{}", &line[..at], &line[end..]),
            format!("delete byte {at}"),
        ),
        _ => {
            let spans = tokens(line);
            let span = spans[rng.below(spans.len())].clone();
            let with = TOKENS[rng.below(TOKENS.len())];
            (
                format!("{}{with}{}", &line[..span.start], &line[span.end..]),
                format!("token {span:?} -> {with:?}"),
            )
        }
    }
}

fn all_finite(v: &Json) -> bool {
    match v {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(members) => members.iter().all(|(_, m)| all_finite(m)),
        Json::Null | Json::Bool(_) | Json::Str(_) => true,
    }
}

/// `Ok(true)` if `text` parsed with every number finite, `Ok(false)` if
/// it was rejected at a byte offset within it, `Err` otherwise.
fn classify(text: &str) -> Result<bool, String> {
    match parse_json(text) {
        Ok(v) if all_finite(&v) => Ok(true),
        Ok(_) => Err("accepted a non-finite number".to_owned()),
        Err(e) => {
            let at = e
                .strip_prefix("JSON error at byte ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| format!("error names no byte offset: {e}"))?;
            // The line's length is the end of input, a valid offset.
            if at <= text.len() {
                Ok(false)
            } else {
                Err(format!(
                    "offset {at} past the line's {} bytes: {e}",
                    text.len()
                ))
            }
        }
    }
}

#[test]
fn single_edit_jsonl_mutants_parse_or_fail_at_an_offset() {
    let jsonl = snapshot().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 8, "meta + 4 counters + 2 gauges + 1 histogram");
    for line in &lines {
        assert_eq!(classify(line), Ok(true), "exported line must parse: {line}");
    }
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let (mut accepted, mut failures) = (0usize, Vec::new());
    for _ in 0..MUTANTS {
        let li = rng.below(lines.len());
        let (mutant, what) = mutate(lines[li], &mut rng);
        match catch_unwind(AssertUnwindSafe(|| classify(&mutant))) {
            Ok(Ok(true)) => accepted += 1,
            Ok(Ok(false)) => {}
            Ok(Err(e)) => failures.push(format!("line {li}, {what}: {e}\n  {mutant}")),
            Err(_) => failures.push(format!("line {li}, {what}: panicked\n  {mutant}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {MUTANTS} mutants broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Both outcomes must be exercised: the suite is not only a list of
    // syntax errors, nor only of harmless edits inside strings.
    let rejected = MUTANTS - accepted;
    assert!(
        accepted * 10 > MUTANTS && rejected * 10 > MUTANTS,
        "{accepted} accepted, {rejected} rejected"
    );
}

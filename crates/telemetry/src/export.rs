//! Structured export: the frozen snapshot types and the hand-rolled
//! JSON-lines writer.
//!
//! One record per line, each a self-describing JSON object whose
//! `"record"` field names its kind:
//!
//! ```text
//! {"record":"meta","schema":"dscts-telemetry","version":1}
//! {"record":"counter","name":"service.accepted","value":128}
//! {"record":"gauge","name":"service.queue_depth","value":0}
//! {"record":"histogram","name":"job.wall_s","count":128,"sum_s":3.1,
//!  "p50_s":0.02,"p95_s":0.09,"p99_s":0.31,"le":[...],"counts":[...]}
//! ```
//!
//! The writer emits nothing that the sibling parser ([`crate::parse_json`])
//! cannot read back; the loadtest validates every line in-process with it.

/// A frozen, exportable view of one [`Telemetry`](crate::Telemetry)
/// collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

/// A frozen histogram: totals, interpolated quantiles, and the raw
/// bucket counts (`le` is each bucket's inclusive upper bound in
/// seconds; the final `f64::MAX` bucket collects overflow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry name (`span.route`, `job.wall_s`, ...).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, seconds.
    pub sum_s: f64,
    /// Interpolated median, seconds.
    pub p50_s: f64,
    /// Interpolated 95th percentile, seconds.
    pub p95_s: f64,
    /// Interpolated 99th percentile, seconds.
    pub p99_s: f64,
    /// `(upper_bound_seconds, count)` per bucket.
    pub buckets: Vec<(f64, u64)>,
}

impl TelemetrySnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serialize to JSON-lines: one `meta` header line, then one line
    /// per counter, gauge and histogram, in that order (names sorted
    /// within each kind).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"record\":\"meta\",\"schema\":\"dscts-telemetry\",\"version\":1}\n");
        for (name, value) in &self.counters {
            out.push_str("{\"record\":\"counter\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
            out.push_str("}\n");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"record\":\"gauge\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
            out.push_str("}\n");
        }
        for h in &self.histograms {
            out.push_str("{\"record\":\"histogram\",\"name\":");
            push_json_str(&mut out, &h.name);
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            push_f64_field(&mut out, "sum_s", h.sum_s);
            push_f64_field(&mut out, "p50_s", h.p50_s);
            push_f64_field(&mut out, "p95_s", h.p95_s);
            push_f64_field(&mut out, "p99_s", h.p99_s);
            // Export only occupied buckets: the fixed grid is sparse in
            // practice and the bounds identify each bucket on their own.
            out.push_str(",\"le\":[");
            let mut first = true;
            for &(le, _) in h.buckets.iter().filter(|&&(_, c)| c > 0) {
                if !first {
                    out.push(',');
                }
                first = false;
                push_f64(&mut out, le);
            }
            out.push_str("],\"counts\":[");
            let mut first = true;
            for &(_, c) in h.buckets.iter().filter(|&&(_, c)| c > 0) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&c.to_string());
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Append a JSON string literal (quoted, escaped).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite JSON number (non-finite values become 0 — JSON has
/// no NaN/Inf and the metrics layer never produces them anyway).
/// `Display` prints the shortest decimal that parses back to the same
/// `f64`, so every exported number round-trips exactly; the overflow
/// bucket's `f64::MAX` bound comes out as a 309-digit integer.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for whole floats prints no fraction ("2" for 2.0),
        // which is still a valid JSON number; keep as-is.
        out.push_str(&v.to_string());
    } else {
        out.push('0');
    }
}

fn push_f64_field(out: &mut String, name: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_f64(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn jsonl_roundtrips_through_own_parser() {
        let snap = TelemetrySnapshot {
            counters: vec![("a\"b\\c".to_owned(), 3), ("plain".to_owned(), 0)],
            gauges: vec![("depth".to_owned(), -4)],
            histograms: vec![HistogramSnapshot {
                name: "job.wall_s".to_owned(),
                count: 2,
                sum_s: 0.25,
                p50_s: 0.1,
                p95_s: 0.2,
                p99_s: 0.2,
                buckets: vec![(1e-3, 0), (1.0, 2), (f64::MAX, 0)],
            }],
        };
        let jsonl = snap.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + 2 counters + 1 gauge + 1 histogram
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let v = parse(line).expect("every line parses");
            assert!(v.get("record").is_some(), "self-describing record");
        }
        let counter = parse(lines[1]).expect("parses");
        assert_eq!(counter.get("name").and_then(Json::as_str), Some("a\"b\\c"));
        assert_eq!(counter.get("value").and_then(Json::as_u64), Some(3));
        let hist = parse(lines[4]).expect("parses");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        // Only the occupied bucket is exported.
        assert_eq!(
            hist.get("counts").and_then(Json::as_array).map(Vec::len),
            Some(1)
        );
        // Accessors agree with the export.
        assert_eq!(snap.counter("plain"), Some(0));
        assert_eq!(snap.gauge("depth"), Some(-4));
        assert!(snap.histogram("job.wall_s").is_some());
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn occupied_overflow_bucket_roundtrips_to_f64_max() {
        let snap = TelemetrySnapshot {
            histograms: vec![HistogramSnapshot {
                name: "job.wall_s".to_owned(),
                count: 3,
                sum_s: 1e12,
                buckets: vec![(1.0, 1), (f64::MAX, 2)],
                ..HistogramSnapshot::default()
            }],
            ..TelemetrySnapshot::default()
        };
        let jsonl = snap.to_jsonl();
        let line = jsonl.lines().nth(1).expect("histogram line");
        let le = parse(line).expect("parses");
        let le = le.get("le").and_then(Json::as_array).expect("le array");
        assert_eq!(le.len(), 2);
        assert_eq!(le[0].as_f64(), Some(1.0));
        assert_eq!(le[1].as_f64(), Some(f64::MAX));
    }
}

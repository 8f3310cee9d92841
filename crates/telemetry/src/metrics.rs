//! Hand-rolled metrics primitives: counters, gauges, and fixed-bucket
//! log-spaced latency histograms.
//!
//! All handles are cheap `Arc`-backed clones over atomics, so hot loops
//! resolve a handle once (one lock acquisition on the collector) and
//! then record lock-free.

use crate::export::HistogramSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (unregistered; normally obtained from
    /// [`Telemetry::counter`](crate::Telemetry::counter)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (queue depth, peak RSS).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to `value` if it is larger (peak tracking).
    pub fn max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-spaced upper bucket bounds in seconds: four buckets per decade
/// from 1 µs up to ~5.6 ks, one trailing overflow bucket. Wide enough
/// for per-move sizing trials and multi-second chaos jobs alike.
const BUCKETS_PER_DECADE: f64 = 4.0;
const BUCKET_COUNT: usize = 40;

fn latency_bounds() -> Vec<f64> {
    (0..BUCKET_COUNT)
        .map(|i| 1e-6 * 10f64.powf(i as f64 / BUCKETS_PER_DECADE))
        .collect()
}

#[derive(Debug)]
struct HistoInner {
    /// Upper bounds (inclusive) per bucket, strictly increasing.
    bounds: Vec<f64>,
    /// One count per bound plus a trailing overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Sum of observations in integer nanoseconds (atomic-addable;
    /// overflows after ~584 years of recorded time).
    sum_ns: AtomicU64,
}

/// A fixed-bucket latency histogram with lock-free recording and
/// bucket-interpolated quantiles.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistoInner>);

impl Default for Histogram {
    fn default() -> Self {
        let bounds = latency_bounds();
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistoInner {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram (unregistered; normally obtained from
    /// [`Telemetry::histogram`](crate::Telemetry::histogram)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation, in seconds. Negative and non-finite
    /// values are clamped to zero (they land in the first bucket).
    #[inline]
    pub fn record(&self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = self.0.bounds.partition_point(|&b| b < s);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated by linear interpolation
    /// within the bucket that crosses the target rank. Returns 0 for an
    /// empty histogram; observations in the overflow bucket report the
    /// last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0.0;
        for (i, c) in self.0.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed) as f64;
            if c > 0.0 && cum + c >= target {
                let lo = if i == 0 { 0.0 } else { self.0.bounds[i - 1] };
                let hi = match self.0.bounds.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: report its lower edge rather
                    // than invent an upper bound.
                    None => return lo,
                };
                let frac = ((target - cum) / c).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            cum += c;
        }
        // invariant: total > 0 means some bucket crossed the target.
        self.0.bounds[self.0.bounds.len() - 1]
    }

    /// Freeze into an exportable snapshot under the given name.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.0.counts.len());
        for (i, c) in self.0.counts.iter().enumerate() {
            let le = self.0.bounds.get(i).copied().unwrap_or(f64::MAX);
            buckets.push((le, c.load(Ordering::Relaxed)));
        }
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count(),
            sum_s: self.sum_seconds(),
            p50_s: self.quantile(0.50),
            p95_s: self.quantile(0.95),
            p99_s: self.quantile(0.99),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Telemetry::new();
        let c = reg.counter("a");
        c.incr();
        c.add(4);
        // Same name resolves the same underlying cell.
        assert_eq!(reg.counter("a").get(), 5);

        let g = reg.gauge("depth");
        g.set(7);
        g.add(-2);
        g.max(3); // below current: no change
        assert_eq!(reg.gauge("depth").get(), 5);
        g.max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations spread uniformly inside one decade.
        for i in 0..100 {
            h.record(1e-3 * (1.0 + i as f64 / 100.0));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Bucket interpolation is coarse, but order statistics and the
        // bucketing envelope must hold.
        assert!(p50 > 0.5e-3 && p50 < 3.5e-3, "p50 = {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!((h.sum_seconds() - 0.1495).abs() < 2e-3);
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.record(-1.0); // clamped to zero, first bucket
        h.record(f64::NAN); // clamped
        h.record(1e9); // overflow bucket
        assert_eq!(h.count(), 3);
        let snap = h.snapshot("h");
        let recorded: u64 = snap.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(recorded, 3);
        // Overflow quantile reports the last finite bound, not infinity.
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn snapshot_orders_names_deterministically() {
        let reg = Telemetry::new();
        reg.counter("zebra").incr();
        reg.counter("alpha").incr();
        reg.histogram("m").record(0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zebra"]);
        assert_eq!(snap.histograms[0].name, "m");
    }
}

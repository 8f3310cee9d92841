//! Zero-dependency observability for the dscts pipeline and service.
//!
//! The flow is a multi-stage optimization pipeline (route → DP insertion
//! → refinement → corner sign-off) whose cost structure was previously
//! visible only as coarse per-stage wall clocks, and the job service
//! exposed little more than `wall_s` per job. This crate supplies the
//! missing layer as three small pieces:
//!
//! - **Spans** — [`Span::enter`] wall-clocks a named site and records
//!   the duration into a latency histogram (`span.<site>`) when it
//!   drops. Spans nest naturally (each is an independent RAII value)
//!   and are thread-safe.
//! - **Metrics** — a [`Telemetry`] collector holds named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket log-spaced latency [`Histogram`]s.
//!   Handles are cheap `Arc`-backed clones that can be resolved once
//!   and hammered from hot loops without touching the collector's
//!   locks again.
//! - **Structured export** — [`Telemetry::snapshot`] freezes everything
//!   into a [`TelemetrySnapshot`], serialized to JSON-lines by a
//!   hand-rolled writer ([`TelemetrySnapshot::to_jsonl`]) and readable
//!   back by the hand-rolled parser in [`parse_json`] (the build is
//!   offline, so both ends are dependency-free).
//!
//! # Installation model
//!
//! Exactly one process-global collector can be live at a time.
//! [`install`] publishes an `Arc<Telemetry>` and returns a
//! [`CollectorGuard`]; dropping the guard uninstalls it. Installation
//! is *generational*: a guard only uninstalls the collector it
//! installed, so replacing a live collector simply orphans the older
//! guard (its drop becomes a no-op). This mirrors the fault-injection
//! registry's scoping discipline without its blocking semantics —
//! telemetry is passive, so last-writer-wins is safe.
//!
//! # Cost when disabled
//!
//! Every entry point ([`active`], [`Span::enter`], [`count`],
//! [`observe`], [`gauge_set`]) starts with one relaxed atomic load and
//! returns immediately when no collector is installed: no allocation,
//! no lock, no `Instant::now()`. Hot loops that cannot afford even the
//! `Option<Arc>` dance pre-resolve an `Option<Counter>` at construction
//! time and branch on `None`. The bench crate's counting-allocator
//! harness pins the no-collector sizing hot loop at zero extra heap
//! allocations.
//!
//! # Example
//!
//! ```
//! use dscts_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! let collector = Arc::new(telemetry::Telemetry::new());
//! let guard = telemetry::install(collector.clone());
//! {
//!     let _span = telemetry::Span::enter("work");
//!     telemetry::count("work.items", 3);
//! }
//! drop(guard); // uninstalled: later spans are free no-ops
//!
//! let snap = collector.snapshot();
//! assert_eq!(snap.counter("work.items"), Some(3));
//! let jsonl = snap.to_jsonl();
//! for line in jsonl.lines() {
//!     telemetry::parse_json(line).expect("every exported line is valid JSON");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod json;
mod metrics;

pub use export::{HistogramSnapshot, TelemetrySnapshot};
pub use json::{parse as parse_json, Json};
pub use metrics::{Counter, Gauge, Histogram};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// An in-process telemetry collector: named counters, gauges and
/// histograms with get-or-create semantics. Names live in `BTreeMap`s,
/// so snapshots and exports enumerate them in sorted order.
///
/// Collectors are inert until [`install`]ed; multiple can exist (e.g.
/// one per test) but only the installed one receives events.
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Telemetry {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the named counter (cheap clonable handle).
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name)
    }

    /// Get-or-create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.gauges, name)
    }

    /// Get-or-create the named latency histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.histograms, name)
    }

    /// Record one duration observation into the named histogram.
    pub fn record_duration(&self, name: &str, seconds: f64) {
        self.histogram(name).record(seconds);
    }

    /// Freeze the current state into an exportable snapshot.
    ///
    /// Concurrent writers may still be recording; the snapshot is a
    /// consistent-enough point-in-time view (each metric is read
    /// atomically).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| v.snapshot(k))
                .collect(),
        }
    }
}

/// Every update leaves a name map valid, so a poisoned lock is safe to
/// recover.
fn lock<T>(map: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

fn get_or_create<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = lock(map);
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    let v = T::default();
    map.insert(name.to_owned(), v.clone());
    v
}

/// The installed collector slot. Generation numbers make guard drops
/// idempotent and replacement-safe: a guard only clears the collector
/// *it* installed.
struct Slot {
    generation: u64,
    collector: Option<Arc<Telemetry>>,
}

/// Fast-path switch: `true` iff a collector is currently installed.
/// Checked with a relaxed load before any other telemetry work.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Slot> {
    static SLOT: OnceLock<Mutex<Slot>> = OnceLock::new();
    SLOT.get_or_init(|| {
        Mutex::new(Slot {
            generation: 0,
            collector: None,
        })
    })
}

/// Install `collector` as the process-global collector.
///
/// Returns a [`CollectorGuard`] that uninstalls it on drop. Installing
/// over a live collector replaces it (the older guard's drop becomes a
/// no-op).
pub fn install(collector: Arc<Telemetry>) -> CollectorGuard {
    let mut s = slot().lock().unwrap_or_else(PoisonError::into_inner);
    s.generation += 1;
    s.collector = Some(collector);
    ENABLED.store(true, Ordering::Release);
    CollectorGuard {
        generation: s.generation,
    }
}

/// RAII handle for an installed collector; dropping it uninstalls the
/// collector it installed (and only that one — see [`install`]).
#[derive(Debug)]
#[must_use = "dropping the guard immediately uninstalls the collector"]
pub struct CollectorGuard {
    generation: u64,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        let mut s = slot().lock().unwrap_or_else(PoisonError::into_inner);
        if s.generation == self.generation {
            s.collector = None;
            ENABLED.store(false, Ordering::Release);
        }
    }
}

/// The currently installed collector, if any.
///
/// One relaxed atomic load when disabled — the hot-path contract every
/// instrumentation site relies on.
#[inline]
pub fn active() -> Option<Arc<Telemetry>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .collector
        .clone()
}

/// `true` iff a collector is installed (same fast path as [`active`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A timed region: records `elapsed` into the `span.<site>` histogram
/// of the installed collector when dropped. Free no-op when disabled.
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    tel: Arc<Telemetry>,
    site: &'static str,
    start: Instant,
}

impl Span {
    /// Enter the named site. The site becomes the histogram suffix, so
    /// keep it low-cardinality (`"route"`, `"dp"`, `"service.job"`).
    #[inline]
    pub fn enter(site: &'static str) -> Span {
        match active() {
            Some(tel) => Span(Some(SpanInner {
                tel,
                site,
                start: Instant::now(),
            })),
            None => Span(None),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let seconds = inner.start.elapsed().as_secs_f64();
            // Allocating the key is fine here: a collector is live, so
            // the zero-allocation contract does not apply.
            inner
                .tel
                .record_duration(&format!("span.{}", inner.site), seconds);
        }
    }
}

/// Add `n` to the named counter of the installed collector, if any.
#[inline]
pub fn count(name: &str, n: u64) {
    if let Some(t) = active() {
        t.counter(name).add(n);
    }
}

/// Set the named gauge of the installed collector, if any.
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    if let Some(t) = active() {
        t.gauge(name).set(value);
    }
}

/// Record a duration into the named histogram of the installed
/// collector, if any.
#[inline]
pub fn observe(name: &str, seconds: f64) {
    if let Some(t) = active() {
        t.record_duration(name, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector slot is process-global, and the test harness runs
    // tests in parallel; everything touching install/uninstall lives in
    // this one test so nothing races.
    #[test]
    fn install_uninstall_and_generation_semantics() {
        assert!(!enabled());
        assert!(active().is_none());

        let a = Arc::new(Telemetry::new());
        let guard_a = install(a.clone());
        assert!(enabled());
        count("x", 2);
        {
            let _span = Span::enter("s");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(a.snapshot().counter("x"), Some(2));
        let span_hist = a.histogram("span.s");
        assert_eq!(span_hist.count(), 1);
        assert!(span_hist.sum_seconds() > 0.0);

        // Replace while live: the old guard's drop must not clear the
        // new collector.
        let b = Arc::new(Telemetry::new());
        let guard_b = install(b.clone());
        drop(guard_a);
        assert!(
            enabled(),
            "stale guard must not uninstall the new collector"
        );
        count("x", 1);
        assert_eq!(b.snapshot().counter("x"), Some(1));
        assert_eq!(a.snapshot().counter("x"), Some(2), "old collector frozen");

        drop(guard_b);
        assert!(!enabled());
        assert!(active().is_none());
        count("x", 100); // free no-op
        assert_eq!(b.snapshot().counter("x"), Some(1));
    }
}

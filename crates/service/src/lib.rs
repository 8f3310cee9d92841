//! Resilient multi-tenant CTS job service.
//!
//! The [`dscts_core`] pipeline synthesizes one tree per call; this crate
//! turns it into a long-lived, fault-contained *service* for the
//! route-once/score-many workloads real CTS users run: a design is
//! registered once (routed, cached content-addressed), then many cheap
//! what-if jobs — sizing schedules, DSE sweep points, MCMM corner
//! sign-off — score against the immutable routed artifact concurrently
//! from a bounded worker pool.
//!
//! The building blocks:
//!
//! - [`CtsService`] — the worker pool, bounded queue and admission
//!   control. [`CtsService::register_design`] routes-and-caches;
//!   [`CtsService::submit`] enqueues a [`JobRequest`] and returns a
//!   [`JobTicket`] resolving to exactly one terminal [`JobResponse`].
//! - [`DesignKey`] / [`CachedDesign`] — the content-addressed artifact
//!   (routed `ClockTopo`, CSR adjacency pre-warmed) jobs borrow
//!   read-only.
//! - The core's resilience layer supplies the per-job guardrails: every
//!   job carries a [`RunBudget`](dscts_core::RunBudget)-minted token
//!   (deadline measured from *submission*), runs behind `catch_unwind`
//!   isolation boundaries, and may climb the
//!   [`RecoveryPolicy`](dscts_core::RecoveryPolicy) relaxation ladder.
//!
//! ```
//! use dscts_core::DsCts;
//! use dscts_netlist::BenchmarkSpec;
//! use dscts_service::{CtsService, JobKind, JobRequest, JobResponse, ServiceConfig};
//! use dscts_tech::Technology;
//!
//! let service = CtsService::start(DsCts::new(Technology::asap7()), ServiceConfig::default());
//! let design = BenchmarkSpec::c1_jpeg().generate();
//! let (key, hit) = service.register_design(&design).unwrap();
//! assert!(!hit); // first registration routes
//!
//! let ticket = service
//!     .submit(JobRequest {
//!         tenant: "team-a".into(),
//!         design: key,
//!         kind: JobKind::Score,
//!         deadline: None,
//!     })
//!     .unwrap();
//! match ticket.wait() {
//!     Some(JobResponse::Completed(outcome)) => assert!(outcome.metrics.latency_ps > 0.0),
//!     other => panic!("unexpected terminal response: {other:?}"),
//! }
//! service.shutdown(dscts_service::DrainMode::Graceful);
//! ```
//!
//! # Operating the service
//!
//! **Queue sizing.** [`ServiceConfig::queue_capacity`] bounds *queued*
//! (not running) jobs; [`ServiceConfig::workers`] bounds concurrency.
//! Memory per queued job is one request plus an `Arc` onto the cached
//! artifact, so the queue bound mostly controls *latency*, not memory:
//! a job's deadline clock starts at submission, so a queue much longer
//! than `workers × (deadline / typical job wall clock)` admits jobs
//! that will only ever fail typed with `Cancelled("queue")`. Size the
//! queue to the burst you want to absorb and let the rest bounce.
//!
//! **Backpressure semantics.** Admission is checked synchronously at
//! [`CtsService::submit`], worst-case-first: quarantine, then queue
//! capacity ([`Rejected::QueueFull`]), then the per-tenant outstanding
//! cap ([`Rejected::Backpressure`], counting queued + running jobs, so
//! one tenant cannot monopolize the pool). Rejected submissions were
//! never queued and get no [`JobResponse`]; accepted ones are guaranteed
//! exactly one terminal response. Callers should treat `QueueFull` /
//! `Backpressure` as retry-after-drain signals and `Quarantined` as
//! stop-submitting.
//!
//! **Quarantine policy.** Every job failing with
//! [`CtsError::Internal`](dscts_core::CtsError::Internal) — a caught
//! panic or an injected fault, never a typed infeasibility or deadline
//! — counts one strike against its *design* (the cached artifact is the
//! shared state a poisoned input keeps re-triggering). At
//! [`ServiceConfig::quarantine_threshold`] strikes the design is
//! quarantined: later submissions are rejected synchronously and
//! cheaply. Quarantine never kills in-flight jobs and never evicts the
//! artifact; [`CtsService::quarantined`] lists the offenders for
//! operator triage.
//!
//! **Drain behavior.** [`CtsService::shutdown`] flips admission off
//! (subsequent submissions → [`Rejected::ShuttingDown`]), cancels every
//! still-queued job with a typed [`JobResponse::Cancelled`], and joins
//! the pool. [`DrainMode::Graceful`] lets in-flight jobs run to natural
//! completion; [`DrainMode::Fast`] additionally trips their cancel
//! tokens so they degrade at the next cooperative checkpoint (truncated
//! optimization schedules, `Cancelled` pre-tree) — bounded by one
//! checkpoint interval, not one job. Either way the exactly-once
//! response invariant holds through shutdown.
//!
//! **Bit-identity.** Job results are bit-identical to direct [`DsCts`]
//! staged-driver compositions on a freshly routed design: routing is
//! deterministic, the cache stores the routed topology immutably, and
//! each job attempt runs the pipeline's post-route stages
//! ([`DsCts::try_run_routed`](dscts_core::DsCts::try_run_routed)) on its
//! own clone of it. The loadtest bin asserts this in-process on every run.
//!
//! # Observability
//!
//! The service is instrumented with `dscts-telemetry` (re-exported as
//! [`dscts_core::telemetry`]). With no collector installed every site
//! is one relaxed atomic load and results stay bit-identical; install
//! one (`telemetry::install(Arc::new(telemetry::Telemetry::new()))`)
//! and the service records, per process:
//!
//! - **Counters** mirroring [`ServiceStats`] exactly —
//!   `service.accepted`, `service.completed`, `service.failed`,
//!   `service.cancelled`, `service.panics_caught` (panics that escape the
//!   pipeline; one inside a job's stages fails it as `Internal { stage }`
//!   and counts in `pipeline.panics_caught`), plus the admission
//!   mix as `service.rejected.<variant>` (`queue_full`, `backpressure`,
//!   `quarantined`, `shutting_down`, `unknown_design`,
//!   `missing_corners`), quarantine progress
//!   (`service.quarantine_strikes`, `service.quarantined_designs`),
//!   per-kind submission counts (`service.jobs.<label>`), the
//!   design cache (`cache.hits`, `cache.misses`), and the service-side
//!   recovery ladder as `service.recovery.<rung>` (one count per rung
//!   climbed, labelled by
//!   [`Relaxation::label`](dscts_core::Relaxation::label); their sum
//!   equals [`ServiceStats::retries`]).
//! - **Gauges**: `service.queue_depth`, sampled at every admission and
//!   dequeue.
//! - **Histograms**: `job.wall_s` and `job.queue_wait_s` (log-spaced
//!   buckets; the loadtest reports p50/p95/p99 from them),
//!   `span.service.job` and `span.register_route`, the
//!   `span.insertion` / `span.optimize` / `span.evaluate` and
//!   `span.pass.<name>` histograms the pipeline records as each stage or
//!   pass completes (retried attempts too), and `span.signoff`, recorded
//!   by the service per sign-off.
//! - **Per-job stage breakdowns**: every completed job's
//!   [`JobOutcome::stages`] is the winning attempt's
//!   [`Outcome::stages`](dscts_core::Outcome::stages) — insertion,
//!   optimize (one `opt:<name>` row per executed pass), evaluate — plus
//!   a `signoff` row for [`JobKind::CornerSignoff`] jobs.
//!   [`JobKind::SweepPoint`] jobs log no records beyond these.
//!
//! Export with `Telemetry::snapshot()` → `TelemetrySnapshot::to_jsonl()`;
//! the loadtest bin validates every emitted line in-process (schema plus
//! an `accepted == completed + failed + cancelled` cross-check against
//! [`ServiceStats`]) and `--telemetry <path>` writes it out for CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod job;
mod service;

pub use cache::{CachedDesign, DesignKey};
pub use job::{CancelKind, JobKind, JobOutcome, JobRequest, JobResponse, JobTicket, Rejected};
pub use service::{job_pipeline, CtsService, DrainMode, DrainReport, ServiceConfig, ServiceStats};

use dscts_core::DsCts;

// The service shares these across its pool and hands them between
// submitter and worker threads; losing an impl must fail this crate's
// build, not a downstream caller's type inference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CachedDesign>();
    assert_send_sync::<DesignKey>();
    assert_send_sync::<JobRequest>();
    assert_send_sync::<JobResponse>();
    assert_send_sync::<ServiceConfig>();
    assert_send_sync::<CtsService>();
    assert_send_sync::<DsCts>();
    const fn assert_send<T: Send>() {}
    assert_send::<JobTicket>();
};

//! Systematic multi-objective double-side clock tree synthesis.
//!
//! This crate is the primary contribution of the reproduced paper (Jiang et
//! al., DAC 2025): a CTS flow that designs front-side *and* back-side clock
//! routing **concurrently**, instead of flipping nets of a finished
//! front-side tree. The pipeline (Fig. 4):
//!
//! 1. [`HierarchicalRouter`] — dual-level clustering + hierarchical DME
//!    (§III-B);
//! 2. [`try_run_dp`] — concurrent buffer & nTSV insertion over the
//!    edge-pattern design space P1–P6, selected by the multi-objective
//!    enhancement score (§III-C);
//! 3. [`opt`] — the composable post-CTS optimization layer (§III-D and
//!    beyond): an [`OptPass`] trait and [`PassManager`] over a shared
//!    [`OptCtx`], with the paper's end-point refinement
//!    ([`skew::EndpointRefinePass`]) as the default schedule, plus greedy
//!    sizing ([`sizing::SizingPass`]), seeded simulated annealing
//!    ([`AnnealedSizingPass`]) and pattern local search
//!    ([`PatternSearchPass`]);
//! 4. [`dse`] — design-space exploration by sweeping the fanout threshold
//!    that switches DP nodes between full and intra-side modes (§III-E),
//!    batched by [`dse::SweepEngine`]: one routing run per design, one DP
//!    run per mode-equivalence class of the sweep, every point scored on
//!    the tree the configured optimization schedule produces.
//!
//! The comparison methods of the paper's evaluation are implemented in
//! [`baseline`]: an OpenROAD-like H-tree CTS and the post-CTS back-side
//! flipping flows of refs. \[2\] (latency-driven), \[7\] (fanout-driven) and
//! \[6\] (timing-criticality-driven).
//!
//! The pipeline is a *staged engine*: each phase is a [`Stage`] over a
//! [`PipelineCtx`] blackboard, individually wall-clocked into
//! [`Outcome::stages`] (the optimize stage additionally reports one
//! `opt:<name>` timing per executed pass), with data-dependent failures
//! reported as [`CtsError`] through [`DsCts::try_run`]. Routing and DP
//! hot paths run rayon-parallel with bit-identical results at any thread
//! count.
//!
//! Every optimization pass runs on the one [`IncrementalEval`] engine:
//! full evaluation state stays resident and each trial move re-propagates
//! only its dirty ancestor path and subtree, with journaled undo for
//! rejected moves — bit-identical to [`SynthesizedTree::evaluate`] and
//! orders of magnitude faster in the inner loops. The same evaluator
//! holds one technology or every corner of a [`dscts_tech::CornerSet`]
//! ([`IncrementalEval::with_corners`]), so every pass, built-in or
//! custom, runs corner-aware unchanged. Passes run through one entry
//! point, [`PassManager::run`].
//!
//! Most users want the [`DsCts`] pipeline builder; custom optimization
//! schedules plug in through [`DsCts::schedule`] (see the [`opt`] module
//! docs for a worked custom-pass example):
//!
//! ```
//! use dscts_core::opt::OptSchedule;
//! use dscts_core::{AnnealedSizingPass, DsCts, EndpointRefinePass};
//! use dscts_netlist::BenchmarkSpec;
//! use dscts_tech::Technology;
//!
//! let design = BenchmarkSpec::c4_riscv32i().generate();
//! let outcome = DsCts::new(Technology::asap7()).run(&design);
//! assert!(outcome.metrics.latency_ps > 0.0);
//! assert!(outcome.metrics.ntsvs > 0); // double-side by default
//!
//! // Same pipeline, richer post-CTS schedule: refine then anneal sizes.
//! let tuned = DsCts::new(Technology::asap7())
//!     .schedule(
//!         OptSchedule::new()
//!             .with(EndpointRefinePass::default())
//!             .with(AnnealedSizingPass::default()),
//!     )
//!     .run(&design);
//! // Annealed sizing only re-scales existing buffers: resources match,
//! // and its MOES objective never degrades.
//! assert_eq!(tuned.metrics.buffers, outcome.metrics.buffers);
//! let w = dscts_core::AnnealConfig::default().weights;
//! let obj = |m| dscts_core::opt::moes_objective_of(&w, m);
//! assert!(obj(&tuned.metrics) <= obj(&outcome.metrics) + 1e-9);
//! ```
//!
//! # Failure model & recovery
//!
//! The engine is built to be embedded in long-lived services, so every
//! failure is *typed*, *bounded* and — where the failure is data-dependent
//! rather than a bug — *recoverable*. The [`resilience`] module holds the
//! machinery; this section is the contract.
//!
//! **Error taxonomy.** All failures surface as [`CtsError`] from
//! [`DsCts::try_run`] (the panicking [`DsCts::run`] wrapper re-panics with
//! the display text for legacy consumers). Three families:
//!
//! - *Input errors* — [`CtsError::EmptyDesign`],
//!   [`CtsError::MalformedTrunk`], [`CtsError::InvalidTopology`]: the
//!   design or routed topology is structurally unusable. Not retried.
//! - *Data-dependent infeasibilities* — [`CtsError::NoFeasiblePattern`],
//!   [`CtsError::NoRootCandidate`], [`CtsError::IllegalSides`]: a valid
//!   input has no solution under the *current* configuration. These are
//!   exactly the errors the recovery ladder retries.
//! - *Execution faults* — [`CtsError::Internal`] (a panic caught at a
//!   stage or parallel-worker isolation boundary; carries the stage name
//!   and panic payload) and [`CtsError::Cancelled`] (the run budget
//!   expired inside a mandatory stage). Internal errors are bugs or
//!   injected faults and are never retried.
//!
//! **Budget semantics.** [`DsCts::budget`] attaches a
//! [`resilience::RunBudget`] (wall-clock deadline and/or max optimization
//! trials). The minted [`resilience::CancelToken`] is checked
//! cooperatively at stage boundaries and inside the long loops (per-height
//! DP propagation, DSE sweep classes, optimization trial loops, every
//! evaluator mutation). Cancellation before the tree exists (route/insertion)
//! aborts with [`CtsError::Cancelled`]; cancellation during optimization
//! *truncates the schedule* instead — remaining passes are skipped, the
//! cheap evaluation stage still runs, and the result is a valid partial
//! [`Outcome`] with [`Outcome::degraded`] set. With no budget configured,
//! results are bit-identical to an unbudgeted build.
//!
//! **Recovery ladder.** [`DsCts::recovery`] attaches a
//! [`resilience::RecoveryPolicy`]. On a recoverable error the pipeline
//! deterministically retries with cumulative relaxations, in ladder order:
//! (1) widen the pattern alphabet to [`PatternSet::Extended`], (2) raise
//! `DpConfig::max_cands` ×4, (3) fall back to single-side. Every rung is
//! recorded as a [`resilience::RecoveryStep`] in [`Outcome::recovery`],
//! so a successful recovery documents exactly what it cost; an exhausted
//! ladder returns the last error. No randomness: identical inputs take
//! identical ladders.
//!
//! **Fault injection.** The `fault-inject` feature compiles named
//! injection sites into the hot paths ([`resilience::fault`]); the
//! harness's proptests assert that every injected failure yields a typed
//! error (never a propagated panic) and leaves evaluator journals fully
//! rolled back. Without the feature the checks are constants the
//! optimizer deletes.
//!
//! # Observability
//!
//! The pipeline is instrumented with the zero-dependency
//! [`telemetry`] crate (`dscts-telemetry`, re-exported here). With no
//! collector installed every site is one relaxed atomic load — outcomes
//! stay bit-identical and the sizing hot loop allocation-free (both are
//! asserted by tests). Install one with
//! `telemetry::install(Arc::new(telemetry::Telemetry::new()))` and the
//! engine records:
//!
//! - **Span histograms** (`span.<site>`, seconds): one per pipeline
//!   stage (`span.route`, `span.insertion`, `span.optimize`,
//!   `span.evaluate` — equal to the [`Outcome::stages`] wall clocks),
//!   `span.dp` for whole DP runs, `span.dse.class` per mode-equivalence
//!   class, and `span.pass.<name>` per optimization pass.
//! - **Counters**: `pipeline.runs`, `pipeline.degraded`,
//!   `pipeline.panics_caught`, `pipeline.recovery.<rung>` (one per
//!   [`Relaxation::label`]), `dp.height_groups`, `dp.nodes`,
//!   `dp.suffix_reused` (DP nodes whose candidate sets were copied from
//!   a lent [`DpSuffixCache`]), `dse.classes` (mode classes a sweep
//!   scored), `opt.trials_attempted`, `opt.trials_accepted`,
//!   `mcmm.corner_evals`, and `fault.unfired_arms` (chaos arms a dropped
//!   fault plan never consumed).
//! - **Gauges**: `process.peak_rss_bytes` (high-water mark).
//!
//! Export via [`telemetry::Telemetry::snapshot`] →
//! [`telemetry::TelemetrySnapshot::to_jsonl`]: self-describing JSON
//! lines (`{"record":"counter"|"gauge"|"histogram",...}`)
//! written by a hand-rolled serializer and checked in-process by the
//! crate's own JSON parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod dp;
pub mod dse;
mod error;
pub mod incremental;
pub mod mcmm;
pub mod opt;
mod pattern;
mod pipeline;
pub mod resilience;
mod route;
pub mod rss;
pub mod sizing;
pub mod skew;
mod synth;
mod tree;

/// The zero-dependency observability layer (`dscts-telemetry`),
/// re-exported so pipeline embedders install collectors without a
/// separate dependency. See the crate-level "Observability" section for
/// the metric names this engine emits.
pub use dscts_telemetry as telemetry;

pub use dp::{
    mode_vector, try_run_dp, DpConfig, DpResult, DpSuffixCache, ModeRule, MoesWeights, PruneMode,
    RootCand,
};
pub use error::CtsError;
pub use incremental::IncrementalEval;
pub use mcmm::{CornerReport, RobustMetrics, RobustObjective};
pub use opt::{
    AnnealConfig, AnnealedSizingPass, OptCtx, OptPass, OptSchedule, PassManager, PassReport,
    PassStats, PatternSearchConfig, PatternSearchPass, ScheduleReport,
};
pub use pattern::{BufferStage, Mode, Pattern, PatternEval, PatternSet};
pub use pipeline::{
    DsCts, EvalStage, InsertionStage, OptimizeStage, Outcome, PipelineCtx, RouteStage, Stage,
    StageTiming,
};
pub use resilience::{CancelToken, RecoveryPolicy, RecoveryStep, Relaxation, RunBudget};
pub use route::{HierarchicalRouter, RoutingStyle};
pub use sizing::SizingPass;
pub use skew::EndpointRefinePass;
pub use synth::{EvalModel, SynthesizedTree, TreeMetrics};
pub use tree::{ClockTopo, LeafStar, TrunkNode};

// Send + Sync hygiene: the service layer shares routed artifacts across a
// worker pool and hands pipelines/tokens between threads, so thread
// safety of these types is API contract, not accident. Assert it at
// compile time (the hand-rolled equivalent of `static_assertions`);
// losing an impl — e.g. by caching with `Rc` or a raw pointer inside
// `ClockTopo` — becomes a build error here instead of a distant
// type-inference error in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClockTopo>();
    assert_send_sync::<dscts_geom::TreeCsr>();
    assert_send_sync::<dscts_tech::Technology>();
    assert_send_sync::<dscts_tech::CornerSet>();
    assert_send_sync::<OptSchedule>();
    assert_send_sync::<SynthesizedTree>();
    assert_send_sync::<DsCts>();
    assert_send_sync::<CancelToken>();
    assert_send_sync::<CtsError>();
};

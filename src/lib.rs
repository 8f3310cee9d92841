//! **dscts** — systematic multi-objective double-side clock tree synthesis.
//!
//! A Rust implementation of *"A Systematic Approach for Multi-objective
//! Double-side Clock Tree Synthesis"* (Jiang et al., DAC 2025): clock trees
//! that use back-side metal layers through nano-TSVs, designed
//! *concurrently* (routing, buffers and nTSVs in one multi-objective
//! dynamic program) instead of flipping nets of a finished front-side tree.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `dscts-geom` | Manhattan geometry, tilted-rectangle regions |
//! | [`tech`] | `dscts-tech` | ASAP7-like PDK, buffer / nTSV / NLDM models |
//! | [`netlist`] | `dscts-netlist` | design DB, DEF/LEF subset, Table II benchmarks |
//! | [`timing`] | `dscts-timing` | L-type Elmore engine, slew, arrival stats |
//! | [`cluster`] | `dscts-cluster` | capacity-bounded k-means, dual-level hierarchy |
//! | [`dme`] | `dscts-dme` | zero-skew deferred-merge embedding |
//! | [`vanginneken`] | `dscts-buffer` | classic single-side buffer insertion |
//! | [`core`] | `dscts-core` | the staged CTS engine: stages, patterns, DP, the composable `opt` pass layer, the `mcmm` multi-corner subsystem, DSE, baselines, errors |
//! | [`learn`] | `dscts-learn` | learned DSE: feature extraction, pure-Rust ridge / GBDT regressors, model files |
//! | [`service`] | `dscts-service` | multi-tenant job service: route-once design cache, bounded worker pool, admission control, quarantine, graceful drain |
//! | [`telemetry`] | `dscts-telemetry` | zero-dependency observability: spans, metrics registry, JSON-lines export |
//!
//! The synthesis flow itself is a **staged engine**: [`DsCts`] executes
//! `route → insertion → optimize → evaluate`, where each phase is a
//! [`Stage`] over a shared [`PipelineCtx`] blackboard and is wall-clocked
//! individually into [`Outcome::stages`]. The optimize stage runs a
//! composable schedule of [`core::opt::OptPass`]es (by default the
//! paper's §III-D skew refinement; custom schedules plug in via
//! `DsCts::schedule`), reporting one `opt:<name>` timing per pass.
//! Unsatisfiable inputs surface as [`CtsError`] from [`DsCts::try_run`]
//! (the panicking [`DsCts::run`] wrapper remains for callers that treat
//! them as bugs). Routing and DP hot paths are rayon-parallel and
//! bit-identical at any thread count; set `RAYON_NUM_THREADS=1` to
//! reproduce the serial engine exactly.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use dscts::{BenchmarkSpec, DsCts, Technology};
//!
//! let design = BenchmarkSpec::c4_riscv32i().generate();
//! let outcome = DsCts::new(Technology::asap7()).run(&design);
//! println!("{}", outcome.metrics);
//! assert!(outcome.metrics.ntsvs > 0);
//! // Per-stage wall clock: route, insertion, optimize (plus its one
//! // default opt:endpoint-refine pass), evaluate.
//! assert_eq!(outcome.stages.len(), 5);
//! assert!(outcome.stage_seconds("opt:endpoint-refine").is_some());
//! ```
//!
//! Fallible embedding (services, sweeps) goes through [`DsCts::try_run`]:
//!
//! ```
//! use dscts::{BenchmarkSpec, CtsError, DsCts, Technology};
//!
//! let mut design = BenchmarkSpec::c4_riscv32i().generate();
//! design.sinks.clear();
//! let err = DsCts::new(Technology::asap7()).try_run(&design);
//! assert_eq!(err.unwrap_err(), CtsError::EmptyDesign);
//! ```
//!
//! # Multi-corner (MCMM) robust synthesis
//!
//! Expand the technology into PVT corners ([`CornerSet`]) and the same
//! pipeline — and any optimization schedule, custom passes included —
//! becomes corner-aware: the one incremental evaluator
//! ([`IncrementalEval::with_corners`]) keeps a resident state per corner,
//! repairs every corner on each trial move, and scores the worst one, so
//! the robust-sized tree holds up at SS instead of only at nominal. Here
//! a three-corner robust-sizing run (end-point refinement plus annealed
//! sizing, both corner-aware):
//!
//! ```
//! use dscts::core::opt::{AnnealConfig, AnnealedSizingPass};
//! use dscts::core::skew::SkewConfig;
//! use dscts::{BenchmarkSpec, CornerSet, DsCts, OptSchedule, Technology};
//!
//! let design = BenchmarkSpec::c4_riscv32i().generate();
//! let tech = Technology::asap7();
//! let outcome = DsCts::new(tech.clone())
//!     .corners(CornerSet::asap7_pvt(&tech)) // SS / TT / FF
//!     .schedule(
//!         OptSchedule::default_post_cts(SkewConfig::default())
//!             .with(AnnealedSizingPass::new(AnnealConfig {
//!                 moves: 1_500,
//!                 ..AnnealConfig::default()
//!             }))
//!             .seed(7),
//!     )
//!     .run(&design);
//! let report = outcome.corners.as_ref().expect("corner-aware run");
//! assert_eq!(report.corner_names, ["SS", "TT", "FF"]);
//! // The worst corner (SS) dominates the nominal view, and the spread
//! // across corners is the OCV proxy the robust objective controls:
//! assert!(report.robust.worst_latency_ps >= outcome.metrics.latency_ps);
//! assert!(report.robust.arrival_spread_ps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dscts_cluster as cluster;
pub use dscts_core as core;
pub use dscts_dme as dme;
pub use dscts_geom as geom;
pub use dscts_learn as learn;
pub use dscts_netlist as netlist;
pub use dscts_service as service;
pub use dscts_tech as tech;
pub use dscts_telemetry as telemetry;
pub use dscts_timing as timing;

/// Classic van Ginneken single-side buffer insertion (standalone library).
pub use dscts_buffer as vanginneken;

pub use dscts_core::{
    baseline, dse, mcmm, opt, resilience, skew, CancelToken, CornerReport, CtsError, DsCts,
    EvalModel, HierarchicalRouter, IncrementalEval, Mode, ModeRule, MoesWeights, OptSchedule,
    Outcome, Pattern, PatternSet, PipelineCtx, PruneMode, RecoveryPolicy, RecoveryStep, Relaxation,
    RobustMetrics, RobustObjective, RootCand, RoutingStyle, RunBudget, Stage, StageTiming,
    SynthesizedTree, TreeMetrics,
};
pub use dscts_netlist::{BenchmarkSpec, Design};
pub use dscts_tech::{
    BufferModel, Corner, CornerSet, DerateFactors, Layer, NtsvModel, Side, Technology, WireDerate,
};

//! The end-to-end double-side CTS pipeline (Fig. 4), as a staged engine.
//!
//! [`DsCts`] is the builder; a run executes a sequence of [`Stage`]s over
//! a shared [`PipelineCtx`] blackboard:
//!
//! | stage | name | reads | writes |
//! |-------|------|-------|--------|
//! | [`RouteStage`] | `route` | design, tech | `topo` (routed [`ClockTopo`](crate::ClockTopo)) |
//! | [`InsertionStage`] | `insertion` | `topo`, tech | `dp`, `tree` (side-validated) |
//! | [`OptimizeStage`] | `optimize` | `tree`, tech | `optimization`, `refinement` (optional stage) |
//! | [`EvalStage`] | `evaluate` | `tree`, tech | `metrics` |
//!
//! The optimize stage executes a configured [`OptSchedule`] through the
//! [`PassManager`] (see [`crate::opt`]): by default exactly one
//! [`EndpointRefinePass`] — reproducing the paper's §III-D refinement
//! loop bit-for-bit — and via [`DsCts::schedule`] any composition of
//! [`crate::opt::OptPass`]es (greedy or annealed sizing, pattern local
//! search, custom passes). Each pass's wall clock is folded into
//! [`Outcome::stages`] as an `opt:<name>` entry.
//!
//! Each stage is timed individually; [`Outcome::stages`] carries the
//! per-stage wall clock so regressions can be pinned to a phase instead
//! of a whole run. Data-dependent failures (no sinks, infeasible DP,
//! side-inconsistent tree) surface as [`CtsError`] from
//! [`DsCts::try_run`]; [`DsCts::run`] is a thin wrapper that panics with
//! the same message, preserving the original API.
//!
//! The hot paths behind the stages — per-cluster DME routing and
//! per-height DP candidate propagation — are parallelized with rayon and
//! produce bit-identical results at any thread count (order-preserving
//! reductions everywhere); `RAYON_NUM_THREADS=1` reproduces the serial
//! engine exactly. Configured with [`DsCts::single_side`], the same
//! pipeline produces the paper's "Our Buffered Clock Tree" front-side
//! flow.
//!
//! Besides [`DsCts::run`]/[`DsCts::try_run`] (which execute the whole
//! stage sequence), every stage can be **driven individually** —
//! [`DsCts::route`], [`DsCts::insert`] / [`DsCts::insert_with`],
//! [`DsCts::optimize_tree`], [`DsCts::evaluate_tree`] — so batch drivers
//! can amortize shared work across configurations. The batched DSE engine
//! ([`crate::dse::SweepEngine`]) routes a design once and then fans the
//! insertion + optimization + evaluation tail out over mode-equivalence
//! classes of the threshold sweep; the Table III regenerator shares one
//! routed topology between the double-side and front-side flows the same
//! way. Each staged method runs exactly the arithmetic its [`Stage`]
//! counterpart runs, so any composition of them is bit-identical to the
//! monolithic `run`.

use crate::dp::{
    try_run_dp, DpConfig, DpResult, DpSuffixCache, ModeRule, MoesWeights, PruneMode, RootCand,
};
use crate::error::CtsError;
use crate::incremental::IncrementalEval;
use crate::mcmm::{CornerReport, RobustObjective};
use crate::opt::{OptSchedule, PassManager, ScheduleReport};
use crate::pattern::{Mode, PatternSet};
use crate::resilience::{fault, CancelToken, RecoveryPolicy, RecoveryStep, Relaxation, RunBudget};
use crate::route::{HierarchicalRouter, RoutingStyle};
use crate::skew::{EndpointRefinePass, RefineReport, SkewConfig};
use crate::synth::{EvalModel, SynthesizedTree, TreeMetrics};
use crate::tree::ClockTopo;
use dscts_netlist::Design;
use dscts_tech::{CornerSet, Technology};
use dscts_telemetry as telemetry;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline builder. Defaults reproduce the paper's Table III "Ours"
/// configuration: `Hc = 3000`, `Lc = 30`, all-full insertion modes, MOES
/// weights (1, 10, 1), skew refinement at `p = 23 %`, `m = 33`.
#[derive(Debug, Clone)]
pub struct DsCts {
    tech: Technology,
    hc: usize,
    lc: usize,
    seed: u64,
    style: RoutingStyle,
    max_seg_len: i64,
    dp: DpConfig,
    skew: Option<SkewConfig>,
    schedule: Option<OptSchedule>,
    eval: EvalModel,
    /// MCMM: when set, the optimize stage fans every trial move out to
    /// all corners (scored by `robust`) and the outcome carries a
    /// [`CornerReport`]. Arc'd so cloning the pipeline into sweep workers
    /// shares the expanded per-corner technologies.
    corners: Option<Arc<CornerSet>>,
    robust: RobustObjective,
    /// Resilience: wall-clock/trial budget observed cooperatively by the
    /// stages (see [`DsCts::budget`]).
    budget: Option<RunBudget>,
    /// Resilience: deterministic retry ladder for data-dependent
    /// infeasibilities (see [`DsCts::recovery`]).
    recovery: Option<RecoveryPolicy>,
}

/// Wall-clock measurement of one pipeline stage (or one optimization
/// pass, reported as `opt:<name>`).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// The stage's [`Stage::name`], or `opt:<pass name>` for a pass of
    /// the optimize stage. Static for built-in stages, owned for
    /// dynamically named passes — no leaked strings either way.
    pub name: Cow<'static, str>,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
    /// Process-wide peak RSS (bytes) sampled when the stage finished,
    /// via [`crate::rss::peak_rss_bytes`]. Monotone non-decreasing
    /// across stages (it is a high-water mark); `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The synthesized (legal) double-side clock tree.
    pub tree: SynthesizedTree,
    /// Final metrics (after skew refinement when enabled).
    pub metrics: TreeMetrics,
    /// The DP's surviving root candidate set (Fig. 10 material).
    pub root_candidates: Vec<RootCand>,
    /// Index of the MOES-selected candidate.
    pub chosen: usize,
    /// Skew-refinement report, reconstructed from the optimize stage's
    /// [`EndpointRefinePass`] when the schedule ran one (the default
    /// schedule does) — kept so refinement-era callers read the same
    /// numbers they always did.
    pub refinement: Option<RefineReport>,
    /// Per-pass optimization report when the optimize stage ran.
    pub optimization: Option<ScheduleReport>,
    /// Per-corner metrics and the cross-corner robust summary of the
    /// final tree, present when the pipeline was configured with
    /// [`DsCts::corners`].
    pub corners: Option<CornerReport>,
    /// Per-stage wall-clock timings, in execution order; the optimize
    /// stage is followed by one `opt:<name>` entry per executed pass.
    pub stages: Vec<StageTiming>,
    /// Wall-clock runtime of the whole pipeline (seconds).
    pub runtime_s: f64,
    /// Process-wide peak RSS (bytes) at the end of the run, via
    /// [`crate::rss::peak_rss_bytes`]; `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
    /// Whether a [`RunBudget`] expired mid-run and the optimization
    /// schedule was truncated: the tree is valid and fully evaluated, but
    /// some scheduled passes were skipped or cut short. Always `false`
    /// without a budget.
    pub degraded: bool,
    /// The [`RecoveryPolicy`] relaxations this run needed, in ladder
    /// order. Empty when the first attempt succeeded (always, without a
    /// policy).
    pub recovery: Vec<RecoveryStep>,
}

impl Outcome {
    /// Wall-clock seconds of the named stage, when it ran.
    pub fn stage_seconds(&self, name: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.seconds)
    }
}

/// The shared blackboard a pipeline run threads through its stages.
///
/// Earlier stages deposit artifacts that later stages consume; a stage
/// that reaches for an artifact its predecessors did not produce is a
/// stage-ordering bug and panics (the engine constructs orders that
/// cannot do this). Data-dependent failures use [`CtsError`] instead.
#[derive(Debug)]
pub struct PipelineCtx<'a> {
    /// The design under synthesis.
    pub design: &'a Design,
    /// The target technology.
    pub tech: &'a Technology,
    /// Delay model for refinement and final metrics.
    pub eval: EvalModel,
    /// Routed clock topology (deposited by [`RouteStage`], consumed by
    /// [`InsertionStage`]).
    pub topo: Option<ClockTopo>,
    /// DP result (deposited by [`InsertionStage`]).
    pub dp: Option<DpResult>,
    /// Synthesized, side-validated tree (deposited by
    /// [`InsertionStage`], optimized in place by [`OptimizeStage`]).
    pub tree: Option<SynthesizedTree>,
    /// Skew-refinement report (deposited by [`OptimizeStage`] when its
    /// schedule ran an [`EndpointRefinePass`]).
    pub refinement: Option<RefineReport>,
    /// Per-pass optimization report (deposited by [`OptimizeStage`]).
    pub optimization: Option<ScheduleReport>,
    /// Final metrics (deposited by [`EvalStage`]).
    pub metrics: Option<TreeMetrics>,
    /// Per-corner metrics + robust summary (deposited by [`EvalStage`]
    /// when the pipeline carries a [`CornerSet`]).
    pub corner_report: Option<CornerReport>,
    /// Cooperative cancellation token for this run, when a [`RunBudget`]
    /// is configured. Stages check it at their boundary; long loops check
    /// it inside.
    pub cancel: Option<CancelToken>,
    /// Set by a stage that truncated work under cancellation (the
    /// optimize stage); folded into [`Outcome::degraded`].
    pub degraded: bool,
}

impl<'a> PipelineCtx<'a> {
    /// An empty blackboard over `design` and `tech`.
    pub fn new(design: &'a Design, tech: &'a Technology, eval: EvalModel) -> Self {
        PipelineCtx {
            design,
            tech,
            eval,
            topo: None,
            dp: None,
            tree: None,
            refinement: None,
            optimization: None,
            metrics: None,
            corner_report: None,
            cancel: None,
            degraded: false,
        }
    }

    /// The cancellation token, when the run is budgeted.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

/// One phase of the CTS engine, individually instrumented and
/// restartable over a [`PipelineCtx`].
pub trait Stage {
    /// Stable identifier used in [`StageTiming`] and logs.
    fn name(&self) -> &'static str;
    /// Executes the stage, reading and writing [`PipelineCtx`] artifacts.
    fn run(&self, ctx: &mut PipelineCtx<'_>) -> Result<(), CtsError>;
}

/// Hierarchical clock routing (§III-B): dual-level clustering, parallel
/// per-cluster DME, trunk subdivision to the DP granularity.
#[derive(Debug, Clone)]
pub struct RouteStage {
    hc: usize,
    lc: usize,
    seed: u64,
    style: RoutingStyle,
    max_seg_len: i64,
}

impl Stage for RouteStage {
    fn name(&self) -> &'static str {
        "route"
    }

    fn run(&self, ctx: &mut PipelineCtx<'_>) -> Result<(), CtsError> {
        if let Some(cancel) = &ctx.cancel {
            cancel.check(self.name())?;
        }
        let mut topo = HierarchicalRouter::new()
            .hc(self.hc)
            .lc(self.lc)
            .seed(self.seed)
            .style(self.style)
            .try_route(ctx.design, ctx.tech)?;
        topo.subdivide(self.max_seg_len);
        ctx.topo = Some(topo);
        Ok(())
    }
}

/// Concurrent buffer & nTSV insertion (§III-C): the multi-objective DP
/// plus construction and side-validation of the synthesized tree.
#[derive(Debug, Clone)]
pub struct InsertionStage {
    dp: DpConfig,
}

impl Stage for InsertionStage {
    fn name(&self) -> &'static str {
        "insertion"
    }

    fn run(&self, ctx: &mut PipelineCtx<'_>) -> Result<(), CtsError> {
        if let Some(cancel) = &ctx.cancel {
            cancel.check(self.name())?;
        }
        // invariant: the engine only runs insertion after route.
        let topo = ctx.topo.take().expect("route stage deposits the topology");
        // The suffix cache is dropped here, before the tree is built, so
        // the candidate arena does not raise the run's peak memory.
        let (dp, _) = try_run_dp(&topo, ctx.tech, &self.dp, None, ctx.cancel.as_ref(), None)?;
        ctx.tree = Some(synthesize(topo, &dp)?);
        ctx.dp = Some(dp);
        Ok(())
    }
}

/// The insertion stage after the DP: tree construction and the legality
/// gate. Shared by [`InsertionStage`] and [`DsCts::insert_with`] so every
/// path runs the identical arithmetic.
fn synthesize(topo: ClockTopo, dp: &DpResult) -> Result<SynthesizedTree, CtsError> {
    fault::fault_check(fault::SITE_SYNTH)?;
    let tree = SynthesizedTree::new(topo, dp.assignment.clone());
    // Always-on legality gate: the seed only checked sides under
    // debug_assert, silently skipping it in release builds.
    tree.validate_sides().map_err(CtsError::IllegalSides)?;
    Ok(tree)
}

/// Post-CTS optimization (§III-D and beyond): executes a configured
/// [`OptSchedule`] over one resident incremental evaluator. Optional:
/// present only when [`DsCts::schedule`] or [`DsCts::skew_refinement`]
/// configures at least one pass. The default schedule is a single
/// [`EndpointRefinePass`], bit-identical to the pre-pass-API refine
/// stage.
#[derive(Debug, Clone)]
pub struct OptimizeStage {
    schedule: OptSchedule,
    /// MCMM: fan every trial move out to these corners, scoring through
    /// the objective (see [`DsCts::corners`]).
    corners: Option<(Arc<CornerSet>, RobustObjective)>,
}

impl OptimizeStage {
    /// A stage executing `schedule` over the single (nominal) corner.
    pub fn new(schedule: OptSchedule) -> Self {
        OptimizeStage {
            schedule,
            corners: None,
        }
    }

    /// A stage executing `schedule` over every corner of `corners`,
    /// scored through `objective` (see
    /// [`IncrementalEval::with_corners`]).
    pub fn new_corners(
        schedule: OptSchedule,
        corners: Arc<CornerSet>,
        objective: RobustObjective,
    ) -> Self {
        OptimizeStage {
            schedule,
            corners: Some((corners, objective)),
        }
    }

    /// Reconstructs the [`RefineReport`] from a schedule run, when the
    /// schedule included an [`EndpointRefinePass`]: the pass's trigger
    /// flag, added-buffer count and surrounding metrics, exact for the
    /// default single-refine schedule. When a custom schedule runs
    /// several refine passes, the **last** one is reported
    /// (the closest to the final tree); its `after` still predates any
    /// later non-refine passes. Matching is by pass name —
    /// [`EndpointRefinePass::NAME`] is reserved for the built-in pass.
    fn refine_report(report: &ScheduleReport) -> Option<RefineReport> {
        report
            .passes
            .iter()
            .rev()
            .find(|p| p.name == EndpointRefinePass::NAME)
            .map(|p| RefineReport {
                triggered: p.triggered,
                buffers_added: p.accepted,
                before: p.before.clone(),
                after: p.after.clone(),
            })
    }
}

impl Stage for OptimizeStage {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn run(&self, ctx: &mut PipelineCtx<'_>) -> Result<(), CtsError> {
        // invariant: the engine only runs optimize after insertion.
        let tree = ctx
            .tree
            .as_mut()
            .expect("insertion stage deposits the tree");
        let corners = self.corners.as_ref().map(|(c, o)| (&**c, *o));
        let eval = schedule_eval(tree, ctx.tech, corners, ctx.eval)?;
        let report = PassManager::new(&self.schedule).run(eval, ctx.cancel.as_ref());
        // A truncated schedule is the *degraded but valid* outcome the
        // budget promises: skip the rest, still evaluate, flag it.
        ctx.degraded |= report.truncated;
        ctx.refinement = Self::refine_report(&report);
        ctx.optimization = Some(report);
        Ok(())
    }
}

/// Final metric extraction under the configured delay model — plus, for
/// a corner-aware pipeline, one batch evaluation per corner folded into
/// the [`CornerReport`].
#[derive(Debug, Clone, Default)]
pub struct EvalStage {
    corners: Option<Arc<CornerSet>>,
}

impl Stage for EvalStage {
    fn name(&self) -> &'static str {
        "evaluate"
    }

    fn run(&self, ctx: &mut PipelineCtx<'_>) -> Result<(), CtsError> {
        // No cancellation check: evaluation is cheap and always runs, so a
        // budget-truncated run still yields a fully-measured outcome.
        fault::fault_check(fault::SITE_EVAL)?;
        // invariant: the engine only runs evaluate after insertion.
        let tree = ctx
            .tree
            .as_ref()
            .expect("insertion stage deposits the tree");
        ctx.metrics = Some(tree.evaluate(ctx.tech, ctx.eval));
        if let Some(corners) = &self.corners {
            ctx.corner_report = Some(CornerReport::try_evaluate(tree, corners, ctx.eval)?);
        }
        Ok(())
    }
}

/// The evaluator an optimize schedule runs over: `tech` alone, or every
/// corner of `corners` scored through its objective. A corner that makes
/// the tree electrically infeasible is the typed
/// [`CtsError::NoFeasiblePattern`] the recovery ladder retries.
fn schedule_eval<'t>(
    tree: &'t mut SynthesizedTree,
    tech: &'t Technology,
    corners: Option<(&'t CornerSet, RobustObjective)>,
    model: EvalModel,
) -> Result<IncrementalEval<'t>, CtsError> {
    match corners {
        Some((corners, objective)) => {
            IncrementalEval::with_corners(tree, corners, model, objective)
        }
        None => Ok(IncrementalEval::new(tree, tech, model)),
    }
}

impl DsCts {
    /// A pipeline over `tech` with the paper's default parameters.
    pub fn new(tech: Technology) -> Self {
        DsCts {
            tech,
            hc: 3000,
            lc: 30,
            seed: 7,
            style: RoutingStyle::Hierarchical,
            max_seg_len: 40_000,
            dp: DpConfig::default(),
            skew: Some(SkewConfig::default()),
            schedule: None,
            eval: EvalModel::Elmore,
            corners: None,
            robust: RobustObjective::default(),
            budget: None,
            recovery: None,
        }
    }

    /// High-level cluster size bound `Hc`.
    pub fn hc(mut self, hc: usize) -> Self {
        self.hc = hc;
        self
    }

    /// Low-level cluster size bound `Lc`.
    pub fn lc(mut self, lc: usize) -> Self {
        self.lc = lc;
        self
    }

    /// Clustering seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trunk routing style (hierarchical vs flat matching).
    pub fn routing_style(mut self, style: RoutingStyle) -> Self {
        self.style = style;
        self
    }

    /// DP segmentation granularity (nm).
    pub fn max_segment(mut self, nm: i64) -> Self {
        assert!(nm > 0);
        self.max_seg_len = nm;
        self
    }

    /// Insertion-mode rule (the DSE knob).
    pub fn mode_rule(mut self, rule: ModeRule) -> Self {
        self.dp.mode_rule = rule;
        self
    }

    /// MOES weights (Eq. 3).
    pub fn moes(mut self, weights: MoesWeights) -> Self {
        self.dp.moes = weights;
        self
    }

    /// Pruning discipline.
    pub fn prune(mut self, mode: PruneMode) -> Self {
        self.dp.prune = mode;
        self
    }

    /// Pattern alphabet.
    pub fn patterns(mut self, set: PatternSet) -> Self {
        self.dp.patterns = set;
        self
    }

    /// Candidate cap per DP node.
    pub fn max_candidates(mut self, k: usize) -> Self {
        assert!(k >= 2);
        self.dp.max_cands = k;
        self
    }

    /// Restrict the flow to the front side ("Our Buffered Clock Tree").
    pub fn single_side(mut self, on: bool) -> Self {
        self.dp.single_side = on;
        self
    }

    /// Configure (or disable with `None`) the default skew-refinement
    /// schedule. Ignored when a custom [`DsCts::schedule`] is set.
    pub fn skew_refinement(mut self, cfg: Option<SkewConfig>) -> Self {
        self.skew = cfg;
        self
    }

    /// Replaces the optimize stage's pass schedule. An empty schedule
    /// drops the stage entirely (like `skew_refinement(None)`); a custom
    /// schedule takes precedence over the [`DsCts::skew_refinement`]
    /// default. Swept points of [`crate::dse::SweepEngine`] are scored
    /// through the same schedule.
    pub fn schedule(mut self, schedule: OptSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Delay model for final metrics.
    pub fn eval_model(mut self, model: EvalModel) -> Self {
        self.eval = model;
        self
    }

    /// Enables MCMM: the optimize stage runs its schedule over one
    /// resident corner-aware evaluator (every trial move repaired in all
    /// of `corners`, scored by the configured
    /// [`DsCts::robust_objective`]), and [`Outcome::corners`] reports
    /// per-corner metrics plus the cross-corner robust summary of the
    /// final tree. [`Outcome::metrics`] stays the pipeline technology's
    /// nominal view, so corner-aware and nominal runs compare like for
    /// like. The corner set should be expanded from this pipeline's
    /// technology ([`dscts_tech::CornerSet::expand`]). A tree that is
    /// electrically infeasible at some corner fails the run with
    /// [`CtsError::NoFeasiblePattern`], which [`DsCts::recovery`] retries.
    pub fn corners(mut self, corners: CornerSet) -> Self {
        self.corners = Some(Arc::new(corners));
        self
    }

    /// The cross-corner objective a corner-aware optimize stage scores
    /// with (default: [`RobustObjective::WorstCorner`]). Ignored until
    /// [`DsCts::corners`] is set.
    pub fn robust_objective(mut self, objective: RobustObjective) -> Self {
        self.robust = objective;
        self
    }

    /// Attaches a [`RunBudget`]: the run checks the minted
    /// [`CancelToken`] at stage boundaries and inside the long loops.
    /// Cancellation before the tree exists aborts with
    /// [`CtsError::Cancelled`]; cancellation during optimization
    /// truncates the schedule and the run completes with
    /// [`Outcome::degraded`] set. An unlimited budget (the default when
    /// this is never called) changes nothing.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = (!budget.is_unlimited()).then_some(budget);
        self
    }

    /// Attaches a [`RecoveryPolicy`]: on a recoverable error
    /// ([`CtsError::NoFeasiblePattern`], [`CtsError::NoRootCandidate`],
    /// [`CtsError::IllegalSides`]) the run deterministically retries with
    /// the ladder's relaxations applied cumulatively, recording each rung
    /// in [`Outcome::recovery`]. Without a policy (the default) the first
    /// error is returned as before.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// The technology this pipeline targets.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The configured run budget, when one is set.
    pub fn run_budget(&self) -> Option<&RunBudget> {
        self.budget.as_ref()
    }

    /// The configured recovery policy, when one is set.
    pub fn recovery_policy(&self) -> Option<&RecoveryPolicy> {
        self.recovery.as_ref()
    }

    /// The DP configuration this pipeline will run.
    pub fn dp_config(&self) -> &DpConfig {
        &self.dp
    }

    /// The skew-refinement configuration (`None` when the stage is
    /// disabled).
    pub fn skew_config(&self) -> Option<SkewConfig> {
        self.skew
    }

    /// The custom pass schedule, when one was set.
    pub fn custom_schedule(&self) -> Option<&OptSchedule> {
        self.schedule.as_ref()
    }

    /// The schedule the optimize stage will actually run: the custom
    /// schedule when set (`None` if it is empty), else the default
    /// single-[`EndpointRefinePass`] schedule derived from
    /// [`DsCts::skew_refinement`], else `None` (stage dropped).
    pub fn effective_schedule(&self) -> Option<OptSchedule> {
        match &self.schedule {
            Some(s) => (!s.is_empty()).then(|| s.clone()),
            None => self.skew.map(OptSchedule::default_post_cts),
        }
    }

    /// The delay model final metrics and refinement use.
    pub fn delay_model(&self) -> EvalModel {
        self.eval
    }

    /// The configured corner set, when the pipeline is corner-aware.
    pub fn corner_set(&self) -> Option<&CornerSet> {
        self.corners.as_deref()
    }

    /// The configured cross-corner objective.
    pub fn robust_config(&self) -> RobustObjective {
        self.robust
    }

    // ---- Staged drivers. ----
    //
    // Each method below executes exactly one stage's arithmetic, so any
    // composition is bit-identical to `run`. Batch drivers use them to
    // amortize shared work: the DSE engine routes once per design, the
    // Table III regenerator shares a routed topology between flows.

    /// Runs only the routing stage, returning the routed (and subdivided)
    /// topology. Identical to what [`DsCts::run`] deposits after its first
    /// stage.
    pub fn route(&self, design: &Design) -> Result<ClockTopo, CtsError> {
        let mut ctx = PipelineCtx::new(design, &self.tech, self.eval);
        self.route_stage().run(&mut ctx)?;
        // invariant: RouteStage::run deposits topo on every Ok return.
        Ok(ctx.topo.expect("route stage deposits the topology"))
    }

    /// Runs only the insertion stage on a pre-routed topology: the DP
    /// under this pipeline's configuration, tree construction and the
    /// side-legality gate.
    pub fn insert(&self, topo: ClockTopo) -> Result<(SynthesizedTree, DpResult), CtsError> {
        self.insert_with(topo, None, None, None)
            .map(|(tree, dp, _)| (tree, dp))
    }

    /// [`DsCts::insert`] with a precomputed per-node [`Mode`] vector,
    /// ignoring the configured [`ModeRule`].
    pub fn insert_with_modes(
        &self,
        topo: ClockTopo,
        modes: &[Mode],
    ) -> Result<(SynthesizedTree, DpResult), CtsError> {
        self.insert_with(topo, Some(modes), None, None)
            .map(|(tree, dp, _)| (tree, dp))
    }

    /// The general insertion driver: [`DsCts::insert`] with an optional
    /// per-node [`Mode`] vector (overriding the configured [`ModeRule`]),
    /// an external [`CancelToken`] the DP checkpoints between height
    /// groups (reporting [`CtsError::Cancelled`] once it trips), and an
    /// earlier run's [`DpSuffixCache`] to copy mode-identical subtrees
    /// from. Also returns this run's own cache. With `None` everywhere the
    /// result is bit-identical to [`DsCts::insert`]; see [`try_run_dp`].
    ///
    /// The batched DSE engine scores the fullest-mode class first and
    /// lends its cache to every other class of the same routed design;
    /// service jobs pass their token so deadlines reach the insertion hot
    /// loop, not just stage boundaries.
    pub fn insert_with(
        &self,
        topo: ClockTopo,
        modes: Option<&[Mode]>,
        cancel: Option<&CancelToken>,
        reuse: Option<&DpSuffixCache>,
    ) -> Result<(SynthesizedTree, DpResult, DpSuffixCache), CtsError> {
        let (dp, cache) = try_run_dp(&topo, &self.tech, &self.dp, modes, cancel, reuse)?;
        Ok((synthesize(topo, &dp)?, dp, cache))
    }

    /// Runs only the optimize stage on a synthesized tree, in place:
    /// exactly the configured [`DsCts::effective_schedule`] — over the
    /// configured corners when the pipeline is corner-aware — so any
    /// composition with the other staged drivers is bit-identical to
    /// [`DsCts::run`]. Returns `None` (doing nothing) when no pass is
    /// scheduled, mirroring the optional [`OptimizeStage`].
    ///
    /// # Panics
    ///
    /// Panics with the [`CtsError`] display text when a configured corner
    /// makes the tree electrically infeasible;
    /// [`DsCts::optimize_tree_cancel`] returns that error instead.
    pub fn optimize_tree(&self, tree: &mut SynthesizedTree) -> Option<ScheduleReport> {
        self.optimize_tree_cancel(tree, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DsCts::optimize_tree`] observing an external [`CancelToken`]:
    /// once the token trips, the schedule *truncates* — remaining passes
    /// are skipped, [`ScheduleReport::truncated`] is set, and the tree is
    /// left in the valid state the last completed checkpoint produced.
    /// With `None` (or an untripped token) the result is bit-identical to
    /// [`DsCts::optimize_tree`]. This is the checkpoint that lets sweep
    /// classes and service jobs degrade mid-optimization instead of
    /// overshooting their deadline by a whole schedule.
    ///
    /// Returns [`CtsError::NoFeasiblePattern`], leaving the tree
    /// untouched, when a configured corner makes the tree electrically
    /// infeasible.
    pub fn optimize_tree_cancel(
        &self,
        tree: &mut SynthesizedTree,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<ScheduleReport>, CtsError> {
        let Some(schedule) = self.effective_schedule() else {
            return Ok(None);
        };
        let corners = self.corners.as_deref().map(|c| (c, self.robust));
        let eval = schedule_eval(tree, &self.tech, corners, self.eval)?;
        Ok(Some(PassManager::new(&schedule).run(eval, cancel)))
    }

    /// Runs only the evaluation stage: final metrics under the configured
    /// delay model.
    pub fn evaluate_tree(&self, tree: &SynthesizedTree) -> TreeMetrics {
        tree.evaluate(&self.tech, self.eval)
    }

    /// The routing stage this configuration runs — the single place its
    /// fields are copied out, shared by [`DsCts::stages`] and
    /// [`DsCts::route`] so the staged driver cannot drift from `run`.
    fn route_stage(&self) -> RouteStage {
        RouteStage {
            hc: self.hc,
            lc: self.lc,
            seed: self.seed,
            style: self.style,
            max_seg_len: self.max_seg_len,
        }
    }

    /// The stage sequence this configuration will execute, in order.
    pub fn stages(&self) -> Vec<Box<dyn Stage>> {
        let mut stages: Vec<Box<dyn Stage>> = vec![
            Box::new(self.route_stage()),
            Box::new(InsertionStage {
                dp: self.dp.clone(),
            }),
        ];
        if let Some(schedule) = self.effective_schedule() {
            stages.push(Box::new(match &self.corners {
                Some(corners) => {
                    OptimizeStage::new_corners(schedule, Arc::clone(corners), self.robust)
                }
                None => OptimizeStage::new(schedule),
            }));
        }
        stages.push(Box::new(EvalStage {
            corners: self.corners.clone(),
        }));
        stages
    }

    /// Runs the full pipeline on `design`, timing each stage.
    ///
    /// Returns [`CtsError`] when the design is unroutable (no sinks), the
    /// DP is infeasible under the configured constraints, or the
    /// synthesized tree fails side validation. With a [`DsCts::budget`],
    /// an expired deadline inside route/insertion reports
    /// [`CtsError::Cancelled`] while later expiry degrades the outcome
    /// instead; with a [`DsCts::recovery`] policy, recoverable errors are
    /// deterministically retried down the relaxation ladder. A panic
    /// escaping any stage is caught at the stage boundary and reported as
    /// [`CtsError::Internal`].
    pub fn try_run(&self, design: &Design) -> Result<Outcome, CtsError> {
        // One token for the whole run: recovery retries share the same
        // deadline/trial budget instead of resetting it per attempt.
        let token = self.budget.as_ref().map(RunBudget::token);
        let first = self.try_run_once(design, token.as_ref());
        let err = match first {
            Ok(outcome) => return Ok(outcome),
            Err(err) => err,
        };
        let Some(policy) = &self.recovery else {
            return Err(err);
        };
        if !RecoveryPolicy::recoverable(&err) {
            return Err(err);
        }
        // Deterministic ladder: apply each relaxation cumulatively and
        // retry the whole stage sequence; record every rung taken.
        let mut steps = Vec::new();
        let mut relaxed = self.clone();
        let mut last_err = err;
        for &rung in policy.ladder() {
            // Rung counters ("pipeline.recovery.<rung>") make ladder
            // climbs visible in the metrics snapshot without parsing
            // per-outcome recovery vectors.
            if let Some(tel) = telemetry::active() {
                tel.counter(&format!("pipeline.recovery.{}", rung.label()))
                    .incr();
            }
            steps.push(RecoveryStep {
                error: last_err.clone(),
                relaxation: rung,
            });
            relaxed = relaxed.with_relaxation(rung);
            match relaxed.try_run_once(design, token.as_ref()) {
                Ok(mut outcome) => {
                    outcome.recovery = steps;
                    return Ok(outcome);
                }
                Err(e) if RecoveryPolicy::recoverable(&e) => last_err = e,
                // Cancellation/internal errors end the ladder immediately:
                // more relaxations cannot help.
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// One [`Relaxation`] rung applied to this configuration — the same
    /// transformation [`DsCts::try_run`]'s recovery ladder applies
    /// internally, public so external retry drivers (the service layer's
    /// per-job ladder) relax a pipeline exactly the way the built-in
    /// ladder would.
    pub fn with_relaxation(mut self, rung: Relaxation) -> Self {
        match rung {
            Relaxation::WidenPatternSet => self.dp.patterns = PatternSet::Extended,
            Relaxation::RaiseMaxCandidates(k) => {
                self.dp.max_cands = self.dp.max_cands.saturating_mul(k as usize);
            }
            Relaxation::SingleSide => self.dp.single_side = true,
        }
        self
    }

    /// One full stage-sequence attempt: the pre-resilience `try_run`
    /// body, plus the cancellation token on the blackboard and a
    /// `catch_unwind` isolation boundary around every stage (the vendored
    /// rayon shim re-raises worker panics on the joining thread, so this
    /// boundary also catches panics from parallel sections).
    fn try_run_once(
        &self,
        design: &Design,
        cancel: Option<&CancelToken>,
    ) -> Result<Outcome, CtsError> {
        let start = Instant::now();
        let mut ctx = PipelineCtx::new(design, &self.tech, self.eval);
        ctx.cancel = cancel.cloned();
        let mut timings = Vec::new();
        for stage in self.stages() {
            let deposited_before = ctx.optimization.is_some();
            let t0 = Instant::now();
            catch_unwind(AssertUnwindSafe(|| stage.run(&mut ctx))).unwrap_or_else(|payload| {
                telemetry::count("pipeline.panics_caught", 1);
                Err(CtsError::Internal {
                    stage: stage.name(),
                    payload: crate::resilience::panic_message(payload.as_ref()),
                })
            })?;
            let seconds = t0.elapsed().as_secs_f64();
            // Stage spans share the already-taken wall clock instead of
            // re-measuring, so instrumented timings equal Outcome's.
            if let Some(tel) = telemetry::active() {
                tel.record_duration(&format!("span.{}", stage.name()), seconds);
            }
            timings.push(StageTiming {
                name: Cow::Borrowed(stage.name()),
                seconds,
                peak_rss_bytes: crate::rss::peak_rss_bytes(),
            });
            if !deposited_before {
                // Whichever stage just deposited the schedule report gets
                // its per-pass wall clocks folded in right behind it, as
                // `opt:<name>` entries.
                if let Some(report) = &ctx.optimization {
                    // Per-pass rows inherit the optimize stage's sample:
                    // the passes already finished, so the stage-end
                    // high-water mark covers all of them.
                    let stage_peak = timings.last().and_then(|t| t.peak_rss_bytes);
                    timings.extend(report.passes.iter().map(|p| StageTiming {
                        name: Cow::Owned(format!("opt:{}", p.name)),
                        seconds: p.seconds,
                        peak_rss_bytes: stage_peak,
                    }));
                }
            }
        }
        if let Some(tel) = telemetry::active() {
            tel.counter("pipeline.runs").incr();
            if ctx.degraded {
                tel.counter("pipeline.degraded").incr();
            }
            if let Some(rss) = crate::rss::peak_rss_bytes() {
                tel.gauge("process.peak_rss_bytes").max(rss as i64);
            }
        }
        // invariant: the stage sequence always contains insertion and
        // evaluate, and every stage returned Ok above.
        let dp = ctx.dp.expect("insertion stage ran");
        Ok(Outcome {
            tree: ctx.tree.expect("insertion stage ran"),
            metrics: ctx.metrics.expect("evaluation stage ran"),
            root_candidates: dp.root_candidates,
            chosen: dp.chosen,
            refinement: ctx.refinement,
            optimization: ctx.optimization,
            corners: ctx.corner_report,
            stages: timings,
            runtime_s: start.elapsed().as_secs_f64(),
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            degraded: ctx.degraded,
            recovery: Vec::new(),
        })
    }

    /// Runs the full pipeline on `design`.
    ///
    /// Thin panicking wrapper over [`DsCts::try_run`].
    ///
    /// # Panics
    ///
    /// Panics with the [`CtsError`] display text if the design has no
    /// sinks or the DP finds no feasible solution under the configured
    /// constraints.
    pub fn run(&self, design: &Design) -> Outcome {
        match self.try_run(design) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Test-only serialization of process-global environment mutation.
///
/// The vendored rayon shim re-reads `RAYON_NUM_THREADS` on every parallel
/// call, so a test that flips it in-process would race any concurrently
/// scheduled test that also pins (or reads) it. Every test in this crate
/// that mutates an environment variable must do so through
/// [`test_env::ScopedEnv`], which holds the shared mutex for the whole
/// mutation window and restores the previous value on drop — even on
/// panic — so no other pin-holding test can ever observe the temporary
/// value.
#[cfg(test)]
pub(crate) mod test_env {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// An exclusive, self-restoring pin of one environment variable.
    pub(crate) struct ScopedEnv {
        key: &'static str,
        previous: Option<String>,
        _guard: MutexGuard<'static, ()>,
    }

    impl ScopedEnv {
        /// Locks the shared env mutex and snapshots `key`'s value.
        pub(crate) fn pin(key: &'static str) -> Self {
            // A panic while holding the lock poisons it; the variable was
            // still restored by Drop, so the lock state stays valid.
            let guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            ScopedEnv {
                key,
                previous: std::env::var(key).ok(),
                _guard: guard,
            }
        }

        /// Sets the pinned variable (the pin keeps the lock held).
        pub(crate) fn set(&self, value: &str) {
            std::env::set_var(self.key, value);
        }
    }

    impl Drop for ScopedEnv {
        fn drop(&mut self) {
            match &self.previous {
                Some(v) => std::env::set_var(self.key, v),
                None => std::env::remove_var(self.key),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_netlist::BenchmarkSpec;

    fn run(single: bool) -> Outcome {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        DsCts::new(Technology::asap7()).single_side(single).run(&d)
    }

    #[test]
    fn full_pipeline_double_side() {
        let o = run(false);
        assert_eq!(o.tree.validate_sides(), Ok(()));
        assert!(o.metrics.ntsvs > 0);
        assert!(o.metrics.latency_ps > 0.0);
        assert!(o.runtime_s > 0.0);
    }

    #[test]
    fn single_side_flow_has_no_ntsvs() {
        let o = run(true);
        assert_eq!(o.metrics.ntsvs, 0);
    }

    #[test]
    fn double_side_beats_single_side() {
        let (ds, ss) = (run(false), run(true));
        assert!(
            ds.metrics.latency_ps < ss.metrics.latency_ps,
            "double-side {} vs single-side {}",
            ds.metrics.latency_ps,
            ss.metrics.latency_ps
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = run(false);
        let b = run(false);
        assert_eq!(a.metrics.latency_ps, b.metrics.latency_ps);
        assert_eq!(a.metrics.buffers, b.metrics.buffers);
        assert_eq!(a.metrics.ntsvs, b.metrics.ntsvs);
        assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn pipeline_is_thread_count_invariant() {
        // The parallel engine must be bit-identical to serial execution:
        // same tree, same metrics, to the last ulp. The rayon shim
        // re-reads RAYON_NUM_THREADS on every parallel call, so flipping
        // it between runs flips the engine's thread count in-process —
        // and would race any concurrently scheduled test. ScopedEnv holds
        // the shared env mutex for the whole window and restores the
        // caller's pin (e.g. CI's RAYON_NUM_THREADS=1 run) on drop, even
        // if an assertion below panics.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let env = super::test_env::ScopedEnv::pin("RAYON_NUM_THREADS");
        env.set("1");
        let serial = DsCts::new(Technology::asap7()).run(&d);
        env.set("4");
        let parallel = DsCts::new(Technology::asap7()).run(&d);
        drop(env);
        assert_eq!(serial.metrics, parallel.metrics);
        assert_eq!(serial.tree, parallel.tree);
        assert_eq!(serial.root_candidates, parallel.root_candidates);
        assert_eq!(serial.chosen, parallel.chosen);
    }

    #[test]
    fn staged_drivers_compose_to_run() {
        // route + insert + optimize_tree + evaluate_tree must be
        // bit-identical to the monolithic run — the invariant the batched
        // DSE engine and the Table III regenerator rely on.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let pipe = DsCts::new(Technology::asap7());
        let whole = pipe.run(&d);
        let topo = pipe.route(&d).expect("routable");
        let (mut tree, dp) = pipe.insert(topo).expect("feasible");
        let optimization = pipe.optimize_tree(&mut tree).expect("default schedule");
        let metrics = pipe.evaluate_tree(&tree);
        assert_eq!(whole.tree, tree);
        assert_eq!(whole.metrics, metrics);
        assert_eq!(whole.root_candidates, dp.root_candidates);
        assert_eq!(whole.chosen, dp.chosen);
        // Outcome::refinement is the default schedule's refine pass.
        assert_eq!(
            whole.refinement,
            OptimizeStage::refine_report(&optimization)
        );
        assert!(whole.refinement.is_some());
        let whole_opt = whole.optimization.expect("default schedule ran");
        assert_eq!(whole_opt.before, optimization.before);
        assert_eq!(whole_opt.after, optimization.after);
    }

    #[test]
    fn legacy_refine_tree_matches_default_schedule() {
        // Refinement alone, driven by hand over an evaluator of the
        // inserted tree, is the same arithmetic the default schedule runs:
        // the tree stays bit-identical to `run`, and Outcome::refinement
        // is exactly what the refine pass reports.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let pipe = DsCts::new(Technology::asap7());
        let whole = pipe.run(&d);
        let topo = pipe.route(&d).expect("routable");
        let (mut tree, _dp) = pipe.insert(topo).expect("feasible");
        let mut eval = IncrementalEval::new(&mut tree, &pipe.tech, pipe.eval);
        let before = eval.metrics();
        let stats = EndpointRefinePass::new(SkewConfig::default()).run_on(&mut eval, None);
        eval.commit();
        let refinement = RefineReport {
            triggered: stats.triggered,
            buffers_added: stats.accepted,
            before,
            after: eval.metrics(),
        };
        drop(eval);
        assert_eq!(whole.tree, tree);
        assert_eq!(whole.refinement, Some(refinement));
    }

    #[test]
    fn explicit_default_schedule_is_bit_identical() {
        // Spelling the default schedule out via the builder must change
        // nothing: schedule(default_post_cts(cfg)) == skew_refinement(cfg).
        use crate::opt::OptSchedule;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let implicit = DsCts::new(Technology::asap7()).run(&d);
        let explicit = DsCts::new(Technology::asap7())
            .schedule(OptSchedule::default_post_cts(SkewConfig::default()))
            .run(&d);
        assert_eq!(implicit.tree, explicit.tree);
        assert_eq!(implicit.metrics, explicit.metrics);
        assert_eq!(implicit.refinement, explicit.refinement);
    }

    #[test]
    fn custom_schedule_runs_and_reports_passes() {
        use crate::opt::{AnnealedSizingPass, OptSchedule};
        use crate::sizing::SizingPass;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7())
            .schedule(
                OptSchedule::new()
                    .with(SizingPass::default())
                    .with(EndpointRefinePass::default())
                    .with(AnnealedSizingPass::default()),
            )
            .run(&d);
        let report = o.optimization.as_ref().expect("schedule ran");
        assert_eq!(report.passes.len(), 3);
        assert_eq!(report.after, o.metrics);
        // Per-pass wall clocks folded into the stage timings.
        for name in ["opt:sizing", "opt:endpoint-refine", "opt:annealed-sizing"] {
            assert!(o.stage_seconds(name).is_some(), "missing timing {name}");
        }
        // The refine-compat report comes from the scheduled pass.
        let refinement = o.refinement.expect("schedule includes refine");
        assert_eq!(refinement.buffers_added, report.passes[1].accepted);
        assert_eq!(o.tree.validate_sides(), Ok(()));
    }

    #[test]
    fn empty_custom_schedule_drops_the_stage() {
        use crate::opt::OptSchedule;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7())
            .schedule(OptSchedule::new())
            .run(&d);
        assert!(o.stage_seconds("optimize").is_none());
        assert!(o.optimization.is_none());
        assert!(o.refinement.is_none());
        assert_eq!(o.stages.len(), 3);
    }

    #[test]
    fn insert_with_modes_overrides_configured_rule() {
        use crate::dp::{mode_vector, ModeRule};
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let pipe = DsCts::new(Technology::asap7());
        let topo = pipe.route(&d).expect("routable");
        let modes = mode_vector(&topo, ModeRule::AllIntraSide);
        let (tree, _) = pipe.insert_with_modes(topo, &modes).expect("feasible");
        // The config says AllFull, the vector says AllIntraSide; the
        // vector wins.
        assert_eq!(pipe.dp_config().mode_rule, ModeRule::AllFull);
        assert_eq!(tree.inserted_ntsvs(), 0);
    }

    #[test]
    fn outcome_reports_per_stage_timings() {
        let o = run(false);
        let names: Vec<&str> = o.stages.iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            [
                "route",
                "insertion",
                "optimize",
                "opt:endpoint-refine",
                "evaluate"
            ]
        );
        assert!(o.stages.iter().all(|s| s.seconds >= 0.0));
        // Proper stage wall clocks are disjoint slices of the total
        // runtime; `opt:` entries are nested inside the optimize stage.
        let stage_sum: f64 = o
            .stages
            .iter()
            .filter(|s| !s.name.starts_with("opt:"))
            .map(|s| s.seconds)
            .sum();
        assert!(
            stage_sum <= o.runtime_s + 1e-6,
            "{stage_sum} vs {}",
            o.runtime_s
        );
        let pass_sum: f64 = o
            .stages
            .iter()
            .filter(|s| s.name.starts_with("opt:"))
            .map(|s| s.seconds)
            .sum();
        let optimize = o.stage_seconds("optimize").expect("stage ran");
        assert!(pass_sum <= optimize + 1e-6, "{pass_sum} vs {optimize}");
        assert_eq!(o.stage_seconds("insertion"), Some(o.stages[1].seconds));
        assert_eq!(o.stage_seconds("nonexistent"), None);
    }

    #[test]
    fn disabling_refinement_drops_the_stage() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7())
            .skew_refinement(None)
            .run(&d);
        assert!(o.stage_seconds("optimize").is_none());
        assert!(o.refinement.is_none());
        assert!(o.optimization.is_none());
        assert_eq!(o.stages.len(), 3);
    }

    #[test]
    fn corner_aware_pipeline_reports_and_composes() {
        use dscts_tech::CornerSet;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let pipe = DsCts::new(tech.clone()).corners(CornerSet::asap7_pvt(&tech));
        let whole = pipe.run(&d);
        let report = whole.corners.as_ref().expect("corner-aware run");
        assert_eq!(report.corner_names, ["SS", "TT", "FF"]);
        assert_eq!(report.nominal, 1);
        // The nominal corner's metrics are the pipeline metrics (the TT
        // expansion is arithmetically identical to the base technology).
        assert_eq!(report.per_corner[1], whole.metrics);
        assert_eq!(
            report.robust.worst_latency_ps,
            report.per_corner[report.robust.worst_latency_corner].latency_ps
        );
        assert!(report.robust.worst_latency_ps >= whole.metrics.latency_ps);
        assert!(report.robust.arrival_spread_ps > 0.0);
        // Staged drivers stay bit-identical to the monolithic corner run.
        let topo = pipe.route(&d).expect("routable");
        let (mut tree, _dp) = pipe.insert(topo).expect("feasible");
        let opt = pipe.optimize_tree(&mut tree).expect("default schedule");
        assert_eq!(whole.tree, tree);
        assert_eq!(pipe.evaluate_tree(&tree), whole.metrics);
        let whole_opt = whole.optimization.expect("schedule ran");
        assert_eq!(whole_opt.after, opt.after);
    }

    #[test]
    fn nominal_objective_corner_run_matches_plain_run_tree() {
        // With the Nominal objective the corner fan-out only *observes*
        // the extra corners: every accept/reject decision reads the
        // nominal view, so the optimized tree is identical to the plain
        // single-corner pipeline's (the corners ride along for the
        // report).
        use crate::mcmm::RobustObjective;
        use dscts_tech::CornerSet;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let plain = DsCts::new(tech.clone()).run(&d);
        let cornered = DsCts::new(tech.clone())
            .corners(CornerSet::asap7_pvt(&tech))
            .robust_objective(RobustObjective::Nominal)
            .run(&d);
        assert_eq!(plain.tree, cornered.tree);
        assert_eq!(plain.metrics, cornered.metrics);
        assert!(plain.corners.is_none());
        assert!(cornered.corners.is_some());
    }

    #[test]
    fn try_run_reports_empty_design() {
        let mut d = BenchmarkSpec::c4_riscv32i().generate();
        d.sinks.clear();
        let err = DsCts::new(Technology::asap7())
            .try_run(&d)
            .expect_err("no sinks");
        assert_eq!(err, CtsError::EmptyDesign);
    }

    #[test]
    fn try_run_reports_infeasible_dp_without_panicking() {
        use dscts_tech::Layer;
        // A max load below a single sink's capacitance is unsatisfiable.
        let tech = Technology::builder()
            .layer(Layer::new("MF", 0.024222, 0.12918))
            .layer(Layer::new("MB", 0.000384, 0.116264))
            .max_load_ff(0.5)
            .build()
            .unwrap();
        let mut spec = BenchmarkSpec::c4_riscv32i();
        spec.num_ffs = 16;
        let design = spec.generate();
        let err = DsCts::new(tech).try_run(&design).expect_err("infeasible");
        assert!(
            matches!(
                err,
                CtsError::NoFeasiblePattern { .. } | CtsError::NoRootCandidate
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn different_seed_changes_clustering_not_validity() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7()).seed(1234).run(&d);
        assert_eq!(o.tree.validate_sides(), Ok(()));
        assert_eq!(o.metrics.arrivals.len(), 1056);
    }
}

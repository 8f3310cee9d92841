//! The end-to-end double-side CTS pipeline (Fig. 4).
//!
//! [`DsCts`] holds a run's configuration. [`DsCts::try_run`] runs four
//! stages in order: the route stage, then [`DsCts::try_run_routed`],
//! which runs the other three on the routed topology:
//!
//! | stage | name | runs | produces |
//! |-------|------|------|----------|
//! | hierarchical routing (§III-B) | `route` | [`DsCts::route`] | the routed, subdivided [`ClockTopo`] |
//! | buffer and nTSV insertion (§III-C) | `insertion` | [`DsCts::insert`] | the DP result and the side-validated tree |
//! | optimization (§III-D) | `optimize` | [`OptSchedule::run`] on an [`IncrementalEval`] of the tree | [`Outcome::optimization`]; skipped when no pass is scheduled |
//! | evaluation | `evaluate` | reads that evaluator, or builds one | [`Outcome::metrics`], and [`Outcome::corners`] when corner-aware |
//!
//! The optimize stage runs the pipeline's one [`OptSchedule`] (see
//! [`crate::opt`]): by default exactly one
//! [`EndpointRefinePass`](crate::skew::EndpointRefinePass), the paper's
//! §III-D refinement loop ([`DsCts::skew_refinement`] configures it), and
//! via [`DsCts::schedule`] any composition of [`crate::opt::OptPass`]es
//! (greedy or annealed sizing, custom passes). Each pass's wall clock is
//! folded into [`Outcome::stages`] as an `opt:<name>` row behind the
//! `optimize` row. The evaluator's state is bit-identical to a batch
//! evaluation of the optimized tree, so the evaluate stage measures the
//! tree by reading it. Only a corner-aware pipeline's
//! [`Outcome::metrics`] take one batch evaluation, under the pipeline
//! technology, which need not be one of the corners.
//!
//! Each stage is timed individually, so regressions can be pinned to a
//! phase instead of a whole run, and each is a `catch_unwind` boundary: a
//! panic escaping it becomes [`CtsError::Internal`] naming the stage.
//! Data-dependent failures (no sinks, infeasible DP, side-inconsistent
//! tree) surface as [`CtsError`] from [`DsCts::try_run`]; [`DsCts::run`]
//! is a thin wrapper that panics with the same message.
//!
//! The hot paths behind the stages — per-cluster DME routing and
//! per-height DP candidate propagation — are parallelized with rayon and
//! produce bit-identical results at any thread count (order-preserving
//! reductions everywhere); `RAYON_NUM_THREADS=1` reproduces the serial
//! engine exactly. Configured with [`DsCts::single_side`], the same
//! pipeline produces the paper's "Our Buffered Clock Tree" front-side
//! flow.
//!
//! Batch drivers route once and share the routed topology: the service
//! runs [`DsCts::try_run_routed`] per job on its cached topology, the
//! batched DSE engine ([`crate::dse::SweepEngine`]) scores each
//! mode-equivalence class of a threshold sweep on the optimize stage's
//! evaluator, and the Table III regenerator composes the public staged
//! drivers ([`DsCts::route`], [`DsCts::insert`], [`DsCts::optimize_tree`],
//! [`DsCts::evaluate_tree`]). Each runs exactly the arithmetic of the
//! monolithic `run`.

use crate::dp::{
    try_run_dp, DpConfig, DpResult, DpSuffixCache, ModeRule, MoesWeights, PruneMode, RootCand,
};
use crate::error::CtsError;
use crate::incremental::IncrementalEval;
use crate::mcmm::{CornerReport, RobustObjective};
use crate::opt::{OptSchedule, ScheduleReport};
use crate::pattern::{Mode, PatternSet};
use crate::resilience::{fault, CancelToken, RecoveryPolicy, RecoveryStep, Relaxation, RunBudget};
use crate::route::{HierarchicalRouter, RoutingStyle};
use crate::skew::SkewConfig;
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
    schedule: OptSchedule,
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

/// The name and wall clock of one pipeline stage (or one optimization
/// pass, reported as `opt:<name>`).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// The stage's name (`route`, `insertion`, `optimize`, `evaluate`),
    /// or `opt:<pass name>` for a pass of the optimize stage. Static for
    /// the stages, owned for dynamically named passes — no leaked strings
    /// either way.
    pub name: Cow<'static, str>,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The synthesized (legal) double-side clock tree.
    pub tree: SynthesizedTree,
    /// Metrics of `tree`, read by the evaluate stage from the evaluator
    /// the optimize stage left (a batch evaluation under the pipeline
    /// technology when corner-aware).
    pub metrics: TreeMetrics,
    /// The DP's surviving root candidate set (Fig. 10 material).
    pub root_candidates: Vec<RootCand>,
    /// Index of the MOES-selected candidate.
    pub chosen: usize,
    /// The optimize stage's report (each pass's move counts and wall
    /// clock, and whether a budget truncated the schedule) when it ran.
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

/// The insertion step after the DP: tree construction and the legality
/// gate.
fn synthesize(topo: ClockTopo, dp: &DpResult) -> Result<SynthesizedTree, CtsError> {
    fault::fault_check(fault::SITE_SYNTH)?;
    let tree = SynthesizedTree::new(topo, dp.assignment.clone());
    // Always-on legality gate: the seed only checked sides under
    // debug_assert, silently skipping it in release builds.
    tree.validate_sides().map_err(CtsError::IllegalSides)?;
    Ok(tree)
}

/// Runs one stage of [`DsCts::try_run`] or [`DsCts::try_run_routed`]:
/// `f` inside a `catch_unwind` boundary that reports an escaping panic
/// as [`CtsError::Internal`] naming the stage and counts it in
/// `pipeline.panics_caught` (the vendored rayon shim re-raises worker
/// panics on the joining thread, so this also covers parallel
/// sections). On success the stage's wall clock is appended to `rows`
/// and recorded as the `span.<name>` histogram, so instrumented timings
/// equal [`Outcome::stages`].
fn stage<T>(
    rows: &mut Vec<StageTiming>,
    name: &'static str,
    f: impl FnOnce() -> Result<T, CtsError>,
) -> Result<T, CtsError> {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        telemetry::count("pipeline.panics_caught", 1);
        Err(CtsError::Internal {
            stage: name,
            payload: crate::resilience::panic_message(payload.as_ref()),
        })
    })?;
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(tel) = telemetry::active() {
        tel.record_duration(&format!("span.{name}"), seconds);
    }
    rows.push(StageTiming {
        name: Cow::Borrowed(name),
        seconds,
    });
    Ok(out)
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
            schedule: OptSchedule::default_post_cts(SkewConfig::default()),
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

    /// Sets the optimize stage to the paper's end-point refinement alone
    /// under `cfg` ([`OptSchedule::default_post_cts`]), or drops the
    /// stage with `None`. Like [`DsCts::schedule`], it replaces the
    /// schedule: of the two, the last call wins.
    pub fn skew_refinement(mut self, cfg: Option<SkewConfig>) -> Self {
        self.schedule = cfg.map_or_else(OptSchedule::new, OptSchedule::default_post_cts);
        self
    }

    /// Replaces the optimize stage's pass schedule (by default
    /// `OptSchedule::default_post_cts(SkewConfig::default())`). An empty
    /// schedule drops the stage entirely, like `skew_refinement(None)`.
    /// Swept points of [`crate::dse::SweepEngine`] are scored through the
    /// same schedule.
    pub fn schedule(mut self, schedule: OptSchedule) -> Self {
        self.schedule = schedule;
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

    /// The DP configuration this pipeline will run.
    pub fn dp_config(&self) -> &DpConfig {
        &self.dp
    }

    /// The schedule the optimize stage runs, or `None` when it holds no
    /// pass and the stage is dropped.
    pub fn effective_schedule(&self) -> Option<&OptSchedule> {
        (!self.schedule.is_empty()).then_some(&self.schedule)
    }

    /// The delay model final metrics and refinement use.
    pub fn delay_model(&self) -> EvalModel {
        self.eval
    }

    /// The configured corner set, when the pipeline is corner-aware.
    pub fn corner_set(&self) -> Option<&CornerSet> {
        self.corners.as_deref()
    }

    // ---- Staged drivers. ----
    //
    // Each public method below runs one stage of `try_run` on its own, so
    // any composition of them is bit-identical to `run`.

    /// Runs only the routing stage: dual-level clustering, per-cluster
    /// DME and trunk subdivision to the DP granularity, returning the
    /// routed topology.
    pub fn route(&self, design: &Design) -> Result<ClockTopo, CtsError> {
        let mut topo = HierarchicalRouter::new()
            .hc(self.hc)
            .lc(self.lc)
            .seed(self.seed)
            .style(self.style)
            .try_route(design, &self.tech)?;
        topo.subdivide(self.max_seg_len);
        Ok(topo)
    }

    /// Runs only the insertion stage on a pre-routed topology: the DP
    /// under this pipeline's configuration, tree construction and the
    /// side-legality gate.
    pub fn insert(&self, topo: ClockTopo) -> Result<(SynthesizedTree, DpResult), CtsError> {
        self.insert_dropping_cache(topo, None, None)
    }

    /// [`DsCts::insert`] with a precomputed per-node [`Mode`] vector,
    /// ignoring the configured [`ModeRule`].
    pub fn insert_with_modes(
        &self,
        topo: ClockTopo,
        modes: &[Mode],
    ) -> Result<(SynthesizedTree, DpResult), CtsError> {
        self.insert_dropping_cache(topo, Some(modes), None)
    }

    /// The sweep's insertion driver: [`DsCts::insert`] with an optional
    /// per-node [`Mode`] vector (overriding the configured [`ModeRule`]),
    /// a [`CancelToken`] the DP checkpoints between height groups, and an
    /// earlier class's [`DpSuffixCache`] to copy mode-identical subtrees
    /// from; also returns this run's own cache (see [`try_run_dp`]).
    pub(crate) fn insert_with(
        &self,
        topo: ClockTopo,
        modes: Option<&[Mode]>,
        cancel: Option<&CancelToken>,
        reuse: Option<&DpSuffixCache>,
    ) -> Result<(SynthesizedTree, DpResult, DpSuffixCache), CtsError> {
        let (dp, cache) = try_run_dp(&topo, &self.tech, &self.dp, modes, cancel, reuse)?;
        Ok((synthesize(topo, &dp)?, dp, cache))
    }

    /// The insertion stage of [`DsCts::insert`],
    /// [`DsCts::insert_with_modes`] and [`DsCts::try_run_routed`]: the
    /// DP's suffix cache is dropped before the tree is built, so the
    /// candidate arena does not raise the run's peak memory.
    fn insert_dropping_cache(
        &self,
        topo: ClockTopo,
        modes: Option<&[Mode]>,
        cancel: Option<&CancelToken>,
    ) -> Result<(SynthesizedTree, DpResult), CtsError> {
        let (dp, _) = try_run_dp(&topo, &self.tech, &self.dp, modes, cancel, None)?;
        Ok((synthesize(topo, &dp)?, dp))
    }

    /// Runs only the optimize stage on a synthesized tree, in place:
    /// exactly the configured [`DsCts::effective_schedule`] — over the
    /// configured corners when the pipeline is corner-aware — so any
    /// composition with the other staged drivers is bit-identical to
    /// [`DsCts::run`]. Returns `None` (doing nothing) when no pass is
    /// scheduled, the case in which `run` skips the stage.
    ///
    /// # Panics
    ///
    /// Panics with the [`CtsError`] display text when a configured corner
    /// makes the tree electrically infeasible; [`DsCts::try_run_routed`]
    /// returns that error instead.
    pub fn optimize_tree(&self, tree: &mut SynthesizedTree) -> Option<ScheduleReport> {
        let schedule = self.effective_schedule()?;
        let mut eval = self.evaluator(tree).unwrap_or_else(|e| panic!("{e}"));
        Some(schedule.run(&mut eval, None))
    }

    /// Final metrics under the configured delay model, by one batch
    /// evaluation: what the evaluate stage reads from its evaluator.
    pub fn evaluate_tree(&self, tree: &SynthesizedTree) -> TreeMetrics {
        tree.evaluate(&self.tech, self.eval)
    }

    /// The evaluator the optimize stage runs its schedule on: over every
    /// configured corner, scored by the configured objective, when the
    /// pipeline is corner-aware, else over the pipeline technology.
    /// Returns [`CtsError::NoFeasiblePattern`] when a corner makes the
    /// tree electrically infeasible; the recovery ladder retries it.
    pub(crate) fn evaluator<'t>(
        &'t self,
        tree: &'t mut SynthesizedTree,
    ) -> Result<IncrementalEval<'t>, CtsError> {
        match &self.corners {
            Some(corners) => IncrementalEval::with_corners(tree, corners, self.eval, self.robust),
            None => Ok(IncrementalEval::new(tree, &self.tech, self.eval)),
        }
    }

    /// What the evaluate stage reads from `eval`, an evaluator from
    /// [`DsCts::evaluator`]: the tree's metrics, and when corner-aware the
    /// corner report and nominal metrics from one batch evaluation.
    pub(crate) fn measure(
        &self,
        eval: &IncrementalEval<'_>,
    ) -> (TreeMetrics, Option<CornerReport>) {
        let Some(corners) = self.corner_set() else {
            return (eval.metrics(), None);
        };
        let per_corner = (0..eval.corner_count()).map(|k| eval.corner_metrics(k));
        let report = CornerReport::new(corners, per_corner.collect());
        (self.evaluate_tree(eval.tree()), Some(report))
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
        let first = match self.try_run_once(design, token.as_ref()) {
            Ok(outcome) => return Ok(outcome),
            Err(err) => err,
        };
        let Some(policy) = &self.recovery else {
            return Err(first);
        };
        // Retry the whole stage sequence with each relaxation applied on
        // top of the ones before it.
        let mut relaxed = self.clone();
        let (result, steps) = policy.climb(first, |rung| {
            // Rung counters ("pipeline.recovery.<rung>") make ladder
            // climbs visible in the metrics snapshot without parsing
            // per-outcome recovery vectors.
            if let Some(tel) = telemetry::active() {
                tel.counter(&format!("pipeline.recovery.{}", rung.label()))
                    .incr();
            }
            relaxed = relaxed.clone().with_relaxation(rung);
            relaxed.try_run_once(design, token.as_ref())
        });
        let mut outcome = result?;
        outcome.recovery = steps;
        Ok(outcome)
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

    /// One attempt at the whole flow: the route stage, then
    /// [`DsCts::try_run_routed`] on its topology.
    fn try_run_once(
        &self,
        design: &Design,
        cancel: Option<&CancelToken>,
    ) -> Result<Outcome, CtsError> {
        let start = Instant::now();
        let mut stages = Vec::new();
        let topo = stage(&mut stages, "route", || {
            cancel.map_or(Ok(()), |token| token.check("route"))?;
            self.route(design)
        })?;
        let mut outcome = self.try_run_routed(topo, cancel)?;
        stages.append(&mut outcome.stages);
        outcome.stages = stages;
        outcome.runtime_s = start.elapsed().as_secs_f64();
        Ok(outcome)
    }

    /// Runs the insertion, optimize and evaluate stages of
    /// [`DsCts::try_run`] on a topology from [`DsCts::route`], with the
    /// same stage boundaries, timings and telemetry, for callers that
    /// route a design once and score it many times. [`Outcome::stages`]
    /// and [`Outcome::runtime_s`] leave routing out, and
    /// [`Outcome::recovery`] is empty: retries are the caller's.
    ///
    /// `cancel` is checked before insertion and handed to the DP and the
    /// schedule: expiry before the tree exists is [`CtsError::Cancelled`],
    /// later expiry truncates the schedule and sets [`Outcome::degraded`].
    pub fn try_run_routed(
        &self,
        topo: ClockTopo,
        cancel: Option<&CancelToken>,
    ) -> Result<Outcome, CtsError> {
        let start = Instant::now();
        let mut stages = Vec::new();
        let (mut tree, dp) = stage(&mut stages, "insertion", || {
            cancel.map_or(Ok(()), |token| token.check("insertion"))?;
            self.insert_dropping_cache(topo, None, cancel)
        })?;
        // The evaluate stage reads the evaluator the optimize stage left,
        // or builds one. It checks no token, so a budget-truncated run
        // still yields a measured outcome.
        let (optimization, (metrics, corners)) = match self.effective_schedule() {
            Some(schedule) => {
                let (report, eval) = stage(&mut stages, "optimize", || {
                    let mut eval = self.evaluator(&mut tree)?;
                    Ok((schedule.run(&mut eval, cancel), eval))
                })?;
                stages.extend(report.passes.iter().map(|p| StageTiming {
                    name: Cow::Owned(format!("opt:{}", p.name)),
                    seconds: p.seconds,
                }));
                let measured = stage(&mut stages, "evaluate", || {
                    fault::fault_check(fault::SITE_EVAL)?;
                    Ok(self.measure(&eval))
                })?;
                (Some(report), measured)
            }
            None => {
                let measured = stage(&mut stages, "evaluate", || {
                    fault::fault_check(fault::SITE_EVAL)?;
                    Ok(self.measure(&self.evaluator(&mut tree)?))
                })?;
                (None, measured)
            }
        };
        // A truncated schedule is the *degraded but valid* outcome the
        // budget promises: the rest is skipped, the tree still evaluated.
        let degraded = optimization.as_ref().is_some_and(|r| r.truncated);
        if let Some(tel) = telemetry::active() {
            tel.counter("pipeline.runs").incr();
            if degraded {
                tel.counter("pipeline.degraded").incr();
            }
            if let Some(rss) = crate::rss::peak_rss_bytes() {
                tel.gauge("process.peak_rss_bytes").max(rss as i64);
            }
        }
        Ok(Outcome {
            tree,
            metrics,
            root_candidates: dp.root_candidates,
            chosen: dp.chosen,
            optimization,
            corners,
            stages,
            runtime_s: start.elapsed().as_secs_f64(),
            degraded,
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
    use crate::skew::EndpointRefinePass;
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

    /// The stage row names of `o`, in order.
    fn stage_names(o: &Outcome) -> Vec<&str> {
        o.stages.iter().map(|s| s.name.as_ref()).collect()
    }

    /// Asserts two schedule reports agree in everything but wall clock.
    fn assert_same_report(a: &ScheduleReport, b: &ScheduleReport) {
        assert_eq!(a.truncated, b.truncated);
        let counts = |r: &ScheduleReport| {
            r.passes
                .iter()
                .map(|p| (p.name.clone(), p.attempted, p.accepted, p.triggered))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(a), counts(b));
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
        let whole_opt = whole.optimization.expect("default schedule ran");
        assert_same_report(&whole_opt, &optimization);
    }

    #[test]
    fn try_run_routed_is_the_run_after_routing() {
        // `try_run` is the route stage plus `try_run_routed`, whose
        // evaluate stage reads the evaluator the optimize stage left, or
        // builds one when no pass is scheduled: nominal and corner-aware,
        // with and without a schedule, its reads equal batch evaluations.
        use dscts_tech::CornerSet;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let cornered = DsCts::new(tech.clone()).corners(CornerSet::asap7_pvt(&tech));
        for pipe in [
            DsCts::new(tech.clone()),
            DsCts::new(tech.clone()).skew_refinement(None),
            cornered.clone(),
            cornered.skew_refinement(None),
        ] {
            let whole = pipe.run(&d);
            let topo = pipe.route(&d).expect("routable");
            let routed = pipe.try_run_routed(topo, None).expect("feasible");
            assert_eq!(routed.tree, whole.tree);
            assert_eq!(routed.metrics, whole.metrics);
            assert_eq!(routed.corners, whole.corners);
            assert_eq!(stage_names(&routed), stage_names(&whole)[1..]);
            assert_eq!(routed.metrics, pipe.evaluate_tree(&routed.tree));
            let batch = pipe.corner_set().map(|corners| {
                CornerReport::try_evaluate(&routed.tree, corners, pipe.delay_model())
                    .expect("C4 is feasible at every PVT corner")
            });
            assert_eq!(routed.corners, batch);
        }
    }

    #[test]
    fn legacy_refine_tree_matches_default_schedule() {
        // Refinement alone, driven by hand over an evaluator of the
        // inserted tree, is the same arithmetic the default schedule runs:
        // the tree stays bit-identical to `run`, and the schedule report
        // carries exactly the refine pass's stats.
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let pipe = DsCts::new(Technology::asap7());
        let whole = pipe.run(&d);
        let topo = pipe.route(&d).expect("routable");
        let (mut tree, _dp) = pipe.insert(topo).expect("feasible");
        let mut eval = IncrementalEval::new(&mut tree, &pipe.tech, pipe.eval);
        let stats = EndpointRefinePass::new(SkewConfig::default()).run_on(&mut eval, None);
        eval.commit();
        drop(eval);
        assert_eq!(whole.tree, tree);
        let report = whole.optimization.expect("default schedule ran");
        assert_eq!(report.passes.len(), 1);
        let pass = &report.passes[0];
        assert_eq!(pass.name, EndpointRefinePass::NAME);
        assert_eq!(
            (pass.attempted, pass.accepted, pass.triggered),
            (stats.attempted, stats.accepted, stats.triggered)
        );
    }

    #[test]
    fn explicit_default_schedule_is_bit_identical() {
        // Spelling the default schedule out via the builder must change
        // nothing: schedule(default_post_cts(cfg)) == skew_refinement(cfg).
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let implicit = DsCts::new(Technology::asap7()).run(&d);
        let explicit = DsCts::new(Technology::asap7())
            .schedule(OptSchedule::default_post_cts(SkewConfig::default()))
            .run(&d);
        assert_eq!(implicit.tree, explicit.tree);
        assert_eq!(implicit.metrics, explicit.metrics);
        assert_eq!(stage_names(&implicit), stage_names(&explicit));
        let implicit_opt = implicit.optimization.expect("default schedule ran");
        let explicit_opt = explicit.optimization.expect("explicit schedule ran");
        assert_same_report(&implicit_opt, &explicit_opt);
    }

    #[test]
    fn custom_schedule_runs_and_reports_passes() {
        use crate::opt::AnnealedSizingPass;
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
        let passes: Vec<&str> = report.passes.iter().map(|p| p.name.as_ref()).collect();
        assert_eq!(passes, ["sizing", "endpoint-refine", "annealed-sizing"]);
        // The outcome's metrics are a batch evaluation of its tree.
        assert_eq!(
            o.tree.evaluate(&Technology::asap7(), EvalModel::Elmore),
            o.metrics
        );
        // Per-pass wall clocks folded into the stage timings.
        assert_eq!(
            stage_names(&o),
            [
                "route",
                "insertion",
                "optimize",
                "opt:sizing",
                "opt:endpoint-refine",
                "opt:annealed-sizing",
                "evaluate"
            ]
        );
        assert_eq!(o.tree.validate_sides(), Ok(()));
    }

    #[test]
    fn custom_pass_cannot_move_an_edge_to_another_side() {
        use crate::opt::{OptCtx, OptPass, PassStats};
        use crate::pattern::Pattern;
        use dscts_tech::Side;
        /// Offers the first (F, F) edge every pattern with other end sides.
        struct SideSwapPass;
        impl OptPass for SideSwapPass {
            fn name(&self) -> Cow<'static, str> {
                Cow::Borrowed("side-swap")
            }
            fn run(&self, ctx: &mut OptCtx<'_, '_>) -> PassStats {
                let eval = ctx.eval_mut();
                let front =
                    |p: Pattern| p.root_side() == Side::Front && p.sink_side() == Side::Front;
                let edge = (1..eval.tree().topo.nodes.len())
                    .find(|&v| eval.tree().patterns[v].is_some_and(front))
                    .expect("C4 has an (F, F) edge");
                let mut stats = PassStats::default();
                for p in [
                    Pattern::WiringB,
                    Pattern::Ntsv2,
                    Pattern::NtsvBuf,
                    Pattern::Ntsv3,
                    Pattern::BufNtsv,
                ] {
                    stats.attempted += 1;
                    if eval.set_pattern(edge, p) {
                        stats.accepted += 1;
                    }
                }
                eval.commit();
                stats
            }
        }
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let plain = DsCts::new(Technology::asap7())
            .skew_refinement(None)
            .run(&d);
        let o = DsCts::new(Technology::asap7())
            .schedule(OptSchedule::new().with(SideSwapPass))
            .try_run(&d)
            .expect("C4 synthesizes");
        let pass = &o.optimization.as_ref().expect("schedule ran").passes[0];
        assert_eq!((pass.attempted, pass.accepted), (5, 0));
        assert_eq!(o.tree.validate_sides(), Ok(()));
        assert_eq!(o.tree, plain.tree);
    }

    #[test]
    fn empty_custom_schedule_drops_the_stage() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7())
            .schedule(OptSchedule::new())
            .run(&d);
        assert!(o.optimization.is_none());
        assert_eq!(stage_names(&o), ["route", "insertion", "evaluate"]);
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
        use crate::sizing::SizingPass;
        use dscts_tech::CornerSet;
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let default = DsCts::new(tech.clone()).run(&d);
        assert_eq!(
            stage_names(&default),
            [
                "route",
                "insertion",
                "optimize",
                "opt:endpoint-refine",
                "evaluate"
            ]
        );
        // A corner-aware run with a two-pass schedule.
        let cornered = DsCts::new(tech.clone())
            .corners(CornerSet::asap7_pvt(&tech))
            .schedule(
                OptSchedule::new()
                    .with(SizingPass::default())
                    .with(EndpointRefinePass::default()),
            )
            .run(&d);
        assert_eq!(
            stage_names(&cornered),
            [
                "route",
                "insertion",
                "optimize",
                "opt:sizing",
                "opt:endpoint-refine",
                "evaluate"
            ]
        );
        assert!(cornered.corners.is_some());
        assert_eq!(
            cornered.tree.evaluate(&tech, EvalModel::Elmore),
            cornered.metrics
        );

        for o in [&default, &cornered] {
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
    }

    #[test]
    fn disabling_refinement_drops_the_stage() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let o = DsCts::new(Technology::asap7())
            .skew_refinement(None)
            .run(&d);
        assert!(o.optimization.is_none());
        assert_eq!(stage_names(&o), ["route", "insertion", "evaluate"]);
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
        assert_same_report(&whole_opt, &opt);
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

//! Composable post-CTS optimization passes over [`IncrementalEval`].
//!
//! The paper's post-CTS phase (§III-D) is one fixed refinement loop, but
//! every optimizer this repo has grown since — greedy buffer sizing,
//! end-point refinement, annealed sizing and pattern local search — is
//! the *same shape*: a trial-move loop over a resident incremental
//! evaluation of the tree, accepting moves that improve an objective and
//! rolling rejected ones back through the journal. This module makes that
//! shape a first-class API:
//!
//! * [`OptPass`] — one optimizer: a name and a `run` over a shared
//!   [`OptCtx`] (the [`IncrementalEval`] and a seeded RNG), returning
//!   [`PassStats`].
//! * [`OptSchedule`] — an ordered, cloneable list of passes plus the RNG
//!   seed; the value a [`crate::DsCts`] pipeline carries.
//! * [`PassManager`] — executes a schedule over one evaluator, wrapping
//!   each pass with before/after metrics and a wall clock into a
//!   [`PassReport`] (folded into [`crate::Outcome::stages`] as
//!   `opt:<name>` timings by the pipeline).
//!
//! The evaluator may hold one corner or several
//! ([`IncrementalEval::with_corners`]); a pass sees the same surface
//! either way and scores through the evaluator's objective view, so every
//! pass — built-in or custom — optimizes nominal or worst-corner MOES
//! without changing a line. Because [`IncrementalEval`] is bit-identical
//! to the batch evaluator after every mutation, running several passes
//! over one shared evaluator produces exactly the trees a chain of
//! per-pass evaluators would (property-tested in `opt_proptests`).
//!
//! The built-in passes are [`crate::sizing::SizingPass`],
//! [`crate::skew::EndpointRefinePass`] and:
//!
//! * [`AnnealedSizingPass`] — seeded, deterministic simulated annealing
//!   over [`IncrementalEval::set_buffer_scale`] (and optionally
//!   [`IncrementalEval::set_star_buffer`]). The journal is the reject
//!   path: the pass commits only when a new best configuration appears
//!   and finishes by reverting to the last one — so it can *never*
//!   degrade the objective it anneals on.
//! * [`PatternSearchPass`] — post-DP hill climbing over
//!   [`IncrementalEval::set_pattern`] swaps. Only swaps preserving both
//!   endpoint sides are proposed (which provably preserves the §III-C
//!   connectivity constraint), and
//!   [`crate::SynthesizedTree::validate_sides`] gates the final result
//!   defensively.
//!
//! # Plugging a custom pass into the pipeline
//!
//! ```
//! use dscts_core::opt::{OptCtx, OptPass, OptSchedule, PassStats};
//! use dscts_core::DsCts;
//! use dscts_netlist::BenchmarkSpec;
//! use dscts_tech::Technology;
//! use std::borrow::Cow;
//!
//! /// Upsizes every pattern buffer to 2x drive where feasible.
//! struct MaxDrivePass;
//!
//! impl OptPass for MaxDrivePass {
//!     fn name(&self) -> Cow<'static, str> {
//!         Cow::Borrowed("max-drive")
//!     }
//!
//!     fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats {
//!         let eval = ctx.eval_mut();
//!         let mut stats = PassStats::default();
//!         for v in 1..eval.tree().topo.nodes.len() {
//!             if eval.tree().patterns[v].is_some_and(|p| p.buffers() > 0) {
//!                 stats.attempted += 1;
//!                 // An overloaded trial rolls itself back and returns false.
//!                 if eval.set_buffer_scale(v, 2.0) {
//!                     stats.accepted += 1;
//!                 }
//!             }
//!         }
//!         eval.commit();
//!         stats
//!     }
//! }
//!
//! let design = BenchmarkSpec::c4_riscv32i().generate();
//! let outcome = DsCts::new(Technology::asap7())
//!     .schedule(OptSchedule::new().with(MaxDrivePass))
//!     .run(&design);
//! let report = outcome.optimization.as_ref().expect("schedule ran");
//! assert_eq!(report.passes.len(), 1);
//! assert!(outcome.stage_seconds("opt:max-drive").is_some());
//! ```

use crate::dp::MoesWeights;
use crate::incremental::IncrementalEval;
use crate::pattern::PatternSet;
use crate::resilience::CancelToken;
use crate::skew::{EndpointRefinePass, SkewConfig};
use crate::synth::TreeMetrics;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The shared state one optimization schedule threads through its passes:
/// the resident evaluator (which borrows the tree mutably and writes
/// accepted knobs through) and a deterministic RNG. The technology, delay
/// model, corners and run-budget token are all reachable through the
/// evaluator, so a pass needs nothing beyond this context.
#[derive(Debug)]
pub struct OptCtx<'t> {
    eval: IncrementalEval<'t>,
    rng: SmallRng,
}

impl<'t> OptCtx<'t> {
    /// The resident evaluator (read-only).
    pub fn eval(&self) -> &IncrementalEval<'t> {
        &self.eval
    }

    /// The resident evaluator, for mutations.
    pub fn eval_mut(&mut self) -> &mut IncrementalEval<'t> {
        &mut self.eval
    }

    /// The evaluator and the RNG together — for passes (like annealing)
    /// that interleave trial moves with random draws.
    pub fn parts(&mut self) -> (&mut IncrementalEval<'t>, &mut SmallRng) {
        (&mut self.eval, &mut self.rng)
    }

    /// The deterministic per-pass RNG. The [`PassManager`] re-seeds it
    /// before every pass (with `schedule seed + pass index`) so a pass's
    /// random stream never depends on how many draws its predecessors
    /// consumed.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The run's cooperative cancellation token, if a
    /// [`crate::resilience::RunBudget`] governs this schedule. Once it
    /// trips the evaluator rejects every move; built-in passes also poll
    /// it inside their trial loops and charge each attempted move to the
    /// trial budget, and custom passes that ignore it are still truncated
    /// at the next pass boundary.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.eval.cancel()
    }
}

/// What one pass did, in move counts. The [`PassManager`] wraps this with
/// metrics and wall clock into a [`PassReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Trial moves proposed (including infeasible and rejected ones).
    pub attempted: usize,
    /// Moves accepted into the final tree.
    pub accepted: usize,
    /// Whether the pass's own run condition held (always `true` for
    /// unconditional passes; [`EndpointRefinePass`] reports its §III-D
    /// skew trigger here).
    pub triggered: bool,
}

impl Default for PassStats {
    fn default() -> Self {
        PassStats {
            attempted: 0,
            accepted: 0,
            triggered: true,
        }
    }
}

/// One composable post-CTS optimization pass.
///
/// Implementations mutate the tree exclusively through
/// [`OptCtx::eval_mut`] and leave the evaluator in a committed, legal
/// state: an accepted move is [`IncrementalEval::commit`]ted, a rejected
/// trial is undone through the journal. Passes must be deterministic
/// given the context's RNG seed.
pub trait OptPass: Send + Sync {
    /// Stable identifier, used in reports and `opt:<name>` stage timings.
    fn name(&self) -> Cow<'static, str>;

    /// Executes the pass over the shared context.
    fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats;
}

/// One executed pass: its stats plus metrics either side and wall clock.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The pass's [`OptPass::name`].
    pub name: Cow<'static, str>,
    /// Trial moves proposed.
    pub attempted: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// The pass's run condition (see [`PassStats::triggered`]).
    pub triggered: bool,
    /// Metrics entering the pass.
    pub before: TreeMetrics,
    /// Metrics leaving the pass.
    pub after: TreeMetrics,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
}

/// Everything a schedule execution produced.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Metrics before the first pass.
    pub before: TreeMetrics,
    /// Metrics after the last pass.
    pub after: TreeMetrics,
    /// One report per pass, in execution order.
    pub passes: Vec<PassReport>,
    /// Whether a run budget expired before every scheduled pass finished.
    /// The tree is still a valid, committed configuration — the schedule
    /// was cut short, not corrupted — and the pipeline surfaces this as
    /// [`crate::Outcome::degraded`].
    pub truncated: bool,
}

/// An ordered list of [`OptPass`]es plus the RNG seed — the value a
/// [`crate::DsCts`] pipeline carries and the [`PassManager`] executes.
///
/// Passes are reference-counted so the schedule is cheap to clone into
/// parallel sweep workers; `OptPass: Send + Sync` keeps that sound.
#[derive(Clone)]
pub struct OptSchedule {
    passes: Vec<Arc<dyn OptPass>>,
    seed: u64,
}

impl OptSchedule {
    /// An empty schedule with the default seed.
    pub fn new() -> Self {
        OptSchedule {
            passes: Vec::new(),
            seed: 0xD5C7_5EED,
        }
    }

    /// The schedule the default pipeline runs: end-point skew refinement
    /// only — exactly the pre-pass-API `RefineStage` behavior.
    pub fn default_post_cts(cfg: SkewConfig) -> Self {
        OptSchedule::new().with(EndpointRefinePass::new(cfg))
    }

    /// Appends a pass.
    pub fn with(mut self, pass: impl OptPass + 'static) -> Self {
        self.passes.push(Arc::new(pass));
        self
    }

    /// Appends an already shared pass.
    pub fn with_arc(mut self, pass: Arc<dyn OptPass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Sets the RNG seed (pass `i` runs with `seed + i`). Runs are
    /// deterministic per seed at any thread count.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scheduled passes, in execution order.
    pub fn passes(&self) -> &[Arc<dyn OptPass>] {
        &self.passes
    }

    /// The base RNG seed.
    pub fn rng_seed(&self) -> u64 {
        self.seed
    }

    /// Number of scheduled passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the schedule holds no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }
}

impl Default for OptSchedule {
    fn default() -> Self {
        OptSchedule::new()
    }
}

impl fmt::Debug for OptSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptSchedule")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("seed", &self.seed)
            .finish()
    }
}

/// Executes an [`OptSchedule`] over one shared evaluator, reporting per
/// pass. See the [module docs](self) for the architecture.
#[derive(Debug, Clone, Copy)]
pub struct PassManager<'a> {
    schedule: &'a OptSchedule,
}

impl<'a> PassManager<'a> {
    /// A manager for `schedule`.
    pub fn new(schedule: &'a OptSchedule) -> Self {
        PassManager { schedule }
    }

    /// Runs every pass in order over `eval`; accepted knobs are written
    /// through to its tree. Each pass gets a fresh RNG seeded with
    /// `schedule seed + pass index`, and the report's before/after
    /// metrics are the evaluator's nominal corner
    /// ([`IncrementalEval::metrics`]), so nominal and robust runs compare
    /// like for like.
    ///
    /// `cancel` attaches a run budget: the evaluator rejects every move
    /// once the token trips, the built-in passes poll it inside their
    /// trial loops, and it is checked at every pass boundary.
    /// Cancellation truncates the schedule — finished work is kept, the
    /// report is flagged [`ScheduleReport::truncated`]. `None`, or a token
    /// that never trips, is bit-identical to an unbudgeted run.
    pub fn run(&self, eval: IncrementalEval<'_>, cancel: Option<&CancelToken>) -> ScheduleReport {
        let mut ctx = OptCtx {
            eval,
            rng: SmallRng::seed_from_u64(self.schedule.seed),
        };
        ctx.eval.set_cancel(cancel.cloned());
        let before = ctx.eval.metrics();
        let mut passes = Vec::with_capacity(self.schedule.passes.len());
        let mut entering = before.clone();
        let mut truncated = false;
        for (i, pass) in self.schedule.passes.iter().enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                // Budget expired between passes: keep what earlier passes
                // committed, skip the rest of the schedule.
                truncated = true;
                break;
            }
            ctx.rng = SmallRng::seed_from_u64(self.schedule.seed.wrapping_add(i as u64));
            let t0 = Instant::now();
            let stats = pass.run(&mut ctx);
            let seconds = t0.elapsed().as_secs_f64();
            // Per-pass telemetry reuses the report's wall clock (one
            // measurement, two consumers) and aggregates trial counts.
            if let Some(tel) = dscts_telemetry::active() {
                tel.record_duration(&format!("span.pass.{}", pass.name()), seconds);
                tel.counter("opt.trials_attempted")
                    .add(stats.attempted as u64);
                tel.counter("opt.trials_accepted")
                    .add(stats.accepted as u64);
            }
            // Defensive: a pass that forgot to commit still keeps its work.
            ctx.eval.commit();
            let after = ctx.eval.metrics();
            passes.push(PassReport {
                name: pass.name(),
                attempted: stats.attempted,
                accepted: stats.accepted,
                triggered: stats.triggered,
                before: entering,
                after: after.clone(),
                seconds,
            });
            entering = after;
        }
        // A budget that fired inside the final pass still truncated it.
        truncated |= cancel.is_some_and(CancelToken::is_cancelled);
        ScheduleReport {
            before,
            after: entering,
            passes,
            truncated,
        }
    }
}

/// The weighted MOES objective (Eq. 3 shape, [`MoesWeights::weigh`])
/// over the evaluator's *current* objective view — O(corners × stars)
/// per call, cheap enough for inner trial loops. Resource counts are
/// passed in because the passes track them incrementally; use the
/// [`TreeMetrics`] convention (`buffers` *includes* the root driver,
/// i.e. `1 + inserted_buffers()`), so the value agrees exactly with
/// [`moes_objective_of`] over the same state. Over a multi-corner
/// evaluator with the worst-corner objective this weighs worst-corner
/// latency and skew — the robust MOES a corner-aware schedule minimizes.
pub fn moes_objective(w: &MoesWeights, eval: &IncrementalEval, buffers: i64, ntsvs: i64) -> f64 {
    let (latency_ps, skew_ps) = eval.latency_skew_ps();
    w.weigh(latency_ps, buffers as f64, ntsvs as f64, skew_ps)
}

/// [`moes_objective`] evaluated over finished [`TreeMetrics`] instead of
/// a live evaluator — the form reports and test oracles use. Both
/// delegate to [`MoesWeights::weigh`], the one place the weighted sum is
/// written down.
pub fn moes_objective_of(w: &MoesWeights, m: &TreeMetrics) -> f64 {
    w.weigh(
        m.latency_ps,
        f64::from(m.buffers),
        f64::from(m.ntsvs),
        m.skew_ps,
    )
}

// --- Annealed sizing -----------------------------------------------------

/// Configuration of [`AnnealedSizingPass`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealConfig {
    /// Discrete drive-scale alphabet (the same resource bounds as
    /// [`crate::sizing::SizingConfig::scales`]).
    pub scales: Vec<f64>,
    /// Total trial moves.
    pub moves: usize,
    /// Initial temperature, in objective units (ps-scale).
    pub t0: f64,
    /// Final temperature; the schedule decays geometrically from `t0`.
    pub t_end: f64,
    /// Probability of proposing a star-buffer toggle instead of a resize.
    /// Zero (the default) keeps the pass a pure sizing pass: buffer and
    /// nTSV counts — the resource bounds — are then invariant.
    pub star_prob: f64,
    /// Objective weights. `beta`/`gamma` only matter when `star_prob > 0`
    /// (resizes never change resource counts).
    pub weights: MoesWeights,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            scales: vec![0.5, 1.0, 2.0],
            moves: 4_000,
            t0: 2.0,
            t_end: 0.01,
            star_prob: 0.0,
            weights: MoesWeights {
                alpha: 1.0,
                beta: 10.0,
                gamma: 1.0,
                delta: 4.0,
            },
        }
    }
}

/// Seeded, deterministic simulated annealing over buffer drive scales
/// (and optionally star refinement buffers).
///
/// Where the greedy [`crate::sizing::SizingPass`] only re-sizes the
/// *last* buffer above each star and stops at its first fixed point, the
/// annealer proposes uniform random (edge, scale) moves over **every**
/// pattern buffer, escaping greedy's local optimum at equal resource
/// bounds. [`IncrementalEval`] makes each trial O(depth + subtree); the
/// undo journal is the reject path. The pass commits exactly when a new
/// **best** configuration appears (bounding journal memory to the moves
/// since the last improvement) and finishes by reverting to that best —
/// so it never degrades the objective it anneals on, and a run that
/// finds nothing better is a no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealedSizingPass {
    /// The annealing schedule and objective.
    pub cfg: AnnealConfig,
}

impl AnnealedSizingPass {
    /// The pass's stable name.
    pub const NAME: &'static str = "annealed-sizing";

    /// A pass with the given configuration.
    pub fn new(cfg: AnnealConfig) -> Self {
        AnnealedSizingPass { cfg }
    }
}

impl Default for AnnealedSizingPass {
    fn default() -> Self {
        AnnealedSizingPass::new(AnnealConfig::default())
    }
}

impl AnnealedSizingPass {
    /// The annealing loop. Over a corner-aware evaluator the robust
    /// anneal is the nominal anneal with a different objective view (and
    /// per-corner repair inside each trial move). A cancelled budget
    /// stops proposing moves; the pass still reverts to its best accepted
    /// configuration, so truncation never corrupts the tree.
    fn anneal(
        &self,
        eval: &mut IncrementalEval,
        rng: &mut SmallRng,
        cancel: Option<&CancelToken>,
    ) -> PassStats {
        let cfg = &self.cfg;
        assert!(
            !cfg.scales.is_empty() && cfg.scales.iter().all(|&s| s > 0.0),
            "scales must be positive"
        );
        assert!(
            cfg.t0 > 0.0 && cfg.t_end > 0.0 && cfg.t_end <= cfg.t0,
            "temperatures must satisfy 0 < t_end <= t0"
        );
        let edges: Vec<usize> = (1..eval.tree().topo.nodes.len())
            .filter(|&v| eval.tree().patterns[v].is_some_and(|p| p.buffers() > 0))
            .collect();
        let n_stars = eval.tree().topo.stars.len();
        let star_moves = cfg.star_prob > 0.0 && n_stars > 0;
        if edges.is_empty() && !star_moves {
            return PassStats::default();
        }

        let w = &cfg.weights;
        // nTSV count never changes under these moves; the buffer count
        // only moves with star toggles. Track both incrementally, in the
        // TreeMetrics convention (root driver included).
        let mut buffers = 1 + i64::from(eval.tree().inserted_buffers());
        let ntsvs = i64::from(eval.tree().inserted_ntsvs());
        let mut cur = moes_objective(w, eval, buffers, ntsvs);
        let mut best = cur;
        let mut best_mark = eval.mark();
        // SA accepts uphill moves that the final revert-to-best discards;
        // report only the moves that survive in the returned tree.
        let mut accepted_in_anneal = 0usize;
        let mut accepted_at_best = 0usize;
        let cool = (cfg.t_end / cfg.t0).powf(1.0 / cfg.moves.max(1) as f64);
        let mut stats = PassStats::default();

        for i in 0..cfg.moves {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    break;
                }
                token.record_trial();
            }
            // Geometric decay from exactly t0 (move 0) toward t_end, as a
            // pure function of the move index so no-op/infeasible
            // proposals cannot skip a cooling step.
            let temp = cfg.t0 * cool.powi(i as i32);
            stats.attempted += 1;
            let star_move =
                star_moves && (edges.is_empty() || rng.random_range(0.0..1.0) < cfg.star_prob);
            let (ok, delta_buffers) = if star_move {
                let si = rng.random_range(0..n_stars);
                let on = !eval.tree().star_buffers[si];
                (eval.set_star_buffer(si, on), if on { 1 } else { -1 })
            } else {
                let e = edges[rng.random_range(0..edges.len())];
                let s = cfg.scales[rng.random_range(0..cfg.scales.len())];
                if eval.buffer_scale(e) == s {
                    // No-op proposal (the edge already has this scale):
                    // nothing to score or count as accepted. Skipping
                    // consumes exactly the RNG draws the zero-delta
                    // accept path would have (zero delta never reaches
                    // the acceptance draw), and the index-based cooling
                    // above still advances.
                    continue;
                }
                (eval.set_buffer_scale(e, s), 0)
            };
            if !ok {
                // Infeasible move: already self-rolled-back.
                continue;
            }
            let cand_buffers = buffers + delta_buffers;
            let cand = moes_objective(w, eval, cand_buffers, ntsvs);
            let delta = cand - cur;
            let accept = delta <= 0.0 || rng.random_range(0.0..1.0) < (-delta / temp).exp();
            if accept {
                cur = cand;
                buffers = cand_buffers;
                accepted_in_anneal += 1;
                if cur < best {
                    best = cur;
                    accepted_at_best = accepted_in_anneal;
                    // The current state IS the new best: committing here
                    // forgets history we could never want back, bounding
                    // the journal to the moves since the last improvement
                    // instead of the whole anneal. The final tree is
                    // identical to the keep-everything variant.
                    eval.commit();
                    best_mark = eval.mark();
                }
            } else {
                eval.undo();
            }
        }

        // Revert to the best accepted configuration: the pass never
        // finishes worse than it started on its own objective.
        eval.undo_to(best_mark);
        eval.commit();
        stats.accepted = accepted_at_best;
        stats
    }
}

impl OptPass for AnnealedSizingPass {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed(Self::NAME)
    }

    fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats {
        let cancel = ctx.cancel().cloned();
        let (eval, rng) = ctx.parts();
        self.anneal(eval, rng, cancel.as_ref())
    }
}

// --- Pattern local search ------------------------------------------------

/// Configuration of [`PatternSearchPass`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSearchConfig {
    /// The pattern alphabet swaps are drawn from.
    pub patterns: PatternSet,
    /// Maximum hill-climbing sweeps over all edges; the climb also stops
    /// at the first sweep with no improving swap.
    pub max_rounds: usize,
    /// Objective weights; the default is the paper's MOES setting
    /// (latency plus resource costs), so the climb recovers latency the
    /// candidate-truncated DP left behind without spending resources
    /// the DP would not have.
    pub weights: MoesWeights,
}

impl Default for PatternSearchConfig {
    fn default() -> Self {
        PatternSearchConfig {
            patterns: PatternSet::default(),
            max_rounds: 4,
            weights: MoesWeights::default(),
        }
    }
}

/// Post-DP hill climbing over pattern swaps.
///
/// The DP truncates each node's candidate set to `max_cands`, so the
/// final assignment can leave locally improvable edges behind. This pass
/// sweeps every trunk edge and re-assigns it the best same-sides pattern
/// under the MOES-style objective, repeating until a sweep finds nothing.
///
/// Only swaps preserving **both endpoint sides** are proposed: every
/// vertex keeps its side, so the §III-C connectivity constraint is
/// preserved by construction (and [`crate::SynthesizedTree::validate_sides`]
/// gates the final tree defensively — a failed gate rolls the whole pass
/// back). Note the swap alphabet ignores any DSE mode restriction the DP
/// ran under: a node forced intra-side by a fanout threshold may gain an
/// nTSV pattern here. The default pipeline schedule does not include this
/// pass, and sweeps that must respect modes should not add it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSearchPass {
    /// The search space and objective.
    pub cfg: PatternSearchConfig,
}

impl PatternSearchPass {
    /// The pass's stable name.
    pub const NAME: &'static str = "pattern-search";

    /// A pass with the given configuration.
    pub fn new(cfg: PatternSearchConfig) -> Self {
        PatternSearchPass { cfg }
    }
}

impl Default for PatternSearchPass {
    fn default() -> Self {
        PatternSearchPass::new(PatternSearchConfig::default())
    }
}

impl PatternSearchPass {
    /// The hill-climbing sweep (under a corner-aware evaluator a swap must
    /// be feasible in *every* corner to be proposed, and improvement is
    /// judged in the objective view). A cancelled budget ends the sweep
    /// after the current edge; accepted swaps are kept and the side gate
    /// still runs.
    fn climb(&self, eval: &mut IncrementalEval, cancel: Option<&CancelToken>) -> PassStats {
        let cfg = &self.cfg;
        let pass_mark = eval.mark();
        let alphabet = cfg.patterns.patterns();
        let w = &cfg.weights;
        let n = eval.tree().topo.nodes.len();
        // TreeMetrics convention: the root driver counts as a buffer.
        let mut buffers = 1 + i64::from(eval.tree().inserted_buffers());
        let mut ntsvs = i64::from(eval.tree().inserted_ntsvs());
        let mut cur = moes_objective(w, eval, buffers, ntsvs);
        let mut stats = PassStats::default();

        'rounds: for _ in 0..cfg.max_rounds {
            let mut improved = false;
            for v in 1..n {
                if let Some(token) = cancel {
                    if token.is_cancelled() {
                        break 'rounds;
                    }
                    token.record_trial();
                }
                // invariant: every trunk edge leaves the DP with a pattern;
                // the synthesizer rejects unassigned nodes before this pass
                // can ever see the tree.
                let p = eval.tree().patterns[v].expect("assigned pattern");
                // Best strictly-improving same-sides alternative for this
                // edge (best-improvement keeps the sweep deterministic).
                let mut winner: Option<(f64, crate::pattern::Pattern, i64, i64)> = None;
                for &q in alphabet {
                    if q == p || q.root_side() != p.root_side() || q.sink_side() != p.sink_side() {
                        continue;
                    }
                    stats.attempted += 1;
                    // Overloading an ancestor buffer rolls itself back.
                    if !eval.set_pattern(v, q) {
                        continue;
                    }
                    let nb = buffers + i64::from(q.buffers()) - i64::from(p.buffers());
                    let nv = ntsvs + i64::from(q.ntsvs()) - i64::from(p.ntsvs());
                    let cand = moes_objective(w, eval, nb, nv);
                    if cand < cur - 1e-9 && winner.is_none_or(|(b, ..)| cand < b) {
                        winner = Some((cand, q, nb, nv));
                    }
                    eval.undo();
                }
                if let Some((obj, q, nb, nv)) = winner {
                    // The winner was feasible when scored; re-applying it
                    // fails only when the run budget tripped since.
                    if !eval.set_pattern(v, q) {
                        break 'rounds;
                    }
                    cur = obj;
                    buffers = nb;
                    ntsvs = nv;
                    stats.accepted += 1;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }

        // Same-sides swaps preserve legality by construction; gate anyway.
        if stats.accepted > 0 && eval.tree().validate_sides().is_err() {
            eval.undo_to(pass_mark);
            stats.accepted = 0;
            return stats;
        }
        eval.commit();
        stats
    }
}

impl OptPass for PatternSearchPass {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed(Self::NAME)
    }

    fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats {
        let cancel = ctx.cancel().cloned();
        self.climb(ctx.eval_mut(), cancel.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{try_run_dp, DpConfig};
    use crate::mcmm::{CornerReport, RobustObjective};
    use crate::route::HierarchicalRouter;
    use crate::sizing::{SizingConfig, SizingPass};
    use crate::synth::{EvalModel, SynthesizedTree};
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::{CornerSet, Technology};

    fn tree() -> (SynthesizedTree, Technology) {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(40_000);
        let cfg = DpConfig {
            moes: MoesWeights {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
                delta: 0.0,
            },
            ..DpConfig::default()
        };
        let res = try_run_dp(&topo, &tech, &cfg, None, None, None).unwrap().0;
        (SynthesizedTree::new(topo, res.assignment), tech)
    }

    /// Runs `schedule` over a fresh single-corner evaluator of `t`.
    fn run(
        schedule: &OptSchedule,
        t: &mut SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
    ) -> ScheduleReport {
        PassManager::new(schedule).run(IncrementalEval::new(t, tech, model), None)
    }

    #[test]
    fn empty_schedule_is_identity() {
        let (mut t, tech) = tree();
        let before = t.evaluate(&tech, EvalModel::Elmore);
        let schedule = OptSchedule::new();
        let rep = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        assert!(rep.passes.is_empty());
        assert_eq!(rep.before, before);
        assert_eq!(rep.after, before);
        assert_eq!(t.evaluate(&tech, EvalModel::Elmore), before);
    }

    #[test]
    fn manager_reports_chained_metrics() {
        let (mut t, tech) = tree();
        let schedule = OptSchedule::new()
            .with(SizingPass::new(SizingConfig::default()))
            .with(AnnealedSizingPass::default());
        let rep = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        assert_eq!(rep.passes.len(), 2);
        assert_eq!(rep.before, rep.passes[0].before);
        assert_eq!(rep.passes[0].after, rep.passes[1].before);
        assert_eq!(rep.passes[1].after, rep.after);
        assert!(rep.passes.iter().all(|p| p.seconds >= 0.0));
        // The evaluator wrote accepted knobs through: the tree re-evaluates
        // to exactly the reported final metrics.
        assert_eq!(t.evaluate(&tech, EvalModel::Elmore), rep.after);
    }

    #[test]
    fn annealed_sizing_is_deterministic_and_never_degrades() {
        let (base, tech) = tree();
        let w = AnnealConfig::default().weights;
        let run_once = |seed: u64| {
            let mut t = base.clone();
            let schedule = OptSchedule::new()
                .seed(seed)
                .with(AnnealedSizingPass::default());
            let rep = run(&schedule, &mut t, &tech, EvalModel::Elmore);
            (t, rep)
        };
        let (t1, r1) = run_once(7);
        let (t2, r2) = run_once(7);
        assert_eq!(t1, t2, "same seed, same tree");
        assert_eq!(r1.after, r2.after);
        // Never degrades the objective it anneals on.
        assert!(moes_objective_of(&w, &r1.after) <= moes_objective_of(&w, &r1.before) + 1e-9);
        // Pure sizing: resource counts are bit-equal.
        assert_eq!(r1.after.buffers, r1.before.buffers);
        assert_eq!(r1.after.ntsvs, r1.before.ntsvs);
    }

    #[test]
    fn annealed_sizing_beats_greedy_on_skew_here() {
        // The acceptance experiment in miniature: same scale alphabet,
        // no star toggles, latency-greedy DP leaves skew on the table.
        let (base, tech) = tree();
        let mut greedy = base.clone();
        let g = run(
            &OptSchedule::new().with(SizingPass::default()),
            &mut greedy,
            &tech,
            EvalModel::Elmore,
        );
        let mut annealed = base.clone();
        let schedule = OptSchedule::new()
            .seed(7)
            .with(AnnealedSizingPass::default());
        let a = run(&schedule, &mut annealed, &tech, EvalModel::Elmore);
        assert_eq!(a.after.buffers, g.after.buffers, "equal resource bounds");
        assert_eq!(a.after.ntsvs, g.after.ntsvs);
        assert!(
            a.after.skew_ps < g.after.skew_ps - 1e-9
                || a.after.latency_ps < g.after.latency_ps - 1e-9,
            "annealed (skew {:.3}, lat {:.3}) vs greedy (skew {:.3}, lat {:.3})",
            a.after.skew_ps,
            a.after.latency_ps,
            g.after.skew_ps,
            g.after.latency_ps
        );
    }

    #[test]
    fn annealed_star_moves_respect_objective() {
        let (mut t, tech) = tree();
        let cfg = AnnealConfig {
            star_prob: 0.3,
            moves: 1_500,
            ..AnnealConfig::default()
        };
        let w = cfg.weights;
        let schedule = OptSchedule::new().with(AnnealedSizingPass::new(cfg));
        let rep = run(&schedule, &mut t, &tech, EvalModel::Nldm);
        assert!(moes_objective_of(&w, &rep.after) <= moes_objective_of(&w, &rep.before) + 1e-9);
        assert_eq!(t.validate_sides(), Ok(()));
    }

    #[test]
    fn pattern_search_improves_objective_and_stays_legal() {
        let (mut t, tech) = tree();
        assert_eq!(t.validate_sides(), Ok(()));
        let cfg = PatternSearchConfig::default();
        let schedule = OptSchedule::new().with(PatternSearchPass::new(cfg));
        let rep = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        let w = cfg.weights;
        assert!(moes_objective_of(&w, &rep.after) <= moes_objective_of(&w, &rep.before) + 1e-9);
        assert_eq!(t.validate_sides(), Ok(()));
        // Hill climbing is deterministic: a second run from the result is
        // a fixed point.
        let rep2 = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        assert_eq!(rep2.passes[0].accepted, 0);
        assert_eq!(rep2.before, rep2.after);
    }

    #[test]
    fn pattern_search_swaps_preserve_endpoint_sides() {
        let (base, tech) = tree();
        let mut t = base.clone();
        let schedule = OptSchedule::new().with(PatternSearchPass::default());
        let _ = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        for (old, new) in base.patterns.iter().zip(&t.patterns).skip(1) {
            let (old, new) = (old.expect("assigned"), new.expect("assigned"));
            assert_eq!(old.root_side(), new.root_side());
            assert_eq!(old.sink_side(), new.sink_side());
        }
    }

    #[test]
    fn robust_schedule_improves_worst_corner_skew_here() {
        // The PR 5 acceptance experiment in miniature: the same
        // default-plus-annealed schedule, run once against the nominal
        // objective and once fanned out over SS/TT/FF with the
        // worst-corner objective. At equal resource bounds the robust run
        // must leave less skew in the worst corner.
        let (base, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let schedule = OptSchedule::default_post_cts(SkewConfig::default())
            .with(AnnealedSizingPass::default())
            .seed(7);
        let signoff = |t: &SynthesizedTree| {
            CornerReport::try_evaluate(t, &corners, EvalModel::Elmore).expect("feasible corners")
        };

        let mut nominal = base.clone();
        let _ = run(&schedule, &mut nominal, &tech, EvalModel::Elmore);
        let rn = signoff(&nominal);

        let mut robust = base.clone();
        let eval = IncrementalEval::with_corners(
            &mut robust,
            &corners,
            EvalModel::Elmore,
            RobustObjective::WorstCorner,
        )
        .expect("feasible corners");
        let rep = PassManager::new(&schedule).run(eval, None);
        let rr = signoff(&robust);

        assert_eq!(
            rn.per_corner[0].buffers, rr.per_corner[0].buffers,
            "equal resource bounds"
        );
        assert_eq!(rn.per_corner[0].ntsvs, rr.per_corner[0].ntsvs);
        assert!(
            rr.robust.worst_skew_ps < rn.robust.worst_skew_ps - 1e-9,
            "robust {:.3} vs nominal {:.3} worst-corner skew",
            rr.robust.worst_skew_ps,
            rn.robust.worst_skew_ps
        );
        // The schedule report's metrics are the nominal corner's view.
        assert_eq!(
            rep.after,
            robust.evaluate(corners.nominal_tech(), EvalModel::Elmore)
        );
    }

    #[test]
    fn custom_pass_runs_in_corner_mode() {
        // A corner-unaware pass (the module docs' example, plus a probe of
        // the evaluator it ran over) scheduled into a corner-aware
        // pipeline: its moves reach every corner, and each corner's
        // resident metrics equal a batch sign-off of the finished tree.
        use std::sync::Mutex;
        #[derive(Default)]
        struct MaxDrivePass {
            seen: Mutex<Vec<TreeMetrics>>,
        }
        impl OptPass for MaxDrivePass {
            fn name(&self) -> Cow<'static, str> {
                Cow::Borrowed("max-drive")
            }
            fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats {
                let eval = ctx.eval_mut();
                let mut stats = PassStats::default();
                for v in 1..eval.tree().topo.nodes.len() {
                    if eval.tree().patterns[v].is_some_and(|p| p.buffers() > 0) {
                        stats.attempted += 1;
                        if eval.set_buffer_scale(v, 2.0) {
                            stats.accepted += 1;
                        }
                    }
                }
                eval.commit();
                *self.seen.lock().expect("unpoisoned") = (0..eval.corner_count())
                    .map(|k| eval.corner_metrics(k))
                    .collect();
                stats
            }
        }

        let design = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let corners = CornerSet::asap7_pvt(&tech);
        let pass = Arc::new(MaxDrivePass::default());
        let outcome = crate::DsCts::new(tech.clone())
            .corners(corners.clone())
            .schedule(OptSchedule::new().with_arc(pass.clone()))
            .try_run(&design)
            .expect("C4 is feasible at every PVT corner");
        let report = outcome.optimization.as_ref().expect("schedule ran");
        assert!(report.passes[0].accepted > 0);
        let signoff = CornerReport::try_evaluate(&outcome.tree, &corners, EvalModel::Elmore)
            .expect("finished tree feasible at every corner");
        let seen = pass.seen.lock().expect("unpoisoned");
        assert_eq!(seen.len(), 3);
        assert_eq!(*seen, signoff.per_corner);
    }

    #[test]
    fn schedule_debug_lists_pass_names() {
        let s = OptSchedule::new()
            .with(AnnealedSizingPass::default())
            .with(PatternSearchPass::default());
        let dbg = format!("{s:?}");
        assert!(dbg.contains("annealed-sizing") && dbg.contains("pattern-search"));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn annealer_rejects_empty_scales() {
        let (mut t, tech) = tree();
        let cfg = AnnealConfig {
            scales: vec![],
            ..AnnealConfig::default()
        };
        let schedule = OptSchedule::new().with(AnnealedSizingPass::new(cfg));
        let _ = run(&schedule, &mut t, &tech, EvalModel::Elmore);
    }
}

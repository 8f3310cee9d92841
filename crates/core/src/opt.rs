//! Composable post-CTS optimization passes over [`IncrementalEval`].
//!
//! The paper's post-CTS phase (§III-D) is one fixed refinement loop, but
//! every optimizer this repo has grown since — greedy buffer sizing,
//! end-point refinement and annealed sizing — is the *same shape*: a
//! trial-move loop over a resident incremental evaluation of the tree,
//! accepting moves that improve an objective and rolling rejected ones
//! back through the journal. This module makes that shape a first-class
//! API:
//!
//! * [`OptPass`] — one optimizer: a name and a `run` over a shared
//!   [`OptCtx`] (the [`IncrementalEval`] and a seeded RNG), returning
//!   [`PassStats`].
//! * [`OptSchedule`] — an ordered, cloneable list of passes plus the RNG
//!   seed; the value a [`crate::DsCts`] pipeline carries.
//!   [`OptSchedule::run`] executes it over one borrowed evaluator and
//!   returns a [`ScheduleReport`]: one [`PassReport`] per pass with its
//!   move counts and wall clock (folded into [`crate::Outcome::stages`]
//!   as `opt:<name>` timings by the pipeline).
//!
//! A schedule takes no measurement of the tree. The evaluator it leaves
//! behind is bit-identical to a batch evaluation of the optimized tree,
//! so its callers read their measurement from it: the evaluate stage of
//! [`crate::DsCts::try_run_routed`] (and so of every run and service
//! job) and each class of the sweep engine
//! ([`crate::dse::SweepEngine`]).
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
//! [`crate::skew::EndpointRefinePass`] and [`AnnealedSizingPass`]:
//! seeded, deterministic simulated annealing over
//! [`IncrementalEval::set_buffer_scale`] (and optionally
//! [`IncrementalEval::set_star_buffer`]). The journal is the reject path:
//! the annealer commits only when a new best configuration appears and
//! finishes by reverting to the last one — so it can *never* degrade the
//! objective it anneals on. A custom pass may also swap an edge's
//! pattern ([`IncrementalEval::set_pattern`]) for one that starts and
//! ends on the same sides; the evaluator refuses any other, so every
//! schedule leaves the tree side-legal
//! ([`crate::SynthesizedTree::validate_sides`]).
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
//!     fn run(&self, ctx: &mut OptCtx<'_, '_>) -> PassStats {
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
/// a borrow of the resident evaluator (which borrows the tree mutably and
/// writes accepted knobs through) and a deterministic RNG. The
/// technology, delay model, corners and run-budget token are all
/// reachable through the evaluator, so a pass needs nothing beyond this
/// context.
#[derive(Debug)]
pub struct OptCtx<'e, 't> {
    eval: &'e mut IncrementalEval<'t>,
    rng: SmallRng,
}

impl<'t> OptCtx<'_, 't> {
    /// The resident evaluator (read-only).
    pub fn eval(&self) -> &IncrementalEval<'t> {
        &*self.eval
    }

    /// The resident evaluator, for mutations.
    pub fn eval_mut(&mut self) -> &mut IncrementalEval<'t> {
        &mut *self.eval
    }

    /// The evaluator and the RNG together — for passes (like annealing)
    /// that interleave trial moves with random draws.
    pub fn parts(&mut self) -> (&mut IncrementalEval<'t>, &mut SmallRng) {
        (&mut *self.eval, &mut self.rng)
    }

    /// The deterministic per-pass RNG. [`OptSchedule::run`] re-seeds it
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

/// What one pass did, in move counts. [`OptSchedule::run`] wraps this
/// with the pass's name and wall clock into a [`PassReport`].
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
    fn run(&self, ctx: &mut OptCtx<'_, '_>) -> PassStats;
}

/// One executed pass: its stats and wall clock.
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
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
}

/// Everything a schedule execution produced.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// One report per pass, in execution order.
    pub passes: Vec<PassReport>,
    /// Whether a run budget expired before every scheduled pass finished.
    /// The tree is still a valid, committed configuration — the schedule
    /// was cut short, not corrupted — and the pipeline surfaces this as
    /// [`crate::Outcome::degraded`].
    pub truncated: bool,
}

/// An ordered list of [`OptPass`]es plus the RNG seed — the value a
/// [`crate::DsCts`] pipeline carries and [`OptSchedule::run`] executes.
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

    /// The schedule the default pipeline runs: the paper's §III-D
    /// end-point skew refinement only.
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

    /// Runs every pass in order over the borrowed `eval`; accepted knobs
    /// are written through to its tree. Each pass gets a fresh RNG seeded
    /// with `seed + pass index`. See the [module docs](self) for the
    /// architecture.
    ///
    /// The schedule measures nothing itself. It leaves `eval` committed
    /// and resident, so the caller can read the optimized tree's score
    /// from it ([`IncrementalEval::latency_skew_ps`],
    /// [`IncrementalEval::metrics`]) without evaluating the tree again;
    /// the sweep engine scores its classes that way.
    ///
    /// `cancel` attaches a run budget: the evaluator rejects every move
    /// once the token trips, the built-in passes poll it inside their
    /// trial loops, and it is checked at every pass boundary.
    /// Cancellation truncates the schedule — finished work is kept, the
    /// report is flagged [`ScheduleReport::truncated`]. `None`, or a token
    /// that never trips, is bit-identical to an unbudgeted run. The token
    /// stays attached to `eval` afterwards.
    pub fn run(
        &self,
        eval: &mut IncrementalEval<'_>,
        cancel: Option<&CancelToken>,
    ) -> ScheduleReport {
        let mut ctx = OptCtx {
            eval,
            rng: SmallRng::seed_from_u64(self.seed),
        };
        ctx.eval.set_cancel(cancel.cloned());
        let mut passes = Vec::with_capacity(self.passes.len());
        let mut truncated = false;
        for (i, pass) in self.passes.iter().enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                // Budget expired between passes: keep what earlier passes
                // committed, skip the rest of the schedule.
                truncated = true;
                break;
            }
            ctx.rng = SmallRng::seed_from_u64(self.seed.wrapping_add(i as u64));
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
            passes.push(PassReport {
                name: pass.name(),
                attempted: stats.attempted,
                accepted: stats.accepted,
                triggered: stats.triggered,
                seconds,
            });
        }
        // A budget that fired inside the final pass still truncated it.
        truncated |= cancel.is_some_and(CancelToken::is_cancelled);
        ScheduleReport { passes, truncated }
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

    fn run(&self, ctx: &mut OptCtx<'_, '_>) -> PassStats {
        let cancel = ctx.cancel().cloned();
        let (eval, rng) = ctx.parts();
        self.anneal(eval, rng, cancel.as_ref())
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
        schedule.run(&mut IncrementalEval::new(t, tech, model), None)
    }

    #[test]
    fn empty_schedule_is_identity() {
        let (mut t, tech) = tree();
        let base = t.clone();
        let rep = run(&OptSchedule::new(), &mut t, &tech, EvalModel::Elmore);
        assert!(rep.passes.is_empty());
        assert!(!rep.truncated);
        assert_eq!(t, base);
    }

    #[test]
    fn manager_reports_chained_metrics() {
        // Two passes over one evaluator: the report lists both in order,
        // and the annealer starts from the tree sizing left, so the batch
        // evaluation of the result never scores worse on the annealer's
        // objective than sizing alone.
        let (base, tech) = tree();
        let mut sized = base.clone();
        let _ = run(
            &OptSchedule::new().with(SizingPass::new(SizingConfig::default())),
            &mut sized,
            &tech,
            EvalModel::Elmore,
        );
        let mut t = base.clone();
        let schedule = OptSchedule::new()
            .with(SizingPass::new(SizingConfig::default()))
            .with(AnnealedSizingPass::default());
        let rep = run(&schedule, &mut t, &tech, EvalModel::Elmore);
        assert_eq!(rep.passes.len(), 2);
        assert_eq!(rep.passes[0].name, SizingPass::NAME);
        assert_eq!(rep.passes[1].name, AnnealedSizingPass::NAME);
        assert!(rep.passes.iter().all(|p| p.seconds >= 0.0));
        assert!(rep.passes[0].accepted > 0);
        // The evaluator wrote accepted knobs through to the tree.
        assert_ne!(t, base);
        let w = AnnealConfig::default().weights;
        let (before, mid, after) = (
            base.evaluate(&tech, EvalModel::Elmore),
            sized.evaluate(&tech, EvalModel::Elmore),
            t.evaluate(&tech, EvalModel::Elmore),
        );
        assert!(moes_objective_of(&w, &after) <= moes_objective_of(&w, &mid) + 1e-9);
        assert_eq!((after.buffers, after.ntsvs), (before.buffers, before.ntsvs));
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
        assert_eq!(r1.passes[0].accepted, r2.passes[0].accepted);
        let before = base.evaluate(&tech, EvalModel::Elmore);
        let after = t1.evaluate(&tech, EvalModel::Elmore);
        // Never degrades the objective it anneals on.
        assert!(moes_objective_of(&w, &after) <= moes_objective_of(&w, &before) + 1e-9);
        // Pure sizing: resource counts are bit-equal.
        assert_eq!(after.buffers, before.buffers);
        assert_eq!(after.ntsvs, before.ntsvs);
    }

    #[test]
    fn annealed_sizing_beats_greedy_on_skew_here() {
        // The acceptance experiment in miniature: same scale alphabet,
        // no star toggles, latency-greedy DP leaves skew on the table.
        let (base, tech) = tree();
        let mut greedy = base.clone();
        let _ = run(
            &OptSchedule::new().with(SizingPass::default()),
            &mut greedy,
            &tech,
            EvalModel::Elmore,
        );
        let mut annealed = base.clone();
        let schedule = OptSchedule::new()
            .seed(7)
            .with(AnnealedSizingPass::default());
        let _ = run(&schedule, &mut annealed, &tech, EvalModel::Elmore);
        let g = greedy.evaluate(&tech, EvalModel::Elmore);
        let a = annealed.evaluate(&tech, EvalModel::Elmore);
        assert_eq!(a.buffers, g.buffers, "equal resource bounds");
        assert_eq!(a.ntsvs, g.ntsvs);
        assert!(
            a.skew_ps < g.skew_ps - 1e-9 || a.latency_ps < g.latency_ps - 1e-9,
            "annealed (skew {:.3}, lat {:.3}) vs greedy (skew {:.3}, lat {:.3})",
            a.skew_ps,
            a.latency_ps,
            g.skew_ps,
            g.latency_ps
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
        let before = t.evaluate(&tech, EvalModel::Nldm);
        let schedule = OptSchedule::new().with(AnnealedSizingPass::new(cfg));
        let _ = run(&schedule, &mut t, &tech, EvalModel::Nldm);
        let after = t.evaluate(&tech, EvalModel::Nldm);
        assert!(moes_objective_of(&w, &after) <= moes_objective_of(&w, &before) + 1e-9);
        assert_eq!(t.validate_sides(), Ok(()));
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
        let mut eval = IncrementalEval::with_corners(
            &mut robust,
            &corners,
            EvalModel::Elmore,
            RobustObjective::WorstCorner,
        )
        .expect("feasible corners");
        let _ = schedule.run(&mut eval, None);
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
            fn run(&self, ctx: &mut OptCtx<'_, '_>) -> PassStats {
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
            .with(SizingPass::default());
        let dbg = format!("{s:?}");
        assert!(
            dbg.contains(r#"passes: ["annealed-sizing", "sizing"]"#),
            "{dbg}"
        );
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

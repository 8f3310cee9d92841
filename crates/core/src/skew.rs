//! Resource-aware end-point skew refinement (§III-D).
//!
//! The DP optimises latency and resources; skew can degrade. Refinement
//! inserts delay-padding buffers at the low-level clustering centroids of
//! the **fastest** end-points, pulling the minimum arrival up toward the
//! maximum. It triggers only when skew exceeds `p %` of the maximum latency
//! (`p = 23` in the experiments) and refines at most
//! `n = min(N·t, m)` end-points, with `m = 33` and the adaptive scale
//! factor `t(N)` of Fig. 8.
//!
//! *Interpretation note.* The paper says end-points are refined "in
//! descending order of delay"; since inserting a buffer **adds** delay,
//! reducing skew requires padding the *earliest* end-points, i.e.
//! descending order of slack (max-latency − delay). That reading is
//! implemented here and verified by the Fig. 11 bench: skew drops sharply
//! while latency and buffer count barely move.
//!
//! The optimizer is packaged as [`EndpointRefinePass`] for the composable
//! [`crate::opt`] schedule API — the default pipeline schedule is exactly
//! this one pass.

use crate::incremental::IncrementalEval;
use crate::opt::{OptCtx, OptPass, PassStats};
use crate::resilience::CancelToken;
use crate::synth::TreeMetrics;
use std::borrow::Cow;

/// Configuration of the refinement step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// Trigger threshold: refine only when `skew > p% · latency`.
    pub trigger_percent: f64,
    /// Maximum refined end-points `m`.
    pub max_endpoints: usize,
    /// Maximum refinement rounds (the paper describes one pass; more
    /// rounds keep chasing the trigger condition).
    pub max_rounds: usize,
}

impl Default for SkewConfig {
    /// The paper's setting: `p = 23`, `m = 33`, one pass.
    fn default() -> Self {
        SkewConfig {
            trigger_percent: 23.0,
            max_endpoints: 33,
            max_rounds: 1,
        }
    }
}

/// What the refinement did.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Whether the trigger condition held and refinement ran.
    pub triggered: bool,
    /// Refinement buffers added (over all rounds).
    pub buffers_added: usize,
    /// Metrics before refinement.
    pub before: TreeMetrics,
    /// Metrics after refinement (equals `before` when not triggered).
    pub after: TreeMetrics,
}

/// The adaptive scale factor `t` as a function of the sink count `N`
/// (Fig. 8): `t = 0.1` up to `N/10 000 = 0.6`, falling linearly to
/// `t = 0.06` at `N/10 000 = 1.0`, constant beyond.
///
/// ```
/// use dscts_core::skew::scale_factor;
/// assert_eq!(scale_factor(1_000), 0.1);
/// assert_eq!(scale_factor(10_000), 0.06);
/// assert!((scale_factor(8_000) - 0.08).abs() < 1e-12);
/// ```
pub fn scale_factor(n_sinks: usize) -> f64 {
    let x = n_sinks as f64 / 10_000.0;
    if x <= 0.6 {
        0.1
    } else if x >= 1.0 {
        0.06
    } else {
        0.1 - 0.04 * (x - 0.6) / 0.4
    }
}

/// Number of end-points to refine for a design with `n_sinks` sinks.
pub fn endpoint_budget(n_sinks: usize, max_endpoints: usize) -> usize {
    ((n_sinks as f64 * scale_factor(n_sinks)) as usize).min(max_endpoints)
}

/// The §III-D end-point refinement optimizer as a composable [`OptPass`].
///
/// This is the default pipeline's whole optimization schedule (see
/// [`crate::opt::OptSchedule::default_post_cts`]). [`PassStats::triggered`]
/// reports whether the skew-over-latency trigger condition held.
///
/// A centroid is only padded when (a) it does not already carry a
/// refinement buffer and (b) the added buffer delay will not push its
/// sinks beyond the current maximum arrival (the *resource-aware* guard
/// that keeps latency flat in Fig. 11). Each candidate buffer is applied
/// through [`IncrementalEval`], so a round costs
/// O(endpoints × (depth + subtree)) instead of a full tree evaluation per
/// round, and a rejected round is a journal rollback.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EndpointRefinePass {
    /// Trigger, budget and round cap.
    pub cfg: SkewConfig,
}

impl EndpointRefinePass {
    /// The pass's stable name. Reserved: the pipeline reconstructs
    /// [`RefineReport`] ([`crate::Outcome::refinement`]) from the pass
    /// carrying this name, so a custom [`OptPass`] must not reuse it —
    /// its stats would be misread as §III-D refinement numbers.
    pub const NAME: &'static str = "endpoint-refine";

    /// A pass with the given configuration.
    pub fn new(cfg: SkewConfig) -> Self {
        EndpointRefinePass { cfg }
    }

    /// Runs the refinement rounds over an existing evaluator — padding
    /// nominal end-points over a single-corner evaluator, or worst-corner
    /// end-points over a corner-aware one (trigger, ranking and the
    /// accept/rollback guard all read the objective view). This is the
    /// entire optimizer; the [`OptPass`] impl delegates here.
    ///
    /// Under a run budget the token is polled between padded end-points
    /// and each attempted pad is charged to the trial budget; cancellation
    /// ends the current round early (the round's accept-or-rollback guard
    /// still runs, so the tree is left in a committed, skew-improving
    /// state). `None` never cancels.
    pub fn run_on(&self, eval: &mut IncrementalEval, cancel: Option<&CancelToken>) -> PassStats {
        let cfg = &self.cfg;
        let n_sinks = eval.tree().topo.sink_pos.len();
        let budget_per_round = endpoint_budget(n_sinks, cfg.max_endpoints);
        let mut stats = PassStats {
            triggered: false,
            ..PassStats::default()
        };
        let mut cancelled = false;

        for _ in 0..cfg.max_rounds {
            let (current_latency, current_skew) = eval.latency_skew_ps();
            if current_skew <= cfg.trigger_percent / 100.0 * current_latency {
                break;
            }
            stats.triggered = true;
            // Rank stars by their earliest sink arrival (fastest first).
            let mut star_arrival: Vec<(usize, f64)> = (0..eval.tree().topo.stars.len())
                .filter(|&si| !eval.tree().star_buffers[si])
                .map(|si| (si, eval.star_earliest(si)))
                .collect();
            star_arrival.sort_by(|a, b| a.1.total_cmp(&b.1));

            // Estimate the padding each buffer adds: the buffer delay
            // driving the star load (shielding the trunk barely moves its
            // arrival).
            let mut added_this_round = 0usize;
            let round_mark = eval.mark();
            for (si, earliest) in star_arrival {
                if added_this_round >= budget_per_round {
                    break;
                }
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    cancelled = true;
                    break;
                }
                let pad = eval.tech().buffer().delay_ps(eval.star_load(si));
                // Resource-aware guard: do not overshoot the current
                // maximum.
                if earliest + pad > current_latency {
                    continue;
                }
                stats.attempted += 1;
                if let Some(token) = cancel {
                    token.record_trial();
                }
                if eval.set_star_buffer(si, true) {
                    added_this_round += 1;
                }
            }
            if added_this_round == 0 {
                break;
            }
            // Shielding the trunk shifts other arrivals too; accept the
            // round only when skew actually improved, else roll it back.
            let (round_latency, round_skew) = eval.latency_skew_ps();
            if round_skew < current_skew && round_latency <= current_latency + 1e-9 {
                stats.accepted += added_this_round;
                eval.commit();
            } else {
                eval.undo_to(round_mark);
                break;
            }
            if cancelled {
                break;
            }
        }
        stats
    }
}

impl OptPass for EndpointRefinePass {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed(Self::NAME)
    }

    fn run(&self, ctx: &mut OptCtx<'_>) -> PassStats {
        let cancel = ctx.cancel().cloned();
        self.run_on(ctx.eval_mut(), cancel.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{try_run_dp, DpConfig, MoesWeights};
    use crate::opt::{OptSchedule, PassManager, PassReport};
    use crate::route::HierarchicalRouter;
    use crate::synth::{EvalModel, SynthesizedTree};
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

    /// One refinement pass over `tree`, through the pass manager.
    fn refine(tree: &mut SynthesizedTree, tech: &Technology, cfg: SkewConfig) -> PassReport {
        let schedule = OptSchedule::new().with(EndpointRefinePass::new(cfg));
        let eval = IncrementalEval::new(tree, tech, EvalModel::Elmore);
        let mut report = PassManager::new(&schedule).run(eval, None);
        report.passes.remove(0)
    }

    #[test]
    fn scale_factor_matches_fig8() {
        // Plateau, linear ramp, floor.
        assert_eq!(scale_factor(0), 0.1);
        assert_eq!(scale_factor(6_000), 0.1);
        assert_eq!(scale_factor(10_000), 0.06);
        assert_eq!(scale_factor(50_000), 0.06);
        let mid = scale_factor(8_000);
        assert!((mid - 0.08).abs() < 1e-12);
        // Monotone non-increasing.
        let mut prev = f64::INFINITY;
        for n in (0..20_000).step_by(500) {
            let t = scale_factor(n);
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn endpoint_budget_caps_at_m() {
        // All Table II designs have N·t > 33, so n = m = 33.
        for spec in BenchmarkSpec::all() {
            assert_eq!(endpoint_budget(spec.num_ffs, 33), 33);
        }
        // Tiny designs scale with N.
        assert_eq!(endpoint_budget(100, 33), 10);
    }

    #[test]
    fn refinement_reduces_skew_without_hurting_latency() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(20_000);
        // Latency-greedy MOES tends to leave skew on the table.
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
        let mut tree = SynthesizedTree::new(topo, res.assignment);
        let report = refine(
            &mut tree,
            &tech,
            SkewConfig {
                trigger_percent: 0.0, // force the pass for the test
                ..SkewConfig::default()
            },
        );
        assert!(report.triggered);
        assert!(report.after.skew_ps <= report.before.skew_ps + 1e-9);
        // Latency must not regress: padding only the fastest end-points.
        assert!(report.after.latency_ps <= report.before.latency_ps + 1e-9);
        assert_eq!(
            report.after.buffers,
            report.before.buffers + report.accepted as u32
        );
        assert!(report.accepted <= 33);
    }

    #[test]
    fn refinement_respects_trigger() {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().try_route(&d, &tech).unwrap();
        topo.subdivide(20_000);
        let res = try_run_dp(&topo, &tech, &DpConfig::default(), None, None, None)
            .unwrap()
            .0;
        let mut tree = SynthesizedTree::new(topo, res.assignment);
        let report = refine(
            &mut tree,
            &tech,
            SkewConfig {
                trigger_percent: 1_000.0, // never triggers
                ..SkewConfig::default()
            },
        );
        assert!(!report.triggered);
        assert_eq!(report.accepted, 0);
        assert_eq!(report.before, report.after);
    }
}

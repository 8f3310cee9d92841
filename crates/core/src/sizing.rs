//! Post-CTS buffer sizing for skew (§IV-A's deferred optimization).
//!
//! The paper inserts a single buffer cell and notes that "buffer sizing
//! will be further optimized for skew minimization in the follow-up clock
//! tree optimization after clock tree synthesis". This module implements
//! that follow-up stage: every pattern-embedded buffer may be resized
//! among a discrete set of drive strengths (e.g. x2/x4/x8 relative scales
//! 0.5/1.0/2.0), and a greedy balance pass re-sizes the *last* buffer on
//! each root-to-sink path — downsizing fast paths (more delay, less input
//! cap) and upsizing slow ones — to shrink global skew without adding
//! cells.
//!
//! Every trial move is scored through [`IncrementalEval`]: a scale change
//! re-propagates O(depth + subtree) state instead of re-evaluating the
//! whole tree, and a rejected trial is a journal rollback. Metrics remain
//! bit-identical to the batch evaluator (see the `incremental` module
//! invariants), so this is a pure speedup.
//!
//! The optimizer is packaged as [`SizingPass`] for the composable
//! [`crate::opt`] schedule API; schedule it through
//! [`crate::opt::PassManager`] or a [`crate::DsCts`] pipeline.

use crate::incremental::IncrementalEval;
use crate::opt::{OptCtx, OptPass, PassStats};
use crate::resilience::CancelToken;
use std::borrow::Cow;

/// Configuration of the sizing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingConfig {
    /// Available drive scales relative to the library buffer (sorted
    /// ascending). Defaults to `[0.5, 1.0, 2.0]` (x2 / x4 / x8 for the
    /// BUFx4 base cell).
    pub scales: Vec<f64>,
    /// Safety cap on greedy sweep rounds. Every accepted move strictly
    /// reduces skew, so the sweep terminates on its own (a round with no
    /// accepted move is a fixed point and the pass is then idempotent);
    /// the cap only bounds pathological inputs. The default is high
    /// enough that real designs converge well before hitting it.
    pub max_rounds: usize,
}

impl Default for SizingConfig {
    fn default() -> Self {
        SizingConfig {
            scales: vec![0.5, 1.0, 2.0],
            max_rounds: 64,
        }
    }
}

/// The greedy buffer-sizing optimizer as a composable [`OptPass`].
///
/// Re-sizes the final buffer of each leaf path to balance sink arrivals;
/// changes are kept only when they reduce skew without hurting latency.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SizingPass {
    /// The scale alphabet and round cap.
    pub cfg: SizingConfig,
}

impl SizingPass {
    /// The pass's stable name.
    pub const NAME: &'static str = "sizing";

    /// A pass with the given configuration.
    pub fn new(cfg: SizingConfig) -> Self {
        SizingPass { cfg }
    }

    /// Runs the greedy sweep over an existing evaluator — sizing for
    /// nominal skew over a single-corner evaluator, or for worst-corner
    /// skew over a corner-aware one. This is the entire optimizer; the
    /// [`OptPass`] impl delegates here.
    ///
    /// Under a run budget the token is polled between stars and each
    /// attempted scale is charged to the trial budget; cancellation keeps
    /// every already-committed resize (accepted moves commit per star, so
    /// truncation never corrupts the tree). `None` never cancels.
    ///
    /// # Panics
    ///
    /// Panics if the configured scales are empty or non-positive.
    pub fn run_on(&self, eval: &mut IncrementalEval, cancel: Option<&CancelToken>) -> PassStats {
        let cfg = &self.cfg;
        assert!(
            !cfg.scales.is_empty() && cfg.scales.iter().all(|&s| s > 0.0),
            "scales must be positive"
        );
        // The last buffered trunk edge above each star.
        let tree = eval.tree();
        let last_buffered: Vec<Option<usize>> = tree
            .topo
            .stars
            .iter()
            .map(|s| {
                let mut v = s.node;
                loop {
                    if tree.patterns[v as usize].is_some_and(|p| p.buffers() > 0) {
                        return Some(v as usize);
                    }
                    match tree.topo.nodes[v as usize].parent {
                        Some(p) if p != 0 => v = p,
                        _ => return None,
                    }
                }
            })
            .collect();

        let mut stats = PassStats::default();
        let mut cancelled = false;
        for _ in 0..cfg.max_rounds {
            let mut changed = 0usize;
            // Process stars from the fastest upward: downsizing their last
            // buffer pads their arrival toward the mean.
            let mut order: Vec<usize> = (0..eval.tree().topo.stars.len()).collect();
            order.sort_by(|&a, &b| eval.star_earliest(a).total_cmp(&eval.star_earliest(b)));
            for si in order {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    cancelled = true;
                    break;
                }
                let Some(edge) = last_buffered[si] else {
                    continue;
                };
                let old_scale = eval.buffer_scale(edge);
                let (current_latency, current_skew) = eval.latency_skew_ps();
                let mut best = (current_skew, old_scale);
                for &s in &cfg.scales {
                    if (s - old_scale).abs() < 1e-12 {
                        continue;
                    }
                    stats.attempted += 1;
                    if let Some(token) = cancel {
                        token.record_trial();
                    }
                    // An infeasible scale (overloaded buffer anywhere on the
                    // dirty path) rolls itself back and returns false.
                    if !eval.set_buffer_scale(edge, s) {
                        continue;
                    }
                    let (trial_latency, trial_skew) = eval.latency_skew_ps();
                    if trial_skew < best.0 - 1e-9 && trial_latency <= current_latency + 1e-9 {
                        best = (trial_skew, s);
                    }
                    eval.undo();
                }
                // The winner was feasible when scored; re-applying it fails
                // only when the run budget tripped since.
                if (best.1 - old_scale).abs() > 1e-12 && eval.set_buffer_scale(edge, best.1) {
                    eval.commit();
                    changed += 1;
                }
            }
            stats.accepted += changed;
            if changed == 0 || cancelled {
                break;
            }
        }
        stats
    }
}

impl OptPass for SizingPass {
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
    use crate::opt::{OptSchedule, PassManager, ScheduleReport};
    use crate::route::HierarchicalRouter;
    use crate::synth::{EvalModel, SynthesizedTree};
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

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

    /// One greedy sizing pass over `t`, through the pass manager.
    fn size(t: &mut SynthesizedTree, tech: &Technology, cfg: SizingConfig) -> ScheduleReport {
        let schedule = OptSchedule::new().with(SizingPass::new(cfg));
        PassManager::new(&schedule).run(IncrementalEval::new(t, tech, EvalModel::Elmore), None)
    }

    #[test]
    fn sizing_reduces_skew_without_latency_loss() {
        let (mut t, tech) = tree();
        let report = size(&mut t, &tech, SizingConfig::default());
        assert!(report.after.skew_ps <= report.before.skew_ps + 1e-9);
        assert!(report.after.latency_ps <= report.before.latency_ps + 1e-9);
        // Cell count is untouched: sizing only changes strengths.
        assert_eq!(report.after.buffers, report.before.buffers);
        assert_eq!(report.after.ntsvs, report.before.ntsvs);
    }

    #[test]
    fn sizing_is_idempotent_at_fixed_point() {
        let (mut t, tech) = tree();
        let _ = size(&mut t, &tech, SizingConfig::default());
        let second = size(&mut t, &tech, SizingConfig::default());
        assert_eq!(second.passes[0].accepted, 0);
        assert_eq!(second.before, second.after);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_empty_scales() {
        let (mut t, tech) = tree();
        let _ = size(
            &mut t,
            &tech,
            SizingConfig {
                scales: vec![],
                max_rounds: 1,
            },
        );
    }

    #[test]
    fn scaled_eval_shields_more_with_bigger_buffers() {
        use crate::pattern::Pattern;
        let tech = Technology::asap7();
        let small = Pattern::Buffer
            .eval_scaled(40_000, 25.0, &tech, 0.5)
            .unwrap();
        let big = Pattern::Buffer
            .eval_scaled(40_000, 25.0, &tech, 2.0)
            .unwrap();
        // Bigger buffer: faster stage, heavier input pin.
        assert!(big.delay_ps < small.delay_ps);
        assert!(big.up_cap_ff > small.up_cap_ff);
        // A half-size buffer cannot drive what the double-size one can.
        assert!(Pattern::Buffer
            .eval_scaled(40_000, 60.0, &tech, 0.5)
            .is_none());
        assert!(Pattern::Buffer
            .eval_scaled(40_000, 60.0, &tech, 2.0)
            .is_some());
    }
}

//! Multi-corner multi-mode (MCMM) objectives and reports.
//!
//! The paper optimizes skew/latency/resources under a single nominal
//! delay model, but real double-side CTS sign-off is multi-corner:
//! front/back RC, nTSV and buffer delays derate differently across PVT
//! corners (`dscts_tech::CornerSet`), and a tree sized at nominal can be
//! badly skewed at SS. The incremental evaluator itself is corner-aware
//! ([`crate::IncrementalEval::with_corners`] keeps one resident state per
//! corner and repairs every corner on each mutation); this module holds
//! what sits around it:
//!
//! * [`RobustObjective`] — which cross-corner reduction the evaluator's
//!   *objective view* (what the optimization passes score with) reports:
//!   the nominal corner, or the component-wise worst corner (minimax).
//!   Any [`crate::opt`] schedule run over a corner-aware evaluator
//!   therefore optimizes worst-corner MOES instead of nominal without
//!   changing a pass.
//! * [`RobustMetrics`] / [`CornerReport`] — cross-corner summaries:
//!   worst-corner latency/skew (and which corner attains them) plus the
//!   cross-corner arrival spread, an OCV proxy (the maximum over sinks
//!   of the corner-to-corner arrival range).
//!
//! # Bit-identity and cost
//!
//! Every corner runs exactly the single-corner repair arithmetic, so an
//! evaluator over a single identity corner ([`CornerSet::nominal_only`])
//! is bit-identical to [`crate::IncrementalEval::new`] under arbitrary
//! interleaved mutations and undos — enforced by `mcmm_proptests` for
//! both [`EvalModel`]s. A K-corner mutation costs K dirty paths
//! (O(K·(depth + subtree))) instead of the K full `evaluate()` calls a
//! non-incremental MCMM loop would pay.

use crate::error::CtsError;
use crate::synth::{EvalModel, SynthesizedTree, TreeMetrics};
use dscts_tech::CornerSet;

/// Which cross-corner reduction the evaluator's objective view reports
/// to the optimization passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RobustObjective {
    /// Score with the nominal corner only — the single-corner behaviour,
    /// with the other corners along for reporting.
    Nominal,
    /// Score with the component-wise worst corner: the maximum latency
    /// and the maximum skew over all corners (possibly attained at
    /// different corners). Minimizing a weighted sum of these minimizes
    /// an upper bound on every corner's MOES — the minimax ("robust")
    /// objective. Star-level rankings
    /// ([`crate::IncrementalEval::star_earliest`],
    /// [`crate::IncrementalEval::star_load`],
    /// [`crate::IncrementalEval::tech`]) come from the corner currently
    /// attaining the worst skew, the one a skew-repair pass needs to fix.
    #[default]
    WorstCorner,
}

/// Cross-corner robust summary of one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustMetrics {
    /// Maximum latency over all corners (ps).
    pub worst_latency_ps: f64,
    /// Index of the corner attaining it.
    pub worst_latency_corner: usize,
    /// Maximum skew over all corners (ps).
    pub worst_skew_ps: f64,
    /// Index of the corner attaining it.
    pub worst_skew_corner: usize,
    /// The OCV proxy: the maximum over sinks of the cross-corner arrival
    /// range `max_k arr_k − min_k arr_k` (ps). Zero for a single corner.
    pub arrival_spread_ps: f64,
}

impl RobustMetrics {
    /// Folds per-corner metrics (in corner order) into the robust
    /// summary. All corners must report the same sink count.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched arrival arities.
    pub fn from_corner_metrics(per_corner: &[TreeMetrics]) -> RobustMetrics {
        assert!(!per_corner.is_empty(), "at least one corner");
        let (mut worst_latency_ps, mut worst_latency_corner) = (f64::NEG_INFINITY, 0);
        let (mut worst_skew_ps, mut worst_skew_corner) = (f64::NEG_INFINITY, 0);
        for (k, m) in per_corner.iter().enumerate() {
            if m.latency_ps > worst_latency_ps {
                worst_latency_ps = m.latency_ps;
                worst_latency_corner = k;
            }
            if m.skew_ps > worst_skew_ps {
                worst_skew_ps = m.skew_ps;
                worst_skew_corner = k;
            }
        }
        let n_sinks = per_corner[0].arrivals.len();
        assert!(
            per_corner.iter().all(|m| m.arrivals.len() == n_sinks),
            "corners must share the sink set"
        );
        let mut arrival_spread_ps = 0.0f64;
        for s in 0..n_sinks {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for m in per_corner {
                lo = lo.min(m.arrivals[s]);
                hi = hi.max(m.arrivals[s]);
            }
            arrival_spread_ps = arrival_spread_ps.max(hi - lo);
        }
        RobustMetrics {
            worst_latency_ps,
            worst_latency_corner,
            worst_skew_ps,
            worst_skew_corner,
            arrival_spread_ps,
        }
    }
}

/// Per-corner metrics of one finished tree plus the robust summary —
/// the optional corner report a corner-aware pipeline run attaches to
/// its [`crate::Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct CornerReport {
    /// Corner names, in corner order.
    pub corner_names: Vec<String>,
    /// Full metrics per corner, in corner order.
    pub per_corner: Vec<TreeMetrics>,
    /// Index of the nominal corner.
    pub nominal: usize,
    /// The cross-corner summary.
    pub robust: RobustMetrics,
}

impl CornerReport {
    /// Evaluates `tree` under every corner of `corners` (batch
    /// evaluation per corner) and folds the robust summary.
    ///
    /// A pattern the DP chose near its buffer's max-load budget at
    /// nominal can overload that buffer under a capacitance-derating
    /// corner. That is a data-dependent infeasibility of *this* tree at
    /// *this* corner, reported as the typed
    /// [`CtsError::NoFeasiblePattern`] of the first offending corner (in
    /// corner order) so callers can retry through the recovery ladder —
    /// relaxations change the pattern assignment — instead of crashing
    /// mid-sign-off.
    pub fn try_evaluate(
        tree: &SynthesizedTree,
        corners: &CornerSet,
        model: EvalModel,
    ) -> Result<CornerReport, CtsError> {
        let per_corner = corners
            .techs()
            .iter()
            .map(|tech| tree.try_evaluate(tech, model))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CornerReport::new(corners, per_corner))
    }

    /// The report of `per_corner`, one tree's metrics under each corner
    /// of `corners` in order: the batch sign-off above and the evaluate
    /// stage, which reads them from its evaluator, fold them here.
    pub(crate) fn new(corners: &CornerSet, per_corner: Vec<TreeMetrics>) -> CornerReport {
        CornerReport {
            corner_names: corners
                .corners()
                .iter()
                .map(|c| c.name().to_owned())
                .collect(),
            robust: RobustMetrics::from_corner_metrics(&per_corner),
            per_corner,
            nominal: corners.nominal_index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{try_run_dp, DpConfig, MoesWeights};
    use crate::incremental::IncrementalEval;
    use crate::route::HierarchicalRouter;
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

    /// The worst-corner evaluator over `corners`.
    fn robust<'a>(
        t: &'a mut SynthesizedTree,
        corners: &'a CornerSet,
        model: EvalModel,
    ) -> IncrementalEval<'a> {
        IncrementalEval::with_corners(t, corners, model, RobustObjective::WorstCorner)
            .expect("C4 is feasible at every PVT corner")
    }

    #[test]
    fn per_corner_states_match_batch_per_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            let batch: Vec<TreeMetrics> = corners
                .techs()
                .iter()
                .map(|ct| t.evaluate(ct, model))
                .collect();
            let mc = robust(&mut t, &corners, model);
            for (k, b) in batch.iter().enumerate() {
                assert_eq!(&mc.corner_metrics(k), b, "corner {k}");
            }
        }
    }

    #[test]
    fn fanned_mutation_matches_batch_in_every_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let mut mc = robust(&mut t, &corners, EvalModel::Elmore);
        assert!(mc.set_buffer_scale(edge, 2.0));
        assert!(mc.set_star_buffer(0, true));
        let per_corner: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        drop(mc);
        for (k, m) in per_corner.iter().enumerate() {
            assert_eq!(
                &t.evaluate(corners.tech(k), EvalModel::Elmore),
                m,
                "corner {k} diverged from batch"
            );
        }
    }

    #[test]
    fn shared_journal_reverts_all_corners_atomically() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mut mc = robust(&mut t, &corners, EvalModel::Nldm);
        let before: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        let mark = mc.mark();
        assert!(mc.set_star_buffer(0, true));
        assert!(mc.set_star_buffer(1, true));
        assert_ne!(mc.corner_metrics(0), before[0]);
        mc.undo_to(mark);
        for (k, b) in before.iter().enumerate() {
            assert_eq!(&mc.corner_metrics(k), b, "corner {k} not restored");
        }
        assert_eq!(mc.mark(), mark);
    }

    #[test]
    fn infeasible_anywhere_rolls_back_everywhere() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let mut mc = robust(&mut t, &corners, EvalModel::Elmore);
        let before: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        // A vanishing buffer cannot drive its load in any corner.
        assert!(!mc.set_buffer_scale(edge, 1e-6));
        for (k, b) in before.iter().enumerate() {
            assert_eq!(&mc.corner_metrics(k), b, "corner {k} not rolled back");
        }
        assert_eq!(mc.mark(), 0, "failed mutation leaves an empty journal");
    }

    #[test]
    fn worst_view_bounds_every_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mc = robust(&mut t, &corners, EvalModel::Elmore);
        let (wl, ws) = mc.latency_skew_ps();
        for k in 0..mc.corner_count() {
            let (l, s) = mc.corner_latency_skew_ps(k);
            assert!(l <= wl && s <= ws);
        }
        // SS (corner 0) is slower than FF (corner 2) everywhere.
        assert!(mc.corner_latency_skew_ps(0).0 > mc.corner_latency_skew_ps(2).0);
        let per_corner = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        let r = CornerReport::new(&corners, per_corner).robust;
        assert_eq!(r.worst_latency_ps, wl);
        assert_eq!(r.worst_skew_ps, ws);
        assert!(r.arrival_spread_ps > 0.0);
    }

    #[test]
    fn objective_views_differ_as_configured() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mc = robust(&mut t, &corners, EvalModel::Elmore);
        let worst = mc.latency_skew_ps();
        let corner_max = (0..mc.corner_count())
            .map(|k| mc.corner_latency_skew_ps(k))
            .fold(
                (f64::NEG_INFINITY, f64::NEG_INFINITY),
                |(l, s), (cl, cs)| (l.max(cl), s.max(cs)),
            );
        assert_eq!(worst, corner_max);
        let nominal_view = IncrementalEval::with_corners(
            &mut t,
            &corners,
            EvalModel::Elmore,
            RobustObjective::Nominal,
        )
        .expect("feasible")
        .latency_skew_ps();
        assert!(nominal_view.0 < worst.0, "SS latency dominates TT");
    }

    #[test]
    fn focus_corner_cache_tracks_mutations() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mut mc = robust(&mut t, &corners, EvalModel::Elmore);
        let fresh_focus = |mc: &IncrementalEval<'_>| {
            // The uncached answer: argmax of per-corner skew.
            (0..mc.corner_count())
                .max_by(|&a, &b| {
                    mc.corner_latency_skew_ps(a)
                        .1
                        .total_cmp(&mc.corner_latency_skew_ps(b).1)
                })
                .unwrap()
        };
        assert_eq!(mc.focus_corner(), fresh_focus(&mc));
        assert_eq!(mc.focus_corner(), mc.focus_corner(), "memoized");
        assert!(mc.set_star_buffer(0, true));
        assert_eq!(
            mc.focus_corner(),
            fresh_focus(&mc),
            "invalidated by mutation"
        );
        mc.undo();
        assert_eq!(mc.focus_corner(), fresh_focus(&mc), "invalidated by undo");
    }

    #[test]
    fn corner_report_matches_batch() {
        let (t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let report = CornerReport::try_evaluate(&t, &corners, EvalModel::Nldm)
            .expect("tree feasible at the PVT preset");
        assert_eq!(report.corner_names, ["SS", "TT", "FF"]);
        assert_eq!(report.nominal, 1);
        assert_eq!(
            report.per_corner[1],
            t.evaluate(corners.nominal_tech(), EvalModel::Nldm)
        );
        assert_eq!(
            report.robust.worst_latency_corner, 0,
            "SS is the slow corner"
        );
    }

    /// `try_evaluate` matches the resident evaluator's per-corner metrics
    /// on feasible corner sets, and reports the typed `NoFeasiblePattern`
    /// (instead of panicking) when a corner derates capacitances past a
    /// pattern buffer's max load — the corner sign-off failure mode a
    /// service retry ladder recovers from. The corner-aware evaluator's
    /// constructor reports the identical error.
    #[test]
    fn corner_report_try_evaluate_types_corner_infeasibility() {
        use dscts_tech::{Corner, DerateFactors, WireDerate};
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let report = CornerReport::try_evaluate(&t, &corners, EvalModel::Nldm)
            .expect("tree feasible at the PVT preset");
        let eval = robust(&mut t, &corners, EvalModel::Nldm);
        for (k, m) in report.per_corner.iter().enumerate() {
            assert_eq!(&eval.corner_metrics(k), m, "corner {k}");
        }
        drop(eval);

        // A hostile corner: wire capacitance ×50 overloads any embedded
        // buffer the DP placed against its nominal max-load budget.
        let overload = WireDerate {
            res: 1.0,
            cap: 50.0,
        };
        let hot = Corner::new(
            "HOT",
            DerateFactors {
                front_wire: overload,
                back_wire: overload,
                buffer_delay: 1.0,
                ntsv: overload,
            },
        )
        .expect("valid derates");
        let hostile =
            CornerSet::expand(&tech, vec![hot, Corner::nominal("TT")], 1).expect("valid set");
        let err = CornerReport::try_evaluate(&t, &hostile, EvalModel::Nldm)
            .expect_err("overloaded corner must fail typed");
        assert!(
            matches!(err, CtsError::NoFeasiblePattern { .. }),
            "expected the typed data-dependent infeasibility, got {err:?}"
        );
        let eval_err = IncrementalEval::with_corners(
            &mut t,
            &hostile,
            EvalModel::Nldm,
            RobustObjective::WorstCorner,
        )
        .expect_err("the evaluator must fail typed too");
        assert_eq!(eval_err, err);
    }

    #[test]
    fn single_nominal_corner_is_bit_identical_to_incremental() {
        // The proptest suite exercises this over random designs and
        // interleaved mutations; this is the deterministic smoke case.
        let (t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let mut t_inc = t.clone();
        let mut t_mc = t.clone();
        let mut inc = IncrementalEval::new(&mut t_inc, &tech, EvalModel::Elmore);
        let mut mc = robust(&mut t_mc, &corners, EvalModel::Elmore);
        assert_eq!(inc.metrics(), mc.corner_metrics(0));
        assert_eq!(
            inc.set_buffer_scale(edge, 0.5),
            mc.set_buffer_scale(edge, 0.5)
        );
        assert_eq!(inc.metrics(), mc.corner_metrics(0));
        inc.undo();
        mc.undo();
        assert_eq!(inc.metrics(), mc.corner_metrics(0));
        assert_eq!(inc.latency_skew_ps(), mc.latency_skew_ps());
    }
}

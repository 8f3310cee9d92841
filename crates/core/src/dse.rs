//! Design space exploration of double-side CTS (§III-E, Fig. 9/12).
//!
//! The DSE knob is the fanout threshold of [`crate::ModeRule`]: nodes whose
//! fanout stays below the threshold keep *full mode* (flexible nTSV), nodes
//! above are forced *intra-side* (no nTSV). Sweeping the threshold explores
//! latency/skew vs resource trade-offs far beyond what post-CTS flipping
//! can reach — the paper's Fig. 12 comparison, regenerated by the `fig12`
//! bench binary and timed by the repository benchmark's `fig12-sweep`
//! workload.
//!
//! # The batched engine
//!
//! A naive sweep re-runs the whole pipeline once per threshold; on C3 that
//! is ~99 full route + DP + refine runs for a single Fig. 12 series, even
//! though most of that work is redundant. [`SweepEngine`] exploits two
//! structural facts:
//!
//! * **Routing is threshold-independent.** The [`ModeRule`] only enters at
//!   the DP, so the engine routes each design exactly **once** per sweep
//!   and shares the routed [`ClockTopo`] (with its cached CSR adjacency,
//!   warmed before the fan-out) across all configurations. Insertion
//!   takes a topology by value and no optimization pass changes one, so
//!   each worker thread clones it once and moves the same copy through
//!   all of its classes (the fullest-mode class below gets one more).
//! * **Most thresholds are provably equivalent.** A node's insertion mode
//!   depends only on its fanout, so the whole per-node mode vector of
//!   threshold `t` is determined by how many distinct trunk fanout values
//!   ([`crate::ClockTopo::distinct_fanouts`]) lie below `t`. Thresholds falling
//!   between two consecutive distinct fanouts induce *identical* mode
//!   vectors; the engine collapses the sweep into these
//!   **mode-equivalence classes** ([`ModeClass`]), runs the DP once per
//!   class (with the class's mode vector) and maps the result back to
//!   every member threshold.
//!
//! Scoring happens on **optimized** trees, not raw DP output: each
//! class's tree goes through the pipeline's configured optimization
//! schedule (by default the §III-D skew refinement pass, or any custom
//! [`crate::opt::OptSchedule`] set on the base pipeline) on the
//! evaluator the pipeline's optimize stage builds, exactly as in a full
//! [`DsCts::run`], and its point is read from the evaluator the schedule
//! left behind, as the run's evaluate stage reads it: that state is
//! bit-identical to a batch evaluation of the optimized tree. A
//! corner-aware class reads its robust point from the evaluator's corners
//! too; only its nominal point takes one batch evaluation.
//! Parallelism is per-class rather than per-threshold; results come back
//! in requested-threshold order at any thread count, and every point is
//! bit-identical to what the naive per-threshold pipeline (one full
//! [`DsCts::run`] per threshold) produces — enforced by the
//! `dse_proptests` suite over random designs and both
//! [`crate::EvalModel`]s.
//!
//! Class scoring additionally shares **DP candidate suffixes** between
//! classes: the fullest-mode class (fewest intra-side nodes) is scored
//! first and its candidate arena ([`crate::DpSuffixCache`]) is lent to
//! every other class, whose DP then copies — instead of recomputing —
//! the sets of all subtrees whose modes match. Fanout-threshold classes
//! differ only on the high-fanout trunk near the root, so the shared
//! deep subtrees are the bulk of the DP work. The copy is bit-identical
//! by construction (a candidate set is a pure function of its subtree),
//! so every sweep result above is unchanged.

use crate::dp::{modes_from_fanout, DpSuffixCache, ModeRule};
use crate::error::CtsError;
use crate::incremental::IncrementalEval;
use crate::mcmm::RobustMetrics;
use crate::pattern::Mode;
use crate::pipeline::DsCts;
use crate::resilience::{CancelToken, RunBudget};
use crate::synth::TreeMetrics;
use crate::tree::ClockTopo;
use dscts_netlist::Design;
use dscts_telemetry as telemetry;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One explored configuration with its resulting metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsPoint {
    /// The swept fanout threshold (0 = all intra-side, `u32::MAX` ≈ full).
    pub threshold: u32,
    /// Latency (ps).
    pub latency_ps: f64,
    /// Skew (ps).
    pub skew_ps: f64,
    /// Total buffers.
    pub buffers: u32,
    /// Total nTSVs.
    pub ntsvs: u32,
    /// Clock wirelength (nm).
    pub wirelength_nm: i64,
}

impl MetricsPoint {
    /// Combined insertion resources (x-axis of Fig. 12).
    pub fn resources(&self) -> u32 {
        self.buffers + self.ntsvs
    }

    /// The point of a measured tree, with threshold 0 for the caller to
    /// stamp.
    fn of_tree(m: &TreeMetrics) -> Self {
        MetricsPoint {
            threshold: 0,
            latency_ps: m.latency_ps,
            skew_ps: m.skew_ps,
            buffers: m.buffers,
            ntsvs: m.ntsvs,
            wirelength_nm: m.wirelength_nm,
        }
    }
}

/// One explored configuration's cross-corner view: the worst-corner
/// latency/skew and the OCV-proxy arrival spread of the optimized tree
/// at this threshold. Present when the base pipeline is corner-aware
/// ([`DsCts::corners`]); pairs with the [`MetricsPoint`] of the same
/// threshold (whose metrics are the nominal view) so Fig. 12-style
/// sweeps can plot nominal-vs-worst-corner Pareto frontiers from one
/// route + one DP per mode class.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustPoint {
    /// The swept fanout threshold.
    pub threshold: u32,
    /// Maximum latency over all corners (ps).
    pub worst_latency_ps: f64,
    /// Maximum skew over all corners (ps).
    pub worst_skew_ps: f64,
    /// Maximum cross-corner arrival range over all sinks (ps).
    pub arrival_spread_ps: f64,
}

impl RobustPoint {
    fn new(threshold: u32, r: &RobustMetrics) -> Self {
        RobustPoint {
            threshold,
            worst_latency_ps: r.worst_latency_ps,
            worst_skew_ps: r.worst_skew_ps,
            arrival_spread_ps: r.arrival_spread_ps,
        }
    }
}

/// One mode-equivalence class of a threshold sweep: every member threshold
/// induces the identical per-node mode vector, so one DP + optimization
/// run scores them all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeClass {
    /// Member thresholds, in requested sweep order.
    pub thresholds: Vec<u32>,
    /// Trunk nodes forced intra-side under this class's mode vector.
    pub intra_side_nodes: usize,
}

/// Everything a batched sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One point per requested threshold, in request order (bit-identical
    /// to the naive per-threshold pipeline).
    pub points: Vec<MetricsPoint>,
    /// The mode-equivalence classes the sweep collapsed into, in order of
    /// first appearance in the requested grid (for an ascending threshold
    /// grid that means *decreasing* intra-side node count).
    /// `classes.len()` DP runs scored `points.len()` thresholds.
    pub classes: Vec<ModeClass>,
    /// Cross-corner views, one per requested threshold in request order,
    /// when the base pipeline is corner-aware (`None` otherwise), read
    /// once per *class*, not per threshold.
    pub robust_points: Option<Vec<RobustPoint>>,
}

/// Batched DSE sweep engine: route once, deduplicate mode-equivalence
/// classes, score refined trees. See the [module docs](self) for the
/// architecture.
///
/// ```no_run
/// use dscts_core::{dse::SweepEngine, DsCts};
/// use dscts_netlist::BenchmarkSpec;
/// use dscts_tech::Technology;
///
/// let design = BenchmarkSpec::c3_ethmac().generate();
/// let base = DsCts::new(Technology::asap7());
/// let sweep = SweepEngine::new(&base)
///     .try_sweep(&design, (20..=1000).step_by(10))
///     .unwrap();
/// println!(
///     "{} thresholds collapsed into {} DP runs",
///     sweep.points.len(),
///     sweep.classes.len()
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepEngine<'a> {
    base: &'a DsCts,
}

impl<'a> SweepEngine<'a> {
    /// An engine sweeping variations of `base` (whose own
    /// [`DsCts::mode_rule`] is ignored — each swept point behaves as if
    /// `base.clone().mode_rule(FanoutThreshold(t))`).
    pub fn new(base: &'a DsCts) -> Self {
        SweepEngine { base }
    }

    /// Sweeps the fanout threshold over `thresholds`, routing the design
    /// exactly once and running insertion + the configured optimization
    /// schedule once per mode-equivalence class.
    ///
    /// Returns [`CtsError`] when the design is unroutable or any class's
    /// DP is infeasible — the same failures the naive sweep would hit.
    pub fn try_sweep(
        &self,
        design: &Design,
        thresholds: impl IntoIterator<Item = u32>,
    ) -> Result<SweepOutcome, CtsError> {
        let thresholds: Vec<u32> = thresholds.into_iter().collect();
        if thresholds.is_empty() {
            return Ok(SweepOutcome {
                points: Vec::new(),
                classes: Vec::new(),
                robust_points: self.base.corner_set().map(|_| Vec::new()),
            });
        }

        // Route once; warm the shared CSR cache before the fan-out so
        // every worker borrows the same adjacency.
        let topo = self.base.route(design)?;
        let _ = topo.csr();
        let levels = topo.distinct_fanouts();
        let (mut classes, class_of) = partition_classes(&levels, &thresholds);

        // A budgeted base pipeline budgets the sweep too: the token is
        // polled once per mode class, the sweep's unit of real work, so a
        // deadline cannot strand a multi-hour grid. An unbudgeted base
        // never allocates a token and the fan-out is bit-identical.
        let cancel = self.base.run_budget().map(RunBudget::token);
        let scored = self.score_classes(&topo, &classes, cancel.as_ref());
        let mut class_points: Vec<MetricsPoint> = Vec::with_capacity(classes.len());
        let mut robust: Vec<Option<RobustMetrics>> = Vec::with_capacity(classes.len());
        let tel = telemetry::active();
        for (class, r) in classes.iter_mut().zip(scored) {
            let scored = r?;
            class.intra_side_nodes = scored.intra_side_nodes;
            if let Some(tel) = &tel {
                tel.counter("dse.classes").incr();
            }
            class_points.push(scored.point);
            robust.push(scored.robust);
        }

        let points = thresholds
            .iter()
            .zip(&class_of)
            .map(|(&threshold, &ci)| MetricsPoint {
                threshold,
                ..class_points[ci]
            })
            .collect();
        let robust_points = self.base.corner_set().map(|_| {
            thresholds
                .iter()
                .zip(&class_of)
                .map(|(&t, &ci)| {
                    // invariant: every class closure computed Some(robust)
                    // because corner_set() was Some for this same base.
                    RobustPoint::new(t, robust[ci].as_ref().expect("corner-aware class scored"))
                })
                .collect()
        });
        Ok(SweepOutcome {
            points,
            classes,
            robust_points,
        })
    }

    /// One DP + optimization + scoring per class, fanned out across
    /// threads against the shared read-only topology. The optimization
    /// schedule is seeded per class by the base pipeline's OptSchedule,
    /// so results are deterministic and returned in class order — the
    /// outcome is thread-count invariant.
    ///
    /// Each class is scored from the evaluator its schedule ran on, built
    /// by [`DsCts::evaluator`] as in the pipeline's optimize stage. A
    /// nominal class reads latency and skew from
    /// [`IncrementalEval::latency_skew_ps`], the buffer and nTSV counts
    /// from the tree, and the wirelength once per route, since every
    /// class shares the routed geometry. A corner-aware class reads what
    /// the pipeline's evaluate stage reads ([`DsCts::measure`]).
    ///
    /// Insertion consumes a topology, and no pass can change one (the
    /// evaluator exposes the tree only as `&SynthesizedTree`), so each
    /// worker clones the routed topology once, moves its copy into
    /// [`DsCts::insert_with`] and takes it back out of the scored tree for
    /// its next class. A worker whose copy was lost to a failed class, or
    /// that a new `map_init` state leaves without one, clones again.
    ///
    /// The fullest-mode class (fewest intra-side nodes, ties to the
    /// lowest index) is scored first on the caller's thread, on its own
    /// copy, and its [`DpSuffixCache`] lent read-only to every other
    /// class's DP, which copies the candidate sets of all mode-identical
    /// subtrees instead of recomputing them. The copies are bit-identical
    /// by construction, so sharing never changes a result; if the base
    /// class fails, the rest are scored standalone and the error surfaces
    /// at its slot.
    fn score_classes(
        &self,
        topo: &ClockTopo,
        classes: &[ModeClass],
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<Scored, CtsError>> {
        let fanout = topo.fanout();
        let total = fanout[0];
        let rule_of = |class: &ModeClass| ModeRule::FanoutThreshold(class.thresholds[0]);
        let intra_of: Vec<usize> = classes
            .iter()
            .map(|class| {
                let rule = rule_of(class);
                fanout
                    .iter()
                    .filter(|&&f| rule.mode(f, total) == Mode::IntraSide)
                    .count()
            })
            .collect();
        let wirelength_nm = topo.total_wirelength();
        // Scores class `i` on `copy`, a clone of `topo`, and hands the
        // copy back with the class's suffix cache.
        let score_one = |i: usize,
                         copy: ClockTopo,
                         reuse: Option<&DpSuffixCache>|
         -> Result<(Scored, DpSuffixCache, ClockTopo), CtsError> {
            if let Some(token) = cancel {
                token.check("dse")?;
            }
            let _span = telemetry::Span::enter("dse.class");
            let modes = modes_from_fanout(&fanout, rule_of(&classes[i]));
            let (mut tree, _dp, cache) =
                self.base.insert_with(copy, Some(&modes), cancel, reuse)?;
            let mut eval = self.base.evaluator(&mut tree)?;
            if let Some(schedule) = self.base.effective_schedule() {
                // The sweep token reaches the schedule too: a deadline
                // expiring mid-class truncates that class's optimization
                // (a degraded-but-valid point) rather than overshooting.
                schedule.run(&mut eval, cancel);
            }
            let (point, robust) = if self.base.corner_set().is_some() {
                let (m, corners) = self.base.measure(&eval);
                (MetricsPoint::of_tree(&m), corners.map(|c| c.robust))
            } else {
                (nominal_point(&eval, wirelength_nm), None)
            };
            let scored = Scored {
                point,
                robust,
                intra_side_nodes: intra_of[i],
            };
            Ok((scored, cache, tree.topo))
        };

        let base_idx = (0..classes.len())
            .min_by_key(|&i| (intra_of[i], i))
            .expect("non-empty class list");
        let base_scored = score_one(base_idx, topo.clone(), None);
        let cache: Option<&DpSuffixCache> = base_scored.as_ref().ok().map(|(_, c, _)| c);

        let mut out: Vec<Option<Result<Scored, CtsError>>> = (0..classes.len())
            .into_par_iter()
            .map_init(
                || None::<ClockTopo>,
                |copy, i| {
                    if i == base_idx {
                        return None; // already scored on the caller's thread
                    }
                    let own = copy.take().unwrap_or_else(|| topo.clone());
                    Some(score_one(i, own, cache).map(|(scored, _, back)| {
                        *copy = Some(back);
                        scored
                    }))
                },
            )
            .collect();
        out[base_idx] = Some(base_scored.map(|(scored, ..)| scored));
        out.into_iter()
            .map(|r| r.expect("every class scored exactly once"))
            .collect()
    }
}

/// A nominal class's point, read from the evaluator its schedule left,
/// with threshold 0 for the caller to stamp: latency and skew from the
/// evaluator, the buffer and nTSV counts from the tree, and the
/// wirelength the caller took once per route.
fn nominal_point(eval: &IncrementalEval<'_>, wirelength_nm: i64) -> MetricsPoint {
    let (latency_ps, skew_ps) = eval.latency_skew_ps();
    let tree = eval.tree();
    MetricsPoint {
        threshold: 0,
        latency_ps,
        skew_ps,
        buffers: 1 + tree.inserted_buffers(),
        ntsvs: tree.inserted_ntsvs(),
        wirelength_nm,
    }
}

/// What scoring one mode class yields.
struct Scored {
    /// The nominal point of the class's optimized tree, with threshold 0.
    point: MetricsPoint,
    /// The cross-corner view, when the base pipeline is corner-aware.
    robust: Option<RobustMetrics>,
    /// Trunk nodes forced intra-side under the class's mode vector.
    intra_side_nodes: usize,
}

/// Partition `thresholds` into mode-equivalence classes over the distinct
/// fanout values `levels`: the mode vector of threshold `t` is determined
/// by how many distinct (non-top-net) fanouts lie below it. Returns the
/// classes in order of first appearance (with empty `intra_side_nodes`)
/// plus each threshold's class index, in request order.
fn partition_classes(levels: &[u32], thresholds: &[u32]) -> (Vec<ModeClass>, Vec<usize>) {
    let mut class_of_key: BTreeMap<usize, usize> = BTreeMap::new();
    let mut classes: Vec<ModeClass> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(thresholds.len());
    for &t in thresholds {
        let key = levels.partition_point(|&f| f < t);
        let ci = *class_of_key.entry(key).or_insert_with(|| {
            classes.push(ModeClass {
                thresholds: Vec::new(),
                intra_side_nodes: 0,
            });
            classes.len() - 1
        });
        classes[ci].thresholds.push(t);
        class_of.push(ci);
    }
    (classes, class_of)
}

/// The `(resources, latency)` pairs of the Pareto frontier of `points`,
/// sorted by ascending resources — the frontier `dscts --sweep` prints,
/// and a signature two sweeps can be compared by.
pub fn frontier_pairs(points: &[MetricsPoint]) -> Vec<(u32, f64)> {
    pareto_frontier(points, |p| (p.resources() as f64, p.latency_ps))
        .into_iter()
        .map(|i| (points[i].resources(), points[i].latency_ps))
        .collect()
}

/// Extracts the Pareto frontier minimising both components of `key`,
/// returning indices into `points` sorted by the first objective.
///
/// **Tie-break on the first objective:** candidates are visited sorted by
/// `(x, then y)`, and a point enters the frontier only when its `y`
/// strictly improves (beyond a 1e-12 tolerance) on everything already
/// kept. Among points sharing an `x`, the one with the smallest `y` is
/// therefore the only possible survivor; points identical in *both*
/// objectives keep the earliest index (the underlying sort is stable).
pub fn pareto_frontier<T>(points: &[T], key: impl Fn(&T) -> (f64, f64)) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        let (xa, ya) = key(&points[a]);
        let (xb, yb) = key(&points[b]);
        xa.total_cmp(&xb).then(ya.total_cmp(&yb))
    });
    let mut frontier = Vec::new();
    let mut best_y = f64::INFINITY;
    for i in idx {
        let (_, y) = key(&points[i]);
        if y < best_y - 1e-12 {
            best_y = y;
            frontier.push(i);
        }
    }
    frontier
}

/// The `(x-range, y-range)` of a point stream, folded in one pass with no
/// intermediate allocation. Empty streams yield zero ranges.
fn ranges(pts: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let (xlo, xhi, ylo, yhi) = pts.fold(
        (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ),
        |(xlo, xhi, ylo, yhi), (x, y)| (xlo.min(x), xhi.max(x), ylo.min(y), yhi.max(y)),
    );
    ((xhi - xlo).max(0.0), (yhi - ylo).max(0.0))
}

/// Hypervolume-style diversity measure: the spread of the frontier across
/// both objectives, normalised by the full point cloud's range. Used by the
/// DSE analysis to quantify "diversity of solutions across the objective
/// space" (§II-C).
pub fn frontier_spread<T>(points: &[T], key: impl Fn(&T) -> (f64, f64)) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let frontier = pareto_frontier(points, &key);
    let (fx, fy) = ranges(frontier.iter().map(|&i| key(&points[i])));
    let (ax, ay) = ranges(points.iter().map(&key));
    if ax == 0.0 || ay == 0.0 {
        return 0.0;
    }
    (fx / ax) * (fy / ay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

    fn pt(threshold: u32, lat: f64, res: u32) -> MetricsPoint {
        MetricsPoint {
            threshold,
            latency_ps: lat,
            skew_ps: 0.0,
            buffers: res,
            ntsvs: 0,
            wirelength_nm: 0,
        }
    }

    #[test]
    fn pareto_frontier_drops_dominated() {
        let pts = vec![
            pt(1, 100.0, 10),
            pt(2, 90.0, 20),
            pt(3, 95.0, 25), // dominated by (2)
            pt(4, 80.0, 30),
        ];
        let f = pareto_frontier(&pts, |p| (p.resources() as f64, p.latency_ps));
        let thresholds: Vec<u32> = f.iter().map(|&i| pts[i].threshold).collect();
        assert_eq!(thresholds, vec![1, 2, 4]);
    }

    #[test]
    fn pareto_frontier_equal_x_keeps_min_y() {
        // Three points share x = 10; only the lowest-latency one can make
        // the frontier, regardless of input order.
        let pts = vec![
            pt(1, 95.0, 10),
            pt(2, 80.0, 10),
            pt(3, 90.0, 10),
            pt(4, 70.0, 20),
        ];
        let f = pareto_frontier(&pts, |p| (p.resources() as f64, p.latency_ps));
        assert_eq!(f, vec![1, 3]);
        let thresholds: Vec<u32> = f.iter().map(|&i| pts[i].threshold).collect();
        assert_eq!(thresholds, vec![2, 4]);
    }

    #[test]
    fn pareto_frontier_exact_duplicates_keep_first_index() {
        let pts = vec![pt(1, 90.0, 10), pt(2, 90.0, 10), pt(3, 90.0, 10)];
        let f = pareto_frontier(&pts, |p| (p.resources() as f64, p.latency_ps));
        assert_eq!(f, vec![0]);
    }

    #[test]
    fn frontier_of_single_point() {
        let pts = vec![pt(1, 10.0, 5)];
        assert_eq!(
            pareto_frontier(&pts, |p| (p.resources() as f64, p.latency_ps)),
            vec![0]
        );
        assert_eq!(
            frontier_spread(&pts, |p| (p.resources() as f64, p.latency_ps)),
            0.0
        );
    }

    #[test]
    fn spread_rewards_wide_frontiers() {
        let wide = vec![pt(1, 100.0, 10), pt(2, 50.0, 100)];
        let narrow = vec![pt(1, 100.0, 10), pt(2, 99.0, 11), pt(3, 98.0, 100)];
        let k = |p: &MetricsPoint| (p.resources() as f64, p.latency_ps);
        assert!(frontier_spread(&wide, k) > frontier_spread(&narrow, k) * 0.9);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let base = DsCts::new(Technology::asap7());
        let sweep = SweepEngine::new(&base)
            .try_sweep(&design, std::iter::empty())
            .expect("trivially sweepable");
        assert!(sweep.points.is_empty());
        assert!(sweep.classes.is_empty());
        assert!(sweep.robust_points.is_none());
    }

    #[test]
    fn corner_aware_sweep_reports_nominal_vs_worst_frontier() {
        use dscts_tech::CornerSet;
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let base = DsCts::new(tech.clone()).corners(CornerSet::asap7_pvt(&tech));
        let grid: Vec<u32> = (20..=1000).step_by(280).collect();
        let sweep = SweepEngine::new(&base)
            .try_sweep(&design, grid.iter().copied())
            .expect("sweepable");
        let robust = sweep.robust_points.as_ref().expect("corner-aware sweep");
        assert_eq!(robust.len(), sweep.points.len());
        for (p, r) in sweep.points.iter().zip(robust) {
            assert_eq!(p.threshold, r.threshold);
            // The worst corner dominates the nominal view.
            assert!(r.worst_latency_ps >= p.latency_ps - 1e-9);
            assert!(r.worst_skew_ps >= p.skew_ps - 1e-9);
            assert!(r.arrival_spread_ps > 0.0);
        }
        // Both frontiers are extractable from the same sweep: nominal and
        // worst-corner latency against shared insertion resources.
        let nominal = pareto_frontier(&sweep.points, |p| (p.resources() as f64, p.latency_ps));
        let pairs: Vec<(u32, f64)> = sweep
            .points
            .iter()
            .zip(robust)
            .map(|(p, r)| (p.resources(), r.worst_latency_ps))
            .collect();
        let worst = pareto_frontier(&pairs, |&(res, lat)| (res as f64, lat));
        assert!(!nominal.is_empty() && !worst.is_empty());
    }

    #[test]
    fn equivalent_thresholds_share_a_class() {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let base = DsCts::new(Technology::asap7());
        // Thresholds above every non-top-net fanout are all equivalent to
        // "everything full mode".
        let sweep = SweepEngine::new(&base)
            .try_sweep(&design, [2_000, 5_000, u32::MAX])
            .expect("sweepable");
        assert_eq!(sweep.classes.len(), 1);
        assert_eq!(sweep.classes[0].intra_side_nodes, 0);
        assert_eq!(sweep.points[0].latency_ps, sweep.points[2].latency_ps);
    }
}

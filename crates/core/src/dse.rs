//! Design space exploration of double-side CTS (§III-E, Fig. 9/12).
//!
//! The DSE knob is the fanout threshold of [`crate::ModeRule`]: nodes whose
//! fanout stays below the threshold keep *full mode* (flexible nTSV), nodes
//! above are forced *intra-side* (no nTSV). Sweeping the threshold explores
//! latency/skew vs resource trade-offs far beyond what post-CTS flipping
//! can reach — the paper's Fig. 12 comparison, regenerated by the `fig12`
//! bench binary.
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
//!   warmed before the fan-out) read-only across all configurations.
//! * **Most thresholds are provably equivalent.** A node's insertion mode
//!   depends only on its fanout, so the whole per-node mode vector of
//!   threshold `t` is determined by how many distinct trunk fanout values
//!   ([`crate::ClockTopo::distinct_fanouts`]) lie below `t`. Thresholds falling
//!   between two consecutive distinct fanouts induce *identical* mode
//!   vectors; the engine collapses the sweep into these
//!   **mode-equivalence classes** ([`ModeClass`]), runs the DP once per
//!   class ([`crate::try_run_dp_with_modes`]) and maps the result back to
//!   every member threshold.
//!
//! Scoring happens on **optimized** trees, not raw DP output: each
//! class's tree goes through the pipeline's configured optimization
//! schedule ([`DsCts::optimize_tree`] — by default the §III-D skew
//! refinement pass, or any custom [`crate::opt::OptSchedule`] set on the
//! base pipeline; every pass runs on the incremental dirty-path
//! evaluator, [`crate::IncrementalEval`]) before its metrics are read,
//! exactly as in a full [`DsCts::run`].
//! Parallelism is per-class rather than per-threshold; results come back
//! in requested-threshold order at any thread count, and every point is
//! bit-identical to what the naive per-threshold pipeline
//! ([`sweep_fanout_naive`]) produces — enforced by the `dse_proptests`
//! suite over random designs and both [`crate::EvalModel`]s.
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
//!
//! # Learned DSE
//!
//! [`SweepEngine::sweep_fanout_learned`] prunes a sweep with a trained
//! [`MetricPredictor`] (e.g. the regressors in the `dscts-learn` crate):
//! every class's cheap pre-DP [`ClassFeatures`] are predicted, the
//! predicted Pareto frontier is walked with a dominance margin
//! ([`PruneConfig::band`]) that absorbs prediction noise and collapses
//! metric-twin classes, and only the predicted-frontier band — plus a
//! few-shot calibration subset of off-band classes
//! ([`PruneConfig::calibration_stride`]) — is evaluated exactly.
//! The result quantifies its own pruning risk as
//! [`LearnedSweepOutcome::guaranteed_vs_predicted`]: the largest
//! relative latency improvement any *skipped* class's prediction claims
//! over the exactly-evaluated frontier (`0.0` = the predictor concedes
//! the evaluated band contains the whole frontier). Evaluated points
//! are bit-identical to [`SweepEngine::try_sweep`]'s, so the pruned
//! frontier equals the exact frontier whenever every true frontier
//! class lands in the band — the zero-frontier-loss condition the
//! `baseline --pr10` gate asserts on C1–C5 at the default
//! [`PruneConfig`].

use crate::dp::{mode_vector, DpSuffixCache, ModeRule};
use crate::error::CtsError;
use crate::mcmm::{CornerReport, RobustMetrics};
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

    fn new(threshold: u32, m: &TreeMetrics) -> Self {
        MetricsPoint {
            threshold,
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
    /// when the base pipeline is corner-aware (`None` otherwise). Same
    /// class deduplication: K extra batch evaluations per *class*, not
    /// per threshold.
    pub robust_points: Option<Vec<RobustPoint>>,
}

/// Cheap pre-DP features of one mode-equivalence class: everything a
/// [`MetricPredictor`] may look at, all computable from the routed
/// topology and the class's mode vector *before* any DP runs. The same
/// values ride along in every telemetry sweep record
/// ([`dscts_telemetry::SweepRecord`], schema v2), so models trained on
/// exported logs see exactly the features the engine computes at
/// prediction time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFeatures {
    /// Number of clock sinks.
    pub sinks: u64,
    /// Distinct internal fanout values (the mode-class alphabet size).
    pub distinct_fanouts: u64,
    /// Index of the class within this sweep's class list.
    pub mode_class: u64,
    /// Smallest member threshold.
    pub threshold_lo: u32,
    /// Largest member threshold.
    pub threshold_hi: u32,
    /// Trunk nodes forced intra-side by this class's mode vector.
    pub intra_nodes: u64,
    /// Leaf clusters (stars) of the routed topology.
    pub stars: u64,
    /// Half-perimeter of the sink bounding box, nm.
    pub sink_spread_nm: u64,
    /// Routed trunk wirelength, nm (insertion and optimization never
    /// move trunk edges, so this equals the metric of the same name).
    pub trunk_wirelength_nm: u64,
    /// Log-bucketed histogram of the distinct fanout values (see
    /// [`fanout_histogram`]).
    pub fanout_hist: [u64; 4],
}

impl ClassFeatures {
    /// Features of class `class_index` of a sweep over `topo`.
    pub fn of(
        topo: &ClockTopo,
        levels: &[u32],
        class_index: usize,
        class: &ModeClass,
        intra_nodes: usize,
    ) -> Self {
        ClassFeatures {
            sinks: topo.sink_pos.len() as u64,
            distinct_fanouts: levels.len() as u64,
            mode_class: class_index as u64,
            threshold_lo: class.thresholds.iter().copied().min().unwrap_or(0),
            threshold_hi: class.thresholds.iter().copied().max().unwrap_or(0),
            intra_nodes: intra_nodes as u64,
            stars: topo.stars.len() as u64,
            sink_spread_nm: topo.sink_spread().max(0) as u64,
            trunk_wirelength_nm: topo.trunk_wirelength().max(0) as u64,
            fanout_hist: fanout_histogram(levels),
        }
    }

    /// The same features read back from an exported sweep record — the
    /// single conversion the `dscts-learn` dataset ingester uses, so
    /// training rows and prediction-time features cannot drift.
    pub fn from_sweep_record(r: &telemetry::SweepRecord) -> Self {
        ClassFeatures {
            sinks: r.sinks,
            distinct_fanouts: r.distinct_fanouts,
            mode_class: r.mode_class,
            threshold_lo: r.threshold_lo,
            threshold_hi: r.threshold_hi,
            intra_nodes: r.intra_nodes,
            stars: r.stars,
            sink_spread_nm: r.sink_spread_nm,
            trunk_wirelength_nm: r.trunk_wirelength_nm,
            fanout_hist: r.fanout_hist,
        }
    }
}

/// Log-bucketed histogram of distinct trunk fanout values: counts in
/// `[1,8)`, `[8,32)`, `[32,128)` and `[128,∞)`. A fixed-width summary of
/// the fanout distribution that fits a flat telemetry record.
pub fn fanout_histogram(levels: &[u32]) -> [u64; 4] {
    let mut hist = [0u64; 4];
    for &f in levels {
        let bucket = match f {
            0..=7 => 0,
            8..=31 => 1,
            32..=127 => 2,
            _ => 3,
        };
        hist[bucket] += 1;
    }
    hist
}

/// A predictor's estimate of the metrics one mode class would produce.
/// Counts are real-valued: regressors interpolate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedMetrics {
    /// Predicted worst sink latency, ps.
    pub latency_ps: f64,
    /// Predicted global skew, ps.
    pub skew_ps: f64,
    /// Predicted buffer count.
    pub buffers: f64,
    /// Predicted nTSV count.
    pub ntsvs: f64,
}

impl PredictedMetrics {
    /// Predicted combined insertion resources (the Fig. 12 x-axis).
    pub fn resources(&self) -> f64 {
        self.buffers + self.ntsvs
    }
}

/// A trained metric predictor: maps cheap pre-DP [`ClassFeatures`] to
/// [`PredictedMetrics`]. Implemented by the `dscts-learn` regressors
/// (ridge, GBDT); any `Sync` estimator works. Predictions only *rank*
/// classes — every reported point is still exact.
pub trait MetricPredictor: Sync {
    /// Predict the metrics the class described by `features` produces.
    fn predict(&self, features: &ClassFeatures) -> PredictedMetrics;
}

/// Pruning policy for [`SweepEngine::sweep_fanout_learned`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// Dominance margin of the predicted-frontier walk: scanning
    /// classes by ascending (predicted resources, predicted latency), a
    /// class is *in-band* (evaluated exactly) iff its predicted latency
    /// improves the best in-band latency so far by more than this
    /// fraction. The margin separates two regimes of a well-trained
    /// predictor: metric-twin classes — distinct mode vectors whose DP
    /// outcomes coincide — tie within prediction noise (≲ 1e-4 relative
    /// on the C1–C5 corpus) and fall below it, while real frontier
    /// steps improve latency by ≳ 5e-4 and always clear it. `0.0` keeps
    /// every strictly-improving class, noise included.
    pub band: f64,
    /// Few-shot calibration: every `calibration_stride`-th off-band
    /// class, ranked by ascending band excess, is evaluated exactly
    /// anyway. These points both audit the predictor near the band edge
    /// and feed telemetry training rows from the region the model is
    /// least sure about. `0` disables calibration.
    pub calibration_stride: usize,
    /// Sweeps with at most this many classes are evaluated exactly —
    /// pruning only pays for itself on grids that actually fan out.
    pub min_classes: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            band: 3e-4,
            calibration_stride: 8,
            min_classes: 4,
        }
    }
}

/// Everything a learned (pruned) sweep produces.
#[derive(Debug, Clone)]
pub struct LearnedSweepOutcome {
    /// Exact points for every requested threshold whose class was
    /// evaluated, in request order — each bit-identical to the point
    /// [`SweepEngine::try_sweep`] produces for the same threshold.
    /// Thresholds of skipped classes have no point.
    pub points: Vec<MetricsPoint>,
    /// All mode-equivalence classes of the sweep (evaluated or not), in
    /// order of first appearance; `intra_side_nodes` is filled for every
    /// class (it is a pre-DP feature).
    pub classes: Vec<ModeClass>,
    /// Per-class predictions, parallel to `classes`.
    pub predicted: Vec<PredictedMetrics>,
    /// Per-class flag, parallel to `classes`: `true` iff the class was
    /// evaluated exactly (in-band or calibration).
    pub evaluated: Vec<bool>,
    /// Classes the predictor pruned (`classes.len() - evaluated`).
    pub classes_skipped: usize,
    /// The guaranteed-vs-predicted frontier distance: the largest
    /// relative latency improvement any *skipped* class's prediction
    /// claims over the exactly-evaluated Pareto frontier (`0.0` when no
    /// skipped prediction dominates it). This quantifies the pruning
    /// risk without evaluating the skipped classes: the exact frontier
    /// is *guaranteed* over evaluated classes and can only be beaten by
    /// a skipped class if its prediction was at least this wrong-side-of
    /// optimistic.
    pub guaranteed_vs_predicted: f64,
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
        let mut metrics: Vec<TreeMetrics> = Vec::with_capacity(classes.len());
        let mut robust: Vec<Option<RobustMetrics>> = Vec::with_capacity(classes.len());
        // Sweep-outcome training records are emitted here, in class
        // order after the join, so the export is thread-count invariant.
        let tel = telemetry::active();
        for (ci, (class, r)) in classes.iter_mut().zip(scored).enumerate() {
            let (m, rb, intra) = r?;
            class.intra_side_nodes = intra;
            if let Some(tel) = &tel {
                tel.counter("dse.classes").incr();
                let features = ClassFeatures::of(&topo, &levels, ci, class, intra);
                tel.record_sweep(sweep_record(design, &features, &m));
            }
            metrics.push(m);
            robust.push(rb);
        }

        let points = thresholds
            .iter()
            .zip(&class_of)
            .map(|(&t, &ci)| MetricsPoint::new(t, &metrics[ci]))
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

    /// Sweeps `thresholds` like [`try_sweep`](Self::try_sweep), but lets a
    /// trained `predictor` prune the class list first: only classes whose
    /// prediction lands in the Pareto band of `cfg` (plus the few-shot
    /// calibration subset) are evaluated exactly; the rest are skipped.
    /// See the [module docs](self#learned-dse) for the contract.
    pub fn sweep_fanout_learned(
        &self,
        design: &Design,
        thresholds: impl IntoIterator<Item = u32>,
        predictor: &dyn MetricPredictor,
        cfg: &PruneConfig,
    ) -> Result<LearnedSweepOutcome, CtsError> {
        let thresholds: Vec<u32> = thresholds.into_iter().collect();
        if thresholds.is_empty() {
            return Ok(LearnedSweepOutcome {
                points: Vec::new(),
                classes: Vec::new(),
                predicted: Vec::new(),
                evaluated: Vec::new(),
                classes_skipped: 0,
                guaranteed_vs_predicted: 0.0,
            });
        }
        let topo = self.base.route(design)?;
        let _ = topo.csr();
        let levels = topo.distinct_fanouts();
        let (mut classes, class_of) = partition_classes(&levels, &thresholds);

        // Pre-DP pass: mode vectors, intra-side counts and features for
        // every class — exactly what the predictor is allowed to see.
        let mut features: Vec<ClassFeatures> = Vec::with_capacity(classes.len());
        for (ci, class) in classes.iter_mut().enumerate() {
            let rep = ModeRule::FanoutThreshold(class.thresholds[0]);
            let modes = mode_vector(&topo, rep);
            let intra = modes.iter().filter(|&&m| m == Mode::IntraSide).count();
            class.intra_side_nodes = intra;
            features.push(ClassFeatures::of(&topo, &levels, ci, class, intra));
        }
        let predicted: Vec<PredictedMetrics> =
            features.iter().map(|f| predictor.predict(f)).collect();
        let evaluated = select_band(&predicted, cfg);

        // Exact evaluation of the chosen subset only. Suffix sharing
        // applies within the subset, so the pruned sweep keeps the same
        // per-class cost profile as the full one.
        let chosen: Vec<ModeClass> = classes
            .iter()
            .zip(&evaluated)
            .filter(|&(_, &e)| e)
            .map(|(c, _)| c.clone())
            .collect();
        let cancel = self.base.run_budget().map(RunBudget::token);
        let scored = self.score_classes(&topo, &chosen, cancel.as_ref());

        let tel = telemetry::active();
        let mut metrics_of: Vec<Option<TreeMetrics>> = (0..classes.len()).map(|_| None).collect();
        let mut scored = scored.into_iter();
        for (ci, class) in classes.iter().enumerate() {
            if !evaluated[ci] {
                continue;
            }
            let (m, _robust, intra) = scored.next().expect("one result per chosen class")?;
            debug_assert_eq!(intra, class.intra_side_nodes);
            if let Some(tel) = &tel {
                tel.counter("dse.classes").incr();
                tel.record_sweep(sweep_record(design, &features[ci], &m));
            }
            metrics_of[ci] = Some(m);
        }
        let classes_skipped = evaluated.iter().filter(|&&e| !e).count();
        if let Some(tel) = &tel {
            tel.counter("dse.classes_skipped")
                .add(classes_skipped as u64);
        }

        let points: Vec<MetricsPoint> = thresholds
            .iter()
            .zip(&class_of)
            .filter_map(|(&t, &ci)| metrics_of[ci].as_ref().map(|m| MetricsPoint::new(t, m)))
            .collect();
        let guaranteed_vs_predicted = frontier_gap(&points, &predicted, &evaluated);
        Ok(LearnedSweepOutcome {
            points,
            classes,
            predicted,
            evaluated,
            classes_skipped,
            guaranteed_vs_predicted,
        })
    }

    /// One DP + optimization + evaluation per class, fanned out across
    /// threads against the shared read-only topology. The optimization
    /// schedule is seeded per class by the base pipeline's OptSchedule,
    /// so results are deterministic and returned in class order — the
    /// outcome is thread-count invariant.
    ///
    /// The fullest-mode class (fewest intra-side nodes, ties to the
    /// lowest index) is scored first on the caller's thread and its
    /// [`DpSuffixCache`] lent read-only to every other class's DP, which
    /// copies the candidate sets of all mode-identical subtrees instead
    /// of recomputing them. The copies are bit-identical by construction,
    /// so sharing never changes a result; if the base class fails, the
    /// rest are scored standalone and the error surfaces at its slot.
    fn score_classes(
        &self,
        topo: &ClockTopo,
        classes: &[ModeClass],
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<Scored, CtsError>> {
        let score_one = |class: &ModeClass,
                         reuse: Option<&DpSuffixCache>|
         -> Result<(Scored, DpSuffixCache), CtsError> {
            if let Some(token) = cancel {
                token.check("dse")?;
            }
            let _span = telemetry::Span::enter("dse.class");
            let rep = ModeRule::FanoutThreshold(class.thresholds[0]);
            let modes = mode_vector(topo, rep);
            let intra = modes.iter().filter(|&&m| m == Mode::IntraSide).count();
            let (mut tree, _dp, cache) =
                self.base
                    .insert_with_modes_suffix_cached(topo.clone(), &modes, cancel, reuse)?;
            // Corner-aware pipelines optimize the robust objective here
            // (optimize_tree fans out over the corner set), exactly as a
            // full corner-aware `run` would. The sweep token reaches the
            // schedule too: a deadline expiring mid-class truncates that
            // class's optimization (a degraded-but-valid point) rather
            // than overshooting.
            self.base.optimize_tree_cancel(&mut tree, cancel)?;
            let robust = match self.base.corner_set() {
                Some(corners) => Some(
                    CornerReport::try_evaluate(&tree, corners, self.base.delay_model())?.robust,
                ),
                None => None,
            };
            Ok(((self.base.evaluate_tree(&tree), robust, intra), cache))
        };

        if classes.len() < 2 {
            return classes
                .iter()
                .map(|c| score_one(c, None).map(|(s, _)| s))
                .collect();
        }

        let intra_of: Vec<usize> = classes
            .iter()
            .map(|c| {
                let modes = mode_vector(topo, ModeRule::FanoutThreshold(c.thresholds[0]));
                modes.iter().filter(|&&m| m == Mode::IntraSide).count()
            })
            .collect();
        let base_idx = (0..classes.len())
            .min_by_key(|&i| (intra_of[i], i))
            .expect("non-empty class list");
        let base_scored = score_one(&classes[base_idx], None);
        let cache: Option<&DpSuffixCache> = base_scored.as_ref().ok().map(|(_, c)| c);

        let mut out: Vec<Option<Result<Scored, CtsError>>> = (0..classes.len())
            .into_par_iter()
            .map(|i| {
                if i == base_idx {
                    None // already scored on the caller's thread
                } else {
                    Some(score_one(&classes[i], cache).map(|(s, _)| s))
                }
            })
            .collect();
        out[base_idx] = Some(base_scored.map(|(s, _)| s));
        out.into_iter()
            .map(|r| r.expect("every class scored exactly once"))
            .collect()
    }
}

/// What scoring one mode class yields: nominal metrics, the cross-corner
/// view (when the base pipeline is corner-aware) and the class's
/// intra-side node count.
type Scored = (TreeMetrics, Option<RobustMetrics>, usize);

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

/// Band selection for [`SweepEngine::sweep_fanout_learned`]: `true` per
/// class iff it must be evaluated exactly. Pure function of the
/// predictions and the policy, so pruning decisions are reproducible from
/// an exported model alone.
fn select_band(predicted: &[PredictedMetrics], cfg: &PruneConfig) -> Vec<bool> {
    let n = predicted.len();
    if n <= cfg.min_classes {
        return vec![true; n];
    }
    // Predicted-frontier walk, mirroring `pareto_frontier`'s strict
    // rule on the integer resource grid (true resource counts are
    // integers — buffers + NTSVs — so predicted resources are rounded
    // before comparison): classes are scanned in ascending (rounded
    // resources, latency, index) order, and a class is in-band iff its
    // predicted latency improves the best in-band latency so far by
    // MORE than `cfg.band` (relative). The margin is what makes the
    // walk robust to a trained predictor: metric-twin classes —
    // distinct mode vectors whose DP outcomes coincide, over half the
    // classes on the C1–C5 fanout sweeps — tie within prediction noise,
    // far below the margin, so each frontier step is evaluated once;
    // real frontier steps improve latency by an order of magnitude more
    // than the margin and always stay in-band. `excess` is each class's
    // relative latency delta against the in-band floor it was compared
    // to (negative = improvement): the calibration rank below.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        predicted[a]
            .resources()
            .round()
            .total_cmp(&predicted[b].resources().round())
            .then(predicted[a].latency_ps.total_cmp(&predicted[b].latency_ps))
            .then(a.cmp(&b))
    });
    let mut excess = vec![0.0f64; n];
    let mut keep = vec![false; n];
    let mut best = f64::INFINITY;
    for &i in &order {
        let lat = predicted[i].latency_ps;
        excess[i] = if best.is_infinite() {
            -1.0
        } else if best.abs() < 1e-12 {
            lat - best
        } else {
            (lat - best) / best.abs()
        };
        if excess[i] < -cfg.band {
            keep[i] = true;
            best = lat;
        }
    }
    if cfg.calibration_stride > 0 {
        // Few-shot calibration: walk the off-band classes from nearest to
        // farthest (ascending excess, index-stable) and keep every
        // stride-th one.
        let mut off: Vec<usize> = (0..n).filter(|&i| !keep[i]).collect();
        off.sort_by(|&a, &b| excess[a].total_cmp(&excess[b]).then(a.cmp(&b)));
        for (k, &i) in off.iter().enumerate() {
            if k % cfg.calibration_stride == 0 {
                keep[i] = true;
            }
        }
    }
    keep
}

/// The `(resources, latency)` pairs of the Pareto frontier of `points`,
/// sorted by ascending resources — the canonical frontier signature the
/// learned-DSE parity gates compare (`baseline --pr10`, the CI smoke
/// job).
pub fn frontier_pairs(points: &[MetricsPoint]) -> Vec<(u32, f64)> {
    pareto_frontier(points, |p| (p.resources() as f64, p.latency_ps))
        .into_iter()
        .map(|i| (points[i].resources(), points[i].latency_ps))
        .collect()
}

/// The guaranteed-vs-predicted frontier distance of a pruned sweep: the
/// largest relative latency improvement any *skipped* class's prediction
/// claims over the exactly-evaluated frontier (see
/// [`LearnedSweepOutcome::guaranteed_vs_predicted`]).
fn frontier_gap(
    points: &[MetricsPoint],
    predicted: &[PredictedMetrics],
    evaluated: &[bool],
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let steps = frontier_pairs(points);
    let mut gap = 0.0f64;
    for (p, &eval) in predicted.iter().zip(evaluated) {
        if eval {
            continue;
        }
        // Rounded like `select_band`, so both sides compare predicted
        // resources on the integer grid the exact counts live on.
        let res = p.resources().round();
        // The exact frontier latency available at ≤ the skipped class's
        // predicted resource level. A skipped class predicted cheaper
        // than every evaluated point is measured against the leftmost
        // frontier step — the only guarantee the evaluated set offers
        // there. (f64::min ignores the NaN seed, so the fold yields the
        // minimum of the matching steps or NaN when none match.)
        let floor = steps
            .iter()
            .filter(|&&(r, _)| f64::from(r) <= res)
            .fold(f64::NAN, |lo, &(_, lat)| lo.min(lat));
        let floor = if floor.is_nan() { steps[0].1 } else { floor };
        if p.latency_ps < floor && floor.abs() > 1e-12 {
            gap = gap.max((floor - p.latency_ps) / floor.abs());
        }
    }
    gap
}

/// One sweep-outcome training record: the pre-DP class features plus the
/// metrics the class produced (the raw material learned DSE trains on).
fn sweep_record(design: &Design, f: &ClassFeatures, m: &TreeMetrics) -> telemetry::SweepRecord {
    telemetry::SweepRecord {
        schema_version: telemetry::SWEEP_SCHEMA_VERSION,
        design: design.name.clone(),
        sinks: f.sinks,
        distinct_fanouts: f.distinct_fanouts,
        mode_class: f.mode_class,
        threshold_lo: f.threshold_lo,
        threshold_hi: f.threshold_hi,
        intra_nodes: f.intra_nodes,
        stars: f.stars,
        sink_spread_nm: f.sink_spread_nm,
        fanout_hist: f.fanout_hist,
        latency_ps: m.latency_ps,
        skew_ps: m.skew_ps,
        buffers: u64::from(m.buffers),
        ntsvs: u64::from(m.ntsvs),
        trunk_wirelength_nm: m.trunk_wirelength_nm.max(0) as u64,
        switched_cap_ff: m.switched_cap_ff,
    }
}

/// Sweeps the fanout threshold over `thresholds`.
///
/// Thin wrapper over [`SweepEngine`]: the design is routed once, the
/// DP runs once per mode-equivalence class, and every point is scored on
/// the refined tree — bit-identical to (and typically an order of
/// magnitude faster than) [`sweep_fanout_naive`]. Results come back in
/// threshold order regardless of scheduling.
///
/// # Panics
///
/// Panics with the [`CtsError`] display text if the design is unroutable
/// or any configuration's DP is infeasible (matching [`DsCts::run`]).
///
/// ```no_run
/// use dscts_core::{dse, DsCts};
/// use dscts_netlist::BenchmarkSpec;
/// use dscts_tech::Technology;
///
/// let design = BenchmarkSpec::c4_riscv32i().generate();
/// let base = DsCts::new(Technology::asap7());
/// let pts = dse::sweep_fanout(&base, &design, (20..=1000).step_by(10));
/// let frontier = dse::pareto_frontier(&pts, |p| (p.resources() as f64, p.latency_ps));
/// assert!(!frontier.is_empty());
/// ```
pub fn sweep_fanout(
    base: &DsCts,
    design: &Design,
    thresholds: impl IntoIterator<Item = u32>,
) -> Vec<MetricsPoint> {
    match SweepEngine::new(base).try_sweep(design, thresholds) {
        Ok(sweep) => sweep.points,
        Err(e) => panic!("{e}"),
    }
}

/// The reference sweep: one full pipeline run per threshold, no sharing.
///
/// Kept as the ground truth the batched engine is property-tested against
/// (`dse_proptests`) and as the "naive" column of the `BENCH_pr3.json`
/// snapshot; real callers want [`sweep_fanout`].
pub fn sweep_fanout_naive(
    base: &DsCts,
    design: &Design,
    thresholds: impl IntoIterator<Item = u32>,
) -> Vec<MetricsPoint> {
    let thresholds: Vec<u32> = thresholds.into_iter().collect();
    thresholds
        .par_iter()
        .map(|&t| {
            let outcome = base
                .clone()
                .mode_rule(ModeRule::FanoutThreshold(t))
                .run(design);
            MetricsPoint::new(t, &outcome.metrics)
        })
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
    fn batched_sweep_matches_naive_and_dedups() {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let base = DsCts::new(Technology::asap7());
        let grid: Vec<u32> = (20..=1000).step_by(140).collect();
        let naive = sweep_fanout_naive(&base, &design, grid.iter().copied());
        let sweep = SweepEngine::new(&base)
            .try_sweep(&design, grid.iter().copied())
            .expect("sweepable");
        assert_eq!(sweep.points, naive);
        // Classes partition the requested thresholds, in order.
        let members: Vec<u32> = sweep
            .classes
            .iter()
            .flat_map(|c| c.thresholds.iter().copied())
            .collect();
        let mut sorted = members.clone();
        sorted.sort_unstable();
        let mut grid_sorted = grid.clone();
        grid_sorted.sort_unstable();
        assert_eq!(sorted, grid_sorted);
        assert!(sweep.classes.len() <= grid.len());
        // C4 has ~40 leaf clusters: thresholds far above the largest
        // non-top-net fanout all collapse into one full-mode class, so
        // the dedup is real on this grid.
        assert!(
            sweep.classes.len() < grid.len(),
            "expected at least one merged class over {} thresholds",
            grid.len()
        );
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

    fn pm(lat: f64, res: f64) -> PredictedMetrics {
        PredictedMetrics {
            latency_ps: lat,
            skew_ps: 0.0,
            buffers: res,
            ntsvs: 0.0,
        }
    }

    #[test]
    fn select_band_keeps_frontier_and_calibrates() {
        // Walk order (by resources, then latency): 0, 2, 3, 4, 1.
        let preds = vec![
            pm(100.0, 10.0),  // first in-band floor
            pm(80.0, 20.0),   // improves 89.995 by 11% → in band
            pm(99.995, 12.0), // "improves" 100 by 0.005% → twin, out
            pm(89.995, 15.0), // improves 100 by 10% → in band
            pm(140.0, 18.0),  // 56% worse than 89.995 → out
        ];
        let cfg = PruneConfig {
            band: 0.05,
            calibration_stride: 0,
            min_classes: 2,
        };
        assert_eq!(
            select_band(&preds, &cfg),
            vec![true, true, false, true, false]
        );
        // Small grids are never pruned.
        assert_eq!(
            select_band(&preds[..3], &PruneConfig::default()),
            vec![true; 3]
        );
        // Stride 1 calibrates everything back in.
        let all = select_band(
            &preds,
            &PruneConfig {
                calibration_stride: 1,
                ..cfg
            },
        );
        assert!(all.iter().all(|&k| k));
        // Stride 2 keeps every other off-band class, riskiest first:
        // off-band order by ascending excess is [2 (-0.005%), 4 (+56%)],
        // so rank 0 (class 2) comes back.
        let every_other = select_band(
            &preds,
            &PruneConfig {
                calibration_stride: 2,
                ..cfg
            },
        );
        assert_eq!(every_other, vec![true, true, true, true, false]);
    }

    #[test]
    fn frontier_gap_measures_skipped_optimism() {
        let points = vec![pt(1, 100.0, 10), pt(2, 80.0, 20)];
        let predicted = vec![
            pm(100.0, 10.0),
            pm(80.0, 20.0),
            pm(90.0, 10.0), // skipped, claims 10% better than floor 100
            pm(95.0, 5.0),  // skipped, cheaper than every step → vs leftmost (100): 5%
        ];
        let evaluated = vec![true, true, false, false];
        let gap = frontier_gap(&points, &predicted, &evaluated);
        assert!((gap - 0.10).abs() < 1e-12, "gap = {gap}");
        // Nothing skipped → the evaluated frontier is the whole story.
        assert_eq!(frontier_gap(&points, &predicted[..2], &[true, true]), 0.0);
        // A skipped prediction that concedes (no improvement) costs 0.
        let conceding = vec![pm(100.0, 10.0), pm(80.0, 20.0), pm(150.0, 30.0)];
        assert_eq!(frontier_gap(&points, &conceding, &[true, true, false]), 0.0);
    }

    /// Predicts by class index — lets tests drive the pruner with exact
    /// or deliberately wrong predictions.
    struct TablePredictor {
        by_class: Vec<PredictedMetrics>,
    }

    impl MetricPredictor for TablePredictor {
        fn predict(&self, f: &ClassFeatures) -> PredictedMetrics {
            self.by_class[f.mode_class as usize]
        }
    }

    #[test]
    fn learned_sweep_with_oracle_keeps_exact_frontier() {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let base = DsCts::new(Technology::asap7());
        let grid: Vec<u32> = (20..=1000).step_by(60).collect();
        let exact = SweepEngine::new(&base)
            .try_sweep(&design, grid.iter().copied())
            .expect("sweepable");
        // Oracle predictions: the exact metrics of each class.
        let by_class: Vec<PredictedMetrics> = exact
            .classes
            .iter()
            .map(|c| {
                let p = exact
                    .points
                    .iter()
                    .find(|p| p.threshold == c.thresholds[0])
                    .expect("every class has a point");
                pm(p.latency_ps, f64::from(p.resources()))
            })
            .collect();
        let oracle = TablePredictor { by_class };
        let learned = SweepEngine::new(&base)
            .sweep_fanout_learned(
                &design,
                grid.iter().copied(),
                &oracle,
                &PruneConfig {
                    calibration_stride: 0,
                    ..PruneConfig::default()
                },
            )
            .expect("sweepable");
        // Evaluated points are bit-identical to the exact sweep's.
        for lp in &learned.points {
            let ep = exact
                .points
                .iter()
                .find(|p| p.threshold == lp.threshold)
                .expect("same thresholds");
            assert_eq!(lp, ep);
        }
        // With exact predictions the pruned frontier IS the frontier,
        // and no skipped class claims to beat it.
        assert_eq!(
            frontier_pairs(&learned.points),
            frontier_pairs(&exact.points)
        );
        assert_eq!(learned.guaranteed_vs_predicted, 0.0);
        assert_eq!(learned.classes.len(), exact.classes.len());
        assert_eq!(
            learned.classes_skipped,
            learned.evaluated.iter().filter(|&&e| !e).count()
        );
        // Pre-DP intra counts are filled for skipped classes too.
        for (lc, ec) in learned.classes.iter().zip(&exact.classes) {
            assert_eq!(lc.intra_side_nodes, ec.intra_side_nodes);
        }
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

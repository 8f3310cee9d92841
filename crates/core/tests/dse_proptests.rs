//! Property tests: the batched DSE engine is bit-identical to the naive
//! per-threshold pipeline.
//!
//! Random small designs are swept over random threshold grids with both
//! delay models; [`SweepEngine::try_sweep`] must return exactly — as
//! `f64`s, via `MetricsPoint: PartialEq` — what [`sweep_fanout_naive`]
//! computes by re-running the whole pipeline per threshold, while its
//! mode-equivalence classes must partition the requested grid. Each
//! property sweeps three pipelines ([`bases`]): the default one, a
//! two-pass schedule whose classes accept moves before their points are
//! read, and a corner-aware one, whose robust points must equal each
//! naive run's cross-corner summary too.
//!
//! Both sides read their metrics from the evaluator the schedule left, so
//! every naive run is also checked against the batch evaluator: its
//! metrics against [`DsCts::evaluate_tree`] and, when corner-aware, its
//! corner report against [`CornerReport::try_evaluate`].

use dscts_core::dse::{MetricsPoint, RobustPoint, SweepEngine};
use dscts_core::mcmm::CornerReport;
use dscts_core::opt::OptSchedule;
use dscts_core::sizing::SizingPass;
use dscts_core::skew::{EndpointRefinePass, SkewConfig};
use dscts_core::{DsCts, EvalModel, ModeRule};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use proptest::prelude::*;
use rayon::prelude::*;

/// What the naive sweep computes per threshold: its point, its
/// cross-corner view when the base is corner-aware, and the moves each
/// pass of its run's schedule accepted, in schedule order.
struct Naive {
    points: Vec<MetricsPoint>,
    robust_points: Option<Vec<RobustPoint>>,
    accepted: Vec<Vec<usize>>,
}

/// The reference sweep the batched engine is checked against: one full
/// pipeline run per threshold, no sharing, each checked against the
/// batch evaluator.
fn sweep_fanout_naive(base: &DsCts, design: &Design, thresholds: &[u32]) -> Naive {
    let runs: Vec<(MetricsPoint, Option<RobustPoint>, Vec<usize>)> = thresholds
        .par_iter()
        .map(|&t| {
            let o = base
                .clone()
                .mode_rule(ModeRule::FanoutThreshold(t))
                .run(design);
            assert_eq!(o.metrics, base.evaluate_tree(&o.tree), "threshold {t}");
            if let Some(corners) = base.corner_set() {
                let batch = CornerReport::try_evaluate(&o.tree, corners, base.delay_model())
                    .expect("the run evaluated every corner");
                assert_eq!(o.corners.as_ref(), Some(&batch), "threshold {t}");
            }
            let m = &o.metrics;
            let point = MetricsPoint {
                threshold: t,
                latency_ps: m.latency_ps,
                skew_ps: m.skew_ps,
                buffers: m.buffers,
                ntsvs: m.ntsvs,
                wirelength_nm: m.wirelength_nm,
            };
            let robust = o.corners.as_ref().map(|c| RobustPoint {
                threshold: t,
                worst_latency_ps: c.robust.worst_latency_ps,
                worst_skew_ps: c.robust.worst_skew_ps,
                arrival_spread_ps: c.robust.arrival_spread_ps,
            });
            let accepted = o
                .optimization
                .as_ref()
                .map_or_else(Vec::new, |r| r.passes.iter().map(|p| p.accepted).collect());
            (point, robust, accepted)
        })
        .collect();
    Naive {
        points: runs.iter().map(|r| r.0).collect(),
        robust_points: base.corner_set().map(|_| {
            runs.iter()
                .map(|r| r.1.clone().expect("a corner-aware run reports corners"))
                .collect()
        }),
        accepted: runs.into_iter().map(|r| r.2).collect(),
    }
}

/// The pipelines each property sweeps under `model`: the default one; a
/// forced two-pass schedule (sizing, then end-point refinement that
/// triggers at any skew), so classes accept moves before their points
/// are read; and a corner-aware one over the ASAP7 PVT corners.
fn bases(model: EvalModel) -> [DsCts; 3] {
    let tech = Technology::asap7();
    let plain = DsCts::new(tech.clone()).eval_model(model);
    let forced =
        plain
            .clone()
            .schedule(OptSchedule::new().with(SizingPass::default()).with(
                EndpointRefinePass::new(SkewConfig {
                    trigger_percent: 0.0,
                    ..SkewConfig::default()
                }),
            ));
    let cornered = plain.clone().corners(CornerSet::asap7_pvt(&tech));
    [plain, forced, cornered]
}

/// A small random design: C4 geometry scaled down, varied by seed.
fn small_design(sinks: usize, seed: u64) -> Design {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = sinks;
    spec.num_cells = sinks * 12;
    spec.seed = seed;
    spec.generate()
}

/// Checks one sweep against the naive one and returns the moves each
/// naive run's passes accepted.
fn check_sweep(design: &Design, base: &DsCts, grid: &[u32]) -> Vec<Vec<usize>> {
    let naive = sweep_fanout_naive(base, design, grid);
    let sweep = SweepEngine::new(base)
        .try_sweep(design, grid.iter().copied())
        .expect("random designs stay feasible");
    // Bit-identical points and cross-corner views, in request order.
    assert_eq!(sweep.points, naive.points);
    assert_eq!(sweep.robust_points, naive.robust_points);
    // Classes partition the grid: every threshold in exactly one class,
    // members kept in request order within a class.
    let mut seen: Vec<u32> = Vec::new();
    for class in &sweep.classes {
        assert!(!class.thresholds.is_empty(), "empty class");
        seen.extend(&class.thresholds);
    }
    let mut seen_sorted = seen.clone();
    seen_sorted.sort_unstable();
    let mut grid_sorted = grid.to_vec();
    grid_sorted.sort_unstable();
    assert_eq!(seen_sorted, grid_sorted);
    // Equal-threshold requests always land in the same class, so the
    // class count is bounded by the distinct thresholds.
    grid_sorted.dedup();
    assert!(sweep.classes.len() <= grid_sorted.len());
    naive.accepted
}

/// [`check_sweep`] over every one of [`bases`]`(model)`.
fn check_sweep_bases(design: &Design, model: EvalModel, grid: &[u32]) {
    for base in &bases(model) {
        check_sweep(design, base, grid);
    }
}

#[test]
fn batched_sweep_matches_naive_and_dedups() {
    let design = BenchmarkSpec::c4_riscv32i().generate();
    let [base, forced, cornered] = bases(EvalModel::Elmore);
    let grid: Vec<u32> = (20..=1000).step_by(140).collect();
    let naive = sweep_fanout_naive(&base, &design, &grid);
    let sweep = SweepEngine::new(&base)
        .try_sweep(&design, grid.iter().copied())
        .expect("sweepable");
    assert_eq!(sweep.points, naive.points);
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
    // The other two bases. On C4 the forced schedule accepts moves at
    // every threshold, so every class's point is read after moves.
    let accepted = check_sweep(&design, &forced, &grid);
    assert!(
        accepted
            .iter()
            .all(|passes| passes.iter().sum::<usize>() > 0),
        "{accepted:?}"
    );
    check_sweep(&design, &cornered, &grid);
}

/// The proptests' 60–200-sink designs rarely give the forced schedule's
/// refine pass a move to accept; on this 700-sink design it accepts
/// moves under both delay models, so points are read from evaluators
/// that both passes moved.
#[test]
fn batched_sweep_matches_naive_after_refine_moves() {
    let design = small_design(700, 1);
    let grid = [1, 20, 60, 1000];
    for model in [EvalModel::Elmore, EvalModel::Nldm] {
        let [plain, forced, cornered] = bases(model);
        check_sweep(&design, &plain, &grid);
        check_sweep(&design, &cornered, &grid);
        // The forced schedule is sizing, then end-point refinement.
        let accepted = check_sweep(&design, &forced, &grid);
        assert!(
            accepted.iter().any(|passes| passes[1] > 0),
            "{model:?}: {accepted:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_sweep_matches_naive_elmore(
        sinks in 60usize..200,
        seed in 0u64..1_000,
        start in 1u32..40,
        step in 1usize..60,
    ) {
        let design = small_design(sinks, seed);
        // Grids deliberately overshoot the design's fanout range so the
        // all-full tail exercises class merging.
        let grid: Vec<u32> = (start..=(sinks as u32 + 60)).step_by(step).collect();
        check_sweep_bases(&design, EvalModel::Elmore, &grid);
    }

    #[test]
    fn batched_sweep_matches_naive_nldm(
        sinks in 60usize..200,
        seed in 0u64..1_000,
        step in 1usize..60,
    ) {
        let design = small_design(sinks, seed);
        let grid: Vec<u32> = (1..=(sinks as u32 + 60)).step_by(step).collect();
        check_sweep_bases(&design, EvalModel::Nldm, &grid);
    }

    #[test]
    fn batched_sweep_matches_naive_without_refinement(
        sinks in 60usize..160,
        seed in 0u64..500,
    ) {
        // Refinement disabled: points are scored on raw DP output on both
        // paths, and the engine must still agree.
        let design = small_design(sinks, seed);
        let base = DsCts::new(Technology::asap7()).skew_refinement(None);
        let grid: Vec<u32> = (1..=(sinks as u32 + 40)).step_by(7).collect();
        check_sweep(&design, &base, &grid);
    }
}

//! Property tests: the batched DSE engine is bit-identical to the naive
//! per-threshold pipeline.
//!
//! Random small designs are swept over random threshold grids with both
//! delay models; [`SweepEngine::try_sweep`] must return exactly — as
//! `f64`s, via `MetricsPoint: PartialEq` — what [`sweep_fanout_naive`]
//! computes by re-running the whole pipeline per threshold, while its
//! mode-equivalence classes must partition the requested grid.

use dscts_core::dse::{MetricsPoint, SweepEngine};
use dscts_core::{DsCts, EvalModel, ModeRule};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::Technology;
use proptest::prelude::*;
use rayon::prelude::*;

/// The reference sweep the batched engine is checked against: one full
/// pipeline run per threshold, no sharing.
fn sweep_fanout_naive(base: &DsCts, design: &Design, thresholds: &[u32]) -> Vec<MetricsPoint> {
    thresholds
        .par_iter()
        .map(|&t| {
            let m = base
                .clone()
                .mode_rule(ModeRule::FanoutThreshold(t))
                .run(design)
                .metrics;
            MetricsPoint {
                threshold: t,
                latency_ps: m.latency_ps,
                skew_ps: m.skew_ps,
                buffers: m.buffers,
                ntsvs: m.ntsvs,
                wirelength_nm: m.wirelength_nm,
            }
        })
        .collect()
}

/// A small random design: C4 geometry scaled down, varied by seed.
fn small_design(sinks: usize, seed: u64) -> Design {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = sinks;
    spec.num_cells = sinks * 12;
    spec.seed = seed;
    spec.generate()
}

fn check_sweep(design: &Design, base: &DsCts, grid: &[u32]) {
    let naive = sweep_fanout_naive(base, design, grid);
    let sweep = SweepEngine::new(base)
        .try_sweep(design, grid.iter().copied())
        .expect("random designs stay feasible");
    // Bit-identical points, in request order.
    assert_eq!(sweep.points, naive);
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
}

#[test]
fn batched_sweep_matches_naive_and_dedups() {
    let design = BenchmarkSpec::c4_riscv32i().generate();
    let base = DsCts::new(Technology::asap7());
    let grid: Vec<u32> = (20..=1000).step_by(140).collect();
    let naive = sweep_fanout_naive(&base, &design, &grid);
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
        let base = DsCts::new(Technology::asap7());
        // Grids deliberately overshoot the design's fanout range so the
        // all-full tail exercises class merging.
        let grid: Vec<u32> = (start..=(sinks as u32 + 60)).step_by(step).collect();
        check_sweep(&design, &base, &grid);
    }

    #[test]
    fn batched_sweep_matches_naive_nldm(
        sinks in 60usize..200,
        seed in 0u64..1_000,
        step in 1usize..60,
    ) {
        let design = small_design(sinks, seed);
        let base = DsCts::new(Technology::asap7()).eval_model(EvalModel::Nldm);
        let grid: Vec<u32> = (1..=(sinks as u32 + 60)).step_by(step).collect();
        check_sweep(&design, &base, &grid);
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

//! Property tests for the composable optimization pass API.
//!
//! Two invariants the `opt` redesign promises:
//!
//! * **Schedule equivalence.** A schedule of
//!   `SizingPass + EndpointRefinePass` over one shared evaluator is
//!   bit-identical — trees *and* their batch metrics, as `f64`s — to the
//!   chain of two one-pass schedules, each over its own freshly built
//!   evaluator. Checked on random small designs under both
//!   [`EvalModel`]s.
//! * **Annealing discipline.** `AnnealedSizingPass` is deterministic per
//!   seed, never degrades the MOES objective it anneals on (it reverts to
//!   the best accepted state), and with star moves disabled never changes
//!   resource counts.

use dscts_core::opt::{
    moes_objective_of, AnnealConfig, AnnealedSizingPass, OptSchedule, ScheduleReport,
};
use dscts_core::sizing::{SizingConfig, SizingPass};
use dscts_core::skew::{EndpointRefinePass, SkewConfig};
use dscts_core::{
    try_run_dp, DpConfig, EvalModel, HierarchicalRouter, IncrementalEval, MoesWeights,
    SynthesizedTree,
};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::Technology;
use proptest::prelude::*;

/// A small random design: C4 geometry scaled down, varied by seed.
fn small_design(sinks: usize, seed: u64) -> Design {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = sinks;
    spec.num_cells = sinks * 12;
    spec.seed = seed;
    spec.generate()
}

/// Routes and DP-assigns with latency-greedy MOES weights, which leaves
/// skew on the table so every optimization pass does real work.
fn workload(design: &Design, tech: &Technology) -> SynthesizedTree {
    let cfg = DpConfig {
        moes: MoesWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            delta: 0.0,
        },
        ..DpConfig::default()
    };
    let mut topo = HierarchicalRouter::new()
        .try_route(design, tech)
        .expect("routable");
    topo.subdivide(40_000);
    let res = try_run_dp(&topo, tech, &cfg, None, None, None)
        .expect("feasible")
        .0;
    SynthesizedTree::new(topo, res.assignment)
}

/// Forced-trigger refinement config so the pass fires on small designs.
fn forced_skew_cfg() -> SkewConfig {
    SkewConfig {
        trigger_percent: 0.0,
        max_rounds: 2,
        ..SkewConfig::default()
    }
}

/// Runs `schedule` over a freshly built single-corner evaluator of `t`.
fn run(
    schedule: &OptSchedule,
    t: &mut SynthesizedTree,
    tech: &Technology,
    model: EvalModel,
) -> ScheduleReport {
    schedule.run(&mut IncrementalEval::new(t, tech, model), None)
}

fn check_schedule_equivalence(design: &Design, model: EvalModel) {
    let tech = Technology::asap7();
    let base = workload(design, &tech);
    let sizing = SizingPass::new(SizingConfig::default());
    let refine = EndpointRefinePass::new(forced_skew_cfg());

    // Chained: each pass runs over its own freshly built evaluator.
    let mut chained = base.clone();
    let sizing_rep = run(
        &OptSchedule::new().with(sizing.clone()),
        &mut chained,
        &tech,
        model,
    );
    let refine_rep = run(&OptSchedule::new().with(refine), &mut chained, &tech, model);

    // One shared evaluator across the same two passes.
    let mut managed = base.clone();
    let schedule = OptSchedule::new().with(sizing).with(refine);
    let report = run(&schedule, &mut managed, &tech, model);

    // Bit-identical trees (patterns, scales, star buffers) and metrics.
    assert_eq!(chained, managed);
    assert_eq!(report.passes[0].accepted, sizing_rep.passes[0].accepted);
    assert_eq!(report.passes[1].accepted, refine_rep.passes[0].accepted);
    assert_eq!(report.passes[1].triggered, refine_rep.passes[0].triggered);
    assert_eq!(
        managed.evaluate(&tech, model),
        chained.evaluate(&tech, model)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn default_schedule_matches_legacy_elmore(
        sinks in 60usize..200,
        seed in 0u64..1_000,
    ) {
        let design = small_design(sinks, seed);
        check_schedule_equivalence(&design, EvalModel::Elmore);
    }

    #[test]
    fn default_schedule_matches_legacy_nldm(
        sinks in 60usize..200,
        seed in 0u64..1_000,
    ) {
        let design = small_design(sinks, seed);
        check_schedule_equivalence(&design, EvalModel::Nldm);
    }

    #[test]
    fn annealed_sizing_deterministic_and_monotone(
        sinks in 60usize..160,
        design_seed in 0u64..500,
        anneal_seed in 0u64..1_000,
        star_choice in 0usize..2,
    ) {
        let star_prob = if star_choice == 0 { 0.0 } else { 0.25 };
        let design = small_design(sinks, design_seed);
        let tech = Technology::asap7();
        let base = workload(&design, &tech);
        let cfg = AnnealConfig {
            moves: 600,
            star_prob,
            ..AnnealConfig::default()
        };
        let w = cfg.weights;
        let run_once = || {
            let mut t = base.clone();
            let schedule = OptSchedule::new()
                .seed(anneal_seed)
                .with(AnnealedSizingPass::new(cfg.clone()));
            let _ = run(&schedule, &mut t, &tech, EvalModel::Elmore);
            let m = t.evaluate(&tech, EvalModel::Elmore);
            (t, m)
        };
        let (t1, after) = run_once();
        let (t2, again) = run_once();
        // Deterministic per seed: bit-identical trees and metrics.
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(&after, &again);
        // Never degrades the objective it accepts on.
        let before = base.evaluate(&tech, EvalModel::Elmore);
        prop_assert!(moes_objective_of(&w, &after) <= moes_objective_of(&w, &before) + 1e-9);
        // Pure sizing keeps resource counts bit-equal.
        if star_prob == 0.0 {
            prop_assert_eq!(after.buffers, before.buffers);
            prop_assert_eq!(after.ntsvs, before.ntsvs);
        }
        // Side legality is untouched by sizing/star moves.
        prop_assert_eq!(t1.validate_sides(), Ok(()));
    }
}

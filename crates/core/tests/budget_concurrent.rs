//! Budget expiry inside batch loops, under concurrent load.
//!
//! PR 7's resilience suites cover single-run budget paths (stage
//! boundaries, pass trial loops). These tests cover the *batch* engines:
//! deadline expiry inside `SweepEngine`'s mode-class fan-out, trial
//! budgets truncating mid-sweep, and corner-aware evaluators observing a
//! shared token from several threads at once.

use dscts_core::dse::SweepEngine;
use dscts_core::opt::{OptSchedule, PassManager};
use dscts_core::{
    AnnealConfig, AnnealedSizingPass, CancelToken, CtsError, DsCts, EvalModel, IncrementalEval,
    RobustObjective, RunBudget, ScheduleReport, SynthesizedTree,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};
use std::time::Duration;

fn small_design() -> dscts_netlist::Design {
    BenchmarkSpec::scaled(600, 3).generate()
}

/// Runs `schedule` over the three ASAP7 PVT corners of `tree`, scoring
/// the worst one.
fn run_corners(
    schedule: &OptSchedule,
    tree: &mut SynthesizedTree,
    corners: &CornerSet,
    cancel: Option<&CancelToken>,
) -> ScheduleReport {
    let eval =
        IncrementalEval::with_corners(tree, corners, EvalModel::Elmore, RobustObjective::default())
            .expect("small design is feasible at every PVT corner");
    PassManager::new(schedule).run(eval, cancel)
}

fn annealed_base(tech: Technology) -> DsCts {
    DsCts::new(tech).schedule(
        OptSchedule::new().with(AnnealedSizingPass::new(AnnealConfig {
            moves: 400,
            ..AnnealConfig::default()
        })),
    )
}

/// A zero deadline trips the sweep token before the first mode class
/// runs: the class loop reports `Cancelled { stage: "dse" }` instead of
/// hanging or returning a torn grid.
#[test]
fn expired_deadline_cancels_sweep_class_loop() {
    let design = small_design();
    let base =
        DsCts::new(Technology::asap7()).budget(RunBudget::new().with_deadline(Duration::ZERO));
    let err = SweepEngine::new(&base)
        .try_sweep(&design, [4, 16, 64])
        .expect_err("zero deadline must cancel the sweep");
    assert!(
        matches!(err, CtsError::Cancelled { stage: "dse" }),
        "expected Cancelled at the dse checkpoint, got {err:?}"
    );
}

/// A tiny trial budget is exhausted *inside* the first class's annealing
/// schedule. The budget is run-wide: the class that trips it degrades
/// (its optimization truncates), and the class loop then observes the
/// shared token at its next checkpoint and cancels typed — it must not
/// silently keep sweeping an exhausted budget.
#[test]
fn trial_exhaustion_mid_class_cancels_remaining_classes_typed() {
    let design = small_design();
    let budgeted = annealed_base(Technology::asap7()).budget(RunBudget::new().with_max_trials(5));
    let err = SweepEngine::new(&budgeted)
        .try_sweep(&design, [4, 16, 64])
        .expect_err("an exhausted trial budget must stop the class loop");
    assert!(
        matches!(err, CtsError::Cancelled { stage: "dse" }),
        "expected the typed dse checkpoint, got {err:?}"
    );
}

/// An ample budget is *bit-identical* to no budget at all: threading the
/// token through the class fan-out must not perturb results while the
/// token is untripped.
#[test]
fn untripped_budget_is_bit_identical_in_sweep() {
    let design = small_design();
    let thresholds = [4, 16, 64];
    let plain = annealed_base(Technology::asap7());
    let budgeted = annealed_base(Technology::asap7())
        .budget(RunBudget::new().with_deadline(Duration::from_secs(3600)));
    let a = SweepEngine::new(&plain)
        .try_sweep(&design, thresholds)
        .expect("plain sweep");
    let b = SweepEngine::new(&budgeted)
        .try_sweep(&design, thresholds)
        .expect("budgeted sweep");
    assert_eq!(a.points, b.points);
}

/// Four threads run the corner-aware schedule concurrently, each with
/// its own tree clone and a pre-tripped token: every fan-out truncates
/// typed (report.truncated), every tree stays valid (re-evaluation
/// agrees), and all threads produce the identical degraded result.
#[test]
fn mcmm_fanout_under_concurrent_load_truncates_typed() {
    let design = small_design();
    let tech = Technology::asap7();
    let corners = CornerSet::asap7_pvt(&tech);
    let base = annealed_base(tech.clone());
    let topo = base.route(&design).expect("route");
    let (tree, _dp) = base.insert(topo).expect("insert");
    let schedule = base.effective_schedule().expect("annealed schedule");

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut tree = tree.clone();
                let corners = &corners;
                let schedule = &schedule;
                scope.spawn(move || {
                    let token = RunBudget::new().with_max_trials(1).token();
                    token.record_trial(); // trip it before the fan-out
                    let report = run_corners(schedule, &mut tree, corners, Some(&token));
                    (tree, report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    let (first_tree, first_report) = &results[0];
    assert!(
        first_report.truncated,
        "a tripped token must truncate the corner fan-out"
    );
    let reference = first_tree.evaluate(&tech, EvalModel::Elmore);
    for (tree, report) in &results {
        assert!(report.truncated);
        // Valid tree invariant: a truncated schedule leaves a tree whose
        // stored state re-evaluates consistently.
        assert_eq!(tree.evaluate(&tech, EvalModel::Elmore), reference);
        assert_eq!(report.truncated, first_report.truncated);
    }
}

/// The same concurrent fan-out with an untripped token matches the
/// cancel-free corner run bit for bit, from every thread.
#[test]
fn mcmm_fanout_concurrent_untripped_matches_plain() {
    let design = small_design();
    let tech = Technology::asap7();
    let corners = CornerSet::asap7_pvt(&tech);
    let base = annealed_base(tech.clone());
    let topo = base.route(&design).expect("route");
    let (tree, _dp) = base.insert(topo).expect("insert");
    let schedule = base.effective_schedule().expect("annealed schedule");

    let mut plain_tree = tree.clone();
    let plain_report = run_corners(&schedule, &mut plain_tree, &corners, None);
    let reference = plain_tree.evaluate(&tech, EvalModel::Elmore);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let mut tree = tree.clone();
            let corners = &corners;
            let schedule = &schedule;
            let tech = &tech;
            let plain_report = &plain_report;
            let reference = &reference;
            scope.spawn(move || {
                let token = RunBudget::new()
                    .with_deadline(Duration::from_secs(3600))
                    .token();
                let report = run_corners(schedule, &mut tree, corners, Some(&token));
                assert!(!report.truncated);
                assert_eq!(report.after, plain_report.after);
                assert_eq!(&tree.evaluate(tech, EvalModel::Elmore), reference);
            });
        }
    });
}

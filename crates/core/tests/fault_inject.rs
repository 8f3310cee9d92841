//! Deterministic fault-injection harness tests (`--features fault-inject`).
//!
//! Every named site must fail *typed*: an armed `Error` surfaces as
//! [`CtsError::Internal`] from `try_run`, an armed `Panic` is caught at
//! the nearest isolation boundary (stage or DP worker) and converted to
//! the same typed error, and an armed `Infeasible` makes the evaluator
//! mutation report `false` with its journal — and every corner's state —
//! rolled back bit-identically, at one corner and at three. Arms fire
//! once and disarm, so the same pipeline retried under an exhausted plan
//! succeeds.

#![cfg(feature = "fault-inject")]

use dscts_core::resilience::fault::{
    FaultKind, FaultPlan, SITE_DP, SITE_EVAL, SITE_INCREMENTAL, SITE_ROUTE, SITE_SYNTH,
};
use dscts_core::{
    try_run_dp, CtsError, DpConfig, DsCts, EvalModel, HierarchicalRouter, IncrementalEval,
    MoesWeights, Pattern, RobustObjective, SynthesizedTree, TreeMetrics,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes this file's tests. An installed plan is process-global, so
/// a test building its tree (route, DP) while another test's plan is
/// armed would consume that plan's arms; each test holds this lock for
/// everything it runs.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn design() -> dscts_netlist::Design {
    BenchmarkSpec::c4_riscv32i().generate()
}

/// A synthesized tree built outside the pipeline, for evaluator tests.
fn tree() -> (SynthesizedTree, Technology) {
    let d = design();
    let tech = Technology::asap7();
    let mut topo = HierarchicalRouter::new()
        .try_route(&d, &tech)
        .expect("routable");
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
    let res = try_run_dp(&topo, &tech, &cfg, None, None, None)
        .expect("feasible")
        .0;
    (SynthesizedTree::new(topo, res.assignment), tech)
}

/// A buffered edge (scale and pattern mutations need one).
fn buffered_edge(t: &SynthesizedTree) -> usize {
    (1..t.topo.nodes.len())
        .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
        .expect("some buffered edge")
}

#[test]
fn error_faults_surface_as_typed_internal_errors() {
    let _serial = serial();
    // `Error` arms return `CtsError::Internal` tagged with the *site*
    // name — the error is constructed at the injection point itself.
    let d = design();
    for site in [SITE_ROUTE, SITE_DP, SITE_SYNTH, SITE_EVAL] {
        let _guard = FaultPlan::new().arm(site, FaultKind::Error).install();
        let err = DsCts::new(Technology::asap7())
            .try_run(&d)
            .expect_err("armed site must fail the run");
        match err {
            CtsError::Internal { stage, payload } => {
                assert_eq!(stage, site);
                assert_eq!(payload, format!("injected fault at `{site}`"));
            }
            other => panic!("site {site}: expected Internal, got {other}"),
        }
    }
}

#[test]
fn panic_faults_are_caught_at_isolation_boundaries() {
    let _serial = serial();
    // `Panic` arms unwind to the nearest `catch_unwind` boundary — the
    // per-stage wrapper in `try_run_once`, or the DP worker closure —
    // and come back as `Internal` tagged with the *boundary*'s name.
    let d = design();
    for (site, boundary) in [
        (SITE_ROUTE, "route"),
        (SITE_DP, "dp"),
        (SITE_SYNTH, "insertion"),
        (SITE_EVAL, "evaluate"),
    ] {
        let _guard = FaultPlan::new().arm(site, FaultKind::Panic).install();
        let err = DsCts::new(Technology::asap7())
            .try_run(&d)
            .expect_err("armed site must fail the run");
        match err {
            CtsError::Internal { stage, payload } => {
                assert_eq!(stage, boundary, "site {site}");
                assert!(
                    payload.contains(&format!("injected panic at `{site}`")),
                    "site {site}: payload {payload:?}"
                );
            }
            other => panic!("site {site}: expected Internal, got {other}"),
        }
    }
}

#[test]
fn arms_fire_once_then_disarm() {
    let _serial = serial();
    // One plan, two runs: the first trips the arm, the second sails
    // through — and matches a run that never saw a fault, bit for bit.
    let d = design();
    let clean = DsCts::new(Technology::asap7()).run(&d);
    let _guard = FaultPlan::new().arm(SITE_EVAL, FaultKind::Error).install();
    let pipe = DsCts::new(Technology::asap7());
    assert!(pipe.try_run(&d).is_err());
    let second = pipe.try_run(&d).expect("arm disarmed after firing");
    assert_eq!(second.tree, clean.tree);
    assert_eq!(second.metrics, clean.metrics);
}

#[test]
fn arm_after_skips_a_deterministic_number_of_visits() {
    let _serial = serial();
    // `arm_after(_, _, k)` lets exactly k visits pass. The incremental
    // site is visited once per mutation, so skips=1 means: first
    // mutation clean, second rejected, third clean again (disarmed).
    let (mut t, tech) = tree();
    let edge = buffered_edge(&t);
    let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
    let _guard = FaultPlan::new()
        .arm_after(SITE_INCREMENTAL, FaultKind::Infeasible, 1)
        .install();
    assert!(inc.set_buffer_scale(edge, 2.0), "visit 0 passes");
    assert!(!inc.set_buffer_scale(edge, 1.5), "visit 1 fires");
    assert!(inc.set_buffer_scale(edge, 1.5), "visit 2: disarmed");
}

/// One evaluator mutation, chosen by the proptest case.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Scale(usize, f64),
    Star(usize),
    Pattern(usize),
}

fn mutations() -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
    // (op selector, index selector, scale) — resolved against the tree's
    // actual edge/star counts inside the test.
    prop::collection::vec((0u8..3, 0usize..64, 1.2f64..2.5), 1..5)
}

fn resolve(t: &SynthesizedTree, raw: &[(u8, usize, f64)]) -> Vec<Mutation> {
    let edges: Vec<usize> = (1..t.topo.nodes.len())
        .filter(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
        .collect();
    let stars = t.topo.stars.len();
    raw.iter()
        .map(|&(op, idx, scale)| match op {
            0 => Mutation::Scale(edges[idx % edges.len()], scale),
            1 => Mutation::Star(idx % stars),
            _ => Mutation::Pattern(edges[idx % edges.len()]),
        })
        .collect()
}

proptest! {
    // Each case rebuilds the tree (route + DP), so keep the count small;
    // the per-case mutation vector still explores the op space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn injected_infeasibility_rolls_back_the_incremental_journal(raw in mutations()) {
        let _serial = serial();
        let (mut t, tech) = tree();
        let ops = resolve(&t, &raw);
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
        for op in ops {
            let before: TreeMetrics = inc.metrics();
            let mark = inc.mark();
            let _guard = FaultPlan::new()
                .arm(SITE_INCREMENTAL, FaultKind::Infeasible)
                .install();
            // The fault fires *after* the repropagation succeeded, so a
            // fully-propagated dirty path must be unwound.
            let ok = match op {
                Mutation::Scale(edge, s) => inc.set_buffer_scale(edge, s),
                Mutation::Star(si) => {
                    let on = !inc.tree().star_buffers[si];
                    inc.set_star_buffer(si, on)
                }
                // A *different* pattern: re-assigning the current one is
                // a no-op that never reaches the injection site.
                Mutation::Pattern(edge) => inc.set_pattern(edge, flip(&inc.tree().patterns, edge)),
            };
            prop_assert!(!ok, "armed mutation must report infeasible");
            prop_assert_eq!(inc.metrics(), before.clone(), "metrics not rolled back");
            prop_assert_eq!(inc.mark(), mark, "journal not rolled back");
        }
        drop(inc);
        // Nothing was ever applied: the tree still evaluates at baseline.
        prop_assert_eq!(t.evaluate(&tech, EvalModel::Elmore), baseline);
    }

    #[test]
    fn injected_infeasibility_rolls_back_every_corner(raw in mutations()) {
        let _serial = serial();
        let (mut t, tech) = tree();
        let ops = resolve(&t, &raw);
        let corners = CornerSet::asap7_pvt(&tech);
        let mut mc = IncrementalEval::with_corners(
            &mut t,
            &corners,
            EvalModel::Elmore,
            RobustObjective::WorstCorner,
        )
        .expect("C4 is feasible at every PVT corner");
        let before: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        for op in ops {
            let mark = mc.mark();
            // One evaluator site at every K: it fires after all three
            // corners repaired their dirty paths.
            let _guard = FaultPlan::new()
                .arm(SITE_INCREMENTAL, FaultKind::Infeasible)
                .install();
            let ok = match op {
                Mutation::Scale(edge, s) => mc.set_buffer_scale(edge, s),
                Mutation::Star(si) => {
                    let on = !mc.tree().star_buffers[si];
                    mc.set_star_buffer(si, on)
                }
                Mutation::Pattern(edge) => mc.set_pattern(edge, flip(&mc.tree().patterns, edge)),
            };
            prop_assert!(!ok, "armed mutation must report infeasible");
            for (k, b) in before.iter().enumerate() {
                prop_assert_eq!(&mc.corner_metrics(k), b, "corner {} not rolled back", k);
            }
            prop_assert_eq!(mc.mark(), mark, "journal not rolled back");
        }
    }
}

/// A pattern different from `patterns[edge]`'s current assignment, so
/// the mutation actually propagates instead of no-op'ing.
fn flip(patterns: &[Option<Pattern>], edge: usize) -> Pattern {
    match patterns[edge].expect("buffered edge") {
        Pattern::Buffer => Pattern::WiringF,
        _ => Pattern::Buffer,
    }
}

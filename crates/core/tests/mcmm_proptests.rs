//! Property tests for the corner-aware incremental evaluator:
//!
//! * the **single identity corner** evaluator
//!   ([`IncrementalEval::with_corners`] over [`CornerSet::nominal_only`])
//!   is bit-identical to [`IncrementalEval::new`] under arbitrary
//!   interleaved mutations and undos, for both delay models — mutation
//!   return values, per-step metrics, and the final written-through tree
//!   all agree as exact `f64`s;
//! * at **three corners**, every corner matches a from-scratch
//!   evaluation under its technology after every step, and the parallel
//!   fan-out is bit-identical to the serial one at 1, 2 and 4 threads;
//! * **monotonicity**: a uniformly slower corner (every derate ≥ 1)
//!   never reports lower latency than the nominal corner, at any point
//!   of a mutation sequence.

use dscts_core::{
    try_run_dp, DpConfig, EvalModel, HierarchicalRouter, IncrementalEval, MoesWeights, Pattern,
    RobustObjective, SynthesizedTree,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{Corner, CornerSet, DerateFactors, Technology, WireDerate};
use proptest::prelude::*;

/// A small random design: C4 geometry scaled down, varied by seed.
fn small_tree(sinks: usize, seed: u64) -> (SynthesizedTree, Technology) {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = sinks;
    spec.num_cells = sinks * 12;
    spec.seed = seed;
    let design = spec.generate();
    let tech = Technology::asap7();
    let mut topo = HierarchicalRouter::new()
        .seed(seed ^ 0x5eed)
        .try_route(&design, &tech)
        .expect("routable");
    topo.subdivide(40_000);
    // Latency-greedy MOES: more buffered edges for sizing moves to touch.
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

/// One scripted mutation, drawn from raw randomness and resolved against
/// the concrete tree at application time (mirrors `incremental_proptests`).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Scale the buffer of the i-th buffered edge (mod count).
    Scale(usize, f64),
    /// Toggle the refinement buffer of star i (mod count).
    StarBuffer(usize, bool),
    /// Re-pattern the i-th edge (mod count) with the k-th front-compatible
    /// pattern.
    Pattern(usize, usize),
    /// Undo the previous mutation.
    Undo,
    /// Commit everything so far.
    Commit,
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..5, 0usize..4096, 0.2f64..4.0, 0usize..4).prop_map(|(kind, i, scale, k)| match kind {
        0 | 1 => Op::Scale(i, scale),
        2 => Op::StarBuffer(i, scale > 1.0),
        3 => Op::Pattern(i, k),
        4 if i % 3 == 0 => Op::Commit,
        _ => Op::Undo,
    })
}

const FF_PATTERNS: [Pattern; 3] = [Pattern::Buffer, Pattern::WiringF, Pattern::Ntsv1];

/// The worst-corner evaluator over `corners`.
fn robust<'a>(
    t: &'a mut SynthesizedTree,
    corners: &'a CornerSet,
    model: EvalModel,
) -> IncrementalEval<'a> {
    IncrementalEval::with_corners(t, corners, model, RobustObjective::WorstCorner)
        .expect("small designs are feasible at every test corner")
}

/// Applies `ops` in lockstep to [`IncrementalEval::new`] and the
/// single-identity-corner evaluator over clones of the same tree,
/// asserting bit-identity at every step.
fn lockstep(tree: &SynthesizedTree, tech: &Technology, model: EvalModel, ops: &[Op]) {
    let corners = CornerSet::nominal_only(tech);
    let buffered: Vec<usize> = (1..tree.topo.nodes.len())
        .filter(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .collect();
    let n_edges = tree.topo.nodes.len() - 1;
    let n_stars = tree.topo.stars.len();

    let mut t_inc = tree.clone();
    let mut t_mc = tree.clone();
    let mut inc = IncrementalEval::new(&mut t_inc, tech, model);
    let mut mc = robust(&mut t_mc, &corners, model);
    for &op in ops {
        match op {
            Op::Scale(i, s) if !buffered.is_empty() => {
                let edge = buffered[i % buffered.len()];
                assert_eq!(inc.set_buffer_scale(edge, s), mc.set_buffer_scale(edge, s));
            }
            Op::Scale(..) => {}
            Op::StarBuffer(i, on) => {
                assert_eq!(
                    inc.set_star_buffer(i % n_stars, on),
                    mc.set_star_buffer(i % n_stars, on)
                );
            }
            Op::Pattern(i, k) => {
                let edge = 1 + (i % n_edges);
                let cur = inc.tree().patterns[edge].expect("assigned");
                if cur.root_side() == dscts_tech::Side::Front
                    && cur.sink_side() == dscts_tech::Side::Front
                {
                    let p = FF_PATTERNS[k % FF_PATTERNS.len()];
                    assert_eq!(inc.set_pattern(edge, p), mc.set_pattern(edge, p));
                }
            }
            Op::Undo => {
                inc.undo();
                mc.undo();
            }
            Op::Commit => {
                inc.commit();
                mc.commit();
            }
        }
        // Bit-identical state after every step.
        assert_eq!(inc.metrics(), mc.metrics());
        assert_eq!(inc.metrics(), mc.corner_metrics(0));
        assert_eq!(inc.latency_skew_ps(), mc.corner_latency_skew_ps(0));
        assert_eq!(inc.latency_skew_ps(), mc.latency_skew_ps());
        assert_eq!(inc.mark(), mc.mark());
        let r = mc.robust_metrics();
        assert_eq!(r.arrival_spread_ps, 0.0, "one corner has no spread");
    }
    let inc_final = inc.metrics();
    drop(inc);
    drop(mc);
    // Both evaluators wrote identical knobs through to their trees, and
    // the written-through trees batch-evaluate to the same metrics.
    assert_eq!(t_inc, t_mc);
    assert_eq!(t_mc.evaluate(tech, model), inc_final);
}

/// Applies `ops` through a two-corner evaluator (identity + uniformly
/// slower), asserting the slow corner never reports lower latency.
fn monotone(tree: &SynthesizedTree, tech: &Technology, model: EvalModel, slow: f64, ops: &[Op]) {
    let derate = DerateFactors {
        front_wire: WireDerate {
            res: slow,
            cap: slow,
        },
        back_wire: WireDerate {
            res: slow,
            cap: slow,
        },
        buffer_delay: slow,
        ntsv: WireDerate {
            res: slow,
            cap: slow,
        },
    };
    let corners = CornerSet::expand(
        tech,
        vec![
            Corner::nominal("TT"),
            Corner::new("SLOW", derate).expect("valid derates"),
        ],
        0,
    )
    .expect("valid corner set");
    let buffered: Vec<usize> = (1..tree.topo.nodes.len())
        .filter(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .collect();
    let n_stars = tree.topo.stars.len();

    let mut t = tree.clone();
    let mut mc = robust(&mut t, &corners, model);
    let check = |mc: &IncrementalEval<'_>| {
        let (nom_lat, _) = mc.corner_latency_skew_ps(0);
        let (slow_lat, _) = mc.corner_latency_skew_ps(1);
        assert!(
            slow_lat >= nom_lat,
            "uniformly slower corner reported lower latency: {slow_lat} < {nom_lat}"
        );
        let r = mc.robust_metrics();
        assert_eq!(r.worst_latency_ps, slow_lat.max(nom_lat));
    };
    check(&mc);
    for &op in ops {
        match op {
            Op::Scale(i, s) if !buffered.is_empty() => {
                let _ = mc.set_buffer_scale(buffered[i % buffered.len()], s);
            }
            Op::StarBuffer(i, on) => {
                let _ = mc.set_star_buffer(i % n_stars, on);
            }
            Op::Undo => mc.undo(),
            Op::Commit => mc.commit(),
            // Pattern swaps change structure, not just speed; the
            // monotonicity claim is per-configuration, so skip them here.
            Op::Pattern(..) | Op::Scale(..) => {}
        }
        check(&mc);
    }
}

/// Serializes the `RAYON_NUM_THREADS` manipulation of the thread-count
/// sweep below (the pipeline crate's `ScopedEnv` is crate-private).
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn uniform_derate(f: f64) -> DerateFactors {
    DerateFactors {
        front_wire: WireDerate { res: f, cap: f },
        back_wire: WireDerate { res: f, cap: f },
        buffer_delay: f,
        ntsv: WireDerate { res: f, cap: f },
    }
}

/// Per-op mutation returns, per-step per-corner `(latency, skew)`, and
/// the final written-through tree — everything a parallel run must
/// reproduce bit-identically from the serial reference.
type ScriptTrace = (Vec<bool>, Vec<Vec<(f64, f64)>>, SynthesizedTree);

/// Applies `ops` through one K-corner evaluator with the given parallel
/// setting, recording every mutation's return value, every step's
/// per-corner `(latency, skew)`, and the final written-through tree.
/// After every step each corner must equal a from-scratch evaluation of
/// the current tree under that corner's technology.
fn scripted(
    tree: &SynthesizedTree,
    corners: &CornerSet,
    model: EvalModel,
    ops: &[Op],
    parallel: Option<bool>,
) -> ScriptTrace {
    let buffered: Vec<usize> = (1..tree.topo.nodes.len())
        .filter(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .collect();
    let n_edges = tree.topo.nodes.len() - 1;
    let n_stars = tree.topo.stars.len();
    let mut t = tree.clone();
    let mut mc = robust(&mut t, corners, model).with_parallel(parallel);
    let mut rets = Vec::new();
    let mut steps = Vec::new();
    for &op in ops {
        match op {
            Op::Scale(i, s) if !buffered.is_empty() => {
                rets.push(mc.set_buffer_scale(buffered[i % buffered.len()], s));
            }
            Op::Scale(..) => {}
            Op::StarBuffer(i, on) => rets.push(mc.set_star_buffer(i % n_stars, on)),
            Op::Pattern(i, k) => {
                let edge = 1 + (i % n_edges);
                let cur = mc.tree().patterns[edge].expect("assigned");
                if cur.root_side() == dscts_tech::Side::Front
                    && cur.sink_side() == dscts_tech::Side::Front
                {
                    rets.push(mc.set_pattern(edge, FF_PATTERNS[k % FF_PATTERNS.len()]));
                }
            }
            Op::Undo => mc.undo(),
            Op::Commit => mc.commit(),
        }
        for (k, tech) in corners.techs().iter().enumerate() {
            assert_eq!(
                mc.corner_metrics(k),
                mc.tree().evaluate(tech, model),
                "corner {k} diverged from a from-scratch evaluation"
            );
        }
        steps.push(
            (0..mc.corner_count())
                .map(|c| mc.corner_latency_skew_ps(c))
                .collect(),
        );
    }
    drop(mc);
    (rets, steps, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn corner_parallel_fanout_is_bit_identical_to_serial(
        sinks in 60usize..160,
        seed in 0u64..500,
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let (tree, tech) = small_tree(sinks, seed);
        let corners = CornerSet::expand(
            &tech,
            vec![
                Corner::nominal("TT"),
                Corner::new("SS", uniform_derate(1.12)).expect("valid derates"),
                Corner::new("SF", uniform_derate(1.05)).expect("valid derates"),
            ],
            0,
        )
        .expect("valid corner set");
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let serial = scripted(&tree, &corners, EvalModel::Elmore, &ops, Some(false));
        for threads in ["1", "2", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let par = scripted(&tree, &corners, EvalModel::Elmore, &ops, Some(true));
            std::env::remove_var("RAYON_NUM_THREADS");
            prop_assert_eq!(&serial.0, &par.0, "mutation outcomes differ at {} threads", threads);
            prop_assert_eq!(&serial.1, &par.1, "per-corner trajectories differ at {} threads", threads);
            prop_assert_eq!(&serial.2, &par.2, "written-through trees differ at {} threads", threads);
        }
    }

    #[test]
    fn single_nominal_corner_matches_incremental_elmore(
        sinks in 60usize..200,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op(), 1..30),
    ) {
        let (tree, tech) = small_tree(sinks, seed);
        lockstep(&tree, &tech, EvalModel::Elmore, &ops);
    }

    #[test]
    fn single_nominal_corner_matches_incremental_nldm(
        sinks in 60usize..200,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op(), 1..30),
    ) {
        let (tree, tech) = small_tree(sinks, seed);
        lockstep(&tree, &tech, EvalModel::Nldm, &ops);
    }

    #[test]
    fn uniformly_slower_corner_never_lowers_latency(
        sinks in 60usize..160,
        seed in 0u64..500,
        slow in 1.0f64..1.25,
        ops in prop::collection::vec(op(), 1..20),
    ) {
        let (tree, tech) = small_tree(sinks, seed);
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            monotone(&tree, &tech, model, slow, &ops);
        }
    }
}

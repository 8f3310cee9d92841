//! Property tests: [`IncrementalEval`] is bit-identical to the batch
//! evaluator under arbitrary interleaved mutations and undos.
//!
//! Random small designs are routed and DP-assigned; a random sequence of
//! buffer-scale / star-buffer / pattern mutations (some undone, some
//! committed) is applied through the incremental evaluator; after every
//! step and at the end, the evaluator's metrics must equal — as exact
//! `f64`s, via `TreeMetrics: PartialEq` — a from-scratch
//! `SynthesizedTree::evaluate` of the mutated tree, for both delay models.
//! At the end, an evaluator built afresh over the mutated tree must also
//! hold the repaired one's loads and star arrivals, bit for bit.

use dscts_core::{
    try_run_dp, DpConfig, EvalModel, HierarchicalRouter, IncrementalEval, MoesWeights, Pattern,
    SizingPass, SynthesizedTree, TreeMetrics,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::Technology;
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
/// the concrete tree at application time.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Scale the buffer of the i-th buffered edge (mod count).
    Scale(usize, f64),
    /// Toggle the refinement buffer of star i (mod count).
    StarBuffer(usize, bool),
    /// Re-pattern the i-th edge (mod count) with the k-th front-compatible
    /// pattern. Patterns are restricted to (F, F) endpoints so the tree
    /// stays structurally sensible; electrical infeasibility is exercised
    /// and must roll back.
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

fn apply_ops(tree: &mut SynthesizedTree, tech: &Technology, model: EvalModel, ops: &[Op]) {
    let buffered: Vec<usize> = (1..tree.topo.nodes.len())
        .filter(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .collect();
    let n_edges = tree.topo.nodes.len() - 1;
    let n_stars = tree.topo.stars.len();
    // Patterns with front-side endpoints at both ends keep leaf/root
    // constraints intact while still changing the electrical shape.
    const FF_PATTERNS: [Pattern; 3] = [Pattern::Buffer, Pattern::WiringF, Pattern::Ntsv1];

    let mut eval = IncrementalEval::new(tree, tech, model);
    for &op in ops {
        match op {
            Op::Scale(i, s) if !buffered.is_empty() => {
                let edge = buffered[i % buffered.len()];
                let _ = eval.set_buffer_scale(edge, s);
            }
            Op::Scale(..) => {}
            Op::StarBuffer(i, on) => {
                let _ = eval.set_star_buffer(i % n_stars, on);
            }
            Op::Pattern(i, k) => {
                let edge = 1 + (i % n_edges);
                // Only re-pattern edges that are already (F, F) so star /
                // side constraints stay representative.
                let cur = eval.tree().patterns[edge].expect("assigned");
                if cur.root_side() == dscts_tech::Side::Front
                    && cur.sink_side() == dscts_tech::Side::Front
                {
                    let _ = eval.set_pattern(edge, FF_PATTERNS[k % FF_PATTERNS.len()]);
                }
            }
            Op::Undo => eval.undo(),
            Op::Commit => eval.commit(),
        }
        // The evaluator's cheap queries agree with its own metrics.
        let m = eval.metrics();
        assert_eq!(eval.latency_ps(), m.latency_ps);
        assert_eq!(eval.skew_ps(), m.skew_ps);
    }
    let incremental = eval.metrics();
    let repaired = resident_view(&eval);
    drop(eval);
    // An evaluator built afresh over the mutated tree (refinement buffers,
    // rescaled buffers, re-patterned edges) holds the repaired state.
    let rebuilt = IncrementalEval::new(tree, tech, model);
    assert_eq!(resident_view(&rebuilt), repaired, "rebuilt != repaired");
    drop(rebuilt);
    // Bit-identical to a from-scratch batch evaluation of the mutated tree.
    let batch = tree.evaluate(tech, model);
    assert_eq!(incremental, batch);
}

/// What an evaluator built afresh must reproduce from a repaired one: the
/// metrics, and as bits the latency and skew, every node's load and every
/// star's earliest arrival.
fn resident_view(eval: &IncrementalEval<'_>) -> (TreeMetrics, Vec<u64>) {
    let (latency, skew) = eval.latency_skew_ps();
    let topo = &eval.tree().topo;
    let bits = [latency, skew]
        .into_iter()
        .chain((0..topo.nodes.len()).map(|v| eval.load_at(v)))
        .chain((0..topo.stars.len()).map(|si| eval.star_earliest(si)))
        .map(f64::to_bits)
        .collect();
    (eval.metrics(), bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_matches_batch_elmore(
        sinks in 60usize..220,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let (mut tree, tech) = small_tree(sinks, seed);
        apply_ops(&mut tree, &tech, EvalModel::Elmore, &ops);
    }

    #[test]
    fn incremental_matches_batch_nldm(
        sinks in 60usize..220,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let (mut tree, tech) = small_tree(sinks, seed);
        apply_ops(&mut tree, &tech, EvalModel::Nldm, &ops);
    }

    #[test]
    fn sizing_on_incremental_engine_stays_batch_consistent(
        sinks in 60usize..160,
        seed in 0u64..500,
    ) {
        // After the sizing pass the evaluator must hold exactly what a
        // batch evaluation of its output tree reports, and the batch skew
        // must not have risen.
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            let (mut tree, tech) = small_tree(sinks, seed);
            let before = tree.evaluate(&tech, model);
            let mut eval = IncrementalEval::new(&mut tree, &tech, model);
            SizingPass::default().run_on(&mut eval, None);
            eval.commit();
            let batch = eval.tree().evaluate(&tech, model);
            prop_assert_eq!(&eval.metrics(), &batch);
            prop_assert!(batch.skew_ps <= before.skew_ps + 1e-9);
        }
    }
}

//! Micro-benchmark of the post-CTS optimization passes.
//!
//! Times the greedy sizing, end-point refinement and annealed sizing
//! passes in isolation on the shared C2-sized workload (14 338 sinks, see
//! [`dscts_bench::c2_sizing_workload`]), each scheduled alone through the
//! `PassManager`, printing wall-clock per pass. The routed + DP-assigned
//! tree is built once; each timed pass starts from a fresh clone, so the
//! numbers isolate the optimization loops themselves — the workloads the
//! incremental evaluator accelerates.
//!
//! Run with `cargo run --release -p dscts-bench --bin opt_micro`.

use dscts_bench::{c2_sizing_workload, forced_refine_config};
use dscts_core::opt::{AnnealedSizingPass, OptPass, OptSchedule, PassManager, ScheduleReport};
use dscts_core::{EndpointRefinePass, EvalModel, IncrementalEval, SizingPass, SynthesizedTree};
use dscts_tech::Technology;
use std::time::Instant;

/// Runs `pass` alone over a fresh clone of `tree`, returning the report
/// and the wall clock in milliseconds.
fn timed(
    pass: impl OptPass + 'static,
    tree: &SynthesizedTree,
    tech: &Technology,
    model: EvalModel,
) -> (ScheduleReport, f64) {
    let schedule = OptSchedule::new().seed(7).with(pass);
    let mut t = tree.clone();
    let t0 = Instant::now();
    let rep = PassManager::new(&schedule).run(IncrementalEval::new(&mut t, tech, model), None);
    (rep, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let t0 = Instant::now();
    let (tree, tech) = c2_sizing_workload();
    println!(
        "setup (route + DP, {} sinks, {} trunk nodes): {:.1} ms",
        tree.topo.sink_pos.len(),
        tree.topo.nodes.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    for model in [EvalModel::Elmore, EvalModel::Nldm] {
        let (rep, ms) = timed(SizingPass::default(), &tree, &tech, model);
        println!(
            "sizing [{model:?}]: {ms:.1} ms ({} resized, skew {:.3} -> {:.3} ps)",
            rep.passes[0].accepted, rep.before.skew_ps, rep.after.skew_ps
        );

        let refine = EndpointRefinePass::new(forced_refine_config());
        let (rep, ms) = timed(refine, &tree, &tech, model);
        println!(
            "endpoint-refine [{model:?}]: {ms:.1} ms ({} buffers added, skew {:.3} -> {:.3} ps)",
            rep.passes[0].accepted, rep.before.skew_ps, rep.after.skew_ps
        );

        let (rep, ms) = timed(AnnealedSizingPass::default(), &tree, &tech, model);
        println!(
            "annealed-sizing [{model:?}]: {ms:.1} ms ({}/{} moves accepted, skew {:.3} -> {:.3} ps, latency {:.3} -> {:.3} ps)",
            rep.passes[0].accepted,
            rep.passes[0].attempted,
            rep.before.skew_ps,
            rep.after.skew_ps,
            rep.before.latency_ps,
            rep.after.latency_ps
        );
    }
}

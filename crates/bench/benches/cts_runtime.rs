//! Criterion benchmarks for the runtime (RT) columns of Table III:
//! our full flow versus the conventional OpenROAD-like + \[2\] flow, per
//! design. The paper reports a 6.9x geometric-mean speed-up of `Ours` over
//! `OpenROAD + [2]`; here both substrates are ours, so the comparison
//! isolates the algorithmic cost of concurrent insertion versus
//! synthesize-then-flip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dscts_bench::{c2_sizing_workload, fig12_thresholds, forced_refine_config, sizing_workload};
use dscts_core::baseline::{flip_backside, FlipMethod, HTreeCts};
use dscts_core::dse;
use dscts_core::opt::{AnnealConfig, AnnealedSizingPass, OptSchedule, PassManager};
use dscts_core::sizing::{SizingConfig, SizingPass};
use dscts_core::skew::EndpointRefinePass;
use dscts_core::{DsCts, EvalModel, IncrementalEval, RobustObjective, SynthesizedTree};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};
use std::hint::black_box;

/// Runs `schedule` over a fresh single-corner evaluator of a clone of
/// `tree`, returning the final skew.
fn run_schedule(schedule: &OptSchedule, tree: &SynthesizedTree, tech: &Technology) -> f64 {
    let mut t = tree.clone();
    let eval = IncrementalEval::new(&mut t, tech, EvalModel::Elmore);
    PassManager::new(schedule).run(eval, None).after.skew_ps
}

fn bench_flows(c: &mut Criterion) {
    let tech = Technology::asap7();
    // C4 and C5 keep bench wall-time reasonable; table3 reports wall-clock
    // for all five designs.
    let designs = [
        ("C4_riscv32i", BenchmarkSpec::c4_riscv32i().generate()),
        ("C5_aes", BenchmarkSpec::c5_aes().generate()),
    ];

    let mut group = c.benchmark_group("cts_runtime");
    group.sample_size(10);
    for (id, design) in &designs {
        group.bench_with_input(BenchmarkId::new("ours_full_flow", id), design, |b, d| {
            let pipe = DsCts::new(tech.clone());
            b.iter(|| black_box(pipe.run(d).metrics.latency_ps));
        });
        group.bench_with_input(
            BenchmarkId::new("openroad_like_plus_flip2", id),
            design,
            |b, d| {
                b.iter(|| {
                    let tree = HTreeCts::default().synthesize(d, &tech);
                    let flipped = flip_backside(&tree, &tech, FlipMethod::Latency);
                    black_box(
                        flipped
                            .tree
                            .evaluate(&tech, dscts_core::EvalModel::Elmore)
                            .latency_ps,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("our_bct_front_only", id),
            design,
            |b, d| {
                let pipe = DsCts::new(tech.clone()).single_side(true);
                b.iter(|| black_box(pipe.run(d).metrics.latency_ps));
            },
        );
    }
    group.finish();
}

/// Post-CTS optimization micro-benches on the shared C2-sized workload
/// (14 338 sinks): each pass scheduled alone over the incremental
/// evaluator. Each iteration starts from a fresh clone of the routed +
/// DP-assigned tree, so the numbers isolate the optimization passes
/// themselves.
fn bench_opt_passes(c: &mut Criterion) {
    let (tree, tech) = c2_sizing_workload();

    let mut group = c.benchmark_group("opt_passes");
    group.sample_size(10);
    let sizing = OptSchedule::new().with(SizingPass::new(SizingConfig::default()));
    group.bench_with_input(BenchmarkId::new("sizing", "C2"), &tree, |b, t| {
        b.iter(|| black_box(run_schedule(&sizing, t, &tech)));
    });
    let refine = OptSchedule::new().with(EndpointRefinePass::new(forced_refine_config()));
    group.bench_with_input(BenchmarkId::new("endpoint_refine", "C2"), &tree, |b, t| {
        b.iter(|| black_box(run_schedule(&refine, t, &tech)));
    });
    group.finish();
}

/// Multi-pass schedules on the same C2-sized workload: sizing then
/// refinement over one shared evaluator, plus the annealed sizing pass
/// at a bench-sized move budget.
fn bench_opt_schedule(c: &mut Criterion) {
    let (tree, tech) = c2_sizing_workload();

    let mut group = c.benchmark_group("opt_schedule");
    group.sample_size(10);
    let sizing_then_refine = OptSchedule::new()
        .with(SizingPass::new(SizingConfig::default()))
        .with(EndpointRefinePass::new(forced_refine_config()));
    group.bench_with_input(
        BenchmarkId::new("pass_manager_sizing_then_refine", "C2"),
        &tree,
        |b, t| {
            b.iter(|| black_box(run_schedule(&sizing_then_refine, t, &tech)));
        },
    );
    let annealed = OptSchedule::new()
        .seed(7)
        .with(AnnealedSizingPass::new(AnnealConfig {
            moves: 1_000,
            ..AnnealConfig::default()
        }));
    group.bench_with_input(
        BenchmarkId::new("annealed_sizing_1k_moves", "C2"),
        &tree,
        |b, t| {
            b.iter(|| black_box(run_schedule(&annealed, t, &tech)));
        },
    );
    group.finish();
}

/// DSE threshold sweeps, naive (one full pipeline per threshold) versus
/// the batched [`dse::SweepEngine`] (route once, one DP per
/// mode-equivalence class). C4 over a coarsened Fig. 12 grid keeps the
/// naive arm affordable; the `baseline --pr3` snapshot records the full
/// 99-threshold C3 sweep.
fn bench_dse_sweep(c: &mut Criterion) {
    let tech = Technology::asap7();
    let design = BenchmarkSpec::c4_riscv32i().generate();
    let base = DsCts::new(tech);
    let thresholds = fig12_thresholds(50);
    let id = format!("C4x{}", thresholds.len());

    let mut group = c.benchmark_group("dse_sweep");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("naive", &id), &design, |b, d| {
        b.iter(|| black_box(dse::sweep_fanout_naive(&base, d, thresholds.iter().copied()).len()));
    });
    group.bench_with_input(BenchmarkId::new("batched", &id), &design, |b, d| {
        b.iter(|| black_box(dse::sweep_fanout(&base, d, thresholds.iter().copied()).len()));
    });
    group.finish();
}

/// MCMM fan-out evaluation on the C4 workload with the three-corner
/// ASAP7 SS/TT/FF set: the marginal cost of keeping K corners signed
/// off per trial move. `fanout_mutation` pays K dirty ancestor paths +
/// subtrees through the resident corner-aware `IncrementalEval`;
/// `k_full_evaluates`
/// is what a non-incremental MCMM loop would pay — K from-scratch
/// `evaluate()` calls after the same knob write.
fn bench_mcmm_eval(c: &mut Criterion) {
    let (tree, tech) = sizing_workload(&BenchmarkSpec::c4_riscv32i());
    let corners = CornerSet::asap7_pvt(&tech);
    // The edge a sizing move would touch: the last buffer above a leaf
    // star, whose dirty region is a path + small subtree (a root-side
    // buffer would re-time the whole tree and measure construction, not
    // the dirty-path win).
    let edge = {
        let mut v = tree.topo.stars[0].node;
        loop {
            if tree.patterns[v as usize].is_some_and(|p| p.buffers() > 0) {
                break v as usize;
            }
            v = tree.topo.nodes[v as usize]
                .parent
                .expect("buffered ancestor");
        }
    };

    let mut group = c.benchmark_group("mcmm_eval");
    group.sample_size(10);
    // The auto-gated fan-out (serial on a C4-sized trunk), then the same
    // toggle forced onto the rayon path: each of the K=3 per-corner
    // repairs runs on its own thread into its own journal (bit-identical
    // to the serial arm). With one thread the shim degrades to the serial
    // loop, so expect parity there and a speed-up at ≥2 cores.
    for (id, parallel) in [
        ("fanout_mutation", None),
        ("fanout_mutation_parallel", Some(true)),
    ] {
        group.bench_with_input(BenchmarkId::new(id, "C4x3"), &tree, |b, t| {
            let mut t = t.clone();
            let mut mc = IncrementalEval::with_corners(
                &mut t,
                &corners,
                EvalModel::Elmore,
                RobustObjective::WorstCorner,
            )
            .expect("C4 is feasible at every PVT corner")
            .with_parallel(parallel);
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let ok = mc.set_buffer_scale(edge, if flip { 2.0 } else { 1.0 });
                assert!(ok, "scale toggle stays feasible");
                mc.commit();
                black_box(mc.latency_skew_ps())
            });
        });
    }
    group.bench_with_input(
        BenchmarkId::new("k_full_evaluates", "C4x3"),
        &tree,
        |b, t| {
            let mut t = t.clone();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                t.buffer_scales[edge] = if flip { 2.0 } else { 1.0 };
                let mut worst = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for corner_tech in corners.techs() {
                    let m = t.evaluate(corner_tech, EvalModel::Elmore);
                    worst.0 = worst.0.max(m.latency_ps);
                    worst.1 = worst.1.max(m.skew_ps);
                }
                black_box(worst)
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_flows,
    bench_opt_passes,
    bench_opt_schedule,
    bench_dse_sweep,
    bench_mcmm_eval
);
criterion_main!(benches);

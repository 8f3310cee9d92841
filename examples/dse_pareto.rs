//! Design space exploration (§III-E): sweep the fanout threshold that
//! switches DP nodes between full and intra-side insertion modes, then
//! extract the Pareto frontier trading latency against insertion resources.
//!
//! Run with `cargo run --release --example dse_pareto`.

use dscts::core::dse::{self, SweepEngine};
use dscts::{BenchmarkSpec, DsCts, Technology};

fn main() {
    let tech = Technology::asap7();
    let design = BenchmarkSpec::c4_riscv32i().generate();

    // A coarse sweep for example purposes; `fig12` runs the paper's full
    // 20..=1000 step 10 sweep.
    let thresholds = (20..=1000).step_by(70);
    let base = DsCts::new(tech);
    let points = SweepEngine::new(&base)
        .try_sweep(&design, thresholds)
        .expect("C4 is sweepable")
        .points;

    println!("threshold  latency(ps)  skew(ps)  buffers  nTSVs");
    for p in &points {
        println!(
            "{:>9}  {:>11.2}  {:>8.2}  {:>7}  {:>5}",
            p.threshold, p.latency_ps, p.skew_ps, p.buffers, p.ntsvs
        );
    }

    let frontier = dse::pareto_frontier(&points, |p| (p.resources() as f64, p.latency_ps));
    println!("\nPareto frontier (resources vs latency):");
    for &i in &frontier {
        let p = &points[i];
        println!(
            "  threshold {:>4}: {} buffers + {} nTSVs -> {:.2} ps",
            p.threshold, p.buffers, p.ntsvs, p.latency_ps
        );
    }
    println!(
        "frontier spread (normalised area coverage): {:.3}",
        dse::frontier_spread(&points, |p| (p.resources() as f64, p.latency_ps))
    );
}

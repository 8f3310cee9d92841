//! Records a performance + quality baseline for the C1–C5 designs.
//!
//! Runs the full staged pipeline (paper defaults) on every Table II
//! design and writes a JSON snapshot at the workspace root: one record
//! per design with per-stage wall clocks from
//! [`dscts_core::Outcome::stages`] and the headline quality metrics.
//! Subsequent PRs diff against the committed files to catch runtime or
//! quality regressions per stage rather than per whole run.
//!
//! Modes:
//!
//! * `baseline` — run at the ambient thread count, write
//!   `BENCH_baseline.json` (the CI smoke default);
//! * `baseline --pr2` — run the suite twice, pinned to 1 thread and at
//!   the ambient thread count, and write both runs to `BENCH_pr2.json`;
//! * `baseline --pr3` — run the C3 Fig. 12 threshold sweep (99
//!   configurations) naive vs batched, pinned to 1 thread and at the
//!   ambient thread count, verify the points are bit-identical, and
//!   write both runs to `BENCH_pr3.json`;
//! * `baseline --pr4` — run the post-CTS buffer-sizing comparison on all
//!   five latency-greedy workloads: the greedy `SizingPass` fixed point
//!   versus the `AnnealedSizingPass` at equal resource bounds (same scale
//!   alphabet, no star toggles), verify the annealer beats greedy on skew
//!   or latency on at least one design, and write quality + runtime per
//!   record to `BENCH_pr4.json`;
//! * `baseline --pr5` — run the MCMM robust-vs-nominal comparison on the
//!   C1/C4/C5 latency-greedy workloads: the default-plus-annealed
//!   schedule optimized against the nominal objective versus the same
//!   schedule fanned out over the ASAP7 SS/TT/FF corner set with the
//!   worst-corner objective, verify the robust run improves worst-corner
//!   skew at equal resource bounds on at least one design, and write
//!   per-corner + robust metrics per record to `BENCH_pr5.json`;
//! * `baseline --pr7` — run the budgeted-degradation comparison on the
//!   C1/C4 anneal-heavy workloads: time the unbudgeted run, re-run the
//!   identical pipeline under a wall-clock deadline at half that time,
//!   and verify the budgeted run still completes (valid tree, full
//!   metrics, `degraded` flag raised) inside the unbudgeted wall clock;
//!   write both arms to `BENCH_pr7.json`;
//! * `baseline --pr10` — run the learned-DSE comparison on all five
//!   designs: exact Fig. 12 threshold sweeps feeding a telemetry
//!   training corpus, a fixed-seed GBDT trained on it, then the
//!   predictor-pruned `sweep_fanout_learned` under the default band;
//!   assert in-process that every evaluated point and the whole Pareto
//!   frontier match the exact sweep bit-for-bit on every design and
//!   that at least half of all mode classes are skipped in aggregate;
//!   write both arms to `BENCH_pr10.json`;
//! * `baseline --scaling [--quick]` — run the full default pipeline on
//!   the reproducible `BenchmarkSpec::scaled` fixtures (100k under
//!   `--quick`; 100k/250k/1M otherwise), record per-stage wall clock +
//!   peak RSS to `BENCH_pr6.json`, and assert the scaling gates
//!   in-process: no stage grows worse than O(n log n) across sizes, the
//!   DP frontier cap shrinks the candidate arena on the largest fixture,
//!   and the cap is quality-neutral on C1–C5;
//! * `baseline --check <file>` — re-run the snapshot's workload (the
//!   design suite, the DSE sweep pair for a `--pr3`-style snapshot, or
//!   the sizing comparison for a `--pr4`-style one; scaling snapshots
//!   re-run the quick subset) and exit non-zero if
//!   any record's `runtime_s` regresses more than 25 % against the
//!   committed snapshot (per record, compared to the most lenient
//!   committed run). Wall-clock-relative snapshots (`BENCH_pr7.json`'s
//!   deadline-halving arms, the `BENCH_pr8/pr9.json` service loadtests) are
//!   skipped with a message and exit 0 — their runtimes are only
//!   meaningful on the recording machine. The fresh measurements are
//!   written to `BENCH_check_*.json` so CI can archive runtime
//!   trajectories.
//!
//! Run with `cargo run --release -p dscts-bench --bin baseline [-- FLAGS]`.

use dscts_bench::{all_designs, fig12_thresholds, sizing_workload, DESIGN_IDS};
use dscts_core::mcmm::{CornerReport, RobustObjective};
use dscts_core::opt::{AnnealConfig, AnnealedSizingPass, OptSchedule, PassManager};
use dscts_core::skew::SkewConfig;
use dscts_core::{
    dse, run_dp, DpConfig, DsCts, EvalModel, IncrementalEval, Outcome, RunBudget, SizingPass,
    SynthesizedTree, TreeMetrics,
};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Allowed per-design wall-clock regression in `--check` mode.
const MAX_RUNTIME_REGRESSION: f64 = 0.25;

/// Absolute grace added on top of the relative budget in `--check` mode.
/// The committed snapshot comes from a different machine than the CI
/// runner and the designs finish in milliseconds, so a pure ratio would
/// trip on hardware noise; the gate targets algorithmic regressions
/// (an accidentally quadratic loop turns milliseconds into seconds),
/// which sail past any constant this size.
const RUNTIME_GRACE_S: f64 = 0.1;

struct Record {
    design: String,
    outcome: Outcome,
}

/// One timed DSE sweep measurement (the `--pr3` workload).
struct SweepRecord {
    name: &'static str,
    runtime_s: f64,
    /// Requested thresholds.
    points: usize,
    /// DP runs actually executed (`points` for the naive path,
    /// mode-equivalence classes for the batched engine).
    dp_runs: usize,
}

/// Times the C3 Fig. 12 threshold sweep on both paths and asserts the
/// batched engine is bit-identical to the naive reference.
fn run_sweep_pair(design: &Design, tech: &Technology) -> Vec<SweepRecord> {
    let base = DsCts::new(tech.clone());
    let thresholds = fig12_thresholds(10);
    println!(
        "C3 Fig. 12 sweep: {} thresholds (fanout 20..=1000 step 10)",
        thresholds.len()
    );
    let t0 = Instant::now();
    let naive = dse::sweep_fanout_naive(&base, design, thresholds.iter().copied());
    let naive_s = t0.elapsed().as_secs_f64();
    println!(
        "  naive   {naive_s:8.3} s ({} full pipeline runs)",
        naive.len()
    );
    let t0 = Instant::now();
    let sweep = dse::SweepEngine::new(&base)
        .try_sweep(design, thresholds.iter().copied())
        .expect("C3 is sweepable");
    let batched_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        sweep.points, naive,
        "batched sweep diverged from the naive reference"
    );
    println!(
        "  batched {batched_s:8.3} s (1 route + {} class DP runs) — {:.1}x, points bit-identical",
        sweep.classes.len(),
        naive_s / batched_s.max(1e-9),
    );
    vec![
        SweepRecord {
            name: "C3-fig12-sweep-naive",
            runtime_s: naive_s,
            points: naive.len(),
            dp_runs: naive.len(),
        },
        SweepRecord {
            name: "C3-fig12-sweep-batched",
            runtime_s: batched_s,
            points: sweep.points.len(),
            dp_runs: sweep.classes.len(),
        },
    ]
}

fn sweep_records_json(records: &[SweepRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"design\": {:?}, \"thresholds\": {}, \"dp_runs\": {}, \"runtime_s\": {:.6}}}",
                r.name, r.points, r.dp_runs, r.runtime_s
            )
        })
        .collect();
    rows.join(",\n")
}

/// One timed learned-DSE measurement (the `--pr10` workload): the exact
/// batched sweep or its predictor-pruned counterpart.
struct LearnedRecord {
    /// `"<design>-learned-exact"` or `"<design>-learned-pruned"`.
    name: String,
    runtime_s: f64,
    /// Mode classes evaluated exactly (DP runs paid for).
    dp_runs: usize,
    /// Mode classes skipped on the predictor's advice.
    skipped: usize,
    /// Points on the exact Pareto frontier of the arm's sweep.
    frontier_points: usize,
    /// `guaranteed_vs_predicted` frontier distance (`0` for the exact arm).
    frontier_distance: f64,
}

/// Runs the learned-DSE comparison on all five designs: exact Fig. 12
/// threshold sweeps collected into a telemetry training corpus, a GBDT
/// trained on that corpus at a fixed seed, then
/// [`dse::SweepEngine::sweep_fanout_learned`] under the default
/// [`dse::PruneConfig`]. The PR 10 gates are asserted in-process — so
/// the CI `--check BENCH_pr10.json` re-run gates quality, not just
/// runtime: every evaluated point and the whole Pareto frontier are
/// bit-identical to the exact sweep on every design, and at least half
/// of all mode classes are skipped in aggregate.
fn run_learned_pair(tech: &Technology) -> Vec<LearnedRecord> {
    use dscts_learn::{Dataset, GbdtConfig, GbdtPredictor};
    use std::sync::Arc;

    let thresholds = fig12_thresholds(10);
    let designs = all_designs();
    let mut out = Vec::new();

    // Phase 1: exact sweeps with a telemetry collector installed — the
    // engine's per-class sweep records become the training corpus.
    let collector = Arc::new(dscts_telemetry::Telemetry::new());
    let mut exact_sweeps = Vec::new();
    {
        let _guard = dscts_telemetry::install(collector.clone());
        for (id, design) in DESIGN_IDS.iter().zip(&designs) {
            let base = DsCts::new(tech.clone());
            let t0 = Instant::now();
            let sweep = dse::SweepEngine::new(&base)
                .try_sweep(design, thresholds.iter().copied())
                .unwrap_or_else(|e| panic!("{id}: exact sweep failed: {e}"));
            out.push(LearnedRecord {
                name: format!("{id}-learned-exact"),
                runtime_s: t0.elapsed().as_secs_f64(),
                dp_runs: sweep.classes.len(),
                skipped: 0,
                frontier_points: dse::frontier_pairs(&sweep.points).len(),
                frontier_distance: 0.0,
            });
            exact_sweeps.push(sweep);
        }
    }
    let cfg = GbdtConfig {
        depth: 6,
        ..GbdtConfig::default()
    };
    let data = Dataset::from_records(&collector.snapshot().sweeps);
    let model = GbdtPredictor::train(&data, &cfg).expect("sweep corpus is trainable");
    println!(
        "trained GBDT ({} trees, seed {}) on {} sweep records from {} designs",
        cfg.trees,
        cfg.seed,
        data.len(),
        DESIGN_IDS.len()
    );

    // Phase 2: predictor-pruned sweeps, gated against the exact arms.
    let prune = dse::PruneConfig::default();
    let (mut total, mut total_skipped) = (0usize, 0usize);
    println!("design  time(ms)  classes  dp_runs  skipped  frontier  distance");
    for ((id, design), exact) in DESIGN_IDS.iter().zip(&designs).zip(&exact_sweeps) {
        let base = DsCts::new(tech.clone());
        let t0 = Instant::now();
        let learned = dse::SweepEngine::new(&base)
            .sweep_fanout_learned(design, thresholds.iter().copied(), &model, &prune)
            .unwrap_or_else(|e| panic!("{id}: learned sweep failed: {e}"));
        let runtime_s = t0.elapsed().as_secs_f64();
        // Gate 1: every evaluated point is bit-identical to its exact twin.
        for p in &learned.points {
            let twin = exact
                .points
                .iter()
                .find(|q| q.threshold == p.threshold)
                .unwrap_or_else(|| panic!("{id}: exact sweep lacks threshold {}", p.threshold));
            assert_eq!(
                p, twin,
                "{id}: learned point diverged at threshold {}",
                p.threshold
            );
        }
        // Gate 2: zero Pareto-frontier loss at the default band width.
        let frontier = dse::frontier_pairs(&learned.points);
        assert_eq!(
            frontier,
            dse::frontier_pairs(&exact.points),
            "{id}: pruning lost part of the exact Pareto frontier"
        );
        total += learned.classes.len();
        total_skipped += learned.classes_skipped;
        println!(
            "{id:<7} {:>8.1} {:>8} {:>8} {:>8} {:>9} {:>9.4}",
            runtime_s * 1e3,
            learned.classes.len(),
            learned.classes.len() - learned.classes_skipped,
            learned.classes_skipped,
            frontier.len(),
            learned.guaranteed_vs_predicted,
        );
        out.push(LearnedRecord {
            name: format!("{id}-learned-pruned"),
            runtime_s,
            dp_runs: learned.classes.len() - learned.classes_skipped,
            skipped: learned.classes_skipped,
            frontier_points: frontier.len(),
            frontier_distance: learned.guaranteed_vs_predicted,
        });
    }
    // Gate 3: the predictor must pay for itself — at least half of all
    // mode classes skipped across the suite.
    assert!(
        total_skipped * 2 >= total,
        "predictor skipped only {total_skipped}/{total} classes (< 50 %)"
    );
    println!("aggregate: skipped {total_skipped}/{total} mode classes");
    out
}

fn learned_records_json(records: &[LearnedRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"design\": {:?}, \"dp_runs\": {}, \"classes_skipped\": {}, \"frontier_points\": {}, \"frontier_distance\": {:.6}, \"runtime_s\": {:.6}}}",
                r.name, r.dp_runs, r.skipped, r.frontier_points, r.frontier_distance, r.runtime_s
            )
        })
        .collect();
    rows.join(",\n")
}

/// One timed sizing-optimizer measurement (the `--pr4` workload):
/// greedy `SizingPass` or `AnnealedSizingPass` on a latency-greedy tree.
struct SizingRecord {
    /// `"<design>-sizing-greedy"` or `"<design>-sizing-annealed"`.
    name: String,
    runtime_s: f64,
    before: TreeMetrics,
    after: TreeMetrics,
}

/// Runs the greedy-vs-annealed buffer-sizing comparison on all five
/// latency-greedy workloads, at equal resource bounds (identical scale
/// alphabet, no star-buffer toggles — the annealer's default).
fn run_sizing_pair() -> Vec<SizingRecord> {
    let mut out = Vec::new();
    println!("design  pass       time(ms)   skew(ps) before->after   latency(ps) before->after");
    for (id, spec) in DESIGN_IDS.iter().zip(BenchmarkSpec::all()) {
        let (tree, tech) = sizing_workload(&spec);
        let mut record = |name: &str, runtime_s: f64, before: &TreeMetrics, after: &TreeMetrics| {
            println!(
                "{id:<7} {name:<9} {:>9.1} {:>10.3} -> {:<10.3} {:>12.3} -> {:<10.3}",
                runtime_s * 1e3,
                before.skew_ps,
                after.skew_ps,
                before.latency_ps,
                after.latency_ps,
            );
            out.push(SizingRecord {
                name: format!("{id}-sizing-{name}"),
                runtime_s,
                before: before.clone(),
                after: after.clone(),
            });
        };

        let mut greedy = tree.clone();
        let schedule = OptSchedule::new().with(SizingPass::default());
        let t0 = Instant::now();
        let eval = IncrementalEval::new(&mut greedy, &tech, EvalModel::Elmore);
        let rep = PassManager::new(&schedule).run(eval, None);
        record(
            "greedy",
            t0.elapsed().as_secs_f64(),
            &rep.before,
            &rep.after,
        );

        let mut annealed = tree.clone();
        let schedule = OptSchedule::new()
            .seed(7)
            .with(AnnealedSizingPass::default());
        let t0 = Instant::now();
        let eval = IncrementalEval::new(&mut annealed, &tech, EvalModel::Elmore);
        let rep = PassManager::new(&schedule).run(eval, None);
        record(
            "annealed",
            t0.elapsed().as_secs_f64(),
            &rep.before,
            &rep.after,
        );

        // Equal resource bounds: the comparison is meaningless otherwise.
        let (g, a) = (&out[out.len() - 2].after, &out[out.len() - 1].after);
        assert_eq!(g.buffers, a.buffers, "{id}: resource bounds diverged");
        assert_eq!(g.ntsvs, a.ntsvs, "{id}: resource bounds diverged");
    }
    // The annealer must beat the greedy fixed point on skew or latency
    // somewhere — that is the point of paying for the moves. Asserted
    // here (not only under --pr4) so the CI `--check BENCH_pr4.json`
    // re-run gates quality as well as runtime.
    let improved_on = improved_designs(&out);
    assert!(
        !improved_on.is_empty(),
        "annealed sizing improved neither skew nor latency on any design"
    );
    println!("\nannealed beats greedy (skew or latency) on: {improved_on:?}");
    out
}

/// Designs where the annealed pass beat greedy on skew or latency.
/// Pairs records by the names they carry rather than by position, so a
/// skipped design or an added variant fails loudly instead of silently
/// misattributing wins.
fn improved_designs(records: &[SizingRecord]) -> Vec<&'static str> {
    let by_name = |name: String| {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing sizing record {name}"))
    };
    DESIGN_IDS
        .into_iter()
        .filter(|id| {
            let g = &by_name(format!("{id}-sizing-greedy")).after;
            let a = &by_name(format!("{id}-sizing-annealed")).after;
            a.skew_ps < g.skew_ps - 1e-9 || a.latency_ps < g.latency_ps - 1e-9
        })
        .collect()
}

fn sizing_records_json(records: &[SizingRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"design\": {:?}, \"runtime_s\": {:.6}, \
                 \"skew_before_ps\": {:.6}, \"skew_after_ps\": {:.6}, \
                 \"latency_before_ps\": {:.6}, \"latency_after_ps\": {:.6}, \
                 \"buffers\": {}, \"ntsvs\": {}}}",
                r.name,
                r.runtime_s,
                r.before.skew_ps,
                r.after.skew_ps,
                r.before.latency_ps,
                r.after.latency_ps,
                r.after.buffers,
                r.after.ntsvs,
            )
        })
        .collect();
    rows.join(",\n")
}

/// One timed MCMM measurement (the `--pr5` workload): the
/// default-plus-annealed schedule run nominally or fanned out over the
/// SS/TT/FF corner set with the worst-corner objective, then signed off
/// in every corner.
struct McmmRecord {
    /// `"<design>-mcmm-nominal"` or `"<design>-mcmm-robust"`.
    name: String,
    runtime_s: f64,
    /// Per-corner + robust sign-off of the optimized tree.
    report: CornerReport,
}

/// The `--pr5` designs: a small / medium / large slice of Table II (C2
/// and C3 are the expensive DSE/sizing snapshots' territory).
const MCMM_IDS: [&str; 3] = ["C1", "C4", "C5"];

fn mcmm_specs() -> [BenchmarkSpec; 3] {
    [
        BenchmarkSpec::c1_jpeg(),
        BenchmarkSpec::c4_riscv32i(),
        BenchmarkSpec::c5_aes(),
    ]
}

/// Runs the robust-vs-nominal MCMM comparison on the C1/C4/C5
/// latency-greedy workloads: the identical default-plus-annealed
/// schedule (seed 7), once scored on the nominal objective and once
/// fanned out over the ASAP7 SS/TT/FF corners with the worst-corner
/// objective. Asserts the robust run improves worst-corner skew at
/// equal resource bounds on at least one design — the PR 5 quality
/// gate, re-checked by `--check BENCH_pr5.json` in CI.
fn run_mcmm_pair() -> Vec<McmmRecord> {
    let mut out = Vec::new();
    println!(
        "design  arm        time(ms)   worst skew(ps)   worst lat(ps)   spread(ps)   bufs  nTSVs"
    );
    for (id, spec) in MCMM_IDS.iter().zip(mcmm_specs()) {
        let (tree, tech) = sizing_workload(&spec);
        let corners = CornerSet::asap7_pvt(&tech);
        let schedule = OptSchedule::default_post_cts(SkewConfig::default())
            .with(AnnealedSizingPass::default())
            .seed(7);
        let manager = PassManager::new(&schedule);
        let mut record = |name: &str, runtime_s: f64, report: CornerReport| {
            let r = &report.robust;
            let m = &report.per_corner[0];
            println!(
                "{id:<7} {name:<9} {:>9.1} {:>16.3} {:>15.3} {:>12.3} {:>6} {:>6}",
                runtime_s * 1e3,
                r.worst_skew_ps,
                r.worst_latency_ps,
                r.arrival_spread_ps,
                m.buffers,
                m.ntsvs,
            );
            out.push(McmmRecord {
                name: format!("{id}-mcmm-{name}"),
                runtime_s,
                report,
            });
        };

        let signoff = |t: &SynthesizedTree| {
            CornerReport::try_evaluate(t, &corners, EvalModel::Elmore)
                .expect("MCMM workloads are feasible at every PVT corner")
        };

        let mut nominal = tree.clone();
        let t0 = Instant::now();
        let _ = manager.run(
            IncrementalEval::new(&mut nominal, &tech, EvalModel::Elmore),
            None,
        );
        let dt = t0.elapsed().as_secs_f64();
        record("nominal", dt, signoff(&nominal));

        let mut robust = tree.clone();
        let t0 = Instant::now();
        let eval = IncrementalEval::with_corners(
            &mut robust,
            &corners,
            EvalModel::Elmore,
            RobustObjective::WorstCorner,
        )
        .expect("MCMM workloads are feasible at every PVT corner");
        let _ = manager.run(eval, None);
        let dt = t0.elapsed().as_secs_f64();
        record("robust", dt, signoff(&robust));
    }
    // The robust schedule must beat the nominal one on worst-corner skew
    // at equal resource bounds somewhere — the point of paying K dirty
    // paths per move. Asserted here (not only under --pr5) so the CI
    // `--check BENCH_pr5.json` re-run gates quality as well as runtime.
    let improved_on = mcmm_improved_designs(&out);
    assert!(
        !improved_on.is_empty(),
        "robust optimization improved worst-corner skew nowhere at equal resources"
    );
    println!("\nrobust beats nominal on worst-corner skew (equal resources) on: {improved_on:?}");
    out
}

/// Designs where the robust arm improved worst-corner skew over the
/// nominal arm *at equal resource bounds*. Pairs records by name so a
/// skipped design fails loudly instead of silently misattributing wins.
fn mcmm_improved_designs(records: &[McmmRecord]) -> Vec<&'static str> {
    let by_name = |name: String| {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing mcmm record {name}"))
    };
    MCMM_IDS
        .into_iter()
        .filter(|id| {
            let n = &by_name(format!("{id}-mcmm-nominal")).report;
            let r = &by_name(format!("{id}-mcmm-robust")).report;
            n.per_corner[0].buffers == r.per_corner[0].buffers
                && n.per_corner[0].ntsvs == r.per_corner[0].ntsvs
                && r.robust.worst_skew_ps < n.robust.worst_skew_ps - 1e-9
        })
        .collect()
}

fn mcmm_records_json(records: &[McmmRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let corners: Vec<String> = r
                .report
                .corner_names
                .iter()
                .zip(&r.report.per_corner)
                .map(|(name, m)| {
                    format!(
                        "{{\"corner\": {name:?}, \"latency_ps\": {:.6}, \"skew_ps\": {:.6}}}",
                        m.latency_ps, m.skew_ps
                    )
                })
                .collect();
            format!(
                "    {{\"design\": {:?}, \"runtime_s\": {:.6}, \
                 \"worst_skew_ps\": {:.6}, \"worst_latency_ps\": {:.6}, \
                 \"arrival_spread_ps\": {:.6}, \"buffers\": {}, \"ntsvs\": {}, \
                 \"corners\": [{}]}}",
                r.name,
                r.runtime_s,
                r.report.robust.worst_skew_ps,
                r.report.robust.worst_latency_ps,
                r.report.robust.arrival_spread_ps,
                r.report.per_corner[0].buffers,
                r.report.per_corner[0].ntsvs,
                corners.join(", "),
            )
        })
        .collect();
    rows.join(",\n")
}

/// One timed budgeted-run measurement (the `--pr7` workload): the
/// anneal-heavy pipeline run to completion, or cut short by a
/// wall-clock deadline at half the unbudgeted time and salvaged as a
/// degraded-but-valid outcome.
struct BudgetRecord {
    /// `"<design>-budget-full"` or `"<design>-budget-deadline"`.
    name: String,
    runtime_s: f64,
    /// The deadline handed to the run (0 for the unbudgeted arm).
    deadline_s: f64,
    /// Whether the run budget truncated the optimization schedule.
    degraded: bool,
    metrics: TreeMetrics,
}

/// The `--pr7` designs: the small and medium anneal workloads (the
/// deadline lands inside the optimize stage on both).
const BUDGET_IDS: [&str; 2] = ["C1", "C4"];

fn budget_specs() -> [BenchmarkSpec; 2] {
    [BenchmarkSpec::c1_jpeg(), BenchmarkSpec::c4_riscv32i()]
}

/// Runs the budgeted-degradation comparison on the C1/C4 anneal-heavy
/// workloads: the identical pipeline (seed 7, 20k-move anneal so the
/// optimize stage dominates) unbudgeted, then under a wall-clock
/// deadline at half the measured unbudgeted time. Asserts the budgeted
/// run comes back degraded-but-valid — full metrics, validated sides —
/// without blowing past the unbudgeted wall clock. Wall-clock halving
/// is machine-dependent, so this snapshot has no CI `--check` gate; the
/// deterministic equivalent lives in the core `resilience` test suite.
fn run_budget_pair() -> Vec<BudgetRecord> {
    let mut out = Vec::new();
    println!("design  arm        time(ms)   deadline(ms)   degraded   skew(ps)   latency(ps)");
    for (id, spec) in BUDGET_IDS.iter().zip(budget_specs()) {
        let design = spec.generate();
        let pipeline = || {
            DsCts::new(Technology::asap7()).schedule(OptSchedule::new().seed(7).with(
                AnnealedSizingPass::new(AnnealConfig {
                    moves: 20_000,
                    ..AnnealConfig::default()
                }),
            ))
        };
        let mut record = |name: &str, runtime_s: f64, deadline_s: f64, o: &Outcome| {
            println!(
                "{id:<7} {name:<9} {:>9.1} {:>14.1} {:>10} {:>10.3} {:>13.3}",
                runtime_s * 1e3,
                deadline_s * 1e3,
                o.degraded,
                o.metrics.skew_ps,
                o.metrics.latency_ps,
            );
            out.push(BudgetRecord {
                name: format!("{id}-budget-{name}"),
                runtime_s,
                deadline_s,
                degraded: o.degraded,
                metrics: o.metrics.clone(),
            });
        };

        let t0 = Instant::now();
        let full = pipeline().run(&design);
        let full_s = t0.elapsed().as_secs_f64();
        record("full", full_s, 0.0, &full);

        let deadline = Duration::from_secs_f64(full_s * 0.5);
        let t0 = Instant::now();
        let budgeted = pipeline()
            .budget(RunBudget::new().with_deadline(deadline))
            .try_run(&design)
            .expect("mid-optimize deadline degrades, not fails");
        let budgeted_s = t0.elapsed().as_secs_f64();
        record("deadline", budgeted_s, deadline.as_secs_f64(), &budgeted);

        assert!(
            budgeted.degraded,
            "{id}: half-time deadline must truncate the anneal"
        );
        assert_eq!(budgeted.tree.validate_sides(), Ok(()));
        assert_eq!(
            budgeted.metrics.arrivals.len(),
            full.metrics.arrivals.len(),
            "{id}: degraded outcome must still carry full metrics"
        );
        assert!(
            budgeted_s < full_s,
            "{id}: budgeted {budgeted_s:.3}s vs full {full_s:.3}s"
        );
    }
    out
}

fn budget_records_json(records: &[BudgetRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"design\": {:?}, \"runtime_s\": {:.6}, \
                 \"deadline_s\": {:.6}, \"degraded\": {}, \
                 \"skew_ps\": {:.6}, \"latency_ps\": {:.6}, \
                 \"buffers\": {}, \"ntsvs\": {}}}",
                r.name,
                r.runtime_s,
                r.deadline_s,
                r.degraded,
                r.metrics.skew_ps,
                r.metrics.latency_ps,
                r.metrics.buffers,
                r.metrics.ntsvs,
            )
        })
        .collect();
    rows.join(",\n")
}

/// One scaling-tier measurement: the full default pipeline on a
/// `BenchmarkSpec::scaled` fixture, with per-stage wall clocks and the
/// process peak-RSS high-water mark after each stage.
struct ScalingRecord {
    /// `"scaled-<n_sinks>"`.
    name: String,
    sinks: usize,
    outcome: Outcome,
}

/// Sink counts of the scaling tier. `--quick` (the CI smoke subset) runs
/// only the first entry; the committed `BENCH_pr6.json` records all
/// three.
const SCALING_SINKS: [usize; 3] = [100_000, 250_000, 1_000_000];

/// Seed of the scaling fixtures — fixed so the committed snapshot and
/// every CI re-run measure bit-identical designs.
const SCALING_SEED: u64 = 1;

/// Frontier cap used by the scaling tier's memory gate. The cap only
/// engages beyond the DP's full-diversity depth (24 trunk levels), which
/// no Table II preset reaches — so 8 is tight enough to cut the 1M-sink
/// candidate arena by ~20 % while leaving C1–C5 bit-identical.
const SCALING_FRONTIER: usize = 8;

/// Allowed slack over the ideal `n log n` stage-time ratio in
/// [`assert_scaling_complexity`]. Covers cache effects and allocator
/// noise, not an extra complexity class: a quadratic stage overshoots
/// the budget ~280x at the 100k → 1M step.
const SCALING_SLACK: f64 = 3.0;

/// Stages faster than this on the *small* design are skipped by the
/// complexity gate — their ratios are timer noise, not scaling signal.
const SCALING_MIN_STAGE_S: f64 = 0.01;

fn fmt_rss(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.0} MiB", b as f64 / (1 << 20) as f64),
        None => "n/a".into(),
    }
}

/// Runs the scaled-design suite (100k only under `--quick`), then the
/// two in-process gates: the empirical O(n log n) check between the
/// smallest and largest design, and the DP frontier memory/quality
/// gates.
fn run_scaling(quick: bool, tech: &Technology) -> Vec<ScalingRecord> {
    let sizes: &[usize] = if quick {
        &SCALING_SINKS[..1]
    } else {
        &SCALING_SINKS
    };
    println!("design          sinks   route(s)  insert(s)  optimize(s)  eval(s)  total(s)  peak RSS   latency(ps)  skew(ps)");
    let mut out = Vec::new();
    for &n in sizes {
        let design = BenchmarkSpec::scaled(n, SCALING_SEED).generate();
        let o = DsCts::new(tech.clone()).run(&design);
        let s = |name: &str| o.stage_seconds(name).unwrap_or(0.0);
        println!(
            "{:<14} {:>7} {:>9.2} {:>10.2} {:>12.2} {:>8.2} {:>9.2} {:>9} {:>12.3} {:>9.3}",
            design.name,
            n,
            s("route"),
            s("insertion"),
            s("optimize"),
            s("evaluate"),
            o.runtime_s,
            fmt_rss(o.peak_rss_bytes),
            o.metrics.latency_ps,
            o.metrics.skew_ps,
        );
        out.push(ScalingRecord {
            name: design.name.clone(),
            sinks: n,
            outcome: o,
        });
    }
    assert_scaling_complexity(&out);
    run_frontier_gates(quick, tech);
    out
}

/// Empirical complexity gate: between the smallest and largest scaled
/// design, no stage's wall clock may grow faster than `n log n` (with
/// [`SCALING_SLACK`] headroom). Skipped when only one size ran.
fn assert_scaling_complexity(records: &[ScalingRecord]) {
    let (Some(small), Some(large)) = (records.first(), records.last()) else {
        return;
    };
    if small.sinks == large.sinks {
        return;
    }
    let nlogn = |n: usize| n as f64 * (n as f64).ln();
    let ideal = nlogn(large.sinks) / nlogn(small.sinks);
    let budget = ideal * SCALING_SLACK;
    println!(
        "\ncomplexity gate {} -> {} sinks: ideal n log n ratio {ideal:.1}x, budget {budget:.1}x",
        small.sinks, large.sinks
    );
    for st in &small.outcome.stages {
        let t_small = st.seconds;
        let Some(t_large) = large.outcome.stage_seconds(&st.name) else {
            continue;
        };
        if t_small < SCALING_MIN_STAGE_S {
            println!(
                "  {:<22} {t_small:.3}s -> {t_large:.3}s (below noise floor, skipped)",
                st.name
            );
            continue;
        }
        let ratio = t_large / t_small;
        println!(
            "  {:<22} {t_small:.3}s -> {t_large:.3}s ({ratio:.1}x)",
            st.name
        );
        assert!(
            ratio <= budget,
            "stage {:?} scales worse than n log n: {ratio:.1}x > {budget:.1}x budget",
            st.name
        );
    }
    let total_ratio = large.outcome.runtime_s / small.outcome.runtime_s.max(SCALING_MIN_STAGE_S);
    println!(
        "  {:<22} {:.3}s -> {:.3}s ({total_ratio:.1}x)",
        "total", small.outcome.runtime_s, large.outcome.runtime_s
    );
    assert!(
        total_ratio <= budget,
        "total runtime scales worse than n log n: {total_ratio:.1}x > {budget:.1}x budget"
    );
}

/// The DP frontier gates, asserted in-process like the PR 4/5 quality
/// gates so `--check BENCH_pr6.json` re-verifies them in CI:
///
/// * **memory** — on the largest scaled design the tier runs (100k under
///   `--quick`, 1M otherwise), capping the frontier at
///   [`SCALING_FRONTIER`] must shrink the stored-candidate arena;
/// * **quality** — on every Table II preset (C1–C5), the capped DP must
///   pick a root candidate with bit-identical latency/skew/resources.
fn run_frontier_gates(quick: bool, tech: &Technology) {
    let base = DsCts::new(tech.clone());
    let capped = DpConfig {
        frontier: Some(SCALING_FRONTIER),
        ..DpConfig::default()
    };

    let n = if quick {
        SCALING_SINKS[0]
    } else {
        SCALING_SINKS[SCALING_SINKS.len() - 1]
    };
    let design = BenchmarkSpec::scaled(n, SCALING_SEED).generate();
    let topo = base.route(&design).expect("scaled design routes");
    let unbounded = run_dp(&topo, tech, &DpConfig::default());
    let bounded = run_dp(&topo, tech, &capped);
    println!(
        "\nfrontier memory gate (scaled-{n}): stored candidates {} -> {} ({:.1} % of unbounded)",
        unbounded.stored_candidates,
        bounded.stored_candidates,
        100.0 * bounded.stored_candidates as f64 / unbounded.stored_candidates as f64,
    );
    assert!(
        bounded.stored_candidates < unbounded.stored_candidates,
        "frontier cap {SCALING_FRONTIER} did not shrink the candidate arena on scaled-{n}"
    );

    let mut checked = 0;
    for (id, spec) in DESIGN_IDS.iter().zip(BenchmarkSpec::all()) {
        let topo = base.route(&spec.generate()).expect("preset routes");
        let unbounded = run_dp(&topo, tech, &DpConfig::default());
        let bounded = run_dp(&topo, tech, &capped);
        let (u, b) = (
            unbounded.root_candidates[unbounded.chosen],
            bounded.root_candidates[bounded.chosen],
        );
        assert_eq!(
            (
                u.latency_ps.to_bits(),
                u.skew_ps.to_bits(),
                u.buffers,
                u.ntsvs
            ),
            (
                b.latency_ps.to_bits(),
                b.skew_ps.to_bits(),
                b.buffers,
                b.ntsvs
            ),
            "{id}: frontier cap {SCALING_FRONTIER} changed the chosen root candidate"
        );
        checked += 1;
    }
    println!("frontier quality gate: chosen candidate bit-identical on {checked} presets (C1–C5)");
}

fn scaling_records_json(records: &[ScalingRecord]) -> String {
    let rss = |b: Option<u64>| b.map_or("null".to_string(), |v| v.to_string());
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let o = &r.outcome;
            let stages: Vec<String> = o
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\": {:?}, \"seconds\": {:.6}, \"peak_rss_bytes\": {}}}",
                        s.name,
                        s.seconds,
                        rss(s.peak_rss_bytes)
                    )
                })
                .collect();
            format!(
                "    {{\"design\": {:?}, \"sinks\": {}, \"runtime_s\": {:.6}, \
                 \"peak_rss_bytes\": {}, \"latency_ps\": {:.6}, \"skew_ps\": {:.6}, \
                 \"buffers\": {}, \"ntsvs\": {}, \"stages\": [{}]}}",
                r.name,
                r.sinks,
                o.runtime_s,
                rss(o.peak_rss_bytes),
                o.metrics.latency_ps,
                o.metrics.skew_ps,
                o.metrics.buffers,
                o.metrics.ntsvs,
                stages.join(", "),
            )
        })
        .collect();
    rows.join(",\n")
}

fn run_suite(designs: &[Design], tech: &Technology) -> Vec<Record> {
    println!("design   sinks   route(ms)  insert(ms)  optimize(ms)  eval(ms)  total(ms)  latency(ps)  skew(ps)  bufs  nTSVs");
    designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let o = DsCts::new(tech.clone()).run(d);
            let ms = |name: &str| o.stage_seconds(name).unwrap_or(0.0) * 1e3;
            println!(
                "C{:<7} {:>6} {:>10.1} {:>11.1} {:>13.1} {:>9.1} {:>10.1} {:>12.3} {:>9.3} {:>5} {:>6}",
                i + 1,
                d.sink_count(),
                ms("route"),
                ms("insertion"),
                ms("optimize"),
                ms("evaluate"),
                o.runtime_s * 1e3,
                o.metrics.latency_ps,
                o.metrics.skew_ps,
                o.metrics.buffers,
                o.metrics.ntsvs,
            );
            Record {
                design: format!("C{}", i + 1),
                outcome: o,
            }
        })
        .collect()
}

fn records_json(designs: &[Design], records: &[Record]) -> String {
    let mut out = String::new();
    for (i, (d, r)) in designs.iter().zip(records).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let o = &r.outcome;
        let stages: Vec<String> = o
            .stages
            .iter()
            .map(|s| format!("{{\"name\": {:?}, \"seconds\": {:.6}}}", s.name, s.seconds))
            .collect();
        let _ = write!(
            out,
            "    {{\"design\": {:?}, \"name\": {:?}, \"sinks\": {}, \
             \"stages\": [{}], \"runtime_s\": {:.6}, \
             \"latency_ps\": {:.6}, \"skew_ps\": {:.6}, \"buffers\": {}, \
             \"ntsvs\": {}, \"wirelength_nm\": {}, \"trunk_wirelength_nm\": {}}}",
            r.design,
            d.name,
            d.sink_count(),
            stages.join(", "),
            o.runtime_s,
            o.metrics.latency_ps,
            o.metrics.skew_ps,
            o.metrics.buffers,
            o.metrics.ntsvs,
            o.metrics.wirelength_nm,
            o.metrics.trunk_wirelength_nm,
        );
    }
    out
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Extracts `(design, runtime_s)` pairs from a committed snapshot. The
/// snapshots are written one record per line, so a line-oriented scan is
/// exact for our own output format (no external JSON parser available
/// offline).
fn parse_runtimes(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(dpos) = line.find("\"design\": \"") else {
            continue;
        };
        let rest = &line[dpos + 11..];
        let Some(dend) = rest.find('"') else { continue };
        let design = rest[..dend].to_string();
        let Some(rpos) = line.find("\"runtime_s\": ") else {
            continue;
        };
        let rest = &line[rpos + 13..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(rt) = rest[..end].parse::<f64>() {
            out.push((design, rt));
        }
    }
    out
}

fn write_snapshot(path: &Path, body: String) {
    std::fs::write(path, body).expect("write snapshot");
    println!("\nsnapshot written to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tech = Technology::asap7();

    if args.first().map(String::as_str) == Some("--pr3") {
        // Naive vs batched sweep, pinned to 1 thread and at the ambient
        // thread count — the PR 3 wall-clock snapshot.
        let design = BenchmarkSpec::c3_ethmac().generate();
        let ambient = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        println!("== 1 thread ==");
        let serial = run_sweep_pair(&design, &tech);
        match &ambient {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let threads = rayon::current_num_threads();
        println!("== {threads} threads ==");
        let parallel = run_sweep_pair(&design, &tech);
        let json = format!(
            "{{\n  \"flow\": \"dse_sweep_c3_fig12\",\n  \"runs\": [\n    {{\"threads\": 1, \"records\": [\n{}\n    ]}},\n    {{\"threads\": {threads}, \"records\": [\n{}\n    ]}}\n  ]\n}}\n",
            sweep_records_json(&serial),
            sweep_records_json(&parallel),
        );
        write_snapshot(&workspace_root().join("BENCH_pr3.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--pr4") {
        // Greedy vs annealed buffer sizing at equal resource bounds — the
        // PR 4 quality + wall-clock snapshot.
        let records = run_sizing_pair();
        let json = format!(
            "{{\n  \"flow\": \"post_cts_sizing_greedy_vs_annealed\",\n  \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            rayon::current_num_threads(),
            sizing_records_json(&records),
        );
        write_snapshot(&workspace_root().join("BENCH_pr4.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--pr5") {
        // Nominal vs robust (worst-corner) optimization over the ASAP7
        // SS/TT/FF corner set — the PR 5 quality + wall-clock snapshot.
        let records = run_mcmm_pair();
        let json = format!(
            "{{\n  \"flow\": \"mcmm_nominal_vs_robust\",\n  \"corners\": [\"SS\", \"TT\", \"FF\"],\n  \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            rayon::current_num_threads(),
            mcmm_records_json(&records),
        );
        write_snapshot(&workspace_root().join("BENCH_pr5.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--pr7") {
        // Unbudgeted vs half-time deadline on the anneal-heavy C1/C4
        // workloads — the PR 7 degraded-but-valid snapshot. No `--check`
        // gate: the halving is wall-clock-relative, machine-dependent by
        // construction.
        let records = run_budget_pair();
        let json = format!(
            "{{\n  \"flow\": \"budgeted_deadline_degradation\",\n  \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            rayon::current_num_threads(),
            budget_records_json(&records),
        );
        write_snapshot(&workspace_root().join("BENCH_pr7.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--pr10") {
        // Exact vs predictor-pruned DSE sweeps on all five designs — the
        // PR 10 learned-DSE snapshot. The quality gates (point + frontier
        // parity, >= 50 % classes skipped) are asserted inside
        // `run_learned_pair`, so `--check BENCH_pr10.json` re-gates them.
        let records = run_learned_pair(&tech);
        let json = format!(
            "{{\n  \"flow\": \"learned_dse_exact_vs_pruned\",\n  \"threads\": {},\n  \"records\": [\n{}\n  ]}}\n",
            rayon::current_num_threads(),
            learned_records_json(&records),
        );
        write_snapshot(&workspace_root().join("BENCH_pr10.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--scaling") {
        // The million-sink scaling tier: full default pipeline on the
        // reproducible `scaled(n, seed)` fixtures, per-stage wall clock +
        // peak RSS, with the O(n log n) and DP-frontier gates asserted
        // in-process. `--quick` (the CI smoke subset) runs only the
        // smallest fixture and skips the cross-size complexity gate.
        let quick = args.iter().any(|a| a == "--quick");
        let records = run_scaling(quick, &tech);
        let json = format!(
            "{{\n  \"flow\": \"million_sink_scaling\",\n  \"quick\": {quick},\n  \"seed\": {SCALING_SEED},\n  \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            rayon::current_num_threads(),
            scaling_records_json(&records),
        );
        write_snapshot(&workspace_root().join("BENCH_pr6.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--pr2") {
        let designs = all_designs();
        // Two pinned runs: serial, then the ambient thread count. The
        // vendored rayon shim re-reads RAYON_NUM_THREADS per parallel
        // call, so pinning via the environment takes effect immediately.
        let ambient = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        println!("== 1 thread ==");
        let serial = run_suite(&designs, &tech);
        match &ambient {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let threads = rayon::current_num_threads();
        println!("== {threads} threads ==");
        let parallel = run_suite(&designs, &tech);
        let json = format!(
            "{{\n  \"flow\": \"ours_default\",\n  \"runs\": [\n    {{\"threads\": 1, \"designs\": [\n{}\n    ]}},\n    {{\"threads\": {threads}, \"designs\": [\n{}\n    ]}}\n  ]\n}}\n",
            records_json(&designs, &serial),
            records_json(&designs, &parallel),
        );
        write_snapshot(&workspace_root().join("BENCH_pr2.json"), json);
        return;
    }

    if args.first().map(String::as_str) == Some("--check") {
        let file = args.get(1).expect("--check needs a snapshot path");
        let path = workspace_root().join(file);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let reference = parse_runtimes(&committed);
        assert!(!reference.is_empty(), "no runtime records in {file}");
        // Wall-clock-relative snapshots carry no machine-portable runtime
        // budget: the PR 7 deadline arms are defined relative to the
        // recording machine's unbudgeted wall clock, and the PR 8 service
        // loadtest records throughput of a chaos-perturbed worker pool.
        // Re-running the design suite against their unmatchable record
        // names would print "no committed reference, skipped" for every
        // row — detect them up front and say why there is nothing to
        // gate instead.
        let is_wallclock_relative = committed
            .contains("\"flow\": \"budgeted_deadline_degradation\"")
            || committed.contains("\"flow\": \"service_loadtest\"")
            || reference.iter().all(|(d, _)| d.contains("-budget-"))
            || reference.iter().all(|(d, _)| d.starts_with("svc-"));
        if is_wallclock_relative {
            println!(
                "{file}: wall-clock-relative snapshot — its runtimes are only meaningful \
                 on the machine that recorded them, so there is no runtime gate to \
                 re-check; skipping (the deterministic equivalents live in the test \
                 suites)"
            );
            return;
        }
        // Re-run whatever workload the snapshot recorded: sweep snapshots
        // (--pr3) hold sweep records, sizing snapshots (--pr4) hold the
        // greedy-vs-annealed pairs, MCMM snapshots (--pr5) the
        // nominal-vs-robust pairs, everything else the design suite.
        let is_sweep = reference.iter().all(|(d, _)| d.contains("sweep"));
        let is_sizing = reference.iter().all(|(d, _)| d.contains("-sizing-"));
        let is_mcmm = reference.iter().all(|(d, _)| d.contains("-mcmm-"));
        let is_scaling = reference.iter().all(|(d, _)| d.starts_with("scaled-"));
        let is_learned = reference.iter().all(|(d, _)| d.contains("-learned-"));
        let fresh: Vec<(String, f64)> = if is_learned {
            // Re-runs the full train + prune comparison; the frontier and
            // skip-rate gates are asserted inside.
            run_learned_pair(&tech)
                .into_iter()
                .map(|r| (r.name, r.runtime_s))
                .collect()
        } else if is_scaling {
            // Re-run only the quick (100k) subset: the committed snapshot
            // also holds the 250k/1M records, which stay un-checked in CI
            // — records without a fresh measurement are simply not
            // compared, and the quick run still asserts the frontier
            // gates in-process.
            run_scaling(true, &tech)
                .into_iter()
                .map(|r| (r.name, r.outcome.runtime_s))
                .collect()
        } else if is_sweep {
            let design = BenchmarkSpec::c3_ethmac().generate();
            run_sweep_pair(&design, &tech)
                .into_iter()
                .map(|r| (r.name.to_owned(), r.runtime_s))
                .collect()
        } else if is_sizing {
            run_sizing_pair()
                .into_iter()
                .map(|r| (r.name, r.runtime_s))
                .collect()
        } else if is_mcmm {
            run_mcmm_pair()
                .into_iter()
                .map(|r| (r.name, r.runtime_s))
                .collect()
        } else {
            run_suite(&all_designs(), &tech)
                .into_iter()
                .map(|r| (r.design, r.outcome.runtime_s))
                .collect()
        };
        let mut failed = false;
        println!();
        for (name, runtime_s) in &fresh {
            // Most lenient committed run for this record (e.g. the serial
            // one in a two-run snapshot): CI boxes are noisy, and a real
            // regression shows up against the slowest committed number.
            let budget = reference
                .iter()
                .filter(|(d, _)| d == name)
                .map(|(_, rt)| rt)
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            if budget <= 0.0 {
                println!("{name}: no committed reference, skipped");
                continue;
            }
            let limit = budget * (1.0 + MAX_RUNTIME_REGRESSION) + RUNTIME_GRACE_S;
            let ok = *runtime_s <= limit;
            println!(
                "{name}: {runtime_s:.3} s vs committed {budget:.3} s (limit {limit:.3} s) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            failed |= !ok;
        }
        // Archive the fresh measurements so CI uploads a per-PR runtime
        // trajectory next to the committed snapshots.
        let rows: Vec<String> = fresh
            .iter()
            .map(|(n, rt)| format!("    {{\"design\": {n:?}, \"runtime_s\": {rt:.6}}}"))
            .collect();
        // Derive from the file name only, so path-qualified arguments
        // (`--check ./BENCH_pr2.json`) archive next to the snapshots
        // instead of into a nonexistent "BENCH_check_./" directory.
        let base = Path::new(file)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(file);
        let check_name = format!(
            "BENCH_check_{}",
            base.trim_start_matches("BENCH_").trim_start_matches('_')
        );
        let json = format!(
            "{{\n  \"checked_against\": {file:?},\n  \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            rayon::current_num_threads(),
            rows.join(",\n")
        );
        write_snapshot(&workspace_root().join(check_name), json);
        if failed {
            eprintln!(
                "runtime regression > {:.0} % detected",
                MAX_RUNTIME_REGRESSION * 100.0
            );
            std::process::exit(1);
        }
        return;
    }

    let designs = all_designs();
    let threads = rayon::current_num_threads();
    let records = run_suite(&designs, &tech);
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"flow\": \"ours_default\",\n  \"designs\": [\n{}\n  ]\n}}\n",
        records_json(&designs, &records)
    );
    write_snapshot(&workspace_root().join("BENCH_baseline.json"), json);
}

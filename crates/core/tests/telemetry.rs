//! Property tests: telemetry is an observer, never a participant.
//!
//! Installing a collector, running the pipeline, and uninstalling it must
//! leave every outcome bit-identical to a never-instrumented run — the
//! same invariant the budget/recovery layers honor for unconfigured
//! features. The tests also assert the collector actually observed the
//! instrumented run (non-trivial counters, span histograms) and was
//! frozen at uninstall.

use dscts_core::dse::SweepEngine;
use dscts_core::skew::SkewConfig;
use dscts_core::telemetry;
use dscts_core::{AnnealConfig, AnnealedSizingPass, DsCts, OptSchedule};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The collector slot is process-global and the harness runs tests in
/// parallel; every test that installs a collector holds this lock.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// A small random design: C4 geometry scaled down, varied by seed.
fn small_design(sinks: usize, seed: u64) -> Design {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = sinks;
    spec.num_cells = sinks * 12;
    spec.seed = seed;
    spec.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn collector_presence_never_perturbs_outcomes(
        sinks in 60usize..160,
        seed in 0u64..1_000,
    ) {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let design = small_design(sinks, seed);
        let tech = Technology::asap7();
        // The annealed-sizing pass guarantees a fixed trial-move budget,
        // so the optimization and multi-corner fan-out counters are
        // exercised even on designs the refine pass leaves untouched.
        let pipeline = DsCts::new(tech.clone())
            .corners(CornerSet::asap7_pvt(&tech))
            .schedule(
                OptSchedule::default_post_cts(SkewConfig::default())
                    .with(AnnealedSizingPass::new(AnnealConfig {
                        moves: 64,
                        ..AnnealConfig::default()
                    }))
                    .seed(7),
            );

        let baseline = pipeline.try_run(&design).expect("random designs stay feasible");
        let collector = Arc::new(telemetry::Telemetry::new());
        let observed = {
            let _guard = telemetry::install(Arc::clone(&collector));
            pipeline.try_run(&design).expect("random designs stay feasible")
        };
        // Installed-then-uninstalled ≡ never-installed, bit for bit.
        prop_assert_eq!(&observed.metrics, &baseline.metrics);
        prop_assert_eq!(
            observed.corners.as_ref().map(|c| &c.robust),
            baseline.corners.as_ref().map(|c| &c.robust)
        );

        // The collector did observe the instrumented run: exactly one
        // pipeline run, with per-stage span histograms populated.
        let snap = collector.snapshot();
        prop_assert_eq!(snap.counter("pipeline.runs"), Some(1));
        for span in ["span.route", "span.insertion", "span.optimize", "span.evaluate"] {
            prop_assert!(
                snap.histogram(span).is_some_and(|h| h.count == 1),
                "missing or empty {}", span
            );
        }
        prop_assert!(snap.counter("dp.nodes").unwrap_or(0) > 0);
        prop_assert!(snap.counter("opt.trials_attempted").unwrap_or(0) > 0);
        prop_assert!(snap.counter("mcmm.corner_evals").unwrap_or(0) > 0);

        // Uninstalled means frozen: a later run leaves no trace.
        let after = pipeline.try_run(&design).expect("random designs stay feasible");
        prop_assert_eq!(&after.metrics, &baseline.metrics);
        prop_assert_eq!(collector.snapshot().counter("pipeline.runs"), Some(1));
    }

    #[test]
    fn sweeps_stay_identical_and_log_training_rows(
        sinks in 60usize..140,
        seed in 0u64..500,
    ) {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let design = small_design(sinks, seed);
        let base = DsCts::new(Technology::asap7());
        let grid: Vec<u32> = (1..=(sinks as u32 + 40)).step_by(9).collect();

        let baseline = SweepEngine::new(&base)
            .try_sweep(&design, grid.iter().copied())
            .expect("random designs stay feasible");
        let collector = Arc::new(telemetry::Telemetry::new());
        let observed = {
            let _guard = telemetry::install(Arc::clone(&collector));
            SweepEngine::new(&base)
                .try_sweep(&design, grid.iter().copied())
                .expect("random designs stay feasible")
        };
        prop_assert_eq!(observed.points, baseline.points);

        // One `dse.classes` count per mode-equivalence class.
        prop_assert_eq!(
            collector.snapshot().counter("dse.classes"),
            Some(baseline.classes.len() as u64)
        );
    }
}

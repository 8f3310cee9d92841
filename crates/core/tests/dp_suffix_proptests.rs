//! Property tests: DP suffix-cache reuse is bit-identical to uncached DP.
//!
//! The claim behind [`dscts_core::try_run_dp`]'s `reuse` argument is that a
//! node's candidate set is a pure function of its subtree (geometry,
//! tech, config, and the modes of every node under it), so copying a
//! cached set for a mode-identical subtree *is* the recomputation. These
//! tests check the claim the only way that matters: random small designs
//! and random fanout-threshold pairs, comparing the cache-reusing run
//! against the plain entry point as exact `f64`s via `DpResult:
//! PartialEq` — across thread counts, because the batched DSE engine
//! lends one class's cache to a parallel fan-out over all others.

use dscts_core::{mode_vector, try_run_dp, ClockTopo, DpConfig, DpResult, DsCts, Mode, ModeRule};
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

/// The DP under `modes` without a lent cache.
fn plain(topo: &ClockTopo, tech: &Technology, cfg: &DpConfig, modes: &[Mode]) -> DpResult {
    try_run_dp(topo, tech, cfg, Some(modes), None, None)
        .expect("feasible")
        .0
}

/// Serializes `RAYON_NUM_THREADS` manipulation (the pipeline crate's
/// `ScopedEnv` is crate-private).
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_dp_is_bit_identical_to_uncached(
        sinks in 60usize..180,
        seed in 0u64..1_000,
        t_base in 1u32..400,
        t_other in 1u32..400,
    ) {
        let design = small_design(sinks, seed);
        let tech = Technology::asap7();
        let topo = DsCts::new(tech.clone())
            .route(&design)
            .expect("random designs stay routable");
        let cfg = DpConfig::default();
        let modes_base = mode_vector(&topo, ModeRule::FanoutThreshold(t_base));
        let modes_other = mode_vector(&topo, ModeRule::FanoutThreshold(t_other));

        // The cache-producing run itself matches the plain entry point.
        let (base_res, cache) =
            try_run_dp(&topo, &tech, &cfg, Some(&modes_base), None, None).expect("feasible");
        let plain_base = plain(&topo, &tech, &cfg, &modes_base);
        prop_assert_eq!(&base_res, &plain_base);

        let plain_other = plain(&topo, &tech, &cfg, &modes_other);
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in ["1", "2", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let cached = try_run_dp(&topo, &tech, &cfg, Some(&modes_other), None, Some(&cache));
            std::env::remove_var("RAYON_NUM_THREADS");
            let (cached_res, _) = cached.expect("feasible");
            prop_assert_eq!(
                &cached_res, &plain_other,
                "cache reuse diverged at {} threads (t_base={}, t_other={})",
                threads, t_base, t_other
            );
        }
    }

    #[test]
    fn identical_modes_reuse_everything_and_still_match(
        sinks in 60usize..150,
        seed in 0u64..1_000,
        t in 1u32..400,
    ) {
        // The all-clean extreme: reusing a cache built from the *same*
        // mode vector must short-circuit every non-root node and still
        // reproduce the full result.
        let design = small_design(sinks, seed);
        let tech = Technology::asap7();
        let topo = DsCts::new(tech.clone())
            .route(&design)
            .expect("random designs stay routable");
        let cfg = DpConfig::default();
        let modes = mode_vector(&topo, ModeRule::FanoutThreshold(t));
        let (first, cache) =
            try_run_dp(&topo, &tech, &cfg, Some(&modes), None, None).expect("feasible");
        let (second, _) =
            try_run_dp(&topo, &tech, &cfg, Some(&modes), None, Some(&cache)).expect("feasible");
        prop_assert_eq!(first, second);
    }
}

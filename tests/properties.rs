//! Cross-crate property tests: the full pipeline holds its invariants on
//! randomly generated designs, not just the Table II presets.

use dscts::{BenchmarkSpec, DsCts, EvalModel, HierarchicalRouter, Technology};
use proptest::prelude::*;

fn random_spec(ffs: usize, util_pct: u64, seed: u64, banks: usize) -> BenchmarkSpec {
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.name = format!("rand-{seed}");
    spec.num_ffs = ffs;
    spec.num_cells = (ffs * 11).max(100);
    spec.utilization = util_pct as f64 / 100.0;
    spec.seed = seed;
    spec.bank_count = banks;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_on_random_designs(
        ffs in 40usize..400,
        util in 30u64..70,
        seed in 0u64..10_000,
        banks in 1usize..6,
    ) {
        let design = random_spec(ffs, util, seed, banks).generate();
        prop_assert_eq!(design.validate(), Ok(()));
        let tech = Technology::asap7();
        let outcome = DsCts::new(tech.clone()).run(&design);
        // Structural legality.
        prop_assert_eq!(outcome.tree.topo.validate(), Ok(()));
        prop_assert_eq!(outcome.tree.validate_sides(), Ok(()));
        // Every sink served exactly once.
        prop_assert_eq!(outcome.metrics.arrivals.len(), ffs);
        prop_assert!(outcome.metrics.arrivals.iter().all(|a| a.is_finite() && *a > 0.0));
        // Skew is bounded by latency; resources are sane.
        prop_assert!(outcome.metrics.skew_ps <= outcome.metrics.latency_ps);
        prop_assert!(outcome.metrics.buffers >= 1);
        prop_assert!(outcome.metrics.wirelength_nm > 0);
    }

    #[test]
    fn scaled_designs_validate_and_generate_deterministically(
        n in 1_000usize..50_000,
        seed in 0u64..1_000,
    ) {
        let spec = BenchmarkSpec::scaled(n, seed);
        let design = spec.generate();
        // Structural legality at scale: sinks in-core, outside macros,
        // macros on-die, positive caps.
        prop_assert_eq!(design.validate(), Ok(()));
        prop_assert_eq!(design.sink_count(), n);
        prop_assert_eq!(design.name.as_str(), format!("scaled-{n}").as_str());
        // Same (n, seed) must reproduce the fixture bit-identically.
        let again = BenchmarkSpec::scaled(n, seed).generate();
        prop_assert_eq!(&design, &again);
    }

    #[test]
    fn scaled_designs_synthesize_side_legal(
        n in 400usize..3_000,
        seed in 0u64..1_000,
    ) {
        let design = BenchmarkSpec::scaled(n, seed).generate();
        let outcome = DsCts::new(Technology::asap7()).skew_refinement(None).run(&design);
        prop_assert_eq!(outcome.tree.topo.validate(), Ok(()));
        prop_assert_eq!(outcome.tree.validate_sides(), Ok(()));
        prop_assert_eq!(outcome.metrics.arrivals.len(), n);
    }

    #[test]
    fn double_side_never_slower_than_single_side(
        ffs in 60usize..250,
        seed in 0u64..5_000,
    ) {
        let design = random_spec(ffs, 50, seed, 3).generate();
        let tech = Technology::asap7();
        let ds = DsCts::new(tech.clone()).skew_refinement(None).run(&design);
        let ss = DsCts::new(tech).single_side(true).skew_refinement(None).run(&design);
        // The double-side design space strictly contains the single-side
        // one; with latency-optimal pruning the MOES pick may differ, but
        // the minimum-latency root candidate cannot be worse.
        let min = |o: &dscts::Outcome| {
            o.root_candidates
                .iter()
                .map(|c| c.latency_ps)
                .fold(f64::INFINITY, f64::min)
        };
        prop_assert!(min(&ds) <= min(&ss) + 1e-6,
            "double-side min {} vs single-side min {}", min(&ds), min(&ss));
    }

    #[test]
    fn evaluation_models_stay_close(
        ffs in 60usize..200,
        seed in 0u64..5_000,
    ) {
        let design = random_spec(ffs, 50, seed, 2).generate();
        let tech = Technology::asap7();
        let outcome = DsCts::new(tech.clone()).run(&design);
        let e = outcome.tree.evaluate(&tech, EvalModel::Elmore);
        let n = outcome.tree.evaluate(&tech, EvalModel::Nldm);
        let rel = (e.latency_ps - n.latency_ps).abs() / e.latency_ps;
        prop_assert!(rel < 0.35, "Elmore {} vs NLDM {}", e.latency_ps, n.latency_ps);
    }

    #[test]
    fn subdivide_keeps_snaked_trees_valid(
        ffs in 40usize..300,
        seed in 0u64..10_000,
        snakes in prop::collection::vec((0usize..4096, 1i64..40_000), 0..12),
        max_len in 500i64..60_000,
    ) {
        let design = random_spec(ffs, 50, seed, 1 + seed as usize % 4).generate();
        let mut topo = HierarchicalRouter::new()
            .seed(seed)
            .try_route(&design, &Technology::asap7())
            .expect("routable");
        // Snake random edges: wire beyond their Manhattan span.
        let edges = topo.nodes.len() - 1;
        for &(i, extra) in &snakes {
            topo.nodes[1 + i % edges].edge_len += extra;
        }
        prop_assert_eq!(topo.validate(), Ok(()));
        let before = topo.clone();
        topo.subdivide(max_len);

        prop_assert_eq!(topo.validate(), Ok(()));
        prop_assert_eq!(topo.total_wirelength(), before.total_wirelength());
        prop_assert!(topo.nodes.iter().skip(1).all(|n| n.edge_len <= max_len));
        for (v, old) in before.nodes.iter().enumerate() {
            prop_assert_eq!(topo.nodes[v].pos, old.pos, "node {} moved", v);
            let Some(parent) = old.parent else { continue };
            // Walk the new waypoints back up to the original parent.
            let mut segments = 1;
            let mut u = topo.nodes[v].parent.expect("non-root");
            while u as usize >= before.nodes.len() {
                segments += 1;
                u = topo.nodes[u as usize].parent.expect("waypoints have parents");
            }
            prop_assert_eq!(u, parent, "node {} reattached", v);
            let want = ((old.edge_len + max_len - 1) / max_len).max(1);
            prop_assert_eq!(segments, want, "edge {} of {} nm", v, old.edge_len);
        }
    }
}

//! Quality gates every change must keep.
//!
//! * **Anchors** — the routed topologies of C1–C5 and
//!   `BenchmarkSpec::scaled(100_000, 1)` hash to committed digests, and
//!   the default flow reproduces the committed quality of
//!   `BENCH_baseline.json` (C1–C5) and `BENCH_pr6.json` (100k).
//! * **Sizing** — the annealed sizing pass beats the greedy fixed point
//!   on skew or latency on at least one of C1–C5, at equal buffers and
//!   nTSVs on every design.
//! * **MCMM** — optimizing the worst-corner objective beats optimizing
//!   the nominal one on worst-corner skew, at equal resources, on at
//!   least one of C1/C4/C5.
//! * **Scaling** (release builds only) — from 10k to 100k sinks no
//!   pipeline stage grows faster than n log n, with 3× slack.
//!
//! Tier-1 (`cargo test`) runs all but the scaling gate; run everything
//! with `cargo test --release -p dscts-bench --test gates`.

use dscts_bench::{sizing_workload, DESIGN_IDS};
use dscts_core::mcmm::{CornerReport, RobustObjective};
use dscts_core::opt::{AnnealedSizingPass, OptSchedule};
use dscts_core::skew::SkewConfig;
use dscts_core::{
    ClockTopo, DsCts, EvalModel, IncrementalEval, SizingPass, SynthesizedTree, TreeMetrics,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Committed default-flow quality (one record per line).
const BENCH_BASELINE: &str = include_str!("../../../BENCH_baseline.json");
const BENCH_PR6: &str = include_str!("../../../BENCH_pr6.json");

/// [`topo_digest`] of `DsCts::route` on C1–C5, in [`DESIGN_IDS`] order.
const TABLE2_DIGESTS: [u64; 5] = [
    1_522_910_656_903_030_184,
    10_411_454_757_187_885_582,
    2_551_165_755_048_869_331,
    12_150_625_078_293_978_502,
    11_393_111_607_284_799_661,
];
/// [`topo_digest`] of `DsCts::route` on `scaled(100_000, 1)`.
const SCALED_100K_DIGEST: u64 = 17_113_378_178_658_526_883;

/// The scaling gate times stages, so it runs alone: it takes this lock
/// for writing, every other gate for reading.
static EXCLUSIVE: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    EXCLUSIVE.read().unwrap_or_else(PoisonError::into_inner)
}

fn route(spec: &BenchmarkSpec) -> ClockTopo {
    DsCts::new(Technology::asap7())
        .route(&spec.generate())
        .expect("benchmark designs route")
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of everything routing decides: node positions, parents, edge
/// lengths, stars, sink positions and sink caps. The committed quality
/// figures are rounded; this catches any change to the tree itself.
fn topo_digest(topo: &ClockTopo) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    h.word(topo.nodes.len() as u64);
    for n in &topo.nodes {
        h.word(n.pos.x as u64);
        h.word(n.pos.y as u64);
        h.word(n.parent.map_or(u64::MAX, u64::from));
        h.word(n.edge_len as u64);
        h.word(n.star.map_or(u64::MAX, u64::from));
    }
    h.word(topo.stars.len() as u64);
    for s in &topo.stars {
        h.word(u64::from(s.node));
        h.word(s.sinks.len() as u64);
        s.sinks.iter().for_each(|&k| h.word(u64::from(k)));
        h.word(s.branch_len.len() as u64);
        s.branch_len.iter().for_each(|&l| h.word(l as u64));
    }
    h.word(topo.sink_pos.len() as u64);
    for (p, c) in topo.sink_pos.iter().zip(&topo.sink_cap) {
        h.word(p.x as u64);
        h.word(p.y as u64);
        h.word(c.to_bits());
    }
    h.0
}

/// The default flow from a routed topology, through the staged drivers:
/// they compose bit-identically to `DsCts::run`, and starting from the
/// shared route spares routing the design again.
fn default_flow(topo: &ClockTopo) -> TreeMetrics {
    let pipe = DsCts::new(Technology::asap7());
    let (mut tree, _) = pipe.insert(topo.clone()).expect("default DP is feasible");
    pipe.optimize_tree(&mut tree);
    pipe.evaluate_tree(&tree)
}

/// The text of `"key": value` in a snapshot record line.
fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let rest = &record[record.find(&tag)? + tag.len()..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim_matches('"'))
}

/// The record line of `design` in a committed snapshot.
fn record<'a>(snapshot: &'a str, design: &str) -> &'a str {
    let tag = format!("\"design\": \"{design}\"");
    snapshot
        .lines()
        .find(|l| l.contains(&tag))
        .unwrap_or_else(|| panic!("no {design} record"))
}

/// Latency and skew at the six decimals the snapshots keep, buffers,
/// nTSVs and, where the record keeps it, wirelength.
fn assert_quality(design: &str, m: &TreeMetrics, record: &str) {
    let got = [
        ("latency_ps", format!("{:.6}", m.latency_ps)),
        ("skew_ps", format!("{:.6}", m.skew_ps)),
        ("buffers", m.buffers.to_string()),
        ("ntsvs", m.ntsvs.to_string()),
        ("wirelength_nm", m.wirelength_nm.to_string()),
    ];
    for (key, value) in got {
        match field(record, key) {
            Some(committed) => assert_eq!(value, committed, "{design} {key}"),
            None => assert_eq!(key, "wirelength_nm", "{design}: no {key} in the record"),
        }
    }
}

#[test]
fn table2_routes_and_quality_match_committed() {
    let _g = shared();
    let routed: Vec<ClockTopo> = BenchmarkSpec::all().iter().map(route).collect();
    let digests: Vec<u64> = routed.iter().map(topo_digest).collect();
    assert_eq!(digests, TABLE2_DIGESTS, "C1–C5 routed topologies changed");
    for (id, topo) in DESIGN_IDS.iter().zip(&routed) {
        assert_quality(id, &default_flow(topo), record(BENCH_BASELINE, id));
    }
}

#[test]
fn scaled_100k_route_and_quality_match_committed() {
    let _g = shared();
    let topo = &route(&BenchmarkSpec::scaled(100_000, 1));
    assert_eq!(
        topo_digest(topo),
        SCALED_100K_DIGEST,
        "100k routed topology changed"
    );
    let record = record(BENCH_PR6, "scaled-100000");
    assert_quality("scaled-100000", &default_flow(topo), record);
}

#[test]
fn annealed_sizing_beats_greedy_at_equal_resources() {
    let _g = shared();
    let mut improved = Vec::new();
    for (id, spec) in DESIGN_IDS.iter().zip(BenchmarkSpec::all()) {
        let (tree, tech) = sizing_workload(&spec);
        let optimize = |schedule: OptSchedule| {
            let mut t = tree.clone();
            schedule.run(
                &mut IncrementalEval::new(&mut t, &tech, EvalModel::Elmore),
                None,
            );
            t.evaluate(&tech, EvalModel::Elmore)
        };
        let greedy = optimize(OptSchedule::new().with(SizingPass::default()));
        let annealed = optimize(
            OptSchedule::new()
                .seed(7)
                .with(AnnealedSizingPass::default()),
        );
        assert_eq!(
            (greedy.buffers, greedy.ntsvs),
            (annealed.buffers, annealed.ntsvs),
            "{id}: resource bounds diverged"
        );
        if annealed.skew_ps < greedy.skew_ps - 1e-9
            || annealed.latency_ps < greedy.latency_ps - 1e-9
        {
            improved.push(*id);
        }
    }
    assert!(
        !improved.is_empty(),
        "annealed sizing improved neither skew nor latency on any design"
    );
}

#[test]
fn robust_schedule_beats_nominal_on_worst_corner_skew() {
    let _g = shared();
    let mut improved = Vec::new();
    for (id, spec) in [
        ("C1", BenchmarkSpec::c1_jpeg()),
        ("C4", BenchmarkSpec::c4_riscv32i()),
        ("C5", BenchmarkSpec::c5_aes()),
    ] {
        let (tree, tech) = sizing_workload(&spec);
        let corners = CornerSet::asap7_pvt(&tech);
        let schedule = OptSchedule::default_post_cts(SkewConfig::default())
            .with(AnnealedSizingPass::default())
            .seed(7);
        let signoff = |t: &SynthesizedTree| {
            CornerReport::try_evaluate(t, &corners, EvalModel::Elmore)
                .expect("MCMM workloads are feasible at every PVT corner")
        };

        let mut nominal = tree.clone();
        schedule.run(
            &mut IncrementalEval::new(&mut nominal, &tech, EvalModel::Elmore),
            None,
        );
        let nominal = signoff(&nominal);

        let mut robust = tree.clone();
        let mut eval = IncrementalEval::with_corners(
            &mut robust,
            &corners,
            EvalModel::Elmore,
            RobustObjective::WorstCorner,
        )
        .expect("MCMM workloads are feasible at every PVT corner");
        schedule.run(&mut eval, None);
        let robust = signoff(&robust);

        let (n, r) = (&nominal.per_corner[0], &robust.per_corner[0]);
        if (n.buffers, n.ntsvs) == (r.buffers, r.ntsvs)
            && robust.robust.worst_skew_ps < nominal.robust.worst_skew_ps - 1e-9
        {
            improved.push(id);
        }
    }
    assert!(
        !improved.is_empty(),
        "robust optimization improved worst-corner skew nowhere at equal resources"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times stages; run with --release")]
fn no_stage_grows_faster_than_n_log_n() {
    let _g = EXCLUSIVE.write().unwrap_or_else(PoisonError::into_inner);
    const SMALL: usize = 10_000;
    const LARGE: usize = 100_000;
    /// Headroom over the ideal ratio for cache effects and noise; a
    /// quadratic stage overshoots it several times over.
    const SLACK: f64 = 3.0;
    /// Stages faster than this on the small design are timer noise.
    const MIN_STAGE_S: f64 = 0.01;

    // Best of three runs per stage, and for the whole flow.
    let timings = |n: usize| {
        let design = BenchmarkSpec::scaled(n, 1).generate();
        let mut best = BTreeMap::new();
        for _ in 0..3 {
            let o = DsCts::new(Technology::asap7()).run(&design);
            let rows = o.stages.iter().map(|s| (s.name.to_string(), s.seconds));
            for (name, s) in rows.chain([("total".to_string(), o.runtime_s)]) {
                best.entry(name)
                    .and_modify(|b: &mut f64| *b = b.min(s))
                    .or_insert(s);
            }
        }
        best
    };
    let (small, large) = (timings(SMALL), timings(LARGE));
    let nlogn = |n: usize| n as f64 * (n as f64).ln();
    let budget = SLACK * nlogn(LARGE) / nlogn(SMALL);
    for (name, t_small) in &small {
        let Some(t_large) = large.get(name) else {
            continue;
        };
        let ratio = t_large / t_small;
        println!("{name:<22} {t_small:.3}s -> {t_large:.3}s ({ratio:.1}x, budget {budget:.1}x)");
        assert!(
            *t_small < MIN_STAGE_S || ratio <= budget,
            "{name} scales worse than n log n: {ratio:.1}x > {budget:.1}x"
        );
    }
}

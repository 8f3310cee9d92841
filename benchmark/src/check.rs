//! Output checks and the paper's quality figures. A wrong output counts
//! as a failed operation, exactly like a call that returned an error.

use crate::stats::geomean;
use dscts_core::dse::MetricsPoint;
use dscts_core::{SynthesizedTree, TreeMetrics};
use dscts_netlist::Design;

/// Operations attempted and failed by one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error or a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records one operation. An `Err` counts as failed and is reported
    /// on stderr. Returns whether the operation succeeded.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("failed: {what}: {e}");
                false
            }
        }
    }
}

/// Committed default-flow quality of one design: `BENCH_baseline.json`
/// for C1–C5 and the 1M-sink record of `BENCH_pr6.json`. Latency and
/// skew are compared at the six decimals those files keep.
#[derive(Debug)]
pub struct Anchor {
    /// Design name.
    pub name: &'static str,
    /// Latency, ps, to six decimals.
    pub latency_ps: &'static str,
    /// Skew, ps, to six decimals.
    pub skew_ps: &'static str,
    /// Buffers.
    pub buffers: u32,
    /// nTSVs.
    pub ntsvs: u32,
    /// Clock wirelength, nm, where the record keeps it.
    pub wirelength_nm: Option<i64>,
}

/// C1–C5 in `BenchmarkSpec::all()` order.
pub const TABLE2: [Anchor; 5] = [
    Anchor {
        name: "jpeg",
        latency_ps: "94.618789",
        skew_ps: "20.813911",
        buffers: 263,
        ntsvs: 258,
        wirelength_nm: Some(23_896_805),
    },
    Anchor {
        name: "swerv_wrapper",
        latency_ps: "125.098418",
        skew_ps: "29.268554",
        buffers: 953,
        ntsvs: 1406,
        wirelength_nm: Some(79_751_428),
    },
    Anchor {
        name: "ethmac",
        latency_ps: "96.327468",
        skew_ps: "27.046772",
        buffers: 589,
        ntsvs: 686,
        wirelength_nm: Some(47_254_521),
    },
    Anchor {
        name: "riscv32i",
        latency_ps: "70.024764",
        skew_ps: "17.377448",
        buffers: 54,
        ntsvs: 43,
        wirelength_nm: Some(5_389_331),
    },
    Anchor {
        name: "aes",
        latency_ps: "79.925382",
        skew_ps: "18.121363",
        buffers: 154,
        ntsvs: 207,
        wirelength_nm: Some(11_743_907),
    },
];

/// `BenchmarkSpec::scaled(1_000_000, 1)`.
pub const SCALED_1M: Anchor = Anchor {
    name: "scaled-1000000",
    latency_ps: "556.087391",
    skew_ps: "245.249947",
    buffers: 62_118,
    ntsvs: 93_606,
    wirelength_nm: None,
};

impl Anchor {
    /// Whether `m` reproduces the committed quality.
    pub fn check(&self, m: &TreeMetrics) -> Result<(), String> {
        let latency = format!("{:.6}", m.latency_ps);
        let skew = format!("{:.6}", m.skew_ps);
        if latency != self.latency_ps
            || skew != self.skew_ps
            || m.buffers != self.buffers
            || m.ntsvs != self.ntsvs
            || self.wirelength_nm.is_some_and(|w| w != m.wirelength_nm)
        {
            return Err(format!(
                "{}: quality {latency} ps / {skew} ps / {} buffers / {} nTSVs / {} nm \
                 differs from the committed {} / {} / {} / {} / {:?}",
                self.name,
                m.buffers,
                m.ntsvs,
                m.wirelength_nm,
                self.latency_ps,
                self.skew_ps,
                self.buffers,
                self.ntsvs,
                self.wirelength_nm
            ));
        }
        Ok(())
    }
}

/// How much shorter than its Manhattan span a trunk edge may be.
/// `ClockTopo::subdivide` splits an edge's length and its geometry with
/// separate integer roundings, so a segment can come out 1 nm short (the
/// 1M-sink flow has such segments); `ClockTopo::validate` rejects that.
const SUBDIVIDE_ROUNDING_NM: i64 = 1;

/// Structural checks on a synthesized tree for `design`: the routed
/// topology validates (after lengthening edges that are at most
/// [`SUBDIVIDE_ROUNDING_NM`] short, which is why the tree is taken
/// mutably), every edge's pattern is side-legal, and every sink is driven
/// by exactly one leaf star and has a finite arrival time.
///
/// `Design::validate` is not applied: DEF keeps the core box only as
/// 270 nm rows, so a parsed design's core can end just short of sinks
/// that the generated design placed on its edge.
pub fn check_tree(
    design: &Design,
    tree: &mut SynthesizedTree,
    metrics: &TreeMetrics,
) -> Result<(), String> {
    let nodes = &mut tree.topo.nodes;
    for i in 1..nodes.len() {
        let Some(parent) = nodes[i].parent.and_then(|p| nodes.get(p as usize)) else {
            continue; // validate reports it
        };
        let span = nodes[i].pos.manhattan(parent.pos);
        if (span - SUBDIVIDE_ROUNDING_NM..span).contains(&nodes[i].edge_len) {
            nodes[i].edge_len = span;
        }
    }
    // `validate` also checks that every tree sink sits in exactly one star.
    tree.topo.validate()?;
    tree.validate_sides()?;
    if tree.topo.sink_pos != design.sink_positions() {
        return Err("tree sinks differ from the design's sinks".into());
    }
    let arrivals = &metrics.arrivals;
    if arrivals.len() != design.sinks.len() || !arrivals.iter().all(|a| a.is_finite() && *a >= 0.0)
    {
        return Err("sink arrival times are missing or not finite".into());
    }
    Ok(())
}

/// The first output of an operation becomes its reference; every later
/// output (other passes, other thread counts) must equal it exactly.
pub fn same_as<T: PartialEq + Clone>(reference: &mut Option<T>, got: &T) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got.clone());
            Ok(())
        }
        Some(r) if r == got => Ok(()),
        Some(_) => Err("output differs from the first pass".into()),
    }
}

/// The quality figures of one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qor {
    /// Latency, ps.
    pub latency_ps: f64,
    /// Skew, ps.
    pub skew_ps: f64,
    /// Clock wirelength, nm.
    pub wirelength_nm: i64,
    /// Buffers.
    pub buffers: u32,
    /// nTSVs.
    pub ntsvs: u32,
}

impl From<&TreeMetrics> for Qor {
    fn from(m: &TreeMetrics) -> Self {
        Qor {
            latency_ps: m.latency_ps,
            skew_ps: m.skew_ps,
            wirelength_nm: m.wirelength_nm,
            buffers: m.buffers,
            ntsvs: m.ntsvs,
        }
    }
}

impl From<&MetricsPoint> for Qor {
    fn from(p: &MetricsPoint) -> Self {
        Qor {
            latency_ps: p.latency_ps,
            skew_ps: p.skew_ps,
            wirelength_nm: p.wirelength_nm,
            buffers: p.buffers,
            ntsvs: p.ntsvs,
        }
    }
}

/// A workload's quality: geometric means of latency and skew (ratios
/// between designs of different size stay comparable), sums of the
/// resource counts and wirelength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Geometric-mean latency, ps.
    pub latency_ps: f64,
    /// Geometric-mean skew, ps.
    pub skew_ps: f64,
    /// Total clock wirelength, mm.
    pub wirelength_mm: f64,
    /// Total buffers.
    pub buffers: f64,
    /// Total nTSVs.
    pub ntsvs: f64,
}

impl Quality {
    /// Aggregates the trees of one workload.
    pub fn of(trees: &[Qor]) -> Self {
        let lat: Vec<f64> = trees.iter().map(|q| q.latency_ps).collect();
        let skew: Vec<f64> = trees.iter().map(|q| q.skew_ps).collect();
        Quality {
            latency_ps: geomean(&lat),
            skew_ps: geomean(&skew),
            wirelength_mm: trees.iter().map(|q| q.wirelength_nm as f64).sum::<f64>() / 1e6,
            buffers: trees.iter().map(|q| f64::from(q.buffers)).sum(),
            ntsvs: trees.iter().map(|q| f64::from(q.ntsvs)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_core::DsCts;
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

    #[test]
    fn quality_takes_geomeans_of_timing_and_sums_of_resources() {
        let q = Quality::of(&[
            Qor {
                latency_ps: 10.0,
                skew_ps: 2.0,
                wirelength_nm: 1_500_000,
                buffers: 3,
                ntsvs: 4,
            },
            Qor {
                latency_ps: 1000.0,
                skew_ps: 8.0,
                wirelength_nm: 500_000,
                buffers: 7,
                ntsvs: 0,
            },
        ]);
        assert!((q.latency_ps - 100.0).abs() < 1e-9);
        assert!((q.skew_ps - 4.0).abs() < 1e-12);
        assert_eq!(q.wirelength_mm, 2.0);
        assert_eq!(q.buffers, 10.0);
        assert_eq!(q.ntsvs, 4.0);
    }

    /// The C4 default flow passes every check; each kind of corrupted
    /// output is caught and counted as a failed operation.
    #[test]
    fn corrupted_outputs_count_as_failures() {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let outcome = DsCts::new(Technology::asap7()).try_run(&design).unwrap();
        let anchor = &TABLE2[3];
        let verdict =
            |mut tree: SynthesizedTree, m: &TreeMetrics, reference: &mut Option<TreeMetrics>| {
                check_tree(&design, &mut tree, m)
                    .and_then(|()| anchor.check(m))
                    .and_then(|()| same_as(reference, m))
            };
        let mut tally = Tally::default();
        let mut reference = None;
        assert!(tally.record(
            "c4",
            verdict(outcome.tree.clone(), &outcome.metrics, &mut reference)
        ));
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );

        // A sink dropped from its leaf star is no longer driven.
        let mut orphan = outcome.tree.clone();
        orphan.topo.stars[0].sinks.pop();
        assert!(!tally.record("orphan", verdict(orphan, &outcome.metrics, &mut reference)));

        // A skew that moved in the last digit misses the anchor.
        let mut skewed = outcome.metrics.clone();
        skewed.skew_ps += 1e-5;
        assert!(!tally.record(
            "skew",
            verdict(outcome.tree.clone(), &skewed, &mut reference)
        ));

        // A changed arrival leaves the quality figures alone but differs
        // from the first pass.
        let mut drift = outcome.metrics.clone();
        drift.arrivals[0] += 1e-9;
        assert!(!tally.record(
            "drift",
            verdict(outcome.tree.clone(), &drift, &mut reference)
        ));

        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }
}

//! Per-layer measurement from outside the program: each layer's public
//! entry point is timed around the call, and work counts come from a
//! `dscts-telemetry` collector that only the traced run installs.

use crate::stats::median;
use dscts_cluster::{DualHierarchy, KMeans};
use dscts_core::{ClockTopo, CtsError, HierarchicalRouter};
use dscts_netlist::Design;
use dscts_tech::Technology;
use dscts_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
/// A layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_s", "s"),
    ("netlist.parse_def_s", "s"),
    ("cluster.high_s", "s"),
    ("cluster.dual_s", "s"),
    ("cluster.low_s", "s"),
    ("cluster.k_high", "count"),
    ("cluster.k_low", "count"),
    ("route.try_route_s", "s"),
    ("route.rest_s", "s"),
    ("route.subdivide_s", "s"),
    ("route.stars", "count"),
    ("route.trunk_nodes", "count"),
    ("dp.insert_s", "s"),
    ("dp.height_groups", "count"),
    ("dp.nodes", "count"),
    ("dp.root_candidates", "count"),
    ("dp.suffix_reuse_ratio", "ratio"),
    ("opt.optimize_s", "s"),
    ("opt.sizing_s", "s"),
    ("opt.trials_attempted", "count"),
    ("opt.accept_ratio", "ratio"),
    ("synth.evaluate_s", "s"),
    ("mcmm.signoff_s", "s"),
    ("mcmm.corner_evals", "count"),
    ("dse.route_s", "s"),
    ("dse.classes_s", "s"),
    ("dse.classes", "count"),
    ("service.register_s", "s"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.exec_ms.score", "ms"),
    ("service.exec_ms.sweep", "ms"),
    ("service.exec_ms.sizing", "ms"),
    ("service.exec_ms.signoff", "ms"),
    ("service.retries", "count"),
    ("telemetry.overhead_s", "s"),
];

/// The paper's clustering bounds and seed, which `DsCts::new` and
/// `HierarchicalRouter::new` both default to.
const HC: usize = 3000;
const LC: usize = 30;
const CLUSTER_SEED: u64 = 7;
/// `DsCts::new`'s DP segmentation granularity, nm.
const MAX_SEGMENT_NM: i64 = 40_000;

/// One pass's per-layer sums.
pub type Acc = BTreeMap<&'static str, f64>;

/// Adds `v` to the pass's `name` sum.
pub fn add(acc: &mut Acc, name: &'static str, v: f64) {
    *acc.entry(name).or_insert(0.0) += v;
}

/// Runs `f`, adding its wall time to the pass's `name` sum.
pub fn timed<T>(acc: &mut Acc, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    add(acc, name, t0.elapsed().as_secs_f64());
    out
}

/// Routes `design` exactly as `DsCts::route` does under the paper's
/// defaults, timing each layer on the way: the high-level k-means alone,
/// the whole dual hierarchy, the router (which builds the hierarchy
/// again, then splits clusters, builds stars and runs DME) and the trunk
/// subdivision. Callers check that the resulting tree equals the plain
/// flow's, which also pins the constants above to the pipeline's.
pub fn route_layers(
    design: &Design,
    tech: &Technology,
    acc: &mut Acc,
) -> Result<ClockTopo, CtsError> {
    let sinks = design.sink_positions();
    if sinks.is_empty() {
        return Err(CtsError::EmptyDesign);
    }
    let k_high = sinks.len().div_ceil(HC);
    let high = timed(acc, "cluster.high_s", || {
        KMeans::new(k_high)
            .with_seed(CLUSTER_SEED)
            .with_cap(HC)
            .run(&sinks)
    });
    add(acc, "cluster.k_high", high.k() as f64);
    // Each clustering is freed before the next call, so at 1M sinks the
    // traced run holds one at a time.
    drop(high);
    let dual = timed(acc, "cluster.dual_s", || {
        DualHierarchy::build(&sinks, HC, LC, CLUSTER_SEED)
    });
    add(acc, "cluster.k_low", dual.low_clusters().len() as f64);
    drop(dual);
    let mut topo = timed(acc, "route.try_route_s", || {
        HierarchicalRouter::new().try_route(design, tech)
    })?;
    timed(acc, "route.subdivide_s", || topo.subdivide(MAX_SEGMENT_NM));
    add(acc, "route.stars", topo.stars.len() as f64);
    add(acc, "route.trunk_nodes", topo.nodes.len() as f64);
    Ok(topo)
}

/// Adds the collector's work counts, divided by `passes`, to `acc`.
pub fn add_counters(acc: &mut Acc, tel: &Telemetry, passes: f64) {
    let get = |name: &str| tel.counter(name).get() as f64;
    for name in [
        "dp.height_groups",
        "dp.nodes",
        "opt.trials_attempted",
        "dse.classes",
    ] {
        add(acc, name, get(name) / passes);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    add(
        acc,
        "dp.suffix_reuse_ratio",
        ratio(get("dp.suffix_reused"), get("dp.nodes")),
    );
    add(
        acc,
        "opt.accept_ratio",
        ratio(get("opt.trials_accepted"), get("opt.trials_attempted")),
    );
}

/// Runs `f` with a fresh collector installed, then uninstalls it.
pub fn with_collector<T>(f: impl FnOnce(&Telemetry) -> T) -> T {
    let tel = Arc::new(Telemetry::new());
    let _guard = dscts_telemetry::install(Arc::clone(&tel));
    f(&tel)
}

/// Per-layer samples, one accumulator per pass. Each metric reports the
/// median over the passes that measured it.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Records one pass, deriving the nested-layer differences.
    pub fn push(&mut self, mut acc: Acc) {
        let diff = |acc: &Acc, a: &str, b: &str| Some(acc.get(a)? - acc.get(b)?);
        if let Some(low) = diff(&acc, "cluster.dual_s", "cluster.high_s") {
            acc.insert("cluster.low_s", low);
        }
        if let Some(rest) = diff(&acc, "route.try_route_s", "cluster.dual_s") {
            acc.insert("route.rest_s", rest);
        }
        for (name, v) in acc {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Records one value outside any pass.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.samples.insert(name, vec![v]);
    }

    /// The reported metrics, every per-layer name present.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    self.samples.get(name).map_or(0.0, |v| median(v)),
                    unit,
                )
            })
            .collect()
    }
}

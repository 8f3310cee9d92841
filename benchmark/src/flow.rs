//! `table2-flow` and `scaled-1m-flow`: designs go from DEF text through
//! `parse_def` and `DsCts::try_run` with the paper's defaults, alternating
//! passes at 1 and 2 threads.

use crate::check::{check_tree, same_as, Anchor, Qor, Tally, SCALED_1M, TABLE2};
use crate::layers::{add, add_counters, route_layers, timed, with_collector, Acc, Layers};
use crate::{
    generate_defs, measure_passes, permutation, pin_threads, repeat_setup, trace_passes, Args,
    EndToEnd, Pass, Passes, Run,
};
use dscts_core::{DsCts, SynthesizedTree, TreeMetrics};
use dscts_netlist::def::parse_def;
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::Technology;
use std::time::Instant;

/// C1–C5: what a paper user runs. Small enough to fit the per-core L2.
pub fn table2(args: &Args) -> Run {
    run(BenchmarkSpec::all(), TABLE2.iter().collect(), args)
}

/// The ROADMAP's scale target: a million sinks, whose sink and
/// assignment arrays overflow L2. Seed 1 matches `BENCH_pr6.json`.
pub fn scaled_1m(args: &Args) -> Run {
    run(
        vec![BenchmarkSpec::scaled(1_000_000, 1)],
        vec![&SCALED_1M],
        args,
    )
}

/// State shared by every pass of one run.
struct Flow {
    anchors: Vec<&'static Anchor>,
    defs: Vec<String>,
    order: Vec<usize>,
    base: DsCts,
    refs: Vec<Option<TreeMetrics>>,
    tally: Tally,
}

fn run(specs: Vec<BenchmarkSpec>, anchors: Vec<&'static Anchor>, args: &Args) -> Run {
    let mut layers = Layers::default();
    let (defs, setup_s) = repeat_setup(&mut layers, |acc| generate_defs(&specs, acc));
    let mut flow = Flow {
        anchors,
        defs,
        order: permutation(specs.len(), args.seed),
        base: DsCts::new(Technology::asap7()),
        refs: vec![None; specs.len()],
        tally: Tally::default(),
    };
    if args.trace {
        trace_passes(&mut flow, args, &mut layers);
        return Run::per_layer(flow.tally, "1", &layers);
    }
    let (passes, jobs_ms) = measure_passes(&mut flow, args);
    let trees: Vec<Qor> = flow.refs.iter().flatten().map(Qor::from).collect();
    let e2e = EndToEnd::batch(setup_s, passes, jobs_ms, &trees);
    Run::end_to_end(flow.tally, "1,2", &e2e)
}

impl Flow {
    /// Structure, the committed quality, and equality with the first
    /// pass (so across passes and thread counts).
    fn check(
        &mut self,
        i: usize,
        design: &Design,
        tree: &mut SynthesizedTree,
        m: &TreeMetrics,
    ) -> Result<(), String> {
        check_tree(design, tree, m)?;
        self.anchors[i].check(m)?;
        same_as(&mut self.refs[i], m)
    }

    /// One design, one layer call at a time, each timed.
    fn decomposed(&mut self, i: usize, acc: &mut Acc) -> Result<(), String> {
        let design = timed(acc, "netlist.parse_def_s", || parse_def(&self.defs[i]))
            .map_err(|e| e.to_string())?;
        let base = &self.base;
        let topo = route_layers(&design, base.technology(), acc).map_err(|e| e.to_string())?;
        let (mut tree, dp) =
            timed(acc, "dp.insert_s", || base.insert(topo)).map_err(|e| e.to_string())?;
        add(acc, "dp.root_candidates", dp.root_candidates.len() as f64);
        timed(acc, "opt.optimize_s", || base.optimize_tree(&mut tree));
        let metrics = timed(acc, "synth.evaluate_s", || base.evaluate_tree(&tree));
        self.check(i, &design, &mut tree, &metrics)
    }
}

impl Passes for Flow {
    /// DEF text in, `parse_def`, `DsCts::try_run`, metrics out.
    fn designs(&self) -> usize {
        self.defs.len()
    }

    fn pass(&mut self, threads: usize, jobs_ms: &mut [Vec<f64>]) -> Pass {
        pin_threads(threads);
        let mut pass = Pass {
            threads,
            wall_s: 0.0,
            synth_s: 0.0,
        };
        for k in 0..self.order.len() {
            let i = self.order[k];
            let t0 = Instant::now();
            let parsed = parse_def(&self.defs[i]);
            let t1 = Instant::now();
            let result = parsed.map_err(|e| e.to_string()).and_then(|design| {
                let outcome = self.base.try_run(&design).map_err(|e| e.to_string())?;
                Ok((design, outcome))
            });
            let t2 = Instant::now();
            pass.wall_s += (t2 - t0).as_secs_f64();
            pass.synth_s += (t2 - t1).as_secs_f64();
            jobs_ms[i].push((t2 - t0).as_secs_f64() * 1e3);
            let verdict = result.and_then(|(d, mut o)| self.check(i, &d, &mut o.tree, &o.metrics));
            self.tally.record(self.anchors[i].name, verdict);
        }
        pass
    }

    /// The same flow through the staged drivers; the tree must equal the
    /// plain flow's.
    fn layer_pass(&mut self) -> Acc {
        pin_threads(1);
        with_collector(|tel| {
            let mut acc = Acc::new();
            for k in 0..self.order.len() {
                let i = self.order[k];
                let verdict = self.decomposed(i, &mut acc);
                self.tally.record(self.anchors[i].name, verdict);
            }
            add_counters(&mut acc, tel, 1.0);
            acc
        })
    }
}

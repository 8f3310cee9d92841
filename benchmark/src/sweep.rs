//! `fig12-sweep`: `SweepEngine::try_sweep` over the Fig. 12 fanout grid
//! on C1–C5, alternating passes at 1 and 2 threads. It runs the same
//! route and DP layers as the flows in the opposite proportion: one route
//! per design, then one DP and refinement per mode class.

use crate::check::{same_as, Qor, Tally};
use crate::layers::{add, add_counters, route_layers, timed, with_collector, Acc, Layers};
use crate::{
    generate_defs, measure_passes, permutation, pin_threads, repeat_setup, trace_passes, Args,
    EndToEnd, Pass, Passes, Run,
};
use dscts_core::dse::{MetricsPoint, SweepEngine, SweepOutcome};
use dscts_core::{DsCts, ModeRule};
use dscts_netlist::def::parse_def;
use dscts_netlist::BenchmarkSpec;
use dscts_tech::Technology;
use std::time::Instant;

/// The Fig. 12 fanout thresholds.
fn grid() -> impl Iterator<Item = u32> {
    (20..=1000).step_by(10)
}

/// Thresholds and the mode classes they collapse into over C1–C5.
const POINTS: usize = 495;
const CLASSES: usize = 201;

struct Sweep {
    names: Vec<String>,
    defs: Vec<String>,
    order: Vec<usize>,
    base: DsCts,
    refs: Vec<Option<Vec<MetricsPoint>>>,
    classes: Vec<Option<usize>>,
    tally: Tally,
}

/// Runs the workload.
pub fn fig12(args: &Args) -> Run {
    let specs = BenchmarkSpec::all();
    let mut layers = Layers::default();
    let (defs, setup_s) = repeat_setup(&mut layers, |acc| generate_defs(&specs, acc));
    let mut sweep = Sweep {
        names: specs.iter().map(|s| s.name.clone()).collect(),
        defs,
        order: permutation(specs.len(), args.seed),
        base: DsCts::new(Technology::asap7()),
        refs: vec![None; specs.len()],
        classes: vec![None; specs.len()],
        tally: Tally::default(),
    };
    if args.trace {
        trace_passes(&mut sweep, args, &mut layers);
        sweep.cross_check(args.seed);
        return Run::per_layer(sweep.tally, "1", &layers);
    }
    let (passes, jobs_ms) = measure_passes(&mut sweep, args);
    sweep.cross_check(args.seed);
    let points: Vec<Qor> = sweep
        .refs
        .iter()
        .flatten()
        .flatten()
        .map(Qor::from)
        .collect();
    let e2e = EndToEnd::batch(setup_s, passes, jobs_ms, &points);
    Run::end_to_end(sweep.tally, "1,2", &e2e)
}

impl Sweep {
    /// Points and class count equal the first pass's, so they are
    /// thread-count invariant.
    fn check(&mut self, i: usize, out: &SweepOutcome) -> Result<(), String> {
        same_as(&mut self.refs[i], &out.points)?;
        same_as(&mut self.classes[i], &out.classes.len())
    }

    /// Untimed: the grid collapses into the expected point and class
    /// counts, and one seeded threshold per design equals a plain
    /// `DsCts::mode_rule(FanoutThreshold(t)).try_run`.
    fn cross_check(&mut self, seed: u64) {
        let points: usize = self.refs.iter().flatten().map(Vec::len).sum();
        let classes: usize = self.classes.iter().flatten().sum();
        let counts = if (points, classes) == (POINTS, CLASSES) {
            Ok(())
        } else {
            Err(format!(
                "{points} points in {classes} classes, expected {POINTS} in {CLASSES}"
            ))
        };
        self.tally.record("fig12 grid", counts);
        let grid: Vec<u32> = grid().collect();
        for i in 0..self.defs.len() {
            let t = grid[permutation(grid.len(), seed.wrapping_add(i as u64))[0]];
            let verdict = (|| {
                let design = parse_def(&self.defs[i]).map_err(|e| e.to_string())?;
                let plain = self
                    .base
                    .clone()
                    .mode_rule(ModeRule::FanoutThreshold(t))
                    .try_run(&design)
                    .map_err(|e| e.to_string())?;
                let point = self.refs[i]
                    .iter()
                    .flatten()
                    .find(|p| p.threshold == t)
                    .ok_or("no sweep point")?;
                if Qor::from(point) == Qor::from(&plain.metrics) {
                    Ok(())
                } else {
                    Err(format!(
                        "threshold {t}: sweep point differs from the plain flow"
                    ))
                }
            })();
            self.tally
                .record(&format!("{} at threshold {t}", self.names[i]), verdict);
        }
    }

    /// The route layers once, then the whole sweep (which routes again).
    fn decomposed(&mut self, i: usize, acc: &mut Acc) -> Result<(), String> {
        let design = timed(acc, "netlist.parse_def_s", || parse_def(&self.defs[i]))
            .map_err(|e| e.to_string())?;
        let mut route = Acc::new();
        route_layers(&design, self.base.technology(), &mut route).map_err(|e| e.to_string())?;
        let route_s = route["route.try_route_s"] + route["route.subdivide_s"];
        for (name, v) in route {
            add(acc, name, v);
        }
        add(acc, "dse.route_s", route_s);
        let t0 = Instant::now();
        let out = SweepEngine::new(&self.base)
            .try_sweep(&design, grid())
            .map_err(|e| e.to_string())?;
        add(acc, "dse.classes_s", t0.elapsed().as_secs_f64() - route_s);
        self.check(i, &out)
    }
}

impl Passes for Sweep {
    /// DEF text in, `parse_def`, `try_sweep`, points out.
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
            let result = parsed.map_err(|e| e.to_string()).and_then(|d| {
                SweepEngine::new(&self.base)
                    .try_sweep(&d, grid())
                    .map_err(|e| e.to_string())
            });
            let t2 = Instant::now();
            pass.wall_s += (t2 - t0).as_secs_f64();
            pass.synth_s += (t2 - t1).as_secs_f64();
            jobs_ms[i].push((t2 - t0).as_secs_f64() * 1e3);
            let verdict = result.and_then(|out| self.check(i, &out));
            self.tally.record(&self.names[i], verdict);
        }
        pass
    }

    /// The DP and DSE counters come from the collector.
    fn layer_pass(&mut self) -> Acc {
        pin_threads(1);
        with_collector(|tel| {
            let mut acc = Acc::new();
            for k in 0..self.order.len() {
                let i = self.order[k];
                let verdict = self.decomposed(i, &mut acc);
                self.tally.record(&self.names[i], verdict);
            }
            add_counters(&mut acc, tel, 1.0);
            acc
        })
    }
}

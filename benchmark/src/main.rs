//! End-to-end and per-layer benchmark of the double-side CTS workspace.
//!
//! ```text
//! dscts-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `table2-flow`, `scaled-1m-flow`, `fig12-sweep`,
//! `service-mix` (see README.md for why each exists and what every metric
//! means on it). With `--trace 0` the last stdout line is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics instead. Both count operations attempted and failed, where a
//! wrong output counts as a failure.

mod check;
mod flow;
mod layers;
mod service;
mod stats;
mod sweep;

use check::{Qor, Quality, Tally};
use dscts_netlist::def::write_def;
use dscts_netlist::BenchmarkSpec;
use layers::{timed, Acc, Layers};
use stats::{median, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for the run's inputs.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: dscts-benchmark --workload <table2-flow|scaled-1m-flow|fig12-sweep|service-mix> \
     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
        })
    }
}

/// Pins the rayon shim's thread count. The shim re-reads
/// `RAYON_NUM_THREADS` on every parallel call, so this takes effect for
/// the next call. Only called while no other thread of the process is
/// running synthesis work.
pub fn pin_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// The thread counts every flow and sweep pass alternates between.
pub const THREADS: [usize; 2] = [1, 2];

/// A permutation of `0..n` drawn from `seed` (splitmix64 driving a
/// Fisher–Yates shuffle): the order in which a run visits its designs.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Generates each design and writes it as DEF text, the form a user
/// hands the tool. Generation time goes to `acc`.
pub fn generate_defs(specs: &[BenchmarkSpec], acc: &mut Acc) -> Vec<String> {
    specs
        .iter()
        .map(|spec| write_def(&timed(acc, "netlist.generate_s", || spec.generate())))
        .collect()
}

/// Set-up repeats at least this often and for at least this long, so a
/// millisecond set-up still spans several of the speed changes a shared
/// machine goes through within a second.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;

/// Runs `setup` repeatedly, returning the last result and every
/// repetition's wall time. Each repetition's per-layer sums go to
/// `layers`; the previous result is dropped before the next repetition
/// starts, so peak memory holds one set of inputs.
pub fn repeat_setup<T>(layers: &mut Layers, mut setup: impl FnMut(&mut Acc) -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let mut acc = Acc::new();
        let t0 = Instant::now();
        last = Some(setup(&mut acc));
        times.push(t0.elapsed().as_secs_f64());
        layers.push(acc);
    }
    (last.expect("at least one set-up ran"), times)
}

/// One pass over a workload's designs (for `service-mix`, one cycle of
/// jobs).
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Rayon threads the pass ran with.
    pub threads: usize,
    /// Wall time from input to results, including DEF parsing (flows,
    /// sweep) or queue wait (service).
    pub wall_s: f64,
    /// Time inside the synthesis calls only: `try_run`, `try_sweep`, or
    /// job execution.
    pub synth_s: f64,
}

/// A workload measured in passes over its designs.
pub trait Passes {
    /// Designs a pass visits.
    fn designs(&self) -> usize;
    /// One plain pass at `threads`, pushing design `i`'s job latency (ms)
    /// onto `jobs_ms[i]`.
    fn pass(&mut self, threads: usize, jobs_ms: &mut [Vec<f64>]) -> Pass;
    /// One pass at 1 thread with a collector installed and every layer
    /// call timed; returns the pass's per-layer sums.
    fn layer_pass(&mut self) -> Acc;
}

/// Passes per thread count a run makes at least, even when one pass
/// outlasts the budget (the 1M-sink flow).
const MIN_PASSES: usize = 2;

/// The quantile of a run's repetitions of identical work (set-ups, flow
/// and sweep passes) reported as its time: the run's noise floor. The
/// work is deterministic, so its spread within a run is interference from
/// outside the process, which only ever slows it. On a shared 2-vCPU
/// machine the 10th percentile of table2-flow passes varied 2–3 times
/// less between runs than their median (IQR/median 0.04–0.05 vs
/// 0.09–0.12 over 8 runs), and set-up medians jumped between two speed
/// modes 1.6× apart from run to run.
const FLOOR_Q: f64 = 0.10;

/// Alternates plain passes at 1 and 2 threads, starting from the seed's
/// pick, until the budget is spent and each count ran `MIN_PASSES` times.
/// Returns the passes and each design's 1-thread job latency at the noise
/// floor. (At 2 threads a short job's time also depends on whether the
/// second vCPU happens to be free, which makes its floor jumpy.)
pub fn measure_passes(w: &mut impl Passes, args: &Args) -> (Vec<Pass>, Vec<f64>) {
    let mut passes = Vec::new();
    let mut jobs_ms = vec![Vec::new(); w.designs()];
    let mut jobs_ms_t2 = jobs_ms.clone();
    let first = (args.seed % 2) as usize;
    let start = Instant::now();
    while passes.len() < MIN_PASSES * THREADS.len() || start.elapsed() < args.seconds {
        let threads = THREADS[(first + passes.len()) % THREADS.len()];
        let sink = if threads == 1 {
            &mut jobs_ms
        } else {
            &mut jobs_ms_t2
        };
        passes.push(w.pass(threads, sink));
    }
    let floors = jobs_ms.iter().map(|ms| percentile(ms, FLOOR_Q)).collect();
    (passes, floors)
}

/// The traced run: plain passes at 1 thread, alternately without and with
/// a collector installed, for a third of the budget (their difference is
/// the tracing overhead, and both are checked against the same
/// references), then as many decomposed passes.
pub fn trace_passes(w: &mut impl Passes, args: &Args, layers: &mut Layers) {
    let mut scratch = vec![Vec::new(); w.designs()];
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed() < args.seconds / 3 {
        untraced.push(w.pass(1, &mut scratch).wall_s);
        traced.push(layers::with_collector(|_| w.pass(1, &mut scratch).wall_s));
    }
    layers.set("telemetry.overhead_s", median(&traced) - median(&untraced));
    for _ in 0..untraced.len() {
        let acc = w.layer_pass();
        layers.push(acc);
    }
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug)]
pub struct EndToEnd {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Every measured pass.
    pub passes: Vec<Pass>,
    /// The quantile of the passes reported: [`FLOOR_Q`] for repeated
    /// identical passes, the median for service cycles, whose variation
    /// is the closed loop's own.
    pub pass_q: f64,
    /// Job latencies, ms: one per design, at 1 thread and at its noise
    /// floor, for the flows and the sweep; every job for the service.
    pub jobs_ms: Vec<f64>,
    /// Jobs completed correctly per second: back to back at the noise
    /// floor for the flows and the sweep, over the closed loop's wall time
    /// for the service.
    pub jobs_per_s: f64,
    /// Quality of the workload's trees.
    pub quality: Quality,
}

impl EndToEnd {
    /// A flow or sweep run: pass times and job latencies at the noise
    /// floor, jobs per second back to back.
    pub fn batch(setup_s: Vec<f64>, passes: Vec<Pass>, jobs_ms: Vec<f64>, trees: &[Qor]) -> Self {
        EndToEnd {
            setup_s,
            passes,
            pass_q: FLOOR_Q,
            jobs_per_s: jobs_ms.len() as f64 / (jobs_ms.iter().sum::<f64>() / 1e3),
            jobs_ms,
            quality: Quality::of(trees),
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let of = |threads: usize, f: fn(&Pass) -> f64| {
            let xs: Vec<f64> = self
                .passes
                .iter()
                .filter(|p| p.threads == threads)
                .map(f)
                .collect();
            percentile(&xs, self.pass_q)
        };
        let q = &self.quality;
        let rss = dscts_core::rss::peak_rss_bytes().unwrap_or(0) as f64;
        vec![
            ("setup_s", percentile(&self.setup_s, FLOOR_Q), "s"),
            ("flow_s", of(1, |p| p.wall_s), "s"),
            ("flow_s.t2", of(2, |p| p.wall_s), "s"),
            ("sweep_s", of(1, |p| p.synth_s), "s"),
            ("sweep_s.t2", of(2, |p| p.synth_s), "s"),
            ("job_p50_ms", median(&self.jobs_ms), "ms"),
            ("job_p99_ms", percentile(&self.jobs_ms, 0.99), "ms"),
            ("jobs_per_s", self.jobs_per_s, "1/s"),
            ("peak_rss_mb", rss / 1e6, "MB"),
            ("latency_ps", q.latency_ps, "ps"),
            ("skew_ps", q.skew_ps, "ps"),
            ("wirelength_mm", q.wirelength_mm, "mm"),
            ("buffers", q.buffers, "count"),
            ("ntsvs", q.ntsvs, "count"),
        ]
    }
}

/// What a workload returns: its operation tally plus either measurement.
#[derive(Debug)]
pub struct Run {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Thread configuration, for the record.
    pub threads: &'static str,
    /// The metrics to print.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    /// An untraced run's result.
    pub fn end_to_end(tally: Tally, threads: &'static str, e2e: &EndToEnd) -> Run {
        Run {
            tally,
            threads,
            metrics: e2e.metrics(),
        }
    }

    /// A traced run's result.
    pub fn per_layer(tally: Tally, threads: &'static str, layers: &Layers) -> Run {
        Run {
            tally,
            threads,
            metrics: layers.metrics(),
        }
    }

    fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        let correct = finite && self.tally.failed == 0 && self.tally.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, v, unit)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "table2-flow" => flow::table2(&args),
        "scaled-1m-flow" => flow::scaled_1m(&args),
        "fig12-sweep" => sweep::fig12(&args),
        "service-mix" => service::mix(&args),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} threads={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        run.threads
    );
    println!("{}", run.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = permutation(5, 3);
        assert_eq!(a, permutation(5, 3));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert!((0..20).any(|s| permutation(5, s) != a));
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let run = |failed| Run {
            tally: Tally {
                attempted: 3,
                failed,
            },
            threads: "1",
            metrics: vec![("flow_s", 0.25, "s")],
        };
        assert_eq!(
            run(0).json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"flow_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(run(1)
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn args_need_a_workload_and_valid_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload table2-flow --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (4, Duration::from_secs(2), true)
        );
        assert!(parse("--seed 4").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
    }
}

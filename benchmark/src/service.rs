//! `service-mix`: a `CtsService` with 2 workers under a closed loop. One
//! generator thread keeps 4 jobs outstanding and cycles Score /
//! SweepPoint / Sizing / CornerSignoff over C1–C5, which were routed once
//! at set-up. Each job runs with 1 rayon thread, so the workers are the
//! only parallelism; a shorter phase at 2 threads follows.

use crate::check::{Qor, Quality, Tally};
use crate::layers::{add, add_counters, route_layers, timed, with_collector, Acc, Layers};
use crate::stats::{median, min_samples, percentile};
use crate::{generate_defs, permutation, pin_threads, repeat_setup, Args, EndToEnd, Pass, Run};
use dscts_core::mcmm::RobustMetrics;
use dscts_core::{
    mode_vector, ClockTopo, CornerReport, CtsError, DsCts, ModeRule, RecoveryPolicy, TreeMetrics,
};
use dscts_netlist::def::parse_def;
use dscts_netlist::BenchmarkSpec;
use dscts_service::{
    job_pipeline, CtsService, DesignKey, DrainMode, JobKind, JobRequest, JobResponse, ServiceConfig,
};
use dscts_tech::{CornerSet, Technology};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Jobs the closed-loop generator keeps outstanding.
const DEPTH: usize = 4;
const KINDS: [JobKind; 4] = [
    JobKind::Score,
    JobKind::SweepPoint { threshold: 100 },
    JobKind::Sizing { moves: 3000 },
    JobKind::CornerSignoff,
];
const DESIGNS: usize = 5;
/// Job `s` runs kind `s % 4` on design `s % 5`, so every 20 consecutive
/// jobs cover each (design, kind) pair once: one pass.
const CYCLE: usize = KINDS.len() * DESIGNS;

/// What the direct staged composition produced for one (design, kind).
#[derive(Debug, Clone)]
struct Expected {
    metrics: TreeMetrics,
    robust: Option<RobustMetrics>,
    /// Recovery-ladder rungs the composition climbed.
    rungs: usize,
}

/// A running service with C1–C5 registered, plus the oracle for every
/// (design, kind), indexed `design * 4 + kind`.
struct Fixture {
    service: Option<CtsService>,
    keys: Vec<DesignKey>,
    oracle: Vec<Result<Expected, CtsError>>,
}

impl Fixture {
    fn service(&self) -> &CtsService {
        self.service
            .as_ref()
            .expect("the service runs until drained")
    }

    /// Shuts the service down gracefully; every accepted job must have had
    /// its terminal response.
    fn drain(&mut self, tally: &mut Tally) {
        if let Some(service) = self.service.take() {
            let report = service.shutdown(DrainMode::Graceful);
            let s = &report.stats;
            let verdict = if s.accepted == s.completed + s.failed && report.cancelled_queued == 0 {
                Ok(())
            } else {
                Err(format!(
                    "accepted {} but completed {} and failed {}",
                    s.accepted, s.completed, s.failed
                ))
            };
            tally.record("service drain", verdict);
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown(DrainMode::Graceful);
        }
    }
}

/// Everything before timing starts: DEF text for C1–C5, parsing, service
/// start, routing at registration, and the job oracle. The traced run
/// routes the oracle's copies layer by layer.
fn setup(base: &DsCts, traced: bool, acc: &mut Acc) -> Fixture {
    pin_threads(1);
    let tech = base.technology();
    let designs: Vec<_> = generate_defs(&BenchmarkSpec::all(), acc)
        .iter()
        .map(|def| {
            timed(acc, "netlist.parse_def_s", || parse_def(def)).expect("generated DEF parses")
        })
        .collect();
    let service = CtsService::start(
        base.clone(),
        ServiceConfig {
            workers: WORKERS,
            retry: Some(RecoveryPolicy::default()),
            signoff_corners: Some(CornerSet::asap7_pvt(tech)),
            ..ServiceConfig::default()
        },
    );
    let keys = designs
        .iter()
        .map(|d| {
            timed(acc, "service.register_s", || service.register_design(d))
                .expect("C1–C5 route")
                .0
        })
        .collect();
    let signoff = CornerSet::asap7_pvt(tech);
    let mut oracle = Vec::with_capacity(CYCLE);
    for d in &designs {
        let topo = if traced {
            route_layers(d, tech, acc)
        } else {
            base.route(d)
        }
        .expect("C1–C5 route");
        for kind in KINDS {
            oracle.push(direct(base, &topo, kind, &signoff, acc));
        }
    }
    Fixture {
        service: Some(service),
        keys,
        oracle,
    }
}

/// The direct staged composition a job of `kind` must reproduce,
/// including the service's recovery ladder.
fn direct(
    base: &DsCts,
    topo: &ClockTopo,
    kind: JobKind,
    signoff: &CornerSet,
    acc: &mut Acc,
) -> Result<Expected, CtsError> {
    let mut pipe = job_pipeline(base, &kind);
    let mut result = attempt(&pipe, topo, kind, signoff, acc);
    let mut rungs = 0;
    if matches!(&result, Err(e) if RecoveryPolicy::recoverable(e)) {
        for &rung in RecoveryPolicy::default().ladder() {
            rungs += 1;
            pipe = pipe.with_relaxation(rung);
            result = attempt(&pipe, topo, kind, signoff, acc);
            if !matches!(&result, Err(e) if RecoveryPolicy::recoverable(e)) {
                break;
            }
        }
    }
    result.map(|(metrics, robust)| Expected {
        metrics,
        robust,
        rungs,
    })
}

fn attempt(
    pipe: &DsCts,
    topo: &ClockTopo,
    kind: JobKind,
    signoff: &CornerSet,
    acc: &mut Acc,
) -> Result<(TreeMetrics, Option<RobustMetrics>), CtsError> {
    let topo = topo.clone();
    let (mut tree, dp) = timed(acc, "dp.insert_s", move || match kind {
        JobKind::SweepPoint { threshold } => {
            let modes = mode_vector(&topo, ModeRule::FanoutThreshold(threshold));
            pipe.insert_with_modes(topo, &modes)
        }
        _ => pipe.insert(topo),
    })?;
    add(acc, "dp.root_candidates", dp.root_candidates.len() as f64);
    let opt = match kind {
        JobKind::Sizing { .. } => "opt.sizing_s",
        _ => "opt.optimize_s",
    };
    timed(acc, opt, || pipe.optimize_tree(&mut tree));
    let metrics = timed(acc, "synth.evaluate_s", || pipe.evaluate_tree(&tree));
    let robust = match kind {
        JobKind::CornerSignoff => {
            // Sign-off evaluates corners outside any counted loop, so the
            // corner evaluations are counted here.
            add(acc, "mcmm.corner_evals", signoff.len() as f64);
            let report = timed(acc, "mcmm.signoff_s", || {
                CornerReport::try_evaluate(&tree, signoff, pipe.delay_model())
            })?;
            Some(report.robust)
        }
        _ => None,
    };
    Ok((metrics, robust))
}

/// Whether a terminal response equals the oracle, plus the job's queue
/// wait and execution time as the service measured them.
fn judge(
    response: Option<JobResponse>,
    want: &Result<Expected, CtsError>,
) -> (Result<(), String>, f64, f64) {
    match response {
        Some(JobResponse::Completed(got)) => {
            let verdict = match want {
                Ok(w)
                    if got.metrics == w.metrics
                        && got.robust == w.robust
                        && got.recovery.len() == w.rungs
                        && !got.degraded =>
                {
                    Ok(())
                }
                Ok(_) => Err("result differs from the direct staged composition".into()),
                Err(e) => Err(format!("completed, but the direct composition fails: {e}")),
            };
            (verdict, got.queue_wait_s, got.wall_s)
        }
        Some(JobResponse::Failed { error, .. }) => (Err(format!("failed: {error}")), 0.0, 0.0),
        Some(JobResponse::Cancelled(kind)) => (Err(format!("cancelled: {kind:?}")), 0.0, 0.0),
        None => (Err("lost: no terminal response".into()), 0.0, 0.0),
    }
}

/// One job as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    seq: usize,
    kind: usize,
    ok: bool,
    /// When the client saw the terminal response (or the rejection).
    done: Instant,
    /// Submit to terminal response: the service's own queue wait plus
    /// execution for a completed job, which leaves out how late the
    /// client's waiter thread got a CPU to see it; the client's view for
    /// the rest.
    latency_s: f64,
    queue_wait_s: f64,
    exec_s: f64,
}

/// The jobs of one closed-loop phase.
#[derive(Debug)]
struct Phase {
    threads: usize,
    samples: Vec<Sample>,
    wall_s: f64,
}

impl Phase {
    /// One pass per 20-job cycle after the first: the cycle period of the
    /// closed loop (from the previous cycle's last response to this
    /// cycle's), and the cycle's summed execution time. Consecutive cycles
    /// overlap by up to `DEPTH` jobs, so the period, not the span from
    /// first submit to last response, is the time one pass costs.
    fn cycles(&self) -> Vec<Pass> {
        let mut by_cycle: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
        for s in &self.samples {
            by_cycle.entry(s.seq / CYCLE).or_default().push(s);
        }
        let last = |jobs: &[&Sample]| jobs.iter().map(|s| s.done).max().expect("a full cycle");
        let cycles: Vec<_> = by_cycle.values().collect();
        cycles
            .windows(2)
            .filter(|w| w[0].len() == CYCLE && w[1].len() == CYCLE)
            .map(|w| Pass {
                threads: self.threads,
                wall_s: last(w[1])
                    .saturating_duration_since(last(w[0]))
                    .as_secs_f64(),
                synth_s: w[1].iter().map(|s| s.exec_s).sum(),
            })
            .collect()
    }

    fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    fn latencies_ms(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(|s| f(s) * 1e3).collect()
    }
}

/// Runs the closed loop at `threads` rayon threads per job until at least
/// `min_time` has passed and `min_jobs` jobs were submitted, stopping at a
/// cycle boundary, and waits for every outstanding job. Each accepted
/// job gets a waiter thread that blocks on its ticket, so the generator
/// sees responses in completion order without polling.
fn closed_loop(
    fx: &Fixture,
    order: &[usize],
    threads: usize,
    min_time: Duration,
    min_jobs: usize,
    tally: &mut Tally,
) -> Phase {
    pin_threads(threads);
    let (tx, rx) = mpsc::channel();
    let mut samples = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut pending: HashMap<usize, Instant> = HashMap::new();
        let mut seq = 0;
        loop {
            while pending.len() < DEPTH
                && !(seq % CYCLE == 0 && seq >= min_jobs && start.elapsed() >= min_time)
            {
                let (d, k) = (order[seq % DESIGNS], seq % KINDS.len());
                let request = JobRequest {
                    tenant: "bench".into(),
                    design: fx.keys[d],
                    kind: KINDS[k],
                    deadline: None,
                };
                let submitted = Instant::now();
                match fx.service().submit(request) {
                    Ok(ticket) => {
                        let tx = tx.clone();
                        scope.spawn(move || {
                            let response = ticket.wait();
                            let _ = tx.send((seq, Instant::now(), response));
                        });
                        pending.insert(seq, submitted);
                    }
                    Err(rejected) => {
                        tally.record(KINDS[k].label(), Err(format!("rejected: {rejected}")));
                        let now = Instant::now();
                        samples.push(Sample {
                            seq,
                            kind: k,
                            ok: false,
                            done: now,
                            latency_s: (now - submitted).as_secs_f64(),
                            queue_wait_s: 0.0,
                            exec_s: 0.0,
                        });
                    }
                }
                seq += 1;
            }
            if pending.is_empty() {
                break;
            }
            let (job, done, response) = rx.recv().expect("every waiter holds a sender");
            let submitted = pending.remove(&job).expect("responses answer pending jobs");
            let (d, k) = (order[job % DESIGNS], job % KINDS.len());
            let (verdict, queue_wait_s, exec_s) = judge(response, &fx.oracle[d * KINDS.len() + k]);
            let ok = tally.record(KINDS[k].label(), verdict);
            samples.push(Sample {
                seq: job,
                kind: k,
                ok,
                done,
                latency_s: match queue_wait_s + exec_s {
                    0.0 => (done - submitted).as_secs_f64(),
                    service_s => service_s,
                },
                queue_wait_s,
                exec_s,
            });
        }
    });
    Phase {
        threads,
        samples,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs the workload.
pub fn mix(args: &Args) -> Run {
    let base = DsCts::new(Technology::asap7());
    let mut layers = Layers::default();
    let (mut fx, setup_s) = repeat_setup(&mut layers, |acc| setup(&base, args.trace, acc));
    let order = permutation(DESIGNS, args.seed);
    let mut tally = Tally::default();
    // The p99 job latency needs at least ten samples beyond it.
    let p99_jobs = min_samples(0.99, 10);
    if args.trace {
        // Alternate short untraced and traced loops; their cycle-time
        // difference is the tracing overhead.
        let budget = args.seconds / 3;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while untraced.is_empty() || start.elapsed() < budget {
            let none = Duration::ZERO;
            untraced.extend(closed_loop(&fx, &order, 1, none, 2 * CYCLE, &mut tally).cycles());
            traced.extend(
                with_collector(|_| closed_loop(&fx, &order, 1, none, 2 * CYCLE, &mut tally))
                    .cycles(),
            );
        }
        let wall = |cycles: &[Pass]| median(&cycles.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        layers.set("telemetry.overhead_s", wall(&traced) - wall(&untraced));
        let retries_before = fx.service().stats().retries;
        let (phase, mut acc) = with_collector(|tel| {
            let phase = closed_loop(&fx, &order, 1, budget, p99_jobs, &mut tally);
            let mut acc = Acc::new();
            add_counters(&mut acc, tel, (phase.samples.len() / CYCLE) as f64);
            (phase, acc)
        });
        // Counts are per cycle; a phase always ends at a cycle boundary.
        let cycles = (phase.samples.len() / CYCLE) as f64;
        add(
            &mut acc,
            "service.retries",
            (fx.service().stats().retries - retries_before) as f64 / cycles,
        );
        let waits = phase.latencies_ms(|s| s.queue_wait_s);
        add(&mut acc, "service.queue_wait_ms.p50", median(&waits));
        add(
            &mut acc,
            "service.queue_wait_ms.p99",
            percentile(&waits, 0.99),
        );
        for (k, name) in [
            "service.exec_ms.score",
            "service.exec_ms.sweep",
            "service.exec_ms.sizing",
            "service.exec_ms.signoff",
        ]
        .into_iter()
        .enumerate()
        {
            let exec: Vec<f64> = phase
                .samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.exec_s * 1e3)
                .collect();
            add(&mut acc, name, median(&exec));
        }
        layers.push(acc);
        fx.drain(&mut tally);
        Run::per_layer(tally, "1 per job, 2 service workers", &layers)
    } else {
        let main = closed_loop(
            &fx,
            &order,
            1,
            args.seconds.mul_f64(0.6),
            p99_jobs,
            &mut tally,
        );
        let t2 = closed_loop(
            &fx,
            &order,
            2,
            args.seconds.mul_f64(0.4),
            5 * CYCLE,
            &mut tally,
        );
        let mut passes = main.cycles();
        passes.extend(t2.cycles());
        fx.drain(&mut tally);
        let trees: Vec<Qor> = fx
            .oracle
            .iter()
            .flatten()
            .map(|e| Qor::from(&e.metrics))
            .collect();
        let e2e = EndToEnd {
            setup_s,
            passes,
            pass_q: 0.5,
            jobs_ms: main.latencies_ms(|s| s.latency_s),
            jobs_per_s: main.completed() as f64 / main.wall_s,
            quality: Quality::of(&trees),
        };
        Run::end_to_end(
            tally,
            "1 per job (2 in the .t2 phase), 2 service workers",
            &e2e,
        )
    }
}

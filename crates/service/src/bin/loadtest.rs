//! Service loadtest: thousands of queued jobs, chaos arms mid-run,
//! invariant checker, throughput report.
//!
//! Phases:
//!
//! 1. **Register** C1–C5 plus a scaled design; re-registration must hit
//!    the cache.
//! 2. **Bit-identity**: for sample designs × every job kind, the
//!    cached-artifact job result must equal the direct `DsCts`
//!    staged-driver composition, field for field.
//! 3. **Flood**: submit the requested job count round-robin over
//!    designs × kinds × tenants against a deliberately small queue, so
//!    admission control (QueueFull/Backpressure) is exercised; with
//!    `--chaos` (and the `fault-inject` feature) a controller thread
//!    arms fault plans against the running pool the whole time.
//! 4. **Quarantine** (chaos only): a dedicated poison design is
//!    panicked until the service quarantines it, then the service must
//!    still complete clean work on live workers.
//! 5. **Drain**: a final burst is submitted and the service shut down
//!    gracefully; still-queued jobs must get typed cancellations.
//! 6. **Telemetry validation**: the run executes under an installed
//!    [`dscts_telemetry`] collector; the final snapshot is serialized
//!    to JSON-lines, every line re-parsed in-process with the crate's
//!    own parser (schema check per record kind), and the counters are
//!    cross-checked against [`ServiceStats`]
//!    — in particular `service.accepted == completed + failed +
//!    cancelled`. `--telemetry <path>` writes the JSONL out for CI
//!    artifacts.
//!
//! Invariants asserted (process exits non-zero on violation): zero lost
//! jobs (every accepted submission resolves to exactly one terminal
//! response), no worker death, bit-identity, telemetry consistency, and
//! — under chaos — quarantine engagement. Throughput and p50/p95/p99
//! job latency (from the `job.wall_s` histogram) are printed; the
//! repository benchmark's `service-mix` workload is what measures the
//! service's performance.

use dscts_core::DsCts;
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_service::{
    job_pipeline, CtsService, DesignKey, DrainMode, JobKind, JobRequest, JobResponse, Rejected,
    ServiceConfig, ServiceStats,
};
use dscts_tech::{CornerSet, Technology};
use dscts_telemetry as telemetry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    quick: bool,
    chaos: bool,
    jobs: usize,
    workers: usize,
    telemetry: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        chaos: false,
        jobs: 0,
        workers: 4,
        telemetry: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--chaos" => args.chaos = true,
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a number"))
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a number"))
            }
            "--telemetry" => {
                args.telemetry = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--telemetry needs a path")),
                ))
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if args.jobs == 0 {
        args.jobs = if args.quick { 300 } else { 1200 };
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("loadtest: {msg}");
    std::process::exit(2);
}

/// Hard invariant: prints and fails the process on violation, so CI can
/// gate on the exit code.
fn check(ok: bool, what: &str) {
    if ok {
        println!("  ok: {what}");
    } else {
        eprintln!("INVARIANT VIOLATED: {what}");
        std::process::exit(1);
    }
}

fn main() {
    // Inner (per-job) parallelism off unless the operator pinned it:
    // concurrency comes from the worker pool, which keeps throughput
    // numbers meaningful and avoids workers × cores oversubscription.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let args = parse_args();
    // Chaos floods catch hundreds of injected panics at the worker
    // boundary; the default hook would drown the log in backtraces. One
    // line per panic keeps the CI log readable without hiding anything.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let chaos = args.chaos && cfg!(feature = "fault-inject");
    if args.chaos && !chaos {
        println!("note: --chaos requested but the fault-inject feature is off; running clean");
    }

    // The whole run executes under a live collector: phase 6 validates
    // the snapshot against the service's own stats, so the loadtest
    // doubles as the telemetry smoke test.
    let collector = Arc::new(telemetry::Telemetry::new());
    let _telemetry_guard = telemetry::install(Arc::clone(&collector));

    let tech = Technology::asap7();
    let base = DsCts::new(tech.clone());
    let cfg = ServiceConfig {
        workers: args.workers,
        queue_capacity: 96,
        max_outstanding_per_tenant: 48,
        default_deadline: None,
        // Chaos arms faults against *whatever* job is running, so under
        // --chaos every design accumulates Internal strikes; a tight
        // threshold would quarantine the whole flood fleet. The flood
        // service therefore tolerates chaos noise, and phase 4 proves
        // quarantine on a dedicated instance with the default threshold.
        quarantine_threshold: u32::MAX,
        retry: Some(dscts_core::RecoveryPolicy::new()),
        signoff_corners: Some(CornerSet::asap7_pvt(&tech)),
    };
    let retry = cfg.retry.clone();
    let service = CtsService::start(base.clone(), cfg);

    // ---- Phase 1: register C1–C5 + a scaled design. --------------------
    println!("phase 1: register designs");
    let mut designs: Vec<Design> = BenchmarkSpec::all().iter().map(|s| s.generate()).collect();
    let scaled_sinks = if args.quick { 20_000 } else { 60_000 };
    designs.push(BenchmarkSpec::scaled(scaled_sinks, 11).generate());
    let mut keys: Vec<DesignKey> = Vec::new();
    for d in &designs {
        let (key, hit) = service
            .register_design(d)
            .unwrap_or_else(|e| die(&format!("routing {} failed: {e}", d.name)));
        check(
            !hit,
            &format!("first registration of {} routes ({key})", d.name),
        );
        keys.push(key);
    }
    for (d, &key) in designs.iter().zip(&keys) {
        let (key2, hit) = service
            .register_design(d)
            .unwrap_or_else(|e| die(&format!("re-registering {} failed: {e}", d.name)));
        check(
            hit && key2 == key,
            &format!("re-registration of {} hits the cache", d.name),
        );
    }

    // ---- Phase 2: cache-hit results ≡ direct staged-driver calls. ------
    println!("phase 2: bit-identity vs direct DsCts staged drivers");
    let kinds = [
        JobKind::Score,
        JobKind::SweepPoint { threshold: 24 },
        JobKind::Sizing { moves: 64 },
        JobKind::CornerSignoff,
    ];
    let identity_designs: &[usize] = if args.quick {
        &[0, 3]
    } else {
        &[0, 1, 2, 3, 4]
    };
    for &di in identity_designs {
        for kind in kinds {
            let ticket = service
                .submit(JobRequest {
                    tenant: "identity".into(),
                    design: keys[di],
                    kind,
                    deadline: None,
                })
                .unwrap_or_else(|r| die(&format!("identity submit rejected: {r}")));
            let response = ticket.wait();
            // The oracle mirrors the service's full per-job execution,
            // including the recovery ladder: corner sign-off can find a
            // nominal-chosen pattern overloaded at the derated SS corner
            // (a typed, data-dependent infeasibility), and the service
            // then relaxes and re-attempts exactly like `DsCts::try_run`.
            let (want, want_rungs) = direct_oracle(&base, &designs[di], kind, retry.as_ref());
            match (response, want) {
                (Some(JobResponse::Completed(got)), Ok((metrics, robust))) => check(
                    got.metrics == metrics
                        && got.robust == robust
                        && got.recovery.len() == want_rungs,
                    &format!(
                        "{} job on cached {} ≡ direct staged drivers{}",
                        kind.label(),
                        designs[di].name,
                        if want_rungs > 0 {
                            " (after an identical recovery ladder)"
                        } else {
                            ""
                        }
                    ),
                ),
                (Some(JobResponse::Failed { error, .. }), Err(want_err)) => check(
                    error == want_err,
                    &format!(
                        "{} job on cached {} fails typed ≡ direct staged drivers",
                        kind.label(),
                        designs[di].name
                    ),
                ),
                (other, want) => die(&format!(
                    "identity job {} on {} diverged from the direct oracle: service {} vs direct {}",
                    kind.label(),
                    designs[di].name,
                    match &other {
                        Some(JobResponse::Completed(_)) => "completed".to_owned(),
                        Some(JobResponse::Failed { error, .. }) => format!("failed ({error})"),
                        Some(JobResponse::Cancelled(_)) => "cancelled".to_owned(),
                        None => "lost".to_owned(),
                    },
                    match &want {
                        Ok(_) => "completed".to_owned(),
                        Err(e) => format!("failed ({e})"),
                    }
                )),
            }
        }
    }

    // ---- Phase 3: flood (chaos controller armed mid-run). --------------
    println!(
        "phase 3: flood {} jobs across {} workers{}",
        args.jobs,
        args.workers,
        if chaos { " (chaos armed)" } else { "" }
    );
    #[cfg(feature = "fault-inject")]
    let chaos_handle = chaos.then(|| {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let stop = std::sync::Arc::clone(&flag);
        let handle = std::thread::spawn(move || {
            use dscts_core::resilience::fault::*;
            let mut fired_total = 0usize;
            let mut round = 0u64;
            while stop.load(std::sync::atomic::Ordering::Relaxed) {
                // Rotate kinds and skip counts so faults land at varied
                // depths of whatever jobs are running right now.
                let skips = round % 5;
                let guard = FaultPlan::new()
                    .arm_after(SITE_DP, FaultKind::Panic, skips)
                    .arm_after(SITE_SYNTH, FaultKind::Panic, skips / 2)
                    .arm_after(SITE_EVAL, FaultKind::Error, skips)
                    .arm_after(SITE_INCREMENTAL, FaultKind::Infeasible, skips)
                    .install();
                std::thread::sleep(Duration::from_millis(25));
                fired_total += 4usize.saturating_sub(guard.unfired());
                drop(guard);
                round += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            fired_total
        });
        (flag, handle)
    });

    let tenants = 8usize;
    let mut tickets = Vec::with_capacity(args.jobs);
    let mut rejected_retries = 0u64;
    let t_flood = Instant::now();
    for i in 0..args.jobs {
        let mut req = JobRequest {
            tenant: format!("tenant-{}", i % tenants),
            design: keys[i % keys.len()],
            kind: kinds[i % kinds.len()],
            // A slice of jobs carries a tight deadline: under load these
            // must fail typed (or complete degraded), never hang or
            // vanish.
            deadline: (i % 37 == 0).then(|| Duration::from_millis(30)),
        };
        let mut design_bump = 0usize;
        loop {
            match service.submit(req.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(Rejected::QueueFull { .. }) | Err(Rejected::Backpressure { .. }) => {
                    rejected_retries += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(Rejected::Quarantined { .. }) => {
                    // Chaos strikes can quarantine a flood design
                    // mid-run; a real tenant would fail over to other
                    // work, and so does the flood.
                    design_bump += 1;
                    if design_bump >= keys.len() {
                        die("every flood design got quarantined");
                    }
                    req.design = keys[(i + design_bump) % keys.len()];
                }
                Err(r) => die(&format!("flood submit rejected hard: {r}")),
            }
        }
    }
    let submitted = tickets.len();
    let mut completed = 0u64;
    let mut degraded = 0u64;
    let mut failed = 0u64;
    let mut failed_by: HashMap<&'static str, u64> = HashMap::new();
    let mut lost = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            Some(JobResponse::Completed(o)) => {
                completed += 1;
                if o.degraded {
                    degraded += 1;
                }
            }
            Some(JobResponse::Failed { error, .. }) => {
                failed += 1;
                *failed_by.entry(error_label(&error)).or_insert(0) += 1;
            }
            Some(JobResponse::Cancelled(_)) => {
                failed += 1; // terminal, just not executed
            }
            None => lost += 1,
        }
    }
    let flood_s = t_flood.elapsed().as_secs_f64();
    let throughput = completed as f64 / flood_s;
    println!(
        "  {submitted} jobs in {flood_s:.2}s → {throughput:.1} completed jobs/s \
         ({completed} completed / {degraded} degraded / {failed} failed, \
         {rejected_retries} admission bounces)"
    );
    if !failed_by.is_empty() {
        let mut kinds: Vec<_> = failed_by.iter().collect();
        kinds.sort();
        for (k, n) in kinds {
            println!("    failed[{k}]: {n}");
        }
    }
    check(lost == 0, "zero lost jobs in the flood");
    check(
        completed + failed == submitted as u64,
        "every flood submission reached exactly one terminal response",
    );
    check(
        service.live_workers() == args.workers,
        "no worker died during the flood",
    );

    #[cfg(feature = "fault-inject")]
    let chaos_fired = chaos_handle.map(|(flag, handle)| {
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        handle.join().unwrap_or(0)
    });
    #[cfg(not(feature = "fault-inject"))]
    let chaos_fired: Option<usize> = None;
    if let Some(fired) = chaos_fired {
        println!("  chaos: {fired} faults fired mid-run");
        check(fired > 0, "chaos mode actually fired faults into the pool");
    }

    // ---- Phase 4 (chaos): quarantine the poisoned design. --------------
    // The quarantine proof runs on a second service instance whose jobs
    // also land in the process-global telemetry counters, so its final
    // stats are kept for phase 6's exact cross-check.
    #[cfg(feature = "fault-inject")]
    let aux_stats: Option<ServiceStats> = if chaos {
        use dscts_core::resilience::fault::*;
        println!("phase 4: poison one design until quarantine engages");
        // A dedicated instance with the default (tight) strike threshold:
        // the flood service deliberately tolerates chaos noise, so the
        // quarantine proof runs where two strikes are decisive.
        let quarantine_svc = CtsService::start(
            base.clone(),
            ServiceConfig {
                workers: 2,
                quarantine_threshold: 2,
                ..ServiceConfig::default()
            },
        );
        let poison = BenchmarkSpec::scaled(2_000, 99).generate();
        let (poison_key, _) = quarantine_svc
            .register_design(&poison)
            .unwrap_or_else(|e| die(&format!("routing poison design failed: {e}")));
        let mut internal_failures = 0u32;
        for _ in 0..8 {
            // Flood is drained, so the armed panic can only be consumed
            // by this job.
            let guard = FaultPlan::new().arm(SITE_DP, FaultKind::Panic).install();
            let submitted = quarantine_svc.submit(JobRequest {
                tenant: "poison".into(),
                design: poison_key,
                kind: JobKind::Score,
                deadline: None,
            });
            match submitted {
                Ok(ticket) => match ticket.wait() {
                    Some(JobResponse::Failed { .. }) => internal_failures += 1,
                    Some(_) => {}
                    None => check(false, "poison job got a terminal response"),
                },
                Err(Rejected::Quarantined { .. }) => {
                    drop(guard);
                    break;
                }
                Err(r) => die(&format!("poison submit rejected unexpectedly: {r}")),
            }
            drop(guard);
        }
        check(
            internal_failures >= 2,
            "poison jobs failed typed (panics isolated, workers alive)",
        );
        check(
            quarantine_svc.quarantined().contains(&poison_key),
            "quarantine engaged for the poisoned design",
        );
        check(
            matches!(
                quarantine_svc.submit(JobRequest {
                    tenant: "poison".into(),
                    design: poison_key,
                    kind: JobKind::Score,
                    deadline: None,
                }),
                Err(Rejected::Quarantined { .. })
            ),
            "quarantined design is rejected at admission",
        );
        check(
            quarantine_svc.live_workers() == 2,
            "no quarantine-service worker died absorbing the panics",
        );
        let quarantine_stats = quarantine_svc.shutdown(DrainMode::Graceful).stats;
        // The pool must still do clean work afterwards.
        let ticket = service
            .submit(JobRequest {
                tenant: "post-chaos".into(),
                design: keys[0],
                kind: JobKind::Score,
                deadline: None,
            })
            .unwrap_or_else(|r| die(&format!("post-chaos submit rejected: {r}")));
        check(
            matches!(ticket.wait(), Some(JobResponse::Completed(_))),
            "service completes clean jobs after chaos",
        );
        check(
            service.live_workers() == args.workers,
            "no worker died across the chaos phase",
        );
        Some(quarantine_stats)
    } else {
        None
    };
    #[cfg(not(feature = "fault-inject"))]
    let aux_stats: Option<ServiceStats> = None;

    // ---- Phase 5: graceful drain cancels queued jobs typed. ------------
    println!("phase 5: drain");
    let scaled_key = keys[keys.len() - 1];
    let burst: Vec<_> = (0..32)
        .filter_map(|i| {
            service
                .submit(JobRequest {
                    tenant: format!("drain-{}", i % 4),
                    design: scaled_key,
                    kind: JobKind::Score,
                    deadline: None,
                })
                .ok()
        })
        .collect();
    let burst_n = burst.len();
    let report = service.shutdown(DrainMode::Graceful);
    let mut drained_cancelled = 0u64;
    let mut drained_terminal = 0u64;
    for ticket in burst {
        match ticket.wait() {
            Some(JobResponse::Cancelled(_)) => {
                drained_cancelled += 1;
                drained_terminal += 1;
            }
            Some(_) => drained_terminal += 1,
            None => {}
        }
    }
    check(
        drained_terminal == burst_n as u64,
        "every drain-burst job got a terminal response through shutdown",
    );
    check(
        drained_cancelled > 0,
        "graceful drain cancelled still-queued jobs typed",
    );
    check(
        report.stats.terminal() == report.stats.accepted,
        "lifetime: accepted == completed + failed + cancelled",
    );
    println!(
        "  lifetime: {} accepted / {} completed / {} failed / {} cancelled / {} panics caught / {} cache hits",
        report.stats.accepted,
        report.stats.completed,
        report.stats.failed,
        report.stats.cancelled,
        report.stats.panics_caught,
        report.stats.cache_hits,
    );

    // ---- Phase 6: telemetry snapshot validation. -----------------------
    println!("phase 6: telemetry snapshot validation");
    let snap = collector.snapshot();
    let jsonl = snap.to_jsonl();
    let mut record_counts: HashMap<&'static str, u64> = HashMap::new();
    for line in jsonl.lines() {
        let v = telemetry::parse_json(line)
            .unwrap_or_else(|e| die(&format!("telemetry line failed to parse ({e}): {line}")));
        let kind = v
            .get("record")
            .and_then(telemetry::Json::as_str)
            .unwrap_or_else(|| die(&format!("telemetry line lacks a record kind: {line}")));
        // Canonical kind plus the fields its schema requires.
        let (kind, fields): (&'static str, &[&str]) = match kind {
            "meta" => ("meta", &["schema", "version"]),
            "counter" => ("counter", &["name", "value"]),
            "gauge" => ("gauge", &["name", "value"]),
            "histogram" => (
                "histogram",
                &[
                    "name", "count", "sum_s", "p50_s", "p95_s", "p99_s", "le", "counts",
                ],
            ),
            other => die(&format!("unknown telemetry record kind {other:?}: {line}")),
        };
        for field in fields {
            if v.get(field).is_none() {
                die(&format!("telemetry {kind} record lacks {field:?}: {line}"));
            }
        }
        if kind == "histogram" {
            let le = v
                .get("le")
                .and_then(telemetry::Json::as_array)
                .map(Vec::len);
            let counts = v
                .get("counts")
                .and_then(telemetry::Json::as_array)
                .map(Vec::len);
            if le != counts {
                die(&format!("telemetry histogram le/counts diverge: {line}"));
            }
        }
        *record_counts.entry(kind).or_insert(0) += 1;
    }
    let n_of = |kind: &str| record_counts.get(kind).copied().unwrap_or(0);
    check(
        ["meta", "counter", "gauge", "histogram"]
            .iter()
            .all(|k| n_of(k) > 0),
        &format!(
            "every JSONL line parses in-process ({} counters / {} gauges / {} histograms)",
            n_of("counter"),
            n_of("gauge"),
            n_of("histogram"),
        ),
    );

    // The telemetry counters are process-global; the expected values are
    // the flood service's lifetime stats plus the chaos quarantine
    // instance's (phase 4), when it ran.
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let expected = |field: fn(&ServiceStats) -> u64| {
        field(&report.stats) + aux_stats.as_ref().map_or(0, field)
    };
    check(
        counter("service.accepted")
            == counter("service.completed")
                + counter("service.failed")
                + counter("service.cancelled"),
        "telemetry: accepted == completed + failed + cancelled",
    );
    type StatField = fn(&ServiceStats) -> u64;
    let pairs: [(&str, StatField); 11] = [
        ("service.accepted", |s| s.accepted),
        ("service.completed", |s| s.completed),
        ("service.failed", |s| s.failed),
        ("service.cancelled", |s| s.cancelled),
        ("service.panics_caught", |s| s.panics_caught),
        ("service.rejected.queue_full", |s| s.rejected_queue_full),
        ("service.rejected.backpressure", |s| s.rejected_backpressure),
        ("service.rejected.quarantined", |s| s.rejected_quarantined),
        ("service.rejected.shutting_down", |s| s.rejected_shutdown),
        ("cache.hits", |s| s.cache_hits),
        ("cache.misses", |s| s.cache_misses),
    ];
    for (name, field) in pairs {
        check(
            counter(name) == expected(field),
            &format!(
                "telemetry counter {name} ({}) matches lifetime ServiceStats",
                counter(name)
            ),
        );
    }
    check(
        counter("service.rejected.unknown_design") + counter("service.rejected.missing_corners")
            == expected(|s| s.rejected_other),
        "telemetry rejection counters cover the stats' other bucket",
    );
    // Every climb of the service-side recovery ladder counts one
    // `service.recovery.<rung>`; the rung labels are Relaxation::label's
    // closed set, so the sum must equal the stats' retry counter.
    let recovery_total: u64 = ["widen_pattern_set", "raise_max_candidates", "single_side"]
        .iter()
        .map(|rung| counter(&format!("service.recovery.{rung}")))
        .sum();
    check(
        recovery_total == expected(|s| s.retries),
        &format!("telemetry recovery-rung counters ({recovery_total}) sum to the stats' retries"),
    );
    if chaos {
        // Armed panics inside a job's stages are caught at the pipeline's
        // stage boundary (`Internal { stage }`), not at the worker's.
        check(
            counter("pipeline.panics_caught") > 0,
            "chaos run surfaced caught stage panics in the snapshot",
        );
    }

    let wall = snap
        .histogram("job.wall_s")
        .cloned()
        .unwrap_or_else(|| die("snapshot lacks the job.wall_s histogram"));
    println!(
        "  job latency: p50 {:.1} ms / p95 {:.1} ms / p99 {:.1} ms over {} jobs",
        wall.p50_s * 1e3,
        wall.p95_s * 1e3,
        wall.p99_s * 1e3,
        wall.count,
    );
    check(
        wall.count > 0 && wall.p50_s <= wall.p95_s && wall.p95_s <= wall.p99_s,
        "job.wall_s histogram populated with monotone quantiles",
    );
    check(
        snap.histogram("job.queue_wait_s")
            .is_some_and(|h| h.count > 0),
        "job.queue_wait_s histogram populated",
    );
    // The pipeline records each stage it completes as a span, and every
    // completed job ran insertion and evaluate, so both spans hold at
    // least one sample per completed job.
    let completed = expected(|s| s.completed);
    for stage in ["insertion", "evaluate"] {
        check(
            snap.histogram(&format!("span.{stage}"))
                .is_some_and(|h| h.count > 0 && h.count >= completed),
            &format!("per-job stage breakdown exported (span.{stage} histogram)"),
        );
    }
    check(
        snap.gauge("service.queue_depth").is_some(),
        "queue-depth gauge exported",
    );
    if let Some(path) = &args.telemetry {
        match std::fs::write(path, jsonl.as_bytes()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }

    println!("loadtest: all invariants held");
}

type OracleResult = Result<
    (
        dscts_core::TreeMetrics,
        Option<dscts_core::mcmm::RobustMetrics>,
    ),
    dscts_core::CtsError,
>;

/// The direct (uncached) oracle for one job kind, mirroring the
/// service's full per-job execution: the staged-driver composition on a
/// freshly routed topology, plus the same recovery ladder the
/// service climbs on recoverable errors. Returns the terminal result and
/// the number of ladder rungs climbed (which must equal the service
/// job's recorded `recovery` steps).
fn direct_oracle(
    base: &DsCts,
    design: &Design,
    kind: JobKind,
    retry: Option<&dscts_core::RecoveryPolicy>,
) -> (OracleResult, usize) {
    use dscts_core::RecoveryPolicy;
    let mut pipe = job_pipeline(base, &kind);
    let mut result = direct_attempt(&pipe, design, kind);
    let mut rungs = 0;
    if let (Err(first), Some(policy)) = (&result, retry) {
        if RecoveryPolicy::recoverable(first) {
            for &rung in policy.ladder() {
                rungs += 1;
                pipe = pipe.with_relaxation(rung);
                match direct_attempt(&pipe, design, kind) {
                    Ok(ok) => {
                        result = Ok(ok);
                        break;
                    }
                    Err(e) if RecoveryPolicy::recoverable(&e) => result = Err(e),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
    }
    (result, rungs)
}

/// One direct staged-driver attempt under `pipe`, measured by batch
/// evaluations where the service reads its evaluator. Corner evaluation
/// is fallible: a derated corner can overload a pattern buffer chosen at
/// nominal.
fn direct_attempt(pipe: &DsCts, design: &Design, kind: JobKind) -> OracleResult {
    use dscts_core::mcmm::CornerReport;
    use dscts_core::{mode_vector, ModeRule};
    let topo = pipe.route(design)?;
    let (mut tree, _dp) = match kind {
        JobKind::SweepPoint { threshold } => {
            let modes = mode_vector(&topo, ModeRule::FanoutThreshold(threshold));
            pipe.insert_with_modes(topo, &modes)?
        }
        _ => pipe.insert(topo)?,
    };
    // The base pipeline is nominal, so its optimize stage cannot fail.
    pipe.optimize_tree(&mut tree);
    let metrics = pipe.evaluate_tree(&tree);
    let robust = match kind {
        JobKind::CornerSignoff => Some(
            CornerReport::try_evaluate(
                &tree,
                &CornerSet::asap7_pvt(pipe.technology()),
                pipe.delay_model(),
            )?
            .robust,
        ),
        _ => None,
    };
    Ok((metrics, robust))
}

/// Stable bucket label for a terminal error, for the failure breakdown.
fn error_label(e: &dscts_core::CtsError) -> &'static str {
    use dscts_core::CtsError;
    match e {
        CtsError::Internal { .. } => "internal",
        CtsError::Cancelled { .. } => "cancelled",
        CtsError::NoFeasiblePattern { .. } => "no-feasible-pattern",
        CtsError::NoRootCandidate => "no-root-candidate",
        CtsError::IllegalSides(_) => "illegal-sides",
        CtsError::InvalidTopology(_) => "invalid-topology",
        CtsError::MalformedTrunk { .. } => "malformed-trunk",
        CtsError::EmptyDesign => "empty-design",
    }
}

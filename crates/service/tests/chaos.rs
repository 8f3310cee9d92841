//! Chaos tests (require `--features fault-inject`): panic isolation,
//! quarantine engagement, and the concurrency contract of the
//! plan-scoped fault registry.

#![cfg(feature = "fault-inject")]

use dscts_core::resilience::fault::{FaultKind, FaultPlan, SITE_DP, SITE_EVAL, SITE_SYNTH};
use dscts_core::{CtsError, DsCts};
use dscts_netlist::BenchmarkSpec;
use dscts_service::{
    CtsService, DrainMode, JobKind, JobRequest, JobResponse, Rejected, ServiceConfig,
};
use dscts_tech::Technology;
use std::sync::Mutex;
use std::time::Duration;

/// Fault sites are process-global: while test A's plan is active, test
/// B's pipeline work would consume A's arms. Serialize the whole suite
/// so each test owns the registry *and* the only running pipelines.
static SERIAL: Mutex<()> = Mutex::new(());

fn start(workers: usize) -> CtsService {
    CtsService::start(
        DsCts::new(Technology::asap7()),
        ServiceConfig {
            workers,
            quarantine_threshold: 2,
            ..ServiceConfig::default()
        },
    )
}

fn score(service: &CtsService, design: dscts_service::DesignKey) -> Option<JobResponse> {
    service
        .submit(JobRequest {
            tenant: "chaos".into(),
            design,
            kind: JobKind::Score,
            deadline: None,
        })
        .expect("accepted")
        .wait()
}

/// An injected panic in tree synthesis unwinds out of the insertion
/// stage and is caught at the pipeline's stage boundary: the job fails
/// with a typed `Internal` error naming the stage, the worker survives,
/// and repeated poison strikes quarantine the design while a clean design
/// keeps completing. (DP panics are caught even earlier, by the DP's own
/// per-node isolation.)
#[test]
fn injected_panic_is_isolated_and_quarantines_the_design() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let service = start(2);
    let (poison, _) = service
        .register_design(&BenchmarkSpec::scaled(600, 31).generate())
        .expect("routes");
    let (clean, _) = service
        .register_design(&BenchmarkSpec::scaled(500, 32).generate())
        .expect("routes");

    let mut internal_failures = 0;
    let mut quarantined = false;
    for _ in 0..6 {
        let guard = FaultPlan::new().arm(SITE_SYNTH, FaultKind::Panic).install();
        match service.submit(JobRequest {
            tenant: "chaos".into(),
            design: poison,
            kind: JobKind::Score,
            deadline: None,
        }) {
            Ok(ticket) => match ticket.wait() {
                Some(JobResponse::Failed {
                    error:
                        CtsError::Internal {
                            stage: "insertion", ..
                        },
                    ..
                }) => internal_failures += 1,
                other => panic!("armed panic must surface as Internal in insertion, got {other:?}"),
            },
            Err(Rejected::Quarantined { .. }) => {
                quarantined = true;
                drop(guard);
                break;
            }
            Err(other) => panic!("unexpected rejection {other}"),
        }
        drop(guard);
    }
    assert!(quarantined, "repeated poison must quarantine the design");
    assert!(
        internal_failures >= 2,
        "quarantine threshold is 2 strikes, saw {internal_failures}"
    );
    assert!(service.quarantined().contains(&poison));
    // No worker died absorbing the panics, and clean work still flows.
    assert_eq!(service.live_workers(), 2);
    assert!(
        matches!(score(&service, clean), Some(JobResponse::Completed(_))),
        "clean design must still complete after poison quarantined"
    );
    let stats = service.shutdown(DrainMode::Graceful).stats;
    // The stage boundary caught every panic; none reached the worker's.
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.terminal(), stats.accepted);
}

/// A fault in the evaluate stage fails a service job typed: every job
/// runs the pipeline's evaluate stage, so the armed site fires inside it
/// and the worker lives on to complete the next job.
#[test]
fn injected_evaluate_fault_fails_the_job_in_the_eval_stage() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let service = start(1);
    let (key, _) = service
        .register_design(&BenchmarkSpec::scaled(400, 34).generate())
        .expect("routes");
    let guard = FaultPlan::new().arm(SITE_EVAL, FaultKind::Error).install();
    match score(&service, key) {
        Some(JobResponse::Failed {
            error: CtsError::Internal { stage: "eval", .. },
            ..
        }) => {}
        other => panic!("expected Internal in the eval stage, got {other:?}"),
    }
    assert_eq!(guard.unfired(), 0, "the job visited the evaluate stage");
    drop(guard);
    assert_eq!(service.live_workers(), 1);
    assert!(matches!(
        score(&service, key),
        Some(JobResponse::Completed(_))
    ));
    service.shutdown(DrainMode::Graceful);
}

/// Injected *errors* (not panics) ride the typed error path and do not
/// kill workers either; with a retry policy they are not retried (an
/// Internal error is never recoverable).
#[test]
fn injected_error_fails_typed_without_worker_death() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let service = CtsService::start(
        DsCts::new(Technology::asap7()),
        ServiceConfig {
            workers: 1,
            retry: Some(dscts_core::RecoveryPolicy::new()),
            quarantine_threshold: 100, // keep the design usable
            ..ServiceConfig::default()
        },
    );
    let (key, _) = service
        .register_design(&BenchmarkSpec::scaled(400, 33).generate())
        .expect("routes");
    let guard = FaultPlan::new().arm(SITE_DP, FaultKind::Error).install();
    match score(&service, key) {
        Some(JobResponse::Failed {
            error: CtsError::Internal { .. },
            recovery,
        }) => assert!(
            recovery.is_empty(),
            "Internal errors are non-recoverable and must not climb the ladder"
        ),
        other => panic!("expected typed Internal failure, got {other:?}"),
    }
    drop(guard);
    assert_eq!(service.live_workers(), 1);
    assert!(matches!(
        score(&service, key),
        Some(JobResponse::Completed(_))
    ));
    service.shutdown(DrainMode::Graceful);
}

/// The registry is plan-scoped: a second `install()` blocks until the
/// first guard drops, and the guard is `Send` so it can be dropped on a
/// different thread than the one that installed it.
#[test]
fn fault_plans_are_exclusive_and_guards_are_send() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let first = FaultPlan::new().arm(SITE_DP, FaultKind::Error).install();
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        // Blocks until `first` is dropped below.
        let second = FaultPlan::new().arm(SITE_SYNTH, FaultKind::Error).install();
        tx.send(()).expect("report install");
        drop(second);
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "second install must block while the first plan is active"
    );
    // Move the guard to another thread and drop it there: Send.
    std::thread::spawn(move || drop(first))
        .join()
        .expect("drop thread");
    rx.recv_timeout(Duration::from_secs(10))
        .expect("second install must proceed once the first guard drops");
    waiter.join().expect("waiter");
}

/// `unfired()` reports how many armed faults never fired, letting chaos
/// harnesses verify their faults actually landed.
#[test]
fn unfired_counts_unconsumed_arms() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let guard = FaultPlan::new()
        .arm(SITE_DP, FaultKind::Error)
        .arm(SITE_SYNTH, FaultKind::Error)
        .install();
    assert_eq!(guard.unfired(), 2, "nothing has visited the sites yet");
    drop(guard);
}

//! Clean-path service tests: cache identity, admission control, typed
//! deadline failures, drain semantics.

use dscts_core::mcmm::CornerReport;
use dscts_core::{mode_vector, DsCts, ModeRule};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_service::{
    job_pipeline, CancelKind, CtsService, DesignKey, DrainMode, JobKind, JobRequest, JobResponse,
    Rejected, ServiceConfig,
};
use dscts_tech::{CornerSet, Technology};
use std::time::Duration;

fn small_design() -> Design {
    BenchmarkSpec::scaled(500, 21).generate()
}

fn bigger_design() -> Design {
    BenchmarkSpec::scaled(4_000, 22).generate()
}

fn start(cfg: ServiceConfig) -> CtsService {
    CtsService::start(DsCts::new(Technology::asap7()), cfg)
}

fn submit_ok(service: &CtsService, tenant: &str, key: DesignKey, kind: JobKind) -> JobResponse {
    let ticket = service
        .submit(JobRequest {
            tenant: tenant.into(),
            design: key,
            kind,
            deadline: None,
        })
        .expect("submission accepted");
    ticket.wait().expect("terminal response delivered")
}

#[test]
fn cache_hits_and_results_match_direct_staged_drivers() {
    let service = start(ServiceConfig {
        workers: 2,
        signoff_corners: Some(CornerSet::asap7_pvt(&Technology::asap7())),
        ..ServiceConfig::default()
    });
    let design = small_design();
    let (key, hit) = service.register_design(&design).expect("routes");
    assert!(!hit, "first registration must route");
    let (key2, hit2) = service.register_design(&design).expect("cached");
    assert!(hit2 && key2 == key, "second registration must hit");
    // Content addressing: a renamed but identical placement shares the
    // artifact.
    let mut renamed = design.clone();
    renamed.name = "same-placement-other-name".into();
    let (key3, hit3) = service.register_design(&renamed).expect("cached");
    assert!(hit3 && key3 == key);

    let base = DsCts::new(Technology::asap7());
    for kind in [
        JobKind::Score,
        JobKind::SweepPoint { threshold: 8 },
        JobKind::Sizing { moves: 32 },
    ] {
        let JobResponse::Completed(got) = submit_ok(&service, "t", key, kind) else {
            panic!("{} job must complete", kind.label());
        };
        // The direct (uncached) oracle: identical staged composition on
        // a fresh routing run.
        let pipe = job_pipeline(&base, &kind);
        let topo = pipe.route(&design).expect("oracle route");
        let (mut tree, _dp) = match kind {
            JobKind::SweepPoint { threshold } => {
                let modes = mode_vector(&topo, ModeRule::FanoutThreshold(threshold));
                pipe.insert_with_modes(topo, &modes).expect("oracle insert")
            }
            _ => pipe.insert(topo).expect("oracle insert"),
        };
        pipe.optimize_tree(&mut tree);
        assert_eq!(
            got.metrics,
            pipe.evaluate_tree(&tree),
            "{} job must be bit-identical to direct drivers",
            kind.label()
        );
    }

    // Sign-off reports the robust summary over the configured corners.
    let JobResponse::Completed(signoff) = submit_ok(&service, "t", key, JobKind::CornerSignoff)
    else {
        panic!("signoff job must complete");
    };
    let robust = signoff.robust.expect("signoff carries robust metrics");
    let topo = base.route(&design).expect("route");
    let (mut tree, _dp) = base.insert(topo).expect("insert");
    base.optimize_tree(&mut tree);
    let want = CornerReport::try_evaluate(
        &tree,
        &CornerSet::asap7_pvt(base.technology()),
        base.delay_model(),
    )
    .expect("small design is feasible at every PVT corner")
    .robust;
    assert_eq!(robust, want);

    let stats = service.shutdown(DrainMode::Graceful).stats;
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.terminal(), stats.accepted);
}

/// A corner set that derates capacitances past a pattern buffer's max
/// load makes sign-off evaluation infeasible for a tree the DP built at
/// nominal. That is a data-dependent failure: the job climbs the retry
/// ladder and fails *typed* — no panic reaches the worker, no Internal
/// strike accrues, and the design stays usable for other job kinds.
#[test]
fn corner_infeasibility_fails_typed_and_does_not_quarantine() {
    use dscts_core::{CtsError, RecoveryPolicy};
    use dscts_tech::{Corner, DerateFactors, WireDerate};
    let tech = Technology::asap7();
    let overload = WireDerate {
        res: 1.0,
        cap: 50.0,
    };
    let hot = Corner::new(
        "HOT",
        DerateFactors {
            front_wire: overload,
            back_wire: overload,
            buffer_delay: 1.0,
            ntsv: overload,
        },
    )
    .expect("valid derates");
    let hostile = CornerSet::expand(&tech, vec![hot, Corner::nominal("TT")], 1).expect("valid set");
    let service = CtsService::start(
        DsCts::new(tech),
        ServiceConfig {
            workers: 1,
            retry: Some(RecoveryPolicy::new()),
            signoff_corners: Some(hostile),
            ..ServiceConfig::default()
        },
    );
    let (key, _) = service.register_design(&small_design()).expect("routes");
    match submit_ok(&service, "t", key, JobKind::CornerSignoff) {
        JobResponse::Failed {
            error: CtsError::NoFeasiblePattern { .. },
            recovery,
        } => assert!(
            !recovery.is_empty(),
            "a recoverable infeasibility must climb the retry ladder"
        ),
        other => panic!("expected a typed corner infeasibility, got {other:?}"),
    }
    assert!(
        service.quarantined().is_empty(),
        "data-dependent infeasibility must not strike the design"
    );
    assert!(
        matches!(
            submit_ok(&service, "t", key, JobKind::Score),
            JobResponse::Completed(_)
        ),
        "the design stays usable for corner-free jobs"
    );
    let stats = service.shutdown(DrainMode::Graceful).stats;
    assert_eq!(stats.panics_caught, 0, "no panic reached the worker");
}

/// The same hostile corner set configured on the *pipeline*: the
/// corner-aware optimize stage cannot build its evaluator, which must
/// surface as the typed infeasibility the retry ladder climbs — never a
/// panic that strikes the design.
#[test]
fn corner_aware_optimize_infeasibility_fails_typed_and_does_not_quarantine() {
    use dscts_core::{CtsError, RecoveryPolicy};
    use dscts_tech::{Corner, DerateFactors, WireDerate};
    let tech = Technology::asap7();
    let overload = WireDerate {
        res: 1.0,
        cap: 50.0,
    };
    let hot = Corner::new(
        "HOT",
        DerateFactors {
            front_wire: overload,
            back_wire: overload,
            buffer_delay: 1.0,
            ntsv: overload,
        },
    )
    .expect("valid derates");
    let hostile = CornerSet::expand(&tech, vec![hot, Corner::nominal("TT")], 1).expect("valid set");
    let service = CtsService::start(
        DsCts::new(tech).corners(hostile),
        ServiceConfig {
            workers: 1,
            retry: Some(RecoveryPolicy::new()),
            ..ServiceConfig::default()
        },
    );
    let (key, _) = service.register_design(&small_design()).expect("routes");
    for _ in 0..3 {
        match submit_ok(&service, "t", key, JobKind::Score) {
            JobResponse::Failed {
                error: CtsError::NoFeasiblePattern { .. },
                recovery,
            } => assert!(!recovery.is_empty(), "the retry ladder must run"),
            other => panic!("expected a typed corner infeasibility, got {other:?}"),
        }
    }
    assert!(
        service.quarantined().is_empty(),
        "data-dependent infeasibility must not strike the design"
    );
    let stats = service.shutdown(DrainMode::Graceful).stats;
    assert_eq!(stats.panics_caught, 0, "no panic reached the worker");
}

#[test]
fn admission_control_rejects_typed() {
    let service = start(ServiceConfig {
        workers: 1,
        queue_capacity: 3,
        max_outstanding_per_tenant: 2,
        ..ServiceConfig::default()
    });
    let (big, _) = service.register_design(&bigger_design()).expect("routes");

    // Occupy the single worker with a slow job...
    let running = service
        .submit(JobRequest {
            tenant: "a".into(),
            design: big,
            kind: JobKind::Sizing { moves: 50_000 },
            deadline: None,
        })
        .expect("first job accepted");
    std::thread::sleep(Duration::from_millis(100)); // worker picks it up
                                                    // ...queue a second job for the same tenant (queue 1/3)...
    let queued = service
        .submit(JobRequest {
            tenant: "a".into(),
            design: big,
            kind: JobKind::Score,
            deadline: None,
        })
        .expect("second job queues");
    // ...tenant a is now at its outstanding cap (1 running + 1 queued)
    // while the queue still has room, so the tenant cap fires:
    let backpressure = service.submit(JobRequest {
        tenant: "a".into(),
        design: big,
        kind: JobKind::Score,
        deadline: None,
    });
    assert!(
        matches!(
            backpressure,
            Err(Rejected::Backpressure {
                outstanding: 2,
                limit: 2
            })
        ),
        "got {backpressure:?}"
    );
    // Other tenants fill the remaining queue slots (queue 3/3)...
    let fillers: Vec<_> = ["b", "c"]
        .iter()
        .map(|t| {
            service
                .submit(JobRequest {
                    tenant: (*t).into(),
                    design: big,
                    kind: JobKind::Score,
                    deadline: None,
                })
                .expect("filler queues")
        })
        .collect();
    // ...and the next submission bounces off the full queue:
    let full = service.submit(JobRequest {
        tenant: "d".into(),
        design: big,
        kind: JobKind::Score,
        deadline: None,
    });
    assert!(
        matches!(full, Err(Rejected::QueueFull { capacity: 3 })),
        "got {full:?}"
    );

    assert!(running.wait().is_some());
    assert!(queued.wait().is_some());
    for f in fillers {
        assert!(f.wait().is_some());
    }
    let stats = service.shutdown(DrainMode::Graceful).stats;
    assert_eq!(stats.rejected_backpressure, 1);
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.terminal(), stats.accepted);
}

#[test]
fn unknown_design_and_missing_corners_reject() {
    let service = start(ServiceConfig::default());
    let unregistered = DesignKey::of(&small_design());
    assert!(matches!(
        service.submit(JobRequest {
            tenant: "t".into(),
            design: unregistered,
            kind: JobKind::Score,
            deadline: None,
        }),
        Err(Rejected::UnknownDesign { .. })
    ));
    let (key, _) = service.register_design(&small_design()).expect("routes");
    // No sign-off corner set configured:
    assert!(matches!(
        service.submit(JobRequest {
            tenant: "t".into(),
            design: key,
            kind: JobKind::CornerSignoff,
            deadline: None,
        }),
        Err(Rejected::MissingCorners)
    ));
    service.shutdown(DrainMode::Graceful);
}

#[test]
fn deadline_expiring_in_queue_fails_typed() {
    let service = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (big, _) = service.register_design(&bigger_design()).expect("routes");
    let (small, _) = service.register_design(&small_design()).expect("routes");
    // Block the worker, then submit a job whose deadline expires while
    // it waits in the queue.
    let blocker = service
        .submit(JobRequest {
            tenant: "a".into(),
            design: big,
            kind: JobKind::Sizing { moves: 2_000 },
            deadline: None,
        })
        .expect("blocker accepted");
    let doomed = service
        .submit(JobRequest {
            tenant: "b".into(),
            design: small,
            kind: JobKind::Score,
            deadline: Some(Duration::from_millis(1)),
        })
        .expect("doomed job accepted");
    match doomed.wait() {
        Some(JobResponse::Failed { error, .. }) => {
            assert!(
                matches!(error, dscts_core::CtsError::Cancelled { .. }),
                "expected a typed cancellation, got {error:?}"
            );
        }
        other => panic!("expected typed deadline failure, got {other:?}"),
    }
    assert!(blocker.wait().is_some());
    service.shutdown(DrainMode::Graceful);
}

#[test]
fn graceful_drain_cancels_queued_jobs_typed() {
    let service = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (big, _) = service.register_design(&bigger_design()).expect("routes");
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(JobRequest {
                    tenant: format!("t{i}"),
                    design: big,
                    kind: JobKind::Score,
                    deadline: None,
                })
                .expect("accepted")
        })
        .collect();
    let report = service.shutdown(DrainMode::Graceful);
    assert!(report.cancelled_queued > 0, "drain found queued jobs");
    let mut cancelled = 0;
    for t in tickets {
        match t.wait() {
            Some(JobResponse::Cancelled(CancelKind::Drained)) => cancelled += 1,
            Some(_) => {}
            None => panic!("job lost through drain"),
        }
    }
    assert_eq!(cancelled as u64, report.cancelled_queued);
    assert_eq!(report.stats.terminal(), report.stats.accepted);
    // Post-drain submissions are typed rejections, not hangs.
}

#[test]
fn fast_drain_degrades_inflight_but_stays_terminal() {
    let service = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (big, _) = service.register_design(&bigger_design()).expect("routes");
    let inflight = service
        .submit(JobRequest {
            tenant: "a".into(),
            design: big,
            kind: JobKind::Sizing { moves: 100_000 },
            deadline: None,
        })
        .expect("accepted");
    std::thread::sleep(Duration::from_millis(150)); // let it start
    let report = service.shutdown(DrainMode::Fast);
    match inflight.wait() {
        // Token tripped mid-optimization → degraded completion; tripped
        // pre-tree → typed cancellation. Either is a terminal response.
        Some(JobResponse::Completed(_) | JobResponse::Failed { .. }) => {}
        other => panic!("fast drain must leave a terminal response, got {other:?}"),
    }
    assert_eq!(report.stats.terminal(), report.stats.accepted);
}

//! The multi-tenant job service: bounded queue, worker pool, admission
//! control, quarantine, graceful drain.

use crate::cache::{CachedDesign, DesignCache, DesignKey};
use crate::job::{CancelKind, JobKind, JobOutcome, JobRequest, JobResponse, JobTicket, Rejected};
use dscts_core::mcmm::CornerReport;
use dscts_core::resilience::panic_message;
use dscts_core::{
    mode_vector, AnnealConfig, AnnealedSizingPass, CancelToken, CtsError, DsCts, ModeRule,
    RecoveryPolicy, RecoveryStep, RunBudget, StageTiming,
};
use dscts_netlist::Design;
use dscts_tech::CornerSet;
use dscts_telemetry as telemetry;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs. The defaults suit a smoke test; see the crate
/// docs ("Operating the service") for sizing guidance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Hard bound on queued (not yet running) jobs; submissions beyond
    /// it are rejected [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant cap on outstanding (queued + running) jobs;
    /// submissions beyond it are rejected [`Rejected::Backpressure`].
    pub max_outstanding_per_tenant: usize,
    /// Default per-job deadline (measured from submission) applied when
    /// a request carries none. `None` leaves such jobs deadline-free.
    pub default_deadline: Option<Duration>,
    /// Internal-error strikes (panics, injected faults) a design may
    /// accumulate before it is quarantined.
    pub quarantine_threshold: u32,
    /// Per-job retry ladder for data-dependent infeasibilities,
    /// mirroring [`DsCts::try_run`]'s recovery semantics.
    pub retry: Option<RecoveryPolicy>,
    /// Corner set for [`JobKind::CornerSignoff`] jobs; without one such
    /// jobs are rejected [`Rejected::MissingCorners`].
    pub signoff_corners: Option<CornerSet>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            max_outstanding_per_tenant: 64,
            default_deadline: None,
            quarantine_threshold: 2,
            retry: None,
            signoff_corners: None,
        }
    }
}

/// How [`CtsService::shutdown`] treats in-flight jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// In-flight jobs run to natural completion; queued jobs are
    /// cancelled.
    Graceful,
    /// In-flight jobs have their tokens cancelled too, so they degrade
    /// (truncated schedules) or fail typed at the next checkpoint;
    /// queued jobs are cancelled.
    Fast,
}

/// Counters exported by [`CtsService::stats`]. All counts are
/// monotonically increasing over the service's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Accepted submissions.
    pub accepted: u64,
    /// Jobs that completed with a result (possibly degraded).
    pub completed: u64,
    /// Jobs that failed with a typed error.
    pub failed: u64,
    /// Accepted jobs cancelled without executing (drain).
    pub cancelled: u64,
    /// Panics caught at the per-job isolation boundary.
    pub panics_caught: u64,
    /// Recovery-ladder retries executed across all jobs.
    pub retries: u64,
    /// Rejections, by reason.
    pub rejected_queue_full: u64,
    /// Rejections for per-tenant backpressure.
    pub rejected_backpressure: u64,
    /// Rejections for quarantined designs.
    pub rejected_quarantined: u64,
    /// Rejections because the service was draining.
    pub rejected_shutdown: u64,
    /// Rejections for unregistered designs or missing corner sets.
    pub rejected_other: u64,
    /// Design-cache hits (registrations that found the artifact).
    pub cache_hits: u64,
    /// Design-cache misses (registrations that routed).
    pub cache_misses: u64,
}

impl ServiceStats {
    /// Terminal responses delivered (completed + failed + cancelled).
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed + self.cancelled
    }
}

/// Report returned by [`CtsService::shutdown`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Queued jobs cancelled at drain.
    pub cancelled_queued: u64,
    /// Final lifetime stats.
    pub stats: ServiceStats,
}

struct QueuedJob {
    id: u64,
    tenant: String,
    design: Arc<CachedDesign>,
    kind: JobKind,
    token: CancelToken,
    submitted: Instant,
    tx: mpsc::Sender<JobResponse>,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    accepting: bool,
    /// Tokens of currently executing jobs, keyed by job id, so drain can
    /// cancel them ([`DrainMode::Fast`]).
    inflight: HashMap<u64, CancelToken>,
    /// Outstanding (queued + running) jobs per tenant.
    tenant_load: HashMap<String, usize>,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    panics_caught: AtomicU64,
    retries: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_quarantined: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_other: AtomicU64,
}

struct QuarantineState {
    strikes: HashMap<DesignKey, u32>,
    quarantined: HashSet<DesignKey>,
}

struct Inner {
    base: DsCts,
    cfg: ServiceConfig,
    signoff: Option<Arc<CornerSet>>,
    cache: DesignCache,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    counters: Counters,
    quarantine: Mutex<QuarantineState>,
    next_job_id: AtomicU64,
}

/// The multi-tenant CTS job service. See the crate docs for the
/// operating model.
pub struct CtsService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl CtsService {
    /// Starts the worker pool around one base pipeline configuration.
    /// All cached artifacts and job results are produced under exactly
    /// this configuration (per-kind specializations layer on top of it
    /// deterministically).
    pub fn start(base: DsCts, cfg: ServiceConfig) -> CtsService {
        let workers = cfg.workers.max(1);
        let signoff = cfg.signoff_corners.clone().map(Arc::new);
        let inner = Arc::new(Inner {
            base,
            cfg,
            signoff,
            cache: DesignCache::new(),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                inflight: HashMap::new(),
                tenant_load: HashMap::new(),
            }),
            work_ready: Condvar::new(),
            counters: Counters::default(),
            quarantine: Mutex::new(QuarantineState {
                strikes: HashMap::new(),
                quarantined: HashSet::new(),
            }),
            next_job_id: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dscts-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a service worker thread")
            })
            .collect();
        CtsService {
            inner,
            workers: handles,
        }
    }

    /// Registers `design`: routes it on first sight, returns its
    /// content key and whether the artifact was already cached. Blocks
    /// while another registration of the same placement is routing.
    /// Routing failures are typed and not cached (a later registration
    /// retries).
    pub fn register_design(&self, design: &Design) -> Result<(DesignKey, bool), CtsError> {
        let (result, hit) = self.inner.cache.get_or_route(&self.inner.base, design);
        result.map(|artifact| (artifact.key, hit))
    }

    /// Submits one job. Accepted jobs return a [`JobTicket`] that
    /// resolves to exactly one terminal [`JobResponse`]; refused jobs
    /// return a typed [`Rejected`] and were never queued.
    pub fn submit(&self, req: JobRequest) -> Result<JobTicket, Rejected> {
        let inner = &self.inner;
        if matches!(req.kind, JobKind::CornerSignoff) && inner.signoff.is_none() {
            inner
                .counters
                .rejected_other
                .fetch_add(1, Ordering::Relaxed);
            count_rejected("missing_corners");
            return Err(Rejected::MissingCorners);
        }
        {
            let q = inner.quarantine.lock().unwrap_or_else(|p| p.into_inner());
            if q.quarantined.contains(&req.design) {
                inner
                    .counters
                    .rejected_quarantined
                    .fetch_add(1, Ordering::Relaxed);
                count_rejected("quarantined");
                return Err(Rejected::Quarantined { design: req.design });
            }
        }
        let Some(design) = inner.cache.get(req.design) else {
            inner
                .counters
                .rejected_other
                .fetch_add(1, Ordering::Relaxed);
            count_rejected("unknown_design");
            return Err(Rejected::UnknownDesign { design: req.design });
        };

        let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if !state.accepting {
            inner
                .counters
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            count_rejected("shutting_down");
            return Err(Rejected::ShuttingDown);
        }
        if state.queue.len() >= inner.cfg.queue_capacity {
            inner
                .counters
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            count_rejected("queue_full");
            return Err(Rejected::QueueFull {
                capacity: inner.cfg.queue_capacity,
            });
        }
        let outstanding = state.tenant_load.get(&req.tenant).copied().unwrap_or(0);
        if outstanding >= inner.cfg.max_outstanding_per_tenant {
            inner
                .counters
                .rejected_backpressure
                .fetch_add(1, Ordering::Relaxed);
            count_rejected("backpressure");
            return Err(Rejected::Backpressure {
                outstanding,
                limit: inner.cfg.max_outstanding_per_tenant,
            });
        }

        // Admitted. The deadline clock starts now: queue wait counts
        // against the tenant's deadline, which is what makes QueueFull
        // rejections preferable to silently stale results.
        let deadline = req.deadline.or(inner.cfg.default_deadline);
        let budget = match deadline {
            Some(d) => RunBudget::new().with_deadline(d),
            None => RunBudget::new(),
        };
        let token = budget.token();
        let id = inner.next_job_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        *state.tenant_load.entry(req.tenant.clone()).or_insert(0) += 1;
        state.queue.push_back(QueuedJob {
            id,
            tenant: req.tenant,
            design,
            kind: req.kind,
            token,
            submitted: Instant::now(),
            tx,
        });
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = telemetry::active() {
            tel.counter("service.accepted").incr();
            tel.gauge("service.queue_depth")
                .set(state.queue.len() as i64);
        }
        drop(state);
        inner.work_ready.notify_one();
        Ok(JobTicket {
            id,
            design: req.design,
            kind: req.kind,
            rx,
        })
    }

    /// Current lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        stats_of(&self.inner)
    }

    /// Designs currently quarantined.
    pub fn quarantined(&self) -> Vec<DesignKey> {
        let q = self
            .inner
            .quarantine
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut keys: Vec<DesignKey> = q.quarantined.iter().copied().collect();
        keys.sort();
        keys
    }

    /// Worker threads still alive (a dead worker would mean the panic
    /// isolation boundary leaked — the loadtest asserts this stays equal
    /// to the configured pool size).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|h| !h.is_finished()).count()
    }

    /// Drains and stops the service: no new submissions are accepted,
    /// queued jobs receive [`JobResponse::Cancelled`], in-flight jobs
    /// finish ([`DrainMode::Graceful`]) or degrade at their next
    /// checkpoint ([`DrainMode::Fast`]), and the worker pool joins.
    pub fn shutdown(self, mode: DrainMode) -> DrainReport {
        let inner = &self.inner;
        let drained: Vec<QueuedJob> = {
            let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            state.accepting = false;
            let drained: Vec<QueuedJob> = state.queue.drain(..).collect();
            for job in &drained {
                release_tenant(&mut state.tenant_load, &job.tenant);
            }
            if mode == DrainMode::Fast {
                for token in state.inflight.values() {
                    token.cancel();
                }
            }
            drained
        };
        inner.work_ready.notify_all();
        let cancelled_queued = drained.len();
        for job in drained {
            // A dropped ticket makes the send fail; the response still
            // counts as delivered (the receiver chose not to look).
            let _ = job.tx.send(JobResponse::Cancelled(CancelKind::Drained));
            inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        // Keep the telemetry terminal counters in lockstep with the
        // atomic mirror: drain cancellations never reach a worker, so
        // they must be counted here for `service.accepted ==
        // completed + failed + cancelled` to hold in the snapshot.
        telemetry::count("service.cancelled", cancelled_queued as u64);
        for handle in self.workers {
            // invariant: worker_loop never panics (every job body is
            // wrapped in catch_unwind), so join always succeeds.
            handle.join().expect("service worker exited cleanly");
        }
        DrainReport {
            cancelled_queued: cancelled_queued as u64,
            stats: stats_of(&self.inner),
        }
    }
}

fn stats_of(inner: &Inner) -> ServiceStats {
    let c = &inner.counters;
    ServiceStats {
        accepted: c.accepted.load(Ordering::Relaxed),
        completed: c.completed.load(Ordering::Relaxed),
        failed: c.failed.load(Ordering::Relaxed),
        cancelled: c.cancelled.load(Ordering::Relaxed),
        panics_caught: c.panics_caught.load(Ordering::Relaxed),
        retries: c.retries.load(Ordering::Relaxed),
        rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
        rejected_backpressure: c.rejected_backpressure.load(Ordering::Relaxed),
        rejected_quarantined: c.rejected_quarantined.load(Ordering::Relaxed),
        rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
        rejected_other: c.rejected_other.load(Ordering::Relaxed),
        cache_hits: inner.cache.hits(),
        cache_misses: inner.cache.misses(),
    }
}

/// Admission-rejection telemetry, one counter per [`Rejected`] variant
/// (`service.rejected.<variant>`). The atomic [`Counters`] mirror stays
/// authoritative for [`ServiceStats`]; these exist so rejection mix is
/// visible in the same snapshot as everything else.
fn count_rejected(variant: &'static str) {
    if let Some(tel) = telemetry::active() {
        tel.counter(&format!("service.rejected.{variant}")).incr();
    }
}

fn release_tenant(load: &mut HashMap<String, usize>, tenant: &str) {
    if let Some(n) = load.get_mut(tenant) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            load.remove(tenant);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let tel = telemetry::active();
        let job = {
            let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.inflight.insert(job.id, job.token.clone());
                    if let Some(tel) = &tel {
                        tel.gauge("service.queue_depth")
                            .set(state.queue.len() as i64);
                    }
                    break job;
                }
                if !state.accepting {
                    return;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        let queue_wait_s = job.submitted.elapsed().as_secs_f64();
        let started = Instant::now();
        if let Some(tel) = &tel {
            tel.histogram("job.queue_wait_s").record(queue_wait_s);
            tel.counter(&format!("service.jobs.{}", job.kind.label()))
                .incr();
        }

        // The per-job isolation boundary: a poisoned request (injected
        // panic, genuine bug) becomes a typed Internal failure and the
        // worker lives on to take the next job.
        let response = match catch_unwind(AssertUnwindSafe(|| {
            execute_job(inner, &job, queue_wait_s, started)
        })) {
            Ok(response) => response,
            Err(payload) => {
                inner.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                telemetry::count("service.panics_caught", 1);
                JobResponse::Failed {
                    error: CtsError::Internal {
                        stage: "service",
                        payload: panic_message(&*payload),
                    },
                    recovery: Vec::new(),
                }
            }
        };

        match &response {
            JobResponse::Completed(_) => {
                inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            JobResponse::Failed { error, .. } => {
                inner.counters.failed.fetch_add(1, Ordering::Relaxed);
                if matches!(error, CtsError::Internal { .. }) {
                    strike(inner, job.design.key);
                }
            }
            JobResponse::Cancelled(_) => {
                inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(tel) = &tel {
            let wall_s = started.elapsed().as_secs_f64();
            tel.histogram("job.wall_s").record(wall_s);
            tel.record_duration("span.service.job", wall_s);
            let terminal = match &response {
                JobResponse::Completed(_) => "service.completed",
                JobResponse::Failed { .. } => "service.failed",
                JobResponse::Cancelled(_) => "service.cancelled",
            };
            tel.counter(terminal).incr();
        }
        let _ = job.tx.send(response);

        let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        state.inflight.remove(&job.id);
        release_tenant(&mut state.tenant_load, &job.tenant);
    }
}

/// Records one internal-error strike against `design`; quarantines it at
/// the configured threshold.
fn strike(inner: &Inner, design: DesignKey) {
    let mut q = inner.quarantine.lock().unwrap_or_else(|p| p.into_inner());
    let strikes = q.strikes.entry(design).or_insert(0);
    *strikes += 1;
    telemetry::count("service.quarantine_strikes", 1);
    if *strikes >= inner.cfg.quarantine_threshold {
        q.quarantined.insert(design);
        telemetry::count("service.quarantined_designs", 1);
    }
}

/// The pipeline specialization a job kind runs under. Public within the
/// crate so the loadtest's bit-identity oracle constructs the *same*
/// pipeline for its direct staged-driver runs.
pub fn job_pipeline(base: &DsCts, kind: &JobKind) -> DsCts {
    match kind {
        JobKind::Score | JobKind::CornerSignoff => base.clone(),
        JobKind::SweepPoint { threshold } => base
            .clone()
            .mode_rule(ModeRule::FanoutThreshold(*threshold)),
        JobKind::Sizing { moves } => {
            let schedule =
                base.effective_schedule()
                    .unwrap_or_default()
                    .with(AnnealedSizingPass::new(AnnealConfig {
                        moves: *moves,
                        ..AnnealConfig::default()
                    }));
            base.clone().schedule(schedule)
        }
    }
}

fn execute_job(inner: &Inner, job: &QueuedJob, queue_wait_s: f64, started: Instant) -> JobResponse {
    // A job whose deadline expired while queued fails typed without
    // spending worker time.
    if let Err(error) = job.token.check("queue") {
        return JobResponse::Failed {
            error,
            recovery: Vec::new(),
        };
    }

    let pipe = job_pipeline(&inner.base, &job.kind);
    let mut recovery: Vec<RecoveryStep> = Vec::new();
    let mut attempt_pipe = pipe;
    let mut result = attempt(inner, &attempt_pipe, job);
    if let Err(first_err) = &result {
        if let Some(policy) = &inner.cfg.retry {
            if RecoveryPolicy::recoverable(first_err) {
                // The service-side mirror of DsCts::try_run's ladder:
                // cumulative relaxations, one shared token, typed stop on
                // non-recoverable errors.
                let mut last_err = first_err.clone();
                for &rung in policy.ladder() {
                    recovery.push(RecoveryStep {
                        error: last_err.clone(),
                        relaxation: rung,
                    });
                    inner.counters.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(tel) = telemetry::active() {
                        tel.counter(&format!("service.recovery.{}", rung.label()))
                            .incr();
                    }
                    attempt_pipe = attempt_pipe.with_relaxation(rung);
                    match attempt(inner, &attempt_pipe, job) {
                        Ok(outcome) => {
                            result = Ok(outcome);
                            break;
                        }
                        Err(e) if RecoveryPolicy::recoverable(&e) => {
                            last_err = e.clone();
                            result = Err(e);
                        }
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
            }
        }
    }

    match result {
        Ok(mut outcome) => {
            outcome.recovery = recovery;
            outcome.trials = job.token.trials();
            outcome.wall_s = started.elapsed().as_secs_f64();
            outcome.queue_wait_s = queue_wait_s;
            if let Some(tel) = telemetry::active() {
                // The winning attempt's stage rows double as the
                // aggregate per-stage span histograms (`opt:<name>`
                // rows are skipped — the pass manager already records
                // them as `span.pass.<name>`).
                for stage in &outcome.stages {
                    if !stage.name.starts_with("opt:") {
                        tel.record_duration(&format!("span.{}", stage.name), stage.seconds);
                    }
                }
            }
            JobResponse::Completed(outcome)
        }
        Err(error) => JobResponse::Failed { error, recovery },
    }
}

/// One staged-driver attempt against the cached artifact. Bit-identical
/// to the equivalent direct `DsCts` staged composition: the cached topo
/// is cloned per attempt exactly as `SweepEngine` clones its shared
/// routed topology.
fn attempt(inner: &Inner, pipe: &DsCts, job: &QueuedJob) -> Result<JobOutcome, CtsError> {
    let token = &job.token;
    let mut stages: Vec<StageTiming> = Vec::new();
    let mut stage_start = Instant::now();
    // Mirrors `Outcome::stages`' construction in the pipeline's own
    // run loop: name + wall clock + RSS high-water mark per stage,
    // `opt:<name>` rows folded in behind the optimize stage. Routing is
    // deliberately absent — it ran once at registration (`route_s` on
    // the cached artifact), not per job.
    let push_stage = |stages: &mut Vec<StageTiming>, stage_start: &mut Instant, name| {
        let now = Instant::now();
        stages.push(StageTiming {
            name: Cow::Borrowed(name),
            seconds: (now - *stage_start).as_secs_f64(),
            peak_rss_bytes: dscts_core::rss::peak_rss_bytes(),
        });
        *stage_start = now;
    };
    let modes = match &job.kind {
        JobKind::SweepPoint { threshold } => Some(mode_vector(
            &job.design.topo,
            ModeRule::FanoutThreshold(*threshold),
        )),
        _ => None,
    };
    let (mut tree, _, _) =
        pipe.insert_with(job.design.topo.clone(), modes.as_deref(), Some(token), None)?;
    push_stage(&mut stages, &mut stage_start, "insertion");
    let report = pipe.optimize_tree_cancel(&mut tree, Some(token))?;
    let degraded = report.as_ref().is_some_and(|r| r.truncated);
    push_stage(&mut stages, &mut stage_start, "optimize");
    if let Some(report) = &report {
        let stage_peak = stages.last().and_then(|t| t.peak_rss_bytes);
        stages.extend(report.passes.iter().map(|p| StageTiming {
            name: Cow::Owned(format!("opt:{}", p.name)),
            seconds: p.seconds,
            peak_rss_bytes: stage_peak,
        }));
    }
    let metrics = pipe.evaluate_tree(&tree);
    push_stage(&mut stages, &mut stage_start, "evaluate");
    // Corner evaluation is fallible: a capacitance-derating corner can
    // overload a pattern buffer the DP placed near its max-load budget
    // at nominal. That is a data-dependent `NoFeasiblePattern` — the
    // retry ladder relaxes the pipeline and re-attempts — not a panic.
    let corners = match &job.kind {
        JobKind::CornerSignoff => inner.signoff.as_deref(),
        _ => pipe.corner_set(),
    };
    let robust = match corners {
        Some(corners) => {
            let robust = CornerReport::try_evaluate(&tree, corners, pipe.delay_model())?.robust;
            push_stage(&mut stages, &mut stage_start, "signoff");
            Some(robust)
        }
        None => None,
    };
    Ok(JobOutcome {
        metrics,
        robust,
        degraded,
        recovery: Vec::new(),
        trials: 0,
        wall_s: 0.0,
        queue_wait_s: 0.0,
        stages,
    })
}

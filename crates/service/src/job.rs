//! Typed job requests, terminal responses, and admission rejections.
//!
//! Every accepted submission receives **exactly one** terminal
//! [`JobResponse`] — completed, failed, or cancelled — delivered through
//! the [`JobTicket`]. Rejections happen synchronously at
//! [`CtsService::submit`](crate::CtsService::submit) and are typed
//! ([`Rejected`]), so a caller can distinguish "back off and retry"
//! (backpressure, full queue) from "stop submitting this design"
//! (quarantine) without parsing strings.

use crate::cache::DesignKey;
use dscts_core::mcmm::RobustMetrics;
use dscts_core::{CtsError, RecoveryStep, StageTiming, TreeMetrics};
use std::sync::mpsc;
use std::time::Duration;

/// What a job computes against a cached routed design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Full scoring under the service's base pipeline configuration:
    /// insertion, the configured optimization schedule, evaluation.
    Score,
    /// One DSE sweep point: insertion under
    /// `ModeRule::FanoutThreshold(threshold)` modes, then the base
    /// schedule and evaluation — the per-class body of
    /// [`SweepEngine`](dscts_core::dse::SweepEngine), as one job.
    SweepPoint {
        /// The fanout threshold switching DP nodes to intra-side mode.
        threshold: u32,
    },
    /// What-if sizing: the base schedule plus a seeded annealed-sizing
    /// pass with this move budget appended.
    Sizing {
        /// Total annealer trial moves.
        moves: usize,
    },
    /// MCMM sign-off: score nominally, then evaluate the tree across the
    /// service's sign-off corner set and report the robust summary.
    CornerSignoff,
}

impl JobKind {
    /// Stable label for stats and snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Score => "score",
            JobKind::SweepPoint { .. } => "sweep",
            JobKind::Sizing { .. } => "sizing",
            JobKind::CornerSignoff => "signoff",
        }
    }
}

/// One job submission.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Tenant identity, for per-tenant admission control.
    pub tenant: String,
    /// The registered design to score (see
    /// [`CtsService::register_design`](crate::CtsService::register_design)).
    pub design: DesignKey,
    /// What to compute.
    pub kind: JobKind,
    /// Per-job wall-clock deadline, measured from *submission* (queue
    /// wait counts against it — a deadline is a promise to the tenant,
    /// not to the scheduler). `None` uses the service default.
    pub deadline: Option<Duration>,
}

/// Why a submission was refused at admission. Rejections are
/// synchronous: a rejected job was never queued and gets no
/// [`JobResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity; retry after completions drain.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// This tenant has too many outstanding (queued + running) jobs;
    /// other tenants still have headroom.
    Backpressure {
        /// The tenant's current outstanding jobs.
        outstanding: usize,
        /// The per-tenant cap.
        limit: usize,
    },
    /// The design repeatedly killed jobs and is quarantined.
    Quarantined {
        /// The quarantined design.
        design: DesignKey,
    },
    /// The design key was never registered (or its routing failed).
    UnknownDesign {
        /// The unknown key.
        design: DesignKey,
    },
    /// A [`JobKind::CornerSignoff`] job was submitted to a service
    /// configured without a sign-off corner set.
    MissingCorners,
    /// The service is draining and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => write!(f, "queue full (capacity {capacity})"),
            Rejected::Backpressure { outstanding, limit } => {
                write!(f, "tenant backpressure ({outstanding}/{limit} outstanding)")
            }
            Rejected::Quarantined { design } => write!(f, "design {design} is quarantined"),
            Rejected::UnknownDesign { design } => write!(f, "design {design} is not registered"),
            Rejected::MissingCorners => write!(f, "service has no sign-off corner set"),
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Why an accepted job was cancelled without executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The service drained: the job was still queued at shutdown.
    Drained,
}

/// The result payload of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Final tree metrics (nominal corner).
    pub metrics: TreeMetrics,
    /// Cross-corner robust summary, for corner-aware configurations and
    /// [`JobKind::CornerSignoff`] jobs.
    pub robust: Option<RobustMetrics>,
    /// Whether the run budget truncated the optimization schedule (the
    /// tree is valid but not fully optimized).
    pub degraded: bool,
    /// Recovery-ladder rungs taken, in order (empty on a first-try
    /// success).
    pub recovery: Vec<RecoveryStep>,
    /// Optimization trial moves charged against the job's budget.
    pub trials: u64,
    /// Wall clock from dequeue to terminal response (seconds).
    pub wall_s: f64,
    /// Wall clock spent queued before a worker picked the job up
    /// (seconds).
    pub queue_wait_s: f64,
    /// Per-stage wall-clock breakdown of the winning attempt: its
    /// [`Outcome::stages`](dscts_core::Outcome::stages) from
    /// [`DsCts::try_run_routed`](dscts_core::DsCts::try_run_routed) —
    /// `insertion`, `optimize` (plus one `opt:<name>` entry per executed
    /// pass) and `evaluate` — then `signoff` for
    /// [`JobKind::CornerSignoff`] jobs. Routing is **not** listed — it
    /// happened once at
    /// [`register_design`](crate::CtsService::register_design) time and
    /// is shared by every job on the cached artifact (its cost is the
    /// cache's `route_s`). Recovery retries report the successful
    /// attempt's stages only.
    pub stages: Vec<StageTiming>,
}

/// The exactly-once terminal response of an accepted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResponse {
    /// The job produced a (possibly degraded) result.
    Completed(JobOutcome),
    /// The job failed with a typed error; the worker survived.
    Failed {
        /// The terminal error (deadline expiry pre-tree surfaces as
        /// [`CtsError::Cancelled`]; an isolated panic as
        /// [`CtsError::Internal`]).
        error: CtsError,
        /// Recovery rungs attempted before giving up.
        recovery: Vec<RecoveryStep>,
    },
    /// The job never executed.
    Cancelled(CancelKind),
}

/// Receipt for one accepted job; resolves to its terminal response.
#[derive(Debug)]
pub struct JobTicket {
    /// Service-unique job id.
    pub id: u64,
    /// The design the job runs against.
    pub design: DesignKey,
    /// The submitted kind.
    pub kind: JobKind,
    pub(crate) rx: mpsc::Receiver<JobResponse>,
}

impl JobTicket {
    /// Blocks for the terminal response. `None` means the job was lost —
    /// the service dropped it without responding, which the service's
    /// delivery invariant rules out; the loadtest's invariant checker
    /// treats `None` as a hard failure rather than hiding it behind a
    /// panic here.
    pub fn wait(self) -> Option<JobResponse> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll for the terminal response.
    pub fn try_wait(&self) -> Option<JobResponse> {
        self.rx.try_recv().ok()
    }
}

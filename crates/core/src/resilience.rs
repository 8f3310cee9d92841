//! Fault-tolerant execution: budgets, cancellation, recovery, fault injection.
//!
//! The ROADMAP's service layer will keep one process alive across
//! thousands of jobs, so a single run must never hang (unbounded wall
//! clock), never take the process down (escaped panic), and fail *usefully*
//! (typed errors a policy can retry). This module supplies the three
//! primitives the pipeline threads through its stages and long loops:
//!
//! - [`RunBudget`] + [`CancelToken`] — a wall-clock deadline and a trial
//!   budget observed *cooperatively*: the pipeline checks the token at
//!   stage boundaries and inside the long loops (per-height DP
//!   propagation, sweep classes, pass trial loops, evaluator mutations).
//!   Mandatory stages report [`CtsError::Cancelled`]; the optimization
//!   stage truncates instead and the run completes with
//!   [`Outcome::degraded`](crate::Outcome::degraded) set.
//! - [`RecoveryPolicy`] — a deterministic ladder of config relaxations
//!   retried on data-dependent infeasibilities
//!   ([`CtsError::NoFeasiblePattern`], [`CtsError::NoRootCandidate`],
//!   [`CtsError::IllegalSides`]), every rung recorded in
//!   [`Outcome::recovery`](crate::Outcome::recovery).
//! - [`fault`] — a seeded, deterministic fault-injection harness compiled
//!   under the `fault-inject` feature; release builds carry zero-cost
//!   no-op checks.
//!
//! None of this changes behaviour unless configured: with no budget, no
//! policy and no armed [`fault::FaultPlan`], every path is bit-identical
//! to a build of this crate without the module.

use crate::error::CtsError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock and work budgets for one pipeline run.
///
/// A budget is pure configuration; [`RunBudget::token`] mints the shared
/// [`CancelToken`] the run observes. The default budget is unlimited and
/// leaves every path bit-identical to an unbudgeted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Wall-clock deadline, measured from [`RunBudget::token`].
    pub deadline: Option<Duration>,
    /// Maximum optimization trial moves across the whole run (annealer
    /// moves, sizing trials and attempted refinement pads all count).
    pub max_trials: Option<u64>,
}

impl RunBudget {
    /// An unlimited budget (identical to `Default`).
    pub fn new() -> Self {
        RunBudget::default()
    }

    /// Caps wall clock: the run yields a degraded outcome (or a typed
    /// [`CtsError::Cancelled`] when no partial tree exists yet) once the
    /// deadline passes.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps total optimization trial moves.
    pub fn with_max_trials(mut self, max_trials: u64) -> Self {
        self.max_trials = Some(max_trials);
        self
    }

    /// Whether the budget constrains anything at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_trials.is_none()
    }

    /// Starts the clock: mints the token the run's checkpoints observe.
    pub fn token(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: self.deadline.map(|d| Instant::now() + d),
                trials: AtomicU64::new(0),
                max_trials: self.max_trials,
            }),
        }
    }
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    trials: AtomicU64,
    max_trials: Option<u64>,
}

/// Cooperative cancellation handle shared by every checkpoint of a run.
///
/// Cloning is cheap (one `Arc`); a clone observes and raises the same
/// flag, so an external owner can [`CancelToken::cancel`] a run from
/// another thread while the run's own checkpoints watch the deadline and
/// trial budget. Cancellation is *cooperative*: work between two
/// checkpoints always completes, which is what keeps partially-cancelled
/// outcomes valid trees rather than torn state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that never fires on its own (only explicit
    /// [`CancelToken::cancel`] trips it).
    pub fn unlimited() -> Self {
        RunBudget::default().token()
    }

    /// Raises the flag; every subsequent checkpoint observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the run should stop: the flag is up, or the deadline has
    /// passed (which latches the flag so later checks are branch-cheap).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Records one optimization trial move; trips the token once the
    /// budget's `max_trials` is exhausted.
    pub fn record_trial(&self) {
        let n = self.inner.trials.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.inner.max_trials {
            if n >= max {
                self.inner.cancelled.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Trial moves recorded so far.
    pub fn trials(&self) -> u64 {
        self.inner.trials.load(Ordering::Relaxed)
    }

    /// Checkpoint: `Err(CtsError::Cancelled { stage })` once the token has
    /// tripped. Mandatory stages propagate the error; optional loops
    /// `break` on it instead and mark the outcome degraded.
    pub fn check(&self, stage: &'static str) -> Result<(), CtsError> {
        if self.is_cancelled() {
            Err(CtsError::Cancelled { stage })
        } else {
            Ok(())
        }
    }
}

/// Best-effort stringification of a caught panic payload (`panic!` with a
/// literal yields `&str`, with a format string `String`; anything else is
/// opaque). Feeds [`CtsError::Internal`]'s payload so the panicking `run`
/// wrapper's re-panic preserves the original message. Public so embedders
/// with their own `catch_unwind` isolation boundaries (worker pools,
/// service layers) can produce the same typed payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One rung of the [`RecoveryPolicy`] ladder: a config relaxation applied
/// cumulatively before a deterministic retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relaxation {
    /// Widen the DP pattern alphabet from [`PatternSet::Base`] to
    /// [`PatternSet::Extended`] (P7/P8 split long edges, often the only
    /// feasible shape under a tight max-load budget).
    ///
    /// [`PatternSet::Base`]: crate::PatternSet::Base
    /// [`PatternSet::Extended`]: crate::PatternSet::Extended
    WidenPatternSet,
    /// Multiply `DpConfig::max_cands` by this factor, keeping more
    /// dominated-but-diverse candidates alive to the root.
    RaiseMaxCandidates(u32),
    /// Fall back to a single-side (front-only) tree: nTSV side changes are
    /// the usual source of `IllegalSides`.
    SingleSide,
}

impl Relaxation {
    /// A stable low-cardinality slug, used as the metric-name suffix of
    /// the `pipeline.recovery.<rung>` counters.
    pub fn label(&self) -> &'static str {
        match self {
            Relaxation::WidenPatternSet => "widen_pattern_set",
            Relaxation::RaiseMaxCandidates(_) => "raise_max_candidates",
            Relaxation::SingleSide => "single_side",
        }
    }
}

impl std::fmt::Display for Relaxation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Relaxation::WidenPatternSet => write!(f, "widen pattern set to Extended"),
            Relaxation::RaiseMaxCandidates(k) => write!(f, "raise max_cands x{k}"),
            Relaxation::SingleSide => write!(f, "fall back to single-side"),
        }
    }
}

/// One recorded recovery attempt: the error that forced it and the
/// relaxation applied in response, in ladder order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStep {
    /// The error the previous attempt failed with.
    pub error: CtsError,
    /// The (cumulative) relaxation applied for the retry.
    pub relaxation: Relaxation,
}

/// Deterministic retry ladder for data-dependent infeasibilities.
///
/// When [`DsCts::recovery`](crate::DsCts::recovery) is configured and a
/// run fails with a *recoverable* error ([`CtsError::NoFeasiblePattern`],
/// [`CtsError::NoRootCandidate`] or [`CtsError::IllegalSides`]), the
/// pipeline re-runs with the ladder's relaxations applied cumulatively —
/// by default widen the pattern set, then ×4 the DP candidate cap, then
/// fall back to single-side — until an attempt succeeds or the ladder is
/// exhausted (the last error is then returned). Every retry appends a
/// [`RecoveryStep`] to [`Outcome::recovery`](crate::Outcome::recovery).
/// There is no randomness anywhere on the ladder, so re-runs are
/// reproducible relaxation-for-relaxation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    ladder: Vec<Relaxation>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            ladder: vec![
                Relaxation::WidenPatternSet,
                Relaxation::RaiseMaxCandidates(4),
                Relaxation::SingleSide,
            ],
        }
    }
}

impl RecoveryPolicy {
    /// The default ladder: widen patterns, ×4 candidates, single-side.
    pub fn new() -> Self {
        RecoveryPolicy::default()
    }

    /// A custom ladder, tried in order (applied cumulatively).
    pub fn with_ladder(ladder: Vec<Relaxation>) -> Self {
        RecoveryPolicy { ladder }
    }

    /// The rungs, in retry order.
    pub fn ladder(&self) -> &[Relaxation] {
        &self.ladder
    }

    /// Whether the ladder retries this error. Only data-dependent
    /// infeasibilities are: internal panics are bugs, cancellations mean
    /// the budget is already spent, malformed inputs won't improve.
    pub fn recoverable(err: &CtsError) -> bool {
        matches!(
            err,
            CtsError::NoFeasiblePattern { .. }
                | CtsError::NoRootCandidate
                | CtsError::IllegalSides(_)
        )
    }

    /// Climbs the ladder after a first attempt failed with `first`: for
    /// each rung in order, records a [`RecoveryStep`] naming the error
    /// that forced it and calls `attempt(rung)`, which applies the rung on
    /// top of the earlier ones and runs the work again. Returns the last
    /// attempt's result together with every step taken. The climb stops
    /// at the first success or at an error that is not
    /// [`recoverable`](RecoveryPolicy::recoverable) (more relaxations
    /// cannot help a cancellation or a bug); an exhausted ladder returns
    /// the last error. A `first` error that is not recoverable comes back
    /// as it is, with no step and no attempt.
    ///
    /// [`DsCts::try_run`](crate::DsCts::try_run) and the service's job
    /// executor both retry through this one ladder.
    pub fn climb<T>(
        &self,
        first: CtsError,
        mut attempt: impl FnMut(Relaxation) -> Result<T, CtsError>,
    ) -> (Result<T, CtsError>, Vec<RecoveryStep>) {
        let mut steps = Vec::new();
        let mut last = first;
        if RecoveryPolicy::recoverable(&last) {
            for &rung in &self.ladder {
                steps.push(RecoveryStep {
                    error: last,
                    relaxation: rung,
                });
                match attempt(rung) {
                    Err(e) if RecoveryPolicy::recoverable(&e) => last = e,
                    result => return (result, steps),
                }
            }
        }
        (Err(last), steps)
    }
}

/// Deterministic fault injection for the robustness test harness.
///
/// A [`FaultPlan`](fault::FaultPlan) arms a list of *sites* — stable
/// names compiled into the hot paths — each with a
/// [`FaultKind`](fault::FaultKind) and a skip count (fire on the N-th
/// visit). Without the `fault-inject` feature every site check is a
/// constant `false` the optimizer deletes; with it, checks consult a
/// process-global plan installed by `FaultPlan::install` (feature-gated,
/// like the rest of the arming surface), whose guard also serializes
/// concurrently-running tests.
///
/// Site names (also the `stage` carried by resulting errors):
/// `"route"`, `"dp"`, `"synth"`, `"eval"` take `Error`/`Panic` faults;
/// `"incremental"` takes `Infeasible` faults after an evaluator mutation
/// has repaired every corner, exercising journal rollback.
pub mod fault {
    /// Injection site inside [`HierarchicalRouter`](crate::HierarchicalRouter).
    pub const SITE_ROUTE: &str = "route";
    /// Injection site inside the per-node DP propagation worker.
    pub const SITE_DP: &str = "dp";
    /// Injection site in tree synthesis (insertion stage, post-DP).
    pub const SITE_SYNTH: &str = "synth";
    /// Injection site in the evaluate stage of
    /// [`DsCts::try_run_routed`](crate::DsCts::try_run_routed), which
    /// every run and service job runs; the
    /// [`DsCts::evaluate_tree`](crate::DsCts::evaluate_tree) driver alone
    /// and the sweep engine's classes do not visit it.
    pub const SITE_EVAL: &str = "eval";
    /// Infeasibility site in [`IncrementalEval`](crate::IncrementalEval)
    /// mutations (fires after every corner's dirty path was repaired, so
    /// the rollback must revert fully propagated state).
    pub const SITE_INCREMENTAL: &str = "incremental";

    /// What an armed site does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Return a typed [`CtsError::Internal`](crate::CtsError::Internal).
        Error,
        /// Panic (exercises the `catch_unwind` isolation boundaries).
        Panic,
        /// Report the current evaluator mutation infeasible (exercises
        /// journal rollback); only meaningful at evaluator sites.
        Infeasible,
    }

    /// One armed site: fires with `kind` on the `skips`-th visit
    /// (0 = first visit), then disarms.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultArm {
        /// The site name (one of the `SITE_*` constants).
        pub site: &'static str,
        /// What happens when it fires.
        pub kind: FaultKind,
        /// Visits to let pass before firing.
        pub skips: u64,
    }

    /// A deterministic set of armed faults.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        arms: Vec<FaultArm>,
    }

    impl FaultPlan {
        /// An empty plan (no site fires).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Arms `site` to fire `kind` on its first visit.
        pub fn arm(self, site: &'static str, kind: FaultKind) -> Self {
            self.arm_after(site, kind, 0)
        }

        /// Arms `site` to fire `kind` after letting `skips` visits pass.
        pub fn arm_after(mut self, site: &'static str, kind: FaultKind, skips: u64) -> Self {
            self.arms.push(FaultArm { site, kind, skips });
            self
        }

        /// The armed faults, in arm order.
        pub fn arms(&self) -> &[FaultArm] {
            &self.arms
        }

        /// Installs the plan process-globally until the guard drops.
        ///
        /// Arming is **per-plan-scoped**: exactly one plan is active at a
        /// time, and `install` *blocks* until any previously installed
        /// plan's guard has dropped, so parallel `#[test]`s (and service
        /// chaos controllers) that each install a plan run one at a time
        /// and never observe each other's faults. The sites themselves
        /// stay process-global — every thread executing pipeline code
        /// while a plan is active observes its arms, which is exactly
        /// what a multi-worker chaos run needs.
        ///
        /// Unlike the earlier guard (which held a `MutexGuard` and was
        /// therefore `!Send`), the returned [`FaultGuard`] carries only
        /// its plan's generation number: it can be armed on a controller
        /// thread and dropped on another, and a late drop can never clear
        /// a *newer* plan installed in between.
        #[cfg(feature = "fault-inject")]
        pub fn install(self) -> FaultGuard {
            let arms = self
                .arms
                .into_iter()
                .map(|arm| registry::ArmState { arm, fired: false })
                .collect();
            FaultGuard {
                generation: registry::install(arms),
            }
        }
    }

    /// RAII handle for an installed [`FaultPlan`]; clears the plan on
    /// drop (releasing the next queued [`FaultPlan::install`], if any).
    /// `Send`, so a chaos controller can hand it across threads.
    #[cfg(feature = "fault-inject")]
    #[derive(Debug)]
    pub struct FaultGuard {
        generation: u64,
    }

    #[cfg(feature = "fault-inject")]
    impl FaultGuard {
        /// Arms of this plan that have not fired yet. Lets a chaos
        /// harness verify its faults were actually consumed mid-run.
        pub fn unfired(&self) -> usize {
            registry::unfired(self.generation)
        }
    }

    #[cfg(feature = "fault-inject")]
    impl Drop for FaultGuard {
        fn drop(&mut self) {
            // Account arms that never fired before the plan vanishes:
            // `fault.unfired_arms` in the metrics snapshot replaces the
            // ad-hoc per-harness bookkeeping chaos drivers used to do.
            let unfired = registry::unfired(self.generation);
            if unfired > 0 {
                dscts_telemetry::count("fault.unfired_arms", unfired as u64);
            }
            registry::clear(self.generation);
        }
    }

    #[cfg(feature = "fault-inject")]
    mod registry {
        use super::FaultArm;
        use std::sync::{Condvar, Mutex};

        pub(super) struct ArmState {
            pub(super) arm: FaultArm,
            pub(super) fired: bool,
        }

        /// The active plan, tagged with the generation its guard owns.
        /// A plain global (not thread-local) because the vendored rayon
        /// shim runs workers on scoped `std::thread`s that would not
        /// inherit thread-local state — and because service chaos runs
        /// *want* worker threads to observe the active plan.
        struct State {
            active: Option<(u64, Vec<ArmState>)>,
            next_generation: u64,
        }

        static STATE: Mutex<State> = Mutex::new(State {
            active: None,
            next_generation: 0,
        });
        /// Signalled when the active plan clears, releasing the next
        /// blocked `install`.
        static FREED: Condvar = Condvar::new();

        /// Blocks until no plan is active, then installs `arms` and
        /// returns the new plan's generation.
        pub(super) fn install(arms: Vec<ArmState>) -> u64 {
            let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
            while state.active.is_some() {
                state = FREED.wait(state).unwrap_or_else(|p| p.into_inner());
            }
            state.next_generation += 1;
            let generation = state.next_generation;
            state.active = Some((generation, arms));
            generation
        }

        /// Clears the plan **iff** it is still the one `generation`
        /// installed; a stale guard dropping late cannot clear a newer
        /// plan.
        pub(super) fn clear(generation: u64) {
            let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
            if state.active.as_ref().is_some_and(|(g, _)| *g == generation) {
                state.active = None;
            }
            drop(state);
            FREED.notify_one();
        }

        /// Unfired arms remaining in the `generation` plan (0 once it
        /// cleared or was superseded).
        pub(super) fn unfired(generation: u64) -> usize {
            let state = STATE.lock().unwrap_or_else(|p| p.into_inner());
            match &state.active {
                Some((g, arms)) if *g == generation => arms.iter().filter(|a| !a.fired).count(),
                _ => 0,
            }
        }

        /// Visits `site`; reports the kind of the arm that fires, if any.
        pub(super) fn visit(site: &str) -> Option<super::FaultKind> {
            let mut guard = STATE.lock().unwrap_or_else(|p| p.into_inner());
            let (_, arms) = guard.active.as_mut()?;
            for state in arms.iter_mut() {
                if state.fired || state.arm.site != site {
                    continue;
                }
                if state.arm.skips > 0 {
                    state.arm.skips -= 1;
                    continue;
                }
                state.fired = true;
                return Some(state.arm.kind);
            }
            None
        }
    }

    /// Error/panic check compiled into stage hot paths. No-op unless a
    /// plan arms `site`; an armed `Error` returns
    /// [`CtsError::Internal`](crate::CtsError::Internal), an armed `Panic`
    /// panics (to be caught at the nearest isolation boundary).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_check(site: &'static str) -> Result<(), crate::CtsError> {
        match registry::visit(site) {
            Some(FaultKind::Error) => Err(crate::CtsError::Internal {
                stage: site,
                payload: format!("injected fault at `{site}`"),
            }),
            Some(FaultKind::Panic) => panic!("injected panic at `{site}`"),
            Some(FaultKind::Infeasible) | None => Ok(()),
        }
    }

    /// No-fault build: a constant the optimizer deletes.
    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    pub(crate) fn fault_check(_site: &'static str) -> Result<(), crate::CtsError> {
        Ok(())
    }

    /// Infeasibility check compiled into evaluator mutation paths: `true`
    /// when an armed `Infeasible` fault fires and the mutation must roll
    /// back and report `false`.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_infeasible(site: &'static str) -> bool {
        matches!(registry::visit(site), Some(FaultKind::Infeasible))
    }

    /// No-fault build: a constant the optimizer deletes.
    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    pub(crate) fn fault_infeasible(_site: &'static str) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_cancels() {
        let token = RunBudget::new().token();
        assert!(!token.is_cancelled());
        assert!(token.check("route").is_ok());
        for _ in 0..1000 {
            token.record_trial();
        }
        assert!(token.check("optimize").is_ok());
        assert_eq!(token.trials(), 1000);
    }

    #[test]
    fn explicit_cancel_trips_every_clone() {
        let token = CancelToken::unlimited();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(
            clone.check("dp").unwrap_err(),
            CtsError::Cancelled { stage: "dp" }
        );
    }

    #[test]
    fn zero_deadline_cancels_immediately() {
        let token = RunBudget::new()
            .with_deadline(Duration::from_secs(0))
            .token();
        assert!(token.is_cancelled());
    }

    #[test]
    fn trial_budget_trips_at_cap() {
        let token = RunBudget::new().with_max_trials(3).token();
        token.record_trial();
        token.record_trial();
        assert!(!token.is_cancelled());
        token.record_trial();
        assert!(token.is_cancelled());
    }

    #[test]
    fn default_ladder_order_is_pinned() {
        let policy = RecoveryPolicy::default();
        assert_eq!(
            policy.ladder(),
            [
                Relaxation::WidenPatternSet,
                Relaxation::RaiseMaxCandidates(4),
                Relaxation::SingleSide,
            ]
        );
    }

    #[test]
    fn only_data_dependent_errors_are_recoverable() {
        assert!(RecoveryPolicy::recoverable(&CtsError::NoRootCandidate));
        assert!(RecoveryPolicy::recoverable(&CtsError::NoFeasiblePattern {
            node: 1,
            edge_len_nm: 1
        }));
        assert!(RecoveryPolicy::recoverable(&CtsError::IllegalSides(
            "x".into()
        )));
        assert!(!RecoveryPolicy::recoverable(&CtsError::EmptyDesign));
        assert!(!RecoveryPolicy::recoverable(&CtsError::Internal {
            stage: "dp",
            payload: "x".into()
        }));
        assert!(!RecoveryPolicy::recoverable(&CtsError::Cancelled {
            stage: "route"
        }));
    }

    #[test]
    fn climb_records_each_rung_and_stops_where_retrying_cannot_help() {
        let policy = RecoveryPolicy::default();
        let infeasible = CtsError::NoRootCandidate;
        let cancelled = CtsError::Cancelled { stage: "dp" };
        let mut tried = Vec::new();
        let (result, steps) = policy.climb(infeasible.clone(), |rung| {
            tried.push(rung);
            match rung {
                Relaxation::SingleSide => Ok(rung),
                _ => Err(CtsError::IllegalSides(rung.to_string())),
            }
        });
        assert_eq!(result, Ok(Relaxation::SingleSide));
        assert_eq!(tried, policy.ladder());
        let errors: Vec<_> = steps.iter().map(|s| s.error.clone()).collect();
        assert_eq!(
            errors,
            [
                infeasible.clone(),
                CtsError::IllegalSides("widen pattern set to Extended".into()),
                CtsError::IllegalSides("raise max_cands x4".into()),
            ]
        );
        // A cancellation ends the climb at the rung that hit it.
        let (result, steps) = policy.climb(infeasible.clone(), |_| -> Result<(), _> {
            Err(cancelled.clone())
        });
        assert_eq!((result, steps.len()), (Err(cancelled.clone()), 1));
        // An exhausted ladder returns the last error.
        let (result, steps) = policy.climb(infeasible.clone(), |_| -> Result<(), _> {
            Err(CtsError::NoRootCandidate)
        });
        assert_eq!((result, steps.len()), (Err(infeasible), 3));
        // A first error the ladder does not retry: no step, no attempt.
        let (result, steps) = policy.climb(cancelled.clone(), |_| -> Result<(), _> {
            panic!("not retried")
        });
        assert_eq!((result, steps.len()), (Err(cancelled), 0));
    }

    #[test]
    fn fault_checks_are_noops_without_a_plan() {
        assert!(fault::fault_check(fault::SITE_ROUTE).is_ok());
        assert!(!fault::fault_infeasible(fault::SITE_INCREMENTAL));
    }
}

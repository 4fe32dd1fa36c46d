//! The solver-engine layer: budgeted, cancellable, stats-reporting solves.
//!
//! Every algorithm in the workspace implements [`Solver`], taking a
//! [`SolveRequest`] (instance + [`Budget`] + [`CancelToken`] + optional
//! trace sink and profile cache) and returning a [`SolveReport`] (schedule, makespan,
//! certified target where applicable, and structured [`SolveStats`]).
//! The legacy [`Scheduler`] trait is kept alive through a blanket impl, so
//! `solver.schedule(&inst)` keeps working everywhere.
//!
//! The engine exists for the reasons production schedulers need it:
//! time/work budgets, early termination and per-phase cost accounting are
//! first-class concerns, not per-solver afterthoughts.
//!
//! [`Scheduler`]: crate::Scheduler

use crate::profile::ProfileCache;
use crate::{Instance, Result, Schedule, Scheduler, Time};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one solve. `Default` is unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline; solvers check it between phases/probes.
    pub deadline: Option<Instant>,
    /// Search-node limit (branch-and-bound nodes, MILP nodes).
    pub node_limit: Option<u64>,
    /// DP-table entry limit (caps the PTAS table size σ).
    pub entry_limit: Option<usize>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with a wall-clock limit of `d` from now.
    pub fn with_timeout(d: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + d),
            ..Self::default()
        }
    }

    /// Sets the search-node limit.
    pub fn nodes(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Sets the DP-entry limit.
    pub fn entries(mut self, limit: usize) -> Self {
        self.entry_limit = Some(limit);
        self
    }

    /// Whether the wall-clock deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Cooperative cancellation handle. Clones share the same flag, so a token
/// handed to a solver can be cancelled from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every clone observes it.
    ///
    /// `Relaxed` is sufficient here, and deliberate. The flag is *monotonic*
    /// (false→true, never reset) and carries no payload: a solver that
    /// observes `true` returns `Error::Cancelled` without reading any memory
    /// written by the cancelling thread, so no release/acquire edge is
    /// needed to publish data — only the flag's own atomicity matters, and
    /// coherence guarantees every clone eventually observes the store.
    /// Upgrading to Release/Acquire would buy nothing and put a fence on the
    /// hot `is_cancelled` poll. The `pcmax-audit` race suite pins this down:
    /// publishing *data* through a relaxed flag is flagged as a race, while
    /// this flag-only protocol is not (see `cancel_token_model` tests).
    pub fn cancel(&self) {
        // audit:allow(relaxed): monotonic payload-free cancel flag; see the
        // justification above and crates/audit/lint.allow.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        // audit:allow(relaxed): monotonic payload-free cancel flag (see
        // `cancel` above); Relaxed keeps the between-levels poll fence-free.
        self.flag.load(Ordering::Relaxed)
    }
}

/// Receiver for the spans a solve emits.
///
/// The trait lives in core so every solver can emit spans without depending
/// on a tracing backend; `pcmax-trace` provides the production
/// implementation (`GlobalSink`, per-thread ring buffers with Chrome-trace
/// export), and tests can plug in a recording sink. Implementations must be
/// cheap: solvers call these hooks on phase boundaries and per bisection
/// probe, never inside the DP cell kernel.
pub trait TraceSink: Send + Sync {
    /// Opens a named span on the calling thread (`arg` is span-specific,
    /// e.g. the probed target makespan).
    fn span_enter(&self, name: &'static str, arg: u64);

    /// Closes the most recent open span with this name on the calling
    /// thread.
    fn span_exit(&self, name: &'static str);
}

/// RAII span tied to a [`SolveRequest`]'s trace sink: enters on creation
/// (when a sink is attached), exits on drop. A request without a sink makes
/// this a no-op.
#[must_use = "the span closes when this guard drops"]
pub struct ReqSpan<'a> {
    sink: Option<&'a dyn TraceSink>,
    name: &'static str,
}

impl Drop for ReqSpan<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            sink.span_exit(self.name);
        }
    }
}

/// One unit of work handed to a [`Solver`].
#[derive(Clone)]
pub struct SolveRequest<'a> {
    /// The problem instance.
    pub instance: &'a Instance,
    /// Resource limits (default: unlimited).
    pub budget: Budget,
    /// Cooperative cancellation flag (default: never cancelled).
    pub cancel: CancelToken,
    /// Optional receiver for the solve's spans (default: none).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Optional instance-profile cache consulted per DP probe (default:
    /// none). Hits skip the DP and replay only the O(n) rounding; the
    /// caller's budget/cancel regime still applies to every hit.
    pub cache: Option<Arc<dyn ProfileCache>>,
}

impl std::fmt::Debug for SolveRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("instance", &self.instance)
            .field("budget", &self.budget)
            .field("cancel", &self.cancel)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .field("cache", &self.cache.as_ref().map(|_| "<cache>"))
            .finish()
    }
}

impl<'a> SolveRequest<'a> {
    /// A request with default budget and token, and no sink or cache.
    pub fn new(instance: &'a Instance) -> Self {
        Self {
            instance,
            budget: Budget::default(),
            cancel: CancelToken::new(),
            trace: None,
            cache: None,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a trace sink; solvers emit phase/probe spans into it.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches an instance-profile cache; cache-aware solvers consult it
    /// per DP probe and record hits/misses in [`SolveStats`].
    pub fn with_cache(mut self, cache: Arc<dyn ProfileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Opens an RAII span on the attached sink (no-op without one).
    pub fn trace_span(&self, name: &'static str, arg: u64) -> ReqSpan<'_> {
        let sink = self.trace.as_deref();
        if let Some(sink) = sink {
            sink.span_enter(name, arg);
        }
        ReqSpan { sink, name }
    }

    /// Returns `Err(Error::Cancelled)` if the token is raised — the check
    /// solvers are expected to run between phases and bisection probes.
    pub fn check_cancelled(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(crate::Error::Cancelled);
        }
        Ok(())
    }

    /// The budget gate a long-running solver polls between units of work:
    /// [`check_cancelled`](Self::check_cancelled), then
    /// `Err(BudgetExhausted)` carrying the caller's best bounds once the
    /// deadline has passed.
    pub fn check_budget(&self, incumbent: Option<Time>, lower_bound: Time) -> Result<()> {
        self.check_cancelled()?;
        if self.budget.deadline_exceeded() {
            return Err(crate::Error::BudgetExhausted {
                incumbent,
                lower_bound,
            });
        }
        Ok(())
    }
}

/// Wall time spent in one named phase of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    /// Phase name (`"bisection"`, `"dp"`, `"reconstruct"`, `"warm-start"`…).
    pub name: &'static str,
    /// Wall time spent in the phase.
    pub wall: Duration,
}

/// Structured counters reported by every solve. Fields irrelevant to a
/// given solver stay zero (e.g. `bb_nodes` for LS).
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Bisection probes over the target makespan (PTAS family, exact).
    pub bisection_probes: u64,
    /// DP-table entries touched across all probes (PTAS family).
    pub dp_entries_touched: u64,
    /// Dense DP tables whose backing storage was freshly allocated.
    pub dp_tables_allocated: u64,
    /// Dense DP tables served from the reusable [`DpScratch`]-style arena
    /// without a fresh allocation.
    pub dp_tables_reused: u64,
    /// Anti-diagonal levels swept by the parallel wavefront executors.
    pub dp_levels_swept: u64,
    /// DP cells computed by the parallel wavefront executors.
    pub dp_cells: u64,
    /// Worker park events (condvar waits) in the persistent wavefront pool.
    pub pool_parks: u64,
    /// Worker wake events (condvar wait returns) in the persistent pool.
    pub pool_wakes: u64,
    /// Per-worker kernel scratch buffers freshly created by the wavefront
    /// cell kernel; flat across levels/probes = the zero-allocation claim.
    pub dp_kernel_allocs: u64,
    /// Branch-and-bound / MILP search nodes expanded.
    pub bb_nodes: u64,
    /// DP probes answered from the instance-profile cache. Always counted
    /// fresh per solve — never reused from the solve that populated the
    /// cache — so `cache_hits > 0` is exactly "this request hit".
    pub cache_hits: u64,
    /// DP probes that consulted the profile cache and missed.
    pub cache_misses: u64,
    /// Wall time per phase, in execution order.
    pub phases: Vec<PhaseTime>,
    /// Total wall time of the solve.
    pub wall: Duration,
}

impl SolveStats {
    /// Records a phase duration.
    pub fn push_phase(&mut self, name: &'static str, wall: Duration) {
        self.phases.push(PhaseTime { name, wall });
    }

    /// Wall time of phase `name` (zero if absent).
    pub fn phase_wall(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.wall)
            .sum()
    }

    /// Wavefront throughput over the *total* solve wall time — including
    /// bisection setup and reconstruction, so it understates the kernel.
    /// Use [`dp_phase_cells_per_sec`](Self::dp_phase_cells_per_sec) to
    /// compare DP executors like with like; this variant is kept for
    /// whole-solve accounting. `None` when no cells were counted or the
    /// clock read zero.
    pub fn dp_cells_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if self.dp_cells == 0 || secs <= 0.0 {
            return None;
        }
        Some(self.dp_cells as f64 / secs)
    }

    /// Wavefront throughput scoped to the `"dp"` phase: DP cells per second
    /// of the wall time the solver actually spent inside DP probes
    /// ([`phase_wall`](Self::phase_wall)`("dp")`). `None` when no cells were
    /// counted or no `"dp"` phase was recorded.
    pub fn dp_phase_cells_per_sec(&self) -> Option<f64> {
        let secs = self.phase_wall("dp").as_secs_f64();
        if self.dp_cells == 0 || secs <= 0.0 {
            return None;
        }
        Some(self.dp_cells as f64 / secs)
    }
}

/// The outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Makespan of `schedule`.
    pub makespan: Time,
    /// For dual-approximation solvers: the converged bisection target `T`,
    /// which certifies `makespan ≤ (1 + ε)·T` with `T ≤ OPT`. For exact
    /// solvers: the proven optimum (when proven). `None` for heuristics.
    pub certified_target: Option<Time>,
    /// Whether the result is proven optimal (exact solvers only).
    pub proven_optimal: bool,
    /// Structured counters.
    pub stats: SolveStats,
}

impl SolveReport {
    /// A report for a heuristic solve: schedule + makespan, no certificate.
    pub fn heuristic(schedule: Schedule, inst: &Instance, stats: SolveStats) -> Self {
        let makespan = schedule.makespan(inst);
        Self {
            schedule,
            makespan,
            certified_target: None,
            proven_optimal: false,
            stats,
        }
    }
}

/// The uniform algorithm interface of the engine layer.
///
/// Implementors get the legacy [`Scheduler`] API for free through a blanket
/// impl (so `Box<dyn Solver>` and concrete solver types can be used wherever
/// a `Scheduler` is expected); `Scheduler::schedule` forwards to
/// [`solve`](Self::solve) with an unlimited request.
///
/// [`Scheduler`]: crate::Scheduler
pub trait Solver: Send + Sync {
    /// Stable display name of the algorithm.
    fn solver_name(&self) -> &'static str;

    /// Runs the algorithm under the request's budget/cancellation regime.
    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport>;
}

impl<T: Solver + ?Sized> Solver for Box<T> {
    fn solver_name(&self) -> &'static str {
        (**self).solver_name()
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        (**self).solve(req)
    }
}

impl<T: Solver + ?Sized> Solver for &T {
    fn solver_name(&self) -> &'static str {
        (**self).solver_name()
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        (**self).solve(req)
    }
}

impl<T: Solver> Scheduler for T {
    fn name(&self) -> &'static str {
        self.solver_name()
    }

    fn schedule(&self, inst: &Instance) -> Result<Schedule> {
        Ok(self.solve(&SolveRequest::new(inst))?.schedule)
    }
}

/// Measures the wall time of `f`, returning its output and the duration.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, ScheduleBuilder};

    /// A toy solver: everything on machine 0, honouring cancellation.
    struct PileUp;

    impl Solver for PileUp {
        fn solver_name(&self) -> &'static str {
            "pile-up"
        }

        fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
            req.check_cancelled()?;
            let mut b = ScheduleBuilder::new(req.instance);
            for j in 0..req.instance.jobs() {
                b.assign(j, 0);
            }
            let mut stats = SolveStats::default();
            stats.push_phase("assign", Duration::ZERO);
            Ok(SolveReport::heuristic(b.build()?, req.instance, stats))
        }
    }

    fn inst() -> Instance {
        Instance::new(vec![3, 2, 1], 2).unwrap()
    }

    #[test]
    fn blanket_scheduler_impl_forwards() {
        let inst = inst();
        let s = PileUp.schedule(&inst).unwrap();
        assert_eq!(s.makespan(&inst), 6);
        assert_eq!(Scheduler::name(&PileUp), "pile-up");
    }

    #[test]
    fn boxed_dyn_solver_is_a_scheduler() {
        let inst = inst();
        let boxed: Box<dyn Solver> = Box::new(PileUp);
        assert_eq!(boxed.schedule(&inst).unwrap().makespan(&inst), 6);
    }

    #[test]
    fn precancelled_token_aborts() {
        let inst = inst();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel.clone());
        assert!(matches!(PileUp.solve(&req), Err(Error::Cancelled)));
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn budget_builders_compose() {
        let b = Budget::unlimited().nodes(10).entries(100);
        assert_eq!(b.node_limit, Some(10));
        assert_eq!(b.entry_limit, Some(100));
        assert!(b.deadline.is_none());
        assert!(!b.deadline_exceeded());
        let timed_out = Budget::with_timeout(Duration::ZERO);
        assert!(timed_out.deadline_exceeded());
    }

    #[test]
    fn stats_phase_accounting() {
        let mut stats = SolveStats::default();
        stats.push_phase("dp", Duration::from_millis(5));
        stats.push_phase("dp", Duration::from_millis(3));
        stats.push_phase("reconstruct", Duration::from_millis(1));
        assert_eq!(stats.phase_wall("dp"), Duration::from_millis(8));
        assert_eq!(stats.phase_wall("missing"), Duration::ZERO);
    }

    #[test]
    fn dp_phase_throughput_divides_by_the_dp_phase_only() {
        let mut stats = SolveStats {
            dp_cells: 1_000,
            wall: Duration::from_secs(2),
            ..SolveStats::default()
        };
        // Total-wall variant divides by 2s; without a "dp" phase the scoped
        // variant is undefined.
        assert_eq!(stats.dp_cells_per_sec(), Some(500.0));
        assert_eq!(stats.dp_phase_cells_per_sec(), None);
        stats.push_phase("dp", Duration::from_millis(250));
        stats.push_phase("dp", Duration::from_millis(250));
        assert_eq!(stats.dp_phase_cells_per_sec(), Some(2_000.0));
        // The scoped rate can only exceed the diluted total-wall rate.
        assert!(stats.dp_phase_cells_per_sec() > stats.dp_cells_per_sec());
    }

    /// Records every hook call, for asserting what solvers emit.
    #[derive(Default)]
    struct Recorder {
        log: std::sync::Mutex<Vec<(&'static str, &'static str, u64)>>,
    }

    impl TraceSink for Recorder {
        fn span_enter(&self, name: &'static str, arg: u64) {
            self.log.lock().unwrap().push(("enter", name, arg));
        }

        fn span_exit(&self, name: &'static str) {
            self.log.lock().unwrap().push(("exit", name, 0));
        }
    }

    #[test]
    fn request_spans_reach_the_attached_sink_balanced() {
        let inst = inst();
        let sink = Arc::new(Recorder::default());
        let req = SolveRequest::new(&inst).with_trace(sink.clone());
        {
            let _phase = req.trace_span("assign", 3);
        }
        let log = sink.log.lock().unwrap();
        assert_eq!(*log, vec![("enter", "assign", 3), ("exit", "assign", 0)]);
    }

    #[test]
    fn request_without_sink_traces_as_noop_and_debug_does_not_leak_it() {
        let inst = inst();
        let req = SolveRequest::new(&inst);
        let _span = req.trace_span("assign", 0);
        let dbg = format!("{req:?}");
        assert!(dbg.contains("trace: None"), "got: {dbg}");
        let sink: Arc<dyn TraceSink> = Arc::new(Recorder::default());
        let dbg = format!("{:?}", SolveRequest::new(&inst).with_trace(sink));
        assert!(dbg.contains("<sink>"), "got: {dbg}");
    }
}

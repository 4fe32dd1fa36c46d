//! The submission-based session engine: one API surface for every solve.
//!
//! [`Engine::submit`] is the single pipeline every caller solves through:
//! a [`Submission`] names a registry solver, owns its [`Instance`], and
//! composes observers (a [`TraceSink`], the always-on metrics registry,
//! per-solve [`SolveStats`]) instead of picking an entry point per
//! concern. Submitting returns a [`SolveHandle`] with non-blocking
//! [`poll`](SolveHandle::poll), blocking [`wait`](SolveHandle::wait) and
//! handle-owned [`cancel`](SolveHandle::cancel).
//!
//! Behind the surface sits a persistent worker pool shared across
//! sessions, fed by a bounded FIFO admission queue. Each submission builds
//! its solver from the registry: construction only validates ε, and every
//! parallel solver takes its thread count from the submission's
//! [`SolverParams::threads`] at construction. Admission is enforced at
//! `submit`: beyond `capacity` in-flight submissions the engine answers
//! [`Error::Overloaded`] instead of queueing unboundedly, and each accepted
//! job runs under its *own* [`Budget`] and [`CancelToken`] — a queued job
//! whose deadline passed or whose token was cancelled fails fast when a
//! worker picks it up, it never occupies the pool.
//!
//! Every blocking point goes through [`pcmax_parallel::sync`]: worker
//! park/wake on the queue condvar uses the same `trace_park`/`trace_wake`
//! seam as the wavefront pool (so daemon park/wake totals stay balanced and
//! auditable), and the queue, the job slots and the profile cache are all
//! built from audited primitives — the audit explorer can interleave an
//! entire engine lifecycle and race-check the session/cache seam.
//!
//! Cached submissions share the engine's [`ProfileMemo`]: the rounded
//! instance-profile key memoizes DP outcomes across requests, while
//! witness reconstruction and stats stay per-request (see [`crate::cache`]).
//!
//! A submission that pairs an identical-machine solver with an instance
//! that has machine speeds fails with a typed error before any solver is
//! built: such a solver would answer for the wrong model.

use crate::cache::ProfileMemo;
use crate::{lookup, record_metered, ScenarioKind, SolverParams};
use pcmax_core::{
    Budget, CancelToken, Error, Instance, Result, SolveReport, SolveRequest, Solver, TraceSink,
};
use pcmax_metrics::{Counter, Gauge};
use pcmax_parallel::sync;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Jobs waiting in the engine admission queue (excludes running jobs).
static QUEUE_DEPTH: Gauge = Gauge::new(
    "pcmax_engine_queue_depth",
    "Jobs waiting in the engine admission queue",
);

/// Submissions accepted by the admission queue.
static ADMITTED: Counter = Counter::new(
    "pcmax_engine_admitted_total",
    "Submissions accepted by the engine admission queue",
);

/// Submissions rejected because the admission queue was at capacity.
static REJECTED: Counter = Counter::new(
    "pcmax_engine_rejected_total",
    "Submissions rejected because the engine admission queue was full",
);

/// Solves that panicked on an engine worker (each failed its own handle).
static PANICS: Counter = Counter::new(
    "pcmax_engine_panics_total",
    "Solves that panicked on an engine worker",
);

/// How the engine is sized. The default matches the daemon's
/// thread-per-core layout with room for a connection's worth of queued
/// work per worker.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Persistent worker threads. `0` builds an accept-only engine whose
    /// queue never drains — useful for deterministic admission tests.
    pub workers: usize,
    /// Maximum in-flight submissions (queued + running) before `submit`
    /// rejects with [`Error::Overloaded`].
    pub capacity: usize,
    /// Verdicts the shared [`ProfileMemo`] retains before FIFO eviction.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: pcmax_parallel::effective_threads(None),
            capacity: 256,
            cache_capacity: 4096,
        }
    }
}

/// One unit of work for the session engine: a registry solver name, an
/// owned instance, and the composable per-solve observers.
pub struct Submission {
    instance: Instance,
    solver: String,
    params: SolverParams,
    budget: Budget,
    cancel: CancelToken,
    trace: Option<Arc<dyn TraceSink>>,
    use_cache: bool,
}

impl Submission {
    /// A submission solving `instance` with the registry solver named
    /// `solver` (primary name or alias), default parameters, an unlimited
    /// budget, a fresh cancel token, no trace sink, and the engine's
    /// profile cache enabled.
    pub fn new(instance: Instance, solver: impl Into<String>) -> Self {
        Self {
            instance,
            solver: solver.into(),
            params: SolverParams::default(),
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            trace: None,
            use_cache: true,
        }
    }

    /// Sets the solver construction parameters (ε, threads, node budget).
    pub fn with_params(mut self, params: SolverParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the per-request budget; the clock starts at submission, so time
    /// spent queued counts against the deadline.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Shares `token` as the submission's cancel token (for callers that
    /// cancel a batch as one); [`SolveHandle::cancel`] raises this token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a trace-sink observer: the solve's `req.trace_span` /
    /// instant / counter emissions land in `sink`.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Opts this submission out of the engine's shared profile cache (the
    /// solve neither reads nor writes memoized verdicts).
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }
}

impl std::fmt::Debug for Submission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Submission")
            .field("solver", &self.solver)
            .field("jobs", &self.instance.jobs())
            .field("machines", &self.instance.machines())
            .field("use_cache", &self.use_cache)
            .finish()
    }
}

/// Non-blocking progress states of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePoll {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; [`SolveHandle::wait`] returns without blocking.
    Done,
}

/// Slot state shared between one handle and the worker pool.
#[derive(Debug)]
enum SlotState {
    Queued,
    Running,
    /// `Option` so `wait` can move the result out exactly once.
    Done(Option<Result<SolveReport>>),
}

#[derive(Debug)]
struct Slot {
    state: sync::Mutex<SlotState>,
    done: sync::Condvar,
}

impl Slot {
    fn finish(&self, result: Result<SolveReport>) {
        *self.state.lock() = SlotState::Done(Some(result));
        self.done.notify_all();
    }
}

/// The caller's side of one accepted submission.
#[derive(Debug)]
pub struct SolveHandle {
    id: u64,
    slot: Arc<Slot>,
    cancel: CancelToken,
}

impl SolveHandle {
    /// Engine-unique submission id (also the wire-protocol correlation id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. The solve observes the token at its next
    /// budget gate and [`wait`](Self::wait) then returns
    /// [`Error::Cancelled`]; a cancel that loses the race to a finished
    /// solve is a no-op.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the submission's cancel token, for detached cancellation
    /// (e.g. a daemon's `cancel` frame arriving on another thread).
    pub fn canceller(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Current progress, without blocking.
    pub fn poll(&self) -> SolvePoll {
        match &*self.slot.state.lock() {
            SlotState::Queued => SolvePoll::Queued,
            SlotState::Running => SolvePoll::Running,
            SlotState::Done(_) => SolvePoll::Done,
        }
    }

    /// Blocks until the solve finishes and returns its result. Consumes the
    /// handle: the report moves out, it is never cloned or reused.
    pub fn wait(self) -> Result<SolveReport> {
        let mut st = self.slot.state.lock();
        loop {
            match &mut *st {
                SlotState::Done(result) => {
                    return result
                        .take()
                        .unwrap_or_else(|| unreachable!("solve result taken twice"));
                }
                _ => st = self.slot.done.wait(st),
            }
        }
    }
}

struct Job {
    submission: Submission,
    slot: Arc<Slot>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Queued + running; the admission bound.
    in_flight: usize,
    /// `false` once shutdown began: submissions are refused, workers drain
    /// and exit.
    open: bool,
    next_id: u64,
    served: u64,
}

struct Shared {
    queue: sync::Mutex<QueueState>,
    ready: sync::Condvar,
    capacity: usize,
    cache: Arc<ProfileMemo>,
}

/// Lifetime totals returned by [`Engine::shutdown`] — the numbers the
/// daemon's `bye` frame reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Submissions a worker ran to completion (any outcome class).
    pub served: u64,
    /// Submissions still queued at shutdown, failed with
    /// [`Error::Cancelled`].
    pub cancelled: u64,
    /// Profile-cache lookups that hit.
    pub cache_hits: u64,
    /// Profile-cache lookups that missed.
    pub cache_misses: u64,
}

/// The session engine: persistent workers, bounded admission, shared
/// profile cache. See the [module docs](self) for the full contract.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<(std::thread::JoinHandle<()>, sync::SpawnId)>,
}

impl Engine {
    /// An engine with the default configuration (one worker per core).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine sized by `config`.
    pub fn with_config(config: EngineConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: sync::Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                open: true,
                next_id: 0,
                served: 0,
            }),
            ready: sync::Condvar::new(),
            capacity: config.capacity.max(1),
            cache: Arc::new(ProfileMemo::new(config.cache_capacity)),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let pool = Arc::clone(&shared);
            let (task, spawn_id) = sync::fork(move || worker_loop(&pool, worker));
            workers.push((std::thread::spawn(task), spawn_id));
        }
        Self { shared, workers }
    }

    /// Submits a solve. Returns the handle on admission, or
    /// [`Error::Overloaded`] when `capacity` submissions are already in
    /// flight (the caller should shed or retry later — nothing was queued).
    pub fn submit(&self, submission: Submission) -> Result<SolveHandle> {
        let mut q = self.shared.queue.lock();
        if !q.open {
            return Err(Error::BadModel("engine: submit after shutdown".into()));
        }
        if q.in_flight >= self.shared.capacity {
            REJECTED.inc();
            return Err(Error::Overloaded {
                capacity: self.shared.capacity,
            });
        }
        q.next_id += 1;
        q.in_flight += 1;
        let id = q.next_id;
        let slot = Arc::new(Slot {
            state: sync::Mutex::new(SlotState::Queued),
            done: sync::Condvar::new(),
        });
        let cancel = submission.cancel.clone();
        q.jobs.push_back(Job {
            submission,
            slot: Arc::clone(&slot),
        });
        QUEUE_DEPTH.set(q.jobs.len() as f64);
        ADMITTED.inc();
        drop(q);
        self.shared.ready.notify_one();
        Ok(SolveHandle { id, slot, cancel })
    }

    /// The engine's shared instance-profile cache.
    pub fn cache(&self) -> &ProfileMemo {
        &self.shared.cache
    }

    /// Submissions workers ran to completion so far.
    pub fn served(&self) -> u64 {
        self.shared.queue.lock().served
    }

    /// Stops admission, fails still-queued jobs with [`Error::Cancelled`],
    /// joins the workers (running solves finish first) and returns the
    /// lifetime totals.
    pub fn shutdown(mut self) -> EngineTotals {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> EngineTotals {
        let drained = {
            let mut q = self.shared.queue.lock();
            q.open = false;
            let drained: Vec<Job> = q.jobs.drain(..).collect();
            q.in_flight -= drained.len();
            QUEUE_DEPTH.set(0.0);
            drained
        };
        self.shared.ready.notify_all();
        let cancelled = drained.len() as u64;
        for job in drained {
            job.slot.finish(Err(Error::Cancelled));
        }
        for (handle, spawn_id) in self.workers.drain(..) {
            if let Err(panic) = sync::join_with(spawn_id, || handle.join()) {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
        EngineTotals {
            served: self.shared.queue.lock().served,
            cancelled,
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(job) = next_job(shared, worker) {
        run_job(shared, job);
        let mut q = shared.queue.lock();
        q.in_flight -= 1;
        q.served += 1;
    }
}

/// Blocks until a job is available or the queue is closed and drained. The
/// queue guard is handed to the condvar (`q = wait(q)`), so the sleeper
/// never holds a lock its waker needs.
fn next_job(shared: &Shared, worker: usize) -> Option<Job> {
    let mut q = shared.queue.lock();
    loop {
        if let Some(job) = q.jobs.pop_front() {
            QUEUE_DEPTH.set(q.jobs.len() as f64);
            return Some(job);
        }
        if !q.open {
            return None;
        }
        sync::trace_park(worker);
        q = shared.ready.wait(q);
        sync::trace_wake(worker);
    }
}

/// Runs one job and finishes its slot. A panicking solve fails its own
/// handle with [`Error::SolverPanicked`]; the worker keeps serving.
fn run_job(shared: &Shared, job: Job) {
    *job.slot.state.lock() = SlotState::Running;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| execute(shared, &job)))
        .unwrap_or_else(|payload| {
            PANICS.inc();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(Error::SolverPanicked {
                solver: job.submission.solver.clone(),
                message,
            })
        });
    job.slot.finish(result);
}

fn execute(shared: &Shared, job: &Job) -> Result<SolveReport> {
    let sub = &job.submission;
    let spec = lookup(&sub.solver).ok_or_else(|| Error::UnknownSolver {
        name: sub.solver.clone(),
    })?;
    if spec.scenario == ScenarioKind::Identical && sub.instance.is_uniform() {
        return Err(Error::BadModel(format!(
            "`{}` solves identical machines (P||Cmax), but the instance has machine speeds",
            spec.name
        )));
    }
    let solver = spec.build(&sub.params)?;
    let mut req = SolveRequest::new(&sub.instance)
        .with_budget(sub.budget.clone())
        .with_cancel(sub.cancel.clone());
    if let Some(sink) = &sub.trace {
        req = req.with_trace(Arc::clone(sink));
    }
    if sub.use_cache {
        req = req.with_cache(Arc::clone(&shared.cache) as Arc<dyn pcmax_core::ProfileCache>);
    }
    let start = std::time::Instant::now();
    let result = solver.solve(&req);
    record_metered(spec.name, start, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap()
    }

    fn small_engine() -> Engine {
        Engine::with_config(EngineConfig {
            workers: 2,
            capacity: 16,
            cache_capacity: 64,
        })
    }

    #[test]
    fn submit_solves_and_validates_across_solvers() {
        let engine = small_engine();
        let inst = instance();
        for name in ["lpt", "ptas", "par-ptas"] {
            let handle = engine
                .submit(Submission::new(inst.clone(), name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = handle.wait().unwrap_or_else(|e| panic!("{name}: {e}"));
            report.schedule.validate(&inst).unwrap();
            assert_eq!(report.makespan, report.schedule.makespan(&inst), "{name}");
        }
        let totals = engine.shutdown();
        assert_eq!(totals.served, 3);
        assert_eq!(totals.cancelled, 0);
    }

    #[test]
    fn submit_matches_direct_solver_output() {
        let engine = small_engine();
        let inst = instance();
        let direct = crate::build("ptas", &SolverParams::default())
            .unwrap()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        let via_engine = engine
            .submit(Submission::new(inst.clone(), "ptas"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(via_engine.makespan, direct.makespan);
        assert_eq!(via_engine.certified_target, direct.certified_target);
        assert_eq!(
            via_engine.schedule.assignment(),
            direct.schedule.assignment()
        );
    }

    #[test]
    fn poll_reaches_done_and_wait_returns_without_blocking() {
        let engine = small_engine();
        let handle = engine.submit(Submission::new(instance(), "lpt")).unwrap();
        while handle.poll() != SolvePoll::Done {
            std::thread::yield_now();
        }
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn handle_cancel_cancels_the_solve() {
        let engine = small_engine();
        let sub = Submission::new(instance(), "ptas");
        // Raise the token before submitting: the solve's first budget gate
        // observes it regardless of scheduling.
        let handle = engine.submit(sub).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(Error::Cancelled) | Ok(_) => {} // Ok iff the solve won the race
            Err(other) => panic!("expected Cancelled (or a completed solve), got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_fails_deterministically() {
        let engine = small_engine();
        let token = CancelToken::new();
        token.cancel();
        let handle = engine
            .submit(Submission::new(instance(), "ptas").with_cancel(token))
            .unwrap();
        assert!(matches!(handle.wait(), Err(Error::Cancelled)));
    }

    #[test]
    fn admission_rejects_beyond_capacity_and_shutdown_drains() {
        // No workers: the queue fills deterministically.
        let engine = Engine::with_config(EngineConfig {
            workers: 0,
            capacity: 2,
            cache_capacity: 64,
        });
        let a = engine.submit(Submission::new(instance(), "lpt")).unwrap();
        let b = engine.submit(Submission::new(instance(), "lpt")).unwrap();
        match engine.submit(Submission::new(instance(), "lpt")) {
            Err(Error::Overloaded { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let totals = engine.shutdown();
        assert_eq!(totals.cancelled, 2);
        assert!(matches!(a.wait(), Err(Error::Cancelled)));
        assert!(matches!(b.wait(), Err(Error::Cancelled)));
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let mut engine = small_engine();
        engine.shutdown_inner();
        assert!(matches!(
            engine.submit(Submission::new(instance(), "lpt")),
            Err(Error::BadModel(_))
        ));
    }

    #[test]
    fn unknown_solver_fails_the_handle_not_the_engine() {
        let engine = small_engine();
        let handle = engine
            .submit(Submission::new(instance(), "no-such-algo"))
            .unwrap();
        assert!(matches!(
            handle.wait(),
            Err(Error::UnknownSolver { name }) if name == "no-such-algo"
        ));
        // The engine keeps serving.
        assert!(engine
            .submit(Submission::new(instance(), "lpt"))
            .unwrap()
            .wait()
            .is_ok());
    }

    /// A trace sink that panics on the first span a solve opens, standing
    /// in for any bug inside a solve.
    struct PanickingSink;

    impl TraceSink for PanickingSink {
        fn span_enter(&self, _: &'static str, _: u64) {
            panic!("sink refuses spans");
        }
        fn span_exit(&self, _: &'static str) {}
    }

    #[test]
    fn a_panicking_solve_fails_its_handle_and_the_worker_serves_on() {
        let engine = Engine::with_config(EngineConfig {
            workers: 1,
            capacity: 16,
            cache_capacity: 64,
        });
        let panics = PANICS.get();
        let bad = engine
            .submit(Submission::new(instance(), "ptas").with_trace(Arc::new(PanickingSink)))
            .unwrap();
        let next = engine.submit(Submission::new(instance(), "lpt")).unwrap();
        // Poll with a deadline so a lost worker fails the test, not hangs it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        for handle in [&bad, &next] {
            while handle.poll() != SolvePoll::Done {
                assert!(
                    std::time::Instant::now() < deadline,
                    "submission {} still {:?} after 5 s",
                    handle.id(),
                    handle.poll()
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        match bad.wait() {
            Err(Error::SolverPanicked { solver, message }) => {
                assert_eq!(solver, "ptas");
                assert_eq!(message, "sink refuses spans");
            }
            other => panic!("expected SolverPanicked, got {other:?}"),
        }
        assert!(next.wait().is_ok(), "the worker must serve the next job");
        assert_eq!(PANICS.get(), panics + 1);
        assert_eq!(engine.shutdown().served, 2);
    }

    #[test]
    fn repeat_submissions_hit_the_shared_profile_cache() {
        let engine = small_engine();
        let inst = instance();
        let cold = engine
            .submit(Submission::new(inst.clone(), "ptas"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(cold.stats.cache_hits, 0, "cold run cannot hit");
        assert!(cold.stats.cache_misses > 0);
        assert!(!engine.cache().is_empty());
        let warm = engine
            .submit(Submission::new(inst.clone(), "ptas"))
            .unwrap()
            .wait()
            .unwrap();
        assert!(warm.stats.cache_hits > 0, "warm run must report its hits");
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.makespan, cold.makespan);
        assert_eq!(warm.schedule.assignment(), cold.schedule.assignment());
    }

    #[test]
    fn identical_machine_solvers_refuse_machine_speeds() {
        // OPT = 3: both jobs on the speed-3 machine. A solver that ignores
        // the speeds would answer 4.
        let inst = Instance::with_speeds(vec![4, 4], vec![3, 1]).unwrap();
        let engine = small_engine();
        for name in ["exact", "ptas", "lpt"] {
            let err = engine
                .submit(Submission::new(inst.clone(), name))
                .unwrap()
                .wait()
                .unwrap_err();
            assert!(
                matches!(&err, Error::BadModel(m) if m.contains("machine speeds")),
                "{name}: {err}"
            );
        }
        let q = engine
            .submit(Submission::new(inst, "ptas-q"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(q.makespan, 3);
    }

    #[test]
    fn a_bracket_near_u64_max_does_not_overflow_the_midpoint() {
        // Σ tⱼ = 2^63 fits, but the bracket [2^63, 2^63 + 2^62] has
        // `lower + upper` above u64::MAX.
        // Solved on the test thread, so an overflow fails the test instead
        // of a worker.
        let inst = Instance::new(vec![1 << 62, 1 << 62], 1).unwrap();
        for name in ["ptas", "par-ptas", "ptas-q", "multifit"] {
            let report = crate::build(name, &SolverParams::default())
                .unwrap()
                .solve(&SolveRequest::new(&inst))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.makespan, 1 << 63, "{name}");
            if name != "multifit" {
                assert_eq!(report.certified_target, Some(1 << 63), "{name}");
            }
        }
    }

    #[test]
    fn without_cache_opts_out() {
        let engine = small_engine();
        let inst = instance();
        for _ in 0..2 {
            let report = engine
                .submit(Submission::new(inst.clone(), "ptas").without_cache())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(report.stats.cache_hits, 0);
            assert_eq!(report.stats.cache_misses, 0);
        }
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn budget_deadline_counts_queue_time() {
        let engine = Engine::with_config(EngineConfig {
            workers: 1,
            capacity: 16,
            cache_capacity: 64,
        });
        let handle = engine.submit(
            Submission::new(instance(), "ptas")
                .with_budget(Budget::with_timeout(std::time::Duration::ZERO)),
        );
        assert!(matches!(
            handle.unwrap().wait(),
            Err(Error::BudgetExhausted { .. })
        ));
    }
}

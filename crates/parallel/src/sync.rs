//! The shared-memory seam of the parallel executors.
//!
//! Every concurrency primitive the wavefront executors rely on — atomic
//! flags/counters, mutex/condvar, the fork/join work-distribution handoff
//! of [`crate::persistent`], and the DP table's scatter/gather accesses —
//! goes through this module. In normal builds everything here is a
//! zero-cost passthrough to `std` (`#[inline]` wrappers with no extra
//! state). Under `feature = "audit"` the same API additionally:
//!
//! * logs every shared-memory access as a typed `audit::Event` (reads,
//!   writes, atomic loads/stores with their ordering class, lock
//!   acquire/release, condvar wait/notify/wake, spawn/join edges), ready for
//!   the happens-before race detector in `pcmax-audit`, and
//! * serializes the participating threads through a turn-based scheduler
//!   with two policies: seeded-random (SplitMix64, the legacy sweeps) and
//!   *scripted*, where an explorer dictates the thread granted at each
//!   scheduling decision — the controlled mode `pcmax-audit`'s DPOR search
//!   drives. Every run records its decision sequence (`audit::Decision`),
//!   so any schedule replays exactly from its choice list.
//!
//! Under the scheduler, lock ownership and condvar wait-sets are tracked *in
//! the model* (no thread ever sleeps in the OS on a contended lock or a real
//! condvar): the set of runnable threads at every decision is a pure
//! function of the decisions taken so far, which is what makes scripted
//! replay deterministic. A schedule in which every live thread is
//! model-blocked is a genuine deadlock of the workload and aborts the
//! session with a panic whose message starts with `audit model deadlock`.
//!
//! The instrumentation is opt-in twice over: the feature gates compilation,
//! and at runtime events are only recorded by threads registered with an
//! active `audit::Session` — `cargo test --features audit` does not slow
//! down or alter unrelated tests.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Identifier handed back by [`fork`]; pass it to [`join_with`] so the audit
/// runtime can draw the join (child-to-parent) happens-before edge. A unit
/// struct in normal builds.
#[derive(Debug)]
pub struct SpawnId {
    #[cfg(feature = "audit")]
    child: Option<usize>,
}

/// Wraps a closure destined for a worker thread. Under audit the wrapper
/// registers the child thread with the active session before running the
/// payload (recording the spawn edge on the parent side), so the scheduler
/// controls when the worker starts and the race detector sees the
/// parent-to-child ordering. In normal builds this is the identity.
#[cfg(not(feature = "audit"))]
#[inline(always)]
pub fn fork<R, F: FnOnce() -> R>(f: F) -> (F, SpawnId) {
    (f, SpawnId {})
}

/// Audit-instrumented [`fork`]: allocates the child slot in the active
/// session (if any) and wraps the task with register/finish bookkeeping.
#[cfg(feature = "audit")]
pub fn fork<R, F: FnOnce() -> R>(f: F) -> (impl FnOnce() -> R, SpawnId) {
    let child = audit::announce_spawn();
    let task = move || {
        // The guard releases the child's turn even if `f` panics, so an
        // assertion failure inside a worker can't wedge the whole schedule.
        let _guard = child.map(|id| {
            audit::child_begin(id);
            audit::FinishGuard(id)
        });
        f()
    };
    (task, SpawnId { child })
}

/// Runs the (possibly blocking) join operation `f` for the worker spawned as
/// `id`. Under audit the calling thread leaves the scheduler while blocked
/// (so workers can be granted turns), re-enters afterwards, and records the
/// join edge. In normal builds it just calls `f`.
#[inline]
pub fn join_with<R>(id: SpawnId, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "audit")]
    if let Some(child) = id.child {
        return audit::join_region(child, f);
    }
    let _ = &id;
    f()
}

/// Records a plain shared-memory *read* of logical location `loc` (e.g. a DP
/// table index). No-op in normal builds.
#[inline(always)]
pub fn trace_read(loc: usize) {
    #[cfg(feature = "audit")]
    audit::on_access(loc, false);
    let _ = loc;
}

/// Records a plain shared-memory *write* of logical location `loc`. No-op in
/// normal builds.
#[inline(always)]
pub fn trace_write(loc: usize) {
    #[cfg(feature = "audit")]
    audit::on_access(loc, true);
    let _ = loc;
}

/// Emits a `park` instant for `worker` into the active `pcmax-trace`
/// session, if any. Lives in the seam so park/wake observability shares the
/// sites the audit scheduler already controls: callers emit this right where
/// they count `PoolCounters::parks`, immediately before the (audited)
/// [`Condvar::wait`], so the timeline and the audit event log describe the
/// same blocking points. The trace ring is a leaf lock that is never held
/// across a wait, so the turn-based scheduler is unaffected.
#[inline]
pub fn trace_park(worker: usize) {
    pcmax_trace::instant("park", worker as u64);
    crate::metrics::POOL_PARKS.inc();
}

/// Emits a `wake` instant for `worker`; the counterpart of [`trace_park`],
/// called right after the audited wait returns.
#[inline]
pub fn trace_wake(worker: usize) {
    pcmax_trace::instant("wake", worker as u64);
    crate::metrics::POOL_WAKES.inc();
}

/// Identity counter for auditable sync objects. Reset to 1 at every session
/// start (sessions are globally serialized), so re-running the same workload
/// numbers its objects identically — a trace from one run can be compared
/// op-for-op with a trace from a replay. Consequence: objects created
/// *outside* a session must not be used inside one (the executors create all
/// their sync objects per solve, inside the workload).
#[cfg(feature = "audit")]
static NEXT_OBJECT_ID: AtomicUsize = AtomicUsize::new(1);

/// Allocates a fresh identity for an auditable sync object. Zero in normal
/// builds (identities are only consumed by the audit log).
fn next_object_id() -> usize {
    #[cfg(feature = "audit")]
    {
        // audit:allow(relaxed): pure id allocation — the only requirement is
        // uniqueness, which the RMW's atomicity gives; no data is published.
        return NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed);
    }
    #[allow(unreachable_code)]
    0
}

/// An auditable `AtomicBool`. The explicit-ordering API mirrors `std`; under
/// audit every operation is logged with its acquire/release classification,
/// which is exactly what the happens-before detector needs to tell a
/// correctly published flag from a relaxed one.
#[derive(Debug)]
pub struct AtomicFlag {
    inner: AtomicBool,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    id: usize,
}

impl AtomicFlag {
    /// A new flag with the given initial value.
    pub fn new(value: bool) -> Self {
        Self {
            inner: AtomicBool::new(value),
            id: next_object_id(),
        }
    }

    /// Atomic load with ordering `ord`.
    #[inline]
    pub fn load(&self, ord: Ordering) -> bool {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Load, ord);
        self.inner.load(ord)
    }

    /// Atomic store with ordering `ord`.
    #[inline]
    pub fn store(&self, value: bool, ord: Ordering) {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Store, ord);
        self.inner.store(value, ord);
    }

    /// Atomic swap with ordering `ord`.
    #[inline]
    pub fn swap(&self, value: bool, ord: Ordering) -> bool {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Rmw, ord);
        self.inner.swap(value, ord)
    }
}

impl Default for AtomicFlag {
    fn default() -> Self {
        Self::new(false)
    }
}

/// An auditable `AtomicUsize` (same contract as [`AtomicFlag`]).
#[derive(Debug)]
pub struct AtomicCounter {
    inner: AtomicUsize,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    id: usize,
}

impl AtomicCounter {
    /// A new counter with the given initial value.
    pub fn new(value: usize) -> Self {
        Self {
            inner: AtomicUsize::new(value),
            id: next_object_id(),
        }
    }

    /// Atomic load with ordering `ord`.
    #[inline]
    pub fn load(&self, ord: Ordering) -> usize {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Load, ord);
        self.inner.load(ord)
    }

    /// Atomic store with ordering `ord`.
    #[inline]
    pub fn store(&self, value: usize, ord: Ordering) {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Store, ord);
        self.inner.store(value, ord);
    }

    /// Atomic fetch-add with ordering `ord`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, value: usize, ord: Ordering) -> usize {
        #[cfg(feature = "audit")]
        audit::on_atomic(self.id, audit::AtomicKind::Rmw, ord);
        self.inner.fetch_add(value, ord)
    }
}

impl Default for AtomicCounter {
    fn default() -> Self {
        Self::new(0)
    }
}

/// An auditable mutex. Lock/unlock events carry the object identity, giving
/// the race detector the release→acquire edges of the lock protocol. Under
/// the interleaving scheduler, ownership is decided by the *model*
/// (`audit` tracks a lock-owner table and parks contenders in a
/// `LockWaiting` state), so the runnable set at every scheduling decision is
/// a deterministic function of the schedule — the property the DPOR explorer
/// needs. The real `std` lock trails the model by at most the holder's few
/// instructions between logging the release and actually unlocking, which a
/// bounded spin absorbs.
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    /// Stable per-session object id; only the audit scheduler reads it.
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    id: usize,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard returned by [`Mutex::lock`]; logs the release on drop. Carries a
/// reference to its mutex so [`Condvar::wait`] can reacquire after waking.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
    owner: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            id: next_object_id(),
        }
    }

    /// Acquires the lock (poisoning is ignored: a panicked holder's data is
    /// still returned, matching the executors' fail-fast panic policy).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "audit")]
        if audit::scheduled() {
            // The model grants ownership (and logs the acquire); the real
            // lock follows. Its holder has already logged the release and
            // unlocks before its next scheduling point, so this spin is a
            // handful of iterations, never a schedule-dependent wait.
            audit::lock_acquire(self.id);
            loop {
                match self.inner.try_lock() {
                    Ok(guard) => {
                        return MutexGuard {
                            guard: Some(guard),
                            owner: self,
                        }
                    }
                    Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                        return MutexGuard {
                            guard: Some(poisoned.into_inner()),
                            owner: self,
                        }
                    }
                    Err(std::sync::TryLockError::WouldBlock) => std::hint::spin_loop(),
                }
            }
        }
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard {
            guard: Some(guard),
            owner: self,
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().unwrap_or_else(|| {
            // The Option is only vacated in drop; a None here is unreachable.
            unreachable!("guard accessed after drop")
        })
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .unwrap_or_else(|| unreachable!("guard accessed after drop"))
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Record the release (in the model) while the real lock is still
        // held: the model hands ownership to the next contender at the
        // release *event*, and the real unlock below lands before this
        // thread's next scheduling point, so the successor's bounded
        // `try_lock` spin in `Mutex::lock` succeeds promptly.
        if self.guard.is_none() {
            // Consumed by `Condvar::wait`, which logged the release itself.
            return;
        }
        #[cfg(feature = "audit")]
        audit::lock_release(self.owner.id);
        let _ = &self.owner;
        self.guard = None;
    }
}

/// An auditable condition variable. Under the interleaving scheduler the
/// wait-set, the wake choice and the lock handoff are all tracked in the
/// model — the wait registers *before* the lock is released (one atomic
/// scheduler step, like the real primitive), `notify_one` deterministically
/// wakes the lowest-id waiter, and the model produces no spurious wakeups.
/// Outside the scheduler this is `std`'s condvar (spurious wakeups
/// possible, as usual).
#[derive(Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    id: usize,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            id: next_object_id(),
        }
    }

    /// Waits on `guard`'s mutex until notified. Returns the reacquired
    /// guard.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let owner = guard.owner;
        let std_guard = guard
            .guard
            .take()
            .unwrap_or_else(|| unreachable!("wait on dropped guard"));
        #[cfg(feature = "audit")]
        if audit::scheduled() {
            // Wait-set registration and the model's lock release happen in
            // one scheduler step, *before* the real unlock: a notifier can
            // only evaluate the wait predicate under this mutex, which the
            // model hands over only after that release event — so it always
            // observes this waiter registered (no model-level lost wakeups).
            audit::cond_block(self.id, owner.id);
            drop(std_guard);
            audit::cond_sleep(self.id);
            return owner.lock();
        }
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard {
            guard: Some(reacquired),
            owner,
        }
    }

    /// Wakes one waiter (under the scheduler: the lowest-id modeled waiter).
    pub fn notify_one(&self) {
        #[cfg(feature = "audit")]
        if audit::scheduled() {
            audit::on_notify(self.id, false);
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        #[cfg(feature = "audit")]
        if audit::scheduled() {
            audit::on_notify(self.id, true);
        }
        self.inner.notify_all();
    }
}

#[cfg(feature = "audit")]
pub mod audit {
    //! The audit runtime: event log, session registry and the seeded
    //! turn-based interleaving scheduler. Driven by `pcmax-audit`.

    use pcmax_core::rng::SplitMix64;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// Classification of an atomic operation for happens-before edges.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AtomicKind {
        /// Pure load (acquire side if the ordering says so).
        Load,
        /// Pure store (release side if the ordering says so).
        Store,
        /// Read-modify-write (potentially both sides).
        Rmw,
    }

    /// One logged shared-memory operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Op {
        /// Plain (non-atomic) read of a logical location.
        Read {
            /// Caller-chosen location key (e.g. DP table index).
            loc: usize,
        },
        /// Plain (non-atomic) write of a logical location.
        Write {
            /// Caller-chosen location key.
            loc: usize,
        },
        /// Atomic load; `acquire` reflects the ordering argument.
        AtomicLoad {
            /// Sync-object identity.
            obj: usize,
            /// Whether the ordering has acquire semantics.
            acquire: bool,
        },
        /// Atomic store; `release` reflects the ordering argument.
        AtomicStore {
            /// Sync-object identity.
            obj: usize,
            /// Whether the ordering has release semantics.
            release: bool,
        },
        /// Atomic read-modify-write with its ordering classification.
        AtomicRmw {
            /// Sync-object identity.
            obj: usize,
            /// Acquire semantics on the read side.
            acquire: bool,
            /// Release semantics on the write side.
            release: bool,
        },
        /// Mutex acquisition.
        LockAcquire {
            /// Sync-object identity.
            obj: usize,
        },
        /// Mutex release.
        LockRelease {
            /// Sync-object identity.
            obj: usize,
        },
        /// Thread `child` was forked by this event's thread.
        Spawn {
            /// Child thread id (dense, session-scoped).
            child: usize,
        },
        /// Thread `child` was joined by this event's thread.
        Join {
            /// Child thread id.
            child: usize,
        },
        /// Condvar wait entry: the waiter atomically releases `lock` (a
        /// paired `LockRelease` event follows immediately) and enters the
        /// cv's wait-set.
        CondWait {
            /// Condvar identity.
            cv: usize,
            /// The mutex released by the wait.
            lock: usize,
        },
        /// `notify_one`/`notify_all`. `waiters` is the wait-set size the
        /// notify observed (0 = nobody woke — lost-wakeup analysis input).
        Notify {
            /// Condvar identity.
            cv: usize,
            /// Whether this was `notify_all`.
            all: bool,
            /// Wait-set size at the notify.
            waiters: usize,
        },
        /// A waiter left the cv's wait-set (paired with the `Notify` that
        /// woke it); its lock reacquisition follows as a `LockAcquire`.
        CondWake {
            /// Condvar identity.
            cv: usize,
        },
    }

    /// One event of the serialized schedule.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Event {
        /// Session-scoped dense thread id (0 = the session's main thread).
        pub thread: usize,
        /// The operation.
        pub op: Op,
    }

    /// One scheduling decision: which thread was granted the turn, out of
    /// which enabled (runnable) set. The chosen-thread sequence of a trace
    /// is a complete replay script for [`explore_scripted`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Decision {
        /// Thread ids that were runnable at this decision, ascending.
        pub enabled: Vec<usize>,
        /// The thread granted the turn.
        pub chosen: usize,
    }

    /// The full serialized history of one explored schedule.
    #[derive(Debug, Clone)]
    pub struct Trace {
        /// Events in schedule (= happens-before-compatible total) order.
        pub events: Vec<Event>,
        /// Number of threads that participated (ids `0..threads`).
        pub threads: usize,
        /// The seed that produced this schedule (0 for scripted runs).
        pub seed: u64,
        /// Every scheduling decision, in grant order (recorded under both
        /// policies).
        pub decisions: Vec<Decision>,
        /// For each event, the index into `decisions` of the grant it ran
        /// under; `usize::MAX` for thread 0's events before its first yield
        /// (those form a prefix, after which the values are non-decreasing).
        pub event_decisions: Vec<usize>,
    }

    /// Per-thread scheduler state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TState {
        /// Spawn announced, thread not yet registered.
        Pending,
        /// Waiting for the turn.
        Wanting,
        /// Holds the turn and is executing.
        Running,
        /// Blocked in a real join outside the scheduler, on `join` (the
        /// joined child's id, or `usize::MAX` for an anonymous region).
        Blocked {
            /// Child being joined.
            join: usize,
        },
        /// The joined child finished; the parent's real join is returning
        /// but has not re-registered yet. Dispatch stalls (like `Pending`)
        /// so the enabled set never depends on OS wakeup timing.
        Reentering,
        /// Model-blocked waiting for the mutex with this identity.
        LockWaiting(usize),
        /// Model-blocked in the wait-set of the condvar with this identity.
        CondWaiting(usize),
        /// Finished.
        Done,
    }

    /// How the scheduler picks among runnable threads.
    enum Policy {
        /// Seeded pseudo-random pick — the legacy sweep mode.
        Random(SplitMix64),
        /// Decision `d` grants `choices[d]` when enabled; off-script (or
        /// exhausted) decisions fall back to deterministic round-robin.
        Scripted(Vec<usize>),
    }

    struct SessionState {
        events: Vec<Event>,
        /// Granting decision index per event (see [`Trace::event_decisions`]).
        event_decisions: Vec<usize>,
        decisions: Vec<Decision>,
        policy: Policy,
        threads: Vec<TState>,
        /// Per-thread index of the decision that granted its current turn
        /// (`usize::MAX` before the first grant).
        grant_of: Vec<usize>,
        /// Last thread granted by the round-robin fallback.
        rr_last: usize,
        /// Model lock-owner table: mutex identity → holder thread.
        lock_owner: HashMap<usize, usize>,
        /// Set when the model detects a deadlock; every thread then panics
        /// out of the schedule instead of waiting forever.
        aborted: Option<String>,
        seed: u64,
    }

    impl SessionState {
        /// Grants the turn per the policy, provided no thread is currently
        /// running, no announced child is still unregistered, and no joined
        /// parent is mid-reentry (stalling on stragglers keeps the enabled
        /// set a pure function of the decisions so far). If nothing is
        /// runnable but threads are still model-blocked on locks/condvars,
        /// flags the schedule as deadlocked.
        fn dispatch(&mut self) {
            if self
                .threads
                .iter()
                .any(|t| matches!(*t, TState::Running | TState::Pending | TState::Reentering))
            {
                return;
            }
            let wanting: Vec<usize> = (0..self.threads.len())
                .filter(|&i| self.threads[i] == TState::Wanting)
                .collect();
            if wanting.is_empty() {
                let stuck: Vec<String> = (0..self.threads.len())
                    .filter_map(|i| match self.threads[i] {
                        TState::LockWaiting(obj) => Some(format!("thread {i} on lock {obj}")),
                        TState::CondWaiting(cv) => Some(format!("thread {i} on condvar {cv}")),
                        _ => None,
                    })
                    .collect();
                if !stuck.is_empty() && self.aborted.is_none() {
                    // No schedule extension can ever wake these threads: a
                    // genuine deadlock of the workload under this schedule.
                    self.aborted = Some(format!("model deadlock: {}", stuck.join(", ")));
                }
                return;
            }
            let d = self.decisions.len();
            let pick = match &mut self.policy {
                Policy::Random(rng) => wanting[rng.below(wanting.len() as u64) as usize],
                Policy::Scripted(choices) => match choices.get(d) {
                    Some(&c) if wanting.contains(&c) => c,
                    // Round-robin rather than lowest-id: a fixed-priority
                    // fallback could starve the very thread a higher-id
                    // poller is waiting on.
                    _ => wanting
                        .iter()
                        .copied()
                        .find(|&w| w > self.rr_last)
                        .unwrap_or(wanting[0]),
                },
            };
            self.rr_last = pick;
            self.grant_of[pick] = d;
            self.decisions.push(Decision {
                enabled: wanting,
                chosen: pick,
            });
            self.threads[pick] = TState::Running;
        }

        /// Appends an event, tagging it with the decision that granted the
        /// thread its current turn.
        fn push_event(&mut self, thread: usize, op: Op) {
            self.event_decisions.push(self.grant_of[thread]);
            self.events.push(Event { thread, op });
        }
    }

    struct Session {
        state: Mutex<SessionState>,
        turn: Condvar,
    }

    /// The (at most one) active session. A `Mutex<Option<Arc<…>>>` rather
    /// than a thread-local because worker threads must find it too.
    static ACTIVE: Mutex<Option<Arc<Session>>> = Mutex::new(None);

    thread_local! {
        /// This thread's dense id within the active session, if registered.
        static MY_ID: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn active() -> Option<Arc<Session>> {
        lock(&ACTIVE).clone()
    }

    /// Whether the calling thread is registered with an active session (and
    /// thus subject to the interleaving scheduler).
    pub fn scheduled() -> bool {
        MY_ID.with(|id| id.get().is_some()) && active().is_some()
    }

    fn me() -> Option<usize> {
        MY_ID.with(|id| id.get())
    }

    /// Panics the calling thread out of the schedule once the session is
    /// aborted (model deadlock). Silent during an unwind — the first panic
    /// is the report, and a second would abort the process.
    fn abort_check(st: &SessionState) {
        if let Some(reason) = &st.aborted {
            if !std::thread::panicking() {
                panic!("audit {reason}");
            }
        }
    }

    /// Waits until `id` holds the turn (or the session aborts). Returns the
    /// state guard with the thread Running — or, mid-unwind on an aborted
    /// session, without it, so unwinding cleanup code never blocks on the
    /// scheduler.
    fn await_turn<'a>(
        session: &'a Session,
        mut st: MutexGuard<'a, SessionState>,
        id: usize,
    ) -> MutexGuard<'a, SessionState> {
        while st.threads[id] != TState::Running {
            if st.aborted.is_some() {
                break;
            }
            st = session
                .turn
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        abort_check(&st);
        st
    }

    /// Gives up the current turn (if held), runs the dispatcher and waits
    /// until this thread is granted again. The serialization point of every
    /// instrumented operation.
    fn acquire_turn<'a>(session: &'a Session, id: usize) -> MutexGuard<'a, SessionState> {
        let mut st = lock(&session.state);
        if st.threads[id] == TState::Running {
            st.threads[id] = TState::Wanting;
        }
        st.dispatch();
        session.turn.notify_all();
        await_turn(session, st, id)
    }

    /// Blocks until the scheduler grants this thread the turn, releasing the
    /// turn it currently holds (if any).
    pub fn yield_turn() {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        drop(acquire_turn(&session, id));
    }

    /// Yields for the turn, then records `op` while holding it.
    fn turn_and_record(op_of: impl FnOnce(usize) -> Op) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let mut st = acquire_turn(&session, id);
        if st.aborted.is_some() {
            return;
        }
        let op = op_of(id);
        st.push_event(id, op);
    }

    /// Hook for [`super::trace_read`]/[`super::trace_write`].
    pub(super) fn on_access(loc: usize, write: bool) {
        turn_and_record(|_| {
            if write {
                Op::Write { loc }
            } else {
                Op::Read { loc }
            }
        });
    }

    /// Hook for the atomic wrappers.
    pub(super) fn on_atomic(obj: usize, kind: AtomicKind, ord: Ordering) {
        let acquire = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        turn_and_record(|_| match kind {
            AtomicKind::Load => Op::AtomicLoad { obj, acquire },
            AtomicKind::Store => Op::AtomicStore { obj, release },
            AtomicKind::Rmw => Op::AtomicRmw {
                obj,
                acquire,
                release,
            },
        });
    }

    /// Model half of [`super::Mutex::lock`] under the scheduler: takes
    /// scheduling turns until the model says the lock is free, claims it and
    /// logs the acquire. Contenders park as `LockWaiting` (not runnable), so
    /// the enabled set never contains a thread whose next step could not
    /// make progress.
    pub(super) fn lock_acquire(obj: usize) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let mut st = acquire_turn(&session, id);
        loop {
            if st.aborted.is_some() {
                return; // mid-unwind: the model is abandoned
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = st.lock_owner.entry(obj) {
                slot.insert(id);
                st.push_event(id, Op::LockAcquire { obj });
                return;
            }
            // Held: model-block until the owner's release event flips the
            // waiters back to Wanting, then race for the next grant.
            st.threads[id] = TState::LockWaiting(obj);
            st.dispatch();
            session.turn.notify_all();
            st = await_turn(&session, st, id);
        }
    }

    /// Release half: logs the event, clears the owner table and wakes the
    /// model's lock-waiters. The caller drops the real guard immediately
    /// after, before its next scheduling point.
    pub(super) fn lock_release(obj: usize) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let mut st = acquire_turn(&session, id);
        if st.aborted.is_some() {
            return;
        }
        release_in_model(&mut st, id, obj);
    }

    /// Logs `LockRelease` and moves the lock's model-waiters to Wanting.
    /// Runs under the caller's current turn.
    fn release_in_model(st: &mut SessionState, id: usize, obj: usize) {
        st.push_event(id, Op::LockRelease { obj });
        st.lock_owner.remove(&obj);
        for slot in st.threads.iter_mut() {
            if *slot == TState::LockWaiting(obj) {
                *slot = TState::Wanting;
            }
        }
    }

    /// Wait-entry half of [`super::Condvar::wait`] under the scheduler: in
    /// one scheduler step (no new decision), logs `CondWait`, releases the
    /// lock in the model and enters the cv's wait-set — the modeled
    /// equivalent of the primitive's atomic unlock-and-sleep.
    pub(super) fn cond_block(cv: usize, lock_obj: usize) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let mut st = lock(&session.state);
        if st.aborted.is_some() {
            abort_check(&st);
            return;
        }
        st.push_event(id, Op::CondWait { cv, lock: lock_obj });
        release_in_model(&mut st, id, lock_obj);
        st.threads[id] = TState::CondWaiting(cv);
        st.dispatch();
        session.turn.notify_all();
    }

    /// Sleep half of the modeled wait: parks until a notify moves this
    /// thread out of the wait-set and the scheduler grants it a turn, then
    /// logs the wake. The caller reacquires the mutex afterwards.
    pub(super) fn cond_sleep(cv: usize) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let st = lock(&session.state);
        let mut st = await_turn(&session, st, id);
        if st.aborted.is_some() {
            return;
        }
        st.push_event(id, Op::CondWake { cv });
    }

    /// `notify_one`/`notify_all` under the scheduler: takes a scheduling
    /// turn, moves the chosen waiter(s) to Wanting and logs the notify with
    /// the observed wait-set size. `notify_one` wakes the lowest-id waiter —
    /// the model has no spurious wakeups, and schedule choice (which woken
    /// thread runs first) is covered by the grant order, not the wake pick.
    pub(super) fn on_notify(cv: usize, all: bool) {
        let (Some(session), Some(id)) = (active(), me()) else {
            return;
        };
        let mut st = acquire_turn(&session, id);
        if st.aborted.is_some() {
            return;
        }
        let waiters: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TState::CondWaiting(cv))
            .map(|(t, _)| t)
            .collect();
        let count = waiters.len();
        let wake = if all { count } else { count.min(1) };
        for &t in &waiters[..wake] {
            st.threads[t] = TState::Wanting;
        }
        st.push_event(
            id,
            Op::Notify {
                cv,
                all,
                waiters: count,
            },
        );
    }

    /// Parent-side half of [`super::fork`]: allocates the child's dense id,
    /// marks it pending and records the spawn edge. Returns `None` when the
    /// calling thread is not part of a session.
    pub(super) fn announce_spawn() -> Option<usize> {
        let (Some(session), Some(id)) = (active(), me()) else {
            return None;
        };
        let mut st = lock(&session.state);
        let child = st.threads.len();
        st.threads.push(TState::Pending);
        st.grant_of.push(usize::MAX);
        st.push_event(id, Op::Spawn { child });
        Some(child)
    }

    /// Child-side registration: adopt the pre-allocated id and wait for the
    /// first turn before touching any shared state.
    pub(super) fn child_begin(child: usize) {
        let Some(session) = active() else {
            return;
        };
        MY_ID.with(|id| id.set(Some(child)));
        let mut st = lock(&session.state);
        st.threads[child] = TState::Wanting;
        st.dispatch();
        session.turn.notify_all();
        drop(await_turn(&session, st, child));
    }

    /// Drop guard marking a worker finished; releases its turn even on
    /// unwind so a panicking worker cannot deadlock the schedule.
    pub(super) struct FinishGuard(pub(super) usize);

    impl Drop for FinishGuard {
        fn drop(&mut self) {
            child_finish(self.0);
        }
    }

    /// Child-side completion: release the turn for good. A parent blocked on
    /// this join becomes `Reentering` — its real join is about to return,
    /// and dispatch stalls until it re-registers, so the next decision's
    /// enabled set does not depend on how fast the OS runs the parent.
    pub(super) fn child_finish(child: usize) {
        let Some(session) = active() else {
            return;
        };
        let mut st = lock(&session.state);
        st.threads[child] = TState::Done;
        for slot in st.threads.iter_mut() {
            if *slot == (TState::Blocked { join: child }) {
                *slot = TState::Reentering;
            }
        }
        st.dispatch();
        session.turn.notify_all();
        MY_ID.with(|id| id.set(None));
    }

    /// Runs blocking operation `f` outside the scheduler: the calling thread
    /// gives up the turn, performs `f` (e.g. a real `JoinHandle::join`), then
    /// re-enters the schedule and records the join edge. `child == usize::MAX`
    /// marks an anonymous blocking region with no join edge. If the child is
    /// already Done the thread keeps its turn through `f` (the real join
    /// returns promptly with nothing left to schedule around).
    pub fn join_region<R>(child: usize, f: impl FnOnce() -> R) -> R {
        let (Some(session), Some(id)) = (active(), me()) else {
            return f();
        };
        let parked = {
            let mut st = lock(&session.state);
            let park = st.threads.get(child) != Some(&TState::Done);
            if park {
                st.threads[id] = TState::Blocked { join: child };
                st.dispatch();
                session.turn.notify_all();
            }
            park
        };
        let out = f();
        let mut st = if parked {
            let mut st = lock(&session.state);
            st.threads[id] = TState::Wanting;
            st.dispatch();
            session.turn.notify_all();
            await_turn(&session, st, id)
        } else {
            lock(&session.state)
        };
        if child != usize::MAX {
            st.push_event(id, Op::Join { child });
        }
        out
    }

    /// Global gate serializing sessions (concurrent test threads queue here).
    static GATE: Mutex<()> = Mutex::new(());

    /// Shared session driver for both policies.
    fn run_session<R>(policy: Policy, seed: u64, workload: impl FnOnce() -> R) -> (R, Trace) {
        let _gate = lock(&GATE);
        // audit:allow(relaxed): monotonic counter reset under the session
        // gate; see `NEXT_OBJECT_ID` — makes object numbering per-session
        // deterministic so replays are comparable op-for-op.
        super::NEXT_OBJECT_ID.store(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            state: Mutex::new(SessionState {
                events: Vec::new(),
                event_decisions: Vec::new(),
                decisions: Vec::new(),
                policy,
                threads: vec![TState::Running],
                grant_of: vec![usize::MAX],
                rr_last: usize::MAX,
                lock_owner: HashMap::new(),
                aborted: None,
                seed,
            }),
            turn: Condvar::new(),
        });
        *lock(&ACTIVE) = Some(Arc::clone(&session));
        MY_ID.with(|id| id.set(Some(0)));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(workload));
        MY_ID.with(|id| id.set(None));
        *lock(&ACTIVE) = None;
        let st = lock(&session.state);
        let trace = Trace {
            events: st.events.clone(),
            threads: st.threads.len(),
            seed: st.seed,
            decisions: st.decisions.clone(),
            event_decisions: st.event_decisions.clone(),
        };
        drop(st);
        match out {
            Ok(r) => (r, trace),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Runs `workload` under a fresh session with the given schedule seed and
    /// returns the serialized trace. The calling thread becomes thread 0;
    /// every worker forked (transitively) through [`super::fork`] joins the
    /// schedule. Sessions are globally serialized, so concurrent callers
    /// simply queue.
    ///
    /// # Panics
    /// Panics if the workload panics (the session is torn down first), or
    /// with an `audit model deadlock` message if every live thread is
    /// model-blocked on a lock/condvar.
    pub fn explore<R>(seed: u64, workload: impl FnOnce() -> R) -> (R, Trace) {
        run_session(
            Policy::Random(SplitMix64::seed_from_u64(seed)),
            seed,
            workload,
        )
    }

    /// Runs `workload` under the *controlled* scheduler: decision `d` grants
    /// thread `choices[d]` whenever that thread is enabled; off-script (or
    /// exhausted) decisions fall back to deterministic round-robin. The same
    /// script always replays the same trace — the foundation of the DPOR
    /// explorer and of minimal counterexample replays.
    ///
    /// # Panics
    /// Same contract as [`explore`].
    pub fn explore_scripted<R>(choices: &[usize], workload: impl FnOnce() -> R) -> (R, Trace) {
        run_session(Policy::Scripted(choices.to_vec()), 0, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_flag_passthrough() {
        let flag = AtomicFlag::new(false);
        assert!(!flag.load(Ordering::Acquire));
        flag.store(true, Ordering::Release);
        assert!(flag.load(Ordering::Relaxed));
        assert!(flag.swap(false, Ordering::AcqRel));
        assert!(!flag.load(Ordering::SeqCst));
    }

    #[test]
    fn atomic_counter_passthrough() {
        let ctr = AtomicCounter::new(5);
        assert_eq!(ctr.fetch_add(3, Ordering::AcqRel), 5);
        assert_eq!(ctr.load(Ordering::Acquire), 8);
        ctr.store(1, Ordering::Release);
        assert_eq!(ctr.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mutex_and_condvar_passthrough() {
        let m = Mutex::new(0u32);
        {
            let mut g = m.lock();
            *g += 7;
        }
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn fork_join_roundtrip_without_session() {
        let (task, id) = fork(|| 21 * 2);
        let h = std::thread::spawn(task);
        let out = join_with(id, || h.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(out, 42);
    }

    #[test]
    fn trace_hooks_are_noops_outside_sessions() {
        trace_read(3);
        trace_write(3);
    }
}

#[cfg(all(test, feature = "audit"))]
mod audit_tests {
    use super::audit::{explore, explore_scripted, Op};
    use super::*;
    use std::sync::Arc;

    /// Two workers, each writing a private location then bumping a shared
    /// AcqRel counter; parent joins both and reads the total.
    fn two_workers() -> usize {
        let ctr = Arc::new(AtomicCounter::new(0));
        let (ca, cb) = (Arc::clone(&ctr), Arc::clone(&ctr));
        let (ta, ia) = fork(move || {
            trace_write(100);
            ca.fetch_add(1, Ordering::AcqRel);
        });
        let (tb, ib) = fork(move || {
            trace_write(101);
            cb.fetch_add(1, Ordering::AcqRel);
        });
        let ha = std::thread::spawn(ta);
        let hb = std::thread::spawn(tb);
        join_with(ia, || ha.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
        join_with(ib, || hb.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
        ctr.load(Ordering::Acquire)
    }

    #[test]
    fn scripted_replay_reproduces_a_random_run() {
        let (r1, t1) = explore(5, two_workers);
        let script: Vec<usize> = t1.decisions.iter().map(|d| d.chosen).collect();
        let (r2, t2) = explore_scripted(&script, two_workers);
        assert_eq!(r1, r2);
        assert_eq!(t1.events, t2.events);
        assert_eq!(t1.decisions, t2.decisions);
    }

    #[test]
    fn scripted_fallback_is_deterministic() {
        let (r1, t1) = explore_scripted(&[], two_workers);
        let (r2, t2) = explore_scripted(&[], two_workers);
        assert_eq!(r1, 2);
        assert_eq!(r2, 2);
        assert_eq!(t1.events, t2.events);
        assert_eq!(t1.decisions, t2.decisions);
    }

    #[test]
    fn event_decisions_tag_every_event_with_its_grant() {
        let (_, trace) = explore_scripted(&[], two_workers);
        assert_eq!(trace.events.len(), trace.event_decisions.len());
        // Sentinel (pre-first-yield) events form a prefix; afterwards the
        // granting decision index is non-decreasing and in range.
        let mut seen_granted = false;
        let mut last = 0usize;
        for &d in &trace.event_decisions {
            if d == usize::MAX {
                assert!(!seen_granted, "sentinel event after a granted event");
                continue;
            }
            assert!(d < trace.decisions.len());
            if seen_granted {
                assert!(d >= last);
            }
            seen_granted = true;
            last = d;
        }
    }

    #[test]
    fn modeled_condvar_logs_typed_events() {
        fn workload() -> bool {
            let shared = Arc::new((Mutex::new(false), Condvar::new()));
            let child = Arc::clone(&shared);
            let (task, id) = fork(move || {
                let (m, cv) = &*child;
                let mut flag = m.lock();
                *flag = true;
                cv.notify_one();
            });
            let h = std::thread::spawn(task);
            let (m, cv) = &*shared;
            let mut flag = m.lock();
            while !*flag {
                flag = cv.wait(flag);
            }
            drop(flag);
            join_with(id, || h.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
            true
        }
        // Round-robin fallback runs the parent (thread 0) first, so it must
        // go through a full modeled wait/notify/wake cycle.
        let (ok, trace) = explore_scripted(&[], workload);
        assert!(ok);
        let has = |pred: &dyn Fn(&Op) -> bool| trace.events.iter().any(|e| pred(&e.op));
        assert!(has(&|op| matches!(op, Op::CondWait { .. })));
        assert!(has(&|op| matches!(op, Op::Notify { .. })));
        assert!(has(&|op| matches!(op, Op::CondWake { .. })));
        // The wait's atomic unlock must pair the CondWait with an immediate
        // LockRelease by the same thread.
        let wait_at = trace
            .events
            .iter()
            .position(|e| matches!(e.op, Op::CondWait { .. }))
            .unwrap();
        assert!(matches!(
            trace.events[wait_at + 1].op,
            Op::LockRelease { .. }
        ));
        assert_eq!(
            trace.events[wait_at].thread,
            trace.events[wait_at + 1].thread
        );
    }

    #[test]
    fn model_deadlock_is_detected_not_hung() {
        let outcome = std::panic::catch_unwind(|| {
            explore_scripted(&[], || {
                let m = Mutex::new(());
                let cv = Condvar::new();
                let guard = m.lock();
                // Nobody will ever notify: a genuine deadlock.
                let _guard = cv.wait(guard);
            })
        });
        let payload = outcome.expect_err("deadlocked workload must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("model deadlock"), "unexpected panic: {msg}");
    }
}

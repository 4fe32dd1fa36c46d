//! In-tree structured tracing for the pcmax workspace.
//!
//! The paper's whole evaluation is about *where wall time goes* — speedup of
//! the parallel wavefront DP across instance families — so the workspace
//! needs finer accounting than flat [`SolveStats`] counters: which bisection
//! probe, which anti-diagonal level, which worker. This crate provides it
//! with zero external dependencies:
//!
//! * [`span_enter`]/[`span_exit`] (or the RAII [`span`]), [`instant`] and
//!   [`counter`] hooks record [`Event`]s into **per-thread fixed-capacity
//!   ring buffers**, each guarded by its own uncontended mutex, so hot
//!   parallel code never serializes on a shared log.
//! * All hooks sit behind a single relaxed atomic "enabled" flag. When no
//!   [`Session`] is active a hook is one relaxed load and a branch — the
//!   `trace_overhead` bench in `pcmax-bench` pins this cost.
//! * [`Session::finish`] merges the per-thread buffers into a [`Timeline`],
//!   which exports to Chrome trace-event JSON ([`chrome`], loadable in
//!   Perfetto / `chrome://tracing`) or an ASCII per-worker utilization
//!   summary ([`summary`]).
//! * [`GlobalSink`] adapts the global hooks to the engine-layer
//!   [`TraceSink`] trait, so `SolveRequest::with_trace` routes solver-level
//!   spans into the same timeline as the deep wavefront instrumentation.
//!
//! A full ring drops subsequent events (counted in [`ThreadLane::dropped`])
//! rather than wrapping: the retained prefix keeps its span nesting intact,
//! which the integrity tests and the Chrome export both rely on.
//!
//! [`SolveStats`]: pcmax_core::SolveStats
//! [`TraceSink`]: pcmax_core::TraceSink

pub mod chrome;
pub mod summary;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-thread ring capacity (events). At ~40 bytes per event this is
/// about 2.5 MiB per thread — ample for a full PTAS solve at bench scale.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What a recorded [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named span opened on this thread (`arg` is caller-defined).
    SpanEnter,
    /// The most recent open span of this name closed.
    SpanExit,
    /// A point event (e.g. a worker parking or waking; `arg` = worker id).
    Instant,
    /// A sampled counter value (`arg` = the value).
    Counter,
}

/// One fixed-size trace record. Timestamps are nanoseconds relative to the
/// owning [`Session`]'s start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Record type.
    pub kind: EventKind,
    /// Static name (span/instant/counter label).
    pub name: &'static str,
    /// Nanoseconds since the session started.
    pub ts_nanos: u64,
    /// Kind-specific payload (span arg, instant arg, counter value).
    pub arg: u64,
}

/// Whether a trace [`Session`] is currently collecting events.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session generation; bumped at every [`Session::start`] so stale
/// thread-local rings from a previous session re-register.
static EPOCH: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn on() -> bool {
    // Payload-free, like `CancelToken`: the collector synchronizes with
    // writers via each ring's mutex, so only the flag's atomicity matters.
    // audit:allow(relaxed): monotonic-per-session on/off flag with no data
    // published through it; see crates/audit/lint.allow.
    ENABLED.load(Ordering::Relaxed)
}

/// Poison-tolerant lock: a panicking probe thread must not wedge tracing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Ring {
    tid: u64,
    label: String,
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }
}

struct Registry {
    active: bool,
    epoch: u64,
    capacity: usize,
    rings: Vec<Arc<Mutex<Ring>>>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    active: false,
    epoch: 0,
    capacity: DEFAULT_RING_CAPACITY,
    rings: Vec::new(),
});

thread_local! {
    /// This thread's ring for the current epoch, if it has registered.
    static LOCAL: RefCell<Option<(u64, Arc<Mutex<Ring>>)>> = const { RefCell::new(None) };
}

/// Shared monotonic time base; events store nanoseconds since this instant
/// so the hot path never takes a lock to read the session start time.
fn now_nanos() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Registers the calling thread with the current session's registry.
fn register() -> (u64, Arc<Mutex<Ring>>) {
    let mut reg = lock(&REGISTRY);
    let tid = reg.rings.len() as u64;
    let label = match std::thread::current().name() {
        Some(name) => name.to_string(),
        None => format!("thread-{tid}"),
    };
    let ring = Arc::new(Mutex::new(Ring {
        tid,
        label,
        events: Vec::with_capacity(reg.capacity.min(1024)),
        capacity: reg.capacity,
        dropped: 0,
    }));
    reg.rings.push(Arc::clone(&ring));
    (reg.epoch, ring)
}

#[inline]
fn push(kind: EventKind, name: &'static str, arg: u64) {
    if !on() {
        return;
    }
    let ts_nanos = now_nanos();
    // `try_with` so a hook firing during thread-local teardown is dropped
    // instead of panicking.
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let epoch = EPOCH.load(Ordering::Acquire);
        if !matches!(&*slot, Some((e, _)) if *e == epoch) {
            *slot = Some(register());
        }
        if let Some((_, ring)) = &*slot {
            lock(ring).push(Event {
                kind,
                name,
                ts_nanos,
                arg,
            });
        }
    });
}

/// Whether a session is active. Cheap enough to guard arg computation.
#[inline(always)]
pub fn enabled() -> bool {
    on()
}

/// Opens a named span on the calling thread. Pair with [`span_exit`] (or use
/// the RAII [`span`]); spans on one thread must nest properly.
#[inline]
pub fn span_enter(name: &'static str, arg: u64) {
    push(EventKind::SpanEnter, name, arg);
}

/// Closes the most recent open span with this name on the calling thread.
#[inline]
pub fn span_exit(name: &'static str) {
    push(EventKind::SpanExit, name, 0);
}

/// Records a point event on the calling thread.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    push(EventKind::Instant, name, arg);
}

/// Records a counter sample on the calling thread.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    push(EventKind::Counter, name, value);
}

/// RAII span: enters on creation, exits on drop. If tracing was disabled at
/// creation the drop is a no-op, so a session starting mid-span cannot
/// record an unbalanced exit.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            span_exit(self.name);
        }
    }
}

/// Opens an RAII [`SpanGuard`].
#[inline]
pub fn span(name: &'static str, arg: u64) -> SpanGuard {
    let armed = on();
    if armed {
        span_enter(name, arg);
    }
    SpanGuard { name, armed }
}

/// Adapter implementing the engine layer's [`TraceSink`] on the global
/// hooks, so `SolveRequest::with_trace(Arc::new(GlobalSink))` merges
/// solver-level spans into the active session's timeline.
///
/// [`TraceSink`]: pcmax_core::TraceSink
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalSink;

impl pcmax_core::TraceSink for GlobalSink {
    fn span_enter(&self, name: &'static str, arg: u64) {
        span_enter(name, arg);
    }

    fn span_exit(&self, name: &'static str) {
        span_exit(name);
    }
}

/// One thread's merged slice of a [`Timeline`].
#[derive(Debug, Clone)]
pub struct ThreadLane {
    /// Dense per-session thread id (registration order; 0 = first thread to
    /// record, typically the driver).
    pub tid: u64,
    /// Thread name, or `thread-<tid>` for unnamed workers.
    pub label: String,
    /// Events in recording order (timestamps are non-decreasing).
    pub events: Vec<Event>,
    /// Events discarded because the ring filled up.
    pub dropped: u64,
}

/// The merged result of a trace [`Session`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// One lane per thread that recorded at least one event.
    pub lanes: Vec<ThreadLane>,
}

impl Timeline {
    /// Total retained events across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total events dropped to full rings across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Structural integrity: per lane, timestamps are non-decreasing and —
    /// unless the lane dropped events — span enters/exits are balanced and
    /// properly nested (every exit matches the innermost open span).
    pub fn validate(&self) -> Result<(), String> {
        for lane in &self.lanes {
            let mut prev = 0u64;
            let mut stack: Vec<&'static str> = Vec::new();
            for e in &lane.events {
                if e.ts_nanos < prev {
                    return Err(format!(
                        "lane {} ({}): timestamp went backwards ({} after {prev})",
                        lane.tid, lane.label, e.ts_nanos
                    ));
                }
                prev = e.ts_nanos;
                match e.kind {
                    EventKind::SpanEnter => stack.push(e.name),
                    EventKind::SpanExit => match stack.pop() {
                        Some(open) if open == e.name => {}
                        Some(open) => {
                            return Err(format!(
                                "lane {} ({}): span exit `{}` while `{open}` is innermost",
                                lane.tid, lane.label, e.name
                            ));
                        }
                        None if lane.dropped > 0 => {}
                        None => {
                            return Err(format!(
                                "lane {} ({}): span exit `{}` with no open span",
                                lane.tid, lane.label, e.name
                            ));
                        }
                    },
                    EventKind::Instant | EventKind::Counter => {}
                }
            }
            if !stack.is_empty() && lane.dropped == 0 {
                return Err(format!(
                    "lane {} ({}): {} span(s) never exited (innermost `{}`)",
                    lane.tid,
                    lane.label,
                    stack.len(),
                    stack[stack.len() - 1]
                ));
            }
        }
        Ok(())
    }
}

/// An active collection window. At most one session exists at a time
/// process-wide; [`Session::start`] returns `None` while another is active.
///
/// Dropping a session without calling [`finish`](Self::finish) discards the
/// collected events but still disables tracing and frees the slot.
#[must_use = "call finish() to collect the timeline"]
#[derive(Debug)]
pub struct Session {
    t0_nanos: u64,
}

impl Session {
    /// Starts collecting with the default per-thread ring capacity.
    pub fn start() -> Option<Self> {
        Self::start_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Starts collecting with `capacity` events per thread (min 16).
    pub fn start_with_capacity(capacity: usize) -> Option<Self> {
        let mut reg = lock(&REGISTRY);
        if reg.active {
            return None;
        }
        reg.active = true;
        reg.epoch += 1;
        reg.capacity = capacity.max(16);
        reg.rings.clear();
        EPOCH.store(reg.epoch, Ordering::Release);
        drop(reg);
        let t0_nanos = now_nanos();
        ENABLED.store(true, Ordering::Release);
        Some(Self { t0_nanos })
    }

    /// Stops collecting and merges every thread's ring into a [`Timeline`].
    ///
    /// Callers are expected to have joined/parked their workers first (the
    /// engine traces whole solves, which wind their pools down); a hook that
    /// is still mid-push races only against the flag, not the data — it
    /// either lands before the drain (and is kept) or after (and is cleared
    /// with the registry at the next session start).
    pub fn finish(self) -> Timeline {
        ENABLED.store(false, Ordering::Release);
        let mut reg = lock(&REGISTRY);
        reg.active = false;
        let mut lanes = Vec::with_capacity(reg.rings.len());
        for ring in reg.rings.drain(..) {
            let mut ring = lock(&ring);
            if ring.events.is_empty() && ring.dropped == 0 {
                continue;
            }
            let events = ring
                .events
                .drain(..)
                .map(|mut e| {
                    e.ts_nanos = e.ts_nanos.saturating_sub(self.t0_nanos);
                    e
                })
                .collect();
            lanes.push(ThreadLane {
                tid: ring.tid,
                label: ring.label.clone(),
                events,
                dropped: ring.dropped,
            });
        }
        drop(reg);
        std::mem::forget(self);
        Timeline { lanes }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        let mut reg = lock(&REGISTRY);
        reg.active = false;
        reg.rings.clear();
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Sessions are process-global; tests that start one serialize on this.
    static TEST_SESSIONS: Mutex<()> = Mutex::new(());

    pub fn serial() -> MutexGuard<'static, ()> {
        TEST_SESSIONS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let _serial = test_support::serial();
        span_enter("ghost", 1);
        span_exit("ghost");
        instant("ghost", 2);
        counter("ghost", 3);
        let session = Session::start().expect("no session active");
        let timeline = session.finish();
        assert_eq!(timeline.total_events(), 0);
    }

    #[test]
    fn session_collects_balanced_spans_and_instants() {
        let _serial = test_support::serial();
        let session = Session::start().expect("no session active");
        {
            let _outer = span("outer", 7);
            instant("tick", 1);
            {
                let _inner = span("inner", 8);
                counter("cells", 42);
            }
        }
        let timeline = session.finish();
        assert_eq!(timeline.total_events(), 6);
        timeline.validate().expect("balanced timeline");
        let lane = &timeline.lanes[0];
        assert_eq!(lane.events[0].name, "outer");
        assert_eq!(lane.events[0].arg, 7);
        assert!(matches!(lane.events[5].kind, EventKind::SpanExit));
    }

    #[test]
    fn only_one_session_at_a_time() {
        let _serial = test_support::serial();
        let first = Session::start().expect("no session active");
        assert!(Session::start().is_none(), "second session must be refused");
        drop(first);
        let again = Session::start().expect("dropping frees the slot");
        let _ = again.finish();
    }

    #[test]
    fn worker_threads_get_their_own_lanes() {
        let _serial = test_support::serial();
        let session = Session::start().expect("no session active");
        span_enter("driver", 0);
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                scope.spawn(move || {
                    let _s = span("chunk", w);
                    instant("park", w);
                    instant("wake", w);
                });
            }
        });
        span_exit("driver");
        let timeline = session.finish();
        assert_eq!(timeline.lanes.len(), 4, "driver + 3 workers");
        timeline.validate().expect("each lane balanced");
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let _serial = test_support::serial();
        let session = Session::start_with_capacity(16).expect("no session active");
        for i in 0..100 {
            instant("tick", i);
        }
        let timeline = session.finish();
        assert_eq!(timeline.total_events(), 16);
        assert_eq!(timeline.dropped(), 84);
    }

    #[test]
    fn guard_created_while_disabled_stays_silent() {
        let _serial = test_support::serial();
        let guard = span("early", 0);
        let session = Session::start().expect("no session active");
        drop(guard); // must NOT record an unbalanced exit
        let timeline = session.finish();
        assert_eq!(timeline.total_events(), 0);
        timeline.validate().expect("empty timeline is valid");
    }
}

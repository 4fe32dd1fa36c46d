//! The one worker pool of the wavefront DP: workers are spawned **once per
//! sweep** and parked on the [`crate::sync`] Condvar wrappers between
//! anti-diagonal levels, so a sweep pays one spawn/join however many levels
//! it has. Because every handoff (level release, completion barrier,
//! shutdown) goes through the one `sync::Mutex` and its two Condvars, the
//! `pcmax-audit` race detector observes a lock-induced happens-before edge
//! for each of them — the same edges real hardware gets from the mutex, so
//! "audit passes" transfers to the release build.
//!
//! ## Handoff protocol
//!
//! One leader (the calling thread, which doubles as worker 0) and `n − 1`
//! parked workers share a [`sync::Mutex`]`<Ctl>` with two condvars:
//!
//! * `ready` — the leader bumps `Ctl::epoch`, stores the level, resets
//!   `Ctl::remaining = n` and `notify_all`s; workers wake when they see a
//!   fresh epoch (or `shutdown`).
//! * `done` — each worker runs the kernel for the level, decrements
//!   `remaining`, and the last one `notify_one`s the leader, which waits
//!   until `remaining == 0` before releasing the next level.
//!
//! The epoch counter makes the barrier immune to spurious wakeups and to
//! the "worker re-enters the wait before the leader re-locks" interleaving:
//! a worker only runs a level when the epoch moved past the one it last
//! completed. Kernel panics (leader's or a worker's) are caught, stashed in
//! `Ctl::panic`, and re-raised by the leader *after* every worker has been
//! shut down and joined — no thread is left parked.

use crate::sync;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Park/wake accounting for one `run_levels` call, surfaced through
/// `SolveStats`. Every entered condvar wait returns before the pool winds
/// down, so `parks == wakes` on completion — asserted in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Condvar waits entered (leader barrier waits + worker level waits).
    pub parks: u64,
    /// Condvar waits returned from.
    pub wakes: u64,
}

/// Shared pool control block, guarded by the one `sync::Mutex`.
struct Ctl {
    /// Level-release generation; bumped once per released level.
    epoch: u64,
    /// The level the current epoch asks workers to sweep.
    level: u32,
    /// Workers (leader included) still running the current epoch.
    remaining: usize,
    /// Set by the leader when no more levels will be released.
    shutdown: bool,
    /// First kernel panic payload; re-raised by the leader after joining.
    panic: Option<Box<dyn Any + Send>>,
    counters: PoolCounters,
}

struct Shared {
    ctl: sync::Mutex<Ctl>,
    /// Leader → workers: a new level (or shutdown) is available.
    ready: sync::Condvar,
    /// Workers → leader: the last worker of the epoch finished.
    done: sync::Condvar,
}

/// Ensures no worker is left parked if the leader unwinds: sets `shutdown`
/// and wakes everyone. Armed for the whole scoped region, disarmed-by-design
/// on the normal path too (a second shutdown is idempotent).
struct ShutdownOnDrop<'a>(&'a Shared);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        let mut ctl = self.0.ctl.lock();
        ctl.shutdown = true;
        drop(ctl);
        self.0.ready.notify_all();
    }
}

/// Runs `kernel(worker, level, state)` for every worker on every level of
/// `levels` (in order), with a full barrier between consecutive levels, on a
/// pool of `states.len()` workers spawned once. Worker `w` exclusively owns
/// `states[w]` for the whole call; shared table access must go through the
/// caller's own synchronization (see `wavefront::SyncCell`). Returns the
/// states (input order) and the park/wake counters.
///
/// With a single state or an empty level range no threads are spawned and
/// the counters stay zero — the sequential fallback is the kernel loop.
///
/// A kernel panic unwinds out of this call (see [`run_levels_catching`] for
/// the variant that hands the states back first).
pub fn run_levels<S, F>(states: Vec<S>, levels: Range<u32>, kernel: F) -> (Vec<S>, PoolCounters)
where
    S: Send,
    F: Fn(usize, u32, &mut S) + Sync,
{
    let (states, counters, panicked) = run_levels_catching(states, levels, kernel);
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    (states, counters)
}

/// [`run_levels`] that survives kernel panics: the pool is wound down, every
/// worker joined, and the first panic payload is **returned** instead of
/// re-raised — with all `states` intact. Callers that pool scratch buffers
/// in the states (the bucketed wavefront sweep) use this to return them to
/// their owner before re-raising, so a poisoned solve cannot leak scratch
/// and silently re-allocate on the next probe.
pub fn run_levels_catching<S, F>(
    mut states: Vec<S>,
    levels: Range<u32>,
    kernel: F,
) -> (Vec<S>, PoolCounters, Option<Box<dyn Any + Send>>)
where
    S: Send,
    F: Fn(usize, u32, &mut S) + Sync,
{
    let n = states.len();
    if n == 0 || levels.is_empty() {
        return (states, PoolCounters::default(), None);
    }
    if n == 1 {
        let state = &mut states[0];
        for level in levels {
            let _level_span = pcmax_trace::span("level", level as u64);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| kernel(0, level, state))) {
                return (states, PoolCounters::default(), Some(payload));
            }
        }
        return (states, PoolCounters::default(), None);
    }

    let shared = Shared {
        ctl: sync::Mutex::new(Ctl {
            epoch: 0,
            level: 0,
            remaining: 0,
            shutdown: false,
            panic: None,
            counters: PoolCounters::default(),
        }),
        ready: sync::Condvar::new(),
        done: sync::Condvar::new(),
    };
    let shared = &shared;
    let kernel = &kernel;

    // Leader keeps state 0; workers 1..n take theirs by value and hand them
    // back through the thread join.
    let mut worker_states: Vec<(usize, S)> = states.drain(1..).enumerate().collect();
    let mut leader_state = states.pop().unwrap_or_else(|| unreachable!("n >= 2"));

    let mut counters = PoolCounters::default();
    let mut panicked = None;
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(shared);
        let handles: Vec<_> = worker_states
            .drain(..)
            .map(|(i, mut state)| {
                let (task, id) = sync::fork(move || {
                    worker_loop(shared, kernel, i + 1, &mut state);
                    state
                });
                (scope.spawn(task), id)
            })
            .collect();

        for level in levels {
            // The level span covers release through barrier completion, so
            // its duration is the true per-level critical path.
            let _level_span = pcmax_trace::span("level", level as u64);
            // Release the level to everyone (leader included).
            {
                let mut ctl = shared.ctl.lock();
                ctl.epoch += 1;
                ctl.level = level;
                ctl.remaining = n;
            }
            shared.ready.notify_all();

            // The leader is worker 0: do its share, then barrier-wait.
            run_one(shared, kernel, 0, level, &mut leader_state);
            let mut ctl = shared.ctl.lock();
            while ctl.remaining > 0 {
                ctl.counters.parks += 1;
                sync::trace_park(0);
                ctl = shared.done.wait(ctl);
                sync::trace_wake(0);
                ctl.counters.wakes += 1;
            }
            if ctl.panic.is_some() {
                // Leave the loop with the pool intact; the guard + joins
                // below wind everything down before the payload is re-raised.
                break;
            }
        }

        // Normal or panic exit: park no one, wake everyone, join in order.
        drop(guard);
        for (handle, id) in handles {
            let state = match sync::join_with(id, || handle.join()) {
                Ok(state) => state,
                // The worker closure itself cannot panic (kernel panics are
                // caught and stashed), so a join error is re-raised as-is.
                Err(payload) => resume_unwind(payload),
            };
            states.push(state);
        }
        let mut ctl = shared.ctl.lock();
        counters = ctl.counters;
        panicked = ctl.panic.take();
    });

    states.insert(0, leader_state);
    (states, counters, panicked)
}

/// The parked-worker loop: wait for a fresh epoch (or shutdown), sweep the
/// released level, report completion, repeat.
fn worker_loop<S, F>(shared: &Shared, kernel: &F, worker: usize, state: &mut S)
where
    F: Fn(usize, u32, &mut S) + Sync,
{
    let mut seen_epoch = 0u64;
    loop {
        let level;
        {
            let mut ctl = shared.ctl.lock();
            while !ctl.shutdown && ctl.epoch == seen_epoch {
                ctl.counters.parks += 1;
                sync::trace_park(worker);
                ctl = shared.ready.wait(ctl);
                sync::trace_wake(worker);
                ctl.counters.wakes += 1;
            }
            if ctl.epoch == seen_epoch {
                // Shutdown with no pending epoch: every released barrier was
                // already completed by this worker.
                return;
            }
            seen_epoch = ctl.epoch;
            level = ctl.level;
            if ctl.shutdown {
                // A level was released but a panic (leader's or a peer's)
                // raised shutdown before this worker started it. The leader
                // is barrier-waiting on `remaining`, so complete the
                // handshake — skipping the kernel — then exit. Without this
                // the leader would wait forever on a worker that already
                // left.
                ctl.remaining -= 1;
                let finished = ctl.remaining == 0;
                drop(ctl);
                if finished {
                    shared.done.notify_one();
                }
                return;
            }
        }
        run_one(shared, kernel, worker, level, state);
    }
}

/// Runs one worker's share of one level, catching a kernel panic into
/// `Ctl::panic`, and performs the completion handshake either way (so the
/// leader's barrier never hangs on a panicking worker).
fn run_one<S, F>(shared: &Shared, kernel: &F, worker: usize, level: u32, state: &mut S)
where
    F: Fn(usize, u32, &mut S) + Sync,
{
    let result = catch_unwind(AssertUnwindSafe(|| kernel(worker, level, state)));
    let mut ctl = shared.ctl.lock();
    if let Err(payload) = result {
        ctl.panic.get_or_insert(payload);
        // Stop releasing further levels; parked peers wake and exit.
        ctl.shutdown = true;
    }
    ctl.remaining -= 1;
    let finished = ctl.remaining == 0;
    let abort = ctl.shutdown;
    drop(ctl);
    if finished {
        shared.done.notify_one();
    }
    if abort {
        shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Each worker sums `worker · 1000 + level` into its own state; the
    /// result is deterministic and exercises every barrier.
    fn sweep(workers: usize, levels: Range<u32>) -> (Vec<u64>, PoolCounters) {
        let states = vec![0u64; workers];
        run_levels(states, levels, |w, l, acc| {
            *acc += (w as u64) * 1000 + l as u64;
        })
    }

    #[test]
    fn all_workers_see_every_level_in_order() {
        for workers in [1usize, 2, 3, 4] {
            let (states, counters) = sweep(workers, 0..6);
            let level_sum: u64 = (0..6).sum();
            for (w, &acc) in states.iter().enumerate() {
                assert_eq!(acc, (w as u64) * 1000 * 6 + level_sum, "worker {w}");
            }
            assert_eq!(counters.parks, counters.wakes, "workers = {workers}");
        }
    }

    #[test]
    fn single_worker_and_empty_levels_spawn_nothing() {
        let (states, counters) = sweep(1, 0..5);
        assert_eq!(states, vec![(0..5).sum::<u64>()]);
        assert_eq!(counters, PoolCounters::default());
        let (states, counters) = sweep(4, 3..3);
        assert_eq!(states, vec![0; 4]);
        assert_eq!(counters, PoolCounters::default());
    }

    #[test]
    fn levels_are_barriered_not_racing() {
        // The barrier guarantees no worker starts level l+1 before every
        // worker finished l, so the max level any kernel has observed can
        // never exceed the level it is currently running.
        let seen = AtomicU64::new(0);
        let (_states, _) = run_levels(vec![(); 4], 0..32, |_w, l, ()| {
            let prev = seen.fetch_max(l as u64, Ordering::SeqCst);
            assert!(prev <= l as u64, "barrier violation: saw {prev} during {l}");
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_winds_down() {
        let caught = std::panic::catch_unwind(|| {
            run_levels(vec![0u32; 3], 0..8, |w, l, _s| {
                if w == 2 && l == 3 {
                    panic!("kernel exploded at level 3");
                }
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("kernel exploded"));
    }

    #[test]
    fn catching_variant_returns_every_state_after_a_panic() {
        for workers in [1usize, 3] {
            let (states, _counters, panicked) =
                run_levels_catching(vec![7u32; workers], 0..8, |w, l, s| {
                    *s += 1;
                    if w == workers - 1 && l == 2 {
                        panic!("kernel exploded mid-sweep");
                    }
                });
            let payload = panicked.expect("panic payload must be handed back");
            assert_eq!(states.len(), workers, "no state may be lost to unwinding");
            assert!(states.iter().all(|&s| s > 7), "every worker ran levels");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("kernel exploded"));
        }
    }

    #[test]
    fn leader_panic_propagates_too() {
        let caught = std::panic::catch_unwind(|| {
            run_levels(vec![0u32; 2], 0..4, |w, l, _s| {
                if w == 0 && l == 1 {
                    panic!("leader kernel exploded");
                }
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn parks_balance_wakes_even_with_many_levels() {
        let (_, counters) = sweep(4, 0..64);
        assert!(counters.parks > 0, "a 4-worker pool must actually park");
        assert_eq!(counters.parks, counters.wakes);
    }
}

//! The one worker pool of the wavefront DP: workers are spawned **once per
//! sweep** and meet at one barrier after every anti-diagonal level, so a
//! sweep pays one spawn/join however many levels it has. The barrier is one
//! [`sync::Mutex`] and one [`sync::Condvar`], so the `pcmax-audit` race
//! detector observes a lock-induced happens-before edge at every level —
//! the same edges real hardware gets from the mutex, so "audit passes"
//! transfers to the release build.
//!
//! ## Level barrier
//!
//! Every worker — the caller as worker 0, plus the `n − 1` spawned ones —
//! runs the same loop over the levels: its share of the level under
//! `catch_unwind`, then one arrival at the barrier, as the threads of the
//! paper's `parallel for` meet at its implicit barrier. The last worker to
//! arrive resets `Ctl::arrived`, bumps `Ctl::generation`, sets `Ctl::stop`
//! if a kernel panic has been stashed in `Ctl::panic`, and `notify_all`s;
//! the others wait until the generation moves, which makes the wait immune
//! to spurious wakeups.
//!
//! The generation can move only once while a worker waits, since the next
//! barrier needs that worker too, so the `stop` a waiter reads is the one
//! set at its own barrier. A waiter must not ask whether `panic` is set
//! instead: a peer may already have stashed a panic at the next level's
//! barrier, and a waiter that left on it would strand that peer. On `stop`
//! every worker leaves after the same level, and the payload is re-raised
//! only after every worker has been joined.
//!
//! If the OS refuses to spawn a worker, the barrier counts only the workers
//! already started (`Ctl::n`) and the spawn error is stashed like a kernel
//! panic, so they all leave after the first level and the error is
//! re-raised; no worker waits for one that never started.

use crate::sync;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Park/wake accounting for one `run_levels` call that returns, surfaced
/// through `SolveStats`. Every entered condvar wait returns before the pool
/// winds down, so `parks == wakes` — asserted in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Barrier waits entered. The last worker to arrive at a level never
    /// waits, so a level parks at most `n − 1` workers, once each (a
    /// spurious wakeup re-enters the wait and counts again).
    pub parks: u64,
    /// Condvar waits returned from.
    pub wakes: u64,
}

/// The barrier's state, guarded by the one `sync::Mutex`.
struct Ctl {
    /// Workers that arrive at every barrier, worker 0 included: the pool's
    /// size, less the workers whose spawn was refused.
    n: usize,
    /// Workers that have reached the current barrier.
    arrived: usize,
    /// Barriers completed; a waiter leaves once it moves.
    generation: u64,
    /// First kernel panic payload; re-raised after every worker is joined.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by the last arrival of a barrier when `panic` is set: every
    /// worker leaves after this level.
    stop: bool,
    counters: PoolCounters,
}

struct Barrier {
    ctl: sync::Mutex<Ctl>,
    /// Last arrival → waiters: the generation moved.
    moved: sync::Condvar,
}

impl Barrier {
    /// Worker `worker`'s loop: its share of each level, then the barrier.
    fn run<S, F>(&self, kernel: &F, worker: usize, levels: Range<u32>, state: &mut S)
    where
        F: Fn(usize, u32, &mut S) + Sync,
    {
        for level in levels {
            // Worker 0's span covers its share and the barrier, so its
            // duration is the level's critical path.
            let _level_span = (worker == 0).then(|| pcmax_trace::span("level", level as u64));
            let result = catch_unwind(AssertUnwindSafe(|| kernel(worker, level, state)));
            if self.arrive(worker, result.err()) {
                return;
            }
        }
    }

    /// Arrives at the current barrier, stashing `panicked`, and returns once
    /// every worker has arrived: the `stop` set by the barrier's last
    /// arrival.
    fn arrive(&self, worker: usize, panicked: Option<Box<dyn Any + Send>>) -> bool {
        let mut ctl = self.ctl.lock();
        if let Some(payload) = panicked {
            ctl.panic.get_or_insert(payload);
        }
        ctl.arrived += 1;
        if ctl.arrived == ctl.n {
            ctl.arrived = 0;
            ctl.generation += 1;
            ctl.stop = ctl.panic.is_some();
            let stop = ctl.stop;
            drop(ctl);
            self.moved.notify_all();
            return stop;
        }
        let generation = ctl.generation;
        while ctl.generation == generation {
            ctl.counters.parks += 1;
            sync::trace_park(worker);
            ctl = self.moved.wait(ctl);
            sync::trace_wake(worker);
            ctl.counters.wakes += 1;
        }
        ctl.stop
    }

    /// The spawn of worker `started` was refused: from now on only the
    /// `started` workers already running (worker 0 included) arrive, and the
    /// error is stashed as the payload, so they all leave after the first
    /// level. No barrier has completed yet, as worker 0 arrives only after
    /// the spawns.
    fn refuse(&self, started: usize, err: std::io::Error) {
        let mut ctl = self.ctl.lock();
        ctl.n = started;
        let payload = format!("failed to spawn pool worker {started}: {err}");
        ctl.panic.get_or_insert(Box::new(payload));
    }
}

/// Spawns pool worker `worker` on `scope`. Unit tests can make it refuse a
/// chosen worker, as the OS refuses a thread it cannot create.
fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    worker: usize,
    task: impl FnOnce() -> T + Send + 'scope,
) -> std::io::Result<std::thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    if tests::REFUSED.with(std::cell::Cell::get) == Some(worker) {
        return Err(std::io::Error::other("refused by the test"));
    }
    let _ = worker;
    std::thread::Builder::new().spawn_scoped(scope, task)
}

/// Runs `kernel(worker, level, state)` for every worker on every level of
/// `levels` (in order), with a full barrier between consecutive levels, on a
/// pool of `states.len()` workers spawned once. Worker `w` borrows
/// `states[w]` exclusively for the whole call, so every state stays with the
/// caller whatever happens; shared table access must go through the
/// caller's own synchronization (see `wavefront::SyncCell`). Returns the
/// park/wake counters.
///
/// With a single state or an empty level range no threads are spawned and
/// the counters stay zero: the sequential fallback is a plain kernel loop,
/// which a kernel panic unwinds directly.
///
/// On the pool, a kernel panic winds every worker down after the same
/// level, and the first payload is re-raised once every worker has been
/// joined. A refused worker spawn is re-raised the same way, its error
/// message as the payload.
pub fn run_levels<S, F>(states: &mut [S], levels: Range<u32>, kernel: F) -> PoolCounters
where
    S: Send,
    F: Fn(usize, u32, &mut S) + Sync,
{
    let n = states.len();
    if n == 0 || levels.is_empty() {
        return PoolCounters::default();
    }
    if n == 1 {
        for level in levels {
            let _level_span = pcmax_trace::span("level", level as u64);
            kernel(0, level, &mut states[0]);
        }
        return PoolCounters::default();
    }

    let barrier = Barrier {
        ctl: sync::Mutex::new(Ctl {
            n,
            arrived: 0,
            generation: 0,
            panic: None,
            stop: false,
            counters: PoolCounters::default(),
        }),
        moved: sync::Condvar::new(),
    };
    let barrier = &barrier;
    let kernel = &kernel;
    // The caller runs worker 0 on state 0; worker w borrows state w.
    let (first, rest) = states.split_at_mut(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(rest.len());
        for (i, state) in rest.iter_mut().enumerate() {
            let levels = levels.clone();
            let (task, id) = sync::fork(move || barrier.run(kernel, i + 1, levels, state));
            match spawn(scope, i + 1, task) {
                Ok(handle) => handles.push((handle, id)),
                Err(err) => {
                    barrier.refuse(i + 1, err);
                    break;
                }
            }
        }
        barrier.run(kernel, 0, levels, &mut first[0]);
        for (handle, id) in handles {
            // The worker loop itself cannot panic (kernel panics are caught
            // and stashed), so a join error is re-raised as-is.
            if let Err(payload) = sync::join_with(id, || handle.join()) {
                resume_unwind(payload);
            }
        }
    });
    let mut ctl = barrier.ctl.lock();
    let (counters, panicked) = (ctl.counters, ctl.panic.take());
    drop(ctl);
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// The worker whose spawn [`spawn`] refuses on this thread, if any.
        pub(super) static REFUSED: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    /// Each worker sums `worker · 1000 + level` into its own state; the
    /// result is deterministic and exercises every barrier.
    fn sweep(workers: usize, levels: Range<u32>) -> (Vec<u64>, PoolCounters) {
        let mut states = vec![0u64; workers];
        let counters = run_levels(&mut states, levels, |w, l, acc| {
            *acc += (w as u64) * 1000 + l as u64;
        });
        (states, counters)
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
        run_levels(&mut [(); 4], 0..32, |_w, l, ()| {
            let prev = seen.fetch_max(l as u64, Ordering::SeqCst);
            assert!(prev <= l as u64, "barrier violation: saw {prev} during {l}");
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_winds_down() {
        let caught = std::panic::catch_unwind(|| {
            run_levels(&mut [0u32; 3], 0..8, |w, l, _s| {
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
    fn a_panic_leaves_every_state_with_the_caller() {
        for workers in [1usize, 3] {
            let mut states = vec![7u32; workers];
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_levels(&mut states, 0..8, |w, l, s| {
                    *s += 1;
                    if w == workers - 1 && l == 2 {
                        panic!("kernel exploded mid-sweep");
                    }
                })
            }));
            let payload = caught.expect_err("panic must propagate");
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
            run_levels(&mut [0u32; 2], 0..4, |w, l, _s| {
                if w == 0 && l == 1 {
                    panic!("leader kernel exploded");
                }
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn a_refused_spawn_is_handed_back_without_a_hang() {
        for refused in 1..4usize {
            // The pool runs on a helper thread, so a hang fails the test
            // instead of wedging it.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                REFUSED.with(|r| r.set(Some(refused)));
                let mut states = vec![0u32; 4];
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_levels(&mut states, 0..5, |_, _, s| *s += 1)
                }));
                let _ = tx.send((states, caught.err()));
            });
            let (states, panicked) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a refused spawn must not hang the pool");
            let payload = panicked.expect("the spawn error must be re-raised");
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("failed to spawn pool worker"), "{msg}");
            // The workers already started ran the first level only; the
            // others never ran.
            let expected: Vec<u32> = (0..4).map(|w| u32::from(w < refused)).collect();
            assert_eq!(states, expected, "refused = {refused}");
        }
    }

    #[test]
    fn parks_balance_wakes_even_with_many_levels() {
        let (_, counters) = sweep(4, 0..64);
        assert!(counters.parks > 0, "a 4-worker pool must actually park");
        assert_eq!(counters.parks, counters.wakes);
    }
}

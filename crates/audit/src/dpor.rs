//! Dynamic partial-order reduction (DPOR) with sleep sets: systematic
//! schedule exploration on top of the controlled (scripted) mode of
//! `pcmax_parallel::sync::audit`.
//!
//! The explorer runs the workload repeatedly under
//! [`explore_scripted`](pcmax_parallel::sync::audit::explore_scripted),
//! maintaining a stack of decision points. After each run it walks the
//! trace's dependent event pairs: for a pair `(e_j, e_i)` on different
//! threads that could occur in either order (e_j does *not* happen-before
//! `thread(e_i)`'s previous event), it adds `thread(e_i)` to the backtrack
//! set of the decision that granted `e_j` — the classic Flanagan–Godefroid
//! rule. Exploration then resumes from the deepest decision with an
//! untried, non-slept backtrack candidate.
//!
//! **Sleep sets** prune the redundant half of each flip: when the explorer
//! abandons a choice `t` at a decision point, `t` is slept there, and child
//! points inherit the sleep set minus any thread whose next operation
//! depends on the transition just taken. A schedule whose only difference
//! from an explored one is the order of *independent* steps would begin
//! with a slept thread and is never run — so each Mazurkiewicz trace
//! (equivalence class of schedules under commuting adjacent independent
//! steps) is explored essentially once.
//!
//! Every explored schedule is race-checked and blocking-checked. On the
//! first race the explorer shrinks the decision script to a minimal
//! reproducing schedule ([`run_schedule`] of that script deterministically
//! re-raises the race) and stops. Model deadlocks (every live thread
//! blocked on a lock/condvar) are recorded per schedule and exploration
//! continues.

use crate::blocking::{analyze, BlockingReport, LostWakeup};
use crate::race::{detect, event_clocks, ordered, Race};
use pcmax_parallel::sync::audit::{explore_scripted, Op, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// One run of the workload under a schedule script.
pub struct Run<R> {
    /// The workload's return value.
    pub result: R,
    /// The serialized trace.
    pub trace: Trace,
    /// Races found by [`detect`].
    pub races: Vec<Race>,
    /// Lock-order / lost-wakeup analysis of the trace.
    pub blocking: BlockingReport,
}

/// Replays `workload` under the decision script `choices` (off-script
/// decisions fall back to deterministic round-robin) and checks the trace.
/// The deterministic repro primitive: the same schedule always yields the
/// same trace, races included.
///
/// # Panics
/// Propagates workload panics, including the scheduler's
/// `audit model deadlock` panic.
pub fn run_schedule<R>(choices: &[usize], workload: impl FnOnce() -> R) -> Run<R> {
    let (result, trace) = explore_scripted(choices, workload);
    let races = detect(&trace);
    let blocking = analyze(&trace);
    Run {
        result,
        trace,
        races,
        blocking,
    }
}

/// A minimal replayable counterexample: feeding `schedule` to
/// [`run_schedule`] deterministically reproduces `race`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunk decision script.
    pub schedule: Vec<usize>,
    /// The race it reproduces.
    pub race: Race,
}

/// Coverage report of one exhaustive exploration.
#[derive(Debug, Clone, Default)]
pub struct DporReport {
    /// Schedules actually run.
    pub schedules: usize,
    /// Total events across all runs.
    pub events: usize,
    /// Maximum number of threads seen in a single run.
    pub max_threads: usize,
    /// Deepest decision stack reached.
    pub decision_points: usize,
    /// Backtrack candidates pruned by sleep sets (redundant-interleaving
    /// count the search did not pay for).
    pub sleep_pruned: usize,
    /// Races found, each with the full decision script of the run.
    pub races: Vec<(Vec<usize>, Race)>,
    /// Shrunk repro for the first race found.
    pub counterexample: Option<Counterexample>,
    /// Lock-order cycles, each with the run's decision script.
    pub cycles: Vec<(Vec<usize>, Vec<usize>)>,
    /// Lost-wakeup candidates, each with the run's decision script.
    pub lost_wakeups: Vec<(Vec<usize>, LostWakeup)>,
    /// Schedules that model-deadlocked, with the scheduler's message.
    pub deadlocks: Vec<(Vec<usize>, String)>,
    /// True iff the search space was exhausted: no budget cut-off, no early
    /// stop on a race, and no model deadlock (a deadlocked run loses its
    /// trace, so the backtrack points it would have added were never
    /// explored).
    pub complete: bool,
}

impl DporReport {
    /// True when exploration finished with nothing to report.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
            && self.cycles.is_empty()
            && self.lost_wakeups.is_empty()
            && self.deadlocks.is_empty()
    }
}

/// One decision point on the exploration stack.
struct Point {
    /// Runnable threads at this decision (fixed: a pure function of the
    /// schedule prefix).
    enabled: Vec<usize>,
    /// Choice taken by the run currently being extended.
    chosen: usize,
    /// Choices already explored from here.
    done: BTreeSet<usize>,
    /// Threads some dependent pair wants tried from here.
    backtrack: BTreeSet<usize>,
    /// Threads whose exploration from here is provably redundant.
    sleep: BTreeSet<usize>,
    /// Each enabled thread's next operation from this point (first event it
    /// issued at or after this decision, in the run that created the point).
    next_op: BTreeMap<usize, Op>,
}

/// Exhaustively explores the workload's schedules, up to `budget` runs.
///
/// `check` is invoked with the decision script and result of every
/// race-free schedule; panic inside it to assert schedule-independent
/// postconditions (determinism of the workload's output, say).
///
/// Stops early on the first race (after shrinking a counterexample —
/// `complete` stays false); records model deadlocks and keeps going, but a
/// sweep with a deadlock is never `complete`.
pub fn explore_exhaustive<R>(
    budget: usize,
    workload: impl Fn() -> R,
    mut check: impl FnMut(&[usize], &R),
) -> DporReport {
    let mut report = DporReport::default();
    let mut stack: Vec<Point> = Vec::new();
    let mut script: Vec<usize> = Vec::new();
    loop {
        if report.schedules >= budget {
            return report; // budget exhausted: complete stays false
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_schedule(&script, &workload)
        }));
        report.schedules += 1;
        match outcome {
            Ok(run) => {
                report.events += run.trace.events.len();
                report.max_threads = report.max_threads.max(run.trace.threads);
                let full: Vec<usize> = run.trace.decisions.iter().map(|d| d.chosen).collect();
                if !run.races.is_empty() {
                    let race = run.races[0].clone();
                    for r in run.races {
                        report.races.push((full.clone(), r));
                    }
                    let schedule = shrink_schedule(&full, &workload);
                    report.counterexample = Some(Counterexample { schedule, race });
                    return report;
                }
                check(&full, &run.result);
                for c in &run.blocking.cycles {
                    report.cycles.push((full.clone(), c.clone()));
                }
                for lw in &run.blocking.lost_wakeups {
                    report.lost_wakeups.push((full.clone(), lw.clone()));
                }
                sync_stack(&mut stack, &run.trace);
                report.decision_points = report.decision_points.max(stack.len());
                add_backtracks(&mut stack, &run.trace);
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if msg.contains("model deadlock") {
                    // The trace is unavailable (the run panicked), so no
                    // backtrack extraction: record and move on.
                    report.deadlocks.push((script.clone(), msg));
                } else {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        // Select the next schedule: the deepest decision point with an
        // unexplored, non-slept backtrack candidate; pop exhausted points.
        loop {
            let Some(point) = stack.last_mut() else {
                report.complete = report.deadlocks.is_empty();
                return report;
            };
            point.sleep.insert(point.chosen);
            let candidate = point
                .backtrack
                .iter()
                .copied()
                .find(|t| !point.done.contains(t) && !point.sleep.contains(t));
            match candidate {
                Some(t) => {
                    point.done.insert(t);
                    point.chosen = t;
                    script = stack.iter().map(|p| p.chosen).collect();
                    break;
                }
                None => {
                    report.sleep_pruned += point
                        .backtrack
                        .iter()
                        .filter(|t| !point.done.contains(t))
                        .count();
                    stack.pop();
                }
            }
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `starts[d]` = first event index granted by decision `>= d` (skipping the
/// pre-first-decision sentinel prefix); `starts[decisions.len()]` = end.
fn decision_starts(trace: &Trace) -> Vec<usize> {
    let n = trace.decisions.len();
    let ed = &trace.event_decisions;
    let mut starts = Vec::with_capacity(n + 1);
    let mut e = 0usize;
    for d in 0..=n {
        while e < ed.len() && (ed[e] == usize::MAX || ed[e] < d) {
            e += 1;
        }
        starts.push(e);
    }
    starts
}

/// First op each thread issues at or after decision `d`.
fn next_ops_at(trace: &Trace, d: usize, starts: &[usize]) -> BTreeMap<usize, Op> {
    let mut map = BTreeMap::new();
    for event in &trace.events[starts[d]..] {
        map.entry(event.thread).or_insert(event.op);
    }
    map
}

/// Aligns the stack with a finished run: verifies the replayed prefix and
/// pushes a fresh [`Point`] for every decision beyond it, computing the
/// inherited sleep set.
fn sync_stack(stack: &mut Vec<Point>, trace: &Trace) {
    let starts = decision_starts(trace);
    for (d, decision) in trace.decisions.iter().enumerate() {
        if d < stack.len() {
            debug_assert_eq!(
                stack[d].chosen, decision.chosen,
                "scripted replay diverged from the exploration stack"
            );
            continue;
        }
        // Sleep inheritance: a thread slept at the parent stays slept here
        // iff its next operation is independent of everything the parent's
        // transition executed — running it first would commute to an
        // already-explored schedule. Unknown next ops are (conservatively)
        // woken.
        let sleep = match stack.last() {
            Some(parent) => {
                let lo = starts[d - 1];
                let hi = starts[d];
                let parent_ops = &trace.events[lo..hi];
                parent
                    .sleep
                    .iter()
                    .copied()
                    .filter(|t| match parent.next_op.get(t) {
                        Some(op) => parent_ops.iter().all(|e| !dependent(&e.op, op)),
                        None => false,
                    })
                    .collect()
            }
            None => BTreeSet::new(),
        };
        stack.push(Point {
            enabled: decision.enabled.clone(),
            chosen: decision.chosen,
            done: BTreeSet::from([decision.chosen]),
            backtrack: BTreeSet::from([decision.chosen]),
            sleep,
            next_op: next_ops_at(trace, d, &starts),
        });
    }
}

/// The Flanagan–Godefroid backtrack rule over the run's trace.
fn add_backtracks(stack: &mut [Point], trace: &Trace) {
    let events = &trace.events;
    let ed = &trace.event_decisions;
    let clocks = event_clocks(trace);
    // prev_same[i]: index of thread(i)'s previous event, if any.
    let mut last_of: Vec<Option<usize>> = vec![None; trace.threads];
    let mut prev_same: Vec<Option<usize>> = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        prev_same.push(last_of[event.thread]);
        last_of[event.thread] = Some(i);
    }
    for i in 0..events.len() {
        let ti = events[i].thread;
        for j in (0..i).rev() {
            if events[j].thread == ti || !dependent(&events[j].op, &events[i].op) {
                continue;
            }
            // The pair is reorderable iff e_j does not happen-before t_i's
            // *previous* event — if it does, t_i could not reach e_i
            // without e_j and no schedule flips them here.
            let flippable = match prev_same[i] {
                Some(p) => !ordered(&clocks, events, j, p),
                None => true,
            };
            if flippable {
                let d = ed[j];
                // Sentinel events (pre-first-decision) have no decision
                // point to backtrack; they are always thread 0's prefix and
                // ordered before everything by the spawn edges anyway.
                if d != usize::MAX {
                    let point = &mut stack[d];
                    if point.enabled.contains(&ti) {
                        point.backtrack.insert(ti);
                    } else {
                        // t_i wasn't runnable at e_j's decision: request
                        // every enabled thread (one of them enables t_i).
                        for &q in &point.enabled {
                            point.backtrack.insert(q);
                        }
                    }
                }
            }
            break; // only the latest dependent predecessor matters
        }
    }
}

/// Semantic dependence of two operations (can their order change the
/// program state or the happens-before relation?). Conservative for
/// condvar ops: all pairs on the same condvar are dependent.
fn dependent(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (
            Op::Read { loc: x } | Op::Write { loc: x },
            Op::Read { loc: y } | Op::Write { loc: y },
        ) => x == y && (matches!(a, Op::Write { .. }) || matches!(b, Op::Write { .. })),
        (
            Op::AtomicLoad { obj: x, .. }
            | Op::AtomicStore { obj: x, .. }
            | Op::AtomicRmw { obj: x, .. },
            Op::AtomicLoad { obj: y, .. }
            | Op::AtomicStore { obj: y, .. }
            | Op::AtomicRmw { obj: y, .. },
        ) => x == y && !(matches!(a, Op::AtomicLoad { .. }) && matches!(b, Op::AtomicLoad { .. })),
        (
            Op::LockAcquire { obj: x } | Op::LockRelease { obj: x },
            Op::LockAcquire { obj: y } | Op::LockRelease { obj: y },
        ) => x == y,
        (
            Op::CondWait { cv: x, .. } | Op::Notify { cv: x, .. } | Op::CondWake { cv: x },
            Op::CondWait { cv: y, .. } | Op::Notify { cv: y, .. } | Op::CondWake { cv: y },
        ) => x == y,
        _ => false,
    }
}

/// Cap on workload replays during shrinking, so pathological schedules
/// cannot stall the explorer.
const SHRINK_RUN_CAP: usize = 256;

/// Shrinks a racy decision script: first the shortest reproducing prefix
/// (the deterministic round-robin fallback completes the run), then greedy
/// single-decision removal. Every candidate is validated by replaying.
pub fn shrink_schedule<R>(full: &[usize], workload: &impl Fn() -> R) -> Vec<usize> {
    let mut runs = 0usize;
    let mut reproduces = |candidate: &[usize]| -> bool {
        if runs >= SHRINK_RUN_CAP {
            return false;
        }
        runs += 1;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (_, trace) = explore_scripted(candidate, workload);
            !detect(&trace).is_empty()
        }))
        .unwrap_or(false)
    };
    let mut best: Vec<usize> = full.to_vec();
    for p in 0..=full.len() {
        if reproduces(&full[..p]) {
            best = full[..p].to_vec();
            break;
        }
    }
    let mut i = 0;
    while i < best.len() {
        let mut candidate = best.clone();
        candidate.remove(i);
        if reproduces(&candidate) {
            best = candidate;
        } else {
            i += 1;
        }
    }
    best
}

/// Deliberately concurrency-buggy and concurrency-clean microworkloads
/// shared by the `pcmax-audit dpor` CLI self-checks and the test suite.
pub mod workloads {
    use pcmax_parallel::sync::{fork, join_with, trace_read, trace_write, AtomicCounter};
    use std::sync::atomic::Ordering;

    /// Hand-derived count of non-equivalent schedules of
    /// [`fork_join_two_workers`]: the only dependent cross-thread pair is
    /// the two AcqRel RMWs on the shared counter, so exactly their two
    /// orders exist.
    pub const FORK_JOIN_TWO_WORKERS_SCHEDULES: usize = 2;

    /// Two workers, each writing a private location and bumping a shared
    /// AcqRel counter; the parent joins both and reads the total.
    pub fn fork_join_two_workers() -> usize {
        let ctr = AtomicCounter::new(0);
        std::thread::scope(|s| {
            let (ta, ia) = fork(|| {
                trace_write(100);
                ctr.fetch_add(1, Ordering::AcqRel);
            });
            let (tb, ib) = fork(|| {
                trace_write(101);
                ctr.fetch_add(1, Ordering::AcqRel);
            });
            let ha = s.spawn(ta);
            let hb = s.spawn(tb);
            join_with(ia, || ha.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
            join_with(ib, || hb.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
        });
        ctr.load(Ordering::Acquire)
    }

    /// Hand-derived schedule count for [`triple_rmw_three_workers`]: three
    /// pairwise-dependent RMWs, one per worker — all 3! = 6 orders.
    pub const TRIPLE_RMW_THREE_WORKERS_SCHEDULES: usize = 6;

    /// Three workers, one AcqRel RMW each on a shared counter.
    pub fn triple_rmw_three_workers() -> usize {
        let ctr = AtomicCounter::new(0);
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..3 {
                let (task, id) = fork(|| {
                    ctr.fetch_add(1, Ordering::AcqRel);
                });
                joins.push((s.spawn(task), id));
            }
            for (h, id) in joins {
                join_with(id, || h.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
            }
        });
        ctr.load(Ordering::Acquire)
    }

    /// An injected *order-dependent* race: worker A increments a relaxed
    /// counter three times and writes location 7 only if it observed the
    /// strict alternation `[1, 3, 5]`; worker B reads location 7 first and
    /// then increments three times. The plain accesses to 7 race (nothing
    /// synchronizes the relaxed counter), but only in the schedule class
    /// where the six RMWs alternate perfectly starting with B — about 1 in
    /// 20 of the interleavings DPOR enumerates, and far rarer under the
    /// geometric coin-flips of the seeded random scheduler.
    pub fn injected_rare_race() -> usize {
        let ctr = AtomicCounter::new(0);
        std::thread::scope(|s| {
            let (ta, ia) = fork(|| {
                let mut seen = [0usize; 3];
                for slot in &mut seen {
                    // audit:allow(relaxed): the injected bug under test —
                    // the gate must NOT publish, so the detector sees no
                    // edge between the racing plain accesses.
                    *slot = ctr.fetch_add(1, Ordering::Relaxed);
                }
                if seen == [1, 3, 5] {
                    trace_write(7);
                }
            });
            let (tb, ib) = fork(|| {
                trace_read(7);
                for _ in 0..3 {
                    // audit:allow(relaxed): see above — deliberately no
                    // release edge.
                    ctr.fetch_add(1, Ordering::Relaxed);
                }
            });
            let ha = s.spawn(ta);
            let hb = s.spawn(tb);
            join_with(ia, || ha.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
            join_with(ib, || hb.join()).unwrap_or_else(|p| std::panic::resume_unwind(p));
        });
        ctr.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::workloads::*;
    use super::*;

    #[test]
    fn two_worker_fork_join_matches_hand_derived_bound() {
        let report = explore_exhaustive(64, fork_join_two_workers, |_, &total| {
            assert_eq!(total, 2);
        });
        assert!(report.complete, "budget must not cut the search short");
        assert!(report.is_clean());
        assert_eq!(report.schedules, FORK_JOIN_TWO_WORKERS_SCHEDULES);
    }

    #[test]
    fn three_rmw_workers_explore_all_six_orders() {
        let report = explore_exhaustive(256, triple_rmw_three_workers, |_, &total| {
            assert_eq!(total, 3);
        });
        assert!(report.complete);
        assert!(report.is_clean());
        assert_eq!(report.schedules, TRIPLE_RMW_THREE_WORKERS_SCHEDULES);
    }

    #[test]
    fn dpor_finds_the_injected_rare_race() {
        let report = explore_exhaustive(512, injected_rare_race, |_, _| {});
        assert!(
            !report.races.is_empty(),
            "DPOR must reach the alternating schedule class"
        );
        let cx = report
            .counterexample
            .expect("counterexample must be shrunk");
        assert_eq!(cx.race.loc, 7);
    }

    #[test]
    fn shrunk_counterexample_replays_deterministically() {
        let report = explore_exhaustive(512, injected_rare_race, |_, _| {});
        let cx = report.counterexample.expect("race must be found");
        for _ in 0..3 {
            let replay = run_schedule(&cx.schedule, injected_rare_race);
            assert!(
                !replay.races.is_empty(),
                "minimal schedule must reproduce the race on every replay"
            );
            assert_eq!(replay.races[0].loc, cx.race.loc);
        }
    }

    #[test]
    fn a_deadlocked_sweep_is_not_reported_complete() {
        use pcmax_parallel::sync::{Condvar, Mutex};
        // Nobody notifies the condvar, so the first schedule deadlocks and
        // its trace, with every backtrack point it would add, is lost.
        let report = explore_exhaustive(
            64,
            || {
                let (lock, moved) = (Mutex::new(()), Condvar::new());
                drop(moved.wait(lock.lock()));
            },
            |_, _| {},
        );
        assert_eq!(report.deadlocks.len(), 1, "{report:?}");
        assert!(!report.complete, "{report:?}");
    }

    #[test]
    fn clean_workloads_report_no_blocking_findings() {
        let report = explore_exhaustive(64, fork_join_two_workers, |_, _| {});
        assert!(report.cycles.is_empty());
        assert!(report.lost_wakeups.is_empty());
        assert!(report.deadlocks.is_empty());
    }
}

//! Concurrency regression suite: replays ≥64 seeded interleavings of the
//! instrumented wavefront executors and asserts (a) no schedule races and
//! (b) every schedule produces the sequential solver's exact table, plus a
//! sanity check that the detector actually fires on a deliberately racy
//! executor and on the relaxed-flag publication anti-pattern.
//!
//! Compile with `cargo test -p pcmax-audit --features audit`; the whole
//! file vanishes without the feature.
#![cfg(feature = "audit")]

use pcmax_audit::explore::{run_seed, sweep};
use pcmax_parallel::wavefront::{bucketed_sweep_space, bucketed_sweep_space_with};
use pcmax_parallel::{sync, CellKernel, FaithfulDp, ParallelDp};
use pcmax_ptas::dp::{DpProblem, DpSolver, IterativeDp};
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::DpScratch;
use std::sync::atomic::Ordering;

/// The paper's worked example: 2 jobs of rounded size 2·2 and 3 of size 4·2,
/// capacity 30 — Table I of the paper, 12 entries over 6 wavefront levels.
fn paper_problem() -> DpProblem {
    let mut counts = vec![0u32; 16];
    counts[2] = 2;
    counts[4] = 3;
    DpProblem::new(counts, 2, 30, 64)
}

/// Table I in row-major order (the sequential DP's exact values).
const PAPER_TABLE: [u16; 12] = [0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2];

/// Runs the persistent-pool bucketed sweep on a fresh level-major table and
/// returns the filled values (in row-major order) plus the scratch whose
/// counters record the pool's park/wake traffic.
fn sweep_values(threads: usize) -> (Vec<u16>, DpScratch) {
    let problem = paper_problem();
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("paper problem fits");
    let configs = problem.configs_with_offsets(&table);
    table.values[0] = 0;
    bucketed_sweep_space(
        &mut table,
        &PcmaxSpace::new(&configs),
        threads,
        &mut scratch,
    );
    (table.values_row_major(), scratch)
}

#[test]
fn wavefront_is_race_free_across_64_interleavings() {
    let report = sweep(
        1,
        64,
        || sweep_values(3).0,
        |seed, values| {
            assert_eq!(
                values.as_slice(),
                PAPER_TABLE,
                "seed {seed}: table diverged from the sequential DP"
            );
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "wavefront races found: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty() && report.lost_wakeups.is_empty(),
        "wavefront blocking findings: {:?} {:?}",
        report.lock_cycles,
        report.lost_wakeups
    );
    assert!(
        report.max_threads > 1,
        "instrumentation must actually see worker threads"
    );
    assert!(
        report.distinct_histories > 1,
        "seeds must explore more than one interleaving"
    );
}

#[test]
fn persistent_pool_park_wake_barrier_is_race_free() {
    // Exercises the pool's condvar handoff path specifically: every seeded
    // schedule must (a) produce the sequential table, (b) balance parks with
    // wakes (every entered wait returns), and (c) across the seed set the
    // barrier must actually park — i.e. the detector has seen the
    // park → notify → wake edge, not just uncontended handoffs.
    let total_parks = std::sync::atomic::AtomicU64::new(0);
    let report = sweep(
        300,
        64,
        || sweep_values(2),
        |seed, (values, scratch)| {
            assert_eq!(
                values.as_slice(),
                PAPER_TABLE,
                "seed {seed}: table diverged from the sequential DP"
            );
            assert_eq!(
                scratch.pool_parks, scratch.pool_wakes,
                "seed {seed}: a condvar wait was entered but never returned"
            );
            assert!(
                scratch.kernel_allocs <= 2,
                "seed {seed}: cell kernel allocated beyond its per-worker buffers"
            );
            total_parks.fetch_add(scratch.pool_parks, Ordering::Relaxed);
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "persistent pool races found: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty(),
        "persistent pool lock-order cycles found: {:?}",
        report.lock_cycles
    );
    assert!(
        report.lost_wakeups.is_empty(),
        "persistent pool lost-wakeup candidates found: {:?}",
        report.lost_wakeups
    );
    assert!(
        total_parks.load(Ordering::Relaxed) > 0,
        "64 schedules of a 2-thread pool must park at least once"
    );
    assert!(report.max_threads > 1);
}

/// The bucketed sweep with an explicitly pinned cell kernel. The adaptive
/// chunk planner pins itself static under `feature = "audit"` so explored
/// schedules stay replayable.
fn kernel_sweep_values(threads: usize, kernel: CellKernel) -> Vec<u16> {
    let problem = paper_problem();
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("paper problem fits");
    let configs = problem.configs_with_offsets(&table);
    let space = PcmaxSpace::new(&configs);
    table.values[0] = 0;
    bucketed_sweep_space_with(&mut table, &space, threads, &mut scratch, kernel);
    table.values_row_major()
}

#[test]
fn strip_kernel_is_race_free_and_matches_scalar_across_64_interleavings() {
    // Pins `CellKernel::Strip` explicitly (the other suites get it only as
    // the default) and cross-checks the scalar kernel under the *same*
    // explored schedule: the batched tile walk must stay race-free and
    // bit-identical regardless of how the pool's handoffs interleave.
    let report = sweep(
        900,
        64,
        || {
            (
                kernel_sweep_values(3, CellKernel::Strip),
                kernel_sweep_values(3, CellKernel::Scalar),
            )
        },
        |seed, (strip, scalar)| {
            assert_eq!(
                strip.as_slice(),
                PAPER_TABLE,
                "seed {seed}: strip kernel diverged from the sequential DP"
            );
            assert_eq!(
                strip, scalar,
                "seed {seed}: strip and scalar kernels disagree under exploration"
            );
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "strip kernel races found: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty() && report.lost_wakeups.is_empty(),
        "strip kernel blocking findings: {:?} {:?}",
        report.lock_cycles,
        report.lost_wakeups
    );
    assert!(report.max_threads > 1);
}

/// Non-increasing speed capacities for the Q replay: the fast machine takes
/// the paper's capacity 30, the slow one only 14, so the `step_allowed`
/// filter actually prunes transitions under exploration.
const Q_CAPS: [u64; 2] = [30, 14];

/// The bucketed sweep driven through the generalized `StateSpace` seam with
/// capacity filtering, on a fresh level-major table.
fn q_sweep_values(threads: usize) -> (Vec<u16>, DpScratch) {
    let problem = paper_problem();
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("paper problem fits");
    let configs = problem.configs_with_offsets(&table);
    let sizes = table.sizes.clone();
    let space = QSpace::new(&configs, &sizes, &Q_CAPS);
    table.values[0] = 0;
    bucketed_sweep_space(&mut table, &space, threads, &mut scratch);
    (table.values_row_major(), scratch)
}

#[test]
fn uniform_capacity_wavefront_is_race_free_across_64_interleavings() {
    // The serial engine on the same capacity-filtered space is the oracle:
    // every explored schedule of the persistent pool must reproduce its
    // table exactly and balance its park/wake traffic.
    let expected = {
        let problem = paper_problem();
        let mut table = problem.build_table().expect("paper problem fits");
        let configs = problem.configs_with_offsets(&table);
        let sizes = table.sizes.clone();
        serial_sweep(&mut table, &QSpace::new(&configs, &sizes, &Q_CAPS));
        table.values_row_major()
    };
    let total_parks = std::sync::atomic::AtomicU64::new(0);
    let report = sweep(
        700,
        64,
        || q_sweep_values(2),
        |seed, (values, scratch)| {
            assert_eq!(
                values, &expected,
                "seed {seed}: Q table diverged from the serial engine"
            );
            assert_eq!(
                scratch.pool_parks, scratch.pool_wakes,
                "seed {seed}: a condvar wait was entered but never returned"
            );
            total_parks.fetch_add(scratch.pool_parks, Ordering::Relaxed);
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "uniform wavefront races found: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty() && report.lost_wakeups.is_empty(),
        "uniform wavefront blocking findings: {:?} {:?}",
        report.lock_cycles,
        report.lost_wakeups
    );
    assert!(report.max_threads > 1);
    assert!(
        total_parks.load(Ordering::Relaxed) > 0,
        "64 schedules of a 2-thread pool must park at least once"
    );
}

#[test]
fn faithful_executor_is_race_free_across_64_interleavings() {
    // The paper-literal full scan writes in place on the same pool as the
    // production sweep: every explored schedule must stay race-free, balance
    // the pool's parks and wakes, and reproduce the sequential outcome.
    let expected = IterativeDp
        .solve(&paper_problem())
        .expect("sequential solve");
    let report = sweep(
        500,
        64,
        || {
            let mut scratch = DpScratch::new();
            let out = FaithfulDp::with_threads(3)
                .solve_in(&paper_problem(), &mut scratch)
                .expect("faithful solve");
            (out, scratch)
        },
        |seed, (out, scratch)| {
            assert_eq!(out, &expected, "seed {seed}: faithful outcome diverged");
            assert_eq!(
                scratch.pool_parks, scratch.pool_wakes,
                "seed {seed}: a condvar wait was entered but never returned"
            );
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "faithful sweep races found: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty() && report.lost_wakeups.is_empty(),
        "faithful sweep blocking findings: {:?} {:?}",
        report.lock_cycles,
        report.lost_wakeups
    );
    assert!(report.max_threads > 1);
}

#[test]
fn full_parallel_solver_matches_sequential_under_exploration() {
    let expected = IterativeDp
        .solve(&paper_problem())
        .expect("sequential solve");
    let report = sweep(
        200,
        16,
        || {
            ParallelDp::with_threads(2)
                .solve(&paper_problem())
                .expect("parallel solve")
        },
        |seed, out| {
            assert_eq!(out.machines, expected.machines, "seed {seed}");
        },
    );
    assert!(report.races.is_empty(), "races: {:?}", report.races);
}

#[test]
fn injected_racy_executor_is_detected() {
    // Two sibling workers write the same location with no ordering between
    // them — the canonical bug the level barrier prevents. The detector must
    // flag it under every schedule.
    for seed in 0..8 {
        let run = run_seed(seed, || {
            std::thread::scope(|s| {
                let (t1, id1) = sync::fork(|| sync::trace_write(0));
                let (t2, id2) = sync::fork(|| sync::trace_write(0));
                let h1 = s.spawn(t1);
                let h2 = s.spawn(t2);
                sync::join_with(id1, || h1.join()).expect("worker 1");
                sync::join_with(id2, || h2.join()).expect("worker 2");
            });
        });
        assert!(
            !run.races.is_empty(),
            "seed {seed}: sibling same-location writes must race"
        );
        assert!(run.races.iter().all(|r| r.loc == 0));
    }
}

#[test]
fn relaxed_flag_publication_is_detected_release_acquire_is_not() {
    // The cancel-token model: a worker writes a payload, raises a flag; the
    // parent waits on the flag and reads the payload. With Release/Acquire
    // the protocol is sound; with Relaxed the payload read is a data race —
    // exactly why CancelToken (which publishes NO payload) may stay Relaxed
    // but nothing carrying data may.
    fn protocol(store_ord: Ordering, load_ord: Ordering) -> impl Fn() {
        move || {
            let flag = sync::AtomicFlag::new(false);
            std::thread::scope(|s| {
                let flag_ref = &flag;
                let (task, id) = sync::fork(move || {
                    sync::trace_write(42); // the payload
                    flag_ref.store(true, store_ord);
                });
                let h = s.spawn(task);
                while !flag.load(load_ord) {}
                sync::trace_read(42); // consume the payload
                sync::join_with(id, || h.join()).expect("worker");
            });
        }
    }
    for seed in 0..8 {
        let racy = run_seed(seed, protocol(Ordering::Relaxed, Ordering::Relaxed));
        assert!(
            racy.races.iter().any(|r| r.loc == 42),
            "seed {seed}: payload published via relaxed flag must race"
        );
        let sound = run_seed(seed, protocol(Ordering::Release, Ordering::Acquire));
        assert!(
            sound.races.is_empty(),
            "seed {seed}: release/acquire publication must be clean: {:?}",
            sound.races
        );
    }
}

#[test]
fn payload_free_relaxed_flag_is_race_free() {
    // CancelToken's actual shape: the flag itself is the only shared state.
    // No plain accesses exist, so no data race is possible — the justification
    // for keeping Ordering::Relaxed in pcmax_core::engine::CancelToken.
    for seed in 0..8 {
        let run = run_seed(seed, || {
            let flag = sync::AtomicFlag::new(false);
            std::thread::scope(|s| {
                let flag_ref = &flag;
                let (task, id) = sync::fork(move || {
                    flag_ref.store(true, Ordering::Relaxed);
                });
                let h = s.spawn(task);
                while !flag.load(Ordering::Relaxed) {}
                sync::join_with(id, || h.join()).expect("worker");
            });
        });
        assert!(run.races.is_empty(), "seed {seed}: {:?}", run.races);
    }
}

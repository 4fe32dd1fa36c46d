//! Systematic (DPOR) coverage suite: exhaustively enumerates the
//! non-equivalent schedules of the real executors on a small instance and
//! asserts zero races, zero lock-order cycles, zero lost wakeups, and
//! bit-identical tables — plus the detector-liveness contract that the
//! exhaustive mode finds an injected order-dependent race a fixed
//! 64-seed random sweep provably misses.
//!
//! Compile with `cargo test -p pcmax-audit --features audit`; the whole
//! file vanishes without the feature.
#![cfg(feature = "audit")]

use pcmax_audit::dpor::run_schedule;
use pcmax_audit::dpor::workloads::{
    fork_join_two_workers, injected_rare_race, triple_rmw_three_workers,
    FORK_JOIN_TWO_WORKERS_SCHEDULES, TRIPLE_RMW_THREE_WORKERS_SCHEDULES,
};
use pcmax_audit::explore::{sweep, sweep_exhaustive};
use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_parallel::FaithfulDp;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{PcmaxSpace, SpaceEngine};
use pcmax_ptas::table::DpScratch;

/// A deliberately tiny instance (one job of rounded size 2·2, one of 4·2)
/// so the executors' full schedule space fits in an exhaustive budget:
/// the wavefront has 3 levels and 4 table entries.
fn tiny_problem() -> DpProblem {
    let mut counts = vec![0u32; 16];
    counts[2] = 1;
    counts[4] = 1;
    DpProblem::new(counts, 2, 30, 64)
}

/// The sequential engine's exact table for [`tiny_problem`] — the oracle
/// every explored schedule must reproduce.
fn tiny_oracle() -> Vec<u16> {
    let problem = tiny_problem();
    let mut table = problem.build_table().expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    pcmax_ptas::space::serial_sweep(&mut table, &pcmax_ptas::space::PcmaxSpace::new(&configs));
    table.values
}

/// The persistent-pool block sweep on the tiny instance: four one-cell
/// blocks (the audit build's block rule), two of them on outer level 1.
fn pool_values(threads: usize) -> Vec<u16> {
    let problem = tiny_problem();
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_table_in(&mut scratch)
        .expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    table.values[0] = 0;
    bucketed_sweep_space(
        &mut table,
        &PcmaxSpace::new(&configs),
        threads,
        &mut scratch,
    );
    table.values
}

/// The paper-literal full-scan executor on the tiny instance.
fn faithful_values(threads: usize) -> Vec<u16> {
    let problem = tiny_problem();
    let mut table = problem.build_table().expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    FaithfulDp::with_threads(threads).sweep(
        &mut table,
        &PcmaxSpace::new(&configs),
        &mut DpScratch::new(),
    );
    table.values
}

#[test]
fn microworkload_schedule_counts_match_hand_derived_bounds() {
    let two = sweep_exhaustive(64, fork_join_two_workers, |schedule, &total| {
        assert_eq!(total, 2, "schedule {schedule:?} lost an increment");
    });
    assert!(two.complete && two.is_clean());
    assert_eq!(two.schedules, FORK_JOIN_TWO_WORKERS_SCHEDULES);

    let three = sweep_exhaustive(256, triple_rmw_three_workers, |schedule, &total| {
        assert_eq!(total, 3, "schedule {schedule:?} lost an increment");
    });
    assert!(three.complete && three.is_clean());
    assert_eq!(three.schedules, TRIPLE_RMW_THREE_WORKERS_SCHEDULES);
}

#[test]
fn persistent_pool_minimal_instance_is_exhaustively_covered() {
    // One job, two workers: small enough that DPOR provably exhausts the
    // pool's entire schedule space — every non-equivalent interleaving of
    // the park/notify barrier is run, and all are clean.
    let mut counts = vec![0u32; 16];
    counts[2] = 1;
    let problem = DpProblem::new(counts, 2, 30, 64);
    let report = sweep_exhaustive(
        2000,
        || {
            let mut scratch = DpScratch::new();
            let mut table = problem
                .build_table_in(&mut scratch)
                .expect("minimal problem fits");
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
            table.values
        },
        |schedule, values| {
            assert_eq!(values, &[0, 1], "schedule {schedule:?}: wrong table");
        },
    );
    assert!(
        report.complete,
        "the minimal pool instance must be fully enumerable \
         (ran {} schedules without exhausting the space)",
        report.schedules
    );
    assert!(report.is_clean(), "pool findings: {report:?}");
    assert!(
        report.schedules > 1,
        "the pool handoff must admit more than one schedule class"
    );
    assert!(report.max_threads > 1);
}

#[test]
fn persistent_pool_exhaustive_sweep_is_clean() {
    let expected = tiny_oracle();
    let report = sweep_exhaustive(
        4000,
        || pool_values(2),
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: table diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.schedules > 100,
        "budget-bounded coverage must still explore broadly (got {})",
        report.schedules
    );
    assert!(
        report.races.is_empty(),
        "persistent pool races: {:?}",
        report.races
    );
    assert!(
        report.cycles.is_empty(),
        "persistent pool lock-order cycles: {:?}",
        report.cycles
    );
    assert!(
        report.lost_wakeups.is_empty(),
        "persistent pool lost wakeups: {:?}",
        report.lost_wakeups
    );
    assert!(
        report.deadlocks.is_empty(),
        "persistent pool model deadlocks: {:?}",
        report.deadlocks
    );
    assert!(report.max_threads > 1);
}

#[test]
fn block_sweep_of_multi_cell_blocks_exhaustive_sweep_is_clean() {
    // One job in each of four classes: a 16-cell table whose audit-build
    // plan folds the last class into 2-cell blocks, 8 blocks on 4 outer
    // levels (1, 3, 3, 1). Under DPOR every non-equivalent schedule of the
    // pool must fill the blocks race-free and reproduce the oracle.
    let mut counts = vec![0u32; 16];
    counts[..4].fill(1);
    let problem = DpProblem::new(counts, 1, 5, 64);
    let expected = {
        let mut table = problem.build_table().expect("problem fits");
        let configs = problem.configs_with_offsets(&table);
        pcmax_ptas::space::serial_sweep(&mut table, &PcmaxSpace::new(&configs));
        table.values
    };
    let report = sweep_exhaustive(
        4000,
        || {
            let mut scratch = DpScratch::new();
            let mut table = problem.build_table_in(&mut scratch).expect("problem fits");
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
            table.values
        },
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: block sweep diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.schedules > 1,
        "the pool handoff must admit more than one schedule class"
    );
    assert!(
        report.races.is_empty(),
        "block sweep races: {:?}",
        report.races
    );
    assert!(
        report.cycles.is_empty(),
        "block sweep lock-order cycles: {:?}",
        report.cycles
    );
    assert!(
        report.lost_wakeups.is_empty(),
        "block sweep lost wakeups: {:?}",
        report.lost_wakeups
    );
    assert!(
        report.deadlocks.is_empty(),
        "block sweep model deadlocks: {:?}",
        report.deadlocks
    );
    assert!(report.max_threads > 1);
}

#[test]
fn faithful_exhaustive_sweep_is_clean() {
    // The paper-literal full scan on the persistent pool: DPOR must exhaust
    // its whole schedule space on the tiny instance, every schedule clean
    // and reproducing the oracle.
    let expected = tiny_oracle();
    let report = sweep_exhaustive(
        4000,
        || faithful_values(2),
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: table diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.complete,
        "the faithful sweep on the tiny instance must be fully enumerable \
         (ran {} schedules without exhausting the space)",
        report.schedules
    );
    assert!(report.is_clean(), "faithful sweep findings: {report:?}");
    assert!(report.max_threads > 1);
}

#[test]
fn dpor_finds_the_race_a_64_seed_random_sweep_misses() {
    // The fixed random sweep — same shape as the regression suite's — sees
    // nothing: the race hides in one schedule class the geometric
    // coin-flips essentially never assemble.
    let random = sweep(0, 64, injected_rare_race, |_, _| {});
    assert_eq!(random.schedules, 64);
    assert!(
        random.races.is_empty(),
        "the injected race must be invisible to the fixed random sweep \
         (otherwise it is not a fair witness for systematic exploration): {:?}",
        random.races
    );

    // The systematic mode enumerates schedule classes and cannot miss it.
    let report = sweep_exhaustive(512, injected_rare_race, |_, _| {});
    assert!(
        !report.races.is_empty(),
        "DPOR must reach the racing schedule class within budget \
         (explored {} schedules)",
        report.schedules
    );
    let cx = report
        .counterexample
        .as_ref()
        .expect("first race must be shrunk to a counterexample");
    assert_eq!(cx.race.loc, 7, "the racing location is the gated write");
    assert!(
        cx.schedule.len() <= 8,
        "shrinking must produce a short script, got {:?}",
        cx.schedule
    );
}

#[test]
fn minimal_schedule_round_trips_through_replay() {
    let report = sweep_exhaustive(512, injected_rare_race, |_, _| {});
    let cx = report.counterexample.expect("race must be found");
    // The shrunk script is a plain `&[usize]` — exactly what a failure
    // message prints and a human pastes back into `run_schedule`.
    for _ in 0..2 {
        let replay = run_schedule(&cx.schedule, injected_rare_race);
        assert!(
            replay.races.iter().any(|r| r.loc == cx.race.loc),
            "replaying the minimal schedule must reproduce the same race"
        );
    }
}

//! Metrics-at-the-sync-seam regression: the pool's park/wake sites now
//! record into the process-wide metrics registry as well as the trace
//! scratch. Under the audit scheduler, every explored interleaving must
//! (a) stay race-free with recording enabled, (b) keep the registry in
//! exact agreement with the scratch counters (the two bookkeeping paths
//! share one seam — divergence means a site records on one path only),
//! and (c) still produce the sequential DP table.
//!
//! Compile with `cargo test -p pcmax-audit --features audit`; the whole
//! file vanishes without the feature.
#![cfg(feature = "audit")]

use pcmax_audit::explore::sweep;
use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::PcmaxSpace;
use pcmax_ptas::table::DpScratch;

/// The paper's worked example (Table I): 12 entries over 6 levels.
fn paper_problem() -> DpProblem {
    let mut counts = vec![0u32; 16];
    counts[2] = 2;
    counts[4] = 3;
    DpProblem::new(counts, 2, 30, 64)
}

const PAPER_TABLE: [u16; 12] = [0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2];

#[test]
fn registry_and_scratch_agree_under_every_explored_schedule() {
    assert!(
        pcmax_metrics::enabled(),
        "recording must be on for the seam to be exercised"
    );
    let report = sweep(
        700,
        64,
        || {
            // Deltas are read inside the session (the explorer's global
            // gate serialises sweeps, so no other test's parks can land
            // in between).
            let parks0 = pcmax_parallel::metrics::POOL_PARKS.get();
            let wakes0 = pcmax_parallel::metrics::POOL_WAKES.get();
            let problem = paper_problem();
            let mut scratch = DpScratch::new();
            let mut table = problem
                .build_level_major_table_in(&mut scratch)
                .expect("paper problem fits");
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
            let parks = pcmax_parallel::metrics::POOL_PARKS.get() - parks0;
            let wakes = pcmax_parallel::metrics::POOL_WAKES.get() - wakes0;
            (table.values_row_major(), scratch, parks, wakes)
        },
        |seed, (values, scratch, parks, wakes)| {
            assert_eq!(
                values.as_slice(),
                PAPER_TABLE,
                "seed {seed}: table diverged from the sequential DP"
            );
            assert_eq!(
                *parks, scratch.pool_parks,
                "seed {seed}: registry parks diverged from the trace scratch"
            );
            assert_eq!(
                *wakes, scratch.pool_wakes,
                "seed {seed}: registry wakes diverged from the trace scratch"
            );
        },
    );
    assert_eq!(report.schedules, 64);
    assert!(
        report.races.is_empty(),
        "metric recording at the sync seam raced: {:?}",
        report.races
    );
    assert!(
        report.lock_cycles.is_empty() && report.lost_wakeups.is_empty(),
        "blocking findings with metrics recording on: {:?} {:?}",
        report.lock_cycles,
        report.lost_wakeups
    );
}

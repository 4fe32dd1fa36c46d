//! Property tests for the block sweep: the production wavefront must fill
//! **bit-identical** tables to the serial oracle (`IterativeDp`'s sweep) at
//! 1, 2 and 4 threads, across random mixed radices. The generator covers
//! the block plan's edges: inactive classes (count 0, elided from the
//! table), single-class tables and tables below one block (every
//! transition local), trailing classes of radix 2, and the degenerate
//! one-cell table (every count zero). Each property also checks that its
//! cases land on both sides of the wavefront's serial cutoff: some sweep
//! inline on the caller, some on the pool.

use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::DpScratch;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Cases per property.
const CASES: u32 = 64;

/// Thread counts every case sweeps at.
const THREADS: [usize; 3] = [1, 2, 4];

/// One property's sweeps counted by the side of the serial cutoff they ran
/// on, told apart by the scratch's park counter.
struct Sides {
    inline: AtomicU32,
    pooled: AtomicU32,
}

impl Sides {
    const fn new() -> Self {
        Self {
            inline: AtomicU32::new(0),
            pooled: AtomicU32::new(0),
        }
    }

    /// Counts one sweep; the property's last sweep fails unless both sides
    /// were reached.
    fn record(&self, parks: u64) -> TestCaseResult {
        let side = if parks > 0 {
            &self.pooled
        } else {
            &self.inline
        };
        side.fetch_add(1, Ordering::SeqCst);
        let inline = self.inline.load(Ordering::SeqCst);
        let pooled = self.pooled.load(Ordering::SeqCst);
        if inline + pooled == CASES * THREADS.len() as u32 {
            prop_assert!(
                inline > 0 && pooled > 0,
                "{inline} sweeps ran inline and {pooled} on the pool: \
                 the cases must cover both sides of the serial cutoff"
            );
        }
        Ok(())
    }
}

/// The block sweep on `threads` workers, returning the filled table and
/// the sweep's pool parks. `caps` selects the capacity-filtered [`QSpace`]
/// over the plain [`PcmaxSpace`].
fn parallel_values(problem: &DpProblem, caps: Option<&[u64]>, threads: usize) -> (Vec<u16>, u64) {
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_table_in(&mut scratch)
        .expect("small tables always fit the guard");
    let configs = problem.configs_with_offsets(&table);
    let sizes = table.sizes.clone();
    table.values[0] = 0;
    match caps {
        None => {
            let space = PcmaxSpace::new(&configs);
            bucketed_sweep_space(&mut table, &space, threads, &mut scratch);
        }
        Some(caps) => {
            let space = QSpace::new(&configs, &sizes, caps);
            bucketed_sweep_space(&mut table, &space, threads, &mut scratch);
        }
    }
    (table.values, scratch.pool_parks)
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=4, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn block_sweep_matches_the_oracle(counts in arb_counts()) {
        let problem = DpProblem::new(counts, 1, 1_000, 64);
        let want = {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            serial_sweep(&mut table, &PcmaxSpace::new(&configs));
            table.values
        };
        static SIDES: Sides = Sides::new();
        for threads in THREADS {
            let (got, parks) = parallel_values(&problem, None, threads);
            prop_assert_eq!(&got, &want, "block sweep diverged at {} threads", threads);
            SIDES.record(parks)?;
        }
    }

    #[test]
    fn block_sweep_matches_the_oracle_under_capacity_filter(
        counts in arb_counts(),
        mut caps in prop::collection::vec(0u64..=30, 1..=6),
    ) {
        // QSpace requires non-increasing capacities (fastest machine first).
        caps.sort_unstable_by(|a, b| b.cmp(a));
        let problem = DpProblem::new(counts, 1, 25, 64);
        let want = {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            let sizes = table.sizes.clone();
            serial_sweep(&mut table, &QSpace::new(&configs, &sizes, &caps));
            table.values
        };
        // The capacity filter runs through `value_of_batch` on cross steps
        // and `step_allowed` on local ones, so this exercises both forms of
        // the filter end to end.
        static SIDES: Sides = Sides::new();
        for threads in THREADS {
            let (got, parks) = parallel_values(&problem, Some(&caps), threads);
            prop_assert_eq!(
                &got,
                &want,
                "block sweep diverged on caps {:?} at {} threads",
                &caps,
                threads
            );
            SIDES.record(parks)?;
        }
    }
}

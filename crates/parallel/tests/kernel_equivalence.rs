//! Property tests for the batched strip kernel: the lane-parallel,
//! cache-blocked cell kernel must produce **bit-identical** tables to the
//! scalar per-cell kernel — and both to the serial reference sweep — across
//! random mixed radices. The generator deliberately covers the kernel's
//! ragged edges: radix-1 digits (count-0 classes contribute nothing to a
//! level), single-class tables whose levels hold exactly one cell, and the
//! degenerate one-cell table (every count zero), where a strip is all
//! padding after lane 0. Each property also checks that its cases land on
//! both sides of the wavefront's serial cutoff: some sweep inline on the
//! caller, some on the pool.

use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::CellKernel;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::DpScratch;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Cases per property.
const CASES: u32 = 64;

/// One property's cases counted by the side of the serial cutoff they
/// swept on, told apart by the scratch's park counter.
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

    /// Counts one case; the property's last case fails unless both sides
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
        if inline + pooled == CASES {
            prop_assert!(
                inline > 0 && pooled > 0,
                "{inline} cases swept inline and {pooled} on the pool: \
                 the cases must cover both sides of the serial cutoff"
            );
        }
        Ok(())
    }
}

/// Level-major parallel sweep with an explicit cell kernel,
/// returning the filled table in row-major order for comparison, and the
/// sweep's pool parks. `caps` selects the capacity-filtered [`QSpace`]
/// over the plain [`PcmaxSpace`].
fn parallel_values(
    problem: &DpProblem,
    caps: Option<&[u64]>,
    kernel: CellKernel,
    threads: usize,
) -> (Vec<u16>, u64) {
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("small tables always fit the guard");
    let configs = problem.configs_with_offsets(&table);
    let sizes = table.sizes.clone();
    table.values[0] = 0;
    match caps {
        None => {
            let space = PcmaxSpace::new(&configs);
            bucketed_sweep_space_with(&mut table, &space, threads, &mut scratch, kernel);
        }
        Some(caps) => {
            let space = QSpace::new(&configs, &sizes, caps);
            bucketed_sweep_space_with(&mut table, &space, threads, &mut scratch, kernel);
        }
    }
    (table.values_row_major(), scratch.pool_parks)
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=4, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn strip_kernel_matches_scalar_per_cell(
        counts in arb_counts(),
        threads in 1usize..=4,
    ) {
        let problem = DpProblem::new(counts, 1, 1_000, 64);
        let want = {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            serial_sweep(&mut table, &PcmaxSpace::new(&configs));
            table.values_row_major()
        };
        let mut parks = 0;
        for kernel in [CellKernel::Scalar, CellKernel::Strip] {
            let (got, kernel_parks) = parallel_values(&problem, None, kernel, threads);
            prop_assert_eq!(
                &got,
                &want,
                "{:?} kernel diverged at {} threads",
                kernel,
                threads
            );
            parks += kernel_parks;
        }
        static SIDES: Sides = Sides::new();
        SIDES.record(parks)?;
    }

    #[test]
    fn strip_kernel_matches_scalar_under_capacity_filter(
        counts in arb_counts(),
        mut caps in prop::collection::vec(0u64..=30, 1..=6),
        threads in 1usize..=4,
    ) {
        // QSpace requires non-increasing capacities (fastest machine first).
        caps.sort_unstable_by(|a, b| b.cmp(a));
        let problem = DpProblem::new(counts, 1, 25, 64);
        let want = {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            let sizes = table.sizes.clone();
            serial_sweep(&mut table, &QSpace::new(&configs, &sizes, &caps));
            table.values_row_major()
        };
        // The capacity filter runs through `value_of_batch` inside the strip
        // kernel, so this exercises the overridden lane filter end to end.
        let mut parks = 0;
        for kernel in [CellKernel::Scalar, CellKernel::Strip] {
            let (got, kernel_parks) = parallel_values(&problem, Some(&caps), kernel, threads);
            prop_assert_eq!(
                &got,
                &want,
                "{:?} kernel diverged on caps {:?} at {} threads",
                kernel,
                &caps,
                threads
            );
            parks += kernel_parks;
        }
        static SIDES: Sides = Sides::new();
        SIDES.record(parks)?;
    }
}

//! Property tests for the batched strip kernel: the lane-parallel,
//! cache-blocked cell kernel must produce **bit-identical** tables to the
//! scalar per-cell kernel — and both to the serial reference sweep — across
//! random mixed radices. The generator deliberately covers the kernel's
//! ragged edges: radix-1 digits (count-0 classes contribute nothing to a
//! level), single-class tables whose levels hold exactly one cell, and the
//! degenerate one-cell table (every count zero), where a strip is all
//! padding after lane 0.

use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::CellKernel;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::DpScratch;
use proptest::prelude::*;

/// Level-major parallel sweep with an explicit cell kernel,
/// returning the filled table in row-major order for comparison. `caps`
/// selects the capacity-filtered [`QSpace`] over the plain [`PcmaxSpace`].
fn parallel_values(
    problem: &DpProblem,
    caps: Option<&[u64]>,
    kernel: CellKernel,
    threads: usize,
) -> Vec<u16> {
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
    table.values_row_major()
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=4, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        for kernel in [CellKernel::Scalar, CellKernel::Strip] {
            let got = parallel_values(&problem, None, kernel, threads);
            prop_assert_eq!(
                &got,
                &want,
                "{:?} kernel diverged at {} threads",
                kernel,
                threads
            );
        }
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
        for kernel in [CellKernel::Scalar, CellKernel::Strip] {
            let got = parallel_values(&problem, Some(&caps), kernel, threads);
            prop_assert_eq!(
                &got,
                &want,
                "{:?} kernel diverged on caps {:?} at {} threads",
                kernel,
                &caps,
                threads
            );
        }
    }
}

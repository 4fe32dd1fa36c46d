//! Property test: solve results (machine count AND witness schedule) are
//! identical between the row-major layout (the sequential `IterativeDp` and
//! the paper-literal `FaithfulDp`) and the level-major layout (the
//! production `ParallelDp`) across random class-count vectors —
//! bit-identical tables, not just equal optima.

use pcmax_parallel::{FaithfulDp, ParallelDp};
use pcmax_ptas::dp::{verify_witness, DpProblem, DpSolver, IterativeDp};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = DpProblem> {
    (prop::collection::vec(0u32..=3, 1..=5), 1u64..=3, 4u64..=40)
        .prop_map(|(counts, unit, target)| DpProblem::new(counts, unit, target, 200_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn level_major_solves_match_row_major_solves(
        problem in arb_problem(),
        threads in 1usize..=4,
    ) {
        // Skip problems with a job wider than the capacity: rounding never
        // produces them and the solvers report them infeasible upstream.
        let max_size = problem
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, _)| (i as u64 + 1) * problem.unit)
            .max()
            .unwrap_or(0);
        prop_assume!(max_size <= problem.target);

        let sequential = IterativeDp.solve(&problem).unwrap();
        let persistent = ParallelDp::with_threads(threads).solve(&problem).unwrap();
        let faithful = FaithfulDp::with_threads(threads).solve(&problem).unwrap();

        // Same optimum, same witness — the shared `finish` extraction plus
        // identical tables make the full outcome equal, not merely the cost.
        prop_assert_eq!(&persistent, &sequential);
        prop_assert_eq!(&faithful, &sequential);

        if let Some(schedule) = &sequential.schedule {
            prop_assert!(verify_witness(&problem, schedule));
        }
    }
}

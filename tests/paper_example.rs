//! End-to-end verification of the worked example in Section III of the
//! paper: `ε = 0.3` (k = 4, k² = 16 classes), target `T = 30`, two long jobs
//! of one rounded size and three of another, the 12-entry DP table of
//! Table I, and the anti-diagonal level structure of Figure 1.

use pcmax::parallel::{FaithfulDp, ParallelDp};
use pcmax::ptas::dp::DpSolver;
use pcmax::ptas::{DpProblem, EpsilonParams, IterativeDp, MemoizedDp};

fn paper_problem() -> DpProblem {
    // N has two non-zero classes; with unit ⌈30/16⌉ = 2 the jobs of original
    // size 6 land in class 3 (rounded size 6) and size 11 in class 5
    // (rounded size 10).
    let mut counts = vec![0u32; 16];
    counts[2] = 2;
    counts[4] = 3;
    DpProblem::new(counts, 2, 30, 4)
}

#[test]
fn epsilon_03_gives_k4_and_16_classes() {
    let p = EpsilonParams::new(0.3).unwrap();
    assert_eq!(p.k, 4);
    assert_eq!(p.classes(), 16);
}

#[test]
fn dp_table_has_12_entries_in_6_levels() {
    let table = paper_problem().build_table().unwrap();
    assert_eq!(table.len, 12); // (2+1)·(3+1), Table I
    assert_eq!(table.levels(), 6); // n' = 5 long jobs, levels 0..=5
    let widths: Vec<usize> = table.level_buckets().iter().map(Vec::len).collect();
    assert_eq!(widths, vec![1, 2, 3, 3, 2, 1]); // Figure 1's anti-diagonals
}

#[test]
fn level_two_holds_the_three_independent_subproblems() {
    // OPT(2,0), OPT(1,1), OPT(0,2) are mutually independent (Equation 11).
    let table = paper_problem().build_table().unwrap();
    let buckets = table.level_buckets();
    let level2: Vec<Vec<u32>> = buckets[2]
        .iter()
        .map(|&i| table.decode(i as usize))
        .collect();
    assert_eq!(level2, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
}

#[test]
fn every_solver_computes_opt_equal_two() {
    // {6,6,10,10,10} within capacity 30: {10,10,10} + {6,6} -> 2 machines.
    let problem = paper_problem();
    let solvers: Vec<Box<dyn DpSolver>> = vec![
        Box::new(IterativeDp),
        Box::new(MemoizedDp),
        Box::new(ParallelDp::default()),
        Box::new(ParallelDp::with_threads(3)),
        Box::new(FaithfulDp::with_threads(3)),
    ];
    for solver in &solvers {
        let out = solver.solve(&problem).unwrap();
        assert_eq!(out.machines, 2, "{}", solver.name());
        let witness = out.schedule.expect("feasible on 4 machines");
        assert_eq!(witness.len(), 2);
    }
}

#[test]
fn full_ptas_on_the_example_jobs() {
    use pcmax::prelude::*;
    // The example's original jobs plus a couple of short ones.
    let inst = Instance::new(vec![6, 6, 11, 11, 11, 2, 1], 2).unwrap();
    let out = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
    out.schedule.validate(&inst).unwrap();
    let exact = BranchAndBound::default().solve_detailed(&inst).unwrap();
    assert!(exact.proven);
    // Optimum is 24 = ceil(48/2): e.g. {11, 11, 2} vs {11, 6, 6, 1}.
    assert_eq!(exact.best, 24);
    assert!(out.schedule.makespan(&inst) as f64 <= 1.3 * 24.0);
}

#[test]
fn configuration_set_matches_the_papers_seven_vectors() {
    // Projected to the two active classes, C (without the zero vector) is
    // exactly the paper's list extended by (0,3) — the paper's Equation (7)
    // omits (0,3) although three rounded-10 jobs fit in T = 30; our DFS
    // enumerates it, and OPT(N) = 2 relies on it.
    let problem = paper_problem();
    let table = problem.build_table().unwrap();
    let mut configs: Vec<(u32, u32)> = problem
        .configs_with_offsets(&table)
        .into_iter()
        .map(|(c, _)| (c[0], c[1]))
        .collect();
    configs.sort();
    assert_eq!(
        configs,
        vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1)
        ]
    );
}

//! Per-subproblem cost capture for the simulated multicore executor
//! (`pcmax-simcore`).
//!
//! The cost model charges each DP-table entry the number of machine
//! configurations it examines (the inner loop of Lines 17–25 of Algorithm 3)
//! plus one unit for the write — an operation count, so it is deterministic
//! and host-independent. The simulated executor replays these costs level by
//! level exactly as the paper's parallel algorithm schedules them.

use crate::dp::{fits, DpProblem};
use pcmax_core::Result;

/// The level structure and per-entry costs of one DP evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpTrace {
    /// `levels[l]` holds the cost of each subproblem on anti-diagonal `l`,
    /// in row-major order of the entries — the order the paper's
    /// round-robin `parallel for` hands them to processors.
    pub levels: Vec<Vec<u64>>,
}

impl DpTrace {
    /// Total work (the sequential running time in cost units).
    pub fn total_work(&self) -> u64 {
        self.levels.iter().flatten().sum()
    }

    /// Number of anti-diagonal levels (`n' + 1`).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The critical path under unlimited processors: Σ_l max(cost on level l)
    /// — the floor on simulated parallel time with zero barrier overhead.
    pub fn critical_path(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.iter().copied().max().unwrap_or(0))
            .sum()
    }
}

/// Computes the [`DpTrace`] of `problem` without solving it: for every table
/// entry `v`, cost = 1 + |{configs s : s ≤ v}| (the subproblem reads one
/// value per applicable configuration and performs one write).
pub fn dp_trace(problem: &DpProblem) -> Result<DpTrace> {
    let table = problem.build_table()?;
    let configs = problem.configs_with_offsets(&table);
    let mut levels = vec![Vec::new(); table.levels() as usize];
    let mut v = vec![0u32; table.dims.len()];
    let mut sum = 0u32;
    for idx in 0..table.len {
        let cost = 1 + configs.iter().filter(|(c, _)| fits(c, &v)).count() as u64;
        levels[sum as usize].push(cost);
        // Mixed-radix increment with running digit sum.
        for a in (0..v.len()).rev() {
            if v[a] + 1 < table.dims[a] {
                v[a] += 1;
                sum += 1;
                break;
            }
            sum -= v[a];
            v[a] = 0;
        }
        let _ = idx;
    }
    Ok(DpTrace { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpProblem;

    fn paper_problem() -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpProblem::new(counts, 2, 30, 4)
    }

    #[test]
    fn level_widths_match_the_anti_diagonals_of_table_i() {
        let trace = dp_trace(&paper_problem()).unwrap();
        // 3×4 grid: anti-diagonal widths 1,2,3,3,2,1.
        let widths: Vec<usize> = trace.levels.iter().map(Vec::len).collect();
        assert_eq!(widths, vec![1, 2, 3, 3, 2, 1]);
        assert_eq!(trace.depth(), 6);
    }

    #[test]
    fn total_work_counts_each_entry_at_least_once() {
        let trace = dp_trace(&paper_problem()).unwrap();
        assert!(trace.total_work() >= 12);
    }

    #[test]
    fn origin_entry_has_unit_cost() {
        // OPT(0,…,0) examines no configurations.
        let trace = dp_trace(&paper_problem()).unwrap();
        assert_eq!(trace.levels[0], vec![1]);
    }

    #[test]
    fn critical_path_is_at_most_total_work() {
        let trace = dp_trace(&paper_problem()).unwrap();
        assert!(trace.critical_path() <= trace.total_work());
        assert!(trace.critical_path() >= trace.depth() as u64);
    }

    #[test]
    fn costs_grow_towards_the_far_corner() {
        // The last entry dominates every other entry's config count.
        let trace = dp_trace(&paper_problem()).unwrap();
        let last = *trace.levels.last().unwrap().last().unwrap();
        assert!(trace.levels.iter().flatten().all(|&c| c <= last));
    }

    #[test]
    fn empty_problem_has_single_unit_level() {
        let problem = DpProblem::new(vec![0; 16], 2, 30, 4);
        let trace = dp_trace(&problem).unwrap();
        assert_eq!(trace.levels, vec![vec![1]]);
    }
}

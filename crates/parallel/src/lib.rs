//! The parallel approximation algorithm of Ghalami & Grosu (2017):
//! Algorithm 3's wavefront-parallel dynamic program, plus the parallel PTAS
//! that plugs it into the bisection driver of `pcmax-ptas`.
//!
//! The DP table's subproblems on the same *anti-diagonal* (entries whose
//! job-count vectors have equal digit sums) are mutually independent and
//! depend only on strictly lower anti-diagonals, so each anti-diagonal is a
//! parallel level and levels are processed in order with a barrier between
//! them. Every level runs on one executor, the [`persistent`] worker pool;
//! a table too small to pay for the pool's per-level barrier runs through
//! the same executor inline on the caller instead (a measured serial
//! cutoff, see [`wavefront`]). The executor comes in two variants:
//!
//! * [`ParallelDp`] — the production sweep: the row-major table is cut
//!   into blocks of consecutive cells over its trailing classes, the
//!   anti-diagonals run over the remaining outer classes, and each level's
//!   blocks are split between workers and filled in place, one vector
//!   `min` over a contiguous run per transition (a documented deviation
//!   from the per-cell levels of the paper, DESIGN.md §2),
//! * [`FaithfulDp`] — the paper-literal ablation: every level scans *all*
//!   σ entries of a row-major table and filters `d_i = l`, exactly like
//!   Lines 11–12 of Algorithm 3 (an ablation bench quantifies the cost of
//!   that extra scan).
//!
//! Both produce bit-identical tables to the sequential solvers; the tests
//! assert it.
//!
//! Shared-memory accesses (fork/join handoffs, the table scatter/gather)
//! flow through the [`sync`] seam: zero-cost passthroughs normally, and —
//! under `feature = "audit"` — an event log plus a seeded interleaving
//! scheduler that `pcmax-audit` uses to prove the wavefront race-free.

pub mod metrics;
pub mod persistent;
pub mod simd;
pub mod speculative;
pub mod sync;
pub mod wavefront;

pub use speculative::SpeculativePtas;
pub use wavefront::{FaithfulDp, ParallelDp};

use pcmax_core::{Result, SolveReport, SolveRequest, Solver};
use pcmax_ptas::Ptas;
use std::sync::OnceLock;

/// Resolves a configured worker count: `None` means all available cores,
/// explicit values are clamped to at least 1. "All cores" is read once per
/// process: `available_parallelism` reads cgroup and affinity state, tens
/// of µs per call, and every sweep with `threads` unset asks.
pub fn effective_threads(threads: Option<usize>) -> usize {
    static ALL_CORES: OnceLock<usize> = OnceLock::new();
    match threads {
        Some(t) => t.max(1),
        None => *ALL_CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
    }
}

/// The parallel PTAS: the sequential bisection driver with the wavefront DP
/// as its inner solver — the composition the paper evaluates.
#[derive(Debug, Clone)]
pub struct ParallelPtas {
    inner: Ptas<ParallelDp>,
}

impl ParallelPtas {
    /// Parallel PTAS with relative error `epsilon`, using all cores.
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self {
            inner: Ptas::with_solver(epsilon, ParallelDp::default())?,
        })
    }

    /// Parallel PTAS on at most `threads` worker threads (the paper's
    /// "number of cores" axis); tables below the serial cutoff sweep on the
    /// caller alone.
    pub fn with_threads(epsilon: f64, threads: usize) -> Result<Self> {
        Ok(Self {
            inner: Ptas::with_solver(epsilon, ParallelDp::with_threads(threads))?,
        })
    }

    /// Access to the underlying driver (for `solve_detailed`).
    pub fn driver(&self) -> &Ptas<ParallelDp> {
        &self.inner
    }
}

impl Solver for ParallelPtas {
    fn solver_name(&self) -> &'static str {
        "ParallelPTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        self.inner.solve(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{Instance, Scheduler};
    use pcmax_ptas::Ptas;

    #[test]
    fn effective_threads_clamps_and_defaults() {
        assert_eq!(effective_threads(Some(0)), 1);
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
    }

    #[test]
    fn parallel_ptas_matches_sequential_ptas_end_to_end() {
        let inst = Instance::new(
            vec![23, 19, 17, 13, 11, 7, 5, 3, 2, 2, 29, 31, 8, 14, 26],
            4,
        )
        .unwrap();
        let seq = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let par = ParallelPtas::new(0.3)
            .unwrap()
            .driver()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(seq.target, par.target);
        assert_eq!(seq.schedule.makespan(&inst), par.schedule.makespan(&inst));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 11, 12, 13, 14], 3).unwrap();
        let reference = ParallelPtas::new(0.3).unwrap().makespan(&inst).unwrap();
        for threads in [1, 2, 4] {
            let ms = ParallelPtas::with_threads(0.3, threads)
                .unwrap()
                .makespan(&inst)
                .unwrap();
            assert_eq!(ms, reference, "threads = {threads}");
        }
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn small_instances_solve_without_the_pool() {
        // Every probe table of this 12-job instance is far below the
        // wavefront's serial cutoff: a 4-thread solve never starts the pool.
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3, 23, 29], 4).unwrap();
        let report = ParallelPtas::with_threads(0.3, 4)
            .unwrap()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(report.stats.dp_levels_swept > 0, "the wavefront ran");
        assert_eq!(report.stats.pool_parks, 0);
        assert_eq!(report.stats.pool_wakes, 0);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2).unwrap();
        assert_eq!(ParallelPtas::new(0.3).unwrap().makespan(&inst).unwrap(), 0);
    }
}

//! The dynamic program at the heart of the PTAS (Algorithm 2): the
//! [`DpSolver`] entry point the `P||Cmax` bisection probes through, the
//! sequential engines ([`IterativeDp`], the serial oracle every other engine
//! is checked against, and [`MemoizedDp`]) and the shared probe epilogue.
//!
//! `OPT(v)` is the minimum number of machines that can run the rounded long
//! jobs counted by `v` within the target makespan `T`:
//!
//! ```text
//! OPT(0) = 0
//! OPT(v) = 1 + min { OPT(v − s) : s machine configuration, 0 ≠ s ≤ v }
//! ```

use crate::config::{enumerate_configs_sized, Config};
use crate::space::{extract_schedule_with, serial_sweep, PcmaxSpace, SpaceEngine, StateSpace};
use crate::table::{DpScratch, DpTable, INFEASIBLE};
use pcmax_core::{Error, Result, Time};

/// One rounded scheduling subproblem handed to a [`DpSolver`]: the class
/// counts `N`, the rounding unit, the target makespan `T`, and the machine
/// budget `m` that decides feasibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpProblem {
    /// `counts[i-1]` = number of long jobs of class `i` (full `k²` width).
    pub counts: Vec<u32>,
    /// Rounding unit `⌈T/k²⌉`.
    pub unit: Time,
    /// Target makespan `T` (machine capacity for the rounded jobs).
    pub target: Time,
    /// Machine budget `m`; a solution is feasible iff `OPT(N) ≤ m`.
    pub max_machines: usize,
    /// Guard on the dense table size σ.
    pub max_entries: usize,
}

impl DpProblem {
    /// Default table-size guard: 2²⁶ entries (≈ 128 MiB of `u16`).
    pub const DEFAULT_MAX_ENTRIES: usize = 1 << 26;

    /// Convenience constructor with the default table guard.
    pub fn new(counts: Vec<u32>, unit: Time, target: Time, max_machines: usize) -> Self {
        Self {
            counts,
            unit,
            target,
            max_machines,
            max_entries: Self::DEFAULT_MAX_ENTRIES,
        }
    }

    /// Builds the (empty) dense table for this problem.
    pub fn build_table(&self) -> Result<DpTable> {
        DpTable::new(&self.counts, self.unit, self.max_entries).ok_or_else(|| self.table_error())
    }

    /// Builds the dense table with storage from (and accounted to) `scratch`.
    pub fn build_table_in(&self, scratch: &mut DpScratch) -> Result<DpTable> {
        DpTable::new_in(&self.counts, self.unit, self.max_entries, scratch)
            .ok_or_else(|| self.table_error())
    }

    /// Builds the dense table in level-major storage order (each
    /// anti-diagonal level one contiguous slice) — the layout the wavefront
    /// executors use for parallel in-place scatter.
    pub fn build_level_major_table_in(&self, scratch: &mut DpScratch) -> Result<DpTable> {
        DpTable::new_level_major_in(&self.counts, self.unit, self.max_entries, scratch)
            .ok_or_else(|| self.table_error())
    }

    /// Builds the dense table in the storage order `engine` sweeps:
    /// level-major when [`SpaceEngine::level_major`] asks for it, row-major
    /// otherwise. Every probe, `P||Cmax` or `Q||Cmax`, builds through here.
    pub fn build_table_for<E: SpaceEngine>(
        &self,
        engine: &E,
        scratch: &mut DpScratch,
    ) -> Result<DpTable> {
        if engine.level_major() {
            self.build_level_major_table_in(scratch)
        } else {
            self.build_table_in(scratch)
        }
    }

    fn table_error(&self) -> Error {
        Error::BadModel(format!(
            "DP table would exceed {} entries; increase max_entries or epsilon",
            self.max_entries
        ))
    }

    /// Enumerates the machine configurations over *active* classes together
    /// with their flat table offsets (Σ s_a·stride_a).
    pub fn configs_with_offsets(&self, table: &DpTable) -> Vec<(Config, usize)> {
        let counts_active: Vec<u32> = table.dims.iter().map(|&d| d - 1).collect();
        let configs: Vec<(Config, usize)> =
            enumerate_configs_sized(&counts_active, &table.sizes, self.target)
                .into_iter()
                .map(|c| {
                    let offset = table.index(&c);
                    (c, offset)
                })
                .collect();
        // The DFS enumeration is lexicographically ascending, which under
        // row-major indexing is already ascending flat offset — the monotone,
        // cache-friendly read order the wavefront cell kernel wants. Assert
        // rather than re-sort so every solver shares one config order (the
        // witness walk picks the *first* config that works, so order changes
        // would change which witness is extracted).
        debug_assert!(
            configs.windows(2).all(|w| w[0].1 < w[1].1),
            "config enumeration must yield strictly ascending offsets"
        );
        configs
    }
}

/// Outcome of a DP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpOutcome {
    /// `OPT(N)` — minimum machines for the rounded long jobs within `T`
    /// (`u32::MAX` if the vector is not schedulable at all, which cannot
    /// happen for vectors produced by rounding).
    pub machines: u32,
    /// Per-machine configurations (full `k²` width), extracted only when
    /// `machines ≤ max_machines`; length = `machines`.
    pub schedule: Option<Vec<Config>>,
}

impl DpOutcome {
    /// Whether the rounded jobs fit on the machine budget.
    pub fn feasible(&self) -> bool {
        self.schedule.is_some()
    }
}

/// The `P||Cmax` entry point to the DP: solve one rounded subproblem. Every
/// [`SpaceEngine`] is a `DpSolver` through the blanket impl below; the only
/// other implementation is the Line-17 ablation [`RegenerateConfigsDp`].
pub trait DpSolver {
    /// Stable name for harness output.
    fn name(&self) -> &'static str;

    /// Computes `OPT(N)` and, if feasible, a witness schedule, drawing the
    /// dense table's storage from the reusable `scratch` arena — the form
    /// the bisection driver calls so repeated probes share one allocation.
    fn solve_in(&self, problem: &DpProblem, scratch: &mut DpScratch) -> Result<DpOutcome>;

    /// Computes `OPT(N)` with a private one-shot arena.
    fn solve(&self, problem: &DpProblem) -> Result<DpOutcome> {
        self.solve_in(problem, &mut DpScratch::new())
    }
}

/// Any engine solves a `P||Cmax` probe the same way: build the table in the
/// engine's storage order, sweep the identical-machine space, and run the
/// shared epilogue.
impl<E: SpaceEngine> DpSolver for E {
    fn name(&self) -> &'static str {
        self.engine_name()
    }

    fn solve_in(&self, problem: &DpProblem, scratch: &mut DpScratch) -> Result<DpOutcome> {
        let mut table = problem.build_table_for(self, scratch)?;
        let configs = problem.configs_with_offsets(&table);
        let space = PcmaxSpace::new(&configs);
        self.sweep(&mut table, &space, scratch);
        finish_with(problem, table, &space, scratch)
    }
}

/// Extracts a witness schedule by walking the optimal path backwards from
/// `N`: at each step pick any configuration `s ≤ v` with
/// `OPT(v−s) = OPT(v) − 1`. Works on any table with correct values on the
/// optimal path (both the iterative and memoized solvers guarantee that).
pub fn extract_schedule(
    table: &DpTable,
    configs: &[(Config, usize)],
    classes: usize,
) -> Result<Vec<Config>> {
    extract_schedule_with(table, &PcmaxSpace::new(configs), classes)
}

/// Componentwise `c ≤ v`.
#[inline]
pub fn fits(c: &[u32], v: &[u32]) -> bool {
    c.iter().zip(v).all(|(&ci, &vi)| ci <= vi)
}

/// Iterative bottom-up DP (dense sweep in row-major index order). Because
/// `v − s` has a strictly smaller row-major index than `v` for `s ≠ 0`, a
/// single ascending pass sees every dependency before its dependents. This
/// is the serial oracle the other engines are checked against, on any
/// [`StateSpace`]: the full sweeps reproduce its tables bit for bit, and
/// [`MemoizedDp`] its `OPT(N)` and witnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterativeDp;

impl SpaceEngine for IterativeDp {
    fn engine_name(&self) -> &'static str {
        "dp-iterative"
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, _scratch: &mut DpScratch) {
        serial_sweep(table, space);
    }
}

/// Memoized top-down DP — the literal shape of the paper's Algorithm 2: the
/// recursion starts at `N` and visits only subproblems reachable from it,
/// which can be far fewer than σ. Entries it never reaches stay
/// [`UNVISITED`], so only `OPT(N)` and the extracted witness are comparable
/// with the full sweeps, not whole tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoizedDp;

/// Sentinel for "not yet visited" in the memoized solver. Distinct from
/// [`INFEASIBLE`]; both are far above any real machine count (≤ n ≤ u16
/// range), so `value ≥ UNVISITED` means "no real value here" regardless of
/// which sentinel was written — the test the epilogue and the generic
/// witness walk in [`crate::space`] both use.
pub const UNVISITED: u16 = u16::MAX - 1;

impl SpaceEngine for MemoizedDp {
    fn engine_name(&self) -> &'static str {
        "dp-memoized"
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, _scratch: &mut DpScratch) {
        let transitions = space.transitions();
        table.values.fill(UNVISITED);
        table.values[0] = 0;
        // Explicit stack to avoid deep recursion on long optimal paths.
        // Post-order evaluation: push a frame, expand unvisited children,
        // fold the minimum once all children are done. Children have
        // smaller indices than their parent, so none is still in progress.
        let root = table.last_index();
        let mut stack: Vec<(usize, bool)> = vec![(root, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if table.values[idx] != UNVISITED {
                continue;
            }
            let v = table.decode(idx);
            if expanded {
                let mut best = INFEASIBLE;
                for (t_idx, (c, offset)) in transitions.iter().enumerate() {
                    if fits(c, &v) {
                        let below = table.values[idx - offset];
                        if space.step_allowed(t_idx, below) {
                            best = best.min(below);
                        }
                    }
                }
                table.values[idx] = best.saturating_add(1);
            } else {
                stack.push((idx, true));
                for (c, offset) in transitions {
                    if fits(c, &v) && table.values[idx - offset] == UNVISITED {
                        stack.push((idx - offset, false));
                    }
                }
            }
        }
    }
}

/// The `P||Cmax` probe epilogue: [`finish_with`] over the identical-machine
/// space of `configs`.
pub fn finish(
    problem: &DpProblem,
    table: DpTable,
    configs: &[(Config, usize)],
    scratch: &mut DpScratch,
) -> Result<DpOutcome> {
    finish_with(problem, table, &PcmaxSpace::new(configs), scratch)
}

/// The probe epilogue shared by every engine and scenario: read `OPT(N)`,
/// extract the witness through `space` if it fits `problem.max_machines`,
/// then recycle the table's storage into the arena for the next probe.
/// Reads go through [`DpTable::value_at`], so level-major tables work
/// unchanged.
pub fn finish_with<S: StateSpace>(
    problem: &DpProblem,
    table: DpTable,
    space: &S,
    scratch: &mut DpScratch,
) -> Result<DpOutcome> {
    let opt = table.value_at(table.last_index());
    let machines = if opt >= UNVISITED {
        u32::MAX
    } else {
        // audit:allow(cast): u16 -> u32 widening, lossless by construction.
        opt as u32
    };
    let schedule = if machines as usize <= problem.max_machines {
        Some(extract_schedule_with(&table, space, problem.counts.len())?)
    } else {
        None
    };
    scratch.recycle(table);
    Ok(DpOutcome { machines, schedule })
}

/// Paper-literal iterative DP: Line 17 of Algorithm 3 regenerates the
/// configuration set `C_{v}` *for every entry* (a bounded DFS over `v`)
/// instead of filtering one global set. Asymptotically equivalent but
/// constant-factor slower; kept for the ablation study
/// (`benches/ablation_configs.rs`) because it is what the paper's
/// implementation does.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegenerateConfigsDp;

impl DpSolver for RegenerateConfigsDp {
    fn name(&self) -> &'static str {
        "dp-regenerate-configs"
    }

    fn solve_in(&self, problem: &DpProblem, scratch: &mut DpScratch) -> Result<DpOutcome> {
        let mut table = problem.build_table_in(scratch)?;
        table.values[0] = 0;
        let mut v = vec![0u32; table.dims.len()];
        for idx in 1..table.len {
            increment(&mut v, &table.dims);
            // C_v: configurations bounded by the entry's own vector.
            let configs_v =
                crate::config::enumerate_configs_sized(&v, &table.sizes, problem.target);
            let mut best = INFEASIBLE;
            for c in &configs_v {
                let offset = table.index(c);
                best = best.min(table.values[idx - offset]);
            }
            table.values[idx] = best.saturating_add(1);
        }
        let configs = problem.configs_with_offsets(&table);
        finish(problem, table, &configs, scratch)
    }
}

/// Mixed-radix increment (row-major: last digit fastest).
#[inline]
pub(crate) fn increment(v: &mut [u32], dims: &[u32]) {
    for a in (0..v.len()).rev() {
        if v[a] + 1 < dims[a] {
            v[a] += 1;
            return;
        }
        v[a] = 0;
    }
}

/// Checks that `schedule` is a valid witness: configs sum to `counts` and
/// each fits within `target`. Used by tests and debug assertions.
pub fn verify_witness(problem: &DpProblem, schedule: &[Config]) -> bool {
    let mut total = vec![0u64; problem.counts.len()];
    for config in schedule {
        let mut load = 0u64;
        for (i, &s) in config.iter().enumerate() {
            total[i] += s as u64;
            load += (i as Time + 1) * problem.unit * s as Time;
        }
        if load > problem.target {
            return false;
        }
    }
    total
        .iter()
        .zip(&problem.counts)
        .all(|(&got, &want)| got == want as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example: N has 2 jobs of rounded size 6 (class 3,
    /// unit 2) and 3 jobs of rounded size 10 (class 5), T = 30.
    fn paper_problem(m: usize) -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpProblem::new(counts, 2, 30, m)
    }

    #[test]
    fn paper_example_needs_two_machines() {
        // Loads: machine capacity 30; jobs {6,6,10,10,10} total 42 -> at
        // least 2 machines; {6,10,10} = 26 and {6,10} = 16 fit -> OPT = 2.
        for solver in [&IterativeDp as &dyn DpSolver, &MemoizedDp] {
            let out = solver.solve(&paper_problem(4)).unwrap();
            assert_eq!(out.machines, 2, "{}", solver.name());
            let witness = out.schedule.unwrap();
            assert_eq!(witness.len(), 2);
            assert!(verify_witness(&paper_problem(4), &witness));
        }
    }

    #[test]
    fn infeasible_when_budget_too_small() {
        let out = IterativeDp.solve(&paper_problem(1)).unwrap();
        assert_eq!(out.machines, 2);
        assert!(!out.feasible());
    }

    #[test]
    fn empty_vector_needs_zero_machines() {
        let problem = DpProblem::new(vec![0; 16], 2, 30, 3);
        for solver in [&IterativeDp as &dyn DpSolver, &MemoizedDp] {
            let out = solver.solve(&problem).unwrap();
            assert_eq!(out.machines, 0);
            assert_eq!(out.schedule.unwrap().len(), 0);
        }
    }

    #[test]
    fn single_job_single_machine() {
        let mut counts = vec![0u32; 16];
        counts[9] = 1; // class 10, size 10·unit
        let problem = DpProblem::new(counts, 3, 30, 1);
        let out = MemoizedDp.solve(&problem).unwrap();
        assert_eq!(out.machines, 1);
        assert!(verify_witness(&problem, &out.schedule.unwrap()));
    }

    #[test]
    fn solvers_agree_on_a_grid_of_problems() {
        for unit in [1u64, 2, 3] {
            for target in [10u64, 17, 25] {
                for counts_pattern in [
                    vec![(0usize, 3u32), (1, 2)],
                    vec![(2, 4)],
                    vec![(0, 2), (3, 2), (5, 1)],
                ] {
                    let mut counts = vec![0u32; 8];
                    for &(i, c) in &counts_pattern {
                        counts[i] = c;
                    }
                    let problem = DpProblem::new(counts, unit, target, 100);
                    let a = IterativeDp.solve(&problem).unwrap();
                    let b = MemoizedDp.solve(&problem).unwrap();
                    assert_eq!(
                        a.machines, b.machines,
                        "unit={unit} target={target} pattern={counts_pattern:?}"
                    );
                    if let Some(w) = &a.schedule {
                        assert!(verify_witness(&problem, w));
                        assert_eq!(w.len() as u32, a.machines);
                    }
                    if let Some(w) = &b.schedule {
                        assert!(verify_witness(&problem, w));
                    }
                }
            }
        }
    }

    #[test]
    fn one_config_per_machine_when_jobs_fill_capacity() {
        // 4 jobs of class 1, unit 10, target 10: each machine fits exactly
        // one job -> OPT = 4.
        let mut counts = vec![0u32; 4];
        counts[0] = 4;
        let problem = DpProblem::new(counts, 10, 10, 4);
        let out = IterativeDp.solve(&problem).unwrap();
        assert_eq!(out.machines, 4);
        let w = out.schedule.unwrap();
        assert!(w.iter().all(|c| c.iter().sum::<u32>() == 1));
    }

    #[test]
    fn bin_packing_structure_is_respected() {
        // 3 jobs of size 5 and 3 of size 3 with capacity 8: pairs (5,3)
        // pack perfectly -> 3 machines.
        let mut counts = vec![0u32; 5];
        counts[4] = 3; // class 5, unit 1, size 5
        counts[2] = 3; // class 3, size 3
        let problem = DpProblem::new(counts, 1, 8, 10);
        let out = IterativeDp.solve(&problem).unwrap();
        assert_eq!(out.machines, 3);
        assert!(verify_witness(&problem, &out.schedule.unwrap()));
    }

    #[test]
    fn regenerate_configs_matches_iterative() {
        for m in [1usize, 2, 4] {
            let a = IterativeDp.solve(&paper_problem(m)).unwrap();
            let b = RegenerateConfigsDp.solve(&paper_problem(m)).unwrap();
            assert_eq!(a.machines, b.machines);
            assert_eq!(a.schedule, b.schedule);
        }
    }

    #[test]
    fn table_guard_surfaces_as_error() {
        let problem = DpProblem {
            counts: vec![100; 8],
            unit: 1,
            target: 1000,
            max_machines: 100,
            max_entries: 1000,
        };
        assert!(IterativeDp.solve(&problem).is_err());
    }
}

//! The wavefront-parallel DP (Algorithm 3 of the paper): anti-diagonal
//! levels are processed in order with a barrier between them; inside a
//! level, subproblem values are computed in parallel from the (immutable)
//! lower levels.
//!
//! [`ParallelDp`] is the one production executor and the hot path of this
//! crate, allocating nothing per level or cell: a [`crate::persistent`]
//! worker pool spawned once per sweep over a row-major table cut into
//! blocks (see `pcmax_ptas::BlockPlan`). The trailing classes of the table
//! fold into blocks of consecutive cells; the wavefront runs over the
//! anti-diagonal levels of the remaining *outer* classes, each level's
//! blocks split evenly between the workers in contiguous runs (a static
//! schedule, as in the paper's `parallel for`), and every transition is one
//! masked vector `min` over a contiguous run or, inside a block, one step
//! of an ascending pass. [`FaithfulDp`] is the paper-literal ablation on
//! the same pool: every level scans all σ entries of the table. Both sweep
//! tables too small to pay for the pool inline on the caller (see
//! `sweep_workers`).

use crate::{persistent, simd, sync};
use pcmax_ptas::dp::fits;
use pcmax_ptas::space::{SpaceEngine, StateSpace};
use pcmax_ptas::table::{decode_into, BlockPlan, DpScratch, DpTable, KernelScratch, INFEASIBLE};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The production wavefront DP: the persistent-pool block sweep over a
/// row-major table, each outer level's blocks split evenly between the
/// workers (see [`bucketed_sweep_space`]).
///
/// Produces bit-identical tables to `pcmax_ptas::IterativeDp`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelDp {
    /// Most worker threads a sweep may use; `None` = all available cores.
    /// Tables below the serial cutoff sweep on the caller alone.
    pub threads: Option<usize>,
}

impl ParallelDp {
    /// Wavefront DP on at most `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
        }
    }
}

impl SpaceEngine for ParallelDp {
    fn engine_name(&self) -> &'static str {
        "dp-parallel"
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch) {
        table.values[0] = 0;
        let threads = crate::effective_threads(self.threads);
        bucketed_sweep_space(table, space, threads, scratch);
    }
}

/// The paper-literal wavefront, kept as the ablation the production
/// executor is measured against: every level scans *all* σ entries of a
/// row-major table and keeps those with digit sum `d_i = l` (Lines 11–12 of
/// Algorithm 3), O(σ·n′) scan work in total. It runs on the same persistent
/// pool as [`ParallelDp`] and writes in place through the same `SyncCell`
/// view; each worker scans one contiguous `⌈σ/P⌉` slice of the table.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaithfulDp {
    /// Most worker threads a sweep may use; `None` = all available cores.
    /// Tables below the serial cutoff sweep on the caller alone.
    pub threads: Option<usize>,
}

impl FaithfulDp {
    /// Paper-literal wavefront DP on at most `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
        }
    }
}

impl SpaceEngine for FaithfulDp {
    fn engine_name(&self) -> &'static str {
        "dp-parallel-faithful"
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch) {
        table.values[0] = 0;
        let threads = crate::effective_threads(self.threads);
        faithful_sweep(table, space, threads, scratch);
    }
}

/// A `Sync` view of one DP value cell, used for the in-place parallel
/// scatter. Safety rests on the wavefront protocol, not on this type.
/// [`ParallelDp`] writes whole blocks: within an outer level every block is
/// filled by exactly one worker (the workers' block ranges are disjoint),
/// its cross reads target blocks of strictly lower outer levels, sealed by
/// the pool's barrier, and its local reads target earlier cells of the
/// block its own worker is filling. [`FaithfulDp`] writes single cells of
/// its private slice and reads strictly lower levels. Either way no
/// location is ever accessed concurrently with a write.
#[repr(transparent)]
struct SyncCell(UnsafeCell<u16>);

// SAFETY: see the type-level comment — the wavefront protocol guarantees
// all concurrent accesses to a cell are reads of barrier-sealed values.
unsafe impl Sync for SyncCell {}

impl SyncCell {
    /// # Safety
    /// The cell's level must be sealed (its level's barrier passed) so no
    /// write can be concurrent with this read.
    #[inline]
    unsafe fn get(&self) -> u16 {
        unsafe { *self.0.get() }
    }

    /// # Safety
    /// The caller must be the unique writer of this cell within the current
    /// level (disjoint chunking of the level slice).
    #[inline]
    unsafe fn set(&self, value: u16) {
        unsafe { *self.0.get() = value }
    }
}

/// Reinterprets the exclusively borrowed value store as shared cells for
/// the duration of a sweep. The `&mut` borrow guarantees no other safe
/// access to `values` can coexist with the returned view.
fn shared_cells(values: &mut [u16]) -> &[SyncCell] {
    // SAFETY: `SyncCell` is `repr(transparent)` over `UnsafeCell<u16>`,
    // which has the layout of `u16`; length and provenance are preserved.
    unsafe { &*(values as *mut [u16] as *const [SyncCell]) }
}

/// The cells `start..start + len` as plain values.
///
/// # Safety
/// No write to these cells may happen while the returned slice lives: they
/// must lie in a block of a barrier-sealed outer level.
#[inline(always)]
unsafe fn sealed_run(cells: &[SyncCell], start: usize, len: usize) -> &[u16] {
    let run = &cells[start..start + len];
    // SAFETY: `run` covers exactly `len` cells of `u16` layout, and the
    // caller guarantees no concurrent write for the slice's lifetime.
    unsafe { std::slice::from_raw_parts(UnsafeCell::raw_get(run.as_ptr().cast()), len) }
}

/// The cells `start..start + len` as the caller's own block.
///
/// # Safety
/// The caller must be the only thread to access these cells while the
/// returned slice lives: they must be the block it was assigned.
#[inline(always)]
#[allow(clippy::mut_from_ref)]
unsafe fn owned_block(cells: &[SyncCell], start: usize, len: usize) -> &mut [u16] {
    let run = &cells[start..start + len];
    // SAFETY: `run` covers exactly `len` cells of `u16` layout behind
    // `UnsafeCell`s, and the caller guarantees exclusive access.
    unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(run.as_ptr().cast()), len) }
}

/// Cell-transitions per swept level below which a sweep runs inline on the
/// caller instead of on the pool. Every pooled level pays a fixed release
/// and barrier (about 20 µs on a 2-vCPU host) however few cells it holds,
/// plus one spawn per sweep. Sweeping 275 U(1,100) probe tables at 1 and 2
/// threads on that host, twice, 2 threads won on 2–3 of the 241 tables
/// below 10⁵ per outer level (none below 5×10⁴) and on 30–32 of the 34 at
/// or above it (EXPERIMENTS.md, "Serial cutoff"). Under
/// `feature = "audit"` it is 0: the race and DPOR suites keep exploring the
/// pool on their tiny tables, and the inline path has no second thread to
/// interleave.
const POOL_MIN_WORK_PER_LEVEL: u64 = if cfg!(feature = "audit") { 0 } else { 100_000 };

/// Workers a sweep runs on: `threads` when the table's work per swept
/// level — `cells × transitions ÷ swept` — reaches
/// [`POOL_MIN_WORK_PER_LEVEL`], otherwise 1, which sweeps on the caller
/// through `persistent::run_levels`' one-state path (no spawn, no barrier,
/// one `KernelScratch`). Decided once per table, not per level: the spawn
/// is paid per sweep whichever levels use the pool, so a per-level test
/// could only drop the barriers of a pooled sweep's narrow edge levels.
fn sweep_workers(threads: usize, cells: usize, transitions: usize, swept: u32) -> usize {
    let swept = u64::from(swept.max(1));
    let work = (cells as u64).saturating_mul(transitions as u64);
    // `⌊work ÷ swept⌋ < MIN` exactly, multiplied out: the product is not a
    // constant, so the audit build's MIN = 0 is no always-false comparison.
    if work < POOL_MIN_WORK_PER_LEVEL * swept {
        1
    } else {
        threads.max(1)
    }
}

/// Fewest cells a block of a `len`-cell table should hold: a 1/4096 share
/// of the table, clamped to `[16, 128]`. Sixteen cells fill one AVX2
/// register of `u16`, so even the smallest block's runs are whole vectors;
/// past 128 a block's runs no longer gain, while each outer level holds
/// fewer blocks to split between workers. Under `feature = "audit"` it is a
/// 1/8 share clamped to `[1, 4]`: the race and DPOR suites' tiny tables
/// keep outer levels of two or more blocks, and tables of 16 cells or more
/// still fold multi-cell blocks. Public so tests can build the plan a sweep
/// builds.
pub fn min_block_cells(len: usize) -> usize {
    if cfg!(feature = "audit") {
        (len / 8).clamp(1, 4)
    } else {
        (len / 4096).clamp(16, 128)
    }
}

/// The persistent-pool block sweep over a row-major table — the production
/// sweep. It runs on at most `threads` workers: a table below the serial
/// cutoff (see `sweep_workers`) is swept inline on the caller.
///
/// The table's [`BlockPlan`] groups its blocks by outer level. Outer level
/// 0 is block 0 alone, which the caller fills before the pool starts; every
/// later outer level is one release of the pool. Worker `w` of `n` takes
/// the level's blocks `[w·⌈len/n⌉, (w+1)·⌈len/n⌉) ∩ [0, len)`, a static
/// schedule as in the paper's `parallel for`, and fills them **in place**
/// (see `fill_block`). Every cross read lands on a strictly lower outer
/// level, sealed by the barrier, and every local read on an earlier cell of
/// the worker's own block. The plan and the per-worker [`KernelScratch`]
/// sets are recycled through `scratch`, the latter accounted by
/// `DpScratch::kernel_allocs`, so no sweep allocates per cell or per level;
/// per sweep it allocates the `Vec` holding the worker sets, the busy-time
/// handles while metrics are on and, when pooled, the pool's threads and
/// their handles. The space's step filter is applied to every predecessor
/// value before the min-reduce; on `PcmaxSpace` it is the always-true
/// default and the sweep monomorphizes back to the identical-machine
/// kernel.
///
/// Expects `table.values[0]` seeded to 0 and leaves it so; every other
/// cell is overwritten, so sweeping a filled table again is sound.
///
/// Public so the `pcmax-audit` interleaving suite can drive the sweep on a
/// caller-owned table and compare the filled values bit-for-bit against the
/// sequential DP under many explored schedules.
///
/// On a kernel panic, on the caller's level 0 or on the pool, the pool
/// winds down, the plan and every worker's [`KernelScratch`] are returned
/// to `scratch` first, and only then is the payload re-raised — a poisoned
/// solve cannot leak scratch into fresh allocations on the next probe
/// (`DpScratch::take_kernel_bufs` asserts it).
pub fn bucketed_sweep_space<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
) {
    let transitions = space.transitions();
    let plan = scratch.take_plan(table, transitions, min_block_cells(table.len));
    let swept_levels = table.levels().saturating_sub(1);
    let cells_computed = table.len - 1;
    let n = sweep_workers(threads, cells_computed, transitions.len(), plan.levels());
    let mut states = scratch.take_kernel_bufs(n);
    let block = plan.block();
    let cells = shared_cells(&mut table.values);
    // Per-worker busy counters resolved once per sweep: `with_label` takes
    // a mutex, so the chunk loop below only touches pre-resolved handles.
    let busy: Option<Vec<_>> = pcmax_metrics::enabled().then(|| {
        (0..n)
            .map(|w| crate::metrics::WORKER_BUSY_NANOS.with_label(pcmax_metrics::worker_label(w)))
            .collect::<Vec<_>>()
    });
    let busy = &busy;
    let plan_ref = &plan;

    let kernel = |w: usize, level: u32, kb: &mut KernelScratch| {
        let span = plan_ref.level_span(level);
        let share = span.len().div_ceil(n);
        let (lo, hi) = (
            (w * share).min(span.len()),
            ((w + 1) * share).min(span.len()),
        );
        if lo >= hi {
            return;
        }
        // The chunk span only — no trace or metric hooks inside the block
        // loop below or in `fill_block` (enforced by the audit lint's
        // trace-hot rule).
        let _chunk_span = pcmax_trace::span("chunk", w as u64);
        let started = busy
            .as_ref()
            .map(|busy| (&busy[w], std::time::Instant::now()));
        kb.prepare(block);
        // One ISA dispatch per chunk: on an AVX2 CPU running a baseline
        // build, every block fill re-enters through the `target_feature`
        // trampoline and the run loops widen.
        simd::dispatch(|| {
            for at in span.start + lo..span.start + hi {
                fill_block(space, plan_ref, cells, at, kb);
            }
        });
        if let Some((busy, t0)) = started {
            busy.inc_by(t0.elapsed().as_nanos() as u64);
        }
    };

    let sweep_start = std::time::Instant::now();
    // Outer level 0 is block 0 alone, worker 0's whole share: filling it on
    // the caller spares the pool a release and barrier for one block.
    debug_assert_eq!(plan.level_span(0).len(), 1, "outer level 0 is block 0");
    let (states, counters, panicked) =
        match catch_unwind(AssertUnwindSafe(|| kernel(0, 0, &mut states[0]))) {
            Ok(()) => persistent::run_levels_catching(states, 1..plan.levels(), kernel),
            Err(payload) => (states, persistent::PoolCounters::default(), Some(payload)),
        };
    // Busy-fraction denominator: each of the n workers could at most have
    // been busy for the whole sweep extent.
    crate::metrics::POOL_EXTENT_NANOS.inc_by(sweep_start.elapsed().as_nanos() as u64 * n as u64);
    scratch.return_kernel_bufs(states);
    scratch.return_plan(plan);
    scratch.levels_swept += u64::from(swept_levels);
    scratch.cells_computed += cells_computed as u64;
    scratch.pool_parks += counters.parks;
    scratch.pool_wakes += counters.wakes;
    if let Some(payload) = panicked {
        // Scratch is home; the solve may now die exactly like an uncaught
        // kernel panic would have.
        std::panic::resume_unwind(payload);
    }
}

/// Fills the block at position `at` of the plan's order, in place.
///
/// 1. **Cross steps.** Each cross step whose outer digits fit the block's
///    reads one contiguous run of block `r − back`, ORs in its fit mask
///    (a misfit becomes [`INFEASIBLE`], the identity of `min`), applies the
///    space's batched step filter and folds the run into the block's
///    running minima — one branch-free vector pass per step.
/// 2. **Local steps**, in one ascending pass: each cell lowers its minimum
///    with the local steps that fit it, reading earlier cells of this block
///    (already final), and is written as minimum + 1, saturating so
///    `INFEASIBLE` stays absorbing. Rank 0 keeps its seeded 0.
///
/// Bit-identity with the serial sweep: a step contributes to a cell exactly
/// when its digits fit the cell's and the filter allows the predecessor
/// value, and `min` is order-independent, so every cell takes the minimum
/// over the predecessor set `IterativeDp` takes it over.
#[inline(always)]
fn fill_block<S: StateSpace>(
    space: &S,
    plan: &BlockPlan,
    cells: &[SyncCell],
    at: usize,
    kb: &mut KernelScratch,
) {
    let block = plan.block();
    let r = plan.order()[at] as usize;
    let base = r * block;
    let outer = plan.outer_digits(at);
    let KernelScratch { acc, lanes } = kb;
    let acc = &mut acc[..block];
    acc.fill(INFEASIBLE);
    for (step, need) in plan.cross() {
        if !fits(need, outer) {
            continue;
        }
        // Cell `p ≥ low` of this block reads rank `r·B + p − offset`: cell
        // `p − low` of block `r − back`.
        let src = (r - step.back) * block;
        let run = block - step.low;
        // SAFETY: the step's outer digits fit this block's, so block
        // `r − back` has the outer digits of this one minus the step's: a
        // strictly lower outer level, sealed by the pool barrier.
        let below = unsafe { sealed_run(cells, src, run) };
        let lanes = &mut lanes[..run];
        let mask = &plan.mask(step)[step.low..];
        for (i, ((lane, &value), &misfit)) in lanes.iter_mut().zip(below).zip(mask).enumerate() {
            sync::trace_read(src + i);
            *lane = value | misfit;
        }
        space.value_of_batch(step.t_idx, lanes);
        for (best, &lane) in acc[step.low..].iter_mut().zip(lanes.iter()) {
            *best = (*best).min(lane);
        }
    }
    // SAFETY: this worker's run of the level holds block `r`, and the runs
    // are disjoint — the unique-writer precondition; no other worker reads
    // a block of the level being filled.
    let out = unsafe { owned_block(cells, base, block) };
    for p in usize::from(r == 0)..block {
        let mut best = acc[p];
        for step in plan.local() {
            if plan.mask(step)[p] == 0 {
                sync::trace_read(base + p - step.low);
                let below = out[p - step.low];
                if space.step_allowed(step.t_idx, below) {
                    best = best.min(below);
                }
            }
        }
        sync::trace_write(base + p);
        out[p] = best.saturating_add(1);
    }
}

/// The paper-literal sweep over a row-major table. The digit-sum array `D`
/// (Lines 4–8) is computed serially: it is O(σ) against the O(σ·n′) scan
/// this ablation measures. Each level (Lines 10–25) is then one release of
/// the persistent pool: worker `w` scans its contiguous slice of all σ
/// entries and computes, in place, those with `d_i = l`. The serial cutoff
/// is the production sweep's (`sweep_workers`), so the `ablation_levels`
/// bench compares the two level walks under one execution policy.
///
/// Reads satisfy the wavefront's read precondition — a nonzero config
/// `c ≤ v` has digit sum ≥ 1, so `v − c` lies on a strictly lower,
/// barrier-sealed level — and writes are disjoint because the slices
/// partition the table. The `debug_assert!` states the first; the audit
/// race detector verifies both against every explored schedule.
fn faithful_sweep<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
) {
    let d: Vec<u32> = (0..table.len).map(|idx| table.level_of(idx)).collect();
    let levels = table.levels();
    let transitions = space.transitions();
    let n = sweep_workers(
        threads,
        table.len - 1,
        transitions.len(),
        levels.saturating_sub(1),
    );
    let slice = table.len.div_ceil(n);
    let strides = &table.strides;
    let cells = shared_cells(&mut table.values);
    let kernel = |w: usize, level: u32, v: &mut Vec<u32>| {
        for idx in (w * slice).min(d.len())..((w + 1) * slice).min(d.len()) {
            if d[idx] != level {
                continue;
            }
            decode_into(idx, strides, v);
            let mut best = INFEASIBLE;
            for (t_idx, (c, offset)) in transitions.iter().enumerate() {
                if fits(c, v) {
                    let src = idx - offset;
                    debug_assert!(
                        *offset > 0 && d[src] < level,
                        "wavefront read {src} must target a strictly lower level than {idx}"
                    );
                    sync::trace_read(src);
                    // SAFETY: `src` is on a strictly lower level, sealed by
                    // the pool barrier — no concurrent write.
                    let below = unsafe { cells[src].get() };
                    if space.step_allowed(t_idx, below) {
                        best = best.min(below);
                    }
                }
            }
            sync::trace_write(idx);
            // SAFETY: `idx` lies in this worker's private slice of the
            // table — the unique writer precondition.
            unsafe { cells[idx].set(best.saturating_add(1)) };
        }
    };
    let (_, counters) = persistent::run_levels(vec![Vec::new(); n], 1..levels, kernel);
    scratch.levels_swept += levels.saturating_sub(1) as u64;
    scratch.cells_computed += (d.len() - 1) as u64;
    scratch.pool_parks += counters.parks;
    scratch.pool_wakes += counters.wakes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_ptas::config::Config;
    use pcmax_ptas::dp::{verify_witness, DpProblem, DpSolver, IterativeDp};
    use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};

    fn problems() -> Vec<DpProblem> {
        let mut out = Vec::new();
        for (pattern, unit, target) in [
            (vec![(2usize, 2u32), (4, 3)], 2u64, 30u64), // the paper's example
            (vec![(0, 3), (1, 2), (2, 1)], 1, 7),
            (vec![(5, 4)], 3, 40),
            (vec![(0, 1), (7, 2)], 2, 20),
            (vec![], 1, 10),
        ] {
            let mut counts = vec![0u32; 16];
            for &(i, c) in &pattern {
                counts[i] = c;
            }
            out.push(DpProblem::new(counts, unit, target, 64));
        }
        out
    }

    /// A table above the serial cutoff, so `threads > 1` really runs the
    /// pool: five classes of four jobs, 3,124 cells over 20 swept levels and
    /// 1,618 transitions. Its blocks hold 25 cells, so the sweep runs 13
    /// outer levels of 3.9×10⁵ cell-transitions each (FaithfulDp: 2.5×10⁵
    /// per swept level), against a cutoff of 10⁵.
    fn pooled_problem() -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[..5].fill(4);
        DpProblem::new(counts, 1, 30, 64)
    }

    /// `problem`'s table filled by the serial oracle.
    fn oracle_values(problem: &DpProblem, space_caps: Option<&[u64]>) -> Vec<u16> {
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        match space_caps {
            None => serial_sweep(&mut table, &PcmaxSpace::new(&configs)),
            Some(caps) => {
                let sizes = table.sizes.clone();
                serial_sweep(&mut table, &QSpace::new(&configs, &sizes, caps))
            }
        }
        table.values
    }

    /// `problem`'s table filled by the block sweep on `threads` workers,
    /// with the scratch that recorded it.
    fn block_values(
        problem: &DpProblem,
        space_caps: Option<&[u64]>,
        threads: usize,
    ) -> (Vec<u16>, DpScratch) {
        let mut scratch = DpScratch::new();
        let mut table = problem.build_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        match space_caps {
            None => bucketed_sweep_space(
                &mut table,
                &PcmaxSpace::new(&configs),
                threads,
                &mut scratch,
            ),
            Some(caps) => {
                let sizes = table.sizes.clone();
                let space = QSpace::new(&configs, &sizes, caps);
                bucketed_sweep_space(&mut table, &space, threads, &mut scratch)
            }
        }
        (table.values, scratch)
    }

    /// The block plan the sweep builds for `problem`.
    fn plan_of(problem: &DpProblem) -> BlockPlan {
        let table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let mut plan = BlockPlan::default();
        plan.build(&table, &configs, min_block_cells(table.len));
        plan
    }

    /// A problem over `counts` on the first classes, unit 1.
    fn problem_of(counts: &[u32], target: u64) -> DpProblem {
        let mut full = vec![0u32; 16];
        full[..counts.len()].copy_from_slice(counts);
        DpProblem::new(full, 1, target, 64)
    }

    #[test]
    fn bucketed_matches_sequential_bit_for_bit() {
        for problem in problems() {
            let seq = IterativeDp.solve(&problem).unwrap();
            let par = ParallelDp::default().solve(&problem).unwrap();
            assert_eq!(seq.machines, par.machines);
            assert_eq!(seq.schedule, par.schedule, "extraction is deterministic");
            if let Some(w) = &par.schedule {
                assert!(verify_witness(&problem, w));
            }
        }
    }

    #[test]
    fn faithful_matches_sequential() {
        for problem in problems() {
            let seq = IterativeDp.solve(&problem).unwrap();
            for threads in [1usize, 2, 4] {
                let par = FaithfulDp::with_threads(threads).solve(&problem).unwrap();
                assert_eq!(seq.machines, par.machines, "threads = {threads}");
                assert_eq!(seq.schedule, par.schedule, "threads = {threads}");
            }
        }
    }

    #[test]
    fn faithful_pool_counters_balance() {
        let mut scratch = DpScratch::new();
        FaithfulDp::with_threads(4)
            .solve_in(&pooled_problem(), &mut scratch)
            .unwrap();
        assert_eq!(scratch.pool_parks, scratch.pool_wakes);
        assert!(scratch.pool_parks > 0, "the full scan runs on the pool");
        assert_eq!(scratch.levels_swept, 20);
        assert_eq!(scratch.cells_computed, 3124);
    }

    #[test]
    fn pinned_pools_match() {
        for threads in [1usize, 2, 4] {
            let problem = &problems()[0];
            let out = ParallelDp::with_threads(threads).solve(problem).unwrap();
            assert_eq!(out.machines, 2);
        }
    }

    #[test]
    fn scratch_reuse_keeps_results_identical() {
        let mut scratch = DpScratch::new();
        for problem in problems() {
            let fresh = ParallelDp::default().solve(&problem).unwrap();
            let reused = ParallelDp::default()
                .solve_in(&problem, &mut scratch)
                .unwrap();
            assert_eq!(fresh.machines, reused.machines);
            assert_eq!(fresh.schedule, reused.schedule);
        }
        assert!(scratch.tables_reused >= 1, "later problems reuse the arena");
    }

    #[test]
    fn kernel_allocations_stay_flat_across_levels_and_probes() {
        // The zero-allocation claim: the block sweep creates at most one
        // kernel buffer per worker, ever — more levels, more probes, bigger
        // tables must not move the counter.
        let mut scratch = DpScratch::new();
        let dp = ParallelDp::with_threads(4);
        dp.solve_in(&pooled_problem(), &mut scratch).unwrap();
        let after_first = scratch.kernel_allocs;
        assert!(after_first <= 4, "at most one buffer per worker");
        assert!(scratch.pool_parks > 0, "the first probe ran on the pool");
        for problem in problems().into_iter().chain([pooled_problem()]) {
            dp.solve_in(&problem, &mut scratch).unwrap();
        }
        assert_eq!(
            scratch.kernel_allocs, after_first,
            "repeat probes must reuse every digit buffer"
        );
        assert!(scratch.cells_computed > 0);
        assert!(scratch.levels_swept > 0);
    }

    #[test]
    fn pool_counters_balance_and_surface_through_scratch() {
        let mut scratch = DpScratch::new();
        ParallelDp::with_threads(4)
            .solve_in(&pooled_problem(), &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.pool_parks, scratch.pool_wakes,
            "every entered condvar wait must return"
        );
        assert!(
            scratch.pool_parks > 0,
            "a 4-thread pool on 13 outer levels must actually park"
        );
        assert_eq!(scratch.levels_swept, 20);
        assert_eq!(scratch.cells_computed, 3124);
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn tables_below_the_cutoff_sweep_inline_on_the_caller() {
        // At the cutoff the pool runs; one cell-transition per level less
        // and the caller sweeps alone.
        let cutoff = POOL_MIN_WORK_PER_LEVEL as usize;
        assert_eq!(sweep_workers(4, cutoff, 1, 1), 4);
        assert_eq!(sweep_workers(4, cutoff - 1, 1, 1), 1);

        // The paper's example: 11 cells × 8 transitions in one block.
        let problem = &problems()[0];
        let (values, scratch) = block_values(problem, None, 4);
        assert_eq!(values, oracle_values(problem, None));
        assert_eq!(scratch.pool_parks, 0, "no pool, so no barrier to park at");
        assert_eq!(scratch.kernel_allocs, 1, "the caller's one KernelScratch");

        let mut scratch = DpScratch::new();
        FaithfulDp::with_threads(4)
            .solve_in(problem, &mut scratch)
            .unwrap();
        assert_eq!(scratch.pool_parks, 0, "the full scan shares the cutoff");
    }

    #[test]
    fn block_sweep_matches_the_serial_sweep_at_every_thread_count() {
        for problem in problems().into_iter().chain([pooled_problem()]) {
            let want = oracle_values(&problem, None);
            for threads in [1usize, 2, 3, 4] {
                let (got, _) = block_values(&problem, None, threads);
                assert_eq!(got, want, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn the_caller_fills_outer_level_0_and_the_pool_takes_the_rest() {
        // Outer level 0 is block 0 alone, so the pool is released once per
        // later outer level: the leader's `level` spans count the releases.
        let problem = pooled_problem();
        let levels = plan_of(&problem).levels() as usize;
        for threads in [2usize, 4] {
            let session = pcmax_trace::Session::start().expect("no other session is active");
            let (values, scratch) = {
                let _leader = pcmax_trace::span("leader", threads as u64);
                block_values(&problem, None, threads)
            };
            let timeline = session.finish();
            assert!(scratch.pool_parks > 0, "{threads} threads ran on the pool");
            assert_eq!(values, oracle_values(&problem, None));
            let lane = timeline
                .lanes
                .iter()
                .find(|lane| lane.events.iter().any(|e| e.name == "leader"))
                .expect("the leader's lane");
            let releases = lane
                .events
                .iter()
                .filter(|e| e.kind == pcmax_trace::EventKind::SpanEnter && e.name == "level")
                .count();
            assert_eq!(releases, levels - 1, "{threads} threads");
        }
    }

    #[test]
    fn a_table_below_one_block_sweeps_every_transition_locally() {
        // The paper's 12-cell table is smaller than the 16-cell minimum
        // block: one block, no outer class, every step local. (The audit
        // build's smaller blocks cut it into one-cell blocks instead.)
        let problem = &problems()[0];
        let plan = plan_of(problem);
        if cfg!(not(feature = "audit")) {
            assert_eq!((plan.blocks(), plan.levels()), (1, 1));
            assert_eq!(plan.cross().count(), 0);
            assert!(!plan.local().is_empty());
        }
        for threads in [1usize, 2] {
            assert_eq!(
                block_values(problem, None, threads).0,
                oracle_values(problem, None)
            );
        }
    }

    #[test]
    fn a_trailing_class_of_radix_two_folds_into_the_block() {
        // dims [5, 5, 5, 2]: the radix-2 class and the one before it make
        // 50-cell blocks over the outer classes [5, 5].
        let problem = problem_of(&[4, 4, 4, 1], 9);
        let plan = plan_of(&problem);
        if cfg!(not(feature = "audit")) {
            assert_eq!((plan.block(), plan.blocks(), plan.levels()), (50, 5, 5));
        }
        assert!(plan.cross().count() > 0 && !plan.local().is_empty());
        let want = oracle_values(&problem, None);
        for threads in [1usize, 2, 4] {
            assert_eq!(block_values(&problem, None, threads).0, want);
        }
    }

    #[test]
    fn a_single_active_class_is_one_block() {
        let mut counts = vec![0u32; 16];
        counts[5] = 40;
        let problem = DpProblem::new(counts, 1, 30, 64);
        let plan = plan_of(&problem);
        assert_eq!((plan.block(), plan.blocks(), plan.levels()), (41, 1, 1));
        assert_eq!(plan.cross().count(), 0);
        assert_eq!(
            block_values(&problem, None, 2).0,
            oracle_values(&problem, None)
        );
    }

    #[test]
    fn rank_zero_stays_seeded_at_zero() {
        // No step fits rank 0, so writing it would store INFEASIBLE; the
        // sweep must leave the seed alone, first sweep and re-sweep alike.
        for problem in [problems()[0].clone(), pooled_problem()] {
            let mut scratch = DpScratch::new();
            let mut table = problem.build_table_in(&mut scratch).unwrap();
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            for _ in 0..2 {
                bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
                assert_eq!(table.values[0], 0);
            }
            assert_eq!(table.values, oracle_values(&problem, None));
        }
    }

    #[test]
    fn a_capacity_filter_rejecting_cross_and_local_steps_matches_the_oracle() {
        // dims [3, 3, 3, 3], sizes 1..4: 27-cell blocks over outer class 0.
        // Caps [12, 3] let a load above 3 run only on the fastest machine,
        // so the filter rejects such a step out of any predecessor of value
        // 1 or more — local (0,0,0,1) with load 4 and cross (2,1,0,0) alike.
        let problem = problem_of(&[2, 2, 2, 2], 12);
        let caps = [12u64, 3];
        let plan = plan_of(&problem);
        if cfg!(not(feature = "audit")) {
            assert_eq!((plan.block(), plan.blocks()), (27, 3));
        }
        let table = problem.build_table().unwrap();
        let configs: Vec<(Config, usize)> = problem.configs_with_offsets(&table);
        let load = |t: usize| -> u64 {
            configs[t]
                .0
                .iter()
                .zip(&table.sizes)
                .map(|(&c, &s)| u64::from(c) * s)
                .sum()
        };
        assert!(plan.local().iter().any(|s| load(s.t_idx) > caps[1]));
        assert!(plan.cross().any(|(s, _)| load(s.t_idx) > caps[1]));
        let want = oracle_values(&problem, Some(&caps));
        assert_ne!(want, oracle_values(&problem, None), "the filter must bite");
        for threads in [1usize, 2, 4] {
            assert_eq!(block_values(&problem, Some(&caps), threads).0, want);
        }
    }

    #[test]
    fn panicking_sweep_returns_kernel_buffers_before_unwinding() {
        /// A state space whose filter detonates: the batched form on every
        /// block with a fitting cross step, on the pool, or the scalar form
        /// on every local step, first in block 0 on the caller.
        struct Bomb<'a> {
            space: PcmaxSpace<'a>,
            local: bool,
        }
        impl StateSpace for Bomb<'_> {
            fn transitions(&self) -> &[(Config, usize)] {
                self.space.transitions()
            }
            fn step_allowed(&self, _t_idx: usize, _below: u16) -> bool {
                assert!(!self.local, "rigged local step filter");
                true
            }
            fn value_of_batch(&self, _t_idx: usize, _below: &mut [u16]) {
                assert!(self.local, "rigged cross step filter");
            }
        }

        let mut scratch = DpScratch::new();
        let problem = &pooled_problem();
        // Prime the pool so the post-panic probe has buffers to reuse.
        ParallelDp::with_threads(2)
            .solve_in(problem, &mut scratch)
            .unwrap();
        let allocs = scratch.kernel_allocs;
        assert_eq!(allocs, 2, "both workers of the pool hold a buffer");

        for local in [false, true] {
            let mut table = problem.build_table_in(&mut scratch).unwrap();
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            let space = Bomb {
                space: PcmaxSpace::new(&configs),
                local,
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bucketed_sweep_space(&mut table, &space, 2, &mut scratch)
            }));
            assert!(caught.is_err(), "the rigged filter must unwind the sweep");
            scratch.recycle(table);

            // Every buffer went home before the unwind: the next probe
            // reuses them (and `take_kernel_bufs` would assert on any
            // outstanding leak).
            ParallelDp::with_threads(2)
                .solve_in(problem, &mut scratch)
                .unwrap();
            assert_eq!(
                scratch.kernel_allocs, allocs,
                "a poisoned solve must not leak kernel scratch (local: {local})"
            );
        }
    }

    #[test]
    fn paper_example_table_values() {
        // Table I of the paper: with capacity 30, unit 2, sizes {6, 10} and
        // N = (2, 3) the full DP values in row-major order are:
        // (0,0)=0 (0,1)=1 (0,2)=1 (0,3)=1
        // (1,0)=1 (1,1)=1 (1,2)=1 (1,3)=2
        // (2,0)=1 (2,1)=1 (2,2)=2 (2,3)=2
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let problem = DpProblem::new(counts, 2, 30, 64);
        let mut scratch = DpScratch::new();
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
        assert_eq!(table.values, vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2]);
        assert_eq!(scratch.cells_computed, 11);
    }

    #[test]
    fn q_space_engines_match_the_serial_engine() {
        /// Fills a fresh table with `engine` for the capacity-filtered space.
        fn q_values<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> Vec<u16> {
            let mut scratch = DpScratch::new();
            let mut table = problem.build_table_in(&mut scratch).unwrap();
            let configs = problem.configs_with_offsets(&table);
            let space = QSpace::new(&configs, &table.sizes, caps);
            engine.sweep(&mut table, &space, &mut scratch);
            table.values
        }

        // Capacity profiles from one machine to strongly heterogeneous; the
        // parallel engines must reproduce the serial generic sweep bit for
        // bit under the step filter, not just on P||Cmax.
        let caps_sets: Vec<Vec<u64>> = vec![
            vec![30, 30, 30, 30],
            vec![30, 20, 10, 6],
            vec![30, 6],
            vec![12, 4],
        ];
        for problem in problems() {
            for caps in &caps_sets {
                let want = q_values(&IterativeDp, &problem, caps);
                for (name, got) in [
                    ("parallel", q_values(&ParallelDp::default(), &problem, caps)),
                    (
                        "parallel/3",
                        q_values(&ParallelDp::with_threads(3), &problem, caps),
                    ),
                    ("faithful", q_values(&FaithfulDp::default(), &problem, caps)),
                    (
                        "faithful/3",
                        q_values(&FaithfulDp::with_threads(3), &problem, caps),
                    ),
                ] {
                    assert_eq!(got, want, "{name} diverged on caps {caps:?}");
                }
            }
        }
    }

    #[test]
    fn memoized_q_space_matches_the_serial_oracle() {
        use pcmax_ptas::dp::{finish_with, DpOutcome, MemoizedDp};

        /// `OPT(N)` and the witness `engine` extracts on the
        /// capacity-filtered space. The memoized walk leaves unreachable
        /// cells `UNVISITED`, so whole tables are not comparable.
        fn q_outcome<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> DpOutcome {
            let mut scratch = DpScratch::new();
            let mut table = problem.build_table_in(&mut scratch).unwrap();
            let configs = problem.configs_with_offsets(&table);
            let space = QSpace::new(&configs, &table.sizes, caps);
            engine.sweep(&mut table, &space, &mut scratch);
            finish_with(problem, table, &space, &mut scratch).unwrap()
        }

        // The caps sets of `q_space_engines_match_the_serial_engine`.
        let caps_sets: Vec<Vec<u64>> = vec![
            vec![30, 30, 30, 30],
            vec![30, 20, 10, 6],
            vec![30, 6],
            vec![12, 4],
        ];
        for problem in problems() {
            for caps in &caps_sets {
                assert_eq!(
                    q_outcome(&MemoizedDp, &problem, caps),
                    q_outcome(&IterativeDp, &problem, caps),
                    "memoized diverged on caps {caps:?}"
                );
            }
        }
    }

    #[test]
    fn qptas_parallel_engine_matches_serial_end_to_end() {
        use pcmax_core::Instance;
        use pcmax_ptas::QPtas;
        use pcmax_workloads::{generate_uniform, Distribution, Family, SpeedFamily};

        let fam = SpeedFamily::new(Family::new(3, 12, Distribution::U1To100), 4);
        for seed in 0..4 {
            let inst = generate_uniform(fam, seed);
            let serial = QPtas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
            let parallel = QPtas::with_engine(0.3, ParallelDp::default())
                .unwrap()
                .solve_detailed(&inst)
                .unwrap();
            assert_eq!(serial.target, parallel.target, "seed {seed}");
            assert_eq!(
                serial.schedule, parallel.schedule,
                "extraction is deterministic across engines (seed {seed})"
            );
            parallel.schedule.validate(&inst).unwrap();
        }
        // And on an identical-machine instance (speeds default to 1), with
        // the row-major engine.
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let serial = QPtas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let parallel = QPtas::with_engine(0.3, FaithfulDp::default())
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(serial.target, parallel.target);
        assert_eq!(serial.schedule, parallel.schedule);
    }
}

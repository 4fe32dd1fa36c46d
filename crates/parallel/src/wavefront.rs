//! The wavefront-parallel DP (Algorithm 3 of the paper): anti-diagonal
//! levels are processed in order with a barrier between them; inside a
//! level, subproblem values are computed in parallel from the (immutable)
//! lower levels.
//!
//! [`ParallelDp`] is the one production executor and the zero-allocation
//! hot path of this crate: a [`crate::persistent`] worker pool spawned once
//! per sweep, a level-major table (each level one contiguous slice, see
//! `pcmax_ptas::LevelLayout`) so the scatter is a **parallel in-place
//! write** over disjoint sub-slices, the batched strip kernel, and an
//! incremental in-level decode (`next_in_level`) so no per-cell `Vec` is
//! ever allocated. [`FaithfulDp`] is the paper-literal ablation on the same
//! pool: every level scans all σ entries of a row-major table. Both sweep
//! tables too small to pay for the pool inline on the caller (see
//! [`sweep_workers`]).

use crate::{persistent, simd, sync};
use pcmax_ptas::config::Config;
use pcmax_ptas::dp::fits;
use pcmax_ptas::space::{serial_sweep, SpaceEngine, StateSpace};
use pcmax_ptas::table::{
    decode_into, next_in_level, strip_digits, DpScratch, DpTable, KernelScratch, INFEASIBLE,
    STRIP_LANES,
};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the bucketed sweep computes the cells of one worker chunk. The
/// production sweep always runs `Strip`; `Scalar` survives as the kernel
/// bench's denominator and the equivalence proptests' reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKernel {
    /// The batched lane-parallel kernel: cells are advanced a strip of
    /// [`STRIP_LANES`] at a time, strips are grouped into L1-sized tiles,
    /// and the min-reduction runs over packed `u16` lanes (see
    /// [`strip_chunk`] and [`crate::simd`]). Bit-identical to `Scalar`.
    Strip,
    /// One cell at a time — the pre-batching kernel.
    Scalar,
}

/// The production wavefront DP: the persistent-pool sweep over a
/// level-major table, with the strip kernel and adaptive chunking (see
/// [`bucketed_sweep_space`]).
///
/// Produces bit-identical tables to `pcmax_ptas::IterativeDp` (compare via
/// `DpTable::values_row_major`).
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

    fn level_major(&self) -> bool {
        true
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch) {
        // Rank 0 is the sole level-0 entry, stored at position 0 in the
        // level-major layout too, so this seed write needs no translation.
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
/// scatter. Safety rests on the wavefront protocol, not on this type:
/// within a level every position is written by exactly one worker (the
/// workers' chunks are disjoint), and reads only target positions of
/// strictly lower levels, sealed by the pool's barrier — so no location is
/// ever accessed concurrently with a write.
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

/// The trace-driven chunk autotuner: replaces the fixed `len.div_ceil(n)`
/// split with a per-level proportional split over each worker's measured
/// throughput, so a worker that keeps finishing early (asymmetric cores,
/// interference, NUMA) is handed a larger share instead of parking at the
/// barrier.
///
/// ## Why two speed buffers
///
/// Worker speeds are published through atomics, and *every* worker computes
/// the *whole* partition locally — the partition is only disjoint if they
/// all read identical speeds. A single buffer would race: a fast worker
/// could publish its level-`l` measurement while a slow peer is still
/// planning level `l` from the same slots. So the speeds are double-buffered
/// by level parity: planning level `l` reads `speeds[l % 2]`, measurements
/// taken *during* level `l` are written to `speeds[(l + 1) % 2]`, and the
/// pool barrier between levels seals each buffer before anyone reads it.
/// Every worker therefore snapshots the same sealed values and derives the
/// same boundaries.
///
/// Under `feature = "audit"` the tuner is pinned off (static split):
/// timing-driven boundaries would make per-thread op sequences differ
/// between a recorded schedule and its replay, breaking the exploration
/// scheduler and DPOR's determinism requirement.
struct ChunkPlanner {
    /// `speeds[parity * n + w]`: EWMA throughput of worker `w` (cells per
    /// millisecond, clamped ≥ 1), for levels of that parity.
    speeds: Vec<AtomicU64>,
    n: usize,
    adaptive: bool,
}

impl ChunkPlanner {
    /// Neutral pre-measurement weight: all workers start equal, and the
    /// EWMA pulls each lane toward its measured rate within a few levels.
    const INITIAL_SPEED: u64 = 1 << 16;

    fn new(n: usize) -> Self {
        let adaptive = !cfg!(feature = "audit") && n > 1;
        let speeds = (0..2 * n)
            .map(|_| AtomicU64::new(Self::INITIAL_SPEED))
            .collect();
        Self {
            speeds,
            n,
            adaptive,
        }
    }

    /// Worker `w`'s half-open cell range within a level of `len` cells.
    /// Interior boundaries are aligned down to whole strips so only the
    /// level's last strip can be ragged under the strip kernel.
    fn bounds(&self, w: usize, level: u32, len: usize) -> (usize, usize) {
        if !self.adaptive {
            let chunk = len.div_ceil(self.n);
            return ((w * chunk).min(len), ((w + 1) * chunk).min(len));
        }
        let read = (level as usize % 2) * self.n;
        let mut total = 0u128;
        for slot in &self.speeds[read..read + self.n] {
            // SeqCst is off the hot path (n loads per worker per level) and
            // sidesteps any ordering subtlety; the disjointness argument
            // rests on the barrier sealing this parity's buffer anyway.
            total += slot.load(Ordering::SeqCst) as u128;
        }
        let mut start = 0usize;
        let mut acc = 0u128;
        for i in 0..self.n {
            acc += self.speeds[read + i].load(Ordering::SeqCst) as u128;
            let prorated = ((acc * len as u128) / total) as usize;
            let end = if i + 1 == self.n {
                len
            } else {
                ((prorated / STRIP_LANES) * STRIP_LANES).clamp(start, len)
            };
            if i == w {
                return (start, end);
            }
            start = end;
        }
        unreachable!("worker {w} out of range for a {}-worker planner", self.n)
    }

    /// Publishes worker `w`'s measured level-`level` throughput into the
    /// buffer that plans level `level + 1` (see the type docs for why this
    /// never races with [`bounds`]).
    fn record(&self, w: usize, level: u32, cells: usize, nanos: u64) {
        if !self.adaptive || cells == 0 {
            return;
        }
        let read = (level as usize % 2) * self.n;
        let write = ((level as usize + 1) % 2) * self.n;
        let measured = ((cells as u128 * 1_000_000) / nanos.max(1) as u128).max(1);
        let measured = u64::try_from(measured).unwrap_or(u64::MAX);
        let old = self.speeds[read + w].load(Ordering::SeqCst);
        // EWMA (¾ old, ¼ new): adapts within a few levels without letting a
        // single stalled chunk zero out a worker's share.
        let blended = (old / 4)
            .saturating_mul(3)
            .saturating_add(measured / 4)
            .max(1);
        self.speeds[write + w].store(blended, Ordering::SeqCst);
    }
}

/// Cell-transitions per swept level below which a sweep runs inline on the
/// caller instead of on the pool. Every pooled level pays a fixed release
/// and barrier (about 20 µs on a 2-vCPU host) however few cells it holds,
/// plus one spawn per sweep. Sweeping 260 U(1,100) probe tables at 1 and 2
/// threads on that host, 2 threads won on 3 of the 174 tables below 5×10³
/// (by at most ×0.81) and on all 58 above 1.5×10⁴; between the two the
/// repeated runs disagreed (EXPERIMENTS.md, "Serial cutoff"). Under
/// `feature = "audit"` it is 0, as `ChunkPlanner` pins static chunking
/// there: the race and DPOR suites keep exploring the pool on their tiny
/// tables, and the inline path has no second thread to interleave.
const POOL_MIN_WORK_PER_LEVEL: u64 = if cfg!(feature = "audit") { 0 } else { 10_000 };

/// Workers a sweep runs on: `threads` when the table's work per level —
/// `cells × transitions ÷ swept levels` — reaches
/// [`POOL_MIN_WORK_PER_LEVEL`], otherwise 1, which sweeps on the caller
/// through `persistent::run_levels`' one-state path (no spawn, no barrier,
/// one `KernelScratch`). Decided once per table, not per level: the spawn
/// is paid per sweep whichever levels use the pool, so a per-level test
/// could only drop the barriers of a pooled sweep's narrow edge levels.
fn sweep_workers(threads: usize, cells: usize, transitions: usize, levels: u32) -> usize {
    let swept = u64::from(levels.saturating_sub(1).max(1));
    let work = (cells as u64).saturating_mul(transitions as u64);
    // `⌊work ÷ swept⌋ < MIN` exactly, multiplied out: the product is not a
    // constant, so the audit build's MIN = 0 is no always-false comparison.
    if work < POOL_MIN_WORK_PER_LEVEL * swept {
        1
    } else {
        threads.max(1)
    }
}

/// Cells per tile for a `k`-class table: sized so a tile's transposed digit
/// block (`4·k` bytes per cell) fills about half a typical L1d (16 KiB),
/// rounded to whole strips and clamped to `[STRIP_LANES, 1024]` so the
/// per-tile `ranks`/`best` stay resident too. Each transition's predecessor
/// gather then revisits a window that was touched at most one tile ago.
fn tile_cells_for(k: usize) -> usize {
    const L1_BUDGET_BYTES: usize = 16 << 10;
    let cells = L1_BUDGET_BYTES / (4 * k.max(1));
    ((cells / STRIP_LANES) * STRIP_LANES).clamp(STRIP_LANES, 1024)
}

/// The zero-allocation persistent-pool sweep over a level-major table, with
/// the strip kernel and adaptive chunking — the production sweep. It runs
/// on at most `threads` workers: a table below the serial cutoff (see
/// [`sweep_workers`]) is swept inline on the caller.
///
/// Each level `l` is the contiguous slice `starts[l]..starts[l+1]`; workers
/// split it into disjoint chunks and write results **in place** (no results
/// `Vec`, no sequential copy). The cell kernel decodes only its chunk's
/// first vector, then walks the level with the bounded-composition
/// successor [`next_in_level`] — no per-cell heap allocation; the only
/// buffers are the per-worker [`KernelScratch`] sets accounted by
/// `DpScratch::kernel_allocs`. Reads translate row-major ranks through the
/// layout's permutation and target strictly lower (barrier-sealed) levels.
/// The space's `step_allowed` filter is applied between the barrier-sealed
/// read and the min-reduce; on `PcmaxSpace` it is the always-true default
/// and the sweep monomorphizes back to the identical-machine kernel.
///
/// Public so the `pcmax-audit` interleaving suite can drive the sweep on a
/// caller-owned table and compare the filled values bit-for-bit against the
/// sequential DP under many explored schedules. Falls back to
/// [`serial_sweep`] when `table` is not level-major (results are identical
/// either way).
pub fn bucketed_sweep_space<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
) {
    bucketed_sweep_space_with(table, space, threads, scratch, CellKernel::Strip)
}

/// [`bucketed_sweep_space`] with an explicit cell kernel (the kernel bench
/// and the equivalence proptests compare both; results are identical).
///
/// On a kernel panic the pool winds down, every worker's [`KernelScratch`]
/// is returned to `scratch` first, and only then is the payload re-raised —
/// a poisoned solve cannot leak scratch into fresh allocations on the next
/// probe (`DpScratch::take_kernel_bufs` asserts it).
pub fn bucketed_sweep_space_with<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
    cell_kernel: CellKernel,
) {
    let Some(layout) = table.layout.as_ref() else {
        serial_sweep(table, space);
        scratch.levels_swept += table.levels().saturating_sub(1) as u64;
        scratch.cells_computed += (table.len - 1) as u64;
        return;
    };
    let transitions = space.transitions();
    let levels = table.levels();
    let n = sweep_workers(threads, table.len - 1, transitions.len(), levels);
    let states = scratch.take_kernel_bufs(n);
    let strides = &table.strides;
    let dims = &table.dims;
    let k = dims.len();
    // The intrinsic fit compare is a signed 32-bit `>`; radices are job
    // counts + 1, bounded by the table size, so this can only fire on an
    // absurd hand-built table — checked once instead of trusted per lane.
    assert!(
        dims.iter().all(|&d| d < 1 << 31),
        "radix overflows the lane compare"
    );
    let tile_cells = tile_cells_for(k);
    let perm = layout.perm();
    let inv = layout.inv();
    let cells = shared_cells(&mut table.values);
    let planner = &ChunkPlanner::new(n);
    // Per-worker busy counters resolved once per sweep: `with_label` takes
    // a mutex, so the chunk loop below only touches pre-resolved handles.
    let busy: Option<Vec<_>> = pcmax_metrics::enabled().then(|| {
        (0..n)
            .map(|w| crate::metrics::WORKER_BUSY_NANOS.with_label(pcmax_metrics::worker_label(w)))
            .collect::<Vec<_>>()
    });
    let busy = &busy;

    let kernel = |w: usize, level: u32, kb: &mut KernelScratch| {
        let span = layout.level_span(level);
        let (clo, chi) = planner.bounds(w, level, span.len());
        let lo = span.start + clo;
        let hi = span.start + chi;
        if lo >= hi {
            return;
        }
        pcmax_trace::chunk_decision(w as u64, (hi - lo) as u64);
        crate::metrics::CHUNK_CELLS.observe((hi - lo) as u64);
        // Chunk span and chunk-size observation only — no trace or metric
        // hooks inside the cell loops below (enforced by the audit lint's
        // trace-hot rule).
        let _chunk_span = pcmax_trace::span("chunk", w as u64);
        let t0 = (planner.adaptive || busy.is_some()).then(std::time::Instant::now);
        match cell_kernel {
            CellKernel::Strip => {
                kb.prepare(k, tile_cells);
                // One ISA dispatch per chunk: on an AVX2 CPU running a
                // baseline build, the whole tile walk re-enters through the
                // `target_feature` trampoline and the lane loops widen.
                simd::dispatch(|| {
                    strip_chunk(
                        space,
                        transitions,
                        cells,
                        kb,
                        dims,
                        strides,
                        perm,
                        inv,
                        tile_cells,
                        span.start,
                        lo,
                        hi,
                    )
                });
            }
            CellKernel::Scalar => scalar_chunk(
                space,
                transitions,
                cells,
                &mut kb.digits,
                dims,
                strides,
                perm,
                inv,
                span.start,
                lo,
                hi,
            ),
        }
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos() as u64;
            if let Some(busy) = busy {
                busy[w].inc_by(nanos);
            }
            if planner.adaptive {
                planner.record(w, level, hi - lo, nanos);
            }
        }
    };

    let sweep_start = std::time::Instant::now();
    let (states, counters, panicked) = persistent::run_levels_catching(states, 1..levels, kernel);
    // Busy-fraction denominator: each of the n workers could at most have
    // been busy for the whole sweep extent.
    crate::metrics::POOL_EXTENT_NANOS.inc_by(sweep_start.elapsed().as_nanos() as u64 * n as u64);
    scratch.return_kernel_bufs(states);
    scratch.levels_swept += levels.saturating_sub(1) as u64;
    scratch.cells_computed += (table.len - 1) as u64;
    scratch.pool_parks += counters.parks;
    scratch.pool_wakes += counters.wakes;
    if let Some(payload) = panicked {
        // Scratch is home; the solve may now die exactly like an uncaught
        // kernel panic would have.
        std::panic::resume_unwind(payload);
    }
}

/// The pre-batching per-cell kernel over one chunk: one decode at the chunk
/// head, the incremental [`next_in_level`] walk, and a scalar min-reduce
/// per cell.
#[allow(clippy::too_many_arguments)]
fn scalar_chunk<S: StateSpace>(
    space: &S,
    transitions: &[(Config, usize)],
    cells: &[SyncCell],
    digits: &mut Vec<u32>,
    dims: &[u32],
    strides: &[usize],
    perm: &[u32],
    inv: &[u32],
    span_start: usize,
    lo: usize,
    hi: usize,
) {
    // One decode per chunk; every later cell advances incrementally.
    decode_into(inv[lo] as usize, strides, digits);
    for p in lo..hi {
        let rank = inv[p] as usize;
        debug_assert_eq!(
            digits
                .iter()
                .zip(strides)
                .map(|(&d, &s)| d as usize * s)
                .sum::<usize>(),
            rank,
            "incremental in-level decode diverged from the layout"
        );
        let mut best = INFEASIBLE;
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            if fits(c, digits) {
                let src = perm[rank - offset] as usize;
                debug_assert!(
                    *offset > 0 && src < span_start,
                    "wavefront read {src} must lie strictly below the level slice"
                );
                sync::trace_read(src);
                // SAFETY: `src` is below this level's slice, hence on a
                // level sealed by the pool barrier — no concurrent write.
                let below = unsafe { cells[src].get() };
                if space.step_allowed(t_idx, below) {
                    best = best.min(below);
                }
            }
        }
        sync::trace_write(p);
        // SAFETY: `p` lies in this worker's private chunk of the level
        // slice — the unique writer precondition.
        unsafe { cells[p].set(best.saturating_add(1)) };
        if p + 1 < hi {
            let advanced = next_in_level(digits, dims);
            debug_assert!(advanced, "level slice ended before the chunk did");
        }
    }
}

/// Fixed-width view of one strip row of the scratch buffers.
#[inline(always)]
fn strip_row<T>(row: &[T]) -> &[T; STRIP_LANES] {
    // audit:allow(unwrap): a strip row is exactly STRIP_LANES elements by construction.
    row.try_into().expect("strip row")
}

/// Mutable fixed-width view of one strip row of the scratch buffers.
#[inline(always)]
fn strip_row_mut<T>(row: &mut [T]) -> &mut [T; STRIP_LANES] {
    // audit:allow(unwrap): a strip row is exactly STRIP_LANES elements by construction.
    row.try_into().expect("strip row")
}

/// The batched lane-parallel kernel over one chunk.
///
/// Cells are walked in strips of [`STRIP_LANES`] and strips are grouped
/// into L1-sized tiles (see [`tile_cells_for`]). Per tile:
///
/// 1. **record** — advance the mixed-radix walk a strip at a time
///    ([`strip_digits`]), transposing digits class-major into the block so
///    a transition's fit check is one lane-parallel compare per class;
///    stash each cell's row-major rank. Ragged final strips are padded
///    with all-zero digit lanes — no (nonzero) transition fits them, so
///    the mask keeps padding out of every gather.
/// 2. **reduce** — transitions outermost, then strips: accumulate the
///    per-lane misfit mask ([`simd::accum_gt_mask_u32`]), gather the
///    barrier-sealed predecessor values for the surviving lanes, apply the
///    space's batched step filter, and fold with a lane-parallel min.
///    Keeping the transition outermost means its predecessor window (one
///    fixed offset below the tile) is revisited while cache-resident.
/// 3. **write back** — saturating `+1` per lane (INFEASIBLE stays
///    absorbing) and an in-place scatter of the real (unpadded) lanes.
///
/// Bit-identity with [`scalar_chunk`]: a lane contributes `below` exactly
/// when the componentwise fit passes and the step filter allows it —
/// otherwise it contributes `INFEASIBLE`, the identity of `min` — and the
/// fold preserves the transition order, so every cell sees the same
/// min-reduction the scalar kernel computes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn strip_chunk<S: StateSpace>(
    space: &S,
    transitions: &[(Config, usize)],
    cells: &[SyncCell],
    kb: &mut KernelScratch,
    dims: &[u32],
    strides: &[usize],
    perm: &[u32],
    inv: &[u32],
    tile_cells: usize,
    span_start: usize,
    lo: usize,
    hi: usize,
) {
    const W: usize = STRIP_LANES;
    let k = dims.len();
    let KernelScratch {
        digits,
        block,
        ranks,
        best,
    } = kb;
    decode_into(inv[lo] as usize, strides, digits);
    debug_assert_eq!(digits.len(), k, "decode_into yields one digit per class");
    let mut p = lo;
    while p < hi {
        let tile_end = (p + tile_cells).min(hi);
        let strips = (tile_end - p).div_ceil(W);
        for s in 0..strips {
            let first = p + s * W;
            let width = W.min(tile_end - first);
            let sb = &mut block[s * k * W..(s + 1) * k * W];
            let contiguous = strip_digits(digits, dims, sb, width);
            debug_assert!(contiguous, "level slice ended before the strip did");
            debug_assert_eq!(
                (0..k)
                    .map(|a| sb[a * W] as usize * strides[a])
                    .sum::<usize>(),
                inv[first] as usize,
                "incremental strip walk diverged from the layout"
            );
            for (i, r) in ranks[s * W..s * W + width].iter_mut().enumerate() {
                *r = inv[first + i];
            }
            for a in 0..k {
                for lane in &mut sb[a * W + width..(a + 1) * W] {
                    *lane = 0;
                }
            }
            if first + width < hi {
                let advanced = next_in_level(digits, dims);
                debug_assert!(advanced, "level slice ended before the chunk did");
            }
        }
        for b in &mut best[..strips * W] {
            *b = INFEASIBLE;
        }
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            debug_assert!(*offset > 0, "transitions must advance the wavefront");
            for s in 0..strips {
                let sb = &block[s * k * W..(s + 1) * k * W];
                let mut misfit = [0u32; W];
                for (a, &needed) in c.iter().enumerate() {
                    if needed == 0 {
                        continue;
                    }
                    simd::accum_gt_mask_u32(
                        &mut misfit,
                        needed,
                        strip_row(&sb[a * W..(a + 1) * W]),
                    );
                }
                let mut below = [INFEASIBLE; W];
                for (i, b) in below.iter_mut().enumerate() {
                    if misfit[i] == 0 {
                        let src = perm[ranks[s * W + i] as usize - offset] as usize;
                        debug_assert!(
                            src < span_start,
                            "wavefront read {src} must lie strictly below the level slice"
                        );
                        sync::trace_read(src);
                        // SAFETY: `src` is below this level's slice, hence
                        // on a level sealed by the pool barrier — no
                        // concurrent write.
                        *b = unsafe { cells[src].get() };
                    }
                }
                space.value_of_batch(t_idx, &mut below);
                simd::min_assign_u16(strip_row_mut(&mut best[s * W..(s + 1) * W]), &below);
            }
        }
        for s in 0..strips {
            let first = p + s * W;
            let width = W.min(tile_end - first);
            let acc = strip_row_mut(&mut best[s * W..(s + 1) * W]);
            simd::saturating_add1_u16(acc);
            for (i, out) in cells[first..first + width].iter().enumerate() {
                sync::trace_write(first + i);
                // SAFETY: positions in this worker's private chunk of the
                // level slice — the unique writer precondition.
                unsafe { out.set(acc[i]) };
            }
        }
        p = tile_end;
    }
}

/// The paper-literal sweep over a row-major table. The digit-sum array `D`
/// (Lines 4–8) is computed serially: it is O(σ) against the O(σ·n′) scan
/// this ablation measures. Each level (Lines 10–25) is then one release of
/// the persistent pool: worker `w` scans its contiguous slice of all σ
/// entries and computes, in place, those with `d_i = l`. The serial cutoff
/// is the production sweep's ([`sweep_workers`]), so the `ablation_levels`
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
    let n = sweep_workers(threads, table.len - 1, transitions.len(), levels);
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
    use pcmax_ptas::dp::{verify_witness, DpProblem, DpSolver, IterativeDp};
    use pcmax_ptas::space::PcmaxSpace;

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
    /// pool: four classes of four jobs, 624 cells over 16 swept levels and
    /// 441 transitions, 1.7×10⁴ cell-transitions per level.
    fn pooled_problem() -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[..4].fill(4);
        DpProblem::new(counts, 1, 24, 64)
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
        assert_eq!(scratch.levels_swept, 16);
        assert_eq!(scratch.cells_computed, 624);
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
        // The zero-allocation claim: the bucketed sweep creates at most one
        // digit buffer per worker, ever — more levels, more probes, bigger
        // tables must not move the counter.
        let mut scratch = DpScratch::new();
        let dp = ParallelDp::with_threads(4);
        let problem = &problems()[0];
        dp.solve_in(problem, &mut scratch).unwrap();
        let after_first = scratch.kernel_allocs;
        assert!(after_first <= 4, "at most one buffer per worker");
        for problem in problems() {
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
            "a 4-thread pool on 17 levels must actually park"
        );
        assert_eq!(scratch.levels_swept, 16);
        assert_eq!(scratch.cells_computed, 624);
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn tables_below_the_cutoff_sweep_inline_on_the_caller() {
        // At the cutoff the pool runs; one cell-transition per level less
        // and the caller sweeps alone.
        let cutoff = POOL_MIN_WORK_PER_LEVEL as usize;
        assert_eq!(sweep_workers(4, cutoff, 1, 2), 4);
        assert_eq!(sweep_workers(4, cutoff - 1, 1, 2), 1);

        // The paper's example: 11 cells × 3 transitions over 5 levels.
        let problem = &problems()[0];
        let want = {
            let mut table = problem.build_table().unwrap();
            let configs = problem.configs_with_offsets(&table);
            serial_sweep(&mut table, &PcmaxSpace::new(&configs));
            table.values_row_major()
        };
        let mut scratch = DpScratch::new();
        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 4, &mut scratch);
        assert_eq!(table.values_row_major(), want);
        assert_eq!(scratch.pool_parks, 0, "no pool, so no barrier to park at");
        assert_eq!(scratch.kernel_allocs, 1, "the caller's one KernelScratch");

        let mut scratch = DpScratch::new();
        FaithfulDp::with_threads(4)
            .solve_in(problem, &mut scratch)
            .unwrap();
        assert_eq!(scratch.pool_parks, 0, "the full scan shares the cutoff");
    }

    #[test]
    fn scalar_and_strip_kernels_match_bit_for_bit() {
        for problem in problems() {
            let mut scratch = DpScratch::new();
            let mut want = None;
            for kernel in [CellKernel::Scalar, CellKernel::Strip] {
                for threads in [1usize, 2, 4] {
                    let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
                    let configs = problem.configs_with_offsets(&table);
                    table.values[0] = 0;
                    bucketed_sweep_space_with(
                        &mut table,
                        &PcmaxSpace::new(&configs),
                        threads,
                        &mut scratch,
                        kernel,
                    );
                    let got = table.values_row_major();
                    match &want {
                        None => want = Some(got),
                        Some(w) => {
                            assert_eq!(&got, w, "{kernel:?}/{threads} threads diverged")
                        }
                    }
                    scratch.recycle(table);
                }
            }
        }
    }

    #[test]
    fn panicking_sweep_returns_kernel_buffers_before_unwinding() {
        /// A state space whose batched filter detonates: every strip-kernel
        /// chunk with at least one transition panics mid-level.
        struct Bomb<'a>(PcmaxSpace<'a>);
        impl StateSpace for Bomb<'_> {
            fn transitions(&self) -> &[(Config, usize)] {
                self.0.transitions()
            }
            fn value_of_batch(&self, _t_idx: usize, _below: &mut [u16]) {
                panic!("rigged step filter");
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

        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bucketed_sweep_space(
                &mut table,
                &Bomb(PcmaxSpace::new(&configs)),
                2,
                &mut scratch,
            )
        }));
        assert!(caught.is_err(), "the rigged filter must unwind the sweep");
        scratch.recycle(table);

        // The wind-down handed every buffer home: the next probe reuses them
        // (and `take_kernel_bufs` would assert on any outstanding leak).
        ParallelDp::with_threads(2)
            .solve_in(problem, &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.kernel_allocs, allocs,
            "a poisoned solve must not leak kernel scratch"
        );
    }

    #[test]
    fn adaptive_chunking_still_partitions_exactly() {
        // Exercise the planner's prefix arithmetic directly across skewed
        // speed profiles: the n ranges must tile 0..len exactly, whatever
        // the measurements said.
        for n in [1usize, 2, 3, 4, 7] {
            let planner = ChunkPlanner::new(n);
            for (w, speed) in [(0usize, 10u64), (1, 100_000), (2, 1)] {
                if w < n {
                    // Feed wildly skewed measurements for both parities.
                    planner.record(w, 0, 1000, 1_000_000_000 / speed.max(1));
                    planner.record(w, 1, 1000, 1_000_000_000 / speed.max(1));
                }
            }
            for level in 1..6u32 {
                for len in [0usize, 1, 5, STRIP_LANES, 1000, 1001] {
                    let mut expect = 0usize;
                    for w in 0..n {
                        let (lo, hi) = planner.bounds(w, level, len);
                        assert_eq!(lo, expect, "worker {w} must start where {w}-1 ended");
                        assert!(hi >= lo && hi <= len);
                        if w + 1 < n && cfg!(not(feature = "audit")) && n > 1 {
                            assert_eq!(hi % STRIP_LANES, 0, "interior bounds strip-aligned");
                        }
                        expect = hi;
                    }
                    assert_eq!(expect, len, "the chunks must cover the level");
                }
            }
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
        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
        assert_eq!(
            table.values_row_major(),
            vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
        );
    }

    #[test]
    fn q_space_engines_match_the_serial_engine() {
        use pcmax_ptas::space::QSpace;

        /// Fills a fresh table in `engine`'s layout for the capacity-filtered
        /// space and returns it in row-major order.
        fn q_values<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> Vec<u16> {
            let mut scratch = DpScratch::new();
            let mut table = if engine.level_major() {
                problem.build_level_major_table_in(&mut scratch).unwrap()
            } else {
                problem.build_table_in(&mut scratch).unwrap()
            };
            let configs = problem.configs_with_offsets(&table);
            let space = QSpace::new(&configs, &table.sizes, caps);
            engine.sweep(&mut table, &space, &mut scratch);
            table.values_row_major()
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
        use pcmax_ptas::space::QSpace;

        /// `OPT(N)` and the witness `engine` extracts on the
        /// capacity-filtered space. The memoized walk leaves unreachable
        /// cells `UNVISITED`, so whole tables are not comparable.
        fn q_outcome<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> DpOutcome {
            let mut scratch = DpScratch::new();
            let mut table = problem.build_table_for(engine, &mut scratch).unwrap();
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

    #[test]
    fn row_major_fallback_still_fills_the_table() {
        // The bucketed sweep on a table without a level-major layout
        // degrades to the serial sweep with identical results.
        let problem = &problems()[0];
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let mut scratch = DpScratch::new();
        bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
        assert_eq!(table.values, vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2]);
        assert_eq!(scratch.cells_computed, 11);
    }
}

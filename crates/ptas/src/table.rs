//! The dense DP table: a mixed-radix (row-major) indexing of all vectors
//! `v ≤ N`, exactly the layout the paper's array `V` uses (Section III).
//!
//! To keep the table compact the indexing is built over the *active* classes
//! only (classes with `n_i > 0`); inactive classes contribute a radix of 1
//! and are elided. The paper's example `N = (…,2,…,3,…)` therefore maps to
//! dims `[3, 4]` and σ = 12 entries, matching Table I.

use crate::config::Config;
use pcmax_core::Time;

/// Value stored for an unreachable/infeasible subproblem.
pub const INFEASIBLE: u16 = u16::MAX;

/// Per-worker scratch of the wavefront block kernel: one block's running
/// minima and one cross transition's filtered predecessor run. All growth
/// happens in [`prepare`](Self::prepare), once per chunk and before any
/// block is filled — the kernel never touches the allocator (enforced by
/// the `alloc-hot` lint and the pinned `kernel_allocs` counter).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Running minimum of each cell of the block being filled.
    pub acc: Vec<u16>,
    /// One cross transition's masked, filtered predecessor values.
    pub lanes: Vec<u16>,
}

impl KernelScratch {
    /// Grows both buffers to `block` cells. Re-preparing smaller keeps the
    /// capacity, so a warm worker never reallocates.
    pub fn prepare(&mut self, block: usize) {
        if self.acc.len() < block {
            self.acc.resize(block, INFEASIBLE);
        }
        if self.lanes.len() < block {
            self.lanes.resize(block, INFEASIBLE);
        }
    }
}

/// Reusable allocation arena of PTAS runs: the dense value table, the
/// wavefront's block plan and the per-worker kernel buffers are allocated
/// once and recycled across bisection probes, and `chassis::search` keeps
/// one arena per thread across solves (see `DpScratch::kept`), so
/// repeated probes stop paying the `O(σ)` allocation cost. A sweep borrows
/// the plan and the kernel buffers in place
/// ([`plan_and_kernels`](Self::plan_and_kernels)), so they never leave the
/// arena, not even when the sweep panics. The counters surface in
/// `SolveStats` (see `chassis::merge_scratch`), making the reuse observable
/// from the outside.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Recycled backing store for [`DpTable::values`].
    values: Vec<u16>,
    /// Recycled buffers of the wavefront's [`BlockPlan`].
    plan: BlockPlan,
    /// Recycled per-worker kernel buffers for the zero-allocation wavefront
    /// cell kernel (one [`KernelScratch`] per worker, reused across levels
    /// *and* probes).
    kernels: Vec<KernelScratch>,
    /// Table builds that had to grow the backing allocation.
    pub tables_allocated: u64,
    /// Table builds served entirely from recycled capacity.
    pub tables_reused: u64,
    /// Total DP entries initialized across all builds using this scratch.
    pub entries_touched: u64,
    /// Anti-diagonal levels swept by the parallel executors.
    pub levels_swept: u64,
    /// DP cells computed by the parallel executors (σ − 1 per sweep).
    pub cells_computed: u64,
    /// Worker park events (condvar waits) in the persistent pool.
    pub pool_parks: u64,
    /// Worker wake events (condvar wait returns) in the persistent pool.
    pub pool_wakes: u64,
    /// Per-worker kernel scratch buffers that had to be freshly created —
    /// the wavefront cell kernel performs no other heap allocation, so this
    /// staying flat across levels and probes *is* the zero-allocation claim.
    pub kernel_allocs: u64,
}

impl DpScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the value store to hold `entries` entries. Counts as one
    /// allocation if it actually grows. No solve calls it: a solve's `LB`
    /// probe builds the largest table of its bracket first.
    pub fn reserve(&mut self, entries: usize) {
        if self.values.capacity() < entries {
            self.values.reserve(entries - self.values.len());
            self.tables_allocated += 1;
        }
    }

    /// This arena as the next solve should get it: the same buffers, minus
    /// any holding more than `max_entries` entries, and every counter zero.
    pub(crate) fn kept(self, max_entries: usize) -> Self {
        fn capped<T>(buf: Vec<T>, max_entries: usize) -> Vec<T> {
            if buf.capacity() > max_entries {
                Vec::new()
            } else {
                buf
            }
        }
        Self {
            values: capped(self.values, max_entries),
            plan: self.plan.capped(max_entries),
            kernels: self.kernels,
            ..Self::default()
        }
    }

    /// Returns a finished table's backing store for the next probe.
    pub fn recycle(&mut self, table: DpTable) {
        if table.values.capacity() > self.values.capacity() {
            self.values = table.values;
        }
    }

    /// Builds the block plan of `table` under `transitions` (see
    /// [`BlockPlan::build`]) in this arena's plan buffers.
    pub fn build_plan(
        &mut self,
        table: &DpTable,
        transitions: &[(Config, usize)],
        min_block: usize,
    ) -> &BlockPlan {
        self.plan.build(table, transitions, min_block);
        &self.plan
    }

    /// Lends the last plan [`build_plan`](Self::build_plan) built and `n`
    /// per-worker kernel buffers for one sweep. Only the buffers the arena
    /// lacks are created, each counted in
    /// [`kernel_allocs`](Self::kernel_allocs); the buffers stay in the arena,
    /// so a sweep that panics loses none of them.
    pub fn plan_and_kernels(&mut self, n: usize) -> (&BlockPlan, &mut [KernelScratch]) {
        while self.kernels.len() < n {
            self.kernel_allocs += 1;
            pcmax_trace::instant("dp-kernel-alloc", self.kernel_allocs);
            self.kernels.push(KernelScratch::default());
        }
        (&self.plan, &mut self.kernels[..n])
    }

    /// Takes a value buffer of exactly `len` entries, all [`INFEASIBLE`],
    /// reusing recycled capacity when possible.
    fn take_values(&mut self, len: usize) -> Vec<u16> {
        let mut values = std::mem::take(&mut self.values);
        if values.capacity() >= len {
            self.tables_reused += 1;
            pcmax_trace::instant("dp-table-reuse", len as u64);
        } else {
            self.tables_allocated += 1;
            pcmax_trace::instant("dp-table-alloc", len as u64);
        }
        values.clear();
        values.resize(len, INFEASIBLE);
        self.entries_touched += len as u64;
        values
    }
}

/// One transition of a [`BlockPlan`], split at the block size `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStep {
    /// The transition's index in the space's order (the step filter's
    /// `t_idx`).
    pub t_idx: usize,
    /// `offset / B` of its flat table offset: how many blocks back it
    /// reads. Zero for a local step.
    pub back: usize,
    /// `offset % B`: the flat offset of its trailing part, and the first
    /// position of a block it can fit. A local step's whole offset.
    pub low: usize,
    /// Start of its fit mask in the plan's mask store.
    mask: usize,
}

/// The row-major block schedule of a wavefront sweep.
///
/// The trailing active classes `j..k` of a table fold into blocks of
/// `B = Π_{a ≥ j} dims[a]` cells: block `r` holds ranks `r·B..(r + 1)·B`, its
/// *outer digits* are `r`'s digits over classes `0..j`, and its *outer
/// level* is their sum. A transition `c` splits the same way, into
/// `back = offset / B` blocks and a trailing part `low = offset % B`:
///
/// * a *cross* step (`back > 0`) fits a cell of block `r` only where its
///   outer digits fit `r`'s, and there reads block `r − back` — whose outer
///   digits are `r`'s minus `c`'s, a strictly lower outer level — at the
///   cell's position minus `low`;
/// * a *local* step (`back = 0`) reads an earlier position of the same
///   block.
///
/// Whether `c`'s trailing digits fit a position depends on the position
/// alone, so the plan stores it once per distinct trailing part, as a
/// `B`-entry mask: 0 where the digits fit, [`INFEASIBLE`] elsewhere. OR-ing
/// a predecessor value with the mask turns every misfit into the identity
/// of `min`, so a cross step folds into a block as one branch-free pass over
/// a contiguous run. Blocks are listed by ascending outer level (ascending
/// rank within a level): blocks on one level never read each other.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BlockPlan {
    /// Cells per block, `B`.
    block: usize,
    /// Radices of the outer classes `0..j`.
    outer: Vec<u32>,
    /// Block indices grouped by ascending outer level.
    order: Vec<u32>,
    /// `starts[l]..starts[l + 1]` is outer level `l`'s run of `order`.
    starts: Vec<u32>,
    /// Outer digits of `order[i]` at `digits[i·j..(i + 1)·j]`.
    digits: Vec<u32>,
    /// Cross steps in transition order.
    cross: Vec<BlockStep>,
    /// Outer digits of `cross[s]` at `need[s·j..(s + 1)·j]`.
    need: Vec<u32>,
    /// Local steps in transition order.
    local: Vec<BlockStep>,
    /// Fit masks, `B` entries each.
    masks: Vec<u16>,
    /// Build scratch: mask start per trailing offset (`usize::MAX` = none).
    mask_of: Vec<usize>,
}

impl BlockPlan {
    /// Rebuilds the plan of `table` under `transitions` in this plan's
    /// buffers. Trailing classes fold into the block until it holds at
    /// least `min_block` cells or every class is folded; a table smaller
    /// than `min_block` is one block.
    pub fn build(&mut self, table: &DpTable, transitions: &[(Config, usize)], min_block: usize) {
        assert!(
            u32::try_from(table.len).is_ok(),
            "table too large for u32 block indices ({} entries)",
            table.len
        );
        let dims = &table.dims;
        let mut j = dims.len();
        let mut block = 1usize;
        while j > 0 && block < min_block {
            j -= 1;
            block *= dims[j] as usize;
        }
        self.block = block;
        self.outer.clear();
        self.outer.extend_from_slice(&dims[..j]);
        let blocks = table.len / block;
        let levels = self.outer.iter().map(|&d| d as usize - 1).sum::<usize>() + 1;

        // Counting sort of the blocks by outer level: count, prefix-sum,
        // place with each level's start as its cursor, then shift the
        // cursors (now each level's end) back into starts.
        self.starts.clear();
        self.starts.resize(levels + 1, 0);
        // The first `j` digits are the walk's mixed-radix counter; the
        // placed blocks' digits follow them, and the counter is drained once
        // the walk is done.
        self.digits.clear();
        self.digits.resize(j, 0);
        let mut sum = 0u32;
        for _ in 0..blocks {
            self.starts[sum as usize + 1] += 1;
            increment_with_sum(&mut self.digits[..j], &self.outer, &mut sum);
        }
        for l in 0..levels {
            self.starts[l + 1] += self.starts[l];
        }
        self.order.clear();
        self.order.resize(blocks, 0);
        self.digits.resize(j * (blocks + 1), 0);
        let (walk, placed) = self.digits.split_at_mut(j);
        for r in 0..blocks {
            let at = self.starts[sum as usize] as usize;
            self.starts[sum as usize] += 1;
            // audit:allow(cast): r < blocks ≤ table.len, asserted to fit u32 above.
            self.order[at] = r as u32;
            placed[at * j..(at + 1) * j].copy_from_slice(walk);
            increment_with_sum(walk, &self.outer, &mut sum);
        }
        self.digits.drain(..j);
        for l in (1..=levels).rev() {
            self.starts[l] = self.starts[l - 1];
        }
        self.starts[0] = 0;

        self.cross.clear();
        self.need.clear();
        self.local.clear();
        self.masks.clear();
        self.mask_of.clear();
        self.mask_of.resize(block, usize::MAX);
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            let (back, low) = (offset / block, offset % block);
            if self.mask_of[low] == usize::MAX {
                self.mask_of[low] = self.masks.len();
                push_mask(&mut self.masks, low, &dims[j..], &table.strides[j..]);
            }
            let step = BlockStep {
                t_idx,
                back,
                low,
                mask: self.mask_of[low],
            };
            if back > 0 {
                self.cross.push(step);
                self.need.extend_from_slice(&c[..j]);
            } else {
                self.local.push(step);
            }
        }
    }

    /// Cells per block, `B`.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of blocks, `σ / B`.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.order.len()
    }

    /// Number of outer levels, `Σ_{a < j} (dims[a] − 1) + 1`.
    #[inline]
    pub fn levels(&self) -> u32 {
        // audit:allow(cast): levels ≤ blocks ≤ table.len, which fits u32.
        (self.starts.len() - 1) as u32
    }

    /// The positions in [`order`](Self::order) of outer level `l`'s blocks.
    #[inline]
    pub fn level_span(&self, l: u32) -> std::ops::Range<usize> {
        let l = l as usize;
        self.starts[l] as usize..self.starts[l + 1] as usize
    }

    /// Every block index, grouped by ascending outer level.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The outer digits of the block at position `i` of
    /// [`order`](Self::order).
    #[inline]
    pub fn outer_digits(&self, i: usize) -> &[u32] {
        let j = self.outer.len();
        &self.digits[i * j..(i + 1) * j]
    }

    /// The cross steps with their outer digits, in transition order.
    pub fn cross(&self) -> impl Iterator<Item = (&BlockStep, &[u32])> {
        self.cross
            .iter()
            .zip(self.need.chunks_exact(self.outer.len().max(1)))
    }

    /// The local steps, in transition order.
    #[inline]
    pub fn local(&self) -> &[BlockStep] {
        &self.local
    }

    /// The fit mask of `step`'s trailing part: `B` entries, 0 where it fits.
    #[inline]
    pub fn mask(&self, step: &BlockStep) -> &[u16] {
        &self.masks[step.mask..step.mask + self.block]
    }

    /// This plan as a kept arena should hold it: any buffer above
    /// `max_entries` entries is dropped.
    fn capped(self, max_entries: usize) -> Self {
        if self.masks.capacity() > max_entries || self.digits.capacity() > max_entries {
            Self::default()
        } else {
            self
        }
    }
}

/// Appends the fit mask of trailing offset `low` over the trailing radices
/// `dims` (row-major, strides `strides`): entry `p` is 0 when every digit of
/// `p` is at least the same digit of `low`, and [`INFEASIBLE`] otherwise.
/// Built one class at a time as a product, so no position is decoded.
fn push_mask(masks: &mut Vec<u16>, low: usize, dims: &[u32], strides: &[usize]) {
    let start = masks.len();
    masks.push(0);
    let mut len = 1usize;
    for (&d, &stride) in dims.iter().zip(strides) {
        let d = d as usize;
        let need = (low / stride) % d;
        masks.resize(start + len * d, 0);
        let mask = &mut masks[start..];
        // Expand in place from the back: entry q is read before any write
        // reaches it, since every write of a later q lands at q·d or above.
        for q in (0..len).rev() {
            let head = mask[q];
            for (x, slot) in mask[q * d..(q + 1) * d].iter_mut().enumerate().rev() {
                *slot = if x < need { INFEASIBLE } else { head };
            }
        }
        len *= d;
    }
}

/// Mixed-radix index space over the active classes of a rounded vector `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpTable {
    /// 0-based indices (into the full `k²`-class vector) of active classes.
    pub active: Vec<usize>,
    /// `dims[a] = n_active[a] + 1` — radix per active class.
    pub dims: Vec<u32>,
    /// Row-major strides: `index(v) = Σ v_a · strides[a]`.
    pub strides: Vec<usize>,
    /// Total number of entries `σ = Π dims`.
    pub len: usize,
    /// Rounded size of each active class (`(class+1)·unit`).
    pub sizes: Vec<Time>,
    /// Per-entry `OPT` values (`INFEASIBLE` = not computable), in
    /// row-major order.
    pub values: Vec<u16>,
}

impl DpTable {
    /// Builds the (zero-initialized) table for class counts `counts` with
    /// rounding unit `unit`. Returns `None` if σ would exceed `max_entries`
    /// (a guard against pathological ε/instance combinations).
    pub fn new(counts: &[u32], unit: Time, max_entries: usize) -> Option<Self> {
        let (active, dims, strides, len, sizes) = Self::layout(counts, unit, max_entries)?;
        Some(Self {
            active,
            dims,
            strides,
            len,
            sizes,
            values: vec![INFEASIBLE; len],
        })
    }

    /// Like [`new`](Self::new), but the value store comes from (and its
    /// allocation is accounted to) the reusable `scratch` arena.
    pub fn new_in(
        counts: &[u32],
        unit: Time,
        max_entries: usize,
        scratch: &mut DpScratch,
    ) -> Option<Self> {
        let (active, dims, strides, len, sizes) = Self::layout(counts, unit, max_entries)?;
        Some(Self {
            active,
            dims,
            strides,
            len,
            sizes,
            values: scratch.take_values(len),
        })
    }

    /// Number of entries σ the table for `counts` would need, without
    /// building it (`None` if over `max_entries`). Used to pre-size the
    /// scratch arena for the largest table of a bisection bracket.
    pub fn entries_needed(counts: &[u32], unit: Time, max_entries: usize) -> Option<usize> {
        Self::layout(counts, unit, max_entries).map(|(_, _, _, len, _)| len)
    }

    /// Computes the active classes, radices, strides, σ and class sizes.
    #[allow(clippy::type_complexity)]
    fn layout(
        counts: &[u32],
        unit: Time,
        max_entries: usize,
    ) -> Option<(Vec<usize>, Vec<u32>, Vec<usize>, usize, Vec<Time>)> {
        let mut active = Vec::new();
        let mut dims = Vec::new();
        let mut sizes = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                active.push(i);
                dims.push(c + 1);
                sizes.push((i as Time + 1) * unit);
            }
        }
        // Row-major: last dimension has stride 1.
        let mut strides = vec![0usize; dims.len()];
        let mut len = 1usize;
        for a in (0..dims.len()).rev() {
            strides[a] = len;
            len = len.checked_mul(dims[a] as usize)?;
            if len > max_entries {
                return None;
            }
        }
        Some((active, dims, strides, len, sizes))
    }

    /// Index of a vector over active classes.
    #[inline]
    pub fn index(&self, v: &[u32]) -> usize {
        debug_assert_eq!(v.len(), self.dims.len());
        v.iter()
            .zip(&self.strides)
            .map(|(&d, &s)| d as usize * s)
            .sum()
    }

    /// Decodes index `idx` into a vector over active classes.
    pub fn decode(&self, mut idx: usize) -> Vec<u32> {
        let mut v = vec![0u32; self.dims.len()];
        for (slot, &stride) in v.iter_mut().zip(&self.strides) {
            // audit:allow(cast): idx/stride < dims[a] and every radix is a
            // u32 (`counts[i] + 1`), so the quotient always fits.
            *slot = (idx / stride) as u32;
            idx %= stride;
        }
        v
    }

    /// The anti-diagonal level of index `idx`: the digit sum of its vector.
    pub fn level_of(&self, idx: usize) -> u32 {
        self.decode(idx).iter().sum()
    }

    /// Number of anti-diagonal levels, `n' + 1` where `n'` is the number of
    /// long jobs (sum of all digits of the last entry).
    pub fn levels(&self) -> u32 {
        self.dims.iter().map(|&d| d - 1).sum::<u32>() + 1
    }

    /// Index of the last entry (the full vector `N`).
    #[inline]
    pub fn last_index(&self) -> usize {
        self.len - 1
    }

    /// Expands a vector over active classes back to full `k²` width.
    pub fn expand(&self, v: &[u32], classes: usize) -> Vec<u32> {
        let mut full = vec![0u32; classes];
        for (a, &class) in self.active.iter().enumerate() {
            full[class] = v[a];
        }
        full
    }

    /// Buckets all indices by anti-diagonal level. `buckets[l]` lists the
    /// table indices whose digit sum is `l`, in increasing index order. The
    /// PRAM model schedules from these.
    pub fn level_buckets(&self) -> Vec<Vec<u32>> {
        // Buckets store indices as u32 to halve their footprint; σ is capped
        // by `max_entries` at build time, but that cap is caller-chosen, so
        // re-assert the representable range before narrowing below.
        assert!(
            u32::try_from(self.len).is_ok(),
            "table too large for u32 level buckets ({} entries)",
            self.len
        );
        let mut buckets = vec![Vec::new(); self.levels() as usize];
        // Incremental mixed-radix counter with running digit sum: O(σ).
        let mut v = vec![0u32; self.dims.len()];
        let mut sum = 0u32;
        for idx in 0..self.len {
            // audit:allow(cast): idx < self.len, asserted to fit u32 above.
            buckets[sum as usize].push(idx as u32);
            increment_with_sum(&mut v, &self.dims, &mut sum);
        }
        buckets
    }
}

/// Advances a mixed-radix counter one step (row-major: last digit fastest),
/// keeping `sum` equal to the digit sum. Wraps to all-zeros after the last
/// vector, like the counter inside `level_buckets`.
#[inline]
fn increment_with_sum(v: &mut [u32], dims: &[u32], sum: &mut u32) {
    for a in (0..dims.len()).rev() {
        if v[a] + 1 < dims[a] {
            v[a] += 1;
            *sum += 1;
            return;
        }
        *sum -= v[a];
        v[a] = 0;
    }
}

/// Decodes row-major rank `idx` into `out` (cleared and refilled) — the
/// allocation-free form of [`DpTable::decode`] that the paper-literal full
/// scan (`FaithfulDp`) decodes each entry it computes with.
#[inline]
pub fn decode_into(mut idx: usize, strides: &[usize], out: &mut Vec<u32>) {
    out.clear();
    for &stride in strides {
        // audit:allow(cast): idx/stride < dims[a] and every radix is a u32
        // (`counts[i] + 1`), so the quotient always fits.
        out.push((idx / stride) as u32);
        idx %= stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I: N = (2, 3) -> 12 entries in row-major order.
    fn paper_table() -> DpTable {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpTable::new(&counts, 2, 1 << 20).unwrap()
    }

    #[test]
    fn active_compaction() {
        let t = paper_table();
        assert_eq!(t.active, vec![2, 4]);
        assert_eq!(t.dims, vec![3, 4]);
        assert_eq!(t.len, 12);
        assert_eq!(t.sizes, vec![6, 10]);
    }

    #[test]
    fn row_major_order_matches_paper_array_v() {
        let t = paper_table();
        // V = (0,0),(0,1),(0,2),(0,3),(1,0),...,(2,3)
        assert_eq!(t.decode(0), vec![0, 0]);
        assert_eq!(t.decode(3), vec![0, 3]);
        assert_eq!(t.decode(4), vec![1, 0]);
        assert_eq!(t.decode(11), vec![2, 3]);
        for idx in 0..t.len {
            assert_eq!(t.index(&t.decode(idx)), idx);
        }
    }

    #[test]
    fn levels_partition_all_entries() {
        let t = paper_table();
        assert_eq!(t.levels(), 6); // n' = 5 long jobs -> levels 0..=5
        let buckets = t.level_buckets();
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), t.len);
        // Level 2 holds OPT(2,0), OPT(1,1), OPT(0,2) — the paper's example.
        let lvl2: Vec<Vec<u32>> = buckets[2].iter().map(|&i| t.decode(i as usize)).collect();
        assert_eq!(lvl2, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
        // Every bucket member's digit sum equals its level.
        for (l, bucket) in buckets.iter().enumerate() {
            for &idx in bucket {
                assert_eq!(t.level_of(idx as usize), l as u32);
            }
        }
    }

    #[test]
    fn size_guard_rejects_huge_tables() {
        let counts = vec![1000u32; 8];
        assert!(DpTable::new(&counts, 1, 1 << 20).is_none());
    }

    #[test]
    fn empty_vector_table_has_one_entry() {
        let t = DpTable::new(&[0, 0], 1, 1 << 20).unwrap();
        assert_eq!(t.len, 1);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.last_index(), 0);
    }

    #[test]
    fn expand_puts_active_digits_back_at_their_classes() {
        let t = paper_table();
        let mut config = vec![0u32; 16];
        config[2] = 1;
        config[4] = 2;
        assert_eq!(t.expand(&[1, 2], 16), config);
    }

    #[test]
    fn scratch_reuses_capacity_across_builds() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let mut scratch = DpScratch::new();
        let t1 = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 0));
        scratch.recycle(t1);
        let t2 = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 1));
        assert!(t2.values.iter().all(|&v| v == INFEASIBLE));
        assert_eq!(scratch.entries_touched, 24);
    }

    #[test]
    fn scratch_reserve_makes_first_build_a_reuse() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let needed = DpTable::entries_needed(&counts, 2, 1 << 20).unwrap();
        assert_eq!(needed, 12);
        let mut scratch = DpScratch::new();
        scratch.reserve(needed);
        assert_eq!(scratch.tables_allocated, 1);
        let _t = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 1));
    }

    #[test]
    fn kernel_buffer_pool_counts_only_fresh_creations() {
        let mut scratch = DpScratch::new();
        let built = scratch
            .build_plan(&paper_table(), &paper_transitions(), 4)
            .clone();
        let (plan, kernels) = scratch.plan_and_kernels(3);
        assert_eq!((plan, kernels.len()), (&built, 3), "the plan just built");
        assert_eq!(scratch.kernel_allocs, 3);
        assert_eq!(scratch.plan_and_kernels(3).1.len(), 3);
        assert_eq!(scratch.kernel_allocs, 3);
        assert_eq!(scratch.plan_and_kernels(2).1.len(), 2);
        assert_eq!(scratch.kernel_allocs, 3);
        assert_eq!(scratch.plan_and_kernels(4).1.len(), 4);
        assert_eq!(scratch.kernel_allocs, 4);
    }

    /// The paper's table with four of its transitions: two local ones
    /// (trailing part only) and two cross ones.
    fn paper_transitions() -> Vec<(Config, usize)> {
        vec![
            (vec![0, 1], 1),
            (vec![0, 2], 2),
            (vec![1, 0], 4),
            (vec![1, 1], 5),
        ]
    }

    #[test]
    fn block_plan_folds_the_trailing_class_of_the_paper_table() {
        let t = paper_table();
        let mut plan = BlockPlan::default();
        plan.build(&t, &paper_transitions(), 4);
        // dims [3, 4]: the last class folds into blocks of 4 cells, one
        // block per outer level.
        assert_eq!((plan.block(), plan.blocks(), plan.levels()), (4, 3, 3));
        assert_eq!(plan.order(), &[0, 1, 2]);
        assert_eq!(plan.outer_digits(2), &[2]);
        let local: Vec<usize> = plan.local().iter().map(|s| s.low).collect();
        assert_eq!(local, vec![1, 2]);
        let cross: Vec<(usize, usize, &[u32])> = plan
            .cross()
            .map(|(s, need)| (s.back, s.low, need))
            .collect();
        assert_eq!(cross, vec![(1, 0, &[1u32][..]), (1, 1, &[1u32][..])]);
        // A mask is 0 exactly where the trailing digit covers the step's.
        let masks: Vec<&[u16]> = plan.local().iter().map(|s| plan.mask(s)).collect();
        assert_eq!(masks[0], &[INFEASIBLE, 0, 0, 0]);
        assert_eq!(masks[1], &[INFEASIBLE, INFEASIBLE, 0, 0]);
        let (first_cross, _) = plan.cross().next().unwrap();
        assert_eq!(plan.mask(first_cross), &[0, 0, 0, 0]);
    }

    #[test]
    fn block_plan_without_folding_is_one_cell_per_block() {
        let t = paper_table();
        let mut plan = BlockPlan::default();
        plan.build(&t, &paper_transitions(), 1);
        assert_eq!((plan.block(), plan.blocks(), plan.levels()), (1, 12, 6));
        // Level 2 holds (0,2), (1,1), (2,0): ranks 2, 5, 8.
        assert_eq!(&plan.order()[plan.level_span(2)], &[2, 5, 8]);
        assert_eq!(plan.outer_digits(plan.level_span(2).start + 1), &[1, 1]);
        assert!(
            plan.local().is_empty(),
            "with B = 1 every step crosses blocks"
        );
    }

    #[test]
    fn block_plan_of_a_table_below_one_block_is_all_local() {
        let t = paper_table();
        let mut plan = BlockPlan::default();
        plan.build(&t, &paper_transitions(), 64);
        assert_eq!((plan.block(), plan.blocks(), plan.levels()), (12, 1, 1));
        assert_eq!(plan.cross().count(), 0);
        assert_eq!(plan.local().len(), 4);
        // (1,1) at offset 5 fits ranks whose digits are both ≥ 1.
        let mask = plan.mask(&plan.local()[3]);
        for (rank, &m) in mask.iter().enumerate() {
            let v = t.decode(rank);
            assert_eq!(m == 0, v[0] >= 1 && v[1] >= 1, "rank {rank}");
        }
    }

    #[test]
    fn block_plan_rebuilds_in_its_own_buffers() {
        let t = paper_table();
        let mut plan = BlockPlan::default();
        plan.build(&t, &paper_transitions(), 4);
        let first = plan.clone();
        let (order, masks) = (plan.order.as_ptr(), plan.masks.as_ptr());
        plan.build(&t, &paper_transitions(), 4);
        assert_eq!(plan, first);
        assert_eq!((plan.order.as_ptr(), plan.masks.as_ptr()), (order, masks));
    }

    #[test]
    fn kernel_scratch_prepare_sizes_all_buffers() {
        let mut ks = KernelScratch::default();
        ks.prepare(40);
        assert!(ks.acc.len() >= 40 && ks.lanes.len() >= 40);
        // Re-preparing smaller keeps capacity (no shrink, no realloc).
        let acc = ks.acc.as_ptr();
        ks.prepare(16);
        assert_eq!(ks.acc.as_ptr(), acc);
    }
}

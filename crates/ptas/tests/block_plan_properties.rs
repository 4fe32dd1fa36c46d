//! Property tests for the wavefront's block plan: its block order must be a
//! permutation of all blocks grouped by ascending outer level, every cross
//! step must read a block of a strictly lower outer level, and its fit
//! masks and outer digits must agree with the componentwise `c ≤ v` check
//! they stand for — the invariants the block sweep's disjoint-write and
//! bit-identity arguments rest on.

use pcmax_ptas::dp::{fits, DpProblem};
use pcmax_ptas::table::BlockPlan;
use pcmax_ptas::DpTable;
use proptest::prelude::*;

/// Digit sum of block `r` over the outer radices `dims[..j]`.
fn outer_level(table: &DpTable, block: usize, r: usize) -> u32 {
    table.decode(r * block)[..outer_classes(table, block)]
        .iter()
        .sum()
}

/// Number of outer classes: the leading classes whose strides are whole
/// blocks.
fn outer_classes(table: &DpTable, block: usize) -> usize {
    table.strides.iter().take_while(|&&s| s >= block).count()
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=4, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocks_are_a_level_sorted_permutation(
        counts in arb_counts(),
        min_block in 1usize..=64,
        target in 1u64..=20,
    ) {
        let problem = DpProblem::new(counts, 1, target, 64);
        let table = problem.build_table().expect("small tables always fit the guard");
        let configs = problem.configs_with_offsets(&table);
        let mut plan = BlockPlan::default();
        plan.build(&table, &configs, min_block);
        let block = plan.block();

        // B is the product of the trailing radices, the first product to
        // reach `min_block` (or the whole table).
        let j = outer_classes(&table, block);
        prop_assert_eq!(table.dims[j..].iter().map(|&d| d as usize).product::<usize>(), block);
        prop_assert!(block >= min_block || j == 0);
        if j < table.dims.len() {
            let unfolded = block / table.dims[j] as usize;
            prop_assert!(unfolded < min_block, "one class too many folded");
        }
        prop_assert_eq!(plan.blocks() * block, table.len);

        // A permutation of 0..blocks.
        let mut seen = vec![false; plan.blocks()];
        for &r in plan.order() {
            prop_assert!(!seen[r as usize], "block {} listed twice", r);
            seen[r as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));

        // Grouped by ascending outer level, ascending rank within a level,
        // with the stored outer digits of each block.
        let max_level: u32 = table.dims[..j].iter().map(|&d| d - 1).sum();
        prop_assert_eq!(plan.levels(), max_level + 1);
        let mut next = 0usize;
        for level in 0..plan.levels() {
            let span = plan.level_span(level);
            prop_assert_eq!(span.start, next);
            next = span.end;
            let blocks = &plan.order()[span.clone()];
            prop_assert!(blocks.windows(2).all(|w| w[0] < w[1]));
            for (i, &r) in span.zip(blocks) {
                prop_assert_eq!(outer_level(&table, block, r as usize), level);
                prop_assert_eq!(plan.outer_digits(i), &table.decode(r as usize * block)[..j]);
            }
        }
        prop_assert_eq!(next, plan.blocks());
    }

    #[test]
    fn cross_reads_land_on_lower_levels_and_masks_mean_fits(
        counts in arb_counts(),
        min_block in 1usize..=64,
        target in 1u64..=20,
    ) {
        let problem = DpProblem::new(counts, 1, target, 64);
        let table = problem.build_table().expect("small tables always fit the guard");
        let configs = problem.configs_with_offsets(&table);
        let mut plan = BlockPlan::default();
        plan.build(&table, &configs, min_block);
        let block = plan.block();
        let j = outer_classes(&table, block);
        prop_assert_eq!(plan.cross().count() + plan.local().len(), configs.len());

        for (step, need) in plan.cross() {
            let c = &configs[step.t_idx].0;
            prop_assert_eq!(need, &c[..j]);
            let offset = configs[step.t_idx].1;
            prop_assert_eq!((step.back, step.low), (offset / block, offset % block));
            prop_assert!(step.back > 0);
            for (i, &r) in plan.order().iter().enumerate() {
                if !fits(need, plan.outer_digits(i)) {
                    continue;
                }
                let r = r as usize;
                let from = outer_level(&table, block, r);
                let to = outer_level(&table, block, r - step.back);
                prop_assert!(to < from, "step {} reads level {} from level {}", step.t_idx, to, from);
            }
        }
        for step in plan.local() {
            prop_assert_eq!((step.back, step.low), (0, configs[step.t_idx].1));
            prop_assert_eq!(&configs[step.t_idx].0[..j].iter().sum::<u32>(), &0);
        }

        // Inside block 0 (all outer digits zero) a position's digits are its
        // trailing digits, so the mask must be exactly the trailing fit.
        for step in plan.local().iter().chain(plan.cross().map(|(s, _)| s)) {
            let c = &configs[step.t_idx].0;
            for (p, &m) in plan.mask(step).iter().enumerate() {
                let v = table.decode(p);
                prop_assert_eq!(m == 0, fits(&c[j..], &v[j..]), "step {} at {}", step.t_idx, p);
            }
        }
    }
}

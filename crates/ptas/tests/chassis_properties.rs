//! Property tests for the chassis seams: the [`Rounding`] trait's
//! round-trip guarantees on `P||Cmax` and `Q||Cmax`, and the capacity
//! semantics of the [`QSpace`] state space against the identical-machine
//! [`PcmaxSpace`] it generalizes.

use pcmax_core::{Instance, Scheduler};
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::rounding::{PcmaxRounding, Rounding};
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::{DpScratch, INFEASIBLE};
use pcmax_ptas::{EpsilonParams, Ptas, QPtas};
use proptest::prelude::*;

fn arb_times() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..=30, 1..=9)
}

fn arb_speeds() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..=4, 1..=4)
}

/// A probe point the bisection is allowed to reach: at least the largest
/// job and the average machine load, so rounding's invariants hold.
fn feasible_target(inst: &Instance) -> u64 {
    inst.max_time()
        .max(inst.total_time().div_ceil(inst.machines() as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pcmax_rounding_round_trips(
        times in arb_times(),
        m in 1usize..=4,
        eps in (0usize..3).prop_map(|i| [0.2f64, 0.3, 0.5][i]),
    ) {
        let inst = Instance::new(times, m).unwrap();
        let params = EpsilonParams::new(eps).unwrap();
        let target = feasible_target(&inst);
        let (counts, unit, (rounded, partition)) =
            PcmaxRounding { params: &params }.round_at(&inst, target);

        // The class vector is what the DP sees; it must mirror the map.
        prop_assert_eq!(counts.len(), params.classes());
        prop_assert_eq!(&counts, &rounded.counts);
        prop_assert_eq!(unit, rounded.unit);

        // The partition is exhaustive and disjoint, split exactly at T/k.
        let mut all: Vec<usize> =
            partition.long.iter().chain(&partition.short).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..inst.jobs()).collect::<Vec<_>>());
        for &j in &partition.long {
            prop_assert!(params.is_long(inst.time(j), target));
        }
        for &j in &partition.short {
            prop_assert!(!params.is_long(inst.time(j), target));
        }

        // Round trip: every member sits in [class·unit, class·unit + unit),
        // i.e. rounding down loses strictly less than one unit per job, and
        // the counts vector tallies the members exactly.
        for (ci, members) in rounded.members.iter().enumerate() {
            let size = rounded.class_size(ci + 1);
            for &j in members {
                let t = inst.time(j);
                prop_assert!(
                    size <= t && t < size + unit,
                    "job {} of size {} escaped class {} = [{}, {})",
                    j, t, ci + 1, size, size + unit
                );
            }
            prop_assert_eq!(members.len() as u32, counts[ci]);
        }
    }

    #[test]
    fn ptas_witness_round_trips_within_the_guarantee(
        times in arb_times(),
        m in 1usize..=4,
    ) {
        let inst = Instance::new(times, m).unwrap();
        let params = EpsilonParams::new(0.3).unwrap();
        let out = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        let makespan = out.schedule.makespan(&inst);
        // Dual approximation: the certified target never exceeds the
        // delivered makespan, and the reconstruction costs at most the
        // rounding error (k jobs · one unit each) plus the short-job
        // overflow (one short job ≤ T/k) on top of the target.
        prop_assert!(out.target <= makespan);
        let slack = (out.target / params.k).max(1) + params.k * params.unit(out.target);
        prop_assert!(
            makespan <= out.target + slack,
            "makespan {} exceeds target {} + slack {}",
            makespan, out.target, slack
        );
    }

    #[test]
    fn q_ptas_witness_round_trips_on_uniform_instances(
        times in arb_times(),
        speeds in arb_speeds(),
    ) {
        let inst = Instance::with_speeds(times, speeds).unwrap();
        let out = QPtas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        let makespan = out.schedule.makespan(&inst);
        // The certified target is a true lower bound on OPT, so it bounds
        // every feasible schedule from below — including the one delivered.
        prop_assert!(out.target <= makespan);
        // And OPT itself is sandwiched: any heuristic's makespan is ≥ OPT,
        // so the target must not exceed the speed-aware LPT's makespan.
        let lpt = pcmax_baselines::SpeedLpt.schedule(&inst).unwrap();
        prop_assert!(out.target <= lpt.makespan(&inst));
    }

    #[test]
    fn q_space_with_slack_caps_degenerates_to_pcmax_space(
        counts in prop::collection::vec(0u32..=3, 2..=4),
        unit in 1u64..=4,
        target in 5u64..=30,
    ) {
        let problem = DpProblem::new(counts, unit, target, 1000);
        let mut scratch = DpScratch::new();

        let p_values = {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            serial_sweep(&mut table, &PcmaxSpace::new(&configs));
            table.values
        };
        let q_values = {
            let mut table = problem.build_table_in(&mut scratch).expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            let sizes = table.sizes.clone();
            // Every machine gets the full capacity and there are more
            // machines than any OPT value can reach, so the cap filter
            // never bites and the Q walk must equal the identical one.
            let caps = vec![target; 64];
            serial_sweep(&mut table, &QSpace::new(&configs, &sizes, &caps));
            table.values
        };
        prop_assert_eq!(p_values, q_values);
    }

    #[test]
    fn tightening_caps_never_decreases_a_cell(
        counts in prop::collection::vec(0u32..=3, 2..=4),
        unit in 1u64..=4,
        target in 5u64..=30,
        cut in 0u64..=15,
    ) {
        let problem = DpProblem::new(counts, unit, target, 1000);
        let sweep_with = |caps: &[u64]| {
            let mut table = problem.build_table().expect("small table fits");
            let configs = problem.configs_with_offsets(&table);
            let sizes = table.sizes.clone();
            serial_sweep(&mut table, &QSpace::new(&configs, &sizes, caps));
            table.values
        };
        let loose: Vec<u64> = vec![target; 8];
        let mut tight = loose.clone();
        // Cutting capacity off the tail keeps the profile non-increasing.
        for (i, c) in tight.iter_mut().enumerate() {
            *c = c.saturating_sub(cut.saturating_mul(i as u64 / 4));
        }
        for (l, t) in sweep_with(&loose).iter().zip(sweep_with(&tight).iter()) {
            // Sentinels (unvisited / infeasible) order above every real
            // value, so plain ≤ on the raw u16 is the right comparison.
            prop_assert!(
                *l <= *t || *t >= INFEASIBLE - 1,
                "tightening caps lowered a cell: {} -> {}", l, t
            );
        }
    }
}

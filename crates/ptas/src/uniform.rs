//! The PTAS chassis instantiated for uniform machines (`Q||Cmax`).
//!
//! Machines run at integer speeds; a machine of speed `s` completes work
//! `s·T` by time `T`. [`QPtas`] reuses the whole `P||Cmax` pipeline through
//! the chassis seams:
//!
//! * **Rounding** ([`QPtas`]'s [`Scenario::round`]): jobs are split and
//!   rounded by [`PcmaxRounding`] against the *fastest machine's* capacity
//!   `capmax = s_max·T` — the largest load any single machine can carry —
//!   with the same `T/k` threshold and `⌈·/k²⌉` unit formulas as the
//!   identical case. A target at which some job exceeds `capmax` is
//!   infeasible outright and rounds to nothing.
//! * **State space** ([`QSpace`]): machines are sorted fastest-first with
//!   capacities `caps[j] = s_j·T` (non-increasing), and `OPT(v)` becomes the
//!   minimum *prefix of fastest machines* that can run `v`: a transition
//!   `c` out of a predecessor with value `q` is allowed only if
//!   `load(c) ≤ caps[q]`, i.e. `c` becomes the configuration of the `q`-th
//!   fastest machine. (Peeling the least-capable used machine shows the
//!   recurrence is exact; caps being non-increasing makes slack predecessors
//!   only loosen the check.)
//! * **Engine**: any [`SpaceEngine`] — the serial oracle [`IterativeDp`],
//!   [`crate::MemoizedDp`], or the parallel wavefront executors from
//!   `pcmax-parallel`.
//! * **Driver**: the shared bisection [`drive`](crate::chassis::drive) loop
//!   and its one [`probe`](crate::chassis::probe), which keys the profile
//!   cache on the per-machine capacities in units; the speed-aware
//!   [`pcmax_core::MakespanBounds`] bracket guarantees the upper endpoint is
//!   always feasible (all rounded jobs fit the fastest machine at
//!   `T = ⌈Σt/s_max⌉`).
//!
//! Short jobs are placed greedily on the earliest-finishing machine
//! (the same rule as the `LPT-Q` baseline). The certified target `T*` is a
//! genuine lower bound on `OPT` just as in the identical case; the makespan
//! guarantee degrades with machine heterogeneity — a machine of speed `s`
//! carries at most `k` long jobs, each under-rounded by less than
//! `⌈capmax/k²⌉`, so its completion exceeds `T*` by at most a factor
//! `1 + s_max/(k·s)` before the short-job greedy (which only targets
//! earliest finishers) is accounted.

use crate::chassis::{Rounded, Scenario};
use crate::dp::{finish_with, DpOutcome, DpProblem, IterativeDp};
use crate::driver::place_long_jobs;
use crate::params::EpsilonParams;
use crate::rounding::{JobPartition, PcmaxRounding, RoundedLongJobs, Rounding};
use crate::space::{QSpace, SpaceEngine};
use crate::table::DpScratch;
use crate::{Config, PtasOutput};
use pcmax_core::{Instance, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver, Time};

/// The Hochbaum–Shmoys-style dual approximation for `Q||Cmax`, assembled
/// from the chassis seams with a pluggable sweep engine.
///
/// `QPtas::new(0.3)` runs the serial oracle [`IterativeDp`];
/// `QPtas::with_engine(0.3, pcmax_parallel::ParallelDp::default())` runs the
/// parallel wavefront.
#[derive(Debug, Clone)]
pub struct QPtas<E = IterativeDp> {
    params: EpsilonParams,
    engine: E,
}

impl QPtas<IterativeDp> {
    /// Serial `Q||Cmax` PTAS with relative error `epsilon`.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_engine(epsilon, IterativeDp)
    }
}

impl<E: SpaceEngine> QPtas<E> {
    /// `Q||Cmax` PTAS with a custom sweep engine.
    pub fn with_engine(epsilon: f64, engine: E) -> Result<Self> {
        Ok(Self {
            params: EpsilonParams::new(epsilon)?,
            engine,
        })
    }

    /// Runs the full solve and returns the schedule plus diagnostics.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<PtasOutput> {
        self.solve_with(&SolveRequest::new(inst))
            .map(|(out, _)| out)
    }

    /// Runs the full solve under an engine request (cancellation, budget,
    /// tracing) through the shared chassis driver.
    pub fn solve_with(&self, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
        crate::chassis::drive(self, req)
    }
}

impl<E: SpaceEngine> Scenario for QPtas<E> {
    const TAG: &'static str = "q";

    /// The rounding/partition metadata plus the fastest-first machine
    /// permutation: `perm[j]` is the original id of the `j`-th fastest
    /// machine.
    type Map = (RoundedLongJobs, JobPartition, Vec<usize>);

    fn params(&self) -> &EpsilonParams {
        &self.params
    }

    /// Sorts the machines fastest-first (ties to the lowest original index)
    /// with capacities `caps[j] = s_j·target`, and rounds against the
    /// fastest capacity `capmax = caps[0]`: the threshold and unit formulas
    /// depend only on the capacity, so the `P||Cmax` rounding is reused
    /// wholesale.
    fn round(&self, inst: &Instance, target: Time) -> Option<Rounded<Self::Map>> {
        let speeds = inst.speeds();
        let mut perm: Vec<usize> = (0..inst.machines()).collect();
        perm.sort_by(|&a, &b| speeds[b].cmp(&speeds[a]).then(a.cmp(&b)));
        let caps: Vec<Time> = perm
            .iter()
            .map(|&i| speeds[i].saturating_mul(target))
            .collect();
        let capmax = caps[0];
        // A job no machine can finish by the target (the rounding invariant
        // `t ≤ capacity` would not hold).
        if inst.max_time() > capmax {
            return None;
        }
        let (counts, unit, (rounded, partition)) = PcmaxRounding {
            params: &self.params,
        }
        .round_at(inst, capmax);
        Some(Rounded {
            problem: DpProblem::new(counts, unit, capmax, inst.machines()),
            caps,
            map: (rounded, partition, perm),
        })
    }

    fn dp(&self, rounded: &Rounded<Self::Map>, scratch: &mut DpScratch) -> Result<DpOutcome> {
        let problem = &rounded.problem;
        let mut table = problem.build_table_in(scratch)?;
        let configs = problem.configs_with_offsets(&table);
        let space = QSpace::new(&configs, &table.sizes, &rounded.caps);
        self.engine.sweep(&mut table, &space, scratch);
        finish_with(problem, table, &space, scratch)
    }

    fn reconstruct(
        &self,
        inst: &Instance,
        configs: &[Config],
        (rounded, partition, perm): &Self::Map,
    ) -> Result<Schedule> {
        // The walk peels configs top-down: the config extracted at value `q`
        // fits `caps[q−1]`, so `configs[step]` (0-based) belongs on the
        // `used−1−step`-th fastest machine.
        let used = configs.len();
        let (mut builder, shorts) = place_long_jobs(inst, configs, rounded, partition, |step| {
            perm[used - 1 - step]
        })?;
        // Short jobs in non-increasing time on the earliest-finishing
        // machine — the speed-aware generalization of the LPT finish.
        let speeds = inst.speeds();
        for &j in &shorts {
            let mach =
                pcmax_baselines::uniform::earliest_finish(builder.loads(), &speeds, inst.time(j));
            builder.assign(j, mach);
        }
        builder.build()
    }
}

impl<E: SpaceEngine + Send + Sync> Solver for QPtas<E> {
    fn solver_name(&self) -> &'static str {
        "PTAS-Q"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        crate::chassis::solve(self, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{lower_bound, Scheduler};
    use pcmax_workloads::{generate_uniform, Distribution, Family, SpeedFamily};

    fn qptas() -> QPtas {
        QPtas::new(0.3).unwrap()
    }

    #[test]
    fn exact_on_a_tiny_uniform_instance() {
        // speeds (2, 1), jobs (4, 2): put 4 on the fast machine (done at 2)
        // and 2 on the slow one (done at 2) -> OPT = 2.
        let inst = Instance::with_speeds(vec![4, 2], vec![2, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.target, 2);
        assert_eq!(out.schedule.makespan(&inst), 2);
        out.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn all_short_instance_collapses_to_the_greedy() {
        // Everything is short at the converged target: the witness is empty
        // and the earliest-finish greedy does all the work.
        let inst = Instance::with_speeds(vec![1, 1, 1], vec![5, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.target, 1);
        assert_eq!(out.schedule.makespan(&inst), 1);
    }

    #[test]
    fn matches_identical_ptas_makespan_when_speeds_are_one() {
        use crate::Ptas;
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let q = qptas().solve_detailed(&inst).unwrap();
        let p = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        // All caps equal the target, so the step filter is vacuous: the DP
        // values, the certified target and the makespan all coincide (the
        // machine *labels* differ — Q hands configs out fastest-prefix-last).
        assert_eq!(q.target, p.target);
        assert_eq!(q.schedule.makespan(&inst), p.schedule.makespan(&inst));
        q.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn target_is_a_lower_bound_and_schedule_validates() {
        let fam = SpeedFamily::new(Family::new(3, 14, Distribution::U1To100), 4);
        for seed in 0..6 {
            let inst = generate_uniform(fam, seed);
            let out = qptas().solve_detailed(&inst).unwrap();
            out.schedule.validate(&inst).unwrap();
            assert!(
                out.target >= lower_bound(&inst),
                "seed {seed}: certified target below the area bound"
            );
            assert!(
                out.schedule.makespan(&inst) >= lower_bound(&inst),
                "seed {seed}: makespan beat the lower bound"
            );
        }
    }

    #[test]
    fn long_jobs_respect_sorted_capacities() {
        // A job only the fast machine can finish by the optimum must land
        // on the fast machine.
        let inst = Instance::with_speeds(vec![30, 3, 3], vec![10, 1, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        assert_eq!(
            out.schedule.machine_of(0),
            0,
            "size-30 job on the 10x machine"
        );
        assert!(out.schedule.makespan(&inst) <= 2 * lower_bound(&inst));
    }

    #[test]
    fn solver_report_certifies_the_target() {
        let inst =
            Instance::with_speeds(vec![17, 13, 11, 9, 8, 7, 5, 4, 2], vec![3, 2, 1]).unwrap();
        let report = qptas().solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        let detailed = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(report.certified_target, Some(detailed.target));
        assert!(!report.proven_optimal);
        let _ = Scheduler::makespan(&qptas(), &inst).unwrap();
    }

    #[test]
    fn memoized_engine_matches_the_serial_oracle_end_to_end() {
        // The second family reaches probes where the capacity filter decides
        // the verdict: a memoized walk that ignored it diverges on seeds 2
        // and 7 there.
        for (fam, seeds) in [
            (
                SpeedFamily::new(Family::new(3, 12, Distribution::U1To100), 4),
                0..4,
            ),
            (
                SpeedFamily::new(Family::new(4, 16, Distribution::U1To100), 6),
                0..8,
            ),
        ] {
            for seed in seeds {
                let inst = generate_uniform(fam, seed);
                let serial = qptas().solve_detailed(&inst).unwrap();
                let memoized = QPtas::with_engine(0.3, crate::MemoizedDp)
                    .unwrap()
                    .solve_detailed(&inst)
                    .unwrap();
                assert_eq!(serial.target, memoized.target, "{fam:?} seed {seed}");
                assert_eq!(serial.schedule, memoized.schedule, "{fam:?} seed {seed}");
            }
        }
    }

    #[test]
    fn empty_instance_is_a_noop() {
        let inst = Instance::new(vec![], 2).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 0);
        assert_eq!(out.log.evaluations(), 0);
    }
}

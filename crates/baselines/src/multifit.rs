//! MULTIFIT (Coffman, Garey & Johnson 1978).
//!
//! MULTIFIT treats `P||Cmax` as the dual of bin packing: bisect on a machine
//! capacity `C` and test whether first-fit-decreasing (FFD) packs all jobs
//! into `m` bins of size `C`. After `k` bisection steps the makespan is within
//! `1.22 + 2^{-k}` of optimal (the tight constant is 13/11).

use pcmax_core::{
    Error, Instance, Result, Schedule, ScheduleBuilder, SolveReport, SolveRequest, SolveStats,
    Solver, Time,
};
use std::time::Instant;

/// MULTIFIT with a configurable number of bisection iterations (the paper's
/// `k`; 7 is the customary default giving `1.22 + 2^{-7} ≈ 1.228`).
#[derive(Debug, Clone, Copy)]
pub struct Multifit {
    /// Number of bisection iterations on the capacity.
    pub iterations: u32,
}

impl Default for Multifit {
    fn default() -> Self {
        Self { iterations: 7 }
    }
}

impl Multifit {
    /// MULTIFIT with `iterations` bisection steps.
    pub fn new(iterations: u32) -> Self {
        Self { iterations }
    }
}

/// First-fit-decreasing packing of `order` (already sorted by decreasing
/// time) into `m` bins of capacity `cap`. Returns the partial builder if all
/// jobs fit, `None` otherwise.
fn ffd_fits<'a>(inst: &'a Instance, order: &[usize], cap: Time) -> Option<ScheduleBuilder<'a>> {
    let mut builder = ScheduleBuilder::new(inst);
    for &j in order {
        let t = inst.time(j);
        let mut placed = false;
        for machine in 0..inst.machines() {
            if builder.load(machine) + t <= cap {
                builder.assign(j, machine);
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }
    Some(builder)
}

impl Solver for Multifit {
    fn solver_name(&self) -> &'static str {
        "MULTIFIT"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        req.check_cancelled()?;
        let start = Instant::now();
        let inst = req.instance;
        let mut stats = SolveStats::default();
        if inst.jobs() == 0 {
            let schedule = Schedule::from_assignment(vec![], inst.machines())?;
            stats.wall = start.elapsed();
            return Ok(SolveReport::heuristic(schedule, inst, stats));
        }
        let search_span = req.trace_span("multifit-search", self.iterations as u64);
        let order = inst.jobs_by_decreasing_time();
        // Classic capacity bracket: FFD provably fits at CU and the optimum
        // cannot beat CL.
        let mean = inst.total_time() as f64 / inst.machines() as f64;
        let max = inst.max_time() as f64;
        let mut lo = mean.max(max).floor() as Time;
        let mut hi = (2.0 * mean).max(max).ceil() as Time;
        let mut best: Option<Schedule> = None;
        for _ in 0..self.iterations {
            if lo >= hi {
                break;
            }
            stats.bisection_probes += 1;
            // `lo + hi` can exceed u64::MAX; this midpoint cannot.
            let cap = lo + (hi - lo) / 2;
            let _probe_span = req.trace_span("probe", cap);
            match ffd_fits(inst, &order, cap) {
                Some(builder) => {
                    best = Some(builder.build()?);
                    hi = cap;
                }
                None => lo = cap + 1,
            }
        }
        let schedule = match best {
            Some(s) => s,
            // Bisection never found a fitting capacity within the iteration
            // budget; the upper end of the bracket always fits.
            None => {
                stats.bisection_probes += 1;
                let _probe_span = req.trace_span("probe", hi);
                let builder = ffd_fits(inst, &order, hi).ok_or_else(|| Error::InvalidWitness {
                    reason: format!("FFD failed at the always-feasible upper capacity {hi}"),
                })?;
                builder.build()?
            }
        };
        drop(search_span);
        stats.wall = start.elapsed();
        Ok(SolveReport::heuristic(schedule, inst, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{lower_bound, Instance, Scheduler};

    #[test]
    fn packs_equal_jobs_perfectly() {
        let inst = Instance::new(vec![5; 12], 4).unwrap();
        assert_eq!(Multifit::default().makespan(&inst).unwrap(), 15);
    }

    #[test]
    fn valid_schedule_on_mixed_jobs() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 3, 2, 1], 3).unwrap();
        let s = Multifit::default().schedule(&inst).unwrap();
        s.validate(&inst).unwrap();
        assert!(s.makespan(&inst) >= lower_bound(&inst));
    }

    #[test]
    fn beats_lpt_on_the_known_separating_instance() {
        // MULTIFIT's signature advantage: FFD considers bins in index order
        // so it can pack instances LPT spreads badly. Known example where
        // MULTIFIT finds 60 and LPT 65 on 3 machines.
        let inst = Instance::new(vec![30, 30, 22, 22, 20, 20, 18, 18], 3).unwrap();
        let mf = Multifit::default().makespan(&inst).unwrap();
        let lpt = crate::Lpt.makespan(&inst).unwrap();
        assert!(mf <= lpt, "MULTIFIT {mf} vs LPT {lpt}");
    }

    #[test]
    fn more_iterations_never_hurt() {
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2], 3).unwrap();
        let coarse = Multifit::new(2).makespan(&inst).unwrap();
        let fine = Multifit::new(12).makespan(&inst).unwrap();
        assert!(fine <= coarse);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 4).unwrap();
        assert_eq!(Multifit::default().makespan(&inst).unwrap(), 0);
    }

    #[test]
    fn respects_122_bound_against_lower_bound() {
        let inst = Instance::new(vec![17, 16, 14, 12, 11, 10, 9, 7, 6, 5, 3, 2], 4).unwrap();
        let ms = Multifit::default().makespan(&inst).unwrap() as f64;
        let lb = lower_bound(&inst) as f64;
        assert!(ms <= 1.23 * lb);
    }

    #[test]
    fn stats_count_capacity_probes() {
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2], 3).unwrap();
        let report = Multifit::default()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(report.stats.bisection_probes >= 1);
        assert_eq!(report.certified_target, None);
    }
}

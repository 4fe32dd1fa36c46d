//! The paper's assignment integer program for `P||Cmax`, and a
//! [`Solver`] that solves it with the from-scratch MILP solver.

use crate::lp::{Cmp, LinearProgram};
use crate::milp::{MilpProblem, MilpSolver};
use pcmax_core::{
    lower_bound, Error, Instance, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver,
    Time,
};
use std::time::Instant;

/// Most entries the root simplex tableau of an [`AssignmentIp`] solve may
/// hold: 2²⁴ `f64`s (128 MiB), the budget of the PTAS's DP-table guard.
const MAX_TABLEAU_ENTRIES: usize = 1 << 24;

/// Builds the assignment formulation over `min(m, n)` machines — on
/// identical machines no optimal schedule needs more machines than jobs:
/// variables `x_{ij}` (job `j` on machine `i`, binary, laid out row-major by
/// machine) followed by the continuous `C_max`. It allocates `O((m·n)²)`;
/// [`AssignmentIp`] refuses a model whose root simplex tableau would hold
/// more than 2²⁴ entries before building it.
pub fn assignment_model(inst: &Instance) -> MilpProblem {
    let n = inst.jobs();
    let m = inst.machines().min(n);
    let cmax_var = m * n;
    let mut objective = vec![0.0; m * n + 1];
    objective[cmax_var] = 1.0;
    let mut lp = LinearProgram::minimize(objective);

    // Each job runs on exactly one machine.
    for j in 0..n {
        let mut row = vec![0.0; m * n + 1];
        for i in 0..m {
            row[i * n + j] = 1.0;
        }
        lp.constrain(row, Cmp::Eq, 1.0);
    }
    // Machine loads are bounded by C_max.
    for i in 0..m {
        let mut row = vec![0.0; m * n + 1];
        for j in 0..n {
            row[i * n + j] = inst.time(j) as f64;
        }
        row[cmax_var] = -1.0;
        lp.constrain(row, Cmp::Le, 0.0);
    }
    // Binary bounds on the x variables.
    for v in 0..m * n {
        let mut row = vec![0.0; m * n + 1];
        row[v] = 1.0;
        lp.constrain(row, Cmp::Le, 1.0);
    }

    MilpProblem {
        lp,
        integers: (0..m * n).collect(),
        // All t_j are integers, so C_max is integral at every integer point.
        integral_objective: true,
    }
}

/// Scheduler that solves the assignment IP with the branch-and-bound MILP
/// solver. Exponentially slower than `pcmax_exact::BranchAndBound` — use it
/// on small instances (cross-validation, examples).
#[derive(Debug, Clone, Copy, Default)]
pub struct AssignmentIp {
    /// Node budget for the MILP search.
    pub solver: MilpSolver,
}

impl AssignmentIp {
    /// Solves and returns both the schedule and the proven optimal makespan.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<(Schedule, Time)> {
        self.solve_gated(inst, lower_bound(inst), |_| Ok(()))
    }

    /// [`solve_detailed`](Self::solve_detailed), calling `gate` with the
    /// incumbent makespan before every branch-and-bound node. Every
    /// [`Error::BudgetExhausted`] it returns reports `lower_bound`, the
    /// instance's Equation (1) bound.
    fn solve_gated(
        &self,
        inst: &Instance,
        lower_bound: Time,
        mut gate: impl FnMut(Option<Time>) -> Result<()>,
    ) -> Result<(Schedule, Time)> {
        if inst.jobs() == 0 {
            return Ok((Schedule::from_assignment(vec![], inst.machines())?, 0));
        }
        let n = inst.jobs();
        let m = inst.machines().min(n);
        check_model_size(m, n)?;
        let model = assignment_model(inst);
        let sol = match self.solver.solve_gated(&model, |best| {
            gate(best.map(|objective| objective.round() as Time))
        }) {
            // The MILP search knows no bound on the makespan.
            Err(Error::BudgetExhausted { incumbent, .. }) => {
                return Err(Error::BudgetExhausted {
                    incumbent,
                    lower_bound,
                })
            }
            sol => sol?,
        };
        if !sol.proven {
            return Err(Error::BudgetExhausted {
                incumbent: Some(sol.objective.round() as Time),
                lower_bound,
            });
        }
        let mut assignment = vec![usize::MAX; n];
        for (j, slot) in assignment.iter_mut().enumerate() {
            *slot = (0..m)
                .find(|&i| sol.x[i * n + j] > 0.5)
                .ok_or_else(|| Error::BadModel(format!("job {j} unassigned in MILP solution")))?;
        }
        let schedule = Schedule::from_assignment(assignment, inst.machines())?;
        Ok((schedule, sol.objective.round() as Time))
    }
}

/// Refuses an assignment model over `m` machines and `n` jobs whose root
/// simplex tableau would hold more than [`MAX_TABLEAU_ENTRIES`] entries,
/// before anything is allocated. The tableau has `n` equality rows and
/// `m + m·n` `≤` rows; its columns are the `m·n + 1` variables, a slack per
/// `≤` row, an artificial per equality row and the right-hand side.
fn check_model_size(m: usize, n: usize) -> Result<()> {
    let entries = m.checked_mul(n).and_then(|x| {
        let le_rows = m.checked_add(x)?;
        let rows = n.checked_add(le_rows)?;
        let cols = x.checked_add(le_rows)?.checked_add(n)?.checked_add(2)?;
        rows.checked_mul(cols)
    });
    if entries.is_none_or(|e| e > MAX_TABLEAU_ENTRIES) {
        return Err(Error::BadModel(format!(
            "assignment IP over {m} machines and {n} jobs exceeds \
             {MAX_TABLEAU_ENTRIES} simplex tableau entries"
        )));
    }
    Ok(())
}

impl Solver for AssignmentIp {
    fn solver_name(&self) -> &'static str {
        "IP-MILP"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        req.check_cancelled()?;
        let start = Instant::now();
        // A request-level node limit shrinks the MILP search budget.
        let solver = match req.budget.node_limit {
            Some(limit) => Self {
                solver: MilpSolver {
                    node_budget: limit.min(self.solver.node_budget).max(1),
                },
            },
            None => *self,
        };
        let solve_span = req.trace_span("model+solve", solver.solver.node_budget);
        let lower_bound = lower_bound(req.instance);
        let (schedule, opt) = solver.solve_gated(req.instance, lower_bound, |incumbent| {
            req.check_budget(incumbent, lower_bound)
        })?;
        drop(solve_span);
        let stats = SolveStats {
            wall: start.elapsed(),
            ..SolveStats::default()
        };
        Ok(SolveReport {
            makespan: schedule.makespan(req.instance),
            schedule,
            certified_target: Some(opt),
            proven_optimal: true,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::Instance;

    #[test]
    fn model_shape() {
        let inst = Instance::new(vec![3, 5, 2], 2).unwrap();
        let model = assignment_model(&inst);
        assert_eq!(model.lp.vars(), 7); // 6 binaries + C_max
                                        // 3 job rows + 2 machine rows + 6 upper bounds.
        assert_eq!(model.lp.constraints.len(), 11);
        assert_eq!(model.integers.len(), 6);
    }

    #[test]
    fn solves_a_small_instance_optimally() {
        let inst = Instance::new(vec![3, 5, 2, 4], 2).unwrap();
        let (schedule, opt) = AssignmentIp::default().solve_detailed(&inst).unwrap();
        schedule.validate(&inst).unwrap();
        assert_eq!(opt, 7); // {5,2} and {3,4}
        assert_eq!(schedule.makespan(&inst), 7);
    }

    #[test]
    fn lp_relaxation_equals_area_bound() {
        let inst = Instance::new(vec![3, 5, 2, 4], 2).unwrap();
        let model = assignment_model(&inst);
        let relax = model.lp.solve().unwrap();
        assert!((relax.objective - 7.0).abs() < 1e-6); // 14/2
    }

    #[test]
    fn agrees_with_combinatorial_exact_solver() {
        use pcmax_exact::BranchAndBound;
        for (times, m) in [
            (vec![4u64, 5, 6, 7, 8], 2usize),
            (vec![5, 5, 4, 4, 3, 3, 3], 3),
            (vec![9, 1, 1, 1], 2),
        ] {
            let inst = Instance::new(times.clone(), m).unwrap();
            let (_, milp_opt) = AssignmentIp::default().solve_detailed(&inst).unwrap();
            let bb = BranchAndBound::default().solve_detailed(&inst).unwrap();
            assert!(bb.proven);
            assert_eq!(milp_opt, bb.best, "times={times:?} m={m}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2).unwrap();
        let (s, opt) = AssignmentIp::default().solve_detailed(&inst).unwrap();
        assert_eq!(opt, 0);
        assert_eq!(s.jobs(), 0);
    }

    #[test]
    fn single_machine() {
        let inst = Instance::new(vec![2, 3, 4], 1).unwrap();
        let (_, opt) = AssignmentIp::default().solve_detailed(&inst).unwrap();
        assert_eq!(opt, 9);
    }

    #[test]
    fn tiny_node_budget_is_a_dedicated_error() {
        use pcmax_core::Budget;
        let inst = Instance::new(vec![3, 5, 2, 4, 6, 7], 3).unwrap();
        let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1));
        match AssignmentIp::default().solve(&req) {
            Err(Error::BudgetExhausted { .. }) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn more_machines_than_jobs_builds_the_model_over_the_jobs() {
        let inst = Instance::new(vec![3, 4], 10_000).unwrap();
        let model = assignment_model(&inst);
        // Two machines: 4 binaries + C_max; 2 job rows, 2 machine rows, 4
        // upper bounds.
        assert_eq!(model.lp.vars(), 5);
        assert_eq!(model.lp.constraints.len(), 8);
        let report = AssignmentIp::default()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert_eq!(report.makespan, 4);
        assert_eq!(report.certified_target, Some(4));
        assert!(report.proven_optimal);
        assert_eq!(report.schedule.machines(), 10_000);
        report.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn a_model_over_the_tableau_bound_is_refused_before_it_is_built() {
        // 100 × 100: 10⁴ binaries, a tableau of about 2·10⁸ entries.
        let inst = Instance::new(vec![7; 100], 100).unwrap();
        match AssignmentIp::default().solve(&SolveRequest::new(&inst)) {
            Err(Error::BadModel(msg)) => assert!(msg.contains("simplex tableau"), "{msg}"),
            other => panic!("expected BadModel, got {other:?}"),
        }
        assert!(
            check_model_size(40, 40).is_ok(),
            "40 × 40 is under the bound"
        );
        assert!(
            check_model_size(usize::MAX, 2).is_err(),
            "overflow is refused"
        );
    }

    #[test]
    fn solver_report_is_proven_optimal() {
        let inst = Instance::new(vec![3, 5, 2, 4], 2).unwrap();
        let report = AssignmentIp::default()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(report.proven_optimal);
        assert_eq!(report.certified_target, Some(7));
        assert_eq!(report.makespan, 7);
    }
}

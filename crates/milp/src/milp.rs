//! Depth-first branch-and-bound MILP solver over the simplex LP relaxation.

use crate::lp::{Cmp, LinearProgram, LpSolution};
use pcmax_core::{Error, Result};

const INT_TOL: f64 = 1e-6;

/// A mixed-integer linear program: an LP plus a set of variables required to
/// take integer values.
#[derive(Debug, Clone)]
pub struct MilpProblem {
    /// The LP relaxation.
    pub lp: LinearProgram,
    /// Indices of integer-constrained variables.
    pub integers: Vec<usize>,
    /// If true, the objective is known to be integral at every integer
    /// point, enabling the stronger `⌈bound⌉ ≥ incumbent` pruning.
    pub integral_objective: bool,
}

/// An optimal (or budget-limited) MILP solution.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective value of the incumbent.
    pub objective: f64,
    /// Variable assignment of the incumbent.
    pub x: Vec<f64>,
    /// Branch-and-bound nodes solved.
    pub nodes: u64,
    /// True iff optimality was proven within the node budget.
    pub proven: bool,
}

/// Branch-and-bound driver.
#[derive(Debug, Clone, Copy)]
pub struct MilpSolver {
    /// Maximum LP relaxations to solve before giving up.
    pub node_budget: u64,
}

impl Default for MilpSolver {
    fn default() -> Self {
        Self {
            node_budget: 20_000,
        }
    }
}

impl MilpSolver {
    /// Solves `problem` to optimality or budget exhaustion. Returns
    /// [`Error::Infeasible`] if no integer point exists (proven), and
    /// [`Error::BudgetExhausted`] if the budget ran out with no incumbent.
    pub fn solve(&self, problem: &MilpProblem) -> Result<MilpSolution> {
        self.solve_gated(problem, |_| Ok(()))
    }

    /// [`solve`](Self::solve), calling `gate` with the incumbent's
    /// objective (if any) before every node; an error from `gate` ends the
    /// search and is returned as is. Solvers pass their request's budget
    /// gate here, so a deadline or a cancel stops the search within one LP.
    pub(crate) fn solve_gated(
        &self,
        problem: &MilpProblem,
        mut gate: impl FnMut(Option<f64>) -> Result<()>,
    ) -> Result<MilpSolution> {
        let mut nodes = 0u64;
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        // DFS stack of extra bound rows (var, sense, value).
        let mut stack: Vec<Vec<(usize, Cmp, f64)>> = vec![Vec::new()];
        let mut exhausted = false;

        while let Some(bounds) = stack.pop() {
            if nodes >= self.node_budget {
                exhausted = true;
                break;
            }
            gate(incumbent.as_ref().map(|(objective, _)| *objective))?;
            nodes += 1;
            let mut lp = problem.lp.clone();
            for &(var, cmp, value) in &bounds {
                let mut row = vec![0.0; lp.vars()];
                row[var] = 1.0;
                lp.constrain(row, cmp, value);
            }
            let relax = match lp.solve() {
                Ok(s) => s,
                Err(Error::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            // Prune by bound.
            if let Some((best, _)) = &incumbent {
                let cutoff = if problem.integral_objective {
                    best - 1.0 + 1e-7
                } else {
                    best - 1e-9
                };
                if relax.objective > cutoff {
                    continue;
                }
            }
            match most_fractional(&relax, &problem.integers) {
                None => {
                    // Integral: new incumbent (we only reach here if it beats
                    // the current one, thanks to the prune above).
                    incumbent = Some((relax.objective, relax.x));
                }
                Some((var, value)) => {
                    // Branch: explore the "down" child first (LIFO order).
                    let mut up = bounds.clone();
                    up.push((var, Cmp::Ge, value.ceil()));
                    stack.push(up);
                    let mut down = bounds;
                    down.push((var, Cmp::Le, value.floor()));
                    stack.push(down);
                }
            }
        }

        match incumbent {
            Some((objective, x)) => Ok(MilpSolution {
                objective,
                x,
                nodes,
                proven: !exhausted,
            }),
            None if exhausted => Err(Error::BudgetExhausted {
                incumbent: None,
                lower_bound: 0,
            }),
            None => Err(Error::Infeasible),
        }
    }
}

/// The integer variable whose relaxation value is farthest from an integer,
/// or `None` if all are integral within tolerance.
fn most_fractional(solution: &LpSolution, integers: &[usize]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for &var in integers {
        let v = solution.x[var];
        let frac = (v - v.round()).abs();
        if frac > INT_TOL {
            let distance = (v - v.floor() - 0.5).abs(); // 0 = perfectly split
            if best.is_none_or(|(_, _, d)| distance < d) {
                best = Some((var, v, distance));
            }
        }
    }
    best.map(|(var, v, _)| (var, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn knapsack() {
        // max 5a + 4b + 3c s.t. 2a + 3b + c ≤ 5, binaries.
        // Optimum: a = c = 1, b = 1? 2+3+1 = 6 > 5 -> a=1,c=1 (obj 8) vs
        // a=1,b=1 (obj 9, weight 5 ✓). Answer: 9.
        let mut lp = LinearProgram::minimize(vec![-5.0, -4.0, -3.0]);
        lp.constrain(vec![2.0, 3.0, 1.0], Cmp::Le, 5.0);
        for v in 0..3 {
            let mut row = vec![0.0; 3];
            row[v] = 1.0;
            lp.constrain(row, Cmp::Le, 1.0);
        }
        let sol = MilpSolver::default()
            .solve(&MilpProblem {
                lp,
                integers: vec![0, 1, 2],
                integral_objective: true,
            })
            .unwrap();
        assert_close(sol.objective, -9.0);
        assert!(sol.proven);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y ≤ 3: LP gives 1.5, ILP 1.
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
        lp.constrain(vec![2.0, 2.0], Cmp::Le, 3.0);
        let sol = MilpSolver::default()
            .solve(&MilpProblem {
                lp,
                integers: vec![0, 1],
                integral_objective: true,
            })
            .unwrap();
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn proven_infeasible() {
        // x integer, 0.3 ≤ x ≤ 0.7.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![1.0], Cmp::Ge, 0.3);
        lp.constrain(vec![1.0], Cmp::Le, 0.7);
        let r = MilpSolver::default().solve(&MilpProblem {
            lp,
            integers: vec![0],
            integral_objective: false,
        });
        assert!(matches!(r, Err(Error::Infeasible)));
    }

    #[test]
    fn continuous_vars_stay_continuous() {
        // min y s.t. y ≥ x − 0.5, y ≥ 0.5 − x, x binary: both x values give
        // y = 0.5.
        let mut lp = LinearProgram::minimize(vec![0.0, 1.0]);
        lp.constrain(vec![-1.0, 1.0], Cmp::Ge, -0.5);
        lp.constrain(vec![1.0, 1.0], Cmp::Ge, 0.5);
        let sol = MilpSolver::default()
            .solve(&MilpProblem {
                lp,
                integers: vec![0],
                integral_objective: false,
            })
            .unwrap();
        assert_close(sol.objective, 0.5);
    }

    #[test]
    fn budget_exhaustion_without_incumbent_errors() {
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
        lp.constrain(vec![2.0, 2.0], Cmp::Le, 3.0);
        let r = MilpSolver { node_budget: 1 }.solve(&MilpProblem {
            lp,
            integers: vec![0, 1],
            integral_objective: true,
        });
        // One node only solves the root relaxation (fractional), so there is
        // no incumbent yet.
        assert!(matches!(
            r,
            Err(Error::BudgetExhausted {
                incumbent: None,
                ..
            })
        ));
    }
}

//! Search over the makespan with the packing oracle — the exact solver.
//!
//! The solver is *anytime*, like a MIP solver with a time limit: it always
//! returns its incumbent schedule together with the best proven lower bound,
//! and a flag saying whether optimality was proven. The search proceeds in
//! phases:
//!
//! 1. probe the combinatorial lower bound `LB` directly (most instances with
//!    many jobs per machine achieve it),
//! 2. bisect on `[LB, LPT]` while probes resolve within their budget slice,
//! 3. if a probe stalls, fall back to *descending* probes from the incumbent
//!    (each success improves the incumbent; the first proven-infeasible
//!    probe closes the gap).

use crate::binpack::{FeasibilityOracle, PackingVerdict};
use crate::bounds::combinatorial_lower_bound;
use crate::improve::local_search;
use pcmax_baselines::Lpt;
use pcmax_core::{
    Error, Instance, Result, Schedule, Scheduler, SolveReport, SolveRequest, SolveStats, Solver,
    Time,
};
use std::time::Instant;

/// Exact branch-and-bound solver for `P||Cmax` (the "IP" baseline).
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBound {
    /// Total search-node budget across the whole solve (the "time limit").
    pub node_budget: u64,
    /// Budget slice per feasibility probe; a stalled probe triggers the
    /// descending phase rather than burning the whole budget.
    pub probe_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self {
            node_budget: 200_000_000,
            probe_budget: 20_000_000,
        }
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactOutput {
    /// The incumbent schedule (optimal iff `proven`).
    pub schedule: Schedule,
    /// Makespan of the incumbent.
    pub best: Time,
    /// Best proven lower bound on the optimum (`= best` iff `proven`).
    pub lower_bound: Time,
    /// Whether `best` was proven optimal.
    pub proven: bool,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Feasibility probes attempted.
    pub probes: usize,
}

impl ExactOutput {
    /// The optimality gap `(best − lower_bound) / lower_bound`.
    pub fn gap(&self) -> f64 {
        if self.lower_bound == 0 {
            return 0.0;
        }
        (self.best - self.lower_bound) as f64 / self.lower_bound as f64
    }
}

impl BranchAndBound {
    /// Solver with an explicit total node budget (probe slices = 1/10th).
    pub fn with_budget(node_budget: u64) -> Self {
        Self {
            node_budget,
            probe_budget: (node_budget / 10).max(1),
        }
    }

    /// Full solve with statistics.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<ExactOutput> {
        self.solve_gated(inst, || Ok(()))
    }

    /// [`solve_detailed`](Self::solve_detailed), polling `gate` at bounded
    /// intervals of the search (see [`FeasibilityOracle::feasible_gated`]).
    /// A `BudgetExhausted` from the gate ends the search as an empty node
    /// budget does: the incumbent comes back with the proven lower bound.
    /// Any other error from the gate is returned.
    pub(crate) fn solve_gated(
        &self,
        inst: &Instance,
        mut gate: impl FnMut() -> Result<()>,
    ) -> Result<ExactOutput> {
        // Warm start: LPT polished by move/swap local search; start the
        // bracket at the strongest combinatorial lower bound.
        let warm = local_search(inst, &Lpt.schedule(inst)?)?;
        let mut upper = warm.makespan(inst);
        let mut lower = combinatorial_lower_bound(inst);
        let mut best = warm;
        let mut remaining = self.node_budget;
        let mut nodes = 0u64;
        let mut probes = 0usize;
        let mut stalled = false;

        let mut probe =
            |cap: Time, remaining: &mut u64, nodes: &mut u64| -> Result<PackingVerdict> {
                let slice = self.probe_budget.min(*remaining);
                let mut oracle = FeasibilityOracle::new(inst, slice);
                let verdict = oracle.feasible_gated(cap, &mut gate);
                *remaining -= oracle.nodes().min(slice);
                *nodes += oracle.nodes();
                match verdict {
                    Err(Error::BudgetExhausted { .. }) => {
                        *remaining = 0;
                        Ok(PackingVerdict::BudgetExhausted)
                    }
                    verdict => verdict,
                }
            };

        // Phase 1 + 2: LB-first, then bisection.
        let mut first = true;
        while lower < upper && remaining > 0 {
            let cap = if first { lower } else { (lower + upper) / 2 };
            first = false;
            probes += 1;
            match probe(cap, &mut remaining, &mut nodes)? {
                PackingVerdict::Feasible(assignment) => {
                    best = assignment_to_schedule(inst, &assignment)?;
                    upper = best.makespan(inst).min(cap);
                }
                PackingVerdict::Infeasible => lower = cap + 1,
                PackingVerdict::BudgetExhausted => {
                    stalled = true;
                    break;
                }
            }
        }

        // Phase 3: descending incumbent improvement after a stall.
        if stalled {
            while lower < upper && remaining > 0 {
                let cap = upper - 1;
                probes += 1;
                match probe(cap, &mut remaining, &mut nodes)? {
                    PackingVerdict::Feasible(assignment) => {
                        best = assignment_to_schedule(inst, &assignment)?;
                        upper = best.makespan(inst).min(cap);
                    }
                    PackingVerdict::Infeasible => {
                        lower = upper; // cap = upper−1 impossible ⇒ upper optimal
                    }
                    PackingVerdict::BudgetExhausted => break,
                }
            }
        }

        Ok(ExactOutput {
            best: best.makespan(inst),
            schedule: best,
            lower_bound: lower.min(upper),
            proven: lower >= upper,
            nodes,
            probes,
        })
    }
}

impl Solver for BranchAndBound {
    fn solver_name(&self) -> &'static str {
        "IP"
    }

    /// Anytime semantics under a budget: a request-level node limit
    /// replaces the constructed budget, larger or smaller, as
    /// [`with_budget`](Self::with_budget) would set it, and the search stops
    /// at the request's deadline; either way the solver still returns its
    /// incumbent with `proven_optimal = false` rather than erroring out. A
    /// cancel raised mid-search returns `Cancelled`.
    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        req.check_cancelled()?;
        let start = Instant::now();
        let solver = match req.budget.node_limit {
            Some(limit) => Self::with_budget(limit.max(1)),
            None => *self,
        };
        let search_span = req.trace_span("search", solver.node_budget);
        // The bounds of the gate's error are not reported: an expired
        // deadline returns the incumbent and its proven lower bound.
        let out = solver.solve_gated(req.instance, || req.check_budget(None, 0))?;
        drop(search_span);
        let stats = SolveStats {
            bb_nodes: out.nodes,
            bisection_probes: out.probes as u64,
            wall: start.elapsed(),
            ..SolveStats::default()
        };
        Ok(SolveReport {
            makespan: out.best,
            certified_target: Some(out.lower_bound),
            proven_optimal: out.proven,
            schedule: out.schedule,
            stats,
        })
    }
}

/// Translates the oracle's decreasing-order assignment back to job ids.
fn assignment_to_schedule(inst: &Instance, assignment: &[usize]) -> Result<Schedule> {
    let ids_desc = inst.jobs_by_decreasing_time();
    let mut map = vec![0usize; inst.jobs()];
    for (p, &bin) in assignment.iter().enumerate() {
        map[ids_desc[p]] = bin;
    }
    Schedule::from_assignment(map, inst.machines())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::Instance;

    fn solve(times: Vec<u64>, m: usize) -> ExactOutput {
        BranchAndBound::default()
            .solve_detailed(&Instance::new(times, m).unwrap())
            .unwrap()
    }

    fn opt(times: Vec<u64>, m: usize) -> u64 {
        let out = solve(times, m);
        assert!(out.proven, "expected a proven optimum");
        out.best
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(opt(vec![5], 1), 5);
        assert_eq!(opt(vec![5, 4, 3], 1), 12);
        assert_eq!(opt(vec![5, 4, 3], 3), 5);
        assert_eq!(opt(vec![5, 4, 3], 10), 5);
    }

    #[test]
    fn graham_lpt_worst_case_is_solved_to_optimality() {
        // m = 3: jobs {5,5,4,4,3,3,3}; LPT gives 11, optimum is 9.
        assert_eq!(opt(vec![5, 5, 4, 4, 3, 3, 3], 3), 9);
    }

    #[test]
    fn perfect_partition() {
        assert_eq!(opt(vec![4, 5, 6, 7, 8], 2), 15);
    }

    #[test]
    fn off_by_one_partition() {
        // sum = 31 -> lower bound 16; {8,7} vs {6,5,4,1}: 15/16 -> 16.
        assert_eq!(opt(vec![4, 5, 6, 7, 8, 1], 2), 16);
    }

    #[test]
    fn schedule_matches_reported_optimum() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 4, 3, 2, 2, 1], 3).unwrap();
        let out = BranchAndBound::default().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), out.best);
        assert_eq!(out.best, 15); // sum = 43, ceil(43/3) = 15, achievable
        assert!(out.proven);
        assert_eq!(out.gap(), 0.0);
    }

    #[test]
    fn never_below_lower_bound_and_never_above_lpt() {
        use pcmax_baselines::Lpt;
        use pcmax_core::lower_bound;
        for (times, m) in [
            (vec![13u64, 11, 7, 5, 3, 2, 2], 3usize),
            (vec![10, 10, 9, 8, 1, 1, 1, 1], 4),
            (vec![6, 6, 6, 5, 5, 5, 4], 2),
        ] {
            let inst = Instance::new(times, m).unwrap();
            let out = BranchAndBound::default().solve_detailed(&inst).unwrap();
            assert!(out.best >= lower_bound(&inst));
            assert!(out.best <= Lpt.makespan(&inst).unwrap());
            assert!(out.lower_bound <= out.best);
        }
    }

    #[test]
    fn tiny_budget_still_returns_an_incumbent() {
        let inst = Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap();
        let out = BranchAndBound {
            node_budget: 1,
            probe_budget: 1,
        }
        .solve_detailed(&inst)
        .unwrap();
        out.schedule.validate(&inst).unwrap();
        assert!(out.lower_bound <= out.best);
        // With one node the answer is the polished warm start; the true
        // optimum is 18, so the incumbent can be no better.
        assert!(out.best >= 18);
    }

    #[test]
    fn empty_instance() {
        assert_eq!(opt(vec![], 3), 0);
    }

    #[test]
    fn request_node_limit_yields_anytime_incumbent() {
        use pcmax_core::Budget;
        let inst = Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap();
        let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1));
        let report = BranchAndBound::default().solve(&req).unwrap();
        report.schedule.validate(&inst).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        assert!(report.certified_target.unwrap() <= report.makespan);
        // One node cannot prove optimality on this instance.
        assert!(!report.proven_optimal);
        assert!(report.stats.bisection_probes >= 1);
    }

    #[test]
    fn request_node_limit_replaces_the_constructed_budget() {
        use pcmax_core::Budget;
        let inst = Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap();
        let needs = BranchAndBound::default().solve_detailed(&inst).unwrap();
        assert!(needs.proven && needs.nodes > 10, "{} nodes", needs.nodes);
        let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1_000));
        let report = BranchAndBound::with_budget(10).solve(&req).unwrap();
        assert!(
            report.stats.bb_nodes > 10,
            "{} nodes",
            report.stats.bb_nodes
        );
    }

    #[test]
    fn unlimited_request_proves_optimality() {
        let inst = Instance::new(vec![5, 5, 4, 4, 3, 3, 3], 3).unwrap();
        let report = BranchAndBound::default()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(report.proven_optimal);
        assert_eq!(report.makespan, 9);
        assert_eq!(report.certified_target, Some(9));
    }

    #[test]
    fn exhaustive_small_against_brute_force() {
        fn brute_opt(times: &[u64], m: usize) -> u64 {
            fn rec(times: &[u64], loads: &mut Vec<u64>, best: &mut u64) {
                match times.split_first() {
                    None => *best = (*best).min(*loads.iter().max().unwrap()),
                    Some((&t, rest)) => {
                        for i in 0..loads.len() {
                            loads[i] += t;
                            if *loads.iter().max().unwrap() < *best {
                                rec(rest, loads, best);
                            }
                            loads[i] -= t;
                        }
                    }
                }
            }
            let mut best = times.iter().sum::<u64>();
            if times.is_empty() {
                return 0;
            }
            rec(times, &mut vec![0; m], &mut best);
            best
        }
        // A spread of pseudo-random small instances.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 12 + 1
        };
        for trial in 0..40 {
            let n = 4 + (trial % 5);
            let m = 2 + (trial % 3);
            let times: Vec<u64> = (0..n).map(|_| next()).collect();
            let got = opt(times.clone(), m);
            let want = brute_opt(&times, m);
            assert_eq!(got, want, "times={times:?} m={m}");
        }
    }
}

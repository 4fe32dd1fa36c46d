//! Sahni's FPTAS for `P_m||C_max` — minimum-makespan scheduling when the
//! number of machines `m` is a *fixed constant* (Sahni 1976, cited as \[15\]
//! in Ghalami & Grosu's related work).
//!
//! For fixed `m` the problem admits a *fully* polynomial-time approximation
//! scheme, unlike the general problem (strongly NP-hard, PTAS only). The
//! scheme is the classic trim-the-state-space dynamic program:
//!
//! 1. process jobs one at a time; a state is the vector of current machine
//!    loads (sorted, since identical machines make permutations equivalent),
//! 2. after each job, *trim*: quantize loads to a grid of width
//!    `δ = ε·LB/(2n)` and keep one representative per grid cell,
//! 3. the answer is the state minimizing the maximum load; parent pointers
//!    recover the schedule.
//!
//! Grid error accumulates at most `δ` per job per machine, so the final
//! makespan is within `n·δ ≤ ε·LB/2 ≤ ε·OPT` of optimal — a
//! `(1+ε)`-approximation in time `O(n · (n/ε)^{m-1})`, polynomial in both
//! `n` and `1/ε` for fixed `m`.
//!
//! With `epsilon = 0` the trim step is skipped entirely and the algorithm
//! becomes an exact (exponential-state) DP — handy for cross-validation.

use pcmax_core::{
    lower_bound, Error, Instance, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver,
    Time,
};
use std::collections::HashMap;
use std::time::Instant;

/// Sahni's FPTAS. `epsilon = 0` disables trimming (exact mode).
#[derive(Debug, Clone, Copy)]
pub struct FixedMachinesFptas {
    /// Relative error bound (`≥ 0`; `0` = exact DP).
    pub epsilon: f64,
    /// Safety cap on live states per round (an `Error::BudgetExhausted`
    /// guard against `epsilon = 0` on large instances).
    pub max_states: usize,
}

impl FixedMachinesFptas {
    /// FPTAS with relative error `epsilon`.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(Error::InvalidEpsilon {
                reason: "epsilon must be a finite non-negative number",
            });
        }
        Ok(Self {
            epsilon,
            max_states: 2_000_000,
        })
    }

    /// Exact mode (no trimming).
    pub fn exact() -> Self {
        Self {
            epsilon: 0.0,
            max_states: 2_000_000,
        }
    }
}

/// One DP state: machine loads sorted non-increasingly, plus the parent
/// pointer `(state index in previous round, machine position chosen)`.
#[derive(Debug, Clone)]
struct State {
    loads: Vec<Time>,
    parent: usize,
    /// Index (in the *sorted parent loads*) of the machine the new job went
    /// to. Reconstruction replays the sort.
    machine_pos: usize,
}

impl FixedMachinesFptas {
    /// The trim-the-state-space DP itself; returns the assignment and the
    /// makespan the DP claims for it.
    fn run_dp(&self, inst: &Instance) -> Result<(Vec<usize>, Time)> {
        let m = inst.machines();
        let n = inst.jobs();
        // Quantization grid; 0 disables trimming.
        let delta = if self.epsilon > 0.0 {
            (self.epsilon * lower_bound(inst) as f64 / (2.0 * n.max(1) as f64)).floor() as Time
        } else {
            0
        };

        // Round r holds the states after scheduling job order[r-1].
        let mut rounds: Vec<Vec<State>> = Vec::with_capacity(n + 1);
        rounds.push(vec![State {
            loads: vec![0; m],
            parent: usize::MAX,
            machine_pos: usize::MAX,
        }]);

        // Processing jobs in decreasing size order makes trimming behave
        // better (big decisions first) and is the customary presentation.
        let order = inst.jobs_by_decreasing_time();

        for &job in order.iter() {
            let t = inst.time(job);
            let Some(prev) = rounds.last() else {
                return Err(Error::InvalidWitness {
                    reason: "FPTAS rounds list lost its initial round".to_string(),
                });
            };
            // Key: quantized sorted loads -> index into `next` (keep the
            // representative with the smallest true max load).
            let mut seen: HashMap<Vec<Time>, usize> = HashMap::new();
            let mut next: Vec<State> = Vec::new();
            for (pi, state) in prev.iter().enumerate() {
                for pos in 0..m {
                    // Identical machines: placing on two equally loaded
                    // machines is the same move.
                    if pos > 0 && state.loads[pos] == state.loads[pos - 1] {
                        continue;
                    }
                    let mut loads = state.loads.clone();
                    loads[pos] += t;
                    loads.sort_unstable_by(|a, b| b.cmp(a));
                    let key: Vec<Time> = if delta > 0 {
                        loads.iter().map(|&w| w / (delta + 1)).collect()
                    } else {
                        loads.clone()
                    };
                    match seen.entry(key) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            let existing = &mut next[*e.get()];
                            if loads[0] < existing.loads[0] {
                                *existing = State {
                                    loads,
                                    parent: pi,
                                    machine_pos: pos,
                                };
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(next.len());
                            next.push(State {
                                loads,
                                parent: pi,
                                machine_pos: pos,
                            });
                        }
                    }
                }
            }
            if next.len() > self.max_states {
                return Err(Error::BudgetExhausted {
                    incumbent: None,
                    lower_bound: lower_bound(inst),
                });
            }
            rounds.push(next);
        }

        // Best final state.
        let Some(last) = rounds.last() else {
            return Err(Error::InvalidWitness {
                reason: "FPTAS produced no final round (expected n+1)".to_string(),
            });
        };
        let Some((mut best_idx, best_ms)) = last
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.loads[0]))
            .min_by_key(|&(_, ms)| ms)
        else {
            return Err(Error::InvalidWitness {
                reason: "FPTAS final round is empty (no state survived trimming)".to_string(),
            });
        };

        // Reconstruct by replaying the decisions forward: walk parents back,
        // then re-execute placements against unsorted per-machine loads.
        let mut decisions = vec![usize::MAX; n]; // decisions[r] = machine_pos
        for r in (1..=n).rev() {
            let s = &rounds[r][best_idx];
            decisions[r - 1] = s.machine_pos;
            best_idx = s.parent;
        }
        let mut assignment = vec![usize::MAX; n];
        let mut loads: Vec<(Time, usize)> = (0..m).map(|i| (0, i)).collect();
        for (r, &job) in order.iter().enumerate() {
            // The DP's `machine_pos` indexes the parent's loads sorted
            // non-increasingly; mirror that ordering here.
            loads.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let (load, machine) = loads[decisions[r]];
            assignment[job] = machine;
            loads[decisions[r]] = (load + inst.time(job), machine);
        }
        Ok((assignment, best_ms))
    }
}

impl Solver for FixedMachinesFptas {
    fn solver_name(&self) -> &'static str {
        "Sahni-FPTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        req.check_cancelled()?;
        let start = Instant::now();
        let inst = req.instance;
        let mut stats = SolveStats::default();
        if inst.jobs() == 0 {
            let schedule = Schedule::from_assignment(vec![], inst.machines())?;
            stats.wall = start.elapsed();
            return Ok(SolveReport {
                makespan: 0,
                schedule,
                certified_target: Some(0),
                proven_optimal: true,
                stats,
            });
        }
        let dp_span = req.trace_span("dp", inst.jobs() as u64);
        let (assignment, claimed) = self.run_dp(inst)?;
        drop(dp_span);
        let recon_span = req.trace_span("reconstruct", 0);
        let schedule = Schedule::from_assignment(assignment, inst.machines())?;
        drop(recon_span);
        debug_assert_eq!(
            schedule.makespan(inst),
            claimed,
            "reconstruction must reproduce the DP's makespan"
        );
        stats.wall = start.elapsed();
        // epsilon = 0 skips trimming, so the DP is exhaustive and the result
        // is a proven optimum.
        let exact = self.epsilon == 0.0;
        Ok(SolveReport {
            makespan: claimed,
            schedule,
            certified_target: exact.then_some(claimed),
            proven_optimal: exact,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::Scheduler;
    use pcmax_exact::BranchAndBound;

    fn exact_opt(inst: &Instance) -> Time {
        let out = BranchAndBound::default().solve_detailed(inst).unwrap();
        assert!(out.proven);
        out.best
    }

    #[test]
    fn exact_mode_matches_branch_and_bound() {
        for (times, m) in [
            (vec![4u64, 5, 6, 7, 8], 2usize),
            (vec![5, 5, 4, 4, 3, 3, 3], 3),
            (vec![10, 9, 8, 1, 1], 2),
            (vec![7, 7, 7, 7, 6, 6], 3),
        ] {
            let inst = Instance::new(times.clone(), m).unwrap();
            let ms = FixedMachinesFptas::exact().makespan(&inst).unwrap();
            assert_eq!(ms, exact_opt(&inst), "times={times:?} m={m}");
        }
    }

    #[test]
    fn epsilon_guarantee_holds() {
        let inst = Instance::new(
            vec![83, 71, 64, 59, 52, 47, 41, 38, 33, 29, 24, 18, 12, 7],
            3,
        )
        .unwrap();
        let opt = exact_opt(&inst);
        for eps in [0.5, 0.2, 0.1, 0.05] {
            let ms = FixedMachinesFptas::new(eps)
                .unwrap()
                .makespan(&inst)
                .unwrap();
            assert!(
                ms as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
                "eps={eps}: {ms} vs opt {opt}"
            );
        }
    }

    #[test]
    fn tighter_epsilon_is_never_worse_on_this_instance() {
        let inst = Instance::new(vec![40, 31, 30, 23, 17, 12, 9, 5, 5, 2], 2).unwrap();
        let loose = FixedMachinesFptas::new(0.5)
            .unwrap()
            .makespan(&inst)
            .unwrap();
        let tight = FixedMachinesFptas::new(0.05)
            .unwrap()
            .makespan(&inst)
            .unwrap();
        assert!(tight <= loose);
        assert_eq!(tight, exact_opt(&inst));
    }

    #[test]
    fn schedule_is_valid_and_matches_claimed_makespan() {
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2], 4).unwrap();
        let algo = FixedMachinesFptas::new(0.1).unwrap();
        let s = algo.schedule(&inst).unwrap();
        s.validate(&inst).unwrap();
    }

    #[test]
    fn rejects_negative_epsilon() {
        assert!(FixedMachinesFptas::new(-0.1).is_err());
        assert!(FixedMachinesFptas::new(f64::NAN).is_err());
    }

    #[test]
    fn empty_and_single_job() {
        let empty = Instance::new(vec![], 3).unwrap();
        assert_eq!(FixedMachinesFptas::exact().makespan(&empty).unwrap(), 0);
        let one = Instance::new(vec![9], 3).unwrap();
        assert_eq!(FixedMachinesFptas::exact().makespan(&one).unwrap(), 9);
    }

    #[test]
    fn state_cap_guards_exact_mode() {
        // 40 distinct-ish jobs on 5 machines in exact mode would explode; the
        // guard must fire rather than OOM.
        let times: Vec<u64> = (1..=40).map(|i| 97 * i % 89 + 1).collect();
        let inst = Instance::new(times, 5).unwrap();
        let tiny_cap = FixedMachinesFptas {
            epsilon: 0.0,
            max_states: 1000,
        };
        assert!(matches!(
            tiny_cap.schedule(&inst),
            Err(Error::BudgetExhausted {
                incumbent: None,
                ..
            })
        ));
    }

    #[test]
    fn trimming_keeps_state_counts_polynomial() {
        let times: Vec<u64> = (1..=30).map(|i| 173 * i % 97 + 3).collect();
        let inst = Instance::new(times, 3).unwrap();
        // With eps = 0.3 the state space stays tiny; the default cap is far
        // from being hit and the answer is near-optimal.
        let ms = FixedMachinesFptas::new(0.3)
            .unwrap()
            .makespan(&inst)
            .unwrap();
        let opt = exact_opt(&inst);
        assert!(ms as f64 <= 1.3 * opt as f64);
    }
}
